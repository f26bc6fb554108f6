"""End-to-end pipeline on a reduced configuration: all stages, all variants.

Writes its artifacts under ./demo_run (safe to delete afterwards).

Run:  python3 demos/07_full_pipeline.py   (about 15 seconds)
"""

import shutil

from hashdec.config import ExperimentConfig
from hashdec.pipeline import run_all, stage_bench

RUN_DIR = "demo_run"
shutil.rmtree(RUN_DIR, ignore_errors=True)

cfg = ExperimentConfig(
    code_m=4, code_t=2,                       # BCH(15,7) keeps the demo quick
    feature_dim=8, fusion_dim=32, encoder_hidden=(32,),
    bandwidths=(1.0, 4.0, 16.0, 64.0), patience=60, stage_max_steps=120,
    phase_a_steps=120, nnd_pretrain_steps=60, nnd_finetune_steps=60,
    joint_steps=40,
    train_subjects=24, nnd_subjects=12, test_subjects=12, samples_per_subject=10,
    sigma_face=0.05, sigma_iris=0.05,
    seed=11,
)
print(f"config fingerprint {cfg.fingerprint()}, code {cfg.code_name()}")

results = run_all(cfg, RUN_DIR, overwrite=True)

print("\n== authentication (equal error rate) ==")
order = ("mdh", "ext", "nnd", "mdhnd")
label = {
    "mdh": "hash codes only",
    "ext": "+ conventional decoder",
    "nnd": "+ channel-pretrained decoder",
    "mdhnd": "jointly optimised system",
}
for variant in order:
    m = results[("auth", variant)]
    print(f"  {label[variant]:30s} EER {m['eer']:8.4%}   GAR@1%FAR {m['gar_at_far_0.01']:.4f}")

print("\n== identification (closed set) ==")
for variant in order:
    m = results[("ident", variant)]
    print(f"  {label[variant]:30s} accuracy {m['identification_accuracy']:.4f}")

report = stage_bench(cfg, RUN_DIR, repetitions=100)
print(f"\nper-authentication latency: mean {report['latency_mean_ms']:.2f} ms, "
      f"median {report['latency_median_ms']:.2f} ms, p95 {report['latency_p95_ms']:.2f} ms")
print(f"artifacts (metrics, ROC tables, checkpoints, logs) under ./{RUN_DIR}/")
