"""The two-encoder hashing network and its three-phase training.

Trains on a reduced synthetic benchmark so the demo finishes in ~20 seconds.

Run:  python3 demos/05_hashing_network.py
"""

import numpy as np

from hashdec import autodiff as ad
from hashdec.biodata import DatasetDims, DistortionModel, SplitSpec, generate
from hashdec.config import ExperimentConfig
from hashdec.evaluation import pairwise_hamming
from hashdec.mdh import MdhModel, train_step1
from hashdec.nnd import hard_limit

spec = SplitSpec(train_subjects=40, nnd_subjects=10, test_subjects=10, samples_per_subject=10)
dims = DatasetDims(latent=32, face=64, iris=64)
distortion = DistortionModel(sigma_face=0.4, sigma_iris=0.4, gain_jitter=0.05, offset_sigma=0.05)
train, _, test = generate(spec, distortion, dims, seed=3)
print(f"benchmark: {spec.train_subjects} training subjects x {spec.samples_per_subject} samples, "
      f"{dims.face}-dim face / {dims.iris}-dim iris vectors")

model = MdhModel("bla", dims.face, dims.iris, spec.train_subjects, code_bits=63, feature_dim=16,
                 fusion_dim=128, hidden=(128, 64), seed=3)
cfg = ExperimentConfig(stage_max_steps=250)
print(f"continuation ladder on the hashing tanh bandwidth: {cfg.bandwidths}")

model, log = train_step1(model, train, cfg, seed=3)
stages = [r for r in log if r.get("event") == "stage_done"]
print(f"\nran {len(stages)} bandwidth stages across phases "
      f"{sorted({r['phase'] for r in stages})}")
summary = log[-1]
print(f"training accuracy      : {summary['accuracy']:.3f}")
print(f"activation saturation  : {summary['saturation']:.3f}  (|o| > 0.9)")
print(f"per-bit mean balance   : {summary['balance_per_bit_mean']:.3f}")
print(f"per-sample balance     : {summary['balance_per_sample_max']:.3f}")

print("\n== binary codes for unseen subjects ==")
with ad.no_grad():
    acts, _ = model.forward(test.face, test.iris)
codes = hard_limit(acts.data)
intra, inter = [], []
subjects = test.subject
for i in range(0, test.num_samples, 3):
    for j in range(i + 1, test.num_samples, 5):
        d = int(pairwise_hamming(codes[i : i + 1], codes[j : j + 1])[0, 0])
        (intra if subjects[i] == subjects[j] else inter).append(d)
print(f"same-subject pairs  : mean Hamming distance {np.mean(intra):5.1f} bits")
print(f"cross-subject pairs : mean Hamming distance {np.mean(inter):5.1f} bits")
print("the gap is what the error-correcting decoder exploits downstream")
