import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec import pipeline
from hashdec.bch import build_code
from hashdec.biodata import load_dataset, save_dataset
from hashdec.checkpoint import load_params, save_params
from hashdec.cli import main
from hashdec.config import RETIRED, ConfigError, ExperimentConfig
from hashdec.evaluation import read_metrics, write_metrics
from hashdec.mdh import MdhModel
from hashdec.nnd import (GroundTruthTable, NndModel, llr_from_activations, sigma_from_snr_db,
                         sweep_llr_scale)
from hashdec.pipeline import (
    PipelineError,
    load_models,
    run_all,
    save_models,
    stage_bench,
    stage_evaluate,
    stage_generate_data,
    stage_ground_truth,
    stage_joint_optimize,
    stage_seed,
    stage_train_mdh,
    stage_train_nnd,
    variant_codes,
)


def tiny_config(**overrides):
    """A BCH(15,7) benchmark small enough for per-test pipeline runs."""
    base = dict(
        code_m=4, code_t=2,
        fusion_mode="bla", feature_dim=4, fusion_dim=16, encoder_hidden=(16,),
        bandwidths=(1.0, 8.0, 64.0), patience=30, stage_max_steps=60,
        phase_a_steps=60, batch_size=16,
        nnd_iterations=3, nnd_snr_range_db=(2.0, 4.0),
        nnd_pretrain_steps=20, nnd_finetune_steps=20, nnd_batch_size=16,
        joint_steps=10, joint_batch_size=8,
        train_subjects=10, nnd_subjects=6, test_subjects=6,
        samples_per_subject=6, latent_dim=6, face_dim=12, iris_dim=12,
        sigma_face=0.05, sigma_iris=0.05,
        llr_scale=2.0, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("run"))
    cfg = tiny_config()
    results = run_all(cfg, run_dir, overwrite=True)
    return cfg, run_dir, results


def test_stage_gating_names_missing_stage(tmp_path):
    cfg = tiny_config()
    with pytest.raises(PipelineError, match="generate-data"):
        stage_train_mdh(cfg, str(tmp_path))
    stage_generate_data(cfg, str(tmp_path))
    with pytest.raises(PipelineError, match="train-mdh"):
        stage_ground_truth(cfg, str(tmp_path))
    with pytest.raises(PipelineError, match="ground-truth"):
        stage_train_nnd(cfg, str(tmp_path))


def test_generate_refuses_overwrite(tmp_path):
    cfg = tiny_config()
    stage_generate_data(cfg, str(tmp_path))
    with pytest.raises(PipelineError, match="already exist"):
        stage_generate_data(cfg, str(tmp_path))
    stage_generate_data(cfg, str(tmp_path), overwrite=True)


def flip_byte(path, offset=-1):
    """Flip every bit of one byte of a file, by default its last: a payload byte."""
    blob = bytearray(Path(path).read_bytes())
    blob[offset] ^= 0xFF
    Path(path).write_bytes(bytes(blob))


def test_generate_writes_manifest_and_config(tmp_path):
    # data.ckpt's meta is the data's manifest: its kind and its config
    cfg = tiny_config()
    splits = stage_generate_data(cfg, str(tmp_path))
    assert sorted(splits) == ["nnd", "test", "train"]
    loaded, meta = load_dataset(tmp_path / "data.ckpt")
    assert meta == {"kind": "data", "fingerprint": cfg.fingerprint()}
    assert loaded.keys() == splits.keys()
    assert all(loaded[name] == split for name, split in splits.items())
    reloaded = ExperimentConfig.load(os.path.join(tmp_path, "config.json"))
    assert reloaded.fingerprint() == cfg.fingerprint()


def test_manifest_records_checksums(tmp_path):
    # the codec's one checksum covers every split: a byte flipped in any of
    # them refuses the data, naming the file and the command that rewrites it
    cfg = tiny_config()
    stage_generate_data(cfg, str(tmp_path))
    path = tmp_path / "data.ckpt"
    clean = path.read_bytes()
    for name in ("train", "nnd", "test"):
        flip_byte(path, clean.index(f"{name}/face".encode()) + 40)
        with pytest.raises(PipelineError, match=re.escape(str(path)) + ".*checksum.*generate-data"):
            pipeline._load_splits(cfg, str(tmp_path))
        path.write_bytes(clean)
    assert set(pipeline._load_splits(cfg, str(tmp_path))) == {"train", "nnd", "test"}


def test_fingerprint_mismatch_blocks_stage_reuse(tmp_path):
    cfg = tiny_config()
    stage_generate_data(cfg, str(tmp_path))
    other = tiny_config(seed=6)
    with pytest.raises(PipelineError, match="generate-data"):
        stage_train_mdh(other, str(tmp_path))


def test_tampered_data_file_refused(tmp_path):
    cfg = tiny_config()
    run_dir = str(tmp_path)
    stage_generate_data(cfg, run_dir)
    flip_byte(tmp_path / "data.ckpt")
    with pytest.raises(PipelineError, match="data.ckpt"):
        stage_train_mdh(cfg, run_dir)


def test_regenerated_data_is_parsed_again(tmp_path):
    run_dir = str(tmp_path)
    stage_generate_data(tiny_config(), run_dir)
    first = pipeline._load_splits(tiny_config(), run_dir)["train"]
    stage_generate_data(tiny_config(seed=6), run_dir, overwrite=True)
    second = pipeline._load_splits(tiny_config(seed=6), run_dir)["train"]
    assert not np.array_equal(second.face, first.face)
    assert second == load_dataset(os.path.join(run_dir, "data.ckpt"))[0]["train"]


def test_checkpoint_code_mismatch_refused(finished_run):
    # a checkpoint is read only under the config that wrote it: another code,
    # another fusion mode or just another fusion width is refused
    _, run_dir, _ = finished_run
    path = os.path.join(run_dir, "mdh.ckpt")
    for other in (tiny_config(code_m=3, code_t=1), tiny_config(fusion_mode="fca"),
                  tiny_config(fusion_dim=24)):
        with pytest.raises(PipelineError, match=re.escape(path) + " was not written under this"):
            load_models(path, other, build_code(other.code_m, other.code_t))


def test_records_of_the_earlier_format_refused(finished_run, tmp_path):
    # data that name no config
    cfg, run_dir, _ = finished_run
    splits, _ = load_dataset(os.path.join(run_dir, "data.ckpt"))
    data = str(tmp_path / "data.ckpt")
    save_dataset(splits.values(), data, {"seed": stage_seed(cfg, "data")})
    with pytest.raises(PipelineError, match=re.escape(data)):
        pipeline._load_splits(cfg, str(tmp_path))


@pytest.mark.parametrize("kind, with_mdh, with_nnd, headed", [
    ("mdh", True, False, True),
    ("nnd_pretrained", False, True, None),
    ("nnd_finetuned", False, True, None),
    ("mdhnd", True, True, False),
])
def test_checkpoint_round_trip(tmp_path, kind, with_mdh, with_nnd, headed):
    cfg = tiny_config()
    code = build_code(cfg.code_m, cfg.code_t)
    rng = np.random.default_rng(3)
    mdh = nnd = None
    if with_mdh:
        mdh = MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, code.n,
                       cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=7)
        mdh.beta = 16.0
        if not headed:
            mdh.discard_head()
    if with_nnd:
        nnd = NndModel(code, cfg.nnd_iterations)
    models = [m for m in (mdh, nnd) if m is not None]
    for model in models:
        for tensor in model.parameters().values():
            tensor.data = rng.standard_normal(tensor.data.shape)
    path = str(tmp_path / f"{kind}.ckpt")
    save_models(path, cfg, kind, mdh=mdh, nnd=nnd)
    # the file names its kind and its config; the two give the rest
    meta = load_params(path)[1]
    assert meta == {"kind": kind, "fingerprint": cfg.fingerprint(),
                    **({"beta": 16.0} if with_mdh else {})}
    mdh_back, nnd_back = load_models(path, cfg, code)
    assert (mdh_back is None) == (mdh is None) and (nnd_back is None) == (nnd is None)
    for model, back in zip(models, [m for m in (mdh_back, nnd_back) if m is not None]):
        restored = back.parameters()
        assert set(restored) == set(model.parameters())
        for name, tensor in model.parameters().items():
            assert np.array_equal(restored[name].data, tensor.data), name
    if mdh is not None:
        assert mdh_back.beta == 16.0 and ("head/w" in mdh_back.params) == headed
    if nnd is not None:
        assert nnd_back.iterations == cfg.nnd_iterations


def test_checkpoint_names_and_bytes_survive_a_resave(finished_run, tmp_path):
    cfg, run_dir, _ = finished_run
    code = build_code(cfg.code_m, cfg.code_t)
    paths = {kind: os.path.join(run_dir, f"{kind}.ckpt")
             for kind in ("mdh", "nnd_pretrained", "nnd_finetuned", "mdhnd")}
    mdh, _ = load_models(paths["mdh"], cfg, code)
    assert set(load_params(paths["mdh"])[0]) == set(mdh.parameters())
    joint_mdh, joint_nnd = load_models(paths["mdhnd"], cfg, code)
    assert set(load_params(paths["mdhnd"])[0]) == (
        {f"mdh/{name}" for name in joint_mdh.parameters()}
        | {f"nnd/{name}" for name in joint_nnd.parameters()}
    )
    for kind, path in paths.items():
        mdh, nnd = load_models(path, cfg, code)
        copy = str(tmp_path / f"{kind}.ckpt")
        save_models(copy, cfg, kind, mdh=mdh, nnd=nnd)
        with open(path, "rb") as original, open(copy, "rb") as resaved:
            assert original.read() == resaved.read(), kind


def test_checkpoint_without_a_model_refused(tmp_path):
    # a file of the right kind whose parameters are not exactly its kind's
    # models': none, another model's, or the MDH with its head beside the NND
    cfg = tiny_config()
    code = build_code(cfg.code_m, cfg.code_t)
    mdh = pipeline._mdh_model(cfg, code)
    nnd = NndModel(code, cfg.nnd_iterations)
    joint = {**{f"mdh/{k}": v for k, v in mdh.parameters().items()},
             **{f"nnd/{k}": v for k, v in nnd.parameters().items()}}
    for kind, params in (("mdh", {}), ("mdh", nnd.parameters()),
                         ("nnd_finetuned", mdh.parameters()), ("mdhnd", joint)):
        path = str(tmp_path / f"{kind}.ckpt")
        save_params(path, params, {"kind": kind, "fingerprint": cfg.fingerprint(), "beta": 1.0})
        with pytest.raises(PipelineError, match=re.escape(path) + f".* not a '{kind}' record's"):
            load_models(path, cfg, code)


@pytest.mark.parametrize("beta", [None, 0, -1.0, "x", True, float("nan"), float("inf")])
def test_checkpoint_with_a_bad_beta_refused(tmp_path, beta):
    # beta scales the hash layer's tanh: a record without a finite positive
    # one would score another network, or none at all
    cfg = tiny_config()
    code = build_code(cfg.code_m, cfg.code_t)
    path = str(tmp_path / "mdh.ckpt")
    save_params(path, pipeline._mdh_model(cfg, code).parameters(),
                {"kind": "mdh", "fingerprint": cfg.fingerprint(), "beta": beta})
    with pytest.raises(PipelineError, match=re.escape(path) + ": beta .* not a finite positive"):
        load_models(path, cfg, code)


def test_run_all_artifacts(finished_run):
    # exactly the files README lists: no stage-marker file, no leftover temp
    # file; bench_mdhnd.txt is written by ``bench``, which another test runs here
    cfg, run_dir, results = finished_run
    variants = ("mdh", "ext", "nnd", "mdhnd")
    assert set(os.listdir(run_dir)) - {"bench_mdhnd.txt"} == {
        "config.json", "data.ckpt",
        "code_descriptor.txt", "mdh.ckpt", "nnd_pretrained.ckpt", "nnd_finetuned.ckpt",
        "mdhnd.ckpt", "ground_truth.ckpt", "mdh_log.jsonl", "experiment.log",
        *(f"metrics_{mode}_{v}.txt" for mode in ("auth", "ident") for v in variants),
        *(f"roc_auth_{v}.csv" for v in variants),
    }
    for variant in variants:
        assert ("auth", variant) in results and ("ident", variant) in results


# sha256 over the name and bytes of every metrics_*.txt and roc_*.csv, in
# sorted order, then of mdhnd.ckpt, of the tiny config's run_all; any change to
# what a stage computes or writes moves it (x86-64, numpy 2.4)
RUN_ALL_GOLDEN_TINY = "042e1e678f02ada75af1e8e092abfe523b5975c30643fc2bc27471fb82b6c2c8"


def test_run_all_golden_digest(finished_run):
    _, run_dir, _ = finished_run
    names = sorted(name for name in os.listdir(run_dir)
                   if re.fullmatch(r"metrics_\w+\.txt|roc_\w+\.csv", name))
    digest = hashlib.sha256()
    for name in names + ["mdhnd.ckpt"]:
        digest.update(name.encode())
        digest.update(Path(run_dir, name).read_bytes())
    assert len(names) == 12
    assert digest.hexdigest() == RUN_ALL_GOLDEN_TINY


# sha256 over the names and bytes of mdh.ckpt, then mdh_log.jsonl, of the tiny
# config's trained hashing network in the fusion modes run_all's digest misses
MDH_GOLDEN_TINY = {
    "fca": "1eb581d3760be7aa87151a49a321e97d82ba9f59b48a40be91c0bbf5e0ef9d83",
    "face": "294bf3ad109b9760938eaddcf5431e231061d0b165da41ee63a9d5a6ae467709",
    "iris": "5ca212df6d81b41a618d2e475e14926d7faf2b22ae3d076fcefc7e0e3bc4eb61",
}


@pytest.mark.parametrize("mode", sorted(MDH_GOLDEN_TINY))
def test_mdh_golden_digest(tmp_path, mode):
    cfg, run_dir = tiny_config(fusion_mode=mode), str(tmp_path)
    stage_generate_data(cfg, run_dir)
    stage_train_mdh(cfg, run_dir)
    digest = hashlib.sha256()
    for name in ("mdh.ckpt", "mdh_log.jsonl"):
        digest.update(name.encode())
        digest.update(Path(run_dir, name).read_bytes())
    assert digest.hexdigest() == MDH_GOLDEN_TINY[mode]


def test_evaluate_reads_each_record_once(finished_run, monkeypatch):
    cfg, run_dir, _ = finished_run
    read = []

    def counting_load(path, kind=None):
        read.append(os.path.basename(path))
        return load_params(path, kind)

    monkeypatch.setattr(pipeline, "load_params", counting_load)
    for variant, records in (("mdh", ["mdh.ckpt"]), ("ext", ["mdh.ckpt"]),
                             ("nnd", ["mdh.ckpt", "nnd_pretrained.ckpt"]),
                             ("mdhnd", ["mdhnd.ckpt"])):
        read.clear()
        stage_evaluate(cfg, run_dir, variant)
        assert read == records, variant


def test_interrupted_record_write_keeps_the_previous_record(tmp_path, monkeypatch):
    # a stage killed before its file is moved into place leaves the old file
    # byte-identical: the config, the data, a checkpoint, the ground truth,
    # a metrics file and a ROC file
    cfg, other = tiny_config(), tiny_config(seed=6)
    run_dir = str(tmp_path)
    for stage in (stage_generate_data, stage_train_mdh, stage_ground_truth):
        stage(cfg, run_dir)
    stage_evaluate(cfg, run_dir, "mdh")
    names = ("config.json", "data.ckpt", "mdh.ckpt", "ground_truth.ckpt",
             "metrics_auth_mdh.txt", "roc_auth_mdh.csv")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    splits, _ = load_dataset(tmp_path / "data.ckpt")
    mdh, _ = load_models(str(tmp_path / "mdh.ckpt"), cfg, build_code(cfg.code_m, cfg.code_t))
    table, _ = GroundTruthTable.load(tmp_path / "ground_truth.ckpt")
    meta = {"fingerprint": other.fingerprint()}

    def killed(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", killed)
    for write in (lambda: stage_generate_data(other, run_dir, overwrite=True),
                  lambda: save_dataset(splits.values(), tmp_path / "data.ckpt", meta),
                  lambda: save_models(str(tmp_path / "mdh.ckpt"), other, "mdh", mdh=mdh),
                  lambda: table.save(tmp_path / "ground_truth.ckpt", meta),
                  lambda: write_metrics(tmp_path / "metrics_auth_mdh.txt", {"eer": 0.5}),
                  lambda: stage_evaluate(cfg, run_dir, "mdh")):
        with pytest.raises(OSError, match="interrupted"):
            write()
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


def test_auth_metrics_counts(finished_run):
    cfg, run_dir, results = finished_run
    n, t = cfg.test_subjects, cfg.samples_per_subject
    m = results[("auth", "mdh")]
    assert m["genuine_count"] == n * t * (t - 1) // 2
    assert m["impostor_count"] == n * (n - 1) * t * t // 2
    on_disk = read_metrics(os.path.join(run_dir, "metrics_auth_mdh.txt"))
    assert on_disk["eer"] == m["eer"]
    assert on_disk["fingerprint"] == cfg.fingerprint()


def test_roc_files_written(finished_run):
    _, run_dir, _ = finished_run
    lines = Path(run_dir, "roc_auth_mdhnd.csv").read_text().splitlines()
    assert lines[0] == "threshold,far,gar"
    assert len(lines) == 2 + 15 + 1  # thresholds -1..15


def test_variant_codes_shapes_and_fallback(finished_run):
    cfg, run_dir, _ = finished_run
    split = load_dataset(os.path.join(run_dir, "data.ckpt"))[0]["test"]
    for variant in ("mdh", "ext", "nnd", "mdhnd"):
        codes = variant_codes(cfg, run_dir, variant, split)
        assert codes.shape == (split.num_samples, 15)
        assert codes.dtype == np.uint8
    raw = variant_codes(cfg, run_dir, "mdh", split)
    ext = variant_codes(cfg, run_dir, "ext", split)
    code = build_code(cfg.code_m, cfg.code_t)
    from hashdec.bch import decode_hard

    for i in range(split.num_samples):
        res = decode_hard(code, raw[i])
        if res.success:
            assert np.array_equal(ext[i], res.codeword)
        else:
            assert np.array_equal(ext[i], raw[i])  # fallback keeps the raw code


def test_unknown_variant_rejected(finished_run):
    cfg, run_dir, _ = finished_run
    # the table's order is the CLI's choices and run_all's evaluation order
    assert list(pipeline.VARIANTS) == ["mdh", "ext", "nnd", "mdhnd"]
    split = load_dataset(os.path.join(run_dir, "data.ckpt"))[0]["test"]
    expected = r"unknown variant 'turbo'; expected one of \('mdh', 'ext', 'nnd', 'mdhnd'\)"
    with pytest.raises(PipelineError, match=expected):
        variant_codes(cfg, run_dir, "turbo", split)
    with pytest.raises(PipelineError, match=expected):
        stage_evaluate(cfg, run_dir, "turbo")


def test_joint_zero_steps_is_composition_identity(tmp_path):
    cfg = tiny_config(joint_steps=0)
    run_dir = str(tmp_path)
    stage_generate_data(cfg, run_dir)
    stage_train_mdh(cfg, run_dir)
    stage_ground_truth(cfg, run_dir)
    stage_train_nnd(cfg, run_dir)
    stage_joint_optimize(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh_j, nnd_j = load_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, code)
    mdh_0, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    _, nnd_0 = load_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, code)
    rng = np.random.default_rng(0)
    face = rng.standard_normal((4, cfg.face_dim))
    iris = rng.standard_normal((4, cfg.iris_dim))
    with ad.no_grad():
        acts_j, _ = mdh_j.forward(face, iris)
        acts_0, _ = mdh_0.forward(face, iris)
    assert np.array_equal(acts_j.data, acts_0.data)
    # piecewise pipeline equals the composed model bit for bit
    probs_j = nnd_j.decode(llr_from_activations(acts_j.data, cfg.llr_scale))
    probs_0 = nnd_0.decode(llr_from_activations(acts_0.data, cfg.llr_scale))
    assert np.array_equal(probs_j, probs_0)


def test_joint_moves_every_parameter_of_both_models(finished_run):
    # joint optimisation trains the MDH and the NND together: no tensor of
    # either keeps the value it started the stage with
    cfg, run_dir, _ = finished_run
    code = build_code(cfg.code_m, cfg.code_t)
    mdh_j, nnd_j = load_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, code)
    mdh_0, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    mdh_0.discard_head()
    _, nnd_0 = load_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, code)
    for joint, start, count in ((mdh_j, mdh_0, 12), (nnd_j, nnd_0, 7)):
        before, after = start.parameters(), joint.parameters()
        assert after.keys() == before.keys() and len(after) == count
        still = [name for name, t in after.items() if np.array_equal(t.data, before[name].data)]
        assert not still, still


def test_joint_logs_encoder_gradient_norm(finished_run):
    _, run_dir, _ = finished_run
    log = Path(run_dir, "experiment.log").read_text()
    assert "encoder_grad_norm_step1=" in log
    norm = float(log.split("encoder_grad_norm_step1=")[1].splitlines()[0])
    assert norm > 0.0


def test_llr_scale_sweep_is_logged(finished_run):
    # the pretrained decoder's codeword error rate per LLR gain on the labeled
    # enroll samples, one line per gain and one for the best
    cfg, run_dir, _ = finished_run
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    _, pretrained = load_models(os.path.join(run_dir, "nnd_pretrained.ckpt"), cfg, code)
    enroll = pipeline._load_splits(cfg, run_dir)["nnd"].by_role("enroll")
    table, _ = GroundTruthTable.load(os.path.join(run_dir, "ground_truth.ckpt"))
    labeled, targets = pipeline._labeled_samples(enroll, table)
    sweep, best = sweep_llr_scale(pretrained, pipeline._activations(mdh, enroll)[labeled], targets)
    log = Path(run_dir, "experiment.log").read_text().splitlines()
    assert [line for line in log if line.startswith("llr_scale_sweep ")] == (
        [f"llr_scale_sweep scale={scale!r} cer={cer!r}" for scale, cer in sweep]
        + [f"llr_scale_sweep best={best!r}"]
    )
    assert len(sweep) == 4


def test_ground_truth_gate_blocks_pipeline(tmp_path):
    cfg = tiny_config(gt_max_failure_rate=1e-9, seed=11)
    run_dir = str(tmp_path)
    stage_generate_data(cfg, run_dir)
    stage_train_mdh(cfg, run_dir)
    with pytest.raises(PipelineError, match="gate"):
        stage_ground_truth(cfg, run_dir)


def test_bench_report(finished_run, monkeypatch):
    cfg, run_dir, _ = finished_run
    read = []

    def counting_load(path, kind=None):
        read.append(os.path.basename(path))
        return load_params(path, kind)

    monkeypatch.setattr(pipeline, "load_params", counting_load)
    stats = stage_bench(cfg, run_dir, repetitions=20)
    assert read == ["mdhnd.ckpt"]
    assert stats["latency_repetitions"] == 20 and stats["latency_mean_ms"] > 0
    report = read_metrics(os.path.join(run_dir, "bench_mdhnd.txt"))
    assert report["latency_repetitions"] == 20
    assert report["latency_mean_ms"] > 0
    # the split of one authentication into its three steps
    steps = [report[f"{k}_median_ms"] for k in ("mdh_forward", "nnd_decode", "hamming")]
    assert all(t > 0 for t in steps)
    assert report["latency_median_ms"] / 4 < sum(steps) < 4 * report["latency_median_ms"]


def test_enrollment_templates():
    # subjects 9 and 4, listed out of order; each has one probe row that
    # would flip every bit of its template if it were counted
    codes = np.array([
        [1, 1, 0, 0],  # 9 enroll
        [1, 0, 1, 0],  # 9 enroll
        [0, 0, 0, 1],  # 9 enroll
        [0, 1, 1, 1],  # 9 probe
        [1, 1, 0, 0],  # 4 enroll
        [0, 1, 0, 1],  # 4 enroll: two rows, so a split column is a tie
        [0, 0, 1, 1],  # 4 probe
        [0, 0, 1, 1],  # 4 probe
    ], dtype=np.uint8)
    subjects = np.array([9, 9, 9, 9, 4, 4, 4, 4])
    roles = np.array(["enroll"] * 3 + ["probe"] + ["enroll"] * 2 + ["probe"] * 2)
    templates, ids = pipeline.enrollment_templates(codes, subjects, roles)
    assert ids.tolist() == [4, 9]
    assert templates.dtype == np.uint8
    # subject 4: columns 0 and 3 tie 1-1 and go to 1
    assert templates.tolist() == [[1, 1, 0, 1], [1, 0, 0, 0]]


def test_enrollment_templates_refuse_a_subject_without_enroll_rows():
    # subject 7 has probes only: its template would be built from them
    codes = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="subject 7"):
        pipeline.enrollment_templates(codes, np.array([3, 7, 7]),
                                      np.array(["enroll", "probe", "probe"]))


def test_unimodal_run_all(tmp_path):
    cfg = tiny_config(fusion_mode="iris")
    results = run_all(cfg, str(tmp_path), overwrite=True)
    assert set(results) == {("auth", "mdh"), ("ident", "mdh")}
    assert 0.0 <= results[("auth", "mdh")]["eer"] <= 1.0


def test_integer_bandwidths_train_as_floats_and_keep_the_fingerprint(tmp_path):
    # the ladder is read as floats where training uses it; the config keeps
    # the ints it was given, so its fingerprint is the one it always had
    assert ExperimentConfig().fingerprint() == "6f84bf01455adfae"
    cfg = ExperimentConfig.from_dict({**tiny_config().to_dict(), "bandwidths": [1, 2]})
    assert cfg.bandwidths == (1, 2) and cfg.fingerprint() == "fadf290900cc6052"
    run_dir = str(tmp_path)
    stage_generate_data(cfg, run_dir)
    stage_train_mdh(cfg, run_dir)
    _, meta = load_params(os.path.join(run_dir, "mdh.ckpt"))
    assert type(meta["beta"]) is float and meta["beta"] == 2.0
    with open(os.path.join(run_dir, "mdh_log.jsonl")) as fh:
        betas = [json.loads(line).get("beta") for line in fh]
    stage_betas = [b for b in betas if b is not None]
    assert stage_betas and all(type(b) is float for b in stage_betas)
    assert sorted(set(stage_betas)) == [1.0, 2.0]
    saved = ExperimentConfig.load(os.path.join(run_dir, "config.json"))
    assert saved.fingerprint() == cfg.fingerprint()
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, build_code(cfg.code_m, cfg.code_t))
    assert mdh.beta == 2.0


# the fields gone from the config, at the last values they could hold
LAST_VALUES = {"joint_freeze_mdh": False, "joint_freeze_nnd": False, "score_on": "codeword"}


def test_retired_fields_load_at_their_last_values_and_keep_the_fingerprint():
    assert RETIRED == LAST_VALUES
    assert not set(RETIRED) & {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig.from_dict({**ExperimentConfig().to_dict(), **LAST_VALUES})
    assert cfg.fingerprint() == "6f84bf01455adfae"
    assert cfg == ExperimentConfig()


def test_a_config_file_with_retired_fields_reads_its_records(finished_run):
    # a config.json of the format that still listed the retired fields
    # evaluates the records written under it, to the same bytes
    cfg, run_dir, _ = finished_run
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as fh:
        json.dump({**cfg.to_dict(), **LAST_VALUES}, fh, indent=2, sort_keys=True)
    outputs = ("metrics_auth_mdhnd.txt", "roc_auth_mdhnd.csv", "metrics_ident_mdhnd.txt")
    before = {name: Path(run_dir, name).read_bytes() for name in outputs}
    assert main(["evaluate", "--config", path, "--run-dir", run_dir, "--variant", "mdhnd"]) == 0
    assert {name: Path(run_dir, name).read_bytes() for name in outputs} == before
    cfg.save(path)


def test_stage_seeds_distinct_and_stable():
    cfg = tiny_config()
    seeds = [stage_seed(cfg, s) for s in ("data", "mdh", "nnd_pre", "nnd_ft", "joint")]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [stage_seed(cfg, s) for s in ("data", "mdh", "nnd_pre", "nnd_ft", "joint")]


def test_non_finite_floats_refused():
    # every float field, and the last element of every float tuple, in turn
    checked = 0
    for f in dataclasses.fields(ExperimentConfig):
        for bad in (math.nan, math.inf, -math.inf):
            if isinstance(f.default, float):
                value = bad
            elif isinstance(f.default, tuple) and isinstance(f.default[-1], float):
                value = (*f.default[:-1], bad)
            else:
                continue
            checked += 1
            with pytest.raises(ConfigError, match=f"^{f.name}: must be finite"):
                ExperimentConfig.from_dict({f.name: value})
    assert checked == 3 * 19  # 16 float fields, 3 float tuples


def test_config_takes_an_snr_exactly_when_it_has_a_noise_level():
    # the config's check mirrors sigma_from_snr_db at both edges, where
    # 10^(snr/10) or the noise variance leaves the float range
    code = build_code(4, 2)  # tiny_config's
    rate = code.k / code.n
    seen = set()
    for snr in [*np.arange(-3090.0, -3075.0, 0.5), *np.arange(3075.0, 3090.0, 0.5)]:
        try:
            sigma = sigma_from_snr_db(float(snr), rate)
            computable = math.isfinite(sigma) and sigma > 0
        except (OverflowError, ZeroDivisionError):
            computable = False
        try:
            tiny_config(nnd_snr_range_db=(float(snr),))
            taken = True
        except ConfigError as exc:
            assert str(exc).startswith("nnd_snr_range_db: ")
            taken = False
        assert taken == computable, snr
        seen.add(taken)
    assert seen == {True, False}


def test_config_round_trip_and_validation(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ExperimentConfig.load(path)
    assert loaded.fingerprint() == cfg.fingerprint()
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"not_a_field": 1})
    with pytest.raises(ConfigError, match="fusion_mode"):
        tiny_config(fusion_mode="cca")
    with pytest.raises(ValueError):
        tiny_config(bandwidths=(2.0, 4.0))
    with pytest.raises(ConfigError, match="llr_scale"):
        tiny_config(llr_scale=0.0)
    with pytest.raises(ConfigError, match="nnd_iterations"):
        tiny_config(nnd_iterations=0)
    for far in (0.0, 1.0):
        with pytest.raises(ConfigError, match="far_targets"):
            tiny_config(far_targets=(0.01, far))
    # every field has its default's type; an int is a float, a bool is no int
    for field, value in (("code_m", "6"), ("far_targets", None), ("seed", 1.5),
                         ("code_t", True), ("joint_freeze_mdh", 1), ("encoder_hidden", (16, 0.5)),
                         ("bandwidths", 8.0)):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict({field: value})
    assert tiny_config(llr_scale=4, far_targets=[0.01]).far_targets == (0.01,)
    # no hidden layer is a linear encoder, a valid architecture
    assert ExperimentConfig.from_dict({"encoder_hidden": []}).encoder_hidden == ()
