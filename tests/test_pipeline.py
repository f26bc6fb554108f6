import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec import pipeline
from hashdec.bch import build_code
from hashdec.biodata import file_sha256, load_dataset
from hashdec.checkpoint import load_params, save_params
from hashdec.config import ConfigError, ExperimentConfig
from hashdec.evaluation import read_metrics
from hashdec.mdh import MdhModel
from hashdec.nnd import GroundTruthTable, NndModel, llr_from_activations, sweep_llr_scale
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


def test_generate_writes_manifest_and_config(tmp_path):
    cfg = tiny_config()
    manifest = stage_generate_data(cfg, str(tmp_path))
    assert set(manifest["files"]) == {"train", "nnd", "test"}
    assert os.path.exists(os.path.join(tmp_path, "config.json"))
    assert os.path.exists(os.path.join(tmp_path, "data_manifest.json"))
    reloaded = ExperimentConfig.load(os.path.join(tmp_path, "config.json"))
    assert reloaded.fingerprint() == cfg.fingerprint()


def test_manifest_records_checksums(tmp_path):
    # the fingerprint and one digest per file; no path, so it is run-dir independent
    cfg = tiny_config()
    run_dir = str(tmp_path)
    manifest = stage_generate_data(cfg, run_dir)
    with open(os.path.join(run_dir, "data_manifest.json")) as fh:
        assert json.load(fh) == manifest
    assert manifest == {
        "fingerprint": cfg.fingerprint(),
        "files": {name: file_sha256(os.path.join(run_dir, f"data_{name}.txt"))
                  for name in ("train", "nnd", "test")},
    }


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
    path = os.path.join(run_dir, "data_nnd.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].replace("0", "1", 1)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(PipelineError, match="data_nnd.txt"):
        stage_train_mdh(cfg, run_dir)


def test_regenerated_data_is_parsed_again(tmp_path):
    run_dir = str(tmp_path)
    stage_generate_data(tiny_config(), run_dir)
    first = pipeline._load_splits(tiny_config(), run_dir)["train"]
    assert pipeline._load_splits(tiny_config(), run_dir)["train"] is first
    stage_generate_data(tiny_config(seed=6), run_dir, overwrite=True)
    second = pipeline._load_splits(tiny_config(seed=6), run_dir)["train"]
    assert second is not first and not np.array_equal(second.face, first.face)
    assert second == load_dataset(os.path.join(run_dir, "data_train.txt"))


def test_loaded_splits_are_read_only(tmp_path):
    stage_generate_data(tiny_config(), str(tmp_path))
    for split in pipeline._load_splits(tiny_config(), str(tmp_path)).values():
        for array in (split.subject, split.role, split.sample_index, split.face, split.iris):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            split.face[0, 0] = 0.0


def test_run_all_parses_each_data_file_once(tmp_path, monkeypatch):
    parsed = []

    def counting_load(path):
        parsed.append(os.path.basename(path))
        return load_dataset(path)

    monkeypatch.setattr(pipeline, "load_dataset", counting_load)
    run_all(tiny_config(), str(tmp_path), overwrite=True)
    assert sorted(parsed) == ["data_nnd.txt", "data_test.txt", "data_train.txt"]


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
    # a checkpoint that lists no models, a manifest that names no config
    cfg, run_dir, _ = finished_run
    params, meta = load_params(os.path.join(run_dir, "mdh.ckpt"))
    path = str(tmp_path / "mdh.ckpt")
    save_params(path, params, {
        "kind": "mdh", "fingerprint": cfg.fingerprint(), "code_m": cfg.code_m,
        "code_t": cfg.code_t, "fusion_mode": cfg.fusion_mode, "face_dim": cfg.face_dim,
        "iris_dim": cfg.iris_dim, "num_classes": cfg.train_subjects, "code_bits": 15,
        "feature_dim": cfg.feature_dim, "fusion_dim": cfg.fusion_dim,
        "encoder_hidden": list(cfg.encoder_hidden), "beta": meta["beta"], "has_head": True,
    })
    with pytest.raises(PipelineError, match=re.escape(path)):
        load_models(path, cfg, build_code(cfg.code_m, cfg.code_t))
    for name in ("data_train.txt", "data_nnd.txt", "data_test.txt"):
        shutil.copy(os.path.join(run_dir, name), tmp_path / name)
    manifest = str(tmp_path / "data_manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"seed": stage_seed(cfg, "data"), "files": {
            name: {"path": str(tmp_path / f"data_{name}.txt"),
                   "sha256": file_sha256(tmp_path / f"data_{name}.txt")}
            for name in ("train", "nnd", "test")}}, fh)
    with pytest.raises(PipelineError, match=re.escape(manifest)):
        pipeline._load_splits(cfg, str(tmp_path))


@pytest.mark.parametrize("kind, with_mdh, with_nnd, has_head", [
    ("mdh", True, False, True),
    ("nnd_pretrained", False, True, None),
    ("nnd_finetuned", False, True, None),
    ("mdhnd", True, True, False),
])
def test_checkpoint_round_trip(tmp_path, kind, with_mdh, with_nnd, has_head):
    cfg = tiny_config()
    code = build_code(cfg.code_m, cfg.code_t)
    rng = np.random.default_rng(3)
    mdh = nnd = None
    if with_mdh:
        mdh = MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, code.n,
                       cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=7)
        mdh.hashing.beta = 16.0
        if not has_head:
            mdh.discard_head()
    if with_nnd:
        nnd = NndModel(code, cfg.nnd_iterations)
    models = [m for m in (mdh, nnd) if m is not None]
    for model in models:
        for tensor in model.parameters().values():
            tensor.data = rng.standard_normal(tensor.data.shape)
    path = str(tmp_path / f"{kind}.ckpt")
    save_models(path, cfg, kind, mdh=mdh, nnd=nnd)
    # the file names its config and its models; the config gives the rest
    meta = load_params(path)[1]
    assert meta == {"kind": kind, "fingerprint": cfg.fingerprint(),
                    "models": [name for name, m in (("mdh", mdh), ("nnd", nnd)) if m is not None],
                    **({"beta": 16.0, "has_head": has_head} if with_mdh else {})}
    mdh_back, nnd_back = load_models(path, cfg, code)
    assert (mdh_back is None) == (mdh is None) and (nnd_back is None) == (nnd is None)
    for model, back in zip(models, [m for m in (mdh_back, nnd_back) if m is not None]):
        restored = back.parameters()
        assert set(restored) == set(model.parameters())
        for name, tensor in model.parameters().items():
            assert np.array_equal(restored[name].data, tensor.data), name
    if mdh is not None:
        assert mdh_back.hashing.beta == 16.0 and mdh_back.has_head == has_head
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
    cfg = tiny_config()
    path = str(tmp_path / "empty.ckpt")
    for models in ([], ["head"]):
        save_params(path, {}, {"kind": "mdh", "fingerprint": cfg.fingerprint(), "models": models})
        with pytest.raises(PipelineError, match=re.escape(path) + " holds neither"):
            load_models(path, cfg, build_code(cfg.code_m, cfg.code_t))


def test_run_all_artifacts(finished_run):
    # exactly the files README lists: no stage-marker file, no leftover temp
    # file; bench_mdhnd.txt is written by ``bench``, which another test runs here
    cfg, run_dir, results = finished_run
    variants = ("mdh", "ext", "nnd", "mdhnd")
    assert set(os.listdir(run_dir)) - {"bench_mdhnd.txt"} == {
        "config.json", "data_train.txt", "data_nnd.txt", "data_test.txt", "data_manifest.json",
        "code_descriptor.txt", "mdh.ckpt", "nnd_pretrained.ckpt", "nnd_finetuned.ckpt",
        "mdhnd.ckpt", "ground_truth.txt", "mdh_log.jsonl", "experiment.log",
        *(f"metrics_{mode}_{v}.txt" for mode in ("auth", "ident") for v in variants),
        *(f"roc_auth_{v}.csv" for v in variants),
    }
    for variant in variants:
        assert ("auth", variant) in results and ("ident", variant) in results


def test_interrupted_record_write_keeps_the_previous_record(tmp_path, monkeypatch):
    # a stage killed before its record is moved into place leaves the old
    # record byte-identical: the manifest, a checkpoint and the ground truth
    cfg, other = tiny_config(), tiny_config(seed=6)
    run_dir = str(tmp_path)
    for stage in (stage_generate_data, stage_train_mdh, stage_ground_truth):
        stage(cfg, run_dir)
    names = ("data_manifest.json", "mdh.ckpt", "ground_truth.txt")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    mdh, _ = load_models(str(tmp_path / "mdh.ckpt"), cfg, build_code(cfg.code_m, cfg.code_t))
    table = GroundTruthTable.load(tmp_path / "ground_truth.txt")
    table.fingerprint = other.fingerprint()

    def killed(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", killed)
    for write in (lambda: stage_generate_data(other, run_dir, overwrite=True),
                  lambda: save_models(str(tmp_path / "mdh.ckpt"), other, "mdh", mdh=mdh),
                  lambda: table.save(tmp_path / "ground_truth.txt")):
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
    from hashdec.biodata import load_dataset

    split = load_dataset(os.path.join(run_dir, "data_test.txt"))
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
    from hashdec.biodata import load_dataset

    split = load_dataset(os.path.join(run_dir, "data_test.txt"))
    with pytest.raises(PipelineError, match="mdhnd"):
        variant_codes(cfg, run_dir, "turbo", split)
    with pytest.raises(PipelineError, match="auth"):
        stage_evaluate(cfg, run_dir, "verify", "mdh")


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


def test_joint_frozen_everything_rejected():
    # refused when the config loads, so no stage can start with it
    with pytest.raises(ConfigError, match="joint_freeze_mdh and joint_freeze_nnd.*vacuous"):
        tiny_config(joint_freeze_mdh=True, joint_freeze_nnd=True)


@pytest.mark.parametrize("frozen", ["mdh", "nnd"])
def test_joint_freeze_keeps_the_frozen_model_bit_identical(tmp_path, frozen):
    cfg = tiny_config(**{f"joint_freeze_{frozen}": True})
    run_dir = str(tmp_path)
    for stage in (stage_generate_data, stage_train_mdh, stage_ground_truth, stage_train_nnd,
                  stage_joint_optimize):
        stage(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh_j, nnd_j = load_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, code)
    mdh_0, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    _, nnd_0 = load_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, code)

    def unchanged(joint, start):
        before = start.parameters()
        return {k: np.array_equal(t.data, before[k].data) for k, t in joint.parameters().items()}

    same = {"mdh": unchanged(mdh_j, mdh_0), "nnd": unchanged(nnd_j, nnd_0)}
    free = "nnd" if frozen == "mdh" else "mdh"
    assert all(same[frozen].values())
    assert not any(same[free].values()), same[free]
    log = Path(run_dir, "experiment.log").read_text()
    assert ("encoder_grad_norm_step1=" in log) == (frozen == "nnd")


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
    table = GroundTruthTable.load(os.path.join(run_dir, "ground_truth.txt"))
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

    def counting_load(path):
        read.append(os.path.basename(path))
        return load_params(path)

    monkeypatch.setattr(pipeline, "load_params", counting_load)
    stats = stage_bench(cfg, run_dir, repetitions=20)
    assert read == ["mdhnd.ckpt"]
    assert stats.repetitions == 20 and stats.mean_ms > 0
    report = read_metrics(os.path.join(run_dir, "bench_mdhnd.txt"))
    assert report["latency_repetitions"] == 20
    assert report["latency_mean_ms"] > 0


def test_message_level_scoring(tmp_path):
    cfg = tiny_config(score_on="message")
    results = run_all(cfg, str(tmp_path), overwrite=True)
    assert 0.0 <= results[("auth", "mdh")]["eer"] <= 1.0
    # thresholds sweep the message length k = 7, not the codeword length 15
    lines = Path(tmp_path, "roc_auth_mdh.csv").read_text().splitlines()
    assert len(lines) == 2 + 7 + 1


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
    assert mdh.hashing.beta == 2.0


def test_stage_seeds_distinct_and_stable():
    cfg = tiny_config()
    seeds = [stage_seed(cfg, s) for s in ("data", "mdh", "ground_truth", "nnd_pre", "nnd_ft", "joint")]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [stage_seed(cfg, s) for s in ("data", "mdh", "ground_truth", "nnd_pre", "nnd_ft", "joint")]


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
