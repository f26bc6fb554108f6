"""Pipeline stages over a run directory: data, hashing net, ground truth,
decoder training, joint optimisation, evaluation, and latency benchmarks.

A stage has run when its record, the file it writes last (``STAGES``),
exists; a stage refuses to run until its predecessors' records do. Records
are replaced atomically, so one that exists is whole. All randomness
derives from the single config seed, fanned out per stage.

The config is the one description of a run. Every record a stage reads back
names the fingerprint of the config that wrote it and is refused, like a
corrupted one, under any other: ``data_manifest.json`` holds it beside each
data file's sha256, a checkpoint beside its models and the hashing layer's
``beta`` and head, ``ground_truth.txt`` on its last line. Architectures are
built from the config, never from a file's copy.

Decoder fine-tuning and joint optimisation run ``nnd.train_loop`` on the same
rows, the labeled samples of the NND split (``_labeled_samples``).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bch import build_code, decode_hard, write_descriptor
from .biodata import file_sha256, generate, load_dataset, save_dataset, verify_disjoint
from .checkpoint import CheckpointFormatError, load_params, save_params, write_atomic
from .config import ExperimentConfig
from .evaluation import (
    bench_authentication,
    gar_at_far,
    hamming,
    identification_accuracy,
    roc_and_eer,
    score_protocol,
    write_metrics,
    write_roc_csv,
)
from .mdh import MdhModel, train_step1
from .nnd import (
    GroundTruthTable,
    NndModel,
    finetune_biometric,
    hard_limit,
    llr_from_activations,
    make_ground_truth,
    pretrain_awgn,
    sweep_llr_scale,
    train_loop,
)

# each stage's record, the file it writes last, and the command that runs it
STAGES = {
    "data": ("data_manifest.json", "generate-data"),
    "mdh": ("mdh.ckpt", "train-mdh"),
    "ground_truth": ("ground_truth.txt", "ground-truth"),
    "nnd": ("nnd_finetuned.ckpt", "train-nnd"),
    "joint": ("mdhnd.ckpt", "joint-optimize"),
}
VARIANTS = ("mdh", "ext", "nnd", "mdhnd")
_VARIANT_NEEDS = {
    "mdh": ("data", "mdh"),
    "ext": ("data", "mdh"),
    "nnd": ("data", "mdh", "ground_truth", "nnd"),
    "mdhnd": ("data", "mdh", "ground_truth", "nnd", "joint"),
}


class PipelineError(RuntimeError):
    """Raised when a stage cannot run (gating, refusals, hard failures)."""


def stage_seed(cfg: ExperimentConfig, name):
    """Deterministic per-stage seed derived from the master seed."""
    idx = {"data": 0, "mdh": 1, "ground_truth": 2, "nnd_pre": 3,
           "nnd_ft": 4, "joint": 5}[name]
    return int(np.random.SeedSequence([cfg.seed, idx]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# run-directory records
# ---------------------------------------------------------------------------

def _require(run_dir, *stages):
    """Refuse, in stage order, a stage whose record is missing from the run directory."""
    for stage in stages:
        record, command = STAGES[stage]
        if not os.path.exists(os.path.join(run_dir, record)):
            raise PipelineError(f"stage '{stage}' has not run: no {record}; run '{command}' first")


def _log_event(run_dir, text):
    with open(os.path.join(run_dir, "experiment.log"), "a") as fh:
        fh.write(text.rstrip("\n") + "\n")


def _data_paths(run_dir):
    return {name: os.path.join(run_dir, f"data_{name}.txt") for name in ("train", "nnd", "test")}


# the parsed splits of the current run, keyed by the sha256 of their file
_parsed_splits = {}


def _read_only(split):
    for array in (split.subject, split.role, split.sample_index, split.face, split.iris):
        array.flags.writeable = False
    return split


def _check_fingerprint(cfg, fingerprint, record, remedy):
    """Refuse a record written under another config, or one that names none."""
    if fingerprint != cfg.fingerprint():
        raise PipelineError(f"{record} was not written under this config (fingerprint "
                            f"{cfg.fingerprint()}); {remedy}")


def _load_splits(cfg, run_dir):
    """The three data splits, each file first checked against this config's manifest.

    A file is parsed once per process: its split is kept under the file's
    digest, so a changed file is never served from memory.
    """
    manifest_path = os.path.join(run_dir, "data_manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read the data manifest {manifest_path}: {exc}") from None
    _check_fingerprint(cfg, manifest.get("fingerprint"), f"data manifest {manifest_path}",
                       "run 'generate-data --overwrite' to rebuild the data")
    current = {}
    splits = {}
    for name, path in _data_paths(run_dir).items():
        digest = file_sha256(path) if os.path.exists(path) else None
        if digest is None or digest != manifest["files"].get(name):
            raise PipelineError(
                f"data file {path} is missing or does not match its checksum in "
                f"{manifest_path}; run 'generate-data --overwrite' to rebuild the data"
            )
        split = _parsed_splits.get(digest) or _read_only(load_dataset(path))
        current[digest] = splits[name] = split
    _parsed_splits.clear()
    _parsed_splits.update(current)
    verify_disjoint(list(splits.values()))
    return splits


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------

def _by_prefix(mdh, nnd):
    """Models keyed by parameter-name prefix; only a two-model file prefixes."""
    if mdh is not None and nnd is not None:
        return {"mdh/": mdh, "nnd/": nnd}
    return {"": mdh if nnd is None else nnd}


def _mdh_model(cfg: ExperimentConfig, code, seed=0):
    """The hashing network the config describes, for the code's length."""
    return MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, code.n,
                    cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=seed)


def save_models(path, cfg: ExperimentConfig, kind, mdh=None, nnd=None):
    """Write the hashing network and/or the decoder to one checkpoint.

    The metadata names the config's fingerprint and the models the file
    holds, plus the MDH's ``beta`` and head; the config supplies the rest.
    Parameter names carry ``mdh/`` and ``nnd/`` prefixes only when the file
    holds both models.
    """
    meta = {
        "kind": kind,
        "fingerprint": cfg.fingerprint(),
        "models": [name for name, model in (("mdh", mdh), ("nnd", nnd)) if model is not None],
    }
    if mdh is not None:
        meta.update({"beta": mdh.hashing.beta, "has_head": mdh.has_head})
    params = {prefix + name: tensor for prefix, model in _by_prefix(mdh, nnd).items()
              for name, tensor in model.parameters().items()}
    save_params(path, params, meta)


def load_models(path, cfg: ExperimentConfig, code):
    """The (mdh, nnd) pair a checkpoint of this config holds, ``None`` for a model it lacks."""
    try:
        params, meta = load_params(path)
    except (OSError, CheckpointFormatError) as exc:
        raise PipelineError(f"cannot read checkpoint: {exc}; rerun the stage that writes it") from None
    _check_fingerprint(cfg, meta.get("fingerprint"), f"checkpoint {path}",
                       "rerun the stage that writes it")
    models = meta.get("models") or []
    mdh = nnd = None
    if "mdh" in models:
        mdh = _mdh_model(cfg, code)
        mdh.hashing.beta = meta["beta"]
        if not meta["has_head"]:
            mdh.discard_head()
    if "nnd" in models:
        nnd = NndModel(code, cfg.nnd_iterations)
    if mdh is None and nnd is None:
        raise PipelineError(f"checkpoint {path} holds neither a hashing network nor a decoder")
    for prefix, model in _by_prefix(mdh, nnd).items():
        for name, tensor in model.parameters().items():
            tensor.data = params[prefix + name].copy()
    return mdh, nnd


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_generate_data(cfg: ExperimentConfig, run_dir, overwrite=False):
    os.makedirs(run_dir, exist_ok=True)
    paths = _data_paths(run_dir)
    existing = [p for p in paths.values() if os.path.exists(p)]
    if existing and not overwrite:
        raise PipelineError(
            f"dataset files already exist (e.g. {existing[0]}); pass overwrite to replace them"
        )
    cfg.save(os.path.join(run_dir, "config.json"))
    _parsed_splits.clear()
    splits = generate(cfg.split_spec(), cfg.distortion(), cfg.dims(), stage_seed(cfg, "data"))
    for split in splits:
        save_dataset(split, paths[split.name])
    manifest = {"fingerprint": cfg.fingerprint(),
                "files": {name: file_sha256(path) for name, path in paths.items()}}
    write_atomic(os.path.join(run_dir, "data_manifest.json"),
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return manifest


def stage_train_mdh(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "data")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    write_descriptor(code, os.path.join(run_dir, "code_descriptor.txt"))
    model = _mdh_model(cfg, code, seed=stage_seed(cfg, "mdh"))
    model, log = train_step1(model, splits["train"], cfg, stage_seed(cfg, "mdh"))
    with open(os.path.join(run_dir, "mdh_log.jsonl"), "w") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    save_models(os.path.join(run_dir, "mdh.ckpt"), cfg, "mdh", mdh=model)
    return log[-1]


def _activations(model: MdhModel, split, batch=512):
    acts = []
    with ad.no_grad():
        for i in range(0, split.num_samples, batch):
            a, _ = model.forward(split.face[i : i + batch], split.iris[i : i + batch])
            acts.append(a.data)
    return np.concatenate(acts)


def stage_ground_truth(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "mdh")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    model, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    nnd_split = splits["nnd"]
    acts = _activations(model, nnd_split)
    by_subject = {int(s): acts[nnd_split.subject == s] for s in nnd_split.subject_ids}
    table = make_ground_truth(by_subject, code)
    table.fingerprint = cfg.fingerprint()
    rate = table.failure_rate
    _log_event(run_dir, f"ground_truth failure_rate={rate!r} "
                        f"labeled={len(table.labels)} excluded={len(table.excluded)}")
    if rate > cfg.gt_max_failure_rate:
        diag = {s: f"{table.failures[s]}/{table.totals[s]} failed" for s in table.excluded[:10]}
        raise PipelineError(
            f"ground-truth decode failure rate {rate:.3f} exceeds the "
            f"gt_max_failure_rate gate {cfg.gt_max_failure_rate}; worst subjects: {diag}"
        )
    table.save(os.path.join(run_dir, "ground_truth.txt"))
    return table


def _load_ground_truth(cfg: ExperimentConfig, run_dir):
    path = os.path.join(run_dir, "ground_truth.txt")
    remedy = "run 'ground-truth' to rebuild it"
    try:
        table = GroundTruthTable.load(path)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read ground truth {path}: {exc}; {remedy}") from None
    _check_fingerprint(cfg, table.fingerprint, f"ground truth {path}", remedy)
    return table


def stage_train_nnd(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "ground_truth")
    splits = _load_splits(cfg, run_dir)
    table = _load_ground_truth(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)

    model = NndModel(code, cfg.nnd_iterations)
    model, curve = pretrain_awgn(model, cfg, stage_seed(cfg, "nnd_pre"))
    _log_event(run_dir, f"nnd_pretrain val_curve_first={curve[0]!r} val_curve_best={min(curve)!r}")
    save_models(os.path.join(run_dir, "nnd_pretrained.ckpt"), cfg, "nnd_pretrained", nnd=model)

    enroll = splits["nnd"].by_role("enroll")
    labeled, targets = _labeled_samples(enroll, table)
    if not labeled.any():
        raise PipelineError("no labeled subjects available for fine-tuning")
    acts = _activations(mdh, enroll)[labeled]
    sweep, best_scale = sweep_llr_scale(model, acts, targets)
    for scale, cer in sweep:
        _log_event(run_dir, f"llr_scale_sweep scale={scale!r} cer={cer!r}")
    _log_event(run_dir, f"llr_scale_sweep best={best_scale!r}")
    model = finetune_biometric(model, llr_from_activations(acts, cfg.llr_scale), targets,
                               cfg, stage_seed(cfg, "nnd_ft"))
    save_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, "nnd_finetuned", nnd=model)
    return {"pretrain_curve": curve, "scale_sweep": sweep, "best_scale": best_scale}


def _labeled_samples(split, table: GroundTruthTable):
    """The rows of a split whose subject has a label, and those labels as floats."""
    mask = np.isin(split.subject, sorted(table.labels))
    targets = np.array([table.labels[int(s)] for s in split.subject[mask]], dtype=np.float64)
    return mask, targets.reshape(-1, table.n)


def _composed_loss(mdh, nndm, scale):
    """``loss((face, iris), targets)``: BCE of the NND on the MDH's scaled activations."""
    def loss(inputs, targets):
        acts, _ = mdh.forward(*inputs)
        return ad.binary_cross_entropy(nndm.forward(ad.mul(Tensor(scale), acts)), Tensor(targets))
    return loss


def stage_joint_optimize(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "mdh", "ground_truth", "nnd")
    splits = _load_splits(cfg, run_dir)
    table = _load_ground_truth(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    mdh.discard_head()
    _, nndm = load_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, code)

    enroll, probe = (splits["nnd"].by_role(role) for role in ("enroll", "probe"))
    train_mask, tr_y = _labeled_samples(enroll, table)
    val_mask, va_y = _labeled_samples(probe, table)
    if not train_mask.any():
        raise PipelineError("joint optimisation has no labeled training samples")
    tr_face, tr_iris = enroll.face[train_mask], enroll.iris[train_mask]
    val_batch = ((probe.face[val_mask], probe.iris[val_mask]), va_y)
    if not val_mask.any():
        val_batch = ((tr_face, tr_iris), tr_y)

    params = {}
    if not cfg.joint_freeze_mdh:
        params.update({f"mdh/{k}": v for k, v in mdh.parameters().items()})
    if not cfg.joint_freeze_nnd:
        params.update({f"nnd/{k}": v for k, v in nndm.parameters().items()})
    loss = _composed_loss(mdh, nndm, cfg.llr_scale)

    def batch_from(rng):
        idx = rng.integers(0, tr_y.shape[0], size=min(cfg.joint_batch_size, tr_y.shape[0]))
        return (tr_face[idx], tr_iris[idx]), tr_y[idx]

    if cfg.joint_steps and not cfg.joint_freeze_mdh:
        # the encoders' gradient on the first batch, drawn from a twin stream
        first = batch_from(np.random.default_rng(stage_seed(cfg, "joint")))
        ad.GradientTape(loss(*first)).backward()
        enc_norm = float(np.sqrt(sum(
            float((t.grad ** 2).sum()) for n, t in mdh.parameters().items()
            if "face_enc" in n or "iris_enc" in n
        )))
        _log_event(run_dir, f"joint encoder_grad_norm_step1={enc_norm!r}")
    rng = np.random.default_rng(stage_seed(cfg, "joint"))
    curve = train_loop(params, loss, lambda step: batch_from(rng), val_batch, cfg.joint_steps,
                       cfg.joint_step_size, 10)
    initial_val, best_val = curve[0], min(curve)
    _log_event(run_dir, f"joint val_loss_initial={initial_val!r} val_loss_best={best_val!r}")

    save_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, "mdhnd", mdh=mdh, nnd=nndm)
    return {"val_loss_initial": initial_val, "val_loss_best": best_val}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _require_variant(run_dir, variant):
    if variant not in VARIANTS:
        raise PipelineError(f"unknown variant '{variant}'; expected one of {VARIANTS}")
    _require(run_dir, *_VARIANT_NEEDS[variant])


def variant_codes(cfg: ExperimentConfig, run_dir, variant, split):
    """Binary codes for every sample of a split under one system variant."""
    _require_variant(run_dir, variant)
    code = build_code(cfg.code_m, cfg.code_t)
    ckpt = "mdhnd.ckpt" if variant == "mdhnd" else "mdh.ckpt"
    mdh, nndm = load_models(os.path.join(run_dir, ckpt), cfg, code)
    if variant == "nnd":
        _, nndm = load_models(os.path.join(run_dir, "nnd_pretrained.ckpt"), cfg, code)
    if variant in ("nnd", "mdhnd"):
        return _decoded_codes(cfg, mdh, nndm, split)
    codes = hard_limit(_activations(mdh, split))
    if variant == "mdh":
        return codes
    out = codes.copy()
    for i in range(codes.shape[0]):
        res = decode_hard(code, codes[i])
        if res.success:
            out[i] = res.codeword
    return out  # failures keep the raw intermediate code


def _decoded_codes(cfg: ExperimentConfig, mdh, nndm, split):
    """The decoder's bits for every sample of a split: MDH -> LLRs -> NND."""
    llrs = llr_from_activations(_activations(mdh, split), cfg.llr_scale)
    out = np.empty(llrs.shape, dtype=np.uint8)
    for i in range(0, llrs.shape[0], 512):
        out[i : i + 512] = nndm.decode(llrs[i : i + 512])
    return out


def _scored_bits(cfg, code, codes):
    if cfg.score_on == "message":
        return codes[:, : code.k], code.k
    return codes, code.n


def enrollment_templates(codes, subjects, roles):
    """Bitwise-majority template per subject over its enroll-role codes."""
    templates, ids = [], []
    for s in np.unique(subjects):
        rows = codes[(subjects == s) & (roles == "enroll")]
        if rows.shape[0] == 0:
            rows = codes[subjects == s]
        ones = rows.sum(axis=0)
        templates.append((2 * ones >= rows.shape[0]).astype(np.uint8))
        ids.append(int(s))
    return np.stack(templates), np.array(ids)


def stage_evaluate(cfg: ExperimentConfig, run_dir, mode, variant):
    """Authentication or identification metrics for one system variant."""
    if mode not in ("auth", "ident"):
        raise PipelineError(f"unknown evaluation mode '{mode}' (expected 'auth' or 'ident')")
    _require_variant(run_dir, variant)
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    metrics = {
        "variant": variant,
        "mode": mode,
        "fingerprint": cfg.fingerprint(),
        "code": cfg.code_name(),
        "fusion_mode": cfg.fusion_mode,
    }
    if mode == "auth":
        split = splits["test"]
        codes = variant_codes(cfg, run_dir, variant, split)
        bits, length = _scored_bits(cfg, code, codes)
        by_subject = {int(s): bits[split.subject == s] for s in split.subject_ids}
        scores = score_protocol(by_subject, cfg.test_subjects, cfg.samples_per_subject)
        roc, eer = roc_and_eer(scores, length)
        metrics.update({
            "genuine_count": int(scores.genuine.size),
            "impostor_count": int(scores.impostor.size),
            "eer": float(eer),
        })
        for target in cfg.far_targets:
            metrics[f"gar_at_far_{target}"] = gar_at_far(roc, target)
        write_roc_csv(os.path.join(run_dir, f"roc_auth_{variant}.csv"), roc)
        write_metrics(os.path.join(run_dir, f"metrics_auth_{variant}.txt"), metrics)
        return metrics

    split = splits["nnd"]
    codes = variant_codes(cfg, run_dir, variant, split)
    bits, _ = _scored_bits(cfg, code, codes)
    templates, ids = enrollment_templates(bits, split.subject, split.role)
    probe_mask = split.role == "probe"
    accuracy = identification_accuracy(
        bits[probe_mask], split.subject[probe_mask], templates, ids
    )
    metrics["identification_accuracy"] = float(accuracy)
    write_metrics(os.path.join(run_dir, f"metrics_ident_{variant}.txt"), metrics)
    return metrics


def stage_bench(cfg: ExperimentConfig, run_dir, repetitions=200):
    """Wall-clock per-authentication latency of the jointly optimised system."""
    _require(run_dir, *_VARIANT_NEEDS["mdhnd"])
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, nndm = load_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, code)
    split = splits["test"]
    codes = _decoded_codes(cfg, mdh, nndm, split)
    templates, ids = enrollment_templates(codes, split.subject, split.role)
    template_of = dict(zip(ids.tolist(), templates))
    probe_mask = np.nonzero(split.role == "probe")[0]
    queries = [
        (split.face[i], split.iris[i], template_of[int(split.subject[i])])
        for i in probe_mask[: min(len(probe_mask), 64)]
    ]

    def authenticate(query):
        face, iris, template = query
        with ad.no_grad():
            acts, _ = mdh.forward(face[None, :], iris[None, :])
        llr = llr_from_activations(acts.data, cfg.llr_scale)
        bits = nndm.decode(llr)[0]
        return hamming(bits, template)

    stats = bench_authentication(authenticate, queries, repetitions)
    report = {"code": cfg.code_name(), "variant": "mdhnd", **stats.as_dict()}
    write_metrics(os.path.join(run_dir, "bench_mdhnd.txt"), report)
    return stats


# ---------------------------------------------------------------------------
# convenience driver
# ---------------------------------------------------------------------------

def run_all(cfg: ExperimentConfig, run_dir, overwrite=False):
    """Run every applicable stage and evaluation for one config."""
    t0 = time.time()
    stage_generate_data(cfg, run_dir, overwrite=overwrite)
    stage_train_mdh(cfg, run_dir)
    unimodal = cfg.fusion_mode in ("face", "iris")
    variants = ["mdh"]
    if not unimodal:
        stage_ground_truth(cfg, run_dir)
        stage_train_nnd(cfg, run_dir)
        stage_joint_optimize(cfg, run_dir)
        variants = list(VARIANTS)
    results = {}
    for variant in variants:
        results[("auth", variant)] = stage_evaluate(cfg, run_dir, "auth", variant)
        results[("ident", variant)] = stage_evaluate(cfg, run_dir, "ident", variant)
    _log_event(run_dir, f"run_all completed in {time.time() - t0:.1f}s")
    return results
