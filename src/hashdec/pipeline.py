"""Pipeline stages over a run directory: data, hashing net, ground truth,
decoder training, joint optimisation, evaluation, and latency benchmarks.

Each stage records a marker in ``state.json`` keyed to the config
fingerprint; a stage refuses to run until its predecessors' markers are
present, and markers from a different fingerprint are ignored. All
randomness derives from the single config seed, fanned out per stage.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bch import build_code, decode_hard, write_descriptor
from .biodata import (
    file_sha256,
    generate,
    load_dataset,
    load_manifest,
    save_dataset,
    verify_disjoint,
    write_manifest,
)
from .checkpoint import save_params, load_params
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
)

STAGE_ORDER = ("data", "mdh", "ground_truth", "nnd", "joint")
STAGE_COMMAND = {
    "data": "generate-data",
    "mdh": "train-mdh",
    "ground_truth": "ground-truth",
    "nnd": "train-nnd",
    "joint": "joint-optimize",
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
# run-directory state
# ---------------------------------------------------------------------------

def _state_path(run_dir):
    return os.path.join(run_dir, "state.json")


def load_state(run_dir, cfg):
    path = _state_path(run_dir)
    if not os.path.exists(path):
        return {"fingerprint": cfg.fingerprint(), "markers": {}}
    with open(path) as fh:
        state = json.load(fh)
    if state.get("fingerprint") != cfg.fingerprint():
        # markers from another config must not gate this one
        return {"fingerprint": cfg.fingerprint(), "markers": {}}
    return state


def save_state(run_dir, state):
    with open(_state_path(run_dir), "w") as fh:
        json.dump(state, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mark(run_dir, cfg, stage):
    state = load_state(run_dir, cfg)
    state["markers"][stage] = True
    save_state(run_dir, state)


def _require(run_dir, cfg, *stages):
    state = load_state(run_dir, cfg)
    for stage in stages:
        if not state["markers"].get(stage):
            raise PipelineError(
                f"stage '{stage}' has not run for this config; "
                f"run '{STAGE_COMMAND[stage]}' first"
            )


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


def _load_splits(cfg, run_dir):
    """The three data splits, each file first checked against the manifest.

    A file is parsed once per process: its split is kept under the file's
    digest, so a changed file is never served from memory.
    """
    manifest_path = os.path.join(run_dir, "data_manifest.json")
    try:
        recorded = load_manifest(manifest_path)["files"]
    except (OSError, ValueError, KeyError) as exc:
        raise PipelineError(f"cannot read the data manifest {manifest_path}: {exc}") from None
    current = {}
    splits = {}
    for name, path in _data_paths(run_dir).items():
        digest = file_sha256(path) if os.path.exists(path) else None
        if digest is None or digest != recorded.get(name, {}).get("sha256"):
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


def save_models(path, cfg: ExperimentConfig, kind, mdh=None, nnd=None):
    """Write the hashing network and/or the decoder to one checkpoint.

    The metadata names what the file holds: the MDH's architecture keys,
    the NND's ``iterations``, or both. Parameter names carry ``mdh/`` and
    ``nnd/`` prefixes only when the file holds both models.
    """
    meta = {
        "kind": kind,
        "fingerprint": cfg.fingerprint(),
        "code_m": cfg.code_m,
        "code_t": cfg.code_t,
        "fusion_mode": cfg.fusion_mode,
    }
    if mdh is not None:
        meta.update({
            "face_dim": cfg.face_dim,
            "iris_dim": cfg.iris_dim,
            "num_classes": mdh.num_classes,
            "code_bits": mdh.code_bits,
            "feature_dim": cfg.feature_dim,
            "fusion_dim": cfg.fusion_dim,
            "encoder_hidden": list(cfg.encoder_hidden),
            "beta": mdh.hashing.beta,
            "has_head": mdh.has_head,
        })
    if nnd is not None:
        meta["iterations"] = nnd.iterations
    models = _by_prefix(mdh, nnd)
    if len(models) == 2:
        meta["llr_scale"] = cfg.llr_scale
    params = {prefix + name: tensor for prefix, model in models.items()
              for name, tensor in model.parameters().items()}
    save_params(path, params, meta)


def load_models(path, cfg: ExperimentConfig, code):
    """The (mdh, nnd) pair a checkpoint holds, ``None`` for a model it lacks."""
    params, meta = load_params(path)
    _check_compat(meta, cfg)
    mdh = nnd = None
    if "code_bits" in meta:
        mdh = MdhModel(
            meta["fusion_mode"], meta["face_dim"], meta["iris_dim"], meta["num_classes"],
            meta["code_bits"], meta["feature_dim"], meta["fusion_dim"],
            tuple(meta["encoder_hidden"]),
        )
        mdh.hashing.beta = meta["beta"]
        if not meta["has_head"]:
            mdh.discard_head()
    if "iterations" in meta:
        nnd = NndModel(code, meta["iterations"])
    if mdh is None and nnd is None:
        raise PipelineError(f"checkpoint {path} holds neither a hashing network nor a decoder")
    for prefix, model in _by_prefix(mdh, nnd).items():
        for name, tensor in model.parameters().items():
            tensor.data = params[prefix + name].copy()
    return mdh, nnd


def _check_compat(meta, cfg: ExperimentConfig):
    if meta["code_m"] != cfg.code_m or meta["code_t"] != cfg.code_t:
        raise PipelineError(
            f"checkpoint was built for code m={meta['code_m']}, t={meta['code_t']} "
            f"but the config selects m={cfg.code_m}, t={cfg.code_t}"
        )
    if meta.get("fusion_mode") not in (None, cfg.fusion_mode):
        raise PipelineError(
            f"checkpoint fusion mode '{meta['fusion_mode']}' differs from "
            f"config fusion mode '{cfg.fusion_mode}'"
        )


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
    manifest = write_manifest(
        os.path.join(run_dir, "data_manifest.json"),
        cfg.split_spec(), cfg.distortion(), cfg.dims(), stage_seed(cfg, "data"), paths,
    )
    _mark(run_dir, cfg, "data")
    return manifest


def stage_train_mdh(cfg: ExperimentConfig, run_dir):
    _require(run_dir, cfg, "data")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    write_descriptor(code, os.path.join(run_dir, "code_descriptor.txt"))
    model = MdhModel(
        cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, code.n,
        cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=stage_seed(cfg, "mdh"),
    )
    model, log = train_step1(
        model, splits["train"], cfg.loss_weights(), cfg.schedule(),
        cfg.mdh_train_config(stage_seed(cfg, "mdh")),
    )
    with open(os.path.join(run_dir, "mdh_log.jsonl"), "w") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    save_models(os.path.join(run_dir, "mdh.ckpt"), cfg, "mdh", mdh=model)
    _mark(run_dir, cfg, "mdh")
    return log[-1]


def _activations(model: MdhModel, split, batch=512):
    acts = []
    with ad.no_grad():
        for i in range(0, split.num_samples, batch):
            a, _ = model.forward(split.face[i : i + batch], split.iris[i : i + batch])
            acts.append(a.data)
    return np.concatenate(acts)


def stage_ground_truth(cfg: ExperimentConfig, run_dir):
    _require(run_dir, cfg, "mdh")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    model, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    nnd_split = splits["nnd"]
    acts = _activations(model, nnd_split)
    by_subject = {int(s): acts[nnd_split.subject == s] for s in nnd_split.subject_ids}
    table = make_ground_truth(by_subject, code)
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
    _mark(run_dir, cfg, "ground_truth")
    return table


def stage_train_nnd(cfg: ExperimentConfig, run_dir):
    _require(run_dir, cfg, "ground_truth")
    splits = _load_splits(cfg, run_dir)
    table = GroundTruthTable.load(os.path.join(run_dir, "ground_truth.txt"))
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)

    model = NndModel(code, cfg.nnd_iterations)
    model, curve = pretrain_awgn(model, cfg.nnd_train_config(stage_seed(cfg, "nnd_pre")))
    _log_event(run_dir, f"nnd_pretrain val_curve_first={curve[0]!r} val_curve_best={min(curve)!r}")
    save_models(os.path.join(run_dir, "nnd_pretrained.ckpt"), cfg, "nnd_pretrained", nnd=model)

    nnd_split = splits["nnd"]
    enroll = nnd_split.by_role("enroll")
    acts = _activations(mdh, enroll)
    inputs = {}
    for s in enroll.subject_ids:
        if int(s) in table.labels:
            inputs[int(s)] = llr_from_activations(acts[enroll.subject == s], cfg.llr_scale)
    if not inputs:
        raise PipelineError("no labeled subjects available for fine-tuning")
    sweep, best_scale = sweep_llr_scale(
        model, {s: acts[enroll.subject == s] for s in inputs}, table,
        log_path=os.path.join(run_dir, "experiment.log"),
    )
    model = finetune_biometric(
        model, inputs, table, cfg.nnd_train_config(stage_seed(cfg, "nnd_ft"),
                                                   steps=cfg.nnd_finetune_steps),
    )
    save_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, "nnd_finetuned", nnd=model)
    _mark(run_dir, cfg, "nnd")
    return {"pretrain_curve": curve, "scale_sweep": sweep, "best_scale": best_scale}


def _composed_loss(mdh, nndm, face, iris, targets, scale):
    acts, _ = mdh.forward(face, iris)
    llr = ad.clip(ad.mul(Tensor(scale), acts), -30.0, 30.0)
    probs = nndm.forward(llr)
    return ad.binary_cross_entropy(probs, Tensor(targets))


def stage_joint_optimize(cfg: ExperimentConfig, run_dir):
    if cfg.joint_freeze_mdh and cfg.joint_freeze_nnd:
        raise PipelineError("joint optimisation with every component frozen is vacuous")
    _require(run_dir, cfg, "mdh", "nnd")
    splits = _load_splits(cfg, run_dir)
    table = GroundTruthTable.load(os.path.join(run_dir, "ground_truth.txt"))
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    mdh.discard_head()
    _, nndm = load_models(os.path.join(run_dir, "nnd_finetuned.ckpt"), cfg, code)

    nnd_split = splits["nnd"]
    labeled = np.isin(nnd_split.subject, sorted(table.labels))
    train_mask = labeled & (nnd_split.role == "enroll")
    val_mask = labeled & (nnd_split.role == "probe")
    if not train_mask.any():
        raise PipelineError("joint optimisation has no labeled training samples")
    targets_of = lambda mask: np.stack(
        [table.labels[int(s)] for s in nnd_split.subject[mask]]
    ).astype(np.float64)
    tr_face, tr_iris, tr_y = nnd_split.face[train_mask], nnd_split.iris[train_mask], targets_of(train_mask)
    va_face, va_iris, va_y = nnd_split.face[val_mask], nnd_split.iris[val_mask], targets_of(val_mask)
    if va_face.shape[0] == 0:
        va_face, va_iris, va_y = tr_face, tr_iris, tr_y

    params = {}
    if not cfg.joint_freeze_mdh:
        params.update({f"mdh/{k}": v for k, v in mdh.parameters().items()})
    if not cfg.joint_freeze_nnd:
        params.update({f"nnd/{k}": v for k, v in nndm.parameters().items()})
    opt = ad.Adam(params, step_size=cfg.joint_step_size)
    rng = np.random.default_rng(stage_seed(cfg, "joint"))

    def val_loss():
        with ad.no_grad():
            return float(_composed_loss(mdh, nndm, va_face, va_iris, va_y, cfg.llr_scale).data)

    best = {name: t.data.copy() for name, t in params.items()}
    best_val = val_loss()
    initial_val = best_val
    for step in range(cfg.joint_steps):
        idx = rng.integers(0, tr_face.shape[0], size=min(cfg.joint_batch_size, tr_face.shape[0]))
        loss = _composed_loss(mdh, nndm, tr_face[idx], tr_iris[idx], tr_y[idx], cfg.llr_scale)
        ad.GradientTape(loss).backward()
        if step == 0 and not cfg.joint_freeze_mdh:
            enc_norm = float(np.sqrt(sum(
                float((t.grad ** 2).sum()) for n, t in params.items()
                if n.startswith("mdh/") and ("face_enc" in n or "iris_enc" in n)
            )))
            _log_event(run_dir, f"joint encoder_grad_norm_step1={enc_norm!r}")
        opt.step()
        if (step + 1) % 10 == 0 or step == cfg.joint_steps - 1:
            val = val_loss()
            if val < best_val:
                best_val = val
                best = {name: t.data.copy() for name, t in params.items()}
    for name, tensor in params.items():
        tensor.data = best[name]
    _log_event(run_dir, f"joint val_loss_initial={initial_val!r} val_loss_best={best_val!r}")

    save_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, "mdhnd", mdh=mdh, nnd=nndm)
    _mark(run_dir, cfg, "joint")
    return {"val_loss_initial": initial_val, "val_loss_best": best_val}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def variant_codes(cfg: ExperimentConfig, run_dir, variant, split):
    """Binary codes for every sample of a split under one system variant."""
    if variant not in VARIANTS:
        raise PipelineError(f"unknown variant '{variant}'; expected one of {VARIANTS}")
    _require(run_dir, cfg, *_VARIANT_NEEDS[variant])
    code = build_code(cfg.code_m, cfg.code_t)
    ckpt = "mdhnd.ckpt" if variant == "mdhnd" else "mdh.ckpt"
    mdh, nndm = load_models(os.path.join(run_dir, ckpt), cfg, code)
    acts = _activations(mdh, split)
    if variant == "mdh":
        return hard_limit(acts)
    if variant == "ext":
        codes = hard_limit(acts)
        out = codes.copy()
        for i in range(codes.shape[0]):
            res = decode_hard(code, codes[i])
            if res.success:
                out[i] = res.codeword
        return out  # failures keep the raw intermediate code
    if variant == "nnd":
        _, nndm = load_models(os.path.join(run_dir, "nnd_pretrained.ckpt"), cfg, code)
    llrs = llr_from_activations(acts, cfg.llr_scale)
    out = np.empty((llrs.shape[0], code.n), dtype=np.uint8)
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
    _require(run_dir, cfg, *_VARIANT_NEEDS["mdhnd"])
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, nndm = load_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, code)
    split = splits["test"]
    codes = variant_codes(cfg, run_dir, "mdhnd", split)
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
