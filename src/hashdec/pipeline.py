"""Pipeline stages over a run directory: data, hashing net, ground truth,
decoder training, joint optimisation, evaluation, and latency benchmarks.

Every record a stage reads back is a checkpoint (``checkpoint``), the file
``<kind>.ckpt``; ``_WRITERS`` names the command that writes each kind. A
stage has run when its record, the file it writes last, exists; a stage
refuses to run until its predecessors' records do. Records are replaced
atomically, so one that exists is whole. All randomness derives from the
single config seed, fanned out per stage.

The config is the one description of a run. A record's meta names its kind
and its config's fingerprint; ``_read_record`` refuses it under any other,
like a corrupted one. Architectures are built from the config and the kind.

Decoder fine-tuning and joint optimisation run ``nnd.train_loop`` on the same
rows, the labeled samples of the NND split (``_labeled_samples``). Each variant
is a ``VARIANTS`` row; ``ext`` runs the ground truth's decoder, ``nnd.bm_decode``.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bch import build_code, write_descriptor
from .biodata import generate, load_dataset, save_dataset, verify_disjoint
from .checkpoint import CheckpointFormatError, entry, load_params, save_params, write_lines
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
from .mdh import MdhModel, in_chunks, train_step1
from .nnd import (
    GroundTruthTable,
    NndModel,
    bm_decode,
    finetune_biometric,
    hard_limit,
    llr_from_activations,
    make_ground_truth,
    pretrain_awgn,
    sweep_llr_scale,
    train_loop,
)

# each record's kind, in stage order, and the command that writes ``<kind>.ckpt``
_WRITERS = {"data": "generate-data", "mdh": "train-mdh", "ground_truth": "ground-truth",
            "nnd_pretrained": "train-nnd", "nnd_finetuned": "train-nnd",
            "mdhnd": "joint-optimize"}
# each system variant: the records it waits for (a missing nnd_pretrained is
# refused on reading), the record its MDH is read from, and its decoder: None
# for the raw code, "bm" for ``bm_decode``, else the record its NND is read from
VARIANTS = {
    "mdh": (("data", "mdh"), "mdh", None),
    "ext": (("data", "mdh"), "mdh", "bm"),
    "nnd": (("data", "mdh", "ground_truth", "nnd_finetuned"), "mdh", "nnd_pretrained"),
    "mdhnd": (("data", "mdh", "ground_truth", "nnd_finetuned", "mdhnd"), "mdhnd", "mdhnd"),
}


class PipelineError(RuntimeError):
    """Raised when a stage cannot run (gating, refusals, hard failures)."""


def stage_seed(cfg: ExperimentConfig, name):
    """Deterministic per-stage seed derived from the master seed."""
    # index 2 is unused, so that every stage keeps its seed
    idx = {"data": 0, "mdh": 1, "nnd_pre": 3, "nnd_ft": 4, "joint": 5}[name]
    return int(np.random.SeedSequence([cfg.seed, idx]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# run-directory records
# ---------------------------------------------------------------------------

def _require(run_dir, *kinds):
    """Refuse, in stage order, the first record of ``kinds`` missing from the run directory."""
    for kind in kinds:
        if not os.path.exists(os.path.join(run_dir, f"{kind}.ckpt")):
            raise PipelineError(f"no {kind}.ckpt in {run_dir}; run '{_WRITERS[kind]}' first")


def _log_event(run_dir, text):
    with open(os.path.join(run_dir, "experiment.log"), "a") as fh:
        fh.write(text.rstrip("\n") + "\n")


def _remedy(path):
    kind = os.path.basename(path).removesuffix(".ckpt")
    command = _WRITERS.get(kind, "run-all") + (" --overwrite" if kind == "data" else "")
    return f"run '{command}' to rebuild it"


def _read_record(cfg, path, load, decode=lambda record, meta: record):
    """``load(path)``'s (record, meta), the record passed through ``decode``;
    refused unless the file is whole, names this config's fingerprint and
    decodes. The refusal names the command that rewrites the file."""
    try:
        record, meta = load(path)
        if meta.get("fingerprint") == cfg.fingerprint():
            return decode(record, meta), meta
    except (OSError, CheckpointFormatError) as exc:
        raise PipelineError(f"unreadable record: {exc}; {_remedy(path)}") from None
    raise PipelineError(f"{path} was not written under this config (fingerprint "
                        f"{cfg.fingerprint()}); {_remedy(path)}")


def _load_splits(cfg, run_dir):
    """The three data splits of this config, by name."""
    path = os.path.join(run_dir, "data.ckpt")
    splits, _ = _read_record(cfg, path, load_dataset, lambda splits, meta: {
        name: entry(splits, name, path) for name in ("train", "nnd", "test")})
    verify_disjoint(list(splits.values()))
    return splits


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------

def _mdh_model(cfg: ExperimentConfig, code, seed=0):
    """The hashing network the config describes, for the code's length."""
    return MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, code.n,
                    cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=seed)


def _tensors(mdh, nnd):
    """Every parameter of the models (``None`` for none) by its checkpoint
    name, prefixed with ``mdh/`` and ``nnd/`` only when there are both."""
    both = mdh is not None and nnd is not None
    by_prefix = {"mdh/": mdh, "nnd/": nnd} if both else {"": nnd if mdh is None else mdh}
    return {prefix + name: tensor for prefix, model in by_prefix.items()
            for name, tensor in model.parameters().items()}


def save_models(path, cfg: ExperimentConfig, kind, mdh=None, nnd=None):
    """Write the hashing network and/or the decoder to one checkpoint.

    The metadata names the kind, the config's fingerprint and, with an MDH,
    its ``beta``; the config and the kind supply the rest. Parameter names
    carry ``mdh/`` and ``nnd/`` prefixes only when the file holds both models.
    """
    meta = {"kind": kind, "fingerprint": cfg.fingerprint()}
    if mdh is not None:
        meta["beta"] = mdh.beta
    save_params(path, _tensors(mdh, nnd), meta)


def load_models(path, cfg: ExperimentConfig, code):
    """The (mdh, nnd) pair a ``<kind>.ckpt`` of this config holds, ``None`` for
    a model its kind lacks: ``mdh`` the MDH with its head, ``nnd_*`` the NND,
    ``mdhnd`` both, the MDH headless. Other parameter names or shapes, and a
    ``beta`` that is not a finite positive number, are refused."""
    kind = os.path.basename(path).removesuffix(".ckpt")

    def decode(params, meta):
        mdh = _mdh_model(cfg, code) if kind in ("mdh", "mdhnd") else None
        nnd = NndModel(code, cfg.nnd_iterations) if kind != "mdh" else None
        if kind == "mdhnd":
            mdh.discard_head()
        tensors = _tensors(mdh, nnd)
        if ({name: arr.shape for name, arr in params.items()}
                != {name: tensor.data.shape for name, tensor in tensors.items()}):
            raise CheckpointFormatError(f"{path}: its parameters are not a {kind!r} record's")
        for name, tensor in tensors.items():
            tensor.data = params[name]
        if mdh is not None:
            beta = entry(meta, "beta", path)
            if (isinstance(beta, bool) or not isinstance(beta, (int, float))
                    or not math.isfinite(beta) or beta <= 0):
                raise CheckpointFormatError(f"{path}: beta {beta!r} is not a finite positive number")
            mdh.beta = beta
        return mdh, nnd

    models, _ = _read_record(cfg, path, lambda p: load_params(p, kind), decode)
    return models


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_generate_data(cfg: ExperimentConfig, run_dir, overwrite=False):
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "data.ckpt")
    if os.path.exists(path) and not overwrite:
        raise PipelineError(f"{path} already exists; pass overwrite to replace it")
    cfg.save(os.path.join(run_dir, "config.json"))
    open(os.path.join(run_dir, "experiment.log"), "w").close()  # new data, a new log
    splits = generate(cfg.split_spec(), cfg.distortion(), cfg.dims(), stage_seed(cfg, "data"))
    save_dataset(splits, path, {"fingerprint": cfg.fingerprint()})
    return {split.name: split for split in splits}


def stage_train_mdh(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "data")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    write_descriptor(code, os.path.join(run_dir, "code_descriptor.txt"))
    model = _mdh_model(cfg, code, seed=stage_seed(cfg, "mdh"))
    model, log = train_step1(model, splits["train"], cfg, stage_seed(cfg, "mdh"))
    write_lines(os.path.join(run_dir, "mdh_log.jsonl"),
                [json.dumps(record, sort_keys=True) for record in log])
    save_models(os.path.join(run_dir, "mdh.ckpt"), cfg, "mdh", mdh=model)
    return log[-1]


def _activations(model: MdhModel, split):
    chunks = in_chunks(model.forward, split.face, split.iris)
    return np.concatenate([acts.data for acts, _ in chunks])


def stage_ground_truth(cfg: ExperimentConfig, run_dir):
    _require(run_dir, "mdh")
    splits = _load_splits(cfg, run_dir)
    code = build_code(cfg.code_m, cfg.code_t)
    model, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg, code)
    nnd_split = splits["nnd"]
    table = make_ground_truth(_activations(model, nnd_split), nnd_split.subject, code)
    rate = table.failure_rate
    _log_event(run_dir, f"ground_truth failure_rate={rate!r} "
                        f"labeled={len(table.labels)} excluded={len(table.excluded)}")
    if rate > cfg.gt_max_failure_rate:
        diag = {s: f"{table.failures[s]}/{table.totals[s]} failed" for s in table.excluded[:10]}
        raise PipelineError(
            f"ground-truth decode failure rate {rate:.3f} exceeds the "
            f"gt_max_failure_rate gate {cfg.gt_max_failure_rate}; worst subjects: {diag}"
        )
    table.save(os.path.join(run_dir, "ground_truth.ckpt"), {"fingerprint": cfg.fingerprint()})
    return table


def _load_ground_truth(cfg: ExperimentConfig, run_dir):
    table, _ = _read_record(cfg, os.path.join(run_dir, "ground_truth.ckpt"), GroundTruthTable.load)
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
    _require(run_dir, "mdh", "ground_truth", "nnd_finetuned")
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

    params = _tensors(mdh, nndm)
    loss = _composed_loss(mdh, nndm, cfg.llr_scale)

    def batch_from(rng):
        idx = rng.integers(0, tr_y.shape[0], size=min(cfg.joint_batch_size, tr_y.shape[0]))
        return (tr_face[idx], tr_iris[idx]), tr_y[idx]

    if cfg.joint_steps:
        # the encoders' gradient on the first batch, drawn from a twin stream
        first = batch_from(np.random.default_rng(stage_seed(cfg, "joint")))
        ad.GradientTape(loss(*first)).backward()
        enc_norm = float(np.sqrt(sum(float((t.grad ** 2).sum())
                                     for n, t in mdh.params.items() if "_enc/" in n)))
        _log_event(run_dir, f"joint encoder_grad_norm_step1={enc_norm!r}")
    rng = np.random.default_rng(stage_seed(cfg, "joint"))
    curve = train_loop(params, loss, lambda step: batch_from(rng), val_batch,
                       cfg.joint_steps, cfg.joint_step_size, 10)
    initial_val, best_val = curve[0], min(curve)
    _log_event(run_dir, f"joint val_loss_initial={initial_val!r} val_loss_best={best_val!r}")

    save_models(os.path.join(run_dir, "mdhnd.ckpt"), cfg, "mdhnd", mdh=mdh, nnd=nndm)
    return {"val_loss_initial": initial_val, "val_loss_best": best_val}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _variant(cfg: ExperimentConfig, run_dir, variant):
    """Gate a variant by its ``VARIANTS`` row and read each checkpoint once: its
    code, its MDH and its decoder, a function from MDH activations to code bits."""
    if variant not in VARIANTS:
        raise PipelineError(f"unknown variant '{variant}'; expected one of {tuple(VARIANTS)}")
    needs, mdh_kind, decoder = VARIANTS[variant]
    _require(run_dir, *needs)
    code = build_code(cfg.code_m, cfg.code_t)
    mdh, nndm = load_models(os.path.join(run_dir, f"{mdh_kind}.ckpt"), cfg, code)
    if decoder is None:
        return code, mdh, hard_limit
    if decoder == "bm":
        return code, mdh, lambda acts: bm_decode(code, acts)[0]
    if decoder != mdh_kind:
        _, nndm = load_models(os.path.join(run_dir, f"{decoder}.ckpt"), cfg, code)
    return code, mdh, lambda acts: nndm.decode(llr_from_activations(acts, cfg.llr_scale))


def variant_codes(cfg: ExperimentConfig, run_dir, variant, split):
    """Binary codes for every sample of a split under one system variant."""
    _, mdh, decode = _variant(cfg, run_dir, variant)
    return decode(_activations(mdh, split))


def enrollment_templates(codes, subjects, roles):
    """Bitwise-majority template per subject over its enroll-role codes; a
    subject with no enroll row raises ``ValueError``."""
    templates, ids = [], []
    for s in np.unique(subjects):
        rows = codes[(subjects == s) & (roles == "enroll")]
        if rows.shape[0] == 0:
            raise ValueError(f"subject {s} has no enroll row to build a template from")
        ones = rows.sum(axis=0)
        templates.append((2 * ones >= rows.shape[0]).astype(np.uint8))
        ids.append(int(s))
    return np.stack(templates), np.array(ids)


def stage_evaluate(cfg: ExperimentConfig, run_dir, variant):
    """One variant's (auth, ident) metrics in one pass: every test-split pair
    is scored, and each NND-split probe is matched against enroll templates."""
    code, mdh, decode = _variant(cfg, run_dir, variant)
    splits = _load_splits(cfg, run_dir)
    header = {"variant": variant, "fingerprint": cfg.fingerprint(), "code": cfg.code_name(),
              "fusion_mode": cfg.fusion_mode}

    split = splits["test"]
    bits = decode(_activations(mdh, split))
    by_subject = {int(s): bits[split.subject == s] for s in split.subject_ids}
    genuine, impostor = score_protocol(by_subject, cfg.test_subjects, cfg.samples_per_subject)
    roc, eer = roc_and_eer(genuine, impostor, code.n)
    auth = {**header, "mode": "auth", "genuine_count": genuine.size,
            "impostor_count": impostor.size, "eer": float(eer)}
    for target in cfg.far_targets:
        auth[f"gar_at_far_{target}"] = gar_at_far(roc, target)
    write_roc_csv(os.path.join(run_dir, f"roc_auth_{variant}.csv"), roc)
    write_metrics(os.path.join(run_dir, f"metrics_auth_{variant}.txt"), auth)

    split = splits["nnd"]
    bits = decode(_activations(mdh, split))
    templates, ids = enrollment_templates(bits, split.subject, split.role)
    probe = split.role == "probe"
    accuracy = identification_accuracy(bits[probe], split.subject[probe], templates, ids)
    ident = {**header, "mode": "ident", "identification_accuracy": float(accuracy)}
    write_metrics(os.path.join(run_dir, f"metrics_ident_{variant}.txt"), ident)
    return auth, ident


def stage_bench(cfg: ExperimentConfig, run_dir, repetitions):
    """Wall-clock per-authentication latency of the jointly optimised system.

    ``bench_mdhnd.txt`` also holds the median time of each step of one
    authentication: MDH forward, NND decode (LLR mapping included) and Hamming.
    """
    _, mdh, decode = _variant(cfg, run_dir, "mdhnd")
    split = _load_splits(cfg, run_dir)["test"]
    templates, ids = enrollment_templates(decode(_activations(mdh, split)), split.subject,
                                          split.role)
    template_of = dict(zip(ids.tolist(), templates))
    probe_mask = np.nonzero(split.role == "probe")[0]
    queries = [
        (split.face[i], split.iris[i], template_of[int(split.subject[i])])
        for i in probe_mask[: min(len(probe_mask), 64)]
    ]
    step_s = []  # (MDH forward, NND decode, Hamming) seconds per authentication

    def authenticate(query):
        face, iris, template = query
        t0 = time.perf_counter()
        with ad.no_grad():
            acts, _ = mdh.forward(face[None, :], iris[None, :])
        t1 = time.perf_counter()
        bits = decode(acts.data)[0]
        t2 = time.perf_counter()
        score = hamming(bits, template)
        step_s.append((t1 - t0, t2 - t1, time.perf_counter() - t2))
        return score

    report = {"code": cfg.code_name(), "variant": "mdhnd",
              **bench_authentication(authenticate, queries, repetitions)}
    medians = 1e3 * np.median(step_s, axis=0)
    report.update({f"{step}_median_ms": float(ms)
                   for step, ms in zip(("mdh_forward", "nnd_decode", "hamming"), medians)})
    write_metrics(os.path.join(run_dir, "bench_mdhnd.txt"), report)
    return report


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
        for metrics in stage_evaluate(cfg, run_dir, variant):
            results[(metrics["mode"], variant)] = metrics
    _log_event(run_dir, f"run_all completed in {time.time() - t0:.1f}s")
    return results
