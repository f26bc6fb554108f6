"""Multimodal hashing network: two encoders, a fusion layer, a hashing layer.

The hashing layer uses tanh(beta * x) with a continuation ladder on beta so
the activations approach hard signs as training proceeds. Training follows
three phases: per-modality encoder pretraining, joint-representation training
with frozen encoders, then end-to-end fine-tuning at a reduced learning rate;
the beta ladder runs inside each phase that touches the hashing layer.

The training objective combines classification cross-entropy (with L2 weight
decay), a quantization term that rewards saturated activations, and a
balance term that penalises per-sample mean activation. Loss weights, the
ladder and the optimiser settings are read from the ``ExperimentConfig``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, TrainingError
from .config import ExperimentConfig

FUSION_MODES = ("fca", "bla", "face", "iris")
LOG_EVERY = 50  # training steps between two logged loss records


def _init_linear(rng, fan_in, fan_out):
    w = Tensor(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), requires_grad=True)
    b = Tensor(np.zeros((1, fan_out)), requires_grad=True)
    return w, b


class ModalityEncoder:
    """MLP encoder: input -> tanh hidden layers -> linear feature vector."""

    def __init__(self, rng, input_dim, hidden, feature_dim):
        self.feature_dim = feature_dim
        dims = [input_dim] + list(hidden) + [feature_dim]
        self.layers = [_init_linear(rng, a, b) for a, b in zip(dims, dims[1:])]

    def forward(self, x):
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        for i, (w, b) in enumerate(self.layers):
            h = ad.add(ad.matmul(h, w), b)
            if i < len(self.layers) - 1:
                h = ad.scaled_tanh(h, 1.0)
        return h

    def parameters(self, prefix):
        params = {}
        for i, (w, b) in enumerate(self.layers):
            params[f"{prefix}/w{i}"] = w
            params[f"{prefix}/b{i}"] = b
        return params


class FusionLayer:
    """Joins modality features (concatenation, bilinear, or single) via an FC map."""

    def __init__(self, rng, mode, feature_dim, out_dim):
        if mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode '{mode}' (expected one of {FUSION_MODES})")
        self.mode = mode
        if mode == "fca":
            in_dim = 2 * feature_dim
        elif mode == "bla":
            in_dim = feature_dim * feature_dim
        else:
            in_dim = feature_dim
        self.w, self.b = _init_linear(rng, in_dim, out_dim)

    def forward(self, face_feat, iris_feat):
        if self.mode == "fca":
            joined = ad.concat([face_feat, iris_feat], axis=1)
        elif self.mode == "bla":
            joined = ad.batch_outer(face_feat, iris_feat)
        elif self.mode == "face":
            joined = face_feat
        else:
            joined = iris_feat
        return ad.scaled_tanh(ad.add(ad.matmul(joined, self.w), self.b), 1.0)

    def parameters(self, prefix="fusion"):
        return {f"{prefix}/w": self.w, f"{prefix}/b": self.b}


class HashingLayer:
    """FC map to the code length, activated by tanh(beta * x)."""

    def __init__(self, rng, in_dim, code_bits):
        self.beta = 1.0
        self.w, self.b = _init_linear(rng, in_dim, code_bits)

    def forward(self, fused):
        return ad.scaled_tanh(ad.add(ad.matmul(fused, self.w), self.b), self.beta)

    def calibrate_bias(self, pre_activations):
        """Centre each unit's pre-activation median so bits start balanced."""
        self.b.data = self.b.data - np.median(pre_activations, axis=0, keepdims=True)

    def parameters(self, prefix="hash"):
        return {f"{prefix}/w": self.w, f"{prefix}/b": self.b}


class MdhModel:
    """Encoders + fusion + hashing, with an optional softmax head for training.

    ``mode`` selects the fusion architecture; the unimodal modes ("face",
    "iris") route a single encoder through the same fusion/hash stack and
    exist as comparison arms.
    """

    def __init__(self, mode, face_dim, iris_dim, num_classes, code_bits,
                 feature_dim=16, fusion_dim=128, hidden=(128, 64), seed=0):
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.face_encoder = (
            ModalityEncoder(rng, face_dim, hidden, feature_dim) if mode != "iris" else None
        )
        self.iris_encoder = (
            ModalityEncoder(rng, iris_dim, hidden, feature_dim) if mode != "face" else None
        )
        self.fusion = FusionLayer(rng, mode, feature_dim, fusion_dim)
        self.hashing = HashingLayer(rng, fusion_dim, code_bits)
        self.head_w, self.head_b = _init_linear(rng, code_bits, num_classes)
        self.has_head = True

    # -- parameter books ---------------------------------------------------
    def encoder_parameters(self):
        params = {}
        if self.face_encoder is not None:
            params.update(self.face_encoder.parameters("face_enc"))
        if self.iris_encoder is not None:
            params.update(self.iris_encoder.parameters("iris_enc"))
        return params

    def jrl_parameters(self):
        return {**self.fusion.parameters(), **self.hashing.parameters()}

    def head_parameters(self):
        return {"head/w": self.head_w, "head/b": self.head_b} if self.has_head else {}

    def parameters(self):
        return {**self.encoder_parameters(), **self.jrl_parameters(), **self.head_parameters()}

    def weight_tensors(self):
        """Weight matrices (not biases) for the L2 term."""
        return [t for name, t in self.parameters().items() if "/w" in name]

    def discard_head(self):
        self.has_head = False

    # -- forward -----------------------------------------------------------
    def features(self, face, iris):
        f = self.face_encoder.forward(face) if self.face_encoder is not None else None
        i = self.iris_encoder.forward(iris) if self.iris_encoder is not None else None
        return f, i

    def forward(self, face, iris):
        """Hash activations (N, J) in (-1, 1) and, when the head is attached,
        classification logits (N, M)."""
        f, i = self.features(face, iris)
        fused = self.fusion.forward(f, i)
        acts = self.hashing.forward(fused)
        logits = None
        if self.has_head:
            logits = ad.add(ad.matmul(acts, self.head_w), self.head_b)
        return acts, logits


def total_loss(logits, activations, labels_onehot, weight_tensors, cfg: ExperimentConfig):
    """Composite training objective; returns (loss tensor, component floats).

    The weights are ``cfg``'s ``w_cls``, ``w_quant``, ``w_ent`` and ``l2``.

    Classification term: mean cross-entropy plus l2 * sum of squared weights.
    Quantization term: -(1/J) * sum_n ||o_n||^2 (more negative = more saturated).
    Balance term: sum_n (mean_j o_nj)^2.
    """
    e1 = ad.softmax_cross_entropy(logits, labels_onehot)
    if cfg.l2 > 0:
        reg = None
        for w in weight_tensors:
            reg = ad.sum_sq(w) if reg is None else ad.add(reg, ad.sum_sq(w))
        e1 = ad.add(e1, ad.mul(Tensor(cfg.l2), reg))
    j = activations.data.shape[1]
    e2 = ad.mul(Tensor(-1.0 / j), ad.tensor_sum(ad.square(activations)))
    e3 = ad.tensor_sum(ad.square(ad.mean(activations, axis=1)))
    total = ad.add(
        ad.add(ad.mul(Tensor(cfg.w_cls), e1), ad.mul(Tensor(cfg.w_quant), e2)),
        ad.mul(Tensor(cfg.w_ent), e3),
    )
    components = {
        "e1": float(e1.data),
        "e2": float(e2.data),
        "e3": float(e3.data),
        "total": float(total.data),
    }
    for name, value in components.items():
        if not np.isfinite(value):
            raise TrainingError(f"loss component '{name}' is not finite")
    return total, components


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def one_hot(class_idx, num_classes):
    out = np.zeros((len(class_idx), num_classes))
    out[np.arange(len(class_idx)), class_idx] = 1.0
    return out


def _batches(n, batch_size, rng):
    """Endless shuffled minibatch index stream; a batch never exceeds ``n``."""
    batch_size = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for i in range(0, n - batch_size + 1, batch_size):
            yield order[i : i + batch_size]


def _run_stage(step_fn, cfg: ExperimentConfig, log, phase, beta):
    """Run one beta stage until the loss stops improving or ``stage_max_steps`` hits.

    Returns True if the stage converged inside the step cap.
    """
    best = np.inf
    best_step = 0
    for step in range(cfg.stage_max_steps):
        loss = step_fn(step)
        if loss < best - cfg.eps_loss:
            best, best_step = loss, step
        if step - best_step >= cfg.patience:
            log.append({"event": "stage_done", "phase": phase, "beta": beta,
                        "steps": step + 1, "converged": True, "best_loss": best})
            return True
    log.append({"event": "stage_done", "phase": phase, "beta": beta,
                "steps": cfg.stage_max_steps, "converged": False, "best_loss": best,
                "warning": "stage hit its step cap before converging"})
    return False


def train_step1(model: MdhModel, dataset, cfg: ExperimentConfig, seed):
    """Three-phase supervised training of the hashing network.

    ``dataset`` needs .face, .iris and .subject arrays; ``seed`` starts the
    minibatch stream. Returns (model, log) where the log is a list of
    structured records (one per logging step or stage event) ending in a
    summary with accuracy/saturation/balance.
    """
    face = np.asarray(dataset.face, dtype=np.float64)
    iris = np.asarray(dataset.iris, dtype=np.float64)
    subjects = np.asarray(dataset.subject)
    classes = np.unique(subjects)
    class_idx = np.searchsorted(classes, subjects)
    m = classes.size
    if m != model.num_classes:
        raise ValueError(f"dataset has {m} subjects but the model head expects {model.num_classes}")
    n = face.shape[0]
    rng = np.random.default_rng(seed)
    log = []

    # Phase A: per-modality encoder pretraining with throwaway softmax heads
    for name, encoder, data in (("face", model.face_encoder, face),
                                ("iris", model.iris_encoder, iris)):
        if encoder is None:
            continue
        head_w, head_b = _init_linear(rng, encoder.feature_dim, m)
        params = {**encoder.parameters(f"{name}_enc"), "tmp/w": head_w, "tmp/b": head_b}
        state = ad.AdamState(step_size=cfg.lr)
        batches = _batches(n, cfg.batch_size, rng)
        for step in range(cfg.phase_a_steps):
            idx = next(batches)
            feats = encoder.forward(data[idx])
            logits = ad.add(ad.matmul(feats, head_w), head_b)
            loss = ad.softmax_cross_entropy(logits, Tensor(one_hot(class_idx[idx], m)))
            ad.GradientTape(loss).backward()
            ad.adam_step(params, state)
            if (step + 1) % LOG_EVERY == 0:
                log.append({"event": "train", "phase": f"A-{name}", "beta": None,
                            "step": step + 1, "loss": float(loss.data)})

    # balance the hashing units on the pretrained features before training them
    with ad.no_grad():
        pre = []
        for i in range(0, n, 512):
            f, ii = model.features(face[i : i + 512], iris[i : i + 512])
            fused = model.fusion.forward(f, ii)
            pre.append((ad.matmul(fused, model.hashing.w).data + model.hashing.b.data))
        model.hashing.calibrate_bias(np.concatenate(pre))

    # Phases B and C share the minibatch objective; B freezes the encoders
    def make_step_fn(params, lr, phase, beta):
        state = ad.AdamState(step_size=lr)
        batches = _batches(n, cfg.batch_size, rng)
        counter = {"step": 0}

        def step_fn(_stage_step):
            idx = next(batches)
            acts, logits = model.forward(face[idx], iris[idx])
            loss, comps = total_loss(logits, acts, one_hot(class_idx[idx], m),
                                     model.weight_tensors(), cfg)
            ad.GradientTape(loss).backward()
            ad.adam_step(params, state)
            counter["step"] += 1
            if counter["step"] % LOG_EVERY == 0:
                log.append({"event": "train", "phase": phase, "beta": beta,
                            "step": counter["step"], **comps})
            return comps["total"]

        return step_fn

    for phase, params, lr in (
        ("B", {**model.jrl_parameters(), **model.head_parameters()}, cfg.lr),
        ("C", model.parameters(), cfg.lr * cfg.phase_c_lr_factor),
    ):
        # an int bandwidth in the config must still log and checkpoint as a float
        for beta in map(float, cfg.bandwidths):
            model.hashing.beta = beta
            _run_stage(make_step_fn(params, lr, phase, beta), cfg, log, phase, beta)

    summary = evaluate_hashing(model, face, iris, class_idx)
    log.append({"event": "summary", **summary})
    return model, log


def evaluate_hashing(model: MdhModel, face, iris, class_idx=None, batch=512):
    """Accuracy, saturation fraction and worst per-bit imbalance on a dataset."""
    acts_all, logits_all = [], []
    with ad.no_grad():
        for i in range(0, face.shape[0], batch):
            acts, logits = model.forward(face[i : i + batch], iris[i : i + batch])
            acts_all.append(acts.data)
            if logits is not None:
                logits_all.append(logits.data)
    acts = np.concatenate(acts_all)
    per_bit = np.abs(acts.mean(axis=0))
    out = {
        "saturation": float(np.mean(np.abs(acts) > 0.9)),
        # per-bit batch-mean magnitudes, aggregated two ways, plus the
        # per-sample balance the entropy term directly controls
        "balance_per_bit_mean": float(per_bit.mean()),
        "balance_per_bit_max": float(per_bit.max()),
        "balance_per_sample_max": float(np.max(np.abs(acts.mean(axis=1)))),
    }
    if class_idx is not None and logits_all:
        logits = np.concatenate(logits_all)
        out["accuracy"] = float(np.mean(np.argmax(logits, axis=1) == class_idx))
    return out
