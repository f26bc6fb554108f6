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
from .config import FUSION_MODES, ExperimentConfig

LOG_EVERY = 50  # training steps between two logged loss records
# rows per pass in ``in_chunks``. Keep it fixed: at n = 255 a whole-split forward
# differs from 512-row chunks by up to 7e-16 (all fusion modes, N = 1,200-2,400)
FORWARD_CHUNK = 512


def in_chunks(fn, face, iris):
    """``fn(face, iris)`` on each ``FORWARD_CHUNK`` rows in turn, recording no graph."""
    with ad.no_grad():
        return [fn(face[i : i + FORWARD_CHUNK], iris[i : i + FORWARD_CHUNK])
                for i in range(0, len(face), FORWARD_CHUNK)]


def _linear(rng, prefix, fan_in, fan_out, index=""):
    """A named affine layer: ``<prefix>/w<index>`` drawn from ``rng`` and scaled
    by 1/sqrt(fan_in), and a zero bias ``<prefix>/b<index>``."""
    w = Tensor(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), requires_grad=True)
    return {f"{prefix}/w{index}": w,
            f"{prefix}/b{index}": Tensor(np.zeros((1, fan_out)), requires_grad=True)}


class MdhModel:
    """Encoders + fusion + hashing, with an optional softmax head for training.

    ``params`` maps every weight to its checkpoint name: ``face_enc/w0``,
    ``face_enc/b0``, ... and ``iris_enc/...`` (MLPs: tanh hidden layers, then a
    linear feature layer), ``fusion/w``/``b``, ``hash/w``/``b`` (activated by
    tanh(beta * x)) and ``head/w``/``b``. ``mode`` selects the fusion: "fca"
    concatenates the two feature vectors, "bla" takes their outer product, and
    the unimodal "face" and "iris" arms hold and fuse a single encoder.
    """

    def __init__(self, mode, face_dim, iris_dim, num_classes, code_bits,
                 feature_dim, fusion_dim, hidden, seed=0):
        if mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode '{mode}' (expected one of {FUSION_MODES})")
        rng = np.random.default_rng(seed)
        self.mode, self.num_classes, self.feature_dim = mode, num_classes, feature_dim
        self.beta = 1.0
        self.params = {}
        # modality -> (weight name, bias name, tanh bandwidth or None) per layer,
        # named once here: formatting them on each forward slows B = 1 serving
        self.encoders = {}
        for modality, input_dim in (("face", face_dim), ("iris", iris_dim)):
            if mode in (modality, "fca", "bla"):
                dims = [input_dim, *hidden, feature_dim]
                layers = self.encoders[modality] = []
                for i, (a, b) in enumerate(zip(dims, dims[1:])):
                    layer = _linear(rng, f"{modality}_enc", a, b, i)
                    self.params.update(layer)
                    layers.append((*layer, 1.0 if i < len(hidden) else None))
        joined = {"fca": 2 * feature_dim, "bla": feature_dim * feature_dim}.get(mode, feature_dim)
        for prefix, a, b in (("fusion", joined, fusion_dim), ("hash", fusion_dim, code_bits),
                             ("head", code_bits, num_classes)):
            self.params.update(_linear(rng, prefix, a, b))

    def parameters(self, prefix=""):
        return {name: t for name, t in self.params.items() if name.startswith(prefix)}

    def weight_tensors(self):
        """Weight matrices (not biases) for the L2 term."""
        return [t for name, t in self.params.items() if "/w" in name]

    def discard_head(self):
        del self.params["head/w"], self.params["head/b"]

    def encode(self, modality, x):
        """The ``"face"`` or ``"iris"`` encoder's feature vectors for inputs ``x``."""
        for w, b, beta in self.encoders[modality]:
            x = ad.dense(x, self.params[w], self.params[b], beta)
        return x

    def fuse(self, face, iris):
        """The fusion layer's output on raw inputs; a unimodal arm reads one of them."""
        if self.mode == "fca":
            joined = ad.concat([self.encode("face", face), self.encode("iris", iris)])
        elif self.mode == "bla":
            joined = ad.batch_outer(self.encode("face", face), self.encode("iris", iris))
        else:
            joined = self.encode(self.mode, face if self.mode == "face" else iris)
        return ad.dense(joined, self.params["fusion/w"], self.params["fusion/b"], 1.0)

    def forward(self, face, iris):
        """Hash activations (N, J) in (-1, 1) and, when the head is attached,
        classification logits (N, M)."""
        p = self.params
        acts = ad.dense(self.fuse(face, iris), p["hash/w"], p["hash/b"], self.beta)
        logits = ad.dense(acts, p["head/w"], p["head/b"]) if "head/w" in p else None
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
    components = {name: float(t.data) for name, t in (("e1", e1), ("e2", e2), ("e3", e3),
                                                      ("total", total))}
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
    """Run one beta stage, a ``step_fn(step)`` call per step, until its loss stops
    improving or ``stage_max_steps`` hits; a ``stage_done`` record says which."""
    best = np.inf
    best_step = 0
    for step in range(cfg.stage_max_steps):
        loss = step_fn(step)
        if loss < best - cfg.eps_loss:
            best, best_step = loss, step
        if step - best_step >= cfg.patience:
            log.append({"event": "stage_done", "phase": phase, "beta": beta,
                        "steps": step + 1, "converged": True, "best_loss": best})
            return
    log.append({"event": "stage_done", "phase": phase, "beta": beta,
                "steps": cfg.stage_max_steps, "converged": False, "best_loss": best,
                "warning": "stage hit its step cap before converging"})


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
    for name in model.encoders:
        data = face if name == "face" else iris
        head = _linear(rng, "tmp", model.feature_dim, m)
        params = {**model.parameters(f"{name}_enc/"), **head}
        state = ad.AdamState(step_size=cfg.lr)
        batches = _batches(n, cfg.batch_size, rng)
        for step in range(cfg.phase_a_steps):
            idx = next(batches)
            logits = ad.dense(model.encode(name, data[idx]), head["tmp/w"], head["tmp/b"])
            loss = ad.softmax_cross_entropy(logits, Tensor(one_hot(class_idx[idx], m)))
            ad.GradientTape(loss).backward()
            ad.adam_step(params, state)
            if (step + 1) % LOG_EVERY == 0:
                log.append({"event": "train", "phase": f"A-{name}", "beta": None,
                            "step": step + 1, "loss": float(loss.data)})

    # centre each hashing unit's pre-activation median on the pretrained
    # features, so the bits start balanced
    w, b = model.params["hash/w"], model.params["hash/b"]
    pre = in_chunks(lambda face, iris: ad.dense(model.fuse(face, iris), w, b).data, face, iris)
    b.data = b.data - np.median(np.concatenate(pre), axis=0, keepdims=True)

    # Phases B and C share the minibatch objective; B freezes the encoders,
    # so no tape runs through them
    def make_step_fn(params, lr, phase, beta):
        state = ad.AdamState(step_size=lr)
        batches = _batches(n, cfg.batch_size, rng)

        def step_fn(step):
            idx = next(batches)
            acts, logits = model.forward(face[idx], iris[idx])
            loss, comps = total_loss(logits, acts, one_hot(class_idx[idx], m),
                                     model.weight_tensors(), cfg)
            ad.GradientTape(loss).backward()
            ad.adam_step(params, state)
            if (step + 1) % LOG_EVERY == 0:
                log.append({"event": "train", "phase": phase, "beta": beta,
                            "step": step + 1, **comps})
            return comps["total"]

        return step_fn

    for phase, params, lr in (
        ("B", {name: t for name, t in model.params.items() if "_enc/" not in name}, cfg.lr),
        ("C", model.parameters(), cfg.lr * cfg.phase_c_lr_factor),
    ):
        with ad.frozen(t for name, t in model.params.items() if name not in params):
            # an int bandwidth in the config must still log and checkpoint as a float
            for beta in map(float, cfg.bandwidths):
                model.beta = beta
                _run_stage(make_step_fn(params, lr, phase, beta), cfg, log, phase, beta)

    summary = evaluate_hashing(model, face, iris, class_idx)
    log.append({"event": "summary", **summary})
    return model, log


def evaluate_hashing(model: MdhModel, face, iris, class_idx):
    """Accuracy, saturation fraction and worst per-bit imbalance on a dataset."""
    outputs = in_chunks(model.forward, face, iris)
    acts = np.concatenate([acts.data for acts, _ in outputs])
    per_bit = np.abs(acts.mean(axis=0))
    out = {
        "saturation": float(np.mean(np.abs(acts) > 0.9)),
        # per-bit batch-mean magnitudes, aggregated two ways, plus the
        # per-sample balance the entropy term directly controls
        "balance_per_bit_mean": float(per_bit.mean()),
        "balance_per_bit_max": float(per_bit.max()),
        "balance_per_sample_max": float(np.max(np.abs(acts.mean(axis=1)))),
    }
    logits = np.concatenate([logits.data for _, logits in outputs])
    out["accuracy"] = float(np.mean(np.argmax(logits, axis=1) == class_idx))
    return out
