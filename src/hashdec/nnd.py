"""Trainable unrolled belief-propagation decoder.

The decoder unrolls T flooding iterations of sum-product BP and makes its
weights learnable: a multiplier per edge and per channel input on every
variable-to-check layer, and a multiplier per edge and per channel input at
the final marginalization, followed by a sigmoid so outputs are bit
probabilities. ``NndModel.params`` is ``tanner.unit_weights``' dict, which
names each weight as the checkpoint does; classical BP is that dict at one,
so an untrained decoder reproduces it exactly and training starts from it.
Every pass that records no graph (``decode``, the validation losses of
``train_loop``) runs in ``tanner.DECODE_BLOCK``-word blocks inside
``bp_forward``.

``train_loop`` is the one training loop: pretraining and fine-tuning run it on
the decoder's cross-entropy with the ``ExperimentConfig``'s ``nnd_*`` settings,
the pipeline's joint optimisation on MDH + NND.

Also hosts the conventional hard-decision decoder over hard-limited hash
activations, ``bm_decode`` (the ``ext`` variant's and the ground truth's), and
the per-subject plurality vote over the codewords it corrects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, TrainingError
from .bch import BchCode, decode_hard
from .checkpoint import CheckpointFormatError, entry, load_params, save_params
from .config import ExperimentConfig
from .tanner import TannerGraph, awgn_llr, bp_forward, hard_decision, unit_weights, LLR_CLAMP

VAL_EVERY = 25       # decoder training steps between two validation passes
VAL_WORDS = 512      # AWGN words in the pretraining validation set
VAL_FRACTION = 0.1   # share of fine-tuning samples held out for validation


def sigma_from_snr_db(snr_db, rate):
    """Noise standard deviation for an Eb/N0 value in dB at a given code rate."""
    return float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (snr_db / 10.0))))


def llr_from_activations(activations, scale):
    """Map near-binary tanh activations to channel LLRs: llr = scale * a.

    Positive activations favour bit 0, matching the LLR sign convention.
    Results are clamped to +/-30.
    """
    if scale <= 0:
        raise ValueError(f"LLR scale must be positive, got {scale}")
    activations = np.asarray(activations, dtype=np.float64)
    return (scale * activations).clip(-LLR_CLAMP, LLR_CLAMP)


class NndModel:
    """Unrolled weighted BP decoder for one BCH code."""

    def __init__(self, code: BchCode, iterations):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.code = code
        self.graph = TannerGraph(code.parity_check_matrix)
        self.iterations = iterations
        self.params = unit_weights(self.graph, iterations)

    def parameters(self):
        return self.params

    def posterior(self, llr):
        """Posterior LLRs (B, n) for a (B, n) Tensor or array; positive favours bit 0."""
        if not isinstance(llr, Tensor):
            llr = Tensor(np.asarray(llr, dtype=np.float64))
        if llr.data.ndim != 2 or llr.data.shape[1] != self.graph.n:
            raise ValueError(f"llr shape {llr.data.shape} is not (B, n) with n = {self.graph.n}")
        return ad.transpose(bp_forward(self.graph, ad.transpose(llr), self.iterations, self.params))

    def forward(self, llr):
        """Bit probabilities P(bit = 1) = sigmoid(-posterior), strictly inside (0, 1)."""
        return ad.sigmoid(ad.neg(self.posterior(llr)))

    def decode(self, llr_batch):
        """``tanner.hard_decision`` of a (B, n) batch's posterior, recording no
        graph, so ``bp_forward`` runs it in ``tanner.DECODE_BLOCK``-word blocks."""
        with ad.no_grad():
            return hard_decision(self.posterior(np.atleast_2d(llr_batch)).data)


def train_loop(params, loss, sample_batch, val_batch, steps, step_size, val_every):
    """Adam on a scalar ``loss(inputs, targets)`` over ``params``, a name -> Tensor dict.

    ``sample_batch(step)`` and ``val_batch`` are (inputs, targets) pairs. The
    parameters end at the lowest validation loss, taken before the first step,
    every ``val_every`` steps and after the last; returns those losses. A loss
    above 10x the first step's for 100 steps in a row raises ``TrainingError``.
    """
    state = ad.AdamState(step_size=step_size)
    best = {name: t.data.copy() for name, t in params.items()}
    with ad.no_grad():
        best_val = float(loss(*val_batch).data)
    curve = [best_val]
    initial = None
    bad_streak = 0
    for step in range(steps):
        batch_loss = loss(*sample_batch(step))
        value = float(batch_loss.data)
        if initial is None:
            initial = max(value, 1e-12)
        if value > 10.0 * initial:
            bad_streak += 1
            if bad_streak >= 100:
                raise TrainingError(
                    f"training diverged: loss {value:.4g} > 10x initial for 100 steps"
                )
        else:
            bad_streak = 0
        ad.GradientTape(batch_loss).backward()
        ad.adam_step(params, state)
        if (step + 1) % val_every == 0 or step == steps - 1:
            with ad.no_grad():
                val = float(loss(*val_batch).data)
            curve.append(val)
            if val < best_val:
                best_val = val
                best = {name: t.data.copy() for name, t in params.items()}
    for name, tensor in params.items():
        tensor.data = best[name]
    return curve


def _fit_decoder(model, cfg: ExperimentConfig, steps, sample_batch, val_batch):
    """``train_loop`` on the decoder's bitwise cross-entropy at ``cfg``'s step size."""
    loss = lambda llr, targets: ad.binary_cross_entropy(model.forward(llr), Tensor(targets))
    return train_loop(model.parameters(), loss, sample_batch, val_batch,
                      steps, cfg.nnd_step_size, VAL_EVERY)


def pretrain_awgn(model: NndModel, cfg: ExperimentConfig, seed):
    """Train on AWGN realisations of the transmitted all-zeros codeword.

    Noise levels come from ``cfg.nnd_snr_range_db``; ``seed`` starts the
    training stream and ``seed + 1`` the validation words. Returns (model,
    validation-loss curve); the model carries the weights of the best
    validation checkpoint.
    """
    rng = np.random.default_rng(seed)
    rate = model.code.k / model.code.n
    sigmas = np.array([sigma_from_snr_db(s, rate) for s in cfg.nnd_snr_range_db])
    n = model.code.n

    # channel realisations of the all-zeros codeword, one noise level per word
    def sample_llrs(count, gen):
        sig = gen.choice(sigmas, size=count)
        return awgn_llr(np.zeros((count, n), dtype=np.uint8), sig[:, None], gen)

    val_inputs = sample_llrs(VAL_WORDS, np.random.default_rng(seed + 1))
    val_targets = np.zeros((VAL_WORDS, n))

    def sample_batch(step):
        return sample_llrs(cfg.nnd_batch_size, rng), np.zeros((cfg.nnd_batch_size, n))

    curve = _fit_decoder(model, cfg, cfg.nnd_pretrain_steps, sample_batch,
                         (val_inputs, val_targets))
    return model, curve


@dataclass
class GroundTruthTable:
    """Per-subject codeword labels from the plurality vote, plus statistics."""

    n: int
    labels: dict = field(default_factory=dict)          # subject -> bits (n,)
    support: dict = field(default_factory=dict)         # subject -> modal count
    failures: dict = field(default_factory=dict)        # subject -> failed samples
    totals: dict = field(default_factory=dict)          # subject -> sample count
    excluded: list = field(default_factory=list)        # subjects with no decode

    @property
    def failure_rate(self):
        failed = sum(self.failures.values())
        total = sum(self.totals.values())
        return failed / total if total else 0.0

    def save(self, path, meta=None):
        """One checkpoint (``checkpoint``): counts for each subject it names,
        then the labeled ones' support and bits; ``n`` and ``kind`` join ``meta``."""
        subjects = sorted(set(self.labels) | set(self.totals) | set(self.excluded))
        labeled = sorted(self.labels)
        params = {
            "subject": subjects,
            "failures": [self.failures.get(s, 0) for s in subjects],
            "totals": [self.totals.get(s, 0) for s in subjects],
            "labeled": labeled,
            "support": [self.support.get(s, 0) for s in labeled],
            "label": [self.labels[s] for s in labeled] or np.zeros((0, self.n)),
            "excluded": self.excluded,
        }
        save_params(path, params, {**(meta or {}), "kind": "ground_truth", "n": self.n})

    @classmethod
    def load(cls, path):
        """The table a ``save`` file holds and its meta; any other file, one
        that lacks an entry, or one whose columns disagree in length or on
        which subjects are labeled or excluded raises ``CheckpointFormatError``."""
        params, meta = load_params(path, "ground_truth")
        n = entry(meta, "n", path)
        label = entry(params, "label", path)
        if label.shape[1:] != (n,):
            raise CheckpointFormatError(f"{path}: labels of shape {label.shape} for n = {n}")
        col = {key: entry(params, key, path).astype(np.int64).tolist()
               for key in ("subject", "failures", "totals", "labeled", "support", "excluded")}
        subjects, labeled = col["subject"], col["labeled"]
        if not (len(label) == len(col["support"]) == len(labeled)
                and len(col["failures"]) == len(col["totals"]) == len(subjects)):
            raise CheckpointFormatError(f"{path}: its per-subject columns disagree in length")
        if sorted(labeled + col["excluded"]) != subjects:
            raise CheckpointFormatError(f"{path}: its subjects are not each either labeled or excluded")
        table = cls(n=n, labels=dict(zip(labeled, label.astype(np.uint8))),
                    support=dict(zip(labeled, col["support"])),
                    failures=dict(zip(subjects, col["failures"])),
                    totals=dict(zip(subjects, col["totals"])), excluded=col["excluded"])
        return table, meta


def hard_limit(activations):
    """Activation > 0 -> bit 0, activation <= 0 -> bit 1."""
    return (np.asarray(activations) <= 0).astype(np.uint8)


def bm_decode(code: BchCode, activations):
    """The conventional hard-decision decoder on (N, n) activations: (bits, ok).
    Each hard-limited row that ``decode_hard`` corrects becomes its codeword and
    is marked in ``ok``; a row that fails keeps its raw code."""
    bits = hard_limit(activations)
    ok = np.zeros(len(bits), dtype=bool)
    for i, row in enumerate(bits):
        result = decode_hard(code, row)
        if result.success:
            row[:] = result.codeword
            ok[i] = True
    return bits, ok


def make_ground_truth(activations, subjects, code: BchCode):
    """``bm_decode`` every (N, n) row of activations and vote per subject, the
    row's entry in ``subjects``, for its label codeword. Rows that fail to decode
    are left out of the vote; subjects whose rows all fail are excluded and
    reported on the table. Modal ties break toward the lexicographically
    smallest codeword, the first that ``np.unique`` returns."""
    activations, subjects = np.asarray(activations, dtype=np.float64), np.asarray(subjects)
    if activations.shape[1:] != (code.n,) or not len(activations):
        raise ValueError(f"activations of shape {activations.shape} are not (N >= 1, n = {code.n})")
    if subjects.shape != activations.shape[:1]:
        raise ValueError(f"{subjects.size} subject ids for {len(activations)} samples")
    bits, ok = bm_decode(code, activations)
    table = GroundTruthTable(n=code.n)
    for subject in np.unique(subjects).tolist():
        rows = subjects == subject
        decoded = rows & ok
        table.totals[subject] = int(rows.sum())
        table.failures[subject] = int(rows.sum() - decoded.sum())
        if not decoded.any():
            table.excluded.append(subject)
            continue
        words, counts = np.unique(bits[decoded], axis=0, return_counts=True)
        best = int(np.argmax(counts))
        table.labels[subject] = words[best]
        table.support[subject] = int(counts[best])
    if not table.labels:
        raise RuntimeError("ground-truth generation failed for every subject")
    return table


def finetune_biometric(model: NndModel, inputs, targets, cfg: ExperimentConfig, seed):
    """Fine-tune the decoder on biometric LLRs against their voted codewords.

    ``inputs`` holds one (N, n) row of LLRs per sample and ``targets`` its
    label codeword; ``seed`` starts the split and minibatch stream. Returns
    the model carrying the best-validation weights.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0 or targets.shape != inputs.shape:
        raise ValueError(f"fine-tuning needs nonempty (N, n) inputs and targets of one shape, "
                         f"got {inputs.shape} and {targets.shape}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(inputs.shape[0])
    n_val = max(1, int(round(VAL_FRACTION * inputs.shape[0])))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        train_idx = val_idx
    tr_in, tr_out = inputs[train_idx], targets[train_idx]

    def sample_batch(step):
        take = rng.integers(0, tr_in.shape[0], size=min(cfg.nnd_batch_size, tr_in.shape[0]))
        return tr_in[take], tr_out[take]

    _fit_decoder(model, cfg, cfg.nnd_finetune_steps, sample_batch,
                 (inputs[val_idx], targets[val_idx]))
    return model


def codeword_error_rate(decoder_bits, labels_bits):
    """Fraction of rows that differ from their label codeword anywhere."""
    differ = np.asarray(decoder_bits) != np.asarray(labels_bits)
    return float(np.mean(np.any(differ, axis=1)))


def sweep_llr_scale(model: NndModel, activations, targets, scales=(2.0, 4.0, 8.0, 16.0)):
    """Measure codeword error rate as a function of the LLR gain.

    ``activations`` holds one (N, n) row of hash activations per sample and
    ``targets`` its label codeword. Returns a list of (scale, cer) pairs plus
    the argmin scale.
    """
    results = []
    for scale in scales:
        bits = model.decode(llr_from_activations(activations, scale))
        results.append((float(scale), codeword_error_rate(bits, targets)))
    best = min(results, key=lambda r: (r[1], r[0]))[0]
    return results, best
