"""Trainable unrolled belief-propagation decoder.

The decoder unrolls T flooding iterations of sum-product BP and makes three
weight classes learnable: a multiplier per edge and per channel input on
every variable-to-check layer, and a multiplier per edge and per channel
input at the final marginalization, followed by a sigmoid so outputs are
bit probabilities. All weights initialise to one, so an untrained decoder
reproduces classical BP exactly; training starts from that baseline.

``train_loop`` is the one training loop: pretraining and fine-tuning run it on
the decoder's cross-entropy with the ``ExperimentConfig``'s ``nnd_*`` settings,
the pipeline's joint optimisation on MDH + NND.

Also hosts the ground-truth machinery: hard-limiting hash activations,
decoding them with the conventional hard-decision decoder, and a per-subject
plurality vote over the successfully decoded codewords.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, TrainingError
from .bch import BchCode, bits_to_hex, decode_hard
from .checkpoint import write_atomic
from .config import ExperimentConfig
from .tanner import TannerGraph, awgn_llr, bp_forward, hard_decision, LLR_CLAMP

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
    return np.clip(scale * activations, -LLR_CLAMP, LLR_CLAMP)


class NndModel:
    """Unrolled weighted BP decoder for one BCH code."""

    def __init__(self, code: BchCode, iterations=5):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.code = code
        self.graph = TannerGraph(code.parity_check_matrix)
        self.iterations = iterations
        e, n = self.graph.num_edges, self.graph.n
        # the first variable layer sees no check messages, so it has no edge weights
        self.edge_weights = [None] + [
            Tensor(np.ones((e, 1)), requires_grad=True) for _ in range(iterations - 1)
        ]
        self.channel_weights = [Tensor(np.ones((n, 1)), requires_grad=True) for _ in range(iterations)]
        self.out_edge_weights = Tensor(np.ones((e, 1)), requires_grad=True)
        self.out_channel_weights = Tensor(np.ones((n, 1)), requires_grad=True)

    def parameters(self):
        params = {}
        for i in range(self.iterations):
            if self.edge_weights[i] is not None:
                params[f"layer{i}/edge"] = self.edge_weights[i]
            params[f"layer{i}/channel"] = self.channel_weights[i]
        params["out/edge"] = self.out_edge_weights
        params["out/channel"] = self.out_channel_weights
        return params

    def posterior(self, llr):
        """Posterior LLRs (B, n) for a (B, n) Tensor or array; positive favours bit 0."""
        if not isinstance(llr, Tensor):
            llr = Tensor(np.asarray(llr, dtype=np.float64))
        if llr.data.ndim != 2 or llr.data.shape[1] != self.graph.n:
            raise ValueError(f"llr shape {llr.data.shape} is not (B, n) with n = {self.graph.n}")
        post = bp_forward(
            self.graph,
            ad.transpose(llr),
            self.iterations,
            edge_weights=self.edge_weights,
            channel_weights=self.channel_weights,
            out_edge_weights=self.out_edge_weights,
            out_channel_weights=self.out_channel_weights,
        )
        return ad.transpose(post)

    def forward(self, llr):
        """Bit probabilities P(bit = 1) = sigmoid(-posterior), strictly inside (0, 1)."""
        return ad.sigmoid(ad.neg(self.posterior(llr)))

    def decode(self, llr_batch):
        """``tanner.hard_decision`` of a (B, n) batch's posterior, recording no graph."""
        with ad.no_grad():
            post = self.posterior(np.atleast_2d(np.asarray(llr_batch, dtype=np.float64)))
        return hard_decision(post.data)


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
    fingerprint: str | None = None                      # of its config

    @property
    def failure_rate(self):
        failed = sum(self.failures.values())
        total = sum(self.totals.values())
        return failed / total if total else 0.0

    def save(self, path):
        lines = [
            "# ground-truth codeword table",
            f"n {self.n}",
            f"excluded {','.join(str(s) for s in self.excluded) if self.excluded else '-'}",
        ]
        # one line per subject: label ('-' when excluded), support, failures, total
        for subject in sorted(set(self.labels) | set(self.totals)):
            label = bits_to_hex(self.labels[subject]) if subject in self.labels else "-"
            lines.append(
                f"{subject} {label} {self.support.get(subject, 0)} "
                f"{self.failures.get(subject, 0)} {self.totals.get(subject, 0)}"
            )
        if self.fingerprint is not None:  # last, so a file cut short names no config
            lines.append(f"fingerprint {self.fingerprint}")
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if len(lines) < 3 or not lines[0].startswith("#"):
            raise ValueError(f"{path}: not a ground-truth table")
        n = int(lines[1].split()[1])
        excluded_field = lines[2].split(None, 1)[1]
        excluded = [] if excluded_field == "-" else [int(x) for x in excluded_field.split(",")]
        table = cls(n=n, excluded=excluded)
        if lines[-1].startswith("fingerprint "):
            table.fingerprint = lines.pop().partition(" ")[2]
        for ln in lines[3:]:
            if not ln:
                continue
            subject_s, hex_s, support_s, fail_s, total_s = ln.split()
            subject = int(subject_s)
            table.failures[subject] = int(fail_s)
            table.totals[subject] = int(total_s)
            if hex_s != "-":
                table.labels[subject] = _hex_to_bits(hex_s, n)
                table.support[subject] = int(support_s)
        return table


def _hex_to_bits(hex_s, n):
    value = int(hex_s, 16)
    return ((value >> np.arange(n)) & 1).astype(np.uint8)


def hard_limit(activations):
    """Activation > 0 -> bit 0, activation <= 0 -> bit 1."""
    activations = np.asarray(activations)
    return (activations <= 0).astype(np.uint8)


def make_ground_truth(outputs_by_subject, code: BchCode):
    """Decode every sample and vote per subject for its label codeword.

    ``outputs_by_subject`` maps subject id -> (num_samples, n) activation
    array. Samples that fail to decode are excluded from the vote; subjects
    whose samples all fail are excluded and reported on the table. Modal
    ties break toward the lexicographically smallest codeword.
    """
    table = GroundTruthTable(n=code.n)
    for subject in sorted(outputs_by_subject):
        samples = np.atleast_2d(np.asarray(outputs_by_subject[subject], dtype=np.float64))
        if samples.shape[0] == 0:
            raise ValueError(f"subject {subject} has no samples")
        if samples.shape[1] != code.n:
            raise ValueError(
                f"subject {subject}: sample length {samples.shape[1]} != n = {code.n}"
            )
        counts = {}
        failures = 0
        for row in samples:
            res = decode_hard(code, hard_limit(row))
            if res.success:
                key = tuple(res.codeword.tolist())
                counts[key] = counts.get(key, 0) + 1
            else:
                failures += 1
        table.totals[subject] = samples.shape[0]
        table.failures[subject] = failures
        if not counts:
            table.excluded.append(subject)
            continue
        best = min(counts, key=lambda cw: (-counts[cw], cw))
        table.labels[subject] = np.array(best, dtype=np.uint8)
        table.support[subject] = counts[best]
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
    decoder_bits = np.asarray(decoder_bits)
    labels_bits = np.asarray(labels_bits)
    return float(np.mean(np.any(decoder_bits != labels_bits, axis=1)))


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
