"""Trainable unrolled belief-propagation decoder.

The decoder unrolls T flooding iterations of sum-product BP and makes three
weight classes learnable: a multiplier per edge and per channel input on
every variable-to-check layer, and a multiplier per edge and per channel
input at the final marginalization, followed by a sigmoid so outputs are
bit probabilities. All weights initialise to one, so an untrained decoder
reproduces classical BP exactly; training starts from that baseline.

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
from .tanner import TannerGraph, bp_forward, LLR_CLAMP


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

    def get_weights(self):
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def set_weights(self, weights):
        for k, v in self.parameters().items():
            v.data = weights[k].copy()

    def forward(self, llr):
        """Bit probabilities for a batch of channel LLRs.

        ``llr`` is a Tensor or array shaped (B, n) or (n,); the result is the
        matching-shape Tensor of P(bit = 1) = sigmoid(-posterior), strictly
        inside (0, 1).
        """
        squeeze = False
        if not isinstance(llr, Tensor):
            llr = Tensor(np.asarray(llr, dtype=np.float64))
        if llr.data.ndim == 1:
            llr = ad.reshape(llr, (1, llr.data.shape[0]))
            squeeze = True
        if llr.data.shape[1] != self.graph.n:
            raise ValueError(f"llr width {llr.data.shape[1]} != n = {self.graph.n}")
        post = bp_forward(
            self.graph,
            ad.transpose(llr),
            self.iterations,
            edge_weights=self.edge_weights,
            channel_weights=self.channel_weights,
            out_edge_weights=self.out_edge_weights,
            out_channel_weights=self.out_channel_weights,
        )
        probs = ad.sigmoid(ad.neg(ad.transpose(post)))
        if squeeze:
            probs = ad.reshape(probs, (self.graph.n,))
        return probs

    def decode(self, llr_batch):
        """Hard decisions for a (B, n) batch, without recording gradients."""
        with ad.no_grad():
            probs = self.forward(np.atleast_2d(np.asarray(llr_batch, dtype=np.float64)))
        return (probs.data > 0.5).astype(np.uint8)


@dataclass
class NndTrainConfig:
    """Settings for AWGN pretraining and biometric fine-tuning."""

    snr_range_db: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    batch_size: int = 64
    steps: int = 300
    step_size: float = 1e-3
    seed: int = 0
    val_every: int = 25
    val_words: int = 512
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


def _train_loop(model, cfg, sample_batch, val_inputs, val_targets):
    """Adam on the bitwise cross-entropy; keeps the best-validation weights."""
    params = model.parameters()
    opt = ad.Adam(params, step_size=cfg.step_size)
    best = model.get_weights()
    with ad.no_grad():
        best_val = float(ad.binary_cross_entropy(model.forward(val_inputs), Tensor(val_targets)).data)
    curve = [best_val]
    initial = None
    bad_streak = 0
    for step in range(cfg.steps):
        llr, targets = sample_batch(step)
        loss = ad.binary_cross_entropy(model.forward(llr), Tensor(targets))
        value = float(loss.data)
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
        ad.GradientTape(loss).backward()
        opt.step()
        if (step + 1) % cfg.val_every == 0 or step == cfg.steps - 1:
            with ad.no_grad():
                val = float(ad.binary_cross_entropy(model.forward(val_inputs), Tensor(val_targets)).data)
            curve.append(val)
            if val < best_val:
                best_val = val
                best = model.get_weights()
    model.set_weights(best)
    return curve


def pretrain_awgn(model: NndModel, cfg: NndTrainConfig):
    """Train on AWGN realisations of the transmitted all-zeros codeword.

    Returns (model, validation-loss curve); the model carries the weights of
    the best validation checkpoint.
    """
    if not cfg.snr_range_db:
        raise ValueError("snr_range_db must be nonempty for AWGN pretraining")
    rng = np.random.default_rng(cfg.seed)
    rate = model.code.k / model.code.n
    sigmas = np.array([sigma_from_snr_db(s, rate) for s in cfg.snr_range_db])
    n = model.code.n

    # channel realisations of the all-zeros codeword (BPSK symbols all +1)
    def sample_llrs(count, gen):
        sig = gen.choice(sigmas, size=count)
        noise = gen.standard_normal((count, n))
        return 2.0 * (1.0 + sig[:, None] * noise) / (sig[:, None] ** 2)

    val_inputs = sample_llrs(cfg.val_words, np.random.default_rng(cfg.seed + 1))
    val_targets = np.zeros((cfg.val_words, n))

    def sample_batch(step):
        return sample_llrs(cfg.batch_size, rng), np.zeros((cfg.batch_size, n))

    curve = _train_loop(model, cfg, sample_batch, val_inputs, val_targets)
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
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if not lines or not lines[0].startswith("#"):
            raise ValueError(f"{path}: not a ground-truth table")
        n = int(lines[1].split()[1])
        excluded_field = lines[2].split(None, 1)[1]
        excluded = [] if excluded_field == "-" else [int(x) for x in excluded_field.split(",")]
        table = cls(n=n, excluded=excluded)
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


def finetune_biometric(model: NndModel, inputs_by_subject, labels: GroundTruthTable,
                       cfg: NndTrainConfig):
    """Fine-tune the decoder on biometric LLRs against the voted codewords.

    ``inputs_by_subject`` maps subject id -> (num_samples, n) LLR array; every
    subject must appear in the label table. Returns the model carrying the
    best-validation weights.
    """
    pairs_in, pairs_out = [], []
    for subject in sorted(inputs_by_subject):
        if subject not in labels.labels:
            raise ValueError(f"subject {subject} has no ground-truth label")
        target = labels.labels[subject].astype(np.float64)
        for row in np.atleast_2d(np.asarray(inputs_by_subject[subject], dtype=np.float64)):
            pairs_in.append(row)
            pairs_out.append(target)
    if not pairs_in:
        raise ValueError("fine-tuning requires a nonempty training set")
    inputs = np.asarray(pairs_in)
    targets = np.asarray(pairs_out)

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(inputs.shape[0])
    n_val = max(1, int(round(cfg.val_fraction * inputs.shape[0])))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        train_idx = val_idx
    tr_in, tr_out = inputs[train_idx], targets[train_idx]

    def sample_batch(step):
        take = rng.integers(0, tr_in.shape[0], size=min(cfg.batch_size, tr_in.shape[0]))
        return tr_in[take], tr_out[take]

    _train_loop(model, cfg, sample_batch, inputs[val_idx], targets[val_idx])
    return model


def codeword_error_rate(decoder_bits, labels_bits):
    """Fraction of rows that differ from their label codeword anywhere."""
    decoder_bits = np.asarray(decoder_bits)
    labels_bits = np.asarray(labels_bits)
    return float(np.mean(np.any(decoder_bits != labels_bits, axis=1)))


def sweep_llr_scale(model: NndModel, activations_by_subject, labels: GroundTruthTable,
                    scales=(2.0, 4.0, 8.0, 16.0), log_path=None):
    """Measure codeword error rate as a function of the LLR gain.

    Returns a list of (scale, cer) pairs plus the argmin scale; optionally
    appends one line per scale to a log file.
    """
    rows, targets = [], []
    for subject, acts in sorted(activations_by_subject.items()):
        if subject not in labels.labels:
            continue
        for row in np.atleast_2d(np.asarray(acts, dtype=np.float64)):
            rows.append(row)
            targets.append(labels.labels[subject])
    rows = np.asarray(rows)
    targets = np.asarray(targets)
    results = []
    for scale in scales:
        bits = model.decode(llr_from_activations(rows, scale))
        results.append((float(scale), codeword_error_rate(bits, targets)))
    best = min(results, key=lambda r: (r[1], r[0]))[0]
    if log_path is not None:
        with open(log_path, "a") as fh:
            for scale, cer in results:
                fh.write(f"llr_scale_sweep scale={scale!r} cer={cer!r}\n")
            fh.write(f"llr_scale_sweep best={best!r}\n")
    return results, best
