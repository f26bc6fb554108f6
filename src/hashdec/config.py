"""Experiment configuration: one flat, documented, JSON-serialisable record.

Every field has a default; a config file only needs the fields it overrides.
The record is the only home of every setting: the training functions of
``mdh`` and ``nnd`` read their fields from it, and ``__post_init__`` refuses a
mistyped, non-finite or out-of-range value, and a code with no BCH design,
before any stage runs. The fingerprint is a
stable hash of the complete resolved config; every run-directory record
names it and is read back only under the same config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, fields

from .bch import build_code
from .biodata import SplitSpec, DistortionModel, DatasetDims
from .checkpoint import write_lines

FUSION_MODES = ("fca", "bla", "face", "iris")


class ConfigError(ValueError):
    """Raised for structurally invalid configurations."""


def _like(value, default):
    """Same type as the default; an int is a float, a bool no int, a list a tuple."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_like(v, default[0]) for v in value)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


# (fields, test, rule) of the numeric ranges a config must keep
_RANGES = (
    (("w_quant", "w_ent", "l2"), lambda v: v >= 0, "loss weights must be non-negative"),
    (("w_cls",), lambda v: v > 0, "classification weight must be positive during hashing training"),
    (("phase_a_steps", "patience", "stage_max_steps", "nnd_pretrain_steps",
      "nnd_finetune_steps", "joint_steps", "eps_loss", "seed"), lambda v: v >= 0, "must be >= 0"),
    (("batch_size", "nnd_batch_size", "joint_batch_size", "nnd_iterations"),
     lambda v: v >= 1, "must be >= 1"),
    (("lr", "phase_c_lr_factor", "nnd_step_size", "joint_step_size", "llr_scale"),
     lambda v: v > 0, "must be positive"),
    (("latent_dim", "face_dim", "iris_dim", "feature_dim", "fusion_dim"),
     lambda v: v >= 1, "dimensions must be >= 1"),
    (("encoder_hidden",), lambda v: all(w >= 1 for w in v), "hidden widths must be >= 1"),
    (("samples_per_subject",), lambda v: v >= 2, "genuine pairs need >= 2 samples per subject"),
)


@dataclass
class ExperimentConfig:
    # error-correcting code (length n = 2^code_m - 1; hashing width J = n)
    code_m: int = 6
    code_t: int = 3

    # fusion architecture: "fca" | "bla" | "face" | "iris" (last two unimodal)
    fusion_mode: str = "bla"
    feature_dim: int = 16          # per-modality encoder output d
    fusion_dim: int = 128          # fused representation width f
    encoder_hidden: tuple = (128, 64)

    # composite loss weights
    w_cls: float = 1.0
    w_quant: float = 0.1
    w_ent: float = 0.1
    l2: float = 1e-4

    # continuation ladder for the hashing tanh bandwidth
    bandwidths: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    eps_loss: float = 1e-4
    patience: int = 200
    stage_max_steps: int = 400

    # hashing-network optimisation
    lr: float = 1e-3
    batch_size: int = 32
    phase_a_steps: int = 300
    phase_c_lr_factor: float = 0.1

    # decoder network
    nnd_iterations: int = 5
    nnd_snr_range_db: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    nnd_batch_size: int = 64
    nnd_pretrain_steps: int = 300
    nnd_finetune_steps: int = 200
    nnd_step_size: float = 1e-3
    # gain mapping hash activations to LLRs; saturated hash codes carry no
    # per-bit reliability, so a conservative gain keeps message passing from
    # overriding the channel on off-lattice inputs
    llr_scale: float = 2.0

    # end-to-end joint optimisation
    joint_steps: int = 150
    joint_step_size: float = 1e-4
    joint_batch_size: int = 32
    joint_freeze_mdh: bool = False
    joint_freeze_nnd: bool = False

    # synthetic benchmark
    train_subjects: int = 120
    nnd_subjects: int = 60
    test_subjects: int = 70
    samples_per_subject: int = 20
    enroll_fraction: float = 0.5
    latent_dim: int = 32
    face_dim: int = 64
    iris_dim: int = 64
    sigma_face: float = 0.08
    sigma_iris: float = 0.08
    gain_jitter: float = 0.05
    offset_sigma: float = 0.05

    # evaluation
    far_targets: tuple = (0.01, 0.001, 0.0001)
    score_on: str = "codeword"     # "codeword" (all n bits) or "message" (first k)
    gt_max_failure_rate: float = 0.98

    # master seed; every stage derives its own stream from it
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _like(value, f.default):
                raise ConfigError(f"{f.name}: {value!r} is not of its default's type ({f.default!r})")
            if isinstance(f.default, tuple):
                setattr(self, f.name, tuple(value))
            items = value if isinstance(value, (list, tuple)) else (value,)
            if not all(math.isfinite(v) for v in items if isinstance(v, float)):
                raise ConfigError(f"{f.name}: must be finite, got {value!r}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion_mode '{self.fusion_mode}'")
        if self.score_on not in ("codeword", "message"):
            raise ConfigError(f"score_on must be 'codeword' or 'message', got '{self.score_on}'")
        if not 0.0 < self.gt_max_failure_rate <= 1.0:
            raise ConfigError("gt_max_failure_rate must lie in (0, 1]")
        if not all(0.0 < far < 1.0 for far in self.far_targets):
            raise ConfigError(f"far_targets must lie in (0, 1), got {self.far_targets}")
        bw = self.bandwidths
        if not bw or bw[0] != 1.0:
            raise ConfigError(f"bandwidths: continuation schedule must start at bandwidth 1, "
                              f"got {bw}")
        if any(b2 <= b1 for b1, b2 in zip(bw, bw[1:])):
            raise ConfigError(f"bandwidths: continuation bandwidths must be strictly increasing, "
                              f"got {bw}")
        for names, ok, rule in _RANGES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ConfigError(f"{name}: {rule}, got {getattr(self, name)!r}")
        if not self.nnd_snr_range_db:
            raise ConfigError("nnd_snr_range_db must be nonempty for AWGN pretraining")
        if self.joint_freeze_mdh and self.joint_freeze_nnd:
            raise ConfigError("joint_freeze_mdh and joint_freeze_nnd: joint optimisation "
                              "with every component frozen is vacuous")
        try:  # constructing these validates their invariants (ranges, overlap)
            spec = self.split_spec()
            self.distortion()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:  # cached, so the stages reuse the code built here
            build_code(self.code_m, self.code_t)
        except ValueError as exc:
            raise ConfigError(f"code_m and code_t: no BCH code: {exc}") from None
        if spec.enroll_samples >= self.samples_per_subject:
            raise ConfigError(f"enroll_fraction and samples_per_subject: all {spec.enroll_samples} "
                              f"samples of a subject enroll, leaving no probe sample")

    # -- component views -----------------------------------------------------
    def split_spec(self):
        return SplitSpec(self.train_subjects, self.nnd_subjects, self.test_subjects,
                         self.samples_per_subject, self.enroll_fraction)

    def distortion(self):
        return DistortionModel(self.sigma_face, self.sigma_iris,
                               self.gain_jitter, self.offset_sigma)

    def dims(self):
        return DatasetDims(self.latent_dim, self.face_dim, self.iris_dim)

    def code_name(self):
        n = (1 << self.code_m) - 1
        return f"BCH(n={n}, m={self.code_m}, t={self.code_t})"

    # -- serialisation ---------------------------------------------------------
    def to_dict(self):
        return asdict(self)

    def fingerprint(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def save(self, path):
        write_lines(path, [json.dumps(self.to_dict(), indent=2, sort_keys=True)])

    @classmethod
    def from_dict(cls, mapping):
        if not isinstance(mapping, dict):
            raise ConfigError(f"a config is a JSON object, not a {type(mapping).__name__!r} value")
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**mapping)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(mapping)
