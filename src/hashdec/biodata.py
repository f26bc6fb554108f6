"""Synthetic two-modality biometric benchmark with subject-disjoint splits.

Each subject owns a latent identity vector and per-modality projection
matrices; a sample is the projected identity plus per-sample distortion
(gain jitter, scalar offset, additive Gaussian noise - stand-ins for pose,
illumination and sensor noise). The three splits (hashing-network training,
decoder fine-tuning, test) use disjoint subject id ranges and are generated
deterministically from one seed.

``save_dataset`` stores the splits as one checkpoint (``checkpoint``): the
codec's checksum covers every array, and the meta names the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checkpoint import CheckpointFormatError, entry, load_params, save_params

ID_STARTS = (0, 10000, 20000)  # first subject id of the train, nnd and test splits


@dataclass
class SplitSpec:
    """Subject counts and per-subject sample counts for the three splits."""

    train_subjects: int
    nnd_subjects: int
    test_subjects: int
    samples_per_subject: int
    enroll_fraction: float = 0.5

    def __post_init__(self):
        names = ("train_subjects", "nnd_subjects", "test_subjects")
        for name in names + ("samples_per_subject",):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)!r}")
        if not 0.0 < self.enroll_fraction < 1.0:
            raise ValueError(f"enroll_fraction: must lie strictly between 0 and 1, "
                             f"got {self.enroll_fraction!r}")
        ends = [start + getattr(self, name) for start, name in zip(ID_STARTS, names)]
        for name, start, end, next_start in zip(names, ID_STARTS, ends, ID_STARTS[1:]):
            if end > next_start:
                raise ValueError(f"{name}: subject id ranges overlap: [{start},{end}) runs "
                                 f"into the next split's ids from {next_start}")

    @property
    def enroll_samples(self):
        """Per subject, the rest being probes: the ceiling of the exact product
        of ``samples_per_subject`` and the shortest decimal that reads back as
        ``enroll_fraction``, so 0.28 of 25 is 7 where float rounding gives 8."""
        return math.ceil(Fraction(repr(float(self.enroll_fraction))) * self.samples_per_subject)


@dataclass
class DistortionModel:
    """Per-sample distortion: additive noise, gain jitter, scalar offset."""

    sigma_face: float
    sigma_iris: float
    gain_jitter: float
    offset_sigma: float

    def __post_init__(self):
        for name in ("sigma_face", "sigma_iris", "gain_jitter", "offset_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name}: must be finite and non-negative, got {value!r}")
        if not math.isfinite(2.0 * self.gain_jitter):
            raise ValueError(f"gain_jitter: the gain's range 2*gain_jitter must be finite, "
                             f"got {self.gain_jitter!r}")


@dataclass
class DatasetDims:
    latent: int
    face: int
    iris: int


class DatasetSplit:
    """Flat sample arrays for one split."""

    def __init__(self, name, subject, role, sample_index, face, iris):
        self.name = name
        self.subject = np.asarray(subject, dtype=np.int64)
        self.role = np.asarray(role)
        self.sample_index = np.asarray(sample_index, dtype=np.int64)
        self.face = np.asarray(face, dtype=np.float64)
        self.iris = np.asarray(iris, dtype=np.float64)

    @property
    def num_samples(self):
        return self.subject.size

    @property
    def subject_ids(self):
        return np.unique(self.subject)

    def select(self, mask):
        return DatasetSplit(self.name, self.subject[mask], self.role[mask],
                            self.sample_index[mask], self.face[mask], self.iris[mask])

    def by_role(self, role):
        return self.select(self.role == role)

    def __eq__(self, other):
        return (
            self.name == other.name
            and np.array_equal(self.subject, other.subject)
            and np.array_equal(self.role, other.role)
            and np.array_equal(self.sample_index, other.sample_index)
            and np.array_equal(self.face, other.face)
            and np.array_equal(self.iris, other.iris)
        )


def verify_disjoint(splits):
    """Structural check that no subject id appears in two splits."""
    for i, a in enumerate(splits):
        for b in splits[i + 1 :]:
            shared = np.intersect1d(a.subject_ids, b.subject_ids)
            if shared.size:
                raise ValueError(
                    f"splits '{a.name}' and '{b.name}' share subjects {shared[:5].tolist()}"
                )


def generate(spec: SplitSpec, distortion: DistortionModel, dims: DatasetDims, seed):
    """Generate the three subject-disjoint splits deterministically.

    The draw order is part of the data's definition: changing it changes every
    split, and with it every artifact of a run. Split i (train, nnd, test)
    draws from ``default_rng(SeedSequence(seed).spawn(3)[i])``. For each
    subject in turn it draws the latent vector ``z`` (``latent`` values) and
    the face and iris projections (``latent`` x ``face``, then ``latent`` x
    ``iris``, each scaled by 1/sqrt(latent)); then, for each of its samples
    and for face before iris, one ``random()`` ``r`` for the gain and one
    ``standard_normal`` of ``1 + dim`` values, the offset ``e`` and the noise
    ``n``. With ``j`` = gain_jitter the sample is, in this operation order,
    ``(1 + (-j + 2j*r)) * (z @ p) + offset_sigma*e + sigma*n``, where
    ``-j + 2j*r`` is numpy's ``uniform(-j, j)`` bit for bit."""
    names = ("train", "nnd", "test")
    counts = (spec.train_subjects, spec.nnd_subjects, spec.test_subjects)
    seeds = np.random.SeedSequence(seed).spawn(3)
    per = spec.samples_per_subject
    enroll = np.arange(per) < spec.enroll_samples
    splits = []
    for name, count, start, ss in zip(names, counts, ID_STARTS, seeds):
        face, iris = _samples(np.random.default_rng(ss), count, per, distortion, dims)
        splits.append(DatasetSplit(name, np.repeat(np.arange(start, start + count), per),
                                   np.tile(np.where(enroll, "enroll", "probe"), count),
                                   np.tile(np.arange(per), count), face, iris))
    verify_disjoint(splits)
    return tuple(splits)


def _samples(rng, count, per, distortion, dims):
    """The face and iris samples of ``count`` subjects with ``per`` samples each,
    drawn from ``rng`` in ``generate``'s order: two draws per sample and
    modality into arrays made once, then the arithmetic once per modality."""
    random, normal = rng.random, rng.standard_normal
    modalities = ((dims.face, distortion.sigma_face), (dims.iris, distortion.sigma_iris))
    means = [np.empty((count, dim)) for dim, _ in modalities]
    draws = [np.empty((count * per, 1 + dim)) for dim, _ in modalities]  # offset, noise
    face_draws, iris_draws = draws
    uniforms = []  # face, iris, face, iris, ... in draw order
    for s in range(count):
        z = normal(dims.latent)
        for mean, (dim, _) in zip(means, modalities):
            mean[s] = z @ (normal((dims.latent, dim)) / np.sqrt(dims.latent))
        for i in range(s * per, (s + 1) * per):
            uniforms.append(random())
            normal(out=face_draws[i])
            uniforms.append(random())
            normal(out=iris_draws[i])
    del face_draws, iris_draws  # so each modality's draws go once its samples are made
    jitter = distortion.gain_jitter
    samples = []
    for mean, r, (_, sigma) in zip(means, np.reshape(uniforms, (-1, 2)).T, modalities):
        draw = draws.pop(0)
        x = np.repeat(mean, per, axis=0)
        x *= 1.0 + (-jitter + 2.0 * jitter * r)[:, None]
        x += distortion.offset_sigma * draw[:, :1]
        draw[:, 1:] *= sigma
        x += draw[:, 1:]
        samples.append(x)
    return samples


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def save_dataset(splits, path, meta):
    """Write every split to one checkpoint, its arrays as ``<split>/<array>``
    entries; float64 holds the ids, the probe flags and the samples exactly.
    ``kind`` joins ``meta``."""
    params = {}
    for split in splits:
        params.update({f"{split.name}/subject": split.subject,
                       f"{split.name}/probe": split.role == "probe",
                       f"{split.name}/sample_index": split.sample_index,
                       f"{split.name}/face": split.face, f"{split.name}/iris": split.iris})
    save_params(path, params, {**meta, "kind": "data"})


def load_dataset(path):
    """The splits a ``save_dataset`` file holds, by name, and its meta; any
    other file, one that lacks an entry, or one whose split columns disagree
    in length raises ``CheckpointFormatError``."""
    params, meta = load_params(path, "data")
    splits = {}
    for name in sorted({key.partition("/")[0] for key in params}):
        subject, probe, sample_index, face, iris = (
            entry(params, f"{name}/{key}", path)
            for key in ("subject", "probe", "sample_index", "face", "iris"))
        if any(len(column) != len(subject) for column in (probe, sample_index, face, iris)):
            raise CheckpointFormatError(f"{path}: the columns of split {name!r} disagree in length")
        splits[name] = DatasetSplit(name, subject, np.where(probe != 0, "probe", "enroll"),
                                    sample_index, face, iris)
    return splits, meta
