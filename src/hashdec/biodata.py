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

from dataclasses import dataclass

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
    def enroll_samples(self):  # per subject; the rest are probes
        return int(np.ceil(self.enroll_fraction * self.samples_per_subject))


@dataclass
class DistortionModel:
    """Per-sample distortion: additive noise, gain jitter, scalar offset."""

    sigma_face: float
    sigma_iris: float
    gain_jitter: float
    offset_sigma: float

    def __post_init__(self):
        for name in ("sigma_face", "sigma_iris", "gain_jitter", "offset_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be non-negative, got {getattr(self, name)!r}")


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
    """Generate the three subject-disjoint splits deterministically."""
    root = np.random.SeedSequence(seed)
    seeds = root.spawn(3)
    names = ("train", "nnd", "test")
    counts = (spec.train_subjects, spec.nnd_subjects, spec.test_subjects)
    splits = []
    for name, count, start, ss in zip(names, counts, ID_STARTS, seeds):
        rng = np.random.default_rng(ss)
        n_enroll = spec.enroll_samples
        subj_col, role_col, idx_col, face_col, iris_col = [], [], [], [], []
        for s in range(count):
            subject = start + s
            z = rng.standard_normal(dims.latent)
            p_face = rng.standard_normal((dims.latent, dims.face)) / np.sqrt(dims.latent)
            p_iris = rng.standard_normal((dims.latent, dims.iris)) / np.sqrt(dims.latent)
            mean_face = z @ p_face
            mean_iris = z @ p_iris
            for k in range(spec.samples_per_subject):
                for mean, sigma, col in (
                    (mean_face, distortion.sigma_face, face_col),
                    (mean_iris, distortion.sigma_iris, iris_col),
                ):
                    gain = 1.0 + rng.uniform(-distortion.gain_jitter, distortion.gain_jitter)
                    offset = distortion.offset_sigma * rng.standard_normal()
                    noise = sigma * rng.standard_normal(mean.shape)
                    col.append(gain * mean + offset + noise)
                subj_col.append(subject)
                role_col.append("enroll" if k < n_enroll else "probe")
                idx_col.append(k)
        splits.append(DatasetSplit(name, subj_col, role_col, idx_col, face_col, iris_col))
    verify_disjoint(splits)
    return tuple(splits)


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
