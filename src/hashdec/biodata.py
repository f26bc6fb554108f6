"""Synthetic two-modality biometric benchmark with subject-disjoint splits.

Each subject owns a latent identity vector and per-modality projection
matrices; a sample is the projected identity plus per-sample distortion
(gain jitter, scalar offset, additive Gaussian noise - stand-ins for pose,
illumination and sensor noise). The three splits (hashing-network training,
decoder fine-tuning, test) use disjoint subject id ranges and are generated
deterministically from one seed.

A split is stored as a line-delimited text file whose header declares its
dimensions; ``file_sha256`` gives the digest a run directory's manifest
keeps for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

FORMAT_HEADER = "# hashdec dataset v1"


class DataFormatError(ValueError):
    """Raised when a dataset file fails structural validation."""


@dataclass
class SplitSpec:
    """Subject counts and per-subject sample counts for the three splits."""

    train_subjects: int = 120
    nnd_subjects: int = 60
    test_subjects: int = 70
    samples_per_subject: int = 20
    enroll_fraction: float = 0.5
    id_starts: tuple = (0, 10000, 20000)

    def __post_init__(self):
        names = ("train_subjects", "nnd_subjects", "test_subjects")
        for name in names + ("samples_per_subject",):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)!r}")
        if not 0.0 < self.enroll_fraction < 1.0:
            raise ValueError(f"enroll_fraction: must lie strictly between 0 and 1, "
                             f"got {self.enroll_fraction!r}")
        ends = [start + getattr(self, name) for start, name in zip(self.id_starts, names)]
        for name, start, end, next_start in zip(names, self.id_starts, ends, self.id_starts[1:]):
            if end > next_start:
                raise ValueError(f"{name}: subject id ranges overlap: [{start},{end}) runs "
                                 f"into the next split's ids from {next_start}")


@dataclass
class DistortionModel:
    """Per-sample distortion: additive noise, gain jitter, scalar offset."""

    sigma_face: float = 0.4
    sigma_iris: float = 0.4
    gain_jitter: float = 0.05
    offset_sigma: float = 0.05

    def __post_init__(self):
        for name in ("sigma_face", "sigma_iris", "gain_jitter", "offset_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be non-negative, got {getattr(self, name)!r}")


@dataclass
class DatasetDims:
    latent: int = 32
    face: int = 64
    iris: int = 64


class DatasetSplit:
    """Flat sample arrays for one split."""

    def __init__(self, name, subject, role, sample_index, face, iris, seed=None):
        self.name = name
        self.seed = seed
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
                            self.sample_index[mask], self.face[mask], self.iris[mask],
                            seed=self.seed)

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
    for name, count, start, ss in zip(names, counts, spec.id_starts, seeds):
        rng = np.random.default_rng(ss)
        n_enroll = int(np.ceil(spec.enroll_fraction * spec.samples_per_subject))
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
        splits.append(DatasetSplit(name, subj_col, role_col, idx_col, face_col, iris_col,
                                   seed=seed))
    verify_disjoint(splits)
    return tuple(splits)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_dataset(split: DatasetSplit, path):
    """Line-delimited records with a header declaring the dimensions."""
    pf, pi = split.face.shape[1], split.iris.shape[1]
    with open(path, "w") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"name {split.name}\n")
        fh.write(f"seed {'-' if split.seed is None else split.seed}\n")
        fh.write(f"records {split.num_samples}\n")
        fh.write(f"dim_face {pf}\n")
        fh.write(f"dim_iris {pi}\n")
        for row in range(split.num_samples):
            fields = [str(split.subject[row]), str(split.role[row]), str(split.sample_index[row])]
            fields += [repr(float(x)) for x in split.face[row]]
            fields += [repr(float(x)) for x in split.iris[row]]
            fh.write(" ".join(fields) + "\n")


def load_dataset(path):
    """Read a dataset file; structural problems raise DataFormatError with a line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataFormatError(f"{path}:1: missing dataset header")
    header = {}
    for lineno, ln in enumerate(lines[1:6], start=2):
        try:
            key, value = ln.split(None, 1)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed header line") from None
        header[key] = value
    for key in ("name", "seed", "records", "dim_face", "dim_iris"):
        if key not in header:
            raise DataFormatError(f"{path}: header missing '{key}'")
    records = int(header["records"])
    seed = None if header["seed"] == "-" else int(header["seed"])
    pf, pi = int(header["dim_face"]), int(header["dim_iris"])
    body = lines[6:]
    if len(body) != records:
        raise DataFormatError(
            f"{path}: header promises {records} records but file has {len(body)}"
        )
    subj, role, idx = [], [], []
    face = np.empty((records, pf))
    iris = np.empty((records, pi))
    expected = 3 + pf + pi
    for row, ln in enumerate(body):
        lineno = row + 7
        fields = ln.split()
        if len(fields) != expected:
            raise DataFormatError(
                f"{path}:{lineno}: expected {expected} fields, found {len(fields)}"
            )
        subj.append(int(fields[0]))
        role.append(fields[1])
        idx.append(int(fields[2]))
        face[row] = [float(x) for x in fields[3 : 3 + pf]]
        iris[row] = [float(x) for x in fields[3 + pf :]]
    return DatasetSplit(header["name"], subj, role, idx, face, iris, seed=seed)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
