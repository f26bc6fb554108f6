from dataclasses import replace

import numpy as np
import pytest

from hashdec.biodata import (
    DatasetDims,
    DistortionModel,
    SplitSpec,
    generate,
    load_dataset,
    save_dataset,
    verify_disjoint,
)
from hashdec.config import ExperimentConfig

SMALL = SplitSpec(train_subjects=6, nnd_subjects=3, test_subjects=4, samples_per_subject=5)
DIMS = DatasetDims(latent=4, face=8, iris=6)
NOISY = DistortionModel(sigma_face=0.4, sigma_iris=0.4, gain_jitter=0.05, offset_sigma=0.05)


def test_default_benchmark_shape():
    cfg = ExperimentConfig()
    train, nnd, test = generate(cfg.split_spec(), cfg.distortion(), cfg.dims(), seed=0)
    assert train.subject_ids.size == 120
    assert nnd.subject_ids.size == 60
    assert test.subject_ids.size == 70
    assert test.num_samples == 70 * 20
    assert np.all(np.bincount(test.subject - test.subject.min()) == 20)
    assert train.face.shape == (2400, 64) and train.iris.shape == (2400, 64)


def test_zero_distortion_gives_identical_samples():
    train, _, _ = generate(SMALL, DistortionModel(0.0, 0.0, 0.0, 0.0), DIMS, seed=1)
    for s in train.subject_ids:
        face = train.face[train.subject == s]
        iris = train.iris[train.subject == s]
        assert np.all(face == face[0])
        assert np.all(iris == iris[0])


def test_same_seed_bitwise_identical():
    a = generate(SMALL, NOISY, DIMS, seed=7)
    b = generate(SMALL, NOISY, DIMS, seed=7)
    for x, y in zip(a, b):
        assert x == y
    c = generate(SMALL, NOISY, DIMS, seed=8)
    assert not a[0] == c[0]


def test_roles_assigned_per_subject():
    train, _, _ = generate(SMALL, NOISY, DIMS, seed=2)
    for s in train.subject_ids:
        roles = train.role[train.subject == s]
        assert np.count_nonzero(roles == "enroll") == 3  # ceil(0.5 * 5)
        assert np.count_nonzero(roles == "probe") == 2


def test_splits_are_subject_disjoint():
    splits = generate(SMALL, NOISY, DIMS, seed=3)
    verify_disjoint(list(splits))
    clone = splits[0].select(np.ones(splits[0].num_samples, dtype=bool))
    clone.name = "other"
    with pytest.raises(ValueError, match="share subjects"):
        verify_disjoint([splits[0], clone])


def test_overlapping_id_ranges_rejected():
    with pytest.raises(ValueError, match="overlap"):
        replace(SMALL, train_subjects=10_001)


def test_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        replace(SMALL, train_subjects=0)
    with pytest.raises(ValueError, match="enroll_fraction"):
        replace(SMALL, enroll_fraction=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        replace(NOISY, sigma_face=-0.1)


def test_round_trip_exact(tmp_path):
    # every array comes back bit for bit, in its own dtype; the meta names the kind
    splits = generate(SMALL, NOISY, DIMS, seed=4)
    path = tmp_path / "data.ckpt"
    save_dataset(splits, path, {"fingerprint": "6f84bf01455adfae"})
    loaded, meta = load_dataset(path)
    assert meta == {"kind": "data", "fingerprint": "6f84bf01455adfae"}
    assert list(loaded) == sorted(split.name for split in splits)
    for split in splits:
        back = loaded[split.name]
        assert back == split
        for field in ("subject", "role", "sample_index", "face", "iris"):
            assert getattr(back, field).dtype == getattr(split, field).dtype, field


def test_intra_class_tighter_than_inter_class():
    train, _, _ = generate(SplitSpec(train_subjects=20, nnd_subjects=3, test_subjects=3,
                                     samples_per_subject=8),
                           NOISY, DatasetDims(latent=32, face=64, iris=64), seed=5)
    for field in ("face", "iris"):
        data = getattr(train, field)
        intra, inter = [], []
        for i in range(0, train.num_samples, 7):
            for j in range(i + 1, train.num_samples, 11):
                d = float(np.linalg.norm(data[i] - data[j]))
                (intra if train.subject[i] == train.subject[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)
