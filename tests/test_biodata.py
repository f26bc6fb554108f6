import numpy as np
import pytest

from hashdec.biodata import (
    DataFormatError,
    DatasetDims,
    DistortionModel,
    SplitSpec,
    generate,
    load_dataset,
    save_dataset,
    verify_disjoint,
)

SMALL = SplitSpec(train_subjects=6, nnd_subjects=3, test_subjects=4, samples_per_subject=5)
DIMS = DatasetDims(latent=4, face=8, iris=6)


def test_default_benchmark_shape():
    spec = SplitSpec()
    train, nnd, test = generate(spec, DistortionModel(), DatasetDims(), seed=0)
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
    a = generate(SMALL, DistortionModel(), DIMS, seed=7)
    b = generate(SMALL, DistortionModel(), DIMS, seed=7)
    for x, y in zip(a, b):
        assert x == y
    c = generate(SMALL, DistortionModel(), DIMS, seed=8)
    assert not a[0] == c[0]


def test_roles_assigned_per_subject():
    train, _, _ = generate(SMALL, DistortionModel(), DIMS, seed=2)
    for s in train.subject_ids:
        roles = train.role[train.subject == s]
        assert np.count_nonzero(roles == "enroll") == 3  # ceil(0.5 * 5)
        assert np.count_nonzero(roles == "probe") == 2


def test_splits_are_subject_disjoint():
    splits = generate(SMALL, DistortionModel(), DIMS, seed=3)
    verify_disjoint(list(splits))
    clone = splits[0].select(np.ones(splits[0].num_samples, dtype=bool))
    clone.name = "other"
    with pytest.raises(ValueError, match="share subjects"):
        verify_disjoint([splits[0], clone])


def test_overlapping_id_ranges_rejected():
    with pytest.raises(ValueError, match="overlap"):
        SplitSpec(train_subjects=100, id_starts=(0, 50, 20000))


def test_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        SplitSpec(train_subjects=0)
    with pytest.raises(ValueError, match="enroll_fraction"):
        SplitSpec(enroll_fraction=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        DistortionModel(sigma_face=-0.1)


def test_round_trip_exact(tmp_path):
    train, _, _ = generate(SMALL, DistortionModel(), DIMS, seed=4)
    path = tmp_path / "train.txt"
    save_dataset(train, path)
    loaded = load_dataset(path)
    assert loaded == train
    assert loaded.seed == 4  # header carries the generator seed


def test_intra_class_tighter_than_inter_class():
    train, _, _ = generate(SplitSpec(train_subjects=20, nnd_subjects=3, test_subjects=3,
                                     samples_per_subject=8),
                           DistortionModel(), DatasetDims(), seed=5)
    for field in ("face", "iris"):
        data = getattr(train, field)
        intra, inter = [], []
        for i in range(0, train.num_samples, 7):
            for j in range(i + 1, train.num_samples, 11):
                d = float(np.linalg.norm(data[i] - data[j]))
                (intra if train.subject[i] == train.subject[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a dataset\n")
    with pytest.raises(DataFormatError, match=":1:"):
        load_dataset(path)


def test_load_rejects_truncation_with_line_number(tmp_path):
    train, _, _ = generate(SMALL, DistortionModel(), DIMS, seed=6)
    path = tmp_path / "t.txt"
    save_dataset(train, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError, match="promises"):
        load_dataset(path)


def test_load_rejects_malformed_record(tmp_path):
    train, _, _ = generate(SMALL, DistortionModel(), DIMS, seed=6)
    path = tmp_path / "m.txt"
    save_dataset(train, path)
    lines = path.read_text().splitlines()
    lines[7] = lines[7] + " 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=":8:"):
        load_dataset(path)


def test_header_dimension_mismatch_rejected_before_records(tmp_path):
    train, _, _ = generate(SMALL, DistortionModel(), DIMS, seed=6)
    path = tmp_path / "d.txt"
    save_dataset(train, path)
    lines = path.read_text().splitlines()
    assert lines[4] == "dim_face 8"
    lines[4] = "dim_face 9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_dataset(path)
