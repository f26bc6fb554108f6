import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hashdec.biodata import (
    ID_STARTS,
    DatasetDims,
    DatasetSplit,
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
DEFAULT = ExperimentConfig()


def _reference_generate(spec, distortion, dims, seed):
    """Test-only reference: the splits drawn one sample and modality at a time,
    with numpy's ``uniform`` for the gain and separate offset and noise draws."""
    names = ("train", "nnd", "test")
    counts = (spec.train_subjects, spec.nnd_subjects, spec.test_subjects)
    splits = []
    for name, count, start, ss in zip(names, counts, ID_STARTS,
                                      np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(ss)
        subj_col, role_col, idx_col, face_col, iris_col = [], [], [], [], []
        for s in range(count):
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
                subj_col.append(start + s)
                role_col.append("enroll" if k < spec.enroll_samples else "probe")
                idx_col.append(k)
        splits.append(DatasetSplit(name, subj_col, role_col, idx_col, face_col, iris_col))
    return tuple(splits)


REFERENCE_CASES = {
    "default": (DEFAULT.split_spec(), DEFAULT.distortion(), DEFAULT.dims()),
    "sigma0.3": (DEFAULT.split_spec(), replace(DEFAULT.distortion(), sigma_face=0.3,
                                               sigma_iris=0.3), DEFAULT.dims()),
    "no-distortion": (SMALL, DistortionModel(0.0, 0.0, 0.0, 0.0), DIMS),
    "no-gain-jitter": (SMALL, replace(NOISY, gain_jitter=0.0), DIMS),
    "7-samples-0.3-enroll": (replace(SMALL, samples_per_subject=7, enroll_fraction=0.3),
                             NOISY, DIMS),
    "dims-3-5-9": (SMALL, NOISY, DatasetDims(latent=3, face=5, iris=9)),
    "one-subject-per-split": (SplitSpec(1, 1, 1, 5), NOISY, DIMS),
}


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_generate_is_bytewise_the_reference(case, seed):
    spec, distortion, dims = REFERENCE_CASES[case]
    splits = generate(spec, distortion, dims, seed)
    reference = _reference_generate(spec, distortion, dims, seed)
    assert [split.name for split in splits] == [split.name for split in reference]
    for split, ref in zip(splits, reference):
        for field in ("subject", "role", "sample_index", "face", "iris"):
            got, want = getattr(split, field), getattr(ref, field)
            assert got.dtype == want.dtype and got.shape == want.shape, (split.name, field)
            assert got.tobytes() == want.tobytes(), (split.name, field)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_peak_memory_no_higher_than_the_reference():
    args = (*REFERENCE_CASES["default"], 42)
    for fn in (generate, _reference_generate):  # one-time allocations fall outside the count
        fn(*args)
    assert _peak_bytes(generate, *args) <= _peak_bytes(_reference_generate, *args)


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


@pytest.mark.parametrize("name", ["sigma_face", "sigma_iris", "gain_jitter", "offset_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_distortion_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name}: must be finite"):
        replace(NOISY, **{name: value})


def test_distortion_refuses_a_gain_range_that_overflows():
    with pytest.raises(ValueError, match="gain_jitter: the gain's range"):
        replace(NOISY, gain_jitter=1e308)
    assert replace(NOISY, gain_jitter=8e307).gain_jitter == 8e307  # 2 * 8e307 is finite


def test_enroll_samples_is_the_exact_ceiling():
    # float products round 0.28 * 25 and 0.56 * 25 up past 7 and 14
    assert replace(SMALL, samples_per_subject=25, enroll_fraction=0.28).enroll_samples == 7
    assert replace(SMALL, samples_per_subject=25, enroll_fraction=0.56).enroll_samples == 14
    for percent in range(1, 100):
        for samples in range(2, 41):
            spec = replace(SMALL, samples_per_subject=samples, enroll_fraction=percent / 100)
            assert spec.enroll_samples == -(-percent * samples // 100), (percent, samples)


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
