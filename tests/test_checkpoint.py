import numpy as np
import pytest

from hashdec.autodiff import Tensor
from hashdec.checkpoint import CheckpointFormatError, load_params, save_params


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "enc/w0": rng.standard_normal((4, 7)),
        "enc/b0": rng.standard_normal((1, 7)),
        "scalarish": np.array(3.25),
        "vec": rng.standard_normal(5),
    }
    meta = {"kind": "test", "beta": 8.0}
    path = tmp_path / "m.ckpt"
    save_params(path, params, meta)
    loaded, loaded_meta = load_params(path)
    assert loaded_meta == meta
    assert set(loaded) == set(params)
    for name, arr in params.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr)


def test_accepts_tensors(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"p": Tensor([[1.0, 2.0]])})
    loaded, _ = load_params(path)
    assert np.array_equal(loaded["p"], [[1.0, 2.0]])


def test_checksum_mismatch_rejected(tmp_path):
    path = tmp_path / "c.ckpt"
    save_params(path, {"p": np.arange(8.0)})
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_params(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"p": np.arange(64.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(CheckpointFormatError):
        load_params(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "b.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_params(path)


def test_corrupted_metadata_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"p": np.arange(4.0)}, {"kind": "test"})
    blob = bytearray(path.read_bytes())
    blob[16] = 0xFF  # first byte of the metadata json
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="metadata"):
        load_params(path)

