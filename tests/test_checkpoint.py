import hashlib
import struct

import numpy as np
import pytest

from hashdec.autodiff import Tensor
from hashdec.checkpoint import MAGIC, CheckpointFormatError, load_params, save_params


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
    # valid JSON that is not an object, behind a valid checksum
    save_params(path, {"p": np.arange(4.0)}, ["kind", "test"])
    with pytest.raises(CheckpointFormatError, match="metadata"):
        load_params(path, "test")


def test_other_kind_rejected(tmp_path):
    # a reader that names a kind refuses a file whose metadata names another,
    # or none; a reader that names none reads any kind
    path = tmp_path / "k.ckpt"
    save_params(path, {"p": np.arange(4.0)}, {"kind": "test"})
    assert load_params(path, "test")[1] == load_params(path)[1] == {"kind": "test"}
    with pytest.raises(CheckpointFormatError, match="a 'test' record, not a 'data' one"):
        load_params(path, "data")
    save_params(path, {"p": np.arange(4.0)})
    with pytest.raises(CheckpointFormatError, match="a None record, not a 'test' one"):
        load_params(path, "test")


def test_edited_metadata_rejected(tmp_path):
    # metadata that still parses after an edit fails the checksum, which
    # covers the metadata bytes as well as the arrays
    path = tmp_path / "m.ckpt"
    save_params(path, {"p": np.arange(4.0)}, {"kind": "test", "beta": 64.0})
    blob = path.read_bytes()
    assert b'"beta": 64.0' in blob
    path.write_bytes(blob.replace(b'"beta": 64.0', b'"beta": 14.0'))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_params(path)


def test_other_version_rejected(tmp_path):
    # a file of another layout version is refused as such, not as corrupt
    path = tmp_path / "v.ckpt"
    save_params(path, {"p": np.arange(4.0)})
    blob = bytearray(path.read_bytes())
    blob[7] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="unsupported version"):
        load_params(path)


def _crafted(path, payload):
    """A checkpoint of empty metadata around a hand-made payload, with a valid checksum."""
    meta = b"{}"
    digest = hashlib.sha256(meta + payload).digest()
    path.write_bytes(MAGIC + struct.pack("<Q", len(meta)) + meta + digest + payload)
    return path


def _entry(name, shape, values=b""):
    dims = b"".join(struct.pack("<Q", d) for d in shape)
    return struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(shape)) + dims + values


@pytest.mark.parametrize("payload, reason", [
    (struct.pack("<Q", 1) + _entry(b"\xff\xfe", (1,), bytes(8)), "not utf-8"),
    (struct.pack("<Q", 1) + _entry(b"p", (2**62, 4)), "truncated entry 'p'"),
    (struct.pack("<Q", 1) + _entry(b"p", (0, 2**62)), r"entry 'p' has shape"),
    (struct.pack("<Q", 1) + _entry(b"p", (1,), bytes(8)) + b"\x00", "1 bytes after the last entry"),
    (struct.pack("<Q", 2) + _entry(b"p", (1,), bytes(8)) * 2, "entry 'p' appears twice"),
], ids=["name not utf-8", "huge shape", "empty huge shape", "trailing bytes", "repeated name"])
def test_unparsable_payload_rejected(tmp_path, payload, reason):
    # each payload passes the checksum; the parser itself must refuse it
    path = _crafted(tmp_path / "x.ckpt", payload)
    with pytest.raises(CheckpointFormatError, match=reason) as info:
        load_params(path)
    assert str(path) in str(info.value)
    # the same framing around one well-formed entry loads
    good = _crafted(tmp_path / "ok.ckpt", struct.pack("<Q", 1) + _entry(b"p", (1,), bytes(8)))
    params, meta = load_params(good)
    assert meta == {} and list(params) == ["p"] and np.array_equal(params["p"], [0.0])
