"""Versioned flat key-value checkpoint files for model parameters.

Layout (all integers little-endian uint64, floats little-endian float64):

    magic    8 bytes  b"HDCKPT\\x00\\x01"
    meta_len 8 bytes, meta_json utf-8 (free-form metadata dict)
    checksum 32 bytes sha256 of the payload section
    payload: entry count, then per entry
        name_len, name utf-8, ndim, dims..., values...

The checksum is verified on load; any mismatch, truncation or unreadable
metadata raises ``CheckpointFormatError`` rather than returning partial data.
Checkpoints, the data manifest and the ground-truth table are written through
``write_atomic``: a reader finds the old file or the new one, whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

MAGIC = b"HDCKPT\x00\x01"


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file is malformed or corrupted."""


def write_atomic(path, *chunks):
    """Replace ``path`` with the byte ``chunks``: a temp file beside it, synced, then renamed."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _pack_u64(value):
    return struct.pack("<Q", value)


def save_params(path, params, meta=None):
    """Write a name -> array mapping to ``path``.

    ``params`` values may be numpy arrays or Tensors (anything with ``.data``).
    ``meta`` is an optional JSON-serialisable dict stored in the header.
    """
    payload = bytearray()
    payload += _pack_u64(len(params))
    for name in sorted(params):
        arr = params[name]
        arr = np.asarray(getattr(arr, "data", arr), dtype=np.float64)
        encoded = name.encode("utf-8")
        payload += _pack_u64(len(encoded))
        payload += encoded
        payload += _pack_u64(arr.ndim)
        for dim in arr.shape:
            payload += _pack_u64(dim)
        payload += arr.astype("<f8").tobytes()
    meta_json = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    write_atomic(path, MAGIC, _pack_u64(len(meta_json)), meta_json, digest, payload)


def load_params(path):
    """Read a checkpoint; returns (params dict of float64 arrays, meta dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic or unsupported version")
    off = len(MAGIC)

    def read_u64():
        nonlocal off
        if off + 8 > len(blob):
            raise CheckpointFormatError(f"{path}: truncated header")
        (value,) = struct.unpack_from("<Q", blob, off)
        off += 8
        return value

    meta_len = read_u64()
    if off + meta_len + 32 > len(blob):
        raise CheckpointFormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(blob[off : off + meta_len].decode("utf-8"))
    except ValueError:
        raise CheckpointFormatError(f"{path}: unreadable metadata") from None
    off += meta_len
    stored_digest = blob[off : off + 32]
    off += 32
    payload = blob[off:]
    if hashlib.sha256(payload).digest() != stored_digest:
        raise CheckpointFormatError(f"{path}: checksum mismatch")

    params = {}
    off = len(MAGIC) + 8 + meta_len + 32
    count = read_u64()
    for _ in range(count):
        name_len = read_u64()
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        ndim = read_u64()
        shape = tuple(read_u64() for _ in range(ndim))
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if off + nbytes > len(blob):
            raise CheckpointFormatError(f"{path}: truncated entry '{name}'")
        arr = np.frombuffer(blob[off : off + nbytes], dtype="<f8").reshape(shape)
        off += nbytes
        params[name] = arr.astype(np.float64)
    return params, meta
