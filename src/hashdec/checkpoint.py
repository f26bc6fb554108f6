"""Versioned flat key-value checkpoint files for model parameters.

Layout (all integers little-endian uint64, floats little-endian float64):

    magic    8 bytes  b"HDCKPT\\x00\\x02" (the last byte is the version)
    meta_len 8 bytes, meta_json utf-8 (free-form metadata dict)
    checksum 32 bytes sha256 of meta_json followed by the payload
    payload: entry count, then per entry
        name_len, name utf-8, ndim, dims..., values...

The checksum is verified on load; any mismatch, truncation, unreadable
metadata, unexpected ``kind``, an entry name that is not utf-8 or repeats,
a shape numpy cannot hold, or bytes after the last entry raises
``CheckpointFormatError``.
Every run-directory file but the append-only ``experiment.log`` is written
through ``write_atomic``: a reader finds the old file or the new one, whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"HDCKPT\x00\x02"


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


def write_lines(path, lines):
    """``write_atomic`` of text ``lines`` in utf-8, each ended by a newline."""
    write_atomic(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


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
    digest = hashlib.sha256(meta_json)
    digest.update(payload)
    write_atomic(path, MAGIC, _pack_u64(len(meta_json)), meta_json, digest.digest(), payload)


def load_params(path, kind=None):
    """(params dict of float64 arrays, meta dict) of a checkpoint; with
    ``kind``, a file whose metadata names another kind is refused."""
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
    meta_json = blob[off : off + meta_len]
    try:
        meta = json.loads(meta_json.decode("utf-8"))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"{path}: unreadable metadata")
    off += meta_len
    stored_digest = blob[off : off + 32]
    off += 32
    digest = hashlib.sha256(meta_json)
    digest.update(memoryview(blob)[off:])  # no copy of the payload
    if digest.digest() != stored_digest:
        raise CheckpointFormatError(f"{path}: checksum mismatch")
    if kind is not None and meta.get("kind") != kind:
        raise CheckpointFormatError(f"{path}: a {meta.get('kind')!r} record, not a {kind!r} one")

    params = {}
    off = len(MAGIC) + 8 + meta_len + 32
    for _ in range(read_u64()):
        name_len = read_u64()
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{path}: an entry name is not utf-8") from None
        if name in params:
            raise CheckpointFormatError(f"{path}: entry '{name}' appears twice")
        off += name_len
        shape = tuple(read_u64() for _ in range(read_u64()))
        nbytes = math.prod(shape) * 8  # a Python int, so a huge shape cannot wrap
        if off + nbytes > len(blob):
            raise CheckpointFormatError(f"{path}: truncated entry '{name}'")
        try:
            arr = np.frombuffer(blob[off : off + nbytes], dtype="<f8").reshape(shape)
        except ValueError:  # no values, but dimensions numpy cannot hold
            raise CheckpointFormatError(f"{path}: entry '{name}' has shape {shape}") from None
        off += nbytes
        params[name] = arr.astype(np.float64)
    if off != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - off} bytes after the last entry")
    return params, meta


def entry(mapping, name, path):
    """``mapping[name]`` of the params or meta read from ``path``, or a
    ``CheckpointFormatError`` that names the file and the missing entry."""
    if name not in mapping:
        raise CheckpointFormatError(f"{path}: no entry {name!r}")
    return mapping[name]
