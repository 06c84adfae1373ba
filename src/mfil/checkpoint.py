"""Named-parameter serialization.

Binary layout (normative for cross-implementation compatibility): magic
bytes ``MFIL``, format version u32, entry count u32, then per entry a u16
name length, the UTF-8 name, a u8 rank, one u64 per extent, and the values
as little-endian f32. All integers little-endian.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint",
           "load_into", "MAGIC", "VERSION"]

MAGIC = b"MFIL"
VERSION = 1


class CheckpointError(ValueError):
    """Structured checkpoint failure: bad header, truncation, shape drift."""


def save_checkpoint(path, params: dict[str, Tensor]):
    """Write parameters in insertion order; values are stored as f32.

    The bytes go to a temporary sibling file that then replaces ``path`` in
    one rename, so a write that fails or is killed leaves any earlier
    checkpoint at ``path`` as it was; one that raises also removes the
    temporary. An f32 entry is written from its own buffer, not copied.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(params)))
            for name, tensor in params.items():
                raw = name.encode("utf-8")
                arr = np.asarray(tensor.data, dtype="<f4", order="C")
                f.write(struct.pack("<H", len(raw)))
                f.write(raw)
                f.write(struct.pack("<B", arr.ndim))
                for extent in arr.shape:
                    f.write(struct.pack("<Q", extent))
                f.write(memoryview(arr))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(
            f"truncated checkpoint while reading {what}: wanted {n} bytes, "
            f"got {len(buf)}")
    return buf


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Validate and read a checkpoint into {name: f32 array}; names must
    be unique."""
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    size = path.stat().st_size
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(
                f"bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II",
                                       _read_exact(f, 8, "header"))
        if version != VERSION:
            raise CheckpointError(
                f"unsupported format version {version} (expected {VERSION})")
        for i in range(count):
            (name_len,) = struct.unpack(
                "<H", _read_exact(f, 2, f"entry {i} name length"))
            raw_name = _read_exact(f, name_len, f"entry {i} name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"entry {i} name: {exc}") from None
            if name in out:  # out holds entries 0..i-1 in file order
                raise CheckpointError(
                    f"entry '{name}' appears twice: entries "
                    f"{list(out).index(name)} and {i}")
            (rank,) = struct.unpack(
                "<B", _read_exact(f, 1, f"entry '{name}' rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(
                    f, 8, f"entry '{name}' extent {d}"))[0]
                for d in range(rank))
            # Python ints: a corrupt extent must not overflow or allocate.
            n_bytes = 4 * math.prod(shape)
            left = size - f.tell()
            if n_bytes > left:
                raise CheckpointError(
                    f"truncated checkpoint or corrupt extents: entry "
                    f"'{name}' {shape} needs {n_bytes} bytes, {left} remain")
            raw = _read_exact(f, n_bytes, f"entry '{name}' values")
            try:
                values = np.frombuffer(raw, dtype="<f4").reshape(shape)
            except ValueError as exc:  # an empty entry with a huge extent
                raise CheckpointError(
                    f"entry '{name}' extents {shape}: {exc}") from None
            out[name] = values.copy()
        trailing = f.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after the final entry")
    return out


def load_into(params: dict[str, Tensor], loaded: dict[str, np.ndarray]):
    """Copy loaded values into a live parameter map, strict on names/shapes."""
    missing = sorted(set(params) - set(loaded))
    unexpected = sorted(set(loaded) - set(params))
    mismatched = sorted(
        name for name in set(params) & set(loaded)
        if params[name].shape != loaded[name].shape)
    if missing or unexpected or mismatched:
        diff = []
        for name in missing:
            diff.append(f"missing from checkpoint: {name} "
                        f"{params[name].shape}")
        for name in unexpected:
            diff.append(f"unexpected in checkpoint: {name} "
                        f"{loaded[name].shape}")
        for name in mismatched:
            diff.append(f"shape mismatch: {name} model {params[name].shape} "
                        f"!= checkpoint {loaded[name].shape}")
        raise CheckpointError("parameter diff:\n  " + "\n  ".join(diff))
    for name, tensor in params.items():
        tensor.data = np.ascontiguousarray(
            loaded[name].astype(tensor.data.dtype))
