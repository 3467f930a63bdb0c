"""Binary checkpoint files for named parameter tensors.

Layout: magic b"BTCK", format version u32, count u32, then per tensor:
name (u32 length + UTF-8), rank u32, extents (u32 each), payload as
little-endian float32. All integers little-endian.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"BTCK"
VERSION = 1


class CheckpointError(Exception):
    pass


@contextlib.contextmanager
def atomic_open(path, mode: str):
    """A file opened with `mode` for writing `path`: a temp file in the same
    directory, os.replace'd into place when the block ends and removed when
    it raises, so a write that is killed or fails midway leaves the previous
    file whole and a reader never sees a torn one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, mode,
                       encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(path, named: dict):
    """Write through `atomic_open`, so a save that is killed or fails
    midway leaves the previous checkpoint whole."""
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(named)))
        for name, arr in named.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", data.ndim))
            for ext in data.shape:
                f.write(struct.pack("<I", ext))
            f.write(data.tobytes())


def _read(f, size: int) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise CheckpointError("truncated checkpoint")
    return data


def _read_u32(f) -> int:
    return struct.unpack("<I", _read(f, 4))[0]


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != MAGIC:
            raise CheckpointError("bad magic bytes")
        version = _read_u32(f)
        if version != VERSION:
            raise CheckpointError(f"unknown checkpoint version {version}")
        named = {}
        for _ in range(_read_u32(f)):
            raw = _read(f, _read_u32(f))
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"tensor name {raw!r} is not UTF-8") from None
            if name in named:
                raise CheckpointError(f"tensor {name} appears twice")
            shape = tuple(_read_u32(f) for _ in range(_read_u32(f)))
            payload = 4 * math.prod(shape)  # Python ints: no overflow
            if payload > size - f.tell():
                raise CheckpointError(
                    f"tensor {name} declares shape {shape}, {payload} bytes, "
                    f"but {size - f.tell()} bytes are left in the file")
            named[name] = np.frombuffer(_read(f, payload),
                                        dtype="<f4").reshape(shape).copy()
        if f.read(1):
            raise CheckpointError("trailing bytes after the last tensor")
    return named


def restore(params: dict, named: dict):
    """Copy loaded arrays into live parameter tensors, rejecting a missing
    parameter, a tensor the model lacks, and a shape mismatch."""
    extra = sorted(set(named) - set(params))
    if extra:
        raise CheckpointError(
            f"checkpoint has tensors the model lacks: {', '.join(extra)}")
    for name, tensor in params.items():
        if name not in named:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        arr = named[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: {arr.shape} vs {tensor.data.shape}")
        tensor.data[...] = arr.astype(tensor.data.dtype)
