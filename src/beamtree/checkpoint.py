"""Checkpoint files for named tensors.

A checkpoint is a standard numpy .npy file (format 1.0) holding one 0-d
structured record with one field per tensor, in order: the header names
each field's dtype and shape, and the payload is each tensor's C-order
bytes in turn. `np.load(path, allow_pickle=False)` opens it, and
`np.load(path)["grc.W1"]` reads one tensor.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np
from numpy.lib import format as npy


# the longest header np.load reads without allow_pickle
MAX_HEADER = 10_000


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
    """Write `named` as one record through `atomic_open`, so a save that is
    killed or fails midway leaves the previous checkpoint whole. Each
    tensor keeps its dtype; a tensor of Python objects is refused."""
    try:
        with atomic_open(path, "wb") as f:
            arrays = {name: np.asarray(a, order="C")
                      for name, a in named.items()}
            dtype = np.dtype([(name, a.dtype, a.shape)
                              for name, a in arrays.items()])
            if dtype.hasobject:
                raise ValueError("a tensor holds Python objects")
            if dtype.names != tuple(arrays):
                raise ValueError(f"numpy names the fields {dtype.names}")
            npy.write_array_header_1_0(
                f, {"descr": npy.dtype_to_descr(dtype),
                    "fortran_order": False, "shape": ()})
            header = f.tell() - npy.MAGIC_LEN - 2  # less its u16 length
            if header > MAX_HEADER:
                raise ValueError(f"its header is {header} bytes, over the "
                                 f"{MAX_HEADER} np.load reads")
            for a in arrays.values():
                f.write(a.data)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"cannot save the tensors as one record: "
                              f"{e}") from None


def load_checkpoint(path) -> dict:
    """The tensors of the record at `path`, by name, in the file's order.
    Anything else is refused before the payload is read: another .npy
    version, a torn or unparsable header, an array that is not one 0-d
    record of named, object-free fields, or a payload of the wrong size."""
    with open(path, "rb") as f:
        try:
            version = npy.read_magic(f)
            if version != (1, 0):
                raise ValueError(f".npy version {version} is not 1.0")
            shape, _fortran, dtype = npy.read_array_header_1_0(
                f, max_header_size=MAX_HEADER)
        except ValueError as e:
            raise CheckpointError(f"not a checkpoint: {e}") from None
        if shape != () or dtype.names is None or dtype.hasobject:
            raise CheckpointError(f"not a checkpoint: a {shape} array of "
                                  f"{dtype}, not one record of tensors")
        left = os.fstat(f.fileno()).st_size - f.tell()
        if dtype.itemsize != left:
            raise CheckpointError(f"the record is {dtype.itemsize} bytes, "
                                  f"but {left} bytes follow its header")
        record = np.ndarray((), dtype, buffer=f.read(left))
    return {name: record[name].copy() for name in dtype.names}


def restore(params: dict, named: dict):
    """Copy loaded arrays into live parameter tensors, rejecting a missing
    parameter, a tensor the model lacks, and a shape or dtype mismatch, so
    nothing is cast or rounded."""
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
        if arr.dtype != tensor.data.dtype:
            raise CheckpointError(
                f"dtype mismatch for {name}: {arr.dtype} vs {tensor.data.dtype}")
        tensor.data[...] = arr
