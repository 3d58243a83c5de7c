"""Binary checkpoint container: magic "MREC1", named float64 tensors, then the
producing run config as a trailing text block."""
from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"MREC1"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, tensors, config_text=""):
    """Write name -> ndarray entries plus the config text block."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())
        cfg = config_text.encode("utf-8")
        fh.write(struct.pack("<Q", len(cfg)))
        fh.write(cfg)


def _read(fh, n, what):
    """``n`` bytes; a length beyond the end of the file is an error before
    anything is read, so a corrupted length cannot ask for a huge buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise CheckpointError(f"{fh.name}: truncated checkpoint while reading {what}: "
                              f"{n} bytes declared, {left} left")
    return buf


def _text(fh, n, what):
    try:
        return _read(fh, n, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{fh.name}: {what} is not UTF-8: {exc}") from None


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> ndarray, config_text).

    A length field that runs past the end of the file, text that is not
    UTF-8, a repeated tensor name, a non-finite value or bytes after the
    config block raise CheckpointError naming the path and what was read.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not an MREC1 checkpoint")
        (count,) = struct.unpack("<I", _read(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, "name length"))
            name = _text(fh, name_len, "tensor name")
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", _read(fh, 4, f"rank of {name}"))
            shape = tuple(struct.unpack("<I", _read(fh, 4, f"shape of {name}"))[0]
                          for _ in range(rank))
            data = np.frombuffer(_read(fh, 8 * math.prod(shape), f"data of {name}"),
                                 dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            try:
                tensors[name] = data.reshape(shape).astype(np.float64)
            except ValueError as exc:  # numpy caps the rank
                raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from None
        (cfg_len,) = struct.unpack("<Q", _read(fh, 8, "config length"))
        config_text = _text(fh, cfg_len, "config")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the config block")
    return tensors, config_text
