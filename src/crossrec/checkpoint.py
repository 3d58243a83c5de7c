"""Binary checkpoint container: magic "MREC1", named float64 tensors, then the
producing run config as a trailing text block."""
from __future__ import annotations

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
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"{fh.name}: truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> ndarray, config_text).

    A repeated tensor name, a non-finite value or bytes after the config block
    raise CheckpointError naming the path and, where there is one, the tensor.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"bad magic in {path}")
        (count,) = struct.unpack("<I", _read(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, "name length"))
            name = _read(fh, name_len, "name").decode("utf-8")
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", _read(fh, 4, "rank"))
            shape = tuple(struct.unpack("<I", _read(fh, 4, "dim"))[0] for _ in range(rank))
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            data = np.frombuffer(_read(fh, 8 * n, f"data of {name}"), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            tensors[name] = data.reshape(shape).astype(np.float64)
        (cfg_len,) = struct.unpack("<Q", _read(fh, 8, "config length"))
        config_text = _read(fh, cfg_len, "config").decode("utf-8")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the config block")
    return tensors, config_text
