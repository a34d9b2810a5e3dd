"""Binary checkpoint format.

A checkpoint file is::

    [u64 little-endian manifest length][manifest JSON, UTF-8][raw value blob]

The manifest holds an optional structured ``config`` block plus one entry per
tensor: ``{name, shape, dtype, byte_offset}``.  Values are stored
little-endian and round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(Exception):
    pass


def _dtype_tag(dtype: np.dtype) -> str:
    tag = dtype.newbyteorder("<").str
    if tag not in _DTYPES:
        raise CheckpointError(f"unsupported checkpoint dtype {dtype}")
    return tag


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict | None = None) -> None:
    """Write named arrays plus a JSON config block to ``path``."""
    entries = []
    blob = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        tag = _dtype_tag(arr.dtype)
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": tag,
            "byte_offset": len(blob),
        })
        blob += arr.astype(_DTYPES[tag], copy=False).tobytes()
    manifest = json.dumps({"config": config or {}, "tensors": entries},
                          sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(manifest)))
        f.write(manifest)
        f.write(bytes(blob))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _layout(path, index: int, entry) -> tuple[str, np.dtype, tuple[int, ...], int, int]:
    """Validated ``(name, dtype, shape, start, end)`` of one manifest entry."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor entry {index} is not a JSON object")
    missing = [k for k in ("name", "shape", "dtype", "byte_offset") if k not in entry]
    if missing:
        raise CheckpointError(f"{path}: tensor entry {index} lacks {', '.join(missing)}")
    name, tag, shape, start = entry["name"], entry["dtype"], entry["shape"], entry["byte_offset"]
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: tensor entry {index} has a non-string name {name!r}")
    dtype = _DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: tensor {name!r}: unsupported dtype {tag!r}")
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise CheckpointError(f"{path}: tensor {name!r}: shape {shape!r} is not a list of counts")
    if not _is_count(start):
        raise CheckpointError(f"{path}: tensor {name!r}: byte_offset {start!r} is not a count")
    return name, dtype, tuple(shape), start, start + math.prod(shape) * dtype.itemsize


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(arrays, config)``; values are bit-exact."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (mlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: bad manifest: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"{path}: manifest has no tensor list")
    blob = raw[8 + mlen:]
    arrays = {}
    for index, entry in enumerate(manifest["tensors"]):
        name, dtype, shape, start, end = _layout(path, index, entry)
        if end > len(blob):
            raise CheckpointError(f"{path}: tensor {name!r} overruns blob")
        arrays[name] = np.frombuffer(blob[start:end], dtype=dtype).reshape(shape).copy()
    return arrays, manifest.get("config", {})


def checkpoint_hash(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over names, shapes, dtypes and raw bytes; order-independent."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()
