"""Binary checkpoint format.

A checkpoint file is::

    [u64 little-endian manifest length][manifest JSON, UTF-8][raw value blob]

The manifest holds a ``config`` JSON object, one entry per tensor, ``{name,
shape, dtype}``, and ``sha256``, a digest of the tensors and the config.  The
blob is the tensors' little-endian values back to back in manifest order, so a
tensor's offset is the size of the tensors before it.  Saving rejects a config
that does not come back from JSON equal to itself.  Loading rejects a blob
shorter or longer than its tensors, a ``sha256`` that does not match, a repeated
tensor name, a config that is not a JSON object, ``NaN`` or ``Infinity`` in the
manifest, and a shape dimension that ``checks.integer`` does not take as an
integer >= 0.  Values and shapes (0-d ones too) round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .checks import integer

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(Exception):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict) -> None:
    """Write named arrays plus a config dict to ``path``.

    The config must load back equal to itself: string keys, and values that
    JSON holds exactly (no tuple, NaN or numpy scalar).  The file is written
    under a temporary name in the same directory and then renamed over
    ``path``, so a failed save leaves any earlier file at ``path`` intact and
    no temporary file behind.
    """
    if not isinstance(config, dict):
        raise CheckpointError(f"config must be a dict, got {type(config).__name__}")
    try:
        round_trips = json.loads(json.dumps(config, allow_nan=False)) == config
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"config {config!r} is not JSON: {e}") from e
    if not round_trips:
        raise CheckpointError(f"config {config!r} does not load back equal to itself")
    stored = {}
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")
        stored[name] = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        if stored[name].dtype.str not in _DTYPES:
            raise CheckpointError(f"unsupported checkpoint dtype {arr.dtype}")
    entries = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
               for name, arr in stored.items()]
    manifest = json.dumps({"config": config, "tensors": entries, "sha256": _seal(stored, config)},
                          sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(struct.pack("<Q", len(manifest)))
            f.write(manifest)
            for arr in stored.values():
                f.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _layout(path, index: int, entry) -> tuple[str, np.dtype, tuple[int, ...]]:
    """Validated ``(name, dtype, shape)`` of one manifest entry."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor entry {index} is not a JSON object")
    missing = [k for k in ("name", "shape", "dtype") if k not in entry]
    if missing:
        raise CheckpointError(f"{path}: tensor entry {index} lacks {', '.join(missing)}")
    name, tag, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: tensor entry {index} has a non-string name {name!r}")
    dtype = _DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: tensor {name!r}: unsupported dtype {tag!r}")
    if not isinstance(shape, list):
        raise CheckpointError(f"{path}: tensor {name!r}: shape {shape!r} is not a list")
    return name, dtype, tuple(integer(d, f"{path}: tensor {name!r}: shape[{i}]", CheckpointError)
                              for i, d in enumerate(shape))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(arrays, config)``; values are bit-exact."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (mlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"), parse_constant=_not_json)
    except (ValueError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: bad manifest: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"{path}: manifest has no tensor list")
    blob = memoryview(raw)[8 + mlen:]
    arrays = {}
    start = 0
    for index, entry in enumerate(manifest["tensors"]):
        name, dtype, shape = _layout(path, index, entry)
        if name in arrays:
            raise CheckpointError(f"{path}: tensor {name!r} is named twice")
        end = start + math.prod(shape) * dtype.itemsize
        if end > len(blob):
            raise CheckpointError(f"{path}: tensor {name!r} overruns blob")
        arrays[name] = np.frombuffer(blob[start:end], dtype=dtype).reshape(shape).copy()
        start = end
    if start != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - start} bytes after the last tensor")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: manifest config {config!r} is not a JSON object")
    if manifest.get("sha256") != _seal(arrays, config):
        raise CheckpointError(f"{path}: tensors and config do not match the manifest's sha256")
    return arrays, config


def _not_json(constant: str):
    """``json.loads``'s ``parse_constant``: a save never writes ``NaN`` or ``Infinity``."""
    raise ValueError(f"{constant} is not JSON")


def _digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        h.update(arr)
    return h.hexdigest()


def _seal(arrays: dict[str, np.ndarray], config) -> str:
    """The manifest's ``sha256``: a digest of the tensors' digest and the config's sorted JSON."""
    return hashlib.sha256((_digest(arrays) + json.dumps(config, sort_keys=True)).encode("utf-8")).hexdigest()


def checkpoint_hash(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over names, shapes, dtypes and raw bytes; order-independent."""
    return _digest(arrays)
