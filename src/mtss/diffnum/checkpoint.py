"""Single-file checkpoint format: JSON manifest followed by raw float64 data.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest, then the tensor values as little-endian float64 at the offsets
the manifest declares (relative to the start of the data section).
Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MTSSCKP1"


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        data = np.asarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes
    manifest = json.dumps({"meta": meta, "tensors": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC or len(raw) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (manifest_len,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    header_end = len(MAGIC) + 8 + manifest_len
    try:
        manifest = json.loads(raw[len(MAGIC) + 8:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad manifest ({exc})") from exc
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = header_end + entry["offset"]
        end = start + count * 8
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated data for tensor {entry['name']!r}")
        arr = np.frombuffer(raw[start:end], dtype="<f8").reshape(shape)
        tensors[entry["name"]] = arr.astype(np.float64, copy=True)
    return tensors, manifest["meta"]
