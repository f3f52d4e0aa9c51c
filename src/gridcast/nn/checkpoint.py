"""Deterministic checkpoint container: JSON header plus raw float64 blobs.

Layout: magic line, one JSON header line (tensor directory, metadata and
a SHA-256 digest), then the concatenated C-order little-endian array
bytes. The digest covers the directory and metadata as well as the data,
so a damaged header is caught like damaged data. Writing the same tensors
and metadata twice produces byte-identical files, which numpy's zip-based
formats do not guarantee.
"""

import hashlib
import json

import numpy as np

from ..errors import ArtifactError

MAGIC = b"GRIDCAST-CKPT-2\n"


def _digest(directory, meta, blob):
    """SHA-256 over the canonical JSON of directory and meta, then the data."""
    h = hashlib.sha256(json.dumps({"tensors": directory, "meta": meta},
                                  sort_keys=True, ensure_ascii=True).encode("ascii"))
    h.update(blob)
    return h.hexdigest()


def save_checkpoint(path, tensors, meta=None):
    """Write named float64 arrays and a JSON-serializable meta dict."""
    directory = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        raw = arr.tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    blob = b"".join(blobs)
    meta = meta or {}
    header = json.dumps(
        {"tensors": directory, "meta": meta, "sha256": _digest(directory, meta, blob)},
        sort_keys=True, ensure_ascii=True,
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.encode("ascii") + b"\n")
        fh.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns ({name: array}, meta).

    Raises ArtifactError, naming the path, on a wrong magic line, an
    unreadable header, tensor data of the wrong length or a checksum
    mismatch over the header's directory and meta and the tensor data.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        header_line = fh.readline()
        blob = fh.read()
    if magic != MAGIC:
        raise ArtifactError(f"{path} is not a gridcast checkpoint")
    try:
        header = json.loads(header_line.decode("ascii"))
        directory, meta, digest = header["tensors"], header["meta"], header["sha256"]
        sizes = [8 * int(np.prod(entry["shape"])) for entry in directory]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: unreadable checkpoint header ({exc})") from None
    if len(blob) != sum(sizes):
        raise ArtifactError(
            f"{path}: tensor data is {len(blob)} bytes, the header implies {sum(sizes)}")
    if _digest(directory, meta, blob) != digest:
        raise ArtifactError(f"{path}: header or tensor data fails its SHA-256 check")
    tensors = {}
    for entry in directory:
        shape = tuple(entry["shape"])
        arr = np.frombuffer(blob, dtype="<f8", count=int(np.prod(shape)), offset=entry["offset"])
        tensors[entry["name"]] = arr.reshape(shape).copy()
    return tensors, meta
