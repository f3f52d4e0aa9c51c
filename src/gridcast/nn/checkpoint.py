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
import math

import numpy as np

from ..errors import ArtifactError, ConfigError

MAGIC = b"GRIDCAST-CKPT-2\n"


def _digest(directory, meta, blob):
    """SHA-256 over the canonical JSON of directory and meta, then the data."""
    h = hashlib.sha256(json.dumps({"tensors": directory, "meta": meta},
                                  sort_keys=True, ensure_ascii=True).encode("ascii"))
    h.update(blob)
    return h.hexdigest()


def _check_contents(tensors, meta):
    """Raise ConfigError, naming the tensor or the meta, for what
    load_checkpoint would not give back as it was written."""
    for name, value in tensors.items():
        if not isinstance(name, str):
            raise ConfigError(f"checkpoint tensor name {name!r} must be a str")
        try:
            dtype = np.asarray(value).dtype
        except ValueError as exc:  # a ragged nesting of sequences
            raise ConfigError(f"checkpoint tensor {name!r} is not an array ({exc})") from None
        if dtype.kind not in "biuf":
            raise ConfigError(f"checkpoint tensor {name!r} has dtype {dtype}, "
                              f"not bool, integer or float")
    if not isinstance(meta, dict):
        raise ConfigError(f"checkpoint meta must be a dict, got {type(meta).__name__}")
    try:
        text = json.dumps(meta, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint meta is not JSON ({exc})") from None
    if json.loads(text) != meta:
        raise ConfigError(f"checkpoint meta {meta!r} does not read back as written")


def save_checkpoint(path, tensors, meta=None):
    """Write named arrays as float64 and a JSON meta dict. Raises
    ConfigError, before the file is opened, for a tensor name that is not a
    str, a tensor that is not bool, integer or float, or meta that is not a
    dict JSON holds exactly (no NaN or infinity, str keys)."""
    meta = {} if meta is None else meta
    _check_contents(tensors, meta)
    directory = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")  # tobytes writes C order
        raw = arr.tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    blob = b"".join(blobs)
    header = json.dumps(
        {"tensors": directory, "meta": meta, "sha256": _digest(directory, meta, blob)},
        sort_keys=True, ensure_ascii=True,
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.encode("ascii") + b"\n")
        fh.write(blob)


def _tensor_sizes(path, entries):
    """Byte size of each (name, shape, offset) directory entry, checked
    against what save_checkpoint writes: unique str names, shapes that are
    lists of non-negative ints, and each offset the bytes before it."""
    sizes, names, offset = [], set(), 0
    for name, shape, at in entries:
        if not isinstance(name, str) or name in names:
            raise ArtifactError(f"{path}: tensor name {name!r} is not a unique string")
        names.add(name)
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ArtifactError(
                f"{path}: tensor {name!r} has shape {shape!r}, not a list of non-negative ints")
        if type(at) is not int or at != offset:
            raise ArtifactError(f"{path}: tensor {name!r} is at offset {at!r}, not {offset}")
        sizes.append(8 * math.prod(shape))
        offset += sizes[-1]
    return sizes


def load_checkpoint(path):
    """Read a checkpoint; returns ({name: array}, meta).

    Raises ArtifactError, naming the path, on a wrong magic line, an
    unreadable header, meta that is not a JSON object, a directory entry
    save_checkpoint would not write (naming the tensor), tensor data of
    the wrong length or a checksum mismatch over the header's directory and
    meta and the tensor data.
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
        entries = [(entry["name"], entry["shape"], entry["offset"]) for entry in directory]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(meta, dict):
        raise ArtifactError(f"{path}: checkpoint meta {meta!r} is not a JSON object")
    sizes = _tensor_sizes(path, entries)
    if len(blob) != sum(sizes):
        raise ArtifactError(
            f"{path}: tensor data is {len(blob)} bytes, the header implies {sum(sizes)}")
    if _digest(directory, meta, blob) != digest:
        raise ArtifactError(f"{path}: header or tensor data fails its SHA-256 check")
    tensors = {}
    for (name, shape, offset), size in zip(entries, sizes):
        arr = np.frombuffer(blob, dtype="<f8", count=size // 8, offset=offset)
        tensors[name] = arr.reshape(tuple(shape)).copy()
    return tensors, meta
