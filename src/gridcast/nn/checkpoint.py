"""Deterministic checkpoint container, format 3: a signed JSON header plus
raw float64 blobs. It holds float tensors only, as params, buffers and
Adam's moments are; a count such as Adam's step_count goes in meta.

Layout: the magic line, a line holding the SHA-256 hex digest of every byte
after it, one JSON header line {"meta": {...}, "tensors": [{"name", "shape"}]}
with the directory in sorted name order, then each tensor's C-order
little-endian float64 bytes, one after another in directory order. The
digest signs the header as read as well as the data, so a damaged header is
caught like damaged data. Writing the same tensors and metadata twice
produces byte-identical files, which numpy's zip-based formats do not
guarantee.
"""

import hashlib
import json
import math

import numpy as np

from ..errors import ArtifactError, ConfigError

MAGIC = b"GRIDCAST-CKPT-3\n"


def _check_contents(tensors, meta):
    """Raise ConfigError, naming the tensor or the meta, for what
    load_checkpoint would not give back as it was written."""
    for name, value in tensors.items():
        if not isinstance(name, str):
            raise ConfigError(f"checkpoint tensor name {name!r} must be a str")
        try:
            arr = np.asarray(value)
        except ValueError as exc:  # a ragged nesting of sequences
            raise ConfigError(f"checkpoint tensor {name!r} is not an array ({exc})") from None
        if arr.dtype.kind != "f" or arr.dtype.itemsize > 8:  # a wider float would be rounded
            raise ConfigError(f"checkpoint tensor {name!r} has dtype {arr.dtype}, not float")
    if not isinstance(meta, dict):
        raise ConfigError(f"checkpoint meta must be a dict, got {type(meta).__name__}")
    try:
        text = json.dumps(meta, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint meta is not JSON ({exc})") from None
    if json.loads(text) != meta:
        raise ConfigError(f"checkpoint meta {meta!r} does not read back as written")


def save_checkpoint(path, tensors, meta=None):
    """Write named float arrays as float64 and a JSON meta dict. Raises
    ConfigError, before the file is opened, for a tensor name that is not a
    str, a tensor that is not float (bool and integer ones included) or is
    a float wider than float64, or
    meta that is not a dict JSON holds exactly (no NaN or infinity, str
    keys)."""
    meta = {} if meta is None else meta
    _check_contents(tensors, meta)
    arrays = {name: np.asarray(tensors[name], dtype="<f8") for name in sorted(tensors)}
    directory = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    header = json.dumps({"tensors": directory, "meta": meta}, sort_keys=True,
                        ensure_ascii=True).encode("ascii") + b"\n"
    body = header + b"".join(a.tobytes() for a in arrays.values())  # tobytes writes C order
    with open(path, "wb") as fh:
        fh.write(MAGIC + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")
        fh.write(body)


def _tensor_sizes(path, entries):
    """Byte size of each (name, shape) directory entry, checked against
    what save_checkpoint writes: unique str names and shapes that are lists
    of non-negative ints."""
    sizes, names = [], set()
    for name, shape in entries:
        if not isinstance(name, str) or name in names:
            raise ArtifactError(f"{path}: tensor name {name!r} is not a unique string")
        names.add(name)
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ArtifactError(
                f"{path}: tensor {name!r} has shape {shape!r}, not a list of non-negative ints")
        sizes.append(8 * math.prod(shape))
    return sizes


def load_checkpoint(path):
    """Read a checkpoint; returns ({name: array}, meta).

    Raises ArtifactError, naming the path, on a wrong magic line, an
    unreadable header, meta that is not a JSON object, a directory entry
    save_checkpoint would not write (naming the tensor), tensor data of
    the wrong length or a SHA-256 mismatch over the header line and the
    tensor data.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        digest_line = fh.readline()
        header_line = fh.readline()
        blob = fh.read()
    if magic != MAGIC:
        raise ArtifactError(f"{path} is not a gridcast checkpoint")
    try:
        header = json.loads(header_line.decode("ascii"))
        meta = header["meta"]
        entries = [(entry["name"], entry["shape"]) for entry in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(meta, dict):
        raise ArtifactError(f"{path}: checkpoint meta {meta!r} is not a JSON object")
    sizes = _tensor_sizes(path, entries)
    if len(blob) != sum(sizes):
        raise ArtifactError(
            f"{path}: tensor data is {len(blob)} bytes, the header implies {sum(sizes)}")
    if digest_line != hashlib.sha256(header_line + blob).hexdigest().encode("ascii") + b"\n":
        raise ArtifactError(f"{path}: header or tensor data fails its SHA-256 check")
    tensors, offset = {}, 0
    for (name, shape), size in zip(entries, sizes):
        tensors[name] = np.frombuffer(blob, "<f8", size // 8, offset).reshape(shape).copy()
        offset += size
    return tensors, meta
