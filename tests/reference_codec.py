"""The canonical codec as it stood before its per-type rewrite, verbatim.

Test-only reference for the differential tests in
``tests/test_codec_differential.py``: the production codec
(:mod:`repro.utils.serialization`) must produce the same bytes as
:func:`canonical_bytes` here, raise on the same values, and accept and
reject exactly what :func:`decode_canonical` here accepts and rejects.
Do not edit the functions below; they are the specification.

Two deliberate changes since the rewrite, each made to both codecs at once:
a SCALAR segment holding JSON for a list or an object is rejected, and an
empty array's header carries all-zero strides rather than the strides of the
view it came from.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def canonical_array_chunks(value: np.ndarray):
    """Yield the canonical serialization of an array as buffer chunks.

    The concatenation of the yielded chunks is exactly the byte string
    :func:`canonical_bytes` produces for the same array, but the raw data
    buffer is yielded as a zero-copy memoryview when the array is already
    C-contiguous — so streaming consumers (incremental hashing of large
    weight/activation tensors) avoid materializing a second copy of the
    tensor.
    """
    arr = np.ascontiguousarray(value)
    # Normalize byte order so the commitment is platform independent.
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    header = json.dumps(
        {
            "kind": "ndarray",
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "strides": list(arr.strides) if arr.size else [0] * arr.ndim,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    yield b"NDARRAY\x00"
    yield len(header).to_bytes(8, "big")
    yield header
    if arr.size == 0:
        # memoryview.cast rejects zero-size views; the canonical data
        # segment of an empty tensor is simply empty.
        yield b""
    else:
        yield memoryview(arr).cast("B")


def canonical_bytes(value: Any) -> bytes:
    """Serialize ``value`` to a canonical byte string.

    Supports NumPy arrays, Python scalars, strings, bytes, ``None`` and
    (nested) lists/tuples/dicts of those.  Arrays are converted to
    C-contiguous little-endian buffers, prefixed with dtype/shape metadata.
    """
    if isinstance(value, np.ndarray):
        return b"".join(bytes(chunk) for chunk in canonical_array_chunks(value))
    if isinstance(value, (bool, int, float, str)) or value is None:
        return b"SCALAR\x00" + canonical_json(value).encode("utf-8")
    if isinstance(value, bytes):
        return b"BYTES\x00" + value
    if isinstance(value, (list, tuple)):
        parts = [canonical_bytes(v) for v in value]
        out = b"SEQ\x00" + len(parts).to_bytes(8, "big")
        for part in parts:
            out += len(part).to_bytes(8, "big") + part
        return out
    if isinstance(value, dict):
        out = b"MAP\x00" + len(value).to_bytes(8, "big")
        for key in sorted(value):
            key_b = str(key).encode("utf-8")
            val_b = canonical_bytes(value[key])
            out += len(key_b).to_bytes(8, "big") + key_b
            out += len(val_b).to_bytes(8, "big") + val_b
        return out
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return canonical_bytes(value.item())
    raise TypeError(f"cannot canonically serialize value of type {type(value)!r}")


def decode_canonical(data: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` (strict: rejects malformed input)."""
    value, offset = _decode(memoryview(data), 0)
    if offset != len(data):
        raise ValueError(f"trailing bytes after canonical payload at offset {offset}")
    return value


def _read(buf: memoryview, offset: int, count: int) -> memoryview:
    if offset + count > len(buf):
        raise ValueError("truncated canonical payload")
    return buf[offset:offset + count]


def _read_length(buf: memoryview, offset: int) -> int:
    return int.from_bytes(bytes(_read(buf, offset, 8)), "big")


def _decode(buf: memoryview, offset: int):
    for tag in (b"NDARRAY\x00", b"SCALAR\x00", b"BYTES\x00", b"SEQ\x00", b"MAP\x00"):
        if bytes(_read(buf, offset, min(len(tag), len(buf) - offset))) == tag:
            return _DECODERS[tag](buf, offset + len(tag))
    raise ValueError("unknown canonical tag")


def _decode_ndarray(buf: memoryview, offset: int):
    header_len = _read_length(buf, offset)
    offset += 8
    header_bytes = bytes(_read(buf, offset, header_len))
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed ndarray header: {exc}") from None
    offset += header_len
    if not isinstance(header, dict) or header.get("kind") != "ndarray":
        raise ValueError("malformed ndarray header")
    try:
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(dim) for dim in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed ndarray header: {exc}") from None
    if any(dim < 0 for dim in shape):
        raise ValueError("malformed ndarray header: negative dimension")
    if dtype.byteorder == ">":
        raise ValueError("non-canonical ndarray header: big-endian dtype")
    # Canonicality: the header must be byte-identical to what the encoder
    # writes for this (dtype, shape) — same key order, separators and the
    # C-order strides of the contiguous buffer.  Otherwise distinct byte
    # strings would alias one payload and hashes would no longer bind.
    empty = np.empty(shape, dtype=dtype)
    expected = json.dumps(
        {
            "kind": "ndarray",
            "dtype": str(dtype),
            "shape": list(shape),
            "strides": list(empty.strides) if empty.size else [0] * len(shape),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    if header_bytes != expected:
        raise ValueError("non-canonical ndarray header")
    nbytes = empty.size * dtype.itemsize
    raw = bytes(_read(buf, offset, nbytes))
    offset += nbytes
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy(), offset


def _decode_scalar(buf: memoryview, offset: int):
    # The scalar segment extends to the end of its enclosing frame (at the
    # top level or inside SEQ/MAP frames the segment length is explicit).
    raw = bytes(buf[offset:])
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed scalar payload: {exc}") from None
    if isinstance(value, (list, dict)):
        raise ValueError("non-canonical scalar payload: not a scalar")
    # Canonicality: only the exact encoding canonical_json produces.
    if raw.decode("utf-8") != canonical_json(value):
        raise ValueError("non-canonical scalar payload")
    return value, len(buf)


def _decode_bytes(buf: memoryview, offset: int):
    return bytes(buf[offset:]), len(buf)


def _decode_seq(buf: memoryview, offset: int):
    count = _read_length(buf, offset)
    offset += 8
    items = []
    for _ in range(count):
        part_len = _read_length(buf, offset)
        offset += 8
        part = _read(buf, offset, part_len)
        item, consumed = _decode(part, 0)
        if consumed != part_len:
            raise ValueError("sequence element has trailing bytes")
        items.append(item)
        offset += part_len
    return items, offset


def _decode_map(buf: memoryview, offset: int):
    count = _read_length(buf, offset)
    offset += 8
    out = {}
    previous_key = None
    for _ in range(count):
        key_len = _read_length(buf, offset)
        offset += 8
        key = bytes(_read(buf, offset, key_len)).decode("utf-8")
        offset += key_len
        if previous_key is not None and not key > previous_key:
            raise ValueError("non-canonical map: keys not strictly sorted")
        previous_key = key
        val_len = _read_length(buf, offset)
        offset += 8
        part = _read(buf, offset, val_len)
        value, consumed = _decode(part, 0)
        if consumed != val_len:
            raise ValueError("map value has trailing bytes")
        out[key] = value
        offset += val_len
    return out, offset


_DECODERS = {
    b"NDARRAY\x00": _decode_ndarray,
    b"SCALAR\x00": _decode_scalar,
    b"BYTES\x00": _decode_bytes,
    b"SEQ\x00": _decode_seq,
    b"MAP\x00": _decode_map,
}


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    """Convert ``value`` into something ``json.dumps`` accepts deterministically."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": True,
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return value
