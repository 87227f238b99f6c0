"""Canonical byte serialization for tensors and metadata.

The paper commits to tensors via ``canon(.)`` which "serializes raw tensor
bytes, dtype, shape, and stride" (Sec. 5.2).  We reproduce that exactly:
``canonical_bytes`` produces a deterministic byte string containing the
dtype name, the shape, the C-order strides and the raw little-endian data
buffer, so two numerically identical tensors always hash to the same leaf
and any bit flip changes the hash.

``canonical_json`` provides a deterministic JSON encoding (sorted keys, no
whitespace) used for operator signatures and protocol metadata.

``decode_canonical`` inverts ``canonical_bytes``: any payload the encoder
accepts round-trips bit-exactly (arrays come back C-contiguous
little-endian, tuples come back as lists, dict keys as strings — the
canonical normal forms the encoder maps them to).  The decoder is strict in
the full sense a hash-binding protocol needs: it accepts *only* byte
strings the encoder itself could have produced.  Trailing bytes, truncated
segments, unknown tags, non-canonical ndarray headers (reordered JSON
keys, wrong strides, big-endian dtypes), non-canonical scalar JSON and
unsorted or duplicated map keys all raise ``ValueError`` — so accepted
bytes are uniquely identified by their canonical hash
(``canonical_bytes(decode_canonical(data)) == data``).  One corollary: a
dict with non-string keys encodes (sorted by its *original* keys) but its
encoding is rejected by the decoder whenever that order differs from the
lexicographic order of the stringified keys — such payloads cannot
round-trip, and the protocol only binds string-keyed maps.  A SCALAR
segment holds a scalar only: JSON for a list or an object
(``SCALAR\x00[1]``) is rejected, since that value's encoding is a SEQ or MAP.
An empty array's header carries all-zero strides, whatever view it was
encoded from, so equal empty arrays of one dtype and shape share one header.

Both directions are one pass per value.  The encoder dispatches on the
exact type (``str``, ``int``, ``bool``, ``None``, finite ``float``,
``bytes``, ``list``/``tuple``, ``dict``), writes each scalar the way
``canonical_json`` would and joins each container once; every other value
(numpy scalars, subclasses, NaN and infinities, arrays) takes the general
rule.  The decoder reads each tag once and carries explicit segment end
offsets instead of slicing.  ``canonical_map`` and ``split_canonical_map``
build and split a top-level map from and into *encoded* values, so a caller
holding frames as they crossed a transport (the fleet's write-ahead journal)
never encodes them again.
"""

from __future__ import annotations

import json
import math
import struct
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Mapping, Tuple

import numpy as np

_NDARRAY = b"NDARRAY\x00"
_SCALAR = b"SCALAR\x00"
_BYTES = b"BYTES\x00"
_SEQ = b"SEQ\x00"
_MAP = b"MAP\x00"

_LENGTH = struct.Struct(">Q")
_pack_length = _LENGTH.pack
_unpack_length = _LENGTH.unpack_from

_TRUE = _SCALAR + b"true"
_FALSE = _SCALAR + b"false"
_NULL = _SCALAR + b"null"

#: Scalar spellings decoded without the JSON parser: each is exactly what
#: ``canonical_json`` writes for the value it maps to.
_SCALAR_WORDS = {"null": None, "true": True, "false": False,
                 "NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _ndarray_header(dtype_name: str, shape, strides) -> bytes:
    """The canonical ndarray header: ``json.dumps`` of the four fields with
    sorted keys and compact separators, written out directly."""
    return ('{"dtype":%s,"kind":"ndarray","shape":[%s],"strides":[%s]}' % (
        encode_basestring_ascii(dtype_name),
        ",".join([str(dim) for dim in shape]),
        ",".join([str(step) for step in strides]))).encode("ascii")


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
    # An empty array's strides depend on the view it came from; its header
    # writes zeros, so equal empty arrays share one header.
    strides = arr.strides if arr.size else _c_strides(arr.shape, arr.dtype)
    header = _ndarray_header(str(arr.dtype), arr.shape, strides)
    yield _NDARRAY
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
    return _ENCODERS.get(type(value), _encode_other)(value)


def _encode_str(value: str) -> bytes:
    return _SCALAR + encode_basestring_ascii(value).encode("ascii")


def _encode_int(value: int) -> bytes:
    return _SCALAR + int.__repr__(value).encode("ascii")


def _encode_float(value: float) -> bytes:
    if math.isfinite(value):
        return _SCALAR + float.__repr__(value).encode("ascii")
    return _encode_other(value)


def _encode_seq(value) -> bytes:
    parts = [_ENCODERS.get(type(item), _encode_other)(item) for item in value]
    out = [_SEQ, _pack_length(len(parts))]
    for part in parts:
        out.append(_pack_length(len(part)))
        out.append(part)
    return b"".join(out)


def _encode_map(value) -> bytes:
    out = [_MAP, _pack_length(len(value))]
    for key in sorted(value):
        key_b = (key if type(key) is str else str(key)).encode("utf-8")
        item = value[key]
        val_b = _ENCODERS.get(type(item), _encode_other)(item)
        out += (_pack_length(len(key_b)), key_b, _pack_length(len(val_b)), val_b)
    return b"".join(out)


def _encode_array(value: np.ndarray) -> bytes:
    return b"".join(canonical_array_chunks(value))


def _encode_other(value: Any) -> bytes:
    """The general rule, for every value without a type-exact fast path."""
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return _SCALAR + canonical_json(value).encode("utf-8")
    if isinstance(value, bytes):
        return _BYTES + value
    if isinstance(value, (list, tuple)):
        return _encode_seq(value)
    if isinstance(value, dict):
        return _encode_map(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return canonical_bytes(value.item())
    raise TypeError(f"cannot canonically serialize value of type {type(value)!r}")


_ENCODERS = {
    str: _encode_str,
    int: _encode_int,
    float: _encode_float,
    bool: lambda value: _TRUE if value else _FALSE,
    type(None): lambda value: _NULL,
    bytes: lambda value: _BYTES + value,
    list: _encode_seq,
    tuple: _encode_seq,
    dict: _encode_map,
    np.ndarray: _encode_array,
}


def canonical_map(encoded: Mapping[str, bytes]) -> bytes:
    """The canonical ``MAP`` of string keys to *already-encoded* values.

    ``canonical_map({k: canonical_bytes(v) for k, v in d.items()})`` equals
    ``canonical_bytes(d)`` for a string-keyed ``d``; callers that hold the
    encoded values (frames as they crossed a transport) build the map
    without encoding them again.
    """
    out = [_MAP, _pack_length(len(encoded))]
    for key in sorted(encoded):
        key_b = key.encode("utf-8")
        out += (_pack_length(len(key_b)), key_b,
                _pack_length(len(encoded[key])), encoded[key])
    return b"".join(out)


def split_canonical_map(data: bytes) -> Dict[str, bytes]:
    """Split a top-level canonical ``MAP`` into its encoded values.

    The inverse of :func:`canonical_map`.  The map's own framing is checked
    as strictly as :func:`decode_canonical` checks it (tag, strictly sorted
    keys, exact lengths, no trailing bytes); the values are returned as
    the byte strings they are, not decoded.
    """
    buf = data if type(data) is bytes else bytes(data)
    if not buf.startswith(_MAP):
        raise ValueError("not a canonical map")
    parts, offset = _decode_map(buf, len(_MAP), len(buf), raw=True)
    if offset != len(buf):
        raise ValueError(f"trailing bytes after canonical payload at offset {offset}")
    return parts


def decode_canonical(data: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` (strict: rejects malformed input)."""
    buf = data if type(data) is bytes else bytes(data)
    value, offset = _decode(buf, 0, len(buf))
    if offset != len(buf):
        raise ValueError(f"trailing bytes after canonical payload at offset {offset}")
    return value


# Every decoder reads the segment ``buf[offset:end]`` and returns
# ``(value, offset just past what it consumed)``; ``end`` is the end of the
# enclosing frame, so SCALAR and BYTES segments run to it.

def _read_length(buf: bytes, offset: int, end: int) -> int:
    if offset + 8 > end:
        raise ValueError("truncated canonical payload")
    return _unpack_length(buf, offset)[0]


def _segment_end(offset: int, count: int, end: int) -> int:
    if offset + count > end:
        raise ValueError("truncated canonical payload")
    return offset + count


def _decode(buf: bytes, offset: int, end: int) -> Tuple[Any, int]:
    if offset < end:
        for tag, decoder in _DECODERS.get(buf[offset], ()):
            if buf.startswith(tag, offset, end):
                return decoder(buf, offset + len(tag), end)
    raise ValueError("unknown canonical tag")


def _c_strides(shape: Tuple[int, ...], dtype: np.dtype):
    """The canonical header strides: C order, and all zeros when empty."""
    if 0 in shape:
        return [0] * len(shape)
    strides = []
    step = dtype.itemsize
    for dim in reversed(shape):
        strides.append(step)
        step *= dim
    return strides[::-1]


def _decode_ndarray(buf: bytes, offset: int, end: int):
    header_len = _read_length(buf, offset, end)
    offset += 8
    header_end = _segment_end(offset, header_len, end)
    header_bytes = buf[offset:header_end]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed ndarray header: {exc}") from None
    offset = header_end
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
    if header_bytes != _ndarray_header(str(dtype), shape, _c_strides(shape, dtype)):
        raise ValueError("non-canonical ndarray header")
    size = math.prod(shape)
    data_end = _segment_end(offset, size * dtype.itemsize, end)
    # One copy: a view of the frame, reshaped, then copied out (owned,
    # writeable, C-contiguous).
    array = np.frombuffer(buf, dtype=dtype, count=size, offset=offset)
    return array.reshape(shape).copy(), data_end


def _decode_scalar(buf: bytes, offset: int, end: int):
    # The scalar segment extends to the end of its enclosing frame.
    raw = buf[offset:end]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed scalar payload: {exc}") from None
    # Fast paths: each accepts only a spelling canonical_json writes for the
    # value it returns; anything else takes the general rule below.
    value = _SCALAR_WORDS.get(text, _SCALAR_WORDS)
    if value is not _SCALAR_WORDS:
        return value, end
    if text[:1] == '"':
        try:
            value = scanstring(text, 1)[0]
        except ValueError:
            pass
        else:
            if encode_basestring_ascii(value) == text:
                return value, end
    elif "." in text or "e" in text:
        # A finite float's repr always has one of the two; an int's never.
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value) and float.__repr__(value) == text:
                return value, end
    else:
        try:
            value = int(text)
        except ValueError:
            pass
        else:
            if int.__repr__(value) == text:
                return value, end
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed scalar payload: {exc}") from None
    if isinstance(value, (list, dict)):
        raise ValueError("non-canonical scalar payload: not a scalar")
    # Canonicality: only the exact encoding canonical_json produces.
    if text != canonical_json(value):
        raise ValueError("non-canonical scalar payload")
    return value, end


def _decode_bytes(buf: bytes, offset: int, end: int):
    return buf[offset:end], end


def _decode_seq(buf: bytes, offset: int, end: int):
    count = _read_length(buf, offset, end)
    offset += 8
    items = []
    for _ in range(count):
        part_len = _read_length(buf, offset, end)
        part_end = _segment_end(offset + 8, part_len, end)
        item, consumed = _decode(buf, offset + 8, part_end)
        if consumed != part_end:
            raise ValueError("sequence element has trailing bytes")
        items.append(item)
        offset = part_end
    return items, offset


def _decode_map(buf: bytes, offset: int, end: int, raw: bool = False):
    count = _read_length(buf, offset, end)
    offset += 8
    out = {}
    previous_key = None
    for _ in range(count):
        key_len = _read_length(buf, offset, end)
        key_end = _segment_end(offset + 8, key_len, end)
        key = buf[offset + 8:key_end].decode("utf-8")
        if previous_key is not None and not key > previous_key:
            raise ValueError("non-canonical map: keys not strictly sorted")
        previous_key = key
        val_len = _read_length(buf, key_end, end)
        val_end = _segment_end(key_end + 8, val_len, end)
        if raw:
            out[key] = buf[key_end + 8:val_end]
        else:
            value, consumed = _decode(buf, key_end + 8, val_end)
            if consumed != val_end:
                raise ValueError("map value has trailing bytes")
            out[key] = value
        offset = val_end
    return out, offset


#: First tag byte -> the (tag, decoder) pairs that start with it.
_DECODERS = {
    _NDARRAY[0]: ((_NDARRAY, _decode_ndarray),),
    _SCALAR[0]: ((_SCALAR, _decode_scalar), (_SEQ, _decode_seq)),
    _BYTES[0]: ((_BYTES, _decode_bytes),),
    _MAP[0]: ((_MAP, _decode_map),),
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
