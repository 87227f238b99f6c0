"""Differential pins: the per-type canonical codec against its reference.

``tests/reference_codec.py`` keeps the codec as it stood before the per-type
rewrite.  The production encoder must give equal bytes on every value the
reference encodes and raise the same exception type on every value it
refuses; the production decoder must accept exactly the byte strings the
reference accepts (returning the same value) and reject the rest.  The
canonical bytes are the commitment preimage, so "equal" means byte-equal.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_codec as ref
from repro.utils import serialization as codec


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Meters(float):
    def __repr__(self):
        return "Meters(...)"


class Tag(str):
    def __str__(self):
        return "tag:" + str.__str__(self)


class Count(int):
    def __repr__(self):
        return "Count(...)"


class Frame(dict):
    pass


class Row(list):
    pass


def _outcome(encode, value):
    try:
        return "ok", encode(value)
    except Exception as exc:  # noqa: BLE001 - the exception type is the pin
        return "raise", type(exc)


def _assert_same_encoding(value):
    assert _outcome(codec.canonical_bytes, value) == \
        _outcome(ref.canonical_bytes, value)


_NUMPY_SCALARS = st.one_of(
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats(width=16).map(np.float16),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
    st.binary(max_size=4).map(np.bytes_),
)

_ODD_SCALARS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1e16, 1e-5, 2**53 + 1, -2**63, 2**200, Colour.RED,
                     Colour.BLUE, Meters(2.5), Meters(math.nan), Tag("x"),
                     Count(3), True, False, None, "", b"", "\ud800",
                     "😀", "é\x00\n\"\\", object(), 1j,
                     np.complex64(1), {1, 2}, bytearray(b"ab")]),
    st.integers(-2**300, 2**300),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    _NUMPY_SCALARS,
)

_ARRAYS = st.one_of(
    hnp.arrays(dtype=st.sampled_from([np.float32, np.float64, np.int16,
                                      np.uint8, np.bool_, np.complex64]),
               shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                      max_side=4)),
    # Non-contiguous views and big-endian buffers.
    hnp.arrays(dtype=np.float64, shape=(4, 6)).map(lambda a: a[:, ::2]),
    hnp.arrays(dtype=np.int32, shape=(3, 5)).map(lambda a: a.T),
    hnp.arrays(dtype=np.dtype(">f4"),
               shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    hnp.arrays(dtype=np.dtype(">i8"), shape=(2, 3)).map(lambda a: a[::-1]),
)

_KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.floats(),
                  st.sampled_from([None, Tag("k"), Colour.RED, (1, 2)]))

_VALUES = st.recursive(
    _ODD_SCALARS | _ARRAYS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(Row),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3).map(Frame),
        st.dictionaries(st.text(max_size=6), children,
                        max_size=3).map(OrderedDict),
    ),
    max_leaves=12,
)


@settings(deadline=None, max_examples=300)
@given(_VALUES)
def test_encoder_matches_reference(value):
    _assert_same_encoding(value)


@pytest.mark.parametrize("value", [
    10 ** 5000,                      # past the int-to-str digit limit
    {"a": 10 ** 5000},
    {"\ud800": object()},            # unencodable key before a bad value
    {1: "a", "b": 2},                # unsortable keys
    {Tag("k"): 1, Tag("j"): [Tag("v")]},  # keys go through str()
    [np.float32(math.nan), np.float64(-math.inf), np.int64(-1)],
    {"x": np.zeros((0, 3))[:, ::2], "y": np.zeros((2, 0, 3))},
], ids=["huge_int", "huge_int_nested", "bad_key_then_bad_value",
        "unsortable_keys", "str_subclass_keys", "numpy_specials", "empty_arrays"])
def test_encoder_matches_reference_on_edge_values(value):
    _assert_same_encoding(value)


# ----------------------------------------------------------------------
# Decoder: same accept/reject set, same values
# ----------------------------------------------------------------------

def _decoded(decode, data):
    try:
        value = decode(data)
    except ValueError:
        return "reject", None
    return "accept", (type(value), ref.canonical_bytes(value))


def _assert_same_decoding(data):
    assert _decoded(codec.decode_canonical, data) == \
        _decoded(ref.decode_canonical, data)


_FRAMES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(), st.text(max_size=8), st.binary(max_size=8),
              hnp.arrays(dtype=st.sampled_from([np.float32, np.int64, np.bool_]),
                         shape=hnp.array_shapes(min_dims=0, max_dims=2,
                                                min_side=0, max_side=3))),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=10,
).map(ref.canonical_bytes)


@settings(deadline=None, max_examples=200)
@given(_FRAMES, st.data())
def test_decoder_matches_reference_on_mutilated_frames(data, draw):
    _assert_same_decoding(data)
    index = draw.draw(st.integers(0, len(data)))
    kind = draw.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        mutated = data[:index]
    elif kind == "flip" and index < len(data):
        mask = draw.draw(st.integers(1, 255))
        mutated = data[:index] + bytes([data[index] ^ mask]) + data[index + 1:]
    else:
        other = draw.draw(_FRAMES)
        start = draw.draw(st.integers(0, len(other)))
        stop = draw.draw(st.integers(start, len(other)))
        cut = draw.draw(st.integers(index, len(data)))
        mutated = data[:index] + other[start:stop] + data[cut:]
    _assert_same_decoding(mutated)


def test_decoder_matches_reference_on_every_flip_and_cut():
    """Exhaustive over one frame shaped like the fleet's traffic."""
    data = ref.canonical_bytes({
        "op": "submit", "model": "tenant-é", "force_challenge": False,
        "inputs": {"x": np.arange(6, dtype=np.float32).reshape(2, 3)},
        "meta": [1, -0.0, 2.5e-07, None, "a\"b", b"\x00\xff", [], {}],
    })
    for index in range(len(data) + 1):
        _assert_same_decoding(data[:index])
    for index in range(len(data)):
        for mask in (0x01, 0x20, 0x80):
            _assert_same_decoding(
                data[:index] + bytes([data[index] ^ mask]) + data[index + 1:])


@pytest.mark.parametrize("spelling", [
    "1E5", " 1.0", "1.0 ", "1_0.5", "nan", "inf", "-inf", "Infinity",
    "-Infinity", "NaN", "+1", "-0", "01", "0", "-7", "1.0", "-0.0", "1e16",
    "1e+16", "1.5e-07", "1.5E-07", ".5", "5.", "true", "True", "null", "None",
    '"a"', '"\\u00e9"', '"é"', '"\\ud83d\\ude00"', '"\\ud800"', '"a" ',
    '"\\/"', "[1,2]", '{"a":1}', '{"b":1,"a":2}', "[]", "", "1" * 5000,
    "١٢", "1e400",
])
def test_decoder_matches_reference_on_scalar_spellings(spelling):
    _assert_same_decoding(b"SCALAR\x00" + spelling.encode("utf-8"))
    _assert_same_decoding(ref.canonical_bytes({"k": [0]}).replace(
        b"SCALAR\x000", b"SCALAR\x00" + spelling.encode("utf-8")))


@pytest.mark.parametrize("data", [b"SCALAR\x00[1]", b'SCALAR\x00{"a":1}'],
                         ids=["list", "object"])
def test_scalar_segment_holds_only_a_scalar(data):
    """A list or a map has one encoding, its SEQ or MAP; JSON for it in a
    SCALAR segment would be a second byte string for the same value."""
    for decode in (codec.decode_canonical, ref.decode_canonical):
        with pytest.raises(ValueError, match="not a scalar"):
            decode(data)


@pytest.mark.parametrize("view, fresh", [
    (np.ones((4, 3))[:, ::2][:0], np.zeros((0, 2))),
    (np.ones((2, 5), dtype=np.float32)[:, 5:], np.zeros((2, 0), dtype=np.float32)),
    (np.ones((3, 4, 2))[::2, :0].T, np.empty((2, 0, 2))),
], ids=["empty_rows", "empty_columns", "empty_transposed"])
def test_equal_empty_arrays_share_one_header(view, fresh):
    """An empty array's header strides are zeros, whatever view it came
    from: equal empty arrays commit to equal bytes that the decoder
    accepts."""
    for encode in (codec.canonical_bytes, ref.canonical_bytes):
        assert encode(view) == encode(fresh) == codec.canonical_bytes(fresh)
    for decode in (codec.decode_canonical, ref.decode_canonical):
        np.testing.assert_array_equal(decode(codec.canonical_bytes(view)), fresh)


def test_decoder_matches_reference_on_invalid_utf8():
    for raw in (b"SCALAR\x00\xff", b"SCALAR\x00\"\xc3\"",
                b"MAP\x00" + (1).to_bytes(8, "big") + (1).to_bytes(8, "big")
                + b"\xff" + ref.canonical_bytes(None)):
        _assert_same_decoding(raw)


# ----------------------------------------------------------------------
# The journal helpers
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.dictionaries(st.text(max_size=6), _FRAMES, max_size=5))
def test_canonical_map_of_encoded_values_is_the_canonical_map(parts):
    decoded = {key: ref.decode_canonical(value) for key, value in parts.items()}
    data = codec.canonical_map(parts)
    assert data == ref.canonical_bytes(decoded)
    assert codec.split_canonical_map(data) == parts


@pytest.mark.parametrize("data", [
    ref.canonical_bytes([1]),
    ref.canonical_bytes({"a": 1}) + b"\x00",
    ref.canonical_bytes({"a": 1})[:-1],
    ref.canonical_bytes({"b": 1, "a": 2}).replace(b"a", b"c"),
])
def test_split_canonical_map_is_strict(data):
    with pytest.raises(ValueError):
        codec.split_canonical_map(data)
