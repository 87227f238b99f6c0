"""Unit tests for canonical serialization (encode, decode, round-trip)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.serialization import canonical_bytes, canonical_json, decode_canonical


def test_identical_arrays_serialize_identically():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    b = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_single_bit_change_changes_bytes():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    b = a.copy()
    b[1, 2] = np.nextafter(b[1, 2], np.inf)
    assert canonical_bytes(a) != canonical_bytes(b)


def test_dtype_is_part_of_the_encoding():
    a = np.zeros(4, dtype=np.float32)
    b = np.zeros(4, dtype=np.float64)
    assert canonical_bytes(a) != canonical_bytes(b)


def test_shape_is_part_of_the_encoding():
    a = np.zeros((2, 3), dtype=np.float32)
    b = np.zeros((3, 2), dtype=np.float32)
    assert canonical_bytes(a) != canonical_bytes(b)


def test_non_contiguous_array_equals_contiguous_copy():
    base = np.arange(24, dtype=np.float32).reshape(4, 6)
    view = base[:, ::2]
    assert canonical_bytes(view) == canonical_bytes(np.ascontiguousarray(view))


def test_nested_structures_are_supported():
    payload = {"b": [1, 2.5, "x"], "a": np.ones(3, dtype=np.float32), "c": None}
    encoded = canonical_bytes(payload)
    assert isinstance(encoded, bytes)
    assert canonical_bytes(payload) == encoded


def test_dict_key_order_does_not_matter():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert canonical_bytes(a) == canonical_bytes(b)
    assert canonical_json(a) == canonical_json(b)


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        canonical_bytes(object())


def test_canonical_json_handles_numpy_scalars():
    text = canonical_json({"a": np.float32(1.5), "b": np.int64(3), "c": np.bool_(True)})
    assert "1.5" in text and "3" in text and "true" in text


@settings(deadline=None, max_examples=30)
@given(hnp.arrays(dtype=np.float32, shape=hnp.array_shapes(max_dims=3, max_side=5),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_canonical_bytes_deterministic_for_arrays(arr):
    assert canonical_bytes(arr) == canonical_bytes(arr.copy())


# ----------------------------------------------------------------------
# Round-trip: decode_canonical inverts canonical_bytes
# ----------------------------------------------------------------------

_ARRAY_DTYPES = (np.float32, np.float64, np.int8, np.int32, np.int64,
                 np.uint8, np.uint16, np.bool_)


def _array_strategy():
    def arrays_for(dtype):
        if np.dtype(dtype).kind == "f":
            elements = st.floats(-1e6, 1e6, width=np.dtype(dtype).itemsize * 8)
        else:
            elements = None
        return hnp.arrays(dtype=dtype, elements=elements,
                          shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
    return st.sampled_from(_ARRAY_DTYPES).flatmap(arrays_for)


_SCALARS = (st.none() | st.booleans() | st.integers(-2**60, 2**60)
            | st.floats(allow_nan=False) | st.text(max_size=16)
            | st.binary(max_size=16))

_PAYLOADS = st.recursive(
    _SCALARS | _array_strategy(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10,
)


def _canonical_form(value):
    """The normal form the encoder maps a payload to (tuples->lists, ...)."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        return arr
    if isinstance(value, (list, tuple)):
        return [_canonical_form(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_form(v) for k, v in value.items()}
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def _assert_payloads_equal(got, expected):
    assert type(got) is type(expected), (type(got), type(expected))
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_payloads_equal(g, e)
    elif isinstance(expected, dict):
        assert set(got) == set(expected)
        for key in expected:
            _assert_payloads_equal(got[key], expected[key])
    else:
        assert got == expected


@settings(deadline=None, max_examples=120)
@given(_PAYLOADS)
def test_round_trip_arbitrary_nested_payloads(payload):
    """decode(encode(x)) is bit-exact up to the encoder's normal forms."""
    encoded = canonical_bytes(payload)
    decoded = decode_canonical(encoded)
    _assert_payloads_equal(decoded, _canonical_form(payload))
    # Round-tripping is idempotent: the normal form re-encodes identically.
    assert canonical_bytes(decoded) == encoded


@settings(deadline=None, max_examples=60)
@given(hnp.arrays(dtype=np.float64,
                  shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_round_trip_preserves_every_float_bit_pattern(arr):
    """NaN payloads, infinities and -0.0 survive the array round trip."""
    decoded = decode_canonical(canonical_bytes(arr))
    assert decoded.tobytes() == np.ascontiguousarray(arr).tobytes()


def test_round_trip_non_contiguous_and_empty_arrays():
    base = np.arange(24, dtype=np.float32).reshape(4, 6)
    for sample in (base[:, ::2], base.T, np.zeros((0, 3)), np.zeros(())):
        decoded = decode_canonical(canonical_bytes(sample))
        expected = np.ascontiguousarray(sample)
        assert decoded.dtype == expected.dtype
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()


def test_decoded_arrays_are_owned_writeable_c_contiguous():
    base = np.arange(24, dtype=np.float32).reshape(4, 6)
    for sample in (base, base[:, ::2], base.T, base.astype(">f8"),
                   np.zeros((0, 3)), np.zeros(()), np.arange(5, dtype=np.int8)):
        encoded = canonical_bytes({"a": sample, "b": [sample]})
        decoded = decode_canonical(encoded)
        for array in (decoded["a"], decoded["b"][0]):
            assert array.flags.owndata
            assert array.flags.writeable
            assert array.flags.c_contiguous
            assert array.base is None
        # Writing into one decoded array touches neither the other nor the
        # frame it was decoded from.
        if decoded["a"].size:
            decoded["a"].flat[0] = 1
            assert decoded["b"][0].flat[0] == np.ascontiguousarray(sample).flat[0]
        assert canonical_bytes({"a": sample, "b": [sample]}) == encoded


@settings(deadline=None, max_examples=60)
@given(st.binary(min_size=1, max_size=64))
def test_decode_rejects_garbage(data):
    """Random bytes either fail loudly or decode to a re-encodable value."""
    try:
        decoded = decode_canonical(data)
    except ValueError:
        return
    # The only bytes that decode are genuine canonical payloads.
    assert canonical_bytes(decoded) == data


@pytest.mark.parametrize("mutilate", [
    lambda b: b[:-1],                      # truncated data segment
    lambda b: b + b"\x00",                 # trailing bytes
    lambda b: b"XXXXXXX\x00" + b[8:],      # unknown tag
])
def test_decode_rejects_mutilated_payloads(mutilate):
    encoded = canonical_bytes({"x": np.arange(6, dtype=np.float32)})
    with pytest.raises(ValueError):
        decode_canonical(mutilate(encoded))


def _ndarray_payload(header: dict, data: bytes) -> bytes:
    import json as _json
    header_bytes = _json.dumps(header, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
    return (b"NDARRAY\x00" + len(header_bytes).to_bytes(8, "big")
            + header_bytes + data)


def test_decode_rejects_non_canonical_aliases():
    """Distinct byte strings must never decode to the same payload.

    Hashes bind payloads in this protocol, so the decoder only accepts
    byte strings the encoder itself could have produced: reformatted or
    reordered ndarray headers, wrong strides, big-endian dtypes and
    non-canonical scalar JSON all alias a canonical payload and must be
    rejected.
    """
    import json as _json
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    canonical = canonical_bytes(arr)
    data = arr.tobytes()

    # Same logical header, different JSON formatting.
    loose_header = _json.dumps(
        {"kind": "ndarray", "dtype": "float32", "shape": [2, 3],
         "strides": [12, 4]}, sort_keys=True, separators=(", ", ": "),
    ).encode("utf-8")
    loose = (b"NDARRAY\x00" + len(loose_header).to_bytes(8, "big")
             + loose_header + data)
    assert loose != canonical
    with pytest.raises(ValueError):
        decode_canonical(loose)

    # Wrong strides for the committed shape.
    with pytest.raises(ValueError):
        decode_canonical(_ndarray_payload(
            {"kind": "ndarray", "dtype": "float32", "shape": [2, 3],
             "strides": [4, 8]}, data))

    # Big-endian dtype (the encoder always normalizes to little-endian).
    with pytest.raises(ValueError):
        decode_canonical(_ndarray_payload(
            {"kind": "ndarray", "dtype": ">f4", "shape": [2, 3],
             "strides": [12, 4]}, arr.astype(">f4").tobytes()))

    # Non-canonical scalar JSON (whitespace).
    with pytest.raises(ValueError):
        decode_canonical(b"SCALAR\x00 1")

    # Unsorted map keys.
    good = canonical_bytes({"a": 1, "b": 2})
    swapped = good.replace(b"a", b"\x00").replace(b"b", b"a").replace(b"\x00", b"b")
    assert swapped != good
    with pytest.raises(ValueError):
        decode_canonical(swapped)


# ----------------------------------------------------------------------
# Malformed payloads at the service boundary
# ----------------------------------------------------------------------

_SERVICE_CACHE = {}


def _shared_service(mlp_graph, mlp_thresholds):
    if "service" not in _SERVICE_CACHE:
        from repro.protocol import TAOService
        service = TAOService()
        service.register_model(mlp_graph, threshold_table=mlp_thresholds)
        _SERVICE_CACHE["service"] = service
    return _SERVICE_CACHE["service"]


_BAD_PAYLOADS = st.one_of(
    # wrong input name
    st.just({"not_x": np.zeros((4, 32), dtype=np.float32)}),
    # wrong feature dimension for the traced graph (batch dims may vary;
    # a trailing dim of 1 broadcasts through every kernel, so it is *not*
    # malformed and is excluded)
    hnp.array_shapes(min_dims=1, max_dims=3, max_side=8).filter(
        lambda shape: shape[-1] not in (1, 32)
    ).map(lambda shape: {"x": np.zeros(shape, dtype=np.float32)}),
    # unhashable / unserializable garbage values
    st.sampled_from([object(), {"nested": object()}, object]).map(
        lambda junk: {"x": junk}
    ),
)


@settings(deadline=None, max_examples=25)
@given(_BAD_PAYLOADS)
def test_service_rejects_malformed_payloads_in_isolation(
        mlp_graph, mlp_thresholds, mlp_input_factory, bad_payload):
    """Any malformed payload is rejected without poisoning the batch.

    The good payload uses a fixed seed the committed thresholds are known to
    accept, so the assertion isolates exactly the rejection path.
    """
    service = _shared_service(mlp_graph, mlp_thresholds)
    good = service.submit("tiny_mlp", mlp_input_factory(63))
    bad = service.submit("tiny_mlp", bad_payload)
    service.process()
    assert service.request(good).status == "finalized"
    rejected = service.request(bad)
    assert rejected.status == "rejected"
    assert rejected.report is None  # never reached the coordinator
    assert rejected.error
