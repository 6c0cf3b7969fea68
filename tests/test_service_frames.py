"""Property tests for the binary wire codec (protocol v3).

The codec's whole reason to exist is bit-exactness: every float64 —
subnormals, NaN payloads, ``-0.0``, ``±inf`` — must survive a frame
round trip with its exact bit pattern, something the JSON wire only
achieves for the values JSON can spell.  Hypothesis drives the value
universe; ``struct.pack('>d')`` is the bit-level oracle.  The negative
half of the contract matters just as much: every way a frame can be
damaged — truncation, bit flips, bad magic, future versions, trailing
bytes, unknown tags — must surface as the typed :class:`FrameError`,
never a raw struct/unicode/numpy exception.
"""

import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.frames import (
    BINARY_PROTOCOL_VERSION,
    MAGIC,
    MAX_FRAME_BYTES,
    PREFIX_SIZE,
    FrameError,
    decode_binary_frame,
    encode_binary_frame,
    encode_value,
    parse_prefix,
    read_binary_frame,
)

# Every float64, including NaNs (Hypothesis varies their payloads),
# infinities, signed zeros, and subnormals.
_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    _floats,
    st.text(max_size=20),
    st.binary(max_size=20),
)

# The registry-record-shaped universe: scalars nested in lists and
# str-keyed dicts, the way model records and responses actually look.
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)

_bodies = st.dictionaries(st.text(max_size=8), _values, max_size=6)


def _bits(value: float) -> bytes:
    return struct.pack(">d", value)


def _encoded(value) -> bytes:
    parts = []
    encode_value(value, parts)
    return b"".join(parts)


def _frame_around(payload: bytes, version: int = BINARY_PROTOCOL_VERSION
                  ) -> bytes:
    """A frame with a valid prefix, CRC and terminator around any body
    bytes, so the body decoder itself is what gets tested."""
    return (MAGIC + bytes((version, 0)) + struct.pack(">I", len(payload))
            + payload + struct.pack(">I", zlib.crc32(payload)) + b"\n")


def assert_bit_equal(left, right) -> None:
    """Structural equality with floats compared by bit pattern."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, float):
        assert _bits(left) == _bits(right), (left, right)
    elif isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            assert_bit_equal(left[key], right[key])
    elif isinstance(left, list):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_bit_equal(a, b)
    else:
        assert left == right


class TestRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(_bodies)
    def test_any_body_round_trips_bit_exactly(self, body):
        assert_bit_equal(decode_binary_frame(encode_binary_frame(body)),
                         body)

    @settings(deadline=None, max_examples=200)
    @given(_floats)
    def test_every_float64_is_bit_exact(self, value):
        decoded = decode_binary_frame(
            encode_binary_frame({"x": value}))["x"]
        assert _bits(decoded) == _bits(value)

    @pytest.mark.parametrize("raw", [
        b"\x80\x00\x00\x00\x00\x00\x00\x00",  # -0.0
        b"\x00\x00\x00\x00\x00\x00\x00\x01",  # smallest subnormal
        b"\x7f\xf8\x00\x00\x00\x00\x12\x34",  # NaN with a payload
        b"\xff\xf8\xde\xad\xbe\xef\x00\x01",  # negative NaN, payload
        b"\x7f\xf0\x00\x00\x00\x00\x00\x00",  # +inf
    ])
    def test_adversarial_bit_patterns(self, raw):
        value = struct.unpack(">d", raw)[0]
        decoded = decode_binary_frame(
            encode_binary_frame({"x": value}))["x"]
        assert _bits(decoded) == raw

    @settings(deadline=None, max_examples=50)
    @given(st.dictionaries(st.text(max_size=8), _values, max_size=3))
    def test_trace_travels_in_the_header(self, trace):
        body = {"op": "ping", "trace": trace}
        frame = encode_binary_frame(body)
        decoded = decode_binary_frame(frame)
        if trace is None:
            assert "trace" not in decoded
        else:
            assert_bit_equal(decoded["trace"], trace)
        assert decoded["op"] == "ping"
        # The input dict must not lose its trace to encoding.
        assert body["trace"] is trace

    def test_registry_record_shape(self):
        record = {
            "app": "kmeans", "version": 3, "samples": 20,
            "rates": [1.5, float("nan"), -0.0, 5e-324],
            "meta": {"estimator": "leo", "warm": True, "extra": None},
            "blob": b"\x00\xff", "big": 2 ** 80,
        }
        assert_bit_equal(
            decode_binary_frame(encode_binary_frame(record)), record)

    def test_ndarray_round_trips_bit_exactly(self):
        array = np.array([[1.5, np.nan, -0.0], [np.inf, 5e-324, -2.25]])
        decoded = decode_binary_frame(
            encode_binary_frame({"a": array}))["a"]
        assert decoded.shape == array.shape
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == array.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_floats, max_size=64))
    def test_float_list_round_trips_bit_exactly(self, values):
        assert_bit_equal(
            decode_binary_frame(encode_binary_frame({"x": values}))["x"],
            values)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.lists(_floats, max_size=8), max_size=8))
    def test_nested_float_lists_round_trip(self, rows):
        assert_bit_equal(
            decode_binary_frame(encode_binary_frame({"x": rows}))["x"],
            rows)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(_floats, max_size=16), st.data())
    def test_mixed_lists_round_trip(self, values, data):
        # One non-float item anywhere keeps the per-item encoding.
        other = data.draw(st.one_of(
            st.integers(min_value=-2 ** 70, max_value=2 ** 70),
            st.booleans(), st.none()))
        at = data.draw(st.integers(min_value=0, max_value=len(values)))
        mixed = values[:at] + [other] + values[at:]
        assert_bit_equal(
            decode_binary_frame(encode_binary_frame({"x": mixed}))["x"],
            mixed)

    def test_float_tuple_decodes_as_list(self):
        decoded = decode_binary_frame(
            encode_binary_frame({"x": (1.5, -0.0)}))["x"]
        assert_bit_equal(decoded, [1.5, -0.0])

    @pytest.mark.parametrize("n", [1, 2, 1024])
    def test_float_list_is_packed(self, n):
        # Tag, u32 count, 8 raw bytes per float: no per-item tags.
        values = [float(i) / 3 for i in range(n)]
        encoded = _encoded(values)
        assert len(encoded) == 1 + 4 + 8 * n
        assert encoded[:1] == b"D"

    def test_mixed_list_keeps_item_tags(self):
        assert _encoded([1.5, 2]) == (b"l" + struct.pack(">I", 2)
                                      + b"f" + _bits(1.5)
                                      + b"i" + struct.pack(">q", 2))

    def test_zero_dim_array_keeps_its_shape(self):
        decoded = decode_binary_frame(
            encode_binary_frame({"a": np.array(2.5)}))["a"]
        assert decoded.shape == ()
        assert decoded.dtype == np.float64
        assert decoded.item() == 2.5

    def test_int_array_travels_as_float64(self):
        decoded = decode_binary_frame(
            encode_binary_frame({"a": np.arange(4).reshape(2, 2)}))["a"]
        assert decoded.dtype == np.float64
        assert decoded.tolist() == [[0.0, 1.0], [2.0, 3.0]]


class TestRejection:
    def _frame(self):
        return encode_binary_frame({"op": "ping", "value": 1.5})

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_any_truncation_is_typed(self, data):
        frame = self._frame()
        cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        with pytest.raises(FrameError):
            decode_binary_frame(frame[:cut])

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_any_payload_bit_flip_is_typed(self, data):
        frame = bytearray(self._frame())
        # Corrupt anywhere past the prefix (flipping prefix bytes is
        # covered by the magic/version/length tests).
        offset = data.draw(st.integers(min_value=PREFIX_SIZE,
                                       max_value=len(frame) - 2))
        frame[offset] ^= 0x41
        with pytest.raises(FrameError):
            decode_binary_frame(bytes(frame))

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_binary_frame(b"{" + self._frame()[1:])

    def test_future_version(self):
        frame = bytearray(self._frame())
        frame[1] = BINARY_PROTOCOL_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_binary_frame(bytes(frame))

    def test_version_two_frame_is_typed(self):
        # Version 2 had no packed float lists; it is not decoded.
        frame = bytearray(self._frame())
        frame[1] = 2
        with pytest.raises(FrameError,
                           match="unsupported binary protocol version 2"):
            decode_binary_frame(bytes(frame))

    def test_length_bound(self):
        prefix = MAGIC + bytes((BINARY_PROTOCOL_VERSION, 0)) + \
            struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="bound"):
            parse_prefix(prefix)

    def test_trailing_bytes(self):
        with pytest.raises(FrameError, match="trailing"):
            decode_binary_frame(self._frame() + b"x")

    def test_unknown_tag(self):
        payload = _encoded({"op": "ping"})
        # Splice an unknown tag into an otherwise valid frame body.
        bad = payload[:5] + b"?" + payload[6:]
        with pytest.raises(FrameError):
            decode_binary_frame(_frame_around(bad))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_any_truncation_inside_a_float_list_is_typed(self, data):
        # The count says 4 floats; the body (CRC and length valid for
        # the short body) stops anywhere before the last byte.
        body = _encoded({"x": [1.5, -0.0, 2.25, 5e-324]})
        cut = data.draw(st.integers(min_value=len(body) - 36,
                                    max_value=len(body) - 1))
        with pytest.raises(FrameError, match="truncated"):
            decode_binary_frame(_frame_around(body[:cut]))

    def test_float_list_count_beyond_the_bound_is_typed(self):
        count = MAX_FRAME_BYTES // 8 + 1
        body = (_encoded({"x": 0})[:-9] + b"D" + struct.pack(">I", count)
                + _bits(1.5))
        with pytest.raises(FrameError, match="bound"):
            decode_binary_frame(_frame_around(body))

    @pytest.mark.parametrize("array", [
        np.array([1 + 2j, 3 - 1j]),
        np.array(["a", "b"]),
        np.array([b"x"]),
        np.array([object()], dtype=object),
        np.array(["2020-01-01"], dtype="datetime64[D]"),
    ])
    def test_non_numeric_array_is_typed(self, array):
        with pytest.raises(FrameError, match="dtype"):
            encode_binary_frame({"a": array})

    def test_unencodable_type_is_typed(self):
        with pytest.raises(FrameError, match="not encodable"):
            encode_binary_frame({"x": object()})

    def test_non_str_dict_key_is_typed(self):
        with pytest.raises(FrameError, match="keys must be str"):
            encode_binary_frame({"x": {1: 2}})

    def test_terminator_keeps_v1_readline_alive(self):
        # The escape hatch behind wire negotiation: a JSON-lines peer
        # doing readline() on any binary frame must terminate.
        frame = self._frame()
        assert frame.endswith(b"\n")
        assert io.BytesIO(frame).readline() != b""


class TestStreamReads:
    def test_reads_one_frame_exactly(self):
        frame = encode_binary_frame({"op": "ping"})
        stream = io.BytesIO(frame + b"extra")
        assert read_binary_frame(stream) == frame
        assert stream.read() == b"extra"

    def test_sniffed_first_byte(self):
        frame = encode_binary_frame({"op": "ping"})
        stream = io.BytesIO(frame[1:])
        assert read_binary_frame(stream, first=frame[:1]) == frame

    def test_clean_eof_is_connection_error(self):
        with pytest.raises(ConnectionError):
            read_binary_frame(io.BytesIO(b""))

    def test_mid_frame_eof_is_typed(self):
        frame = encode_binary_frame({"op": "ping"})
        with pytest.raises(FrameError, match="truncated"):
            read_binary_frame(io.BytesIO(frame[:-3]))
