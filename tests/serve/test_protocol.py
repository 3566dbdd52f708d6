"""The newline-delimited JSON wire format."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve.protocol import (
    MAX_DEPTH,
    OPS,
    ProtocolError,
    decode_reply,
    encode,
    encode_request,
    error_response,
    parse_request,
    recover_request_id,
    response,
)
from repro.util.validation import ValidationError


class TestParseRequest:
    def test_accepts_every_op(self):
        for op in OPS:
            assert parse_request(json.dumps({"op": op}))["op"] == op

    def test_accepts_bytes(self):
        assert parse_request(b'{"op": "stats"}')["op"] == "stats"

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            parse_request(b"{nope")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            parse_request(b'["lookup"]')

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            parse_request(b'{"op": "teleport"}')

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError):
            parse_request(b'{"src": 1}')

    def test_rejects_non_scalar_id(self):
        with pytest.raises(ProtocolError):
            parse_request(b'{"op": "stats", "id": {"nested": true}}')

    def test_rejects_non_utf8(self):
        with pytest.raises(ProtocolError):
            parse_request(b'\xff\xfe{"op": "stats"}')


def _nested(depth: int) -> bytes:
    """A stats request whose ``x`` field nests ``depth - 1`` arrays."""
    return b'{"op":"stats","x":' + b"[" * (depth - 1) + b"]" * (depth - 1) + b"}"


class TestStrictParse:
    """What the strict (RFC 8259) decoder refuses, and what it keeps."""

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op":"stats","x":NaN}',
            b'{"op":"stats","x":Infinity}',
            b'{"op":"stats","x":-Infinity}',
            b'{"op":"stats","x":1e999}',
            b'{"op":"stats","x":"\\ud800"}',
            '{"op":"stats","x":"\ud800"}',
            b'\xef\xbb\xbf{"op":"stats"}',
            _nested(MAX_DEPTH + 1),
            b"[" * 100_000,
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=[
            "nan",
            "infinity",
            "-infinity",
            "double-overflow",
            "lone-surrogate-escape",
            "lone-surrogate-str",
            "utf8-bom",
            "too-deep",
            "deep-unterminated",
            "deep-balanced",
        ],
    )
    def test_refused_at_parse(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_nesting_up_to_the_limit_parses(self):
        assert parse_request(_nested(MAX_DEPTH))["op"] == "stats"

    def test_brackets_inside_strings_are_not_nesting(self):
        deep_text = "[" * (2 * MAX_DEPTH) + '\\"' + "]" * (2 * MAX_DEPTH)
        line = ('{"op":"stats","x":"' + deep_text + '"}').encode()
        assert parse_request(line)["x"] == json.loads(line)["x"]

    def test_integers_beyond_64_bits_decode_as_floats(self):
        assert parse_request(b'{"op":"stats","id":18446744073709551615}')["id"] == 2**64 - 1
        with pytest.raises(ProtocolError, match="id"):
            parse_request(b'{"op":"stats","id":18446744073709551616}')

    def test_duplicate_keys_keep_the_last(self):
        assert parse_request(b'{"op":"teleport","op":"stats"}')["op"] == "stats"


class TestRecoverRequestId:
    @pytest.mark.parametrize(
        "line, expected",
        [
            (b'{"op":"lookup","src":1e999,"id":4}\n', 4),
            (b'{"id":"x","op":NaN}', "x"),
            (b'{"op":"teleport","id":3}', 3),
            (b'{"op":"stats","id":[1]}', None),
            (b'[1,2]', None),
            (b"{nope", None),
            (b"\xff\xfe", None),
            (b"[" * 100_000 + b"\n", None),
            (b"[" * 100_000 + b"]" * 100_000 + b"\n", None),
        ],
    )
    def test_best_effort_and_never_raises(self, line, expected):
        assert recover_request_id(line) == expected


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_KEYS = st.text(max_size=8) | _INT64
_SCALARS = (
    st.none()
    | st.booleans()
    | _INT64
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)


def _containers(children, keys=_KEYS):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    )


_ASCII = st.text(alphabet=st.characters(max_codepoint=0x7E), max_size=12)


_JSON_LIKE = st.recursive(_SCALARS, _containers, max_leaves=16)
_MESSAGES = st.dictionaries(_KEYS, _JSON_LIKE, max_size=6)


def _poisoned(children):
    """A container holding ``children`` (at least one non-finite float)."""
    around = st.lists(_JSON_LIKE, max_size=2)
    return st.tuples(around, children, around).map(
        lambda parts: parts[0] + [parts[1]] + parts[2]
    ) | st.tuples(st.dictionaries(_KEYS, _JSON_LIKE, max_size=2), _KEYS, children).map(
        lambda parts: {**parts[0], parts[1]: parts[2]}
    )


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_POISONED_MESSAGES = st.recursive(_NON_FINITE, _poisoned, max_leaves=4).map(
    lambda value: {"op": "mutate", "epoch": value}
)


def _assert_same(left, right):
    """``==``, and floats equal to the bit (so ``-0.0`` is not ``0.0``)."""
    assert type(left) is type(right)
    if isinstance(left, float):
        assert struct.pack("<d", left) == struct.pack("<d", right)
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            _assert_same(left[key], right[key])
    elif isinstance(left, list):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_same(a, b)
    else:
        assert left == right


def _stdlib_request_line(message) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


class TestCodecEquivalence:
    """orjson on the wire reads and writes what the stdlib would."""

    @settings(max_examples=200, deadline=None)
    @given(_MESSAGES)
    @example({"op": "mutate", "epoch": -0.0, 7: [1e16, 1e-05, 5e-324]})
    def test_request_line_decodes_as_the_stdlib_line(self, message):
        line = encode_request(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        _assert_same(json.loads(line), json.loads(_stdlib_request_line(message)))

    @settings(max_examples=200, deadline=None)
    @given(_MESSAGES)
    @example({"values": [-0.0, 0.0, 1.7976931348623157e308, 5e-324, None]})
    def test_reply_decoder_matches_the_stdlib_to_the_bit(self, message):
        line = encode(message)
        _assert_same(decode_reply(line), json.loads(line))

    @settings(max_examples=100, deadline=None)
    @given(_POISONED_MESSAGES)
    def test_non_finite_floats_are_refused(self, message):
        with pytest.raises(ValidationError, match="NaN or an infinite"):
            encode_request(message)

    @settings(max_examples=100, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | _INT64 | _ASCII,
            lambda children: _containers(children, _ASCII | _INT64),
            max_leaves=16,
        ).map(lambda value: {"op": "lookup", "id": 1, "x": value})
    )
    def test_ascii_request_lines_are_byte_identical(self, message):
        assert encode_request(message) == _stdlib_request_line(message)

    def test_float_subclasses_encode_as_floats(self):
        message = {"op": "mutate", "scale": np.float64(2.5)}
        assert encode_request(message) == _stdlib_request_line(message)
        with pytest.raises(ValidationError):
            encode_request({"op": "mutate", "scale": np.float64("nan")})

    def test_unserializable_values_still_raise_type_error(self):
        with pytest.raises(TypeError):
            encode_request({"op": "lookup", "src": np.int64(3)})

    def test_null_without_non_finite_floats_is_sent(self):
        message = {"op": "lookup_batch", "engine": "null", "x": None}
        assert encode_request(message) == _stdlib_request_line(message)

    def test_reply_decoder_refuses_non_objects_and_bad_json(self):
        with pytest.raises(ValidationError, match="non-object"):
            decode_reply(b"[1]\n")
        with pytest.raises(ValidationError, match="invalid JSON"):
            decode_reply(b'{"ok":NaN}\n')


class TestEncode:
    def test_newline_framed_compact_json(self):
        line = encode({"ok": True, "value": 1.5})
        assert line.endswith(b"\n")
        assert b" " not in line
        assert json.loads(line) == {"ok": True, "value": 1.5}

    def test_rejects_non_finite_floats(self):
        # Non-finite values must be folded through the codec upstream.
        with pytest.raises(ValueError):
            encode({"ok": True, "value": float("nan")})


class TestResponses:
    def test_response_echoes_id(self):
        assert response(7, value=1) == {"ok": True, "id": 7, "value": 1}
        assert response(None, value=1) == {"ok": True, "value": 1}

    def test_error_response(self):
        message = error_response("abc", "bad-request", "nope")
        assert message == {
            "ok": False,
            "error": "bad-request",
            "message": "nope",
            "id": "abc",
        }
