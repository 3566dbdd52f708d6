"""The newline-delimited JSON protocol of the live overlay service.

One request per line, one JSON object per request; the server answers
with one JSON object per line.  Responses echo the request's ``id`` (if
any) and carry ``ok``; subscription events are pushed lines without an
``id``, tagged with an ``event`` key instead, so a client multiplexing
requests and a subscription on one connection can tell them apart.

Requests::

    {"op": "lookup", "src": 3, "dst": 17, "path": true, "engine": "..."}
    {"op": "lookup_batch", "pairs": [[3, 17], [4, 9]], "engine": "..."}
    {"op": "mutate", "mutation": {"kind": "leave", "nodes": [5]}}
    {"op": "step"}
    {"op": "subscribe"}
    {"op": "snapshot"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "shutdown"}

Every lookup answer is version-stamped (``epoch``, ``version``) so a
read served between a mutation being accepted and its epoch committing
is attributable to a specific overlay state — the stale-read discipline
the session-control API is designed against.

This module is the only one that knows the wire codec.  Lines are read
with orjson, strict RFC 8259 both ways: :func:`parse_request` on the
server, :func:`decode_reply` on the client.  Response lines are written
by the stdlib encoder (:func:`encode`) and request lines by orjson
(:func:`encode_request`), each byte-identical to compact
``json.dumps`` output for the messages the protocol defines.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Optional, Union

import numpy as np
import orjson

from repro.util.validation import ValidationError

#: Protocol schema version, reported by ``snapshot`` and ``stats``.
PROTOCOL_VERSION = 1

#: Operations a request may name.
OPS = (
    "lookup",
    "lookup_batch",
    "mutate",
    "step",
    "subscribe",
    "snapshot",
    "stats",
    "metrics",
    "shutdown",
)

#: Maximum accepted request line, to bound a rogue client's memory use.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Deepest array/object nesting a line may carry.  orjson's parser
#: recurses on the C stack once per level, so an unbounded depth crashes
#: the process instead of raising; every message here nests at most four
#: levels.
MAX_DEPTH = 1024


class ProtocolError(ValidationError):
    """A malformed request (bad JSON, unknown op, missing fields)."""


#: A JSON string literal, escapes included; one left open runs to the end
#: of the line (a parser finds no structure there either), so every match
#: succeeds and the scan stays linear.
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?', re.S)
#: Maps ``[``/``{`` to +1 and ``]``/``}`` to -1 (as int8) ...
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
#: ... after every other byte is deleted.
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[]{}")))


def _too_deep(line: bytes) -> bool:
    """Whether ``line`` opens more than :data:`MAX_DEPTH` nested levels.

    Depth never exceeds the count of opening brackets, so a line with few
    of them (a 512-pair ``lookup_batch`` has 514) costs two ``count``
    calls.  Otherwise the running depth of the brackets outside string
    literals is scanned, as a parser would descend through them.
    """
    if line.count(b"[") + line.count(b"{") <= MAX_DEPTH:
        return False
    steps = _STRING.sub(b"", line).translate(_DEPTH_STEPS, _NOT_BRACKET)
    depth = np.cumsum(np.frombuffer(steps, dtype=np.int8), dtype=np.int64)
    return int(depth.max(initial=0)) > MAX_DEPTH


def _loads(line: Union[str, bytes]) -> object:
    """Strict JSON of one line (``ValueError`` if it is not)."""
    if isinstance(line, str):
        line = line.encode("utf-8", "surrogatepass")
    if _too_deep(line):
        raise ValueError(f"nesting deeper than {MAX_DEPTH} levels")
    return orjson.loads(line)


def parse_request(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one request line into its dict form (op-checked)."""
    try:
        request = _loads(line)
    except ValueError as error:
        raise ProtocolError(f"request is not valid JSON: {error}")
    if not isinstance(request, dict):
        raise ProtocolError(
            f"a request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(OPS)}")
    request_id = request.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("request id must be a string or integer")
    return request


def recover_request_id(line: Union[str, bytes]) -> Optional[Union[str, int]]:
    """Best-effort ``id`` of a request that failed parsing or handling.

    A client pipelining by id deserves the echo even on a bad request,
    so this reads leniently where :func:`parse_request` is strict: a line
    refused only for a ``NaN``/``Infinity``/``1e999`` token still has
    its id.  A line that is not a JSON object at all has none.  Never
    raises (the stdlib decoder refuses deep nesting with
    ``RecursionError``, which is caught here too).
    """
    try:
        request = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if isinstance(request, dict) and isinstance(request.get("id"), (str, int)):
        return request["id"]
    return None


def decode_reply(line: bytes) -> Dict[str, object]:
    """One server line (a response or an event) as a dict, strict JSON."""
    try:
        reply = _loads(line)
    except ValueError as error:
        raise ValidationError(f"server sent invalid JSON: {error}")
    if not isinstance(reply, dict):
        raise ValidationError("server sent a non-object line")
    return reply


#: Request lines: ``json.dumps``'s str-conversion of int keys, plus the
#: newline framing.
_REQUEST_OPTIONS = orjson.OPT_NON_STR_KEYS | orjson.OPT_APPEND_NEWLINE


def _float_subclass(value: object) -> float:
    """orjson's fallback: floats of a subclass (NumPy's ``float64``), as
    ``json.dumps`` writes them; anything else is not JSON."""
    if isinstance(value, float):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _non_finite(value: object) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(key) or _non_finite(item) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return any(_non_finite(item) for item in value)
    return False


def encode_request(message: Dict[str, object]) -> bytes:
    """One request line: compact JSON plus the newline framing.

    Byte-identical to ``json.dumps(message, separators=(",", ":"))`` for
    ints, strings below DEL and nested containers (DEL and non-ASCII
    text go out as raw UTF-8 rather than ``\\u`` escapes, and floats in
    their shortest form, ``1e16`` for ``1e+16``; both decode the same).
    orjson writes ``null`` for a non-finite float, which would read as
    an omitted field (``epoch=nan`` as "the next epoch"), so a message
    carrying one raises :class:`ValidationError` instead; the walk that
    finds it runs only when ``null`` is in the line.
    """
    line = orjson.dumps(message, default=_float_subclass, option=_REQUEST_OPTIONS)
    if b"null" in line and _non_finite(message):
        raise ValidationError("a request cannot carry NaN or an infinite float")
    return line


#: The one JSON writer of response lines (``json.dumps``'s settings).
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


class EncodedValues(list):
    """A ``lookup_batch`` answer's values, carrying their own JSON text.

    In process it is the plain list of floats (None when unreachable);
    :attr:`json` is the same list as compact JSON, joined from the
    per-epoch value tokens the service keeps, so :func:`encode` splices
    it instead of formatting every float again.
    """

    __slots__ = ("json",)


def encode(message: Dict[str, object]) -> bytes:
    """One response/event line: compact JSON plus the newline framing.

    Strict JSON (``allow_nan=False``): non-finite floats must have been
    mapped through :func:`repro.core.codec.encode_float` upstream, and a
    leak is a bug worth raising on rather than emitting unparseable
    ``NaN`` tokens.  A message whose ``values`` are :class:`EncodedValues`
    gets their text spliced in; the line is byte-identical to encoding
    them as a plain list.
    """
    values = message.get("values")
    if type(values) is not EncodedValues:
        return (_ENCODER.encode(message) + "\n").encode()
    fields = ",".join(
        f"{_ENCODER.encode(key)}:"
        + (values.json if key == "values" else _ENCODER.encode(value))
        for key, value in message.items()
    )
    return ("{" + fields + "}\n").encode()


def response(
    request_id: Optional[object] = None, **fields: object
) -> Dict[str, object]:
    """A success response (``ok`` true, request ``id`` echoed)."""
    message: Dict[str, object] = {"ok": True}
    if request_id is not None:
        message["id"] = request_id
    message.update(fields)
    return message


def error_response(
    request_id: Optional[object], code: str, message: str
) -> Dict[str, object]:
    """An error response carrying a machine-readable ``code``."""
    payload: Dict[str, object] = {"ok": False, "error": code, "message": message}
    if request_id is not None:
        payload["id"] = request_id
    return payload


__all__ = [
    "EncodedValues",
    "MAX_DEPTH",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_reply",
    "encode",
    "encode_request",
    "error_response",
    "parse_request",
    "recover_request_id",
    "response",
]
