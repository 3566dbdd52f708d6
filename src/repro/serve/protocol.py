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
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

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


class ProtocolError(ValidationError):
    """A malformed request (bad JSON, unknown op, missing fields)."""


def parse_request(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one request line into its dict form (op-checked)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not valid UTF-8: {error}")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
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
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode",
    "error_response",
    "parse_request",
    "response",
]
