"""Versioned JSON codec for execution telemetry.

:class:`~repro.core.engine.EpochRecord` and the residual route-cache
diagnostics dict used to travel in ad-hoc shapes — the sweep store's
result metadata and whatever a consumer pickled out of
``EngineHistory``.  This module is
the single codec for both: every wire/disk form carries a ``schema``
version so readers can reject (or migrate) payloads from a different
era, and non-finite floats — legal in records (``mean_efficiency`` is
NaN when efficiency is not computed) but not in strict JSON — are
encoded losslessly.

The serve layer's replay-parity contract also lives here:
:func:`epoch_records_digest` is the canonical digest of a list of
records (hex-float fields, blake2b), shared by the service's mutation
log, the replay checker, and the churn benchmark's parity gate, so
"byte-identical epochs" means the same bytes everywhere.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional

from repro.core.engine import EpochRecord
from repro.util.validation import ValidationError

#: Schema version of the EpochRecord JSON form.
RECORD_SCHEMA_VERSION = 1

#: Schema version of the cache-diagnostics JSON form.
CACHE_SCHEMA_VERSION = 1

#: EpochRecord fields in canonical (digest and JSON) order.
_RECORD_INT_FIELDS = ("epoch", "active_nodes", "rewirings", "linkstate_bits", "routes_stuck")
_RECORD_FLOAT_FIELDS = ("time", "mean_cost", "mean_efficiency", "social_cost")
RECORD_FIELDS = (
    "epoch",
    "time",
    "active_nodes",
    "rewirings",
    "mean_cost",
    "mean_efficiency",
    "social_cost",
    "linkstate_bits",
    "routes_stuck",
)

#: Counters every cache-diagnostics payload carries.
CACHE_FIELDS = ("hits", "misses", "repairs", "restamps", "entries", "hit_rate")


def encode_float(value: float):
    """A float as a strict-JSON value (NaN/±inf become tagged strings)."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def decode_float(value) -> float:
    """Inverse of :func:`encode_float`."""
    if isinstance(value, str):
        if value == "nan":
            return float("nan")
        if value == "inf":
            return float("inf")
        if value == "-inf":
            return float("-inf")
        raise ValidationError(f"malformed encoded float {value!r}")
    return float(value)


def _check_schema(data: Dict[str, object], expected: int, what: str) -> None:
    schema = data.get("schema")
    if schema != expected:
        raise ValidationError(
            f"{what} payload has schema {schema!r}; this codec reads version {expected}"
        )


def epoch_record_to_json(record: EpochRecord) -> Dict[str, object]:
    """The canonical JSON form of one :class:`EpochRecord`."""
    payload: Dict[str, object] = {"schema": RECORD_SCHEMA_VERSION}
    for name in _RECORD_INT_FIELDS:
        payload[name] = int(getattr(record, name))
    for name in _RECORD_FLOAT_FIELDS:
        payload[name] = encode_float(getattr(record, name))
    return payload


def epoch_record_from_json(data: Dict[str, object]) -> EpochRecord:
    """Inverse of :func:`epoch_record_to_json` (schema-checked)."""
    _check_schema(data, RECORD_SCHEMA_VERSION, "EpochRecord")
    missing = set(RECORD_FIELDS) - set(data)
    if missing:
        raise ValidationError(f"EpochRecord payload is missing fields {sorted(missing)}")
    kwargs: Dict[str, object] = {}
    try:
        for name in _RECORD_INT_FIELDS:
            kwargs[name] = int(data[name])
        for name in _RECORD_FLOAT_FIELDS:
            kwargs[name] = decode_float(data[name])
    except (TypeError, ValueError) as error:
        raise ValidationError(f"malformed EpochRecord payload: {error}")
    return EpochRecord(**kwargs)


def cache_stats_to_json(stats: Dict[str, float]) -> Dict[str, object]:
    """The canonical JSON form of a route-cache diagnostics dict.

    Accepts any dict holding (at least) :data:`CACHE_FIELDS` — both
    :meth:`ResidualRouteCache.stats` and the batch/session aggregates —
    and passes extra numeric keys through, so aggregate payloads stay
    self-describing.  The plain counter keys stay top-level: consumers
    read them by name.
    """
    payload: Dict[str, object] = {"schema": CACHE_SCHEMA_VERSION}
    for name in CACHE_FIELDS:
        if name not in stats:
            raise ValidationError(f"cache diagnostics are missing counter {name!r}")
    for name, value in stats.items():
        if name == "schema":
            continue
        payload[name] = encode_float(value)
    return payload


def epoch_record_digest(records: Iterable[EpochRecord]) -> str:
    """Canonical digest of a sequence of records.

    Hex-float formatting makes the digest exact: two runs agree iff
    every float of every record is bit-identical, which is precisely
    the serve/replay (and fused/sequential) parity contract.
    """
    parts: List[str] = []
    for record in records:
        fields = []
        for name in RECORD_FIELDS:
            value = getattr(record, name)
            if isinstance(value, float):
                fields.append(float(value).hex())
            else:
                fields.append(str(int(value)))
        parts.append("|".join(fields))
    payload = ";".join(parts).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def history_digest(records: Iterable[EpochRecord]) -> str:
    """Alias of :func:`epoch_record_digest` for whole-history callers."""
    return epoch_record_digest(records)


__all__ = [
    "CACHE_FIELDS",
    "CACHE_SCHEMA_VERSION",
    "RECORD_FIELDS",
    "RECORD_SCHEMA_VERSION",
    "cache_stats_to_json",
    "decode_float",
    "encode_float",
    "epoch_record_digest",
    "epoch_record_from_json",
    "epoch_record_to_json",
    "history_digest",
]
