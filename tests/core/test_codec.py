"""The versioned EpochRecord/cache-diagnostics codec."""

import math

import pytest

from repro.core.codec import (
    CACHE_SCHEMA_VERSION,
    RECORD_SCHEMA_VERSION,
    cache_stats_to_json,
    decode_float,
    encode_float,
    epoch_record_digest,
    epoch_record_from_json,
    epoch_record_to_json,
)
from repro.core.engine import EpochRecord
from repro.util.validation import ValidationError


def _record(epoch=0, mean_cost=12.5, mean_efficiency=float("nan")):
    return EpochRecord(
        epoch=epoch,
        time=60.0 * (epoch + 1),
        active_nodes=10,
        rewirings=3,
        mean_cost=mean_cost,
        mean_efficiency=mean_efficiency,
        social_cost=125.0,
        linkstate_bits=4096,
        routes_stuck=1,
    )


class TestFloatCodec:
    def test_finite_values_pass_through(self):
        assert encode_float(1.5) == 1.5
        assert decode_float(1.5) == 1.5

    def test_non_finite_round_trip(self):
        for value, encoded in ((float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")):
            assert encode_float(value) == encoded
            decoded = decode_float(encoded)
            assert math.isnan(decoded) if encoded == "nan" else decoded == value

    def test_malformed_string_rejected(self):
        with pytest.raises(ValidationError):
            decode_float("bogus")


class TestRecordCodec:
    def test_round_trip(self):
        record = _record()
        data = epoch_record_to_json(record)
        assert data["schema"] == RECORD_SCHEMA_VERSION
        back = epoch_record_from_json(data)
        assert back.epoch == record.epoch
        assert back.mean_cost == record.mean_cost
        assert math.isnan(back.mean_efficiency)

    def test_nan_efficiency_is_json_safe(self):
        import json

        data = epoch_record_to_json(_record())
        # Strict JSON: the payload must survive allow_nan=False.
        json.dumps(data, allow_nan=False)
        assert data["mean_efficiency"] == "nan"

    def test_schema_checked(self):
        data = epoch_record_to_json(_record())
        data["schema"] = 99
        with pytest.raises(ValidationError):
            epoch_record_from_json(data)

    def test_missing_field_rejected(self):
        data = epoch_record_to_json(_record())
        del data["social_cost"]
        with pytest.raises(ValidationError):
            epoch_record_from_json(data)


class TestCacheCodec:
    STATS = {
        "hits": 10.0,
        "misses": 4.0,
        "repairs": 2.0,
        "restamps": 1.0,
        "entries": 8.0,
        "hit_rate": 10.0 / 14.0,
    }

    def test_round_trip(self):
        data = cache_stats_to_json(self.STATS)
        assert data["schema"] == CACHE_SCHEMA_VERSION
        decoded = {name: decode_float(v) for name, v in data.items() if name != "schema"}
        assert decoded == self.STATS

    def test_missing_key_rejected(self):
        broken = dict(self.STATS)
        del broken["repairs"]
        with pytest.raises(ValidationError):
            cache_stats_to_json(broken)


class TestDigest:
    def test_deterministic_and_order_sensitive(self):
        records = [_record(0), _record(1, mean_cost=13.0)]
        assert epoch_record_digest(records) == epoch_record_digest(records)
        assert epoch_record_digest(records) != epoch_record_digest(records[::-1])

    def test_sensitive_to_every_float_bit(self):
        base = epoch_record_digest([_record()])
        nudged = epoch_record_digest([_record(mean_cost=12.5 + 1e-15)])
        assert base != nudged

    def test_nan_efficiency_digestable(self):
        assert epoch_record_digest([_record(mean_efficiency=float("nan"))])
