"""Tests for overhead accounting (Section 4.3 formulas)."""

import pytest

from repro.core.overhead import (
    coordinate_measurement_rate_bps,
    egoist_monitored_links,
    fullmesh_monitored_links,
    linkstate_rate_bps,
    overhead_report,
    ping_measurement_rate_bps,
)
from repro.util.validation import ValidationError


class TestFormulas:
    def test_ping_rate_paper_configuration(self):
        # n = 50, k = 5, T = 60 s: (50 - 5 - 1) * 320 / 60 = 234.67 bps.
        assert ping_measurement_rate_bps(50, 5, 60.0) == pytest.approx(
            (50 - 5 - 1) * 320 / 60.0
        )

    def test_ping_rate_zero_when_fully_meshed(self):
        assert ping_measurement_rate_bps(10, 9, 60.0) == 0.0

    def test_coordinate_rate(self):
        # (320 + 32 * 50) / 60 = 32 bps for the paper's deployment.
        assert coordinate_measurement_rate_bps(50, 60.0) == pytest.approx(
            (320 + 32 * 50) / 60.0
        )

    def test_coordinate_cheaper_than_ping_for_large_n(self):
        assert coordinate_measurement_rate_bps(200, 60.0) < ping_measurement_rate_bps(
            200, 5, 60.0
        )

    def test_linkstate_rate(self):
        # k = 5 neighbours announced every 20 s -> (192 + 32*5)/20 = 17.6 bps.
        assert linkstate_rate_bps(5, 20.0) == pytest.approx((192 + 32 * 5) / 20.0)

    def test_linkstate_rate_scales_with_k(self):
        assert linkstate_rate_bps(8, 20.0) > linkstate_rate_bps(2, 20.0)

    def test_linkstate_rate_invalid_interval(self):
        with pytest.raises(ValidationError):
            linkstate_rate_bps(5, 0.0)

    def test_monitored_links(self):
        assert egoist_monitored_links(50, 5) == 250
        assert fullmesh_monitored_links(50) == 2450

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            ping_measurement_rate_bps(50, 5, 0.0)
        with pytest.raises(ValidationError):
            linkstate_rate_bps(-1, 20.0)
        with pytest.raises(ValidationError):
            fullmesh_monitored_links(0)


class TestReport:
    def test_report_fields(self):
        report = overhead_report(50, 5)
        assert report.ping_bps > 0
        assert report.linkstate_bps > 0

    def test_scalability_gain_scales_inversely_with_k(self):
        gain_k2 = overhead_report(50, 2).scalability_gain
        gain_k8 = overhead_report(50, 8).scalability_gain
        assert gain_k2 > gain_k8
        assert gain_k2 == pytest.approx(49 / 2)

    def test_overheads_are_tiny(self):
        """The paper's point: total maintenance traffic is a few hundred bps."""
        report = overhead_report(50, 5)
        assert report.ping_bps + report.linkstate_bps < 1000.0
