"""Tests for repro.units conversions and formatting."""

import pytest
from hypothesis import given, strategies as st

from repro import units

class TestConversions:
    def test_mhz(self):
        assert units.mhz(1410) == 1.41e9

    def test_ghz(self):
        assert units.ghz(2.0) == 2.0e9

    def test_hz_to_mhz_roundtrip(self):
        assert units.hz_to_mhz(units.mhz(1700)) == pytest.approx(1700)

    def test_joules_to_megajoules(self):
        assert units.joules_to_megajoules(12.5e6) == pytest.approx(12.5)

    def test_minutes(self):
        assert units.minutes(1.5) == 90

    def test_hours(self):
        assert units.hours(2) == 7200


class TestFormatting:
    def test_format_energy_mj(self):
        assert units.format_energy(24.4e6) == "24.4 MJ"

    def test_format_energy_j(self):
        assert units.format_energy(3.0) == "3 J"

    def test_format_power_w(self):
        assert units.format_power(560.0) == "560 W"

    def test_format_power_mw(self):
        assert units.format_power(0.25) == "250 mW"

    def test_format_zero(self):
        assert units.format_energy(0.0) == "0 J"

    def test_format_negative(self):
        assert units.format_si(-1500, "J") == "-1.5 kJ"

    def test_format_nan(self):
        assert "nan" in units.format_energy(float("nan"))

    def test_format_tiny_uses_smallest_prefix(self):
        assert units.format_si(2e-10, "J").endswith("nJ")

    def test_format_duration_seconds(self):
        assert units.format_duration(12.0) == "12 s"

    def test_format_duration_minutes(self):
        assert units.format_duration(125.0) == "0:02:05.0"

    def test_format_duration_hours(self):
        assert units.format_duration(3725.5) == "1:02:05.5"

    def test_format_duration_negative(self):
        assert units.format_duration(-61.0).startswith("-")

    @given(st.floats(min_value=1e-9, max_value=1e13, allow_nan=False))
    def test_format_si_always_parses_back(self, value):
        text = units.format_si(value, "J", precision=12)
        number, prefixed_unit = text.split(" ")
        factor = {
            "TJ": 1e12, "GJ": 1e9, "MJ": 1e6, "kJ": 1e3, "J": 1.0,
            "mJ": 1e-3, "uJ": 1e-6, "nJ": 1e-9,
        }[prefixed_unit]
        assert float(number) * factor == pytest.approx(value, rel=1e-9)
