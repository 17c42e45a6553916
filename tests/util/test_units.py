"""Unit helpers: size and time rendering."""

import pytest

from repro.util.units import KB, MB, GB, format_size, format_time


class TestFormatSize:
    def test_exact_units(self):
        assert format_size(4 * KB) == "4KB"
        assert format_size(32 * MB) == "32MB"
        assert format_size(2 * GB) == "2GB"

    def test_small_bytes(self):
        assert format_size(123) == "123B"

    def test_non_exact_uses_decimal(self):
        assert format_size(1536 * KB) == "1.5MB"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_size(-5)


class TestFormatTime:
    def test_seconds(self):
        assert format_time(1.5) == "1.500s"

    def test_milliseconds(self):
        assert format_time(0.0042) == "4.200ms"

    def test_microseconds(self):
        assert format_time(3.5e-6) == "3.500us"

    def test_nanoseconds(self):
        assert format_time(2e-9) == "2.0ns"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_time(-1e-3)
