"""Unit tests for repro.common.units."""

import pytest

from repro.common import units
from repro.common.units import (
    GIB,
    KIB,
    MIB,
    MSEC,
    USEC,
    format_bytes,
    format_time,
)


class TestSizes:
    def test_binary_ladder(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB
        assert units.TIB == 1024 * GIB


class TestBandwidth:
    def test_gbps_is_bytes_per_second(self):
        assert units.gbps(8) == pytest.approx(1e9)


class TestFormatBytes:
    def test_plain_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(1536) == "1.5 KiB"

    def test_mib(self):
        assert format_bytes(3 * MIB) == "3.0 MiB"

    def test_huge(self):
        assert "TiB" in format_bytes(5 * units.TIB)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatTime:
    def test_zero(self):
        assert format_time(0) == "0 s"

    def test_nanoseconds(self):
        assert format_time(500e-9) == "500.0 ns"

    def test_microseconds(self):
        assert format_time(12.3 * USEC) == "12.3 us"

    def test_milliseconds(self):
        assert format_time(4 * MSEC) == "4.0 ms"

    def test_seconds(self):
        assert format_time(2.5) == "2.500 s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_time(-1.0)
