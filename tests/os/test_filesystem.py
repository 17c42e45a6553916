"""The simulated filesystem over the disk model."""

import pytest

from repro.util.errors import IoError
from repro.os.filesystem import FileSystem
from repro.hw.disk import Disk
from repro.hw.specs import COMMODITY_DISK
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def fs(clock):
    return FileSystem(Disk(COMMODITY_DISK, clock))


class TestFiles:
    def test_create_and_read(self, fs):
        fs.create("a.txt", b"hello")
        with fs.open("a.txt") as handle:
            assert handle.read(5) == b"hello"

    def test_read_past_end_truncates(self, fs):
        fs.create("a.txt", b"hi")
        with fs.open("a.txt") as handle:
            assert handle.read(100) == b"hi"
            assert handle.read(10) == b""

    def test_sequential_reads_advance(self, fs):
        fs.create("a.txt", b"abcdef")
        with fs.open("a.txt") as handle:
            assert handle.read(2) == b"ab"
            assert handle.read(2) == b"cd"
            assert handle.position == 4

    def test_write_mode_truncates(self, fs):
        fs.create("a.txt", b"old contents")
        with fs.open("a.txt", "w") as handle:
            handle.write(b"new")
        assert fs.data_of("a.txt") == b"new"

    def test_append_mode(self, fs):
        fs.create("a.txt", b"one")
        with fs.open("a.txt", "a") as handle:
            handle.write(b"two")
        assert fs.data_of("a.txt") == b"onetwo"

    def test_write_extends_with_zeros(self, fs):
        with fs.open("b.bin", "w") as handle:
            handle.position = 4
            handle.write(b"x")
        assert fs.data_of("b.bin") == b"\x00\x00\x00\x00x"

    def test_missing_file(self, fs):
        with pytest.raises(IoError):
            fs.open("nope")
        with pytest.raises(IoError):
            fs.data_of("nope")

    def test_mode_enforcement(self, fs):
        fs.create("a.txt", b"x")
        with pytest.raises(IoError):
            fs.open("a.txt").write(b"y")
        with pytest.raises(IoError):
            fs.open("a.txt", "w").read(1)
        with pytest.raises(IoError):
            fs.open("a.txt", "rw")

    def test_closed_handle(self, fs):
        fs.create("a.txt", b"x")
        handle = fs.open("a.txt")
        handle.close()
        with pytest.raises(IoError):
            handle.read(1)


class TestTiming:
    def test_reads_charge_disk_time(self, clock, fs):
        fs.create("a.bin", bytes(1024 * 1024))
        with fs.open("a.bin") as handle:
            handle.read(1024 * 1024)
        assert clock.now == pytest.approx(
            COMMODITY_DISK.read_seconds(1024 * 1024)
        )

    def test_writes_charge_disk_time(self, clock, fs):
        with fs.open("a.bin", "w") as handle:
            handle.write(bytes(1024 * 1024))
        assert clock.now == pytest.approx(
            COMMODITY_DISK.write_seconds(1024 * 1024)
        )

    def test_data_of_is_free(self, clock, fs):
        fs.create("a.bin", bytes(4096))
        fs.data_of("a.bin")
        assert clock.now == 0.0

    def test_empty_read_is_free(self, clock, fs):
        fs.create("a.bin", b"")
        fs.open("a.bin").read(10)
        assert clock.now == 0.0
