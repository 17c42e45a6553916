"""A simulated filesystem over the disk model.

Workload inputs (MRI samples, video frames, astronomical catalogues) are
deterministic pseudo-random files; outputs are written back and can be
asserted byte-for-byte against oracles.  Every read and write charges the
disk timeline, which is what surfaces IORead/IOWrite in the Figure 10
break-down and gives large sequential dumps their bandwidth advantage
(the Figure 9 volume-write effect).
"""

from repro.util.buffers import as_byte_view
from repro.util.errors import IoError


class FileHandle:
    """An open file with a position, in the POSIX style."""

    def __init__(self, fs, path, mode):
        if mode not in ("r", "w", "a"):
            raise IoError(f"unsupported open mode {mode!r}")
        self.fs = fs
        self.path = path
        self.mode = mode
        self.closed = False
        if mode == "w":
            fs._files[path] = bytearray()
        self.position = len(fs._files[path]) if mode == "a" else 0

    def _require_open(self):
        if self.closed:
            raise IoError(f"operation on closed file {self.path!r}")

    def read(self, size):
        """Read up to ``size`` bytes from the current position.

        POSIX permits short reads; an installed fault plan exercises that
        by occasionally delivering only a prefix of the request.  Callers
        that assume full reads — the un-interposed libc path — then lose
        the undelivered tail, exactly the un-restartable-I/O hazard of
        Section 4.4; GMAC's interposed chunked reads resume instead.
        """
        self._require_open()
        if self.mode != "r":
            raise IoError(f"file {self.path!r} not open for reading")
        plan = self.fs.disk.faults
        if plan is not None and plan.enabled:
            size = plan.short_read(size)
        data = self.fs._files[self.path]
        chunk = bytes(data[self.position:self.position + size])  # sanitizer: allow[R002]
        self.position += len(chunk)
        if chunk:
            self.fs.disk.read(len(chunk), label=f"read:{self.path}")
        return chunk

    def write(self, data):
        """Write a bytes-like buffer at the current position, extending
        the file.  The payload is viewed, not copied, on its way into the
        file buffer (zero-copy for memoryview/array sources)."""
        self._require_open()
        if self.mode == "r":
            raise IoError(f"file {self.path!r} not open for writing")
        data = as_byte_view(data)
        length = len(data)
        buffer = self.fs._files[self.path]
        end = self.position + length
        if self.position > len(buffer):
            # Past EOF (another handle truncated the file): zero-fill the
            # gap (sparse-file semantics).
            buffer.extend(bytes(self.position - len(buffer)))
        if self.position == len(buffer):
            # Appending — the common case — extends straight from the
            # view, with no zero-filled temporary.
            buffer += data
        else:
            if end > len(buffer):
                buffer.extend(bytes(end - len(buffer)))
            buffer[self.position:end] = data
        self.position = end
        if length:
            self.fs.disk.write(length, label=f"write:{self.path}")
        return length

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class FileSystem:
    """All files of the simulated machine."""

    def __init__(self, disk):
        self.disk = disk
        self._files = {}

    def create(self, path, data=b""):
        """Create (or truncate) a file with explicit contents."""
        self._files[path] = bytearray(bytes(data))

    def data_of(self, path):
        """The raw bytes of a file (for test assertions; no disk charge)."""
        self._require(path)
        return bytes(self._files[path])  # sanitizer: allow[R002]

    def open(self, path, mode="r"):
        if mode == "r":
            self._require(path)
        elif path not in self._files:
            self._files[path] = bytearray()
        return FileHandle(self, path, mode)

    def _require(self, path):
        if path not in self._files:
            raise IoError(f"no such file: {path!r}")
