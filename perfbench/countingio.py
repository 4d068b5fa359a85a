"""A pass-through store IO backend that counts what the store layer does.

Every durable write, fsync, rename and payload read of ``repro.store``
goes through the installed :class:`repro.faults.StoreIO`; installing a
:class:`CountingIO` with :func:`repro.faults.install` counts those
operations without changing a byte on disk.
"""

from __future__ import annotations

from repro.faults import StoreIO


class CountingIO(StoreIO):
    """The real :class:`StoreIO`, plus operation and byte counters."""

    def __init__(self) -> None:
        self.write_ops = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.renames = 0
        self.read_checks = 0

    def write_bytes(self, path: str, data: bytes) -> None:
        self.write_ops += 1
        self.bytes_written += len(data)
        super().write_bytes(path, data)

    def fsync_file(self, path: str) -> None:
        self.fsyncs += 1
        super().fsync_file(path)

    def fsync_dir(self, path: str) -> None:
        self.fsyncs += 1
        super().fsync_dir(path)

    def replace(self, src: str, dst: str) -> None:
        self.renames += 1
        super().replace(src, dst)

    def check_read(self, path: str) -> None:
        self.read_checks += 1
        super().check_read(path)
