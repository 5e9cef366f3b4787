import errno
import os

# BLAS on one thread, as the benchmark runs it, set before anything imports
# numpy; a single-threaded process also lets batch-sweep fork its probe
# worker
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import pytest

import softstep.data


class HalfThenFull:
    """A file handle that writes half of the payload, then hits a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, payload):
        self.handle.write(payload[:len(payload) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def failing_writes(monkeypatch):
    """Every new file softstep.data creates fails halfway through writing."""
    def failing_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return HalfThenFull(handle) if "x" in mode else handle
    monkeypatch.setattr(softstep.data, "open", failing_open, raising=False)
