"""Fixtures shared by the test modules."""

import pytest

from menuforge import core


@pytest.fixture
def kernel_workers(monkeypatch):
    """``force(count)`` gives the kernel ``count`` workers, whatever the host
    has: it sees ``count`` CPUs and a cap of ``count``, and builds a pool of
    that size on first use; pools built under a forced count are shut down
    when the test ends."""
    outer = core._pool

    def drop_forced():
        if core._pool is not None and core._pool is not outer:
            core._pool.shutdown()

    def force(count):
        drop_forced()
        monkeypatch.setattr(core, "_cpus", lambda: count)
        monkeypatch.setattr(core, "_MAX_WORKERS", count)
        monkeypatch.setattr(core, "_pool", None)

    yield force
    drop_forced()
