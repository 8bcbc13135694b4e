"""Fixtures shared by the test modules."""

import pytest

from menuforge import core


@pytest.fixture
def kernel_workers(monkeypatch):
    """``force(count)`` gives the kernel ``count`` workers, whatever the host
    has: it sees ``count`` CPUs and a cap of ``count``."""

    def force(count):
        monkeypatch.setattr(core, "_cpus", lambda: count)
        monkeypatch.setattr(core, "_MAX_WORKERS", count)

    return force
