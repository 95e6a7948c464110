"""Fixtures shared by the test modules."""
from concurrent.futures import ThreadPoolExecutor

import pytest

from aircomplete import mat_core


class CountingPool:
    """Stands in for the worker pool of mat_core._queue and counts the
    tasks handed to it."""

    def __init__(self):
        self.submitted = 0
        self._pool = ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args):
        self.submitted += 1
        return self._pool.submit(fn, *args)


@pytest.fixture()
def pool(monkeypatch):
    counting = CountingPool()
    monkeypatch.setattr(mat_core, "_POOL", counting)
    yield counting
    counting._pool.shutdown()
