import concurrent.futures
import os
from concurrent.futures import Future

import numpy as np
import pytest

from sheetwalk import walkstats


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the harness's pool tasks inline; returns the widths it asked for.

    A task runs when it is submitted, and its future comes back done, with
    the task's value or its exception.  The CPU count, installed and
    usable, is pinned above every width a test asks for, so the widths do
    not depend on the machine; a test may patch it again.
    """
    opened = []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    # job_queue imports the name from concurrent.futures when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return opened


def audit_roots(roots, sizes, counters):
    """``sweep_roots`` of ``counters`` and :data:`walkstats.AUDIT`: the counters and the verdicts.

    Returns the counters asked for, and each stream's verdict as a bool
    array, True where none of its grids fails an audit condition.
    ``counters`` is checked on its own first, so none at all is refused
    as it is without the audit.
    """
    counters = walkstats._check_counters(counters)
    values = walkstats.sweep_roots(roots, sizes, counters | {walkstats.AUDIT})
    return values, ~values.pop(walkstats.AUDIT).any(axis=0)


class StubField:
    """A test double for a field: the sign at ``(i, j)`` is +1 exactly where ``positive(i, j)``.

    A subclass defines ``positive`` as a static method on broadcast index
    arrays.  Its ``root`` is a tag, one per subclass, not a hash root:
    under the ``stub_hash`` fixture the sweep reads the stub's signs
    wherever its tag stands among a block's roots.
    """

    tagged: dict = {}  # tag -> the stub whose positive the sweep reads there

    @staticmethod
    def tag(stub) -> int:
        """A new tag for ``stub``, a subclass or an instance with a ``positive``."""
        root = len(StubField.tagged) + 1
        StubField.tagged[root] = stub
        return root

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.root = StubField.tag(cls)

    def value(self, i, j):
        """Sign at cell ``(i, j)``, the scalar read of the dense oracles."""
        return 1 if self.positive(i, j) else -1


class PlaneField(StubField):
    """A stub that reads a given sign plane: +1 at ``(i, j)`` where ``plane[i - 1, j - 1]``.

    Each instance has a tag of its own, so one block of roots may hold
    many planes.
    """

    def __init__(self, plane):
        self.plane = np.asarray(plane, dtype=bool)
        self.root = StubField.tag(self)

    def positive(self, i, j):
        return self.plane[i - 1, j - 1]


_SIGN_BIT = np.uint64(1 << 63)


@pytest.fixture
def stub_hash(monkeypatch):
    """Let the sweep read :class:`StubField` doubles through its one hash call.

    ``walkstats.sign_rows`` becomes a wrapper that hashes every root with
    the real ``sign_rows``, then gives each stub tag among the roots words
    whose bit 63 is set exactly where the stub's sign is +1, so blocks may
    mix stubs and real streams.
    """
    real = walkstats.sign_rows

    def sign_rows(roots, start, words, scratch):
        hashed = real(roots, start, words, scratch)
        b, _, count = words.shape
        i = np.arange(start, start + b).reshape(-1, 1)
        j = np.arange(1, count + 1)
        for r, root in enumerate(roots.tolist()):
            if root in StubField.tagged:
                positive = StubField.tagged[root].positive(i, j)
                hashed[:, r] = np.where(positive, _SIGN_BIT, np.uint64(0))
        return hashed

    monkeypatch.setattr(walkstats, "sign_rows", sign_rows)
