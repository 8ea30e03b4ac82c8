import os
from concurrent.futures import Future

import numpy as np
import pytest

from sheetwalk import mcharness, walkstats


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

    monkeypatch.setattr(mcharness, "ProcessPoolExecutor", InlinePool)
    return opened


class StubField:
    """A test double for a field: the sign at ``(i, j)`` is +1 exactly where ``positive(i, j)``.

    A subclass defines ``positive`` as a static method on broadcast index
    arrays.  Its ``root`` is a tag, one per subclass, not a hash root:
    under the ``stub_hash`` fixture the sweep reads the stub's signs
    wherever its tag stands among a block's roots.
    """

    tagged: dict = {}  # tag -> subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.root = len(StubField.tagged) + 1
        StubField.tagged[cls.root] = cls

    def value(self, i, j):
        """Sign at cell ``(i, j)``, the scalar read of the dense oracles."""
        return 1 if self.positive(i, j) else -1


_SIGN_BIT = np.uint64(1 << 63)


@pytest.fixture
def stub_hash(monkeypatch):
    """Let the sweep read :class:`StubField` doubles through its one hash call.

    ``walkstats.sign_rows`` becomes a wrapper that hashes every root with
    the real ``sign_rows``, then gives each stub tag among the roots words
    whose bit 63 is set exactly where the stub's sign is +1, so blocks may
    mix stubs and real streams.  Install it before copying ``walkstats``'
    namespace, as a mutant made by ``exec`` does.
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
