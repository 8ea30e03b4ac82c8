import os

import pytest

from sheetwalk import mcharness


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the harness's pool chunks inline; returns the widths it asked for.

    The CPU count is pinned above every width a test asks for, so the
    widths do not depend on the machine; a test may patch it again.
    """
    opened = []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(mcharness, "ProcessPoolExecutor", InlinePool)
    return opened
