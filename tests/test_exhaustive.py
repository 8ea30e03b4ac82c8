"""Exhaustive ground truth at N <= 4: all 2^16 sign fields of [1, 4]^2.

Field ``r``, ``0 <= r < 2^16``, has the sign +1 at ``(i, j)`` exactly where
bit ``4(i - 1) + (j - 1)`` of ``r`` is set.  Every counter of every field
is recounted densely from its table of sums, so each counter's mean over
the fields is an exact rational with denominator 2^16: the exact sums
must equal it, and the sweep, fed the fields themselves as roots, must
count every field as the recount does.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import audit_roots

from sheetwalk import walkstats
from sheetwalk.exactprob import (
    antidiag_mean_exact,
    delta_mean_exact,
    delta_var_exact,
    gamma_mean_exact,
)
from sheetwalk.walkstats import COUNTERS, sweep_roots

EDGE = 4
FIELDS = 2 ** (EDGE * EDGE)
SIZES = tuple(range(1, EDGE + 1))


def exhaustive_counters() -> dict[str, np.ndarray]:
    """Each counter of every field at n = 1..4, as an int64 ``(4, 2^16)`` array.

    Row ``n - 1`` holds the ``n x n`` grid's counts, field ``r`` in column
    ``r``.  The recount reads the dense table of sums ``S`` and shares no
    code with the sweep.
    """
    r = np.arange(FIELDS, dtype=np.uint64)
    bits = np.arange(EDGE * EDGE, dtype=np.uint64).reshape(EDGE, EDGE)
    signs = np.where((r[:, None, None] >> bits) & np.uint64(1), 1, -1)
    S = signs.cumsum(axis=1).cumsum(axis=2)  # S[r, i - 1, j - 1] = S(i, j) of field r
    counts = {c: np.zeros((EDGE, FIELDS), dtype=np.int64) for c in COUNTERS}
    for n in SIZES:
        grid = S[:, :n, :n]
        counts["gamma"][n - 1] = (grid == 0).sum(axis=(1, 2))
        counts["gamma_prime"][n - 1] = (grid == 1).sum(axis=(1, 2))
        counts["z_crossings"][n - 1] = (grid[:, :, :-1] * grid[:, :, 1:] <= 0).sum(axis=(1, 2))
        for k in range(1, n // 2 + 1):  # the even diagonal (2k, 2k)
            counts["delta"][n - 1] += S[:, 2 * k - 1, 2 * k - 1] == 0
        for i in range(1, n):  # the anti-diagonal i + j = n
            counts["d_antidiag"][n - 1] += S[:, i - 1, n - i - 1] == 0
    return counts


@pytest.fixture(scope="module")
def counts():
    return exhaustive_counters()


def _mean(values) -> Fraction:
    return Fraction(int(values.sum()), FIELDS)


@pytest.mark.parametrize("n", SIZES)
def test_exact_sums_equal_the_enumerated_moments(counts, n):
    # each exact sum's float is the rational mean (or variance) over all fields
    delta = counts["delta"][n - 1]
    variance = _mean(delta * delta) - _mean(delta) ** 2
    assert Fraction(gamma_mean_exact(n)) == _mean(counts["gamma"][n - 1])
    assert Fraction(delta_mean_exact(n // 2)) == _mean(delta)
    assert Fraction(delta_var_exact(n // 2)) == variance
    assert Fraction(antidiag_mean_exact(n)) == _mean(counts["d_antidiag"][n - 1])


def _field_sign_rows(roots, start, words, scratch):
    """Stand-in for :func:`walkstats.sign_rows` whose root is a field, not a hash root.

    Bit 63 of ``words[k, r, j - 1]`` is set exactly where bit ``4(start + k
    - 1) + (j - 1)`` of ``roots[r]`` is, so it is valid only for rows and
    columns up to 4.
    """
    b, _, count = words.shape
    assert start + b - 1 <= EDGE and count <= EDGE
    rows = np.arange(start - 1, start - 1 + b, dtype=np.uint64)[:, None, None]
    bits = rows * np.uint64(EDGE) + np.arange(count, dtype=np.uint64)
    np.right_shift(roots[:, None], bits, out=words)
    words &= np.uint64(1)
    words <<= np.uint64(63)
    return words


def test_the_sweep_counts_every_field_as_the_recount_does(counts, monkeypatch):
    # all 2^16 fields through the production sweep, the audited sweep and the
    # sweep of each counter alone, in blocks of tile_shape(4)[0] grids
    monkeypatch.setattr(walkstats, "sign_rows", _field_sign_rows)
    roots = np.arange(FIELDS, dtype=np.uint64)
    swept = sweep_roots(roots, SIZES, COUNTERS)
    audited, ok = audit_roots(roots, SIZES, COUNTERS)
    for c in COUNTERS:
        assert np.array_equal(swept[c], counts[c]), c
        assert np.array_equal(audited[c], counts[c]), c
    assert ok.all()
    for c in COUNTERS:
        (alone,) = sweep_roots(roots, SIZES, (c,)).values()
        assert np.array_equal(alone, counts[c]), c
