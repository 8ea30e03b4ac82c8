"""Exact return probabilities and closed-form zero-set moments.

Everything here reduces to ``p(n) = C(2n, n) / 4**n``, the chance that a
balanced +/-1 sum of length ``2n`` returns to zero.  ``p(n)`` is a dyadic
rational with odd numerator: one generator, :func:`dyadic_pairs`, walks
the recurrence ``p(n+1) = p(n) * (2n+1)/(2n+2)`` as (odd numerator, binary
exponent) pairs.  The table holds only the correctly rounded float of each
pair, taken from its top 60 bits plus a sticky bit.  No pair is held: the
rational readers (``exact pn --rational`` and check 1) read n = 0, 1, 2, ...
in order and walk the generator themselves.

Float evaluation is hybrid: exact table up to ``EXACT_CEILING``, then a
five-term asymptotic expansion of ``1/sqrt(pi*n)``.  On the overlap window
``[9000, 10000]`` the two branches agree to ~1 ulp (tests pin 1e-12
relative), and the jump across the seam is ~2e-7 — five orders above the
series error — so the evaluator is monotone nonincreasing by construction;
nothing is clamped.

Moment sums exploit independence of disjoint increment blocks: a partial
sum over a rectangle extends another by a block of fresh signs, so joint
zero probabilities factor into ``p`` values of block half-areas.  Sums with
an odd number of signs can never vanish, hence the even-parity filters.

Sums are evaluated in blocks, and the callers do the blocking.  Every
``p`` evaluation runs through :func:`_p_fill`, which evaluates one block in
scratch buffers its caller sized and reuses: the series in place, then the
table values patched in wherever ``k <= EXACT_CEILING``.  The grid sums
stack whole rows into blocks of about ``CHUNK_CELLS`` cells (a row wider
than that is a block of its own), but still sum each row as its own
contiguous slice and add the row sums in row order.  :func:`p_float_vec`
and the diagonal and anti-diagonal means fill one output ``CHUNK_CELLS``
cells at a time (:func:`_p_chunks`); the means sum it once.  Each element
is the same IEEE operations and each sum the same reduction over the same
values in the same order as a per-row evaluation, so the results are
bit-identical to it (the tests keep that evaluation as the oracle).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

EXACT_CEILING = 10_000  # largest n with a tabulated exact p(n)
VAR_SUM_CEILING = 4_000  # pairwise diagonal sums: O(N^2) p evaluations
GAMMA_SUM_CEILING = 4_096  # full-grid mean: O(N^2) p evaluations
HIT_CONSTANT_CEILING = 512  # above it, sqrt(n) * C(2n, n + 1) overflows a float
MEAN_SUM_CEILING = 10**7  # diagonal and anti-diagonal means: one N-long float array
# cells per evaluation chunk; each float scratch buffer takes 8 bytes a cell
CHUNK_CELLS = 2**16

#: Slope of the diagonal zero-count law: E delta_N ~ this * ln N.
DIAG_LOG_COEFF = 1.0 / math.sqrt(2.0 * math.pi)

# Asymptotic series p(n)*sqrt(pi*n) = 1 + c1/n + ... + c5/n^5 + O(n^-6).
_C1 = -1.0 / 8.0
_C2 = 1.0 / 128.0
_C3 = 5.0 / 1024.0
_C4 = -21.0 / 32768.0
_C5 = -399.0 / 262144.0


class CapacityError(Exception):
    """An exact computation exceeds its configured ceiling."""


def dyadic_pairs() -> Iterator[tuple[int, int]]:
    """Yield ``(odd numerator, exponent)`` of ``p(n)`` for ``n = 0..EXACT_CEILING``."""
    num, exp = 1, 0
    yield num, exp
    for n in range(EXACT_CEILING):
        num *= 2 * n + 1
        m = n + 1
        twos = (m & -m).bit_length() - 1  # strip the even part of 2n+2
        num //= m >> twos
        exp += 1 + twos
        yield num, exp


@dataclass(frozen=True)
class ReturnProbTable:
    """Float image of ``p(0..EXACT_CEILING)``.

    ``float_values[n]`` is the correctly rounded float of ``p(n)``, taken
    from the pair :func:`dyadic_pairs` yields at ``n``; the pairs are not kept.
    """

    float_values: np.ndarray

    @classmethod
    def build(cls) -> "ReturnProbTable":
        floats = np.empty(EXACT_CEILING + 1)
        for n, (num, exp) in enumerate(dyadic_pairs()):
            # num is odd, so bits dropped below the top 60 are never all zero:
            # the OR-ed 1 is an exact sticky bit and the rounding is correct
            shift = max(num.bit_length() - 60, 0)
            floats[n] = math.ldexp(float((num >> shift) | 1), shift - exp)
        return cls(floats)


_TABLE: ReturnProbTable | None = None


def _table() -> ReturnProbTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = ReturnProbTable.build()
    return _TABLE


def _p_series(x: np.ndarray, out: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Write the asymptotic series for ``p`` at the float arguments ``x`` into ``out``.

    Runs in place: ``x`` is overwritten and ``inv`` is scratch of the same
    shape.  The operations are those of the closed form
    ``(1 + inv*(c1 + inv*(c2 + ...))) / sqrt(pi*x)``, in that order.
    """
    np.divide(1.0, x, out=inv)
    np.multiply(inv, _C5, out=out)
    for c in (_C4, _C3, _C2, _C1):
        out += c
        out *= inv
    out += 1.0
    x *= np.pi
    np.sqrt(x, out=x)
    out /= x
    return out


class _Scratch:
    """Buffers the blocks of one sum reuse: series argument, ``1/x`` and table mask."""

    def __init__(self, cells: int) -> None:
        self.x = np.empty(cells)
        self.inv = np.empty(cells)
        self.small = np.empty(cells, dtype=bool)


def _p_fill(ks: np.ndarray, out: np.ndarray, scratch: _Scratch) -> None:
    """Write ``p(ks)`` into ``out``; both 1-D of one length, ``ks`` int64 and >= 0.

    One block, no larger than ``scratch``: the series over it, with table
    cells given a finite stand-in argument, then the table values patched
    in over them.
    """
    n = ks.size
    x, inv, small = scratch.x[:n], scratch.inv[:n], scratch.small[:n]
    np.copyto(x, ks)
    np.maximum(x, EXACT_CEILING + 1.0, out=x)
    _p_series(x, out, inv)
    np.less_equal(ks, EXACT_CEILING, out=small)
    if small.any():
        out[small] = _table().float_values[ks[small]]


def p_float(n: int) -> float:
    """``p(n)`` as a float, exact-table below the ceiling, series above."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n <= EXACT_CEILING:
        return float(_table().float_values[n])
    x = np.array([float(n)])
    return float(_p_series(x, np.empty(1), np.empty(1))[0])


def p_float_vec(ns: np.ndarray) -> np.ndarray:
    """Vectorized :func:`p_float` over an int array of any shape (entries >= 0)."""
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 0:
        raise ValueError("all indices must be >= 0")
    flat = ns.reshape(-1)
    return _p_chunks(flat.size, lambda lo, hi: flat[lo:hi]).reshape(ns.shape)


def _p_chunks(count: int, ks_between) -> np.ndarray:
    """``p`` over ``count`` cells; ``ks_between(lo, hi)`` gives cells ``lo..hi-1``.

    The values fill one ``count``-long array ``CHUNK_CELLS`` cells at a
    time, so only the output is ever ``count`` long.
    """
    out = np.empty(count)
    scratch = _Scratch(min(count, CHUNK_CELLS))
    for lo in range(0, count, CHUNK_CELLS):
        hi = min(lo + CHUNK_CELLS, count)
        _p_fill(ks_between(lo, hi), out[lo:hi], scratch)
    return out


def _row_blocks(rows: int, width: int) -> int:
    """Rows of ``width`` cells that one block of about ``CHUNK_CELLS`` cells holds."""
    return max(1, min(rows, CHUNK_CELLS // max(width, 1)))


def _add_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum, the order of a running ``total += value`` loop."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def delta_mean_exact(N: int) -> float:
    """``E[# of i <= N with zero diagonal sum at (2i,2i)]``."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > MEAN_SUM_CEILING:
        raise CapacityError(f"linear sum capped at N={MEAN_SUM_CEILING}, got {N}")

    def ks_between(lo, hi):
        i = np.arange(lo + 1, hi + 1, dtype=np.int64)
        return 2 * i * i

    return float(_p_chunks(N, ks_between).sum())


def delta_var_exact(N: int) -> float:
    """Exact variance of the diagonal zero count up to ``(2N,2N)``.

    For ``i < j`` both diagonal sums vanish with probability
    ``p(2 i^2) * p(2 (j^2 - i^2))``: the square block behind ``(2i,2i)``
    and the L-shaped extension out to ``(2j,2j)`` hold disjoint signs.
    Row ``i`` sums ``p(2 (j^2 - i^2))`` over ``j > i``; a block of rows
    ``a..a+b-1`` is evaluated over the columns ``a+1..N``, and the cells
    with ``j <= i`` in it are evaluated at ``p(0)`` and never read.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > VAR_SUM_CEILING:
        raise CapacityError(f"pairwise sum capped at N={VAR_SUM_CEILING}, got {N}")
    squares = np.arange(1, N + 1, dtype=np.int64) ** 2
    singles = p_float_vec(2 * squares)
    mean = float(singles.sum())
    row_sums = np.empty(max(N - 1, 0))
    cells = max(min(CHUNK_CELLS, N * N), N)
    ks, values, scratch = np.empty(cells, dtype=np.int64), np.empty(cells), _Scratch(cells)
    a = 1
    while a < N:
        width = N - a  # columns j = a+1..N
        b = _row_blocks(width, width)  # rows a..a+b-1; b <= width
        kb = ks[: b * width].reshape(b, width)
        np.subtract(squares[a:], squares[a - 1 : a - 1 + b, None], out=kb)
        kb *= 2
        np.maximum(kb[:, :b], 0, out=kb[:, :b])  # the unread j <= i corner
        _p_fill(ks[: b * width], values[: b * width], scratch)
        vb = values[: b * width].reshape(b, width)
        for r in range(b):
            row_sums[a - 1 + r] = vb[r, r:].sum()
        a += b
    cross = _add_in_order(singles[: N - 1] * row_sums)
    return mean + 2.0 * cross - mean * mean


def gamma_mean_exact(N: int) -> float:
    """``E[# of interior zeros of the rectangle-sum array on [1,N]^2]``.

    A cell ``(i,j)`` can only vanish when ``i*j`` is even, contributing
    ``p(i*j/2)``: ``p((i/2) * j)`` for ``j = 1..N`` on even rows and
    ``p(i * h)`` for ``h = 1..N/2`` (``j = 2h``) on odd rows.  Rows of one
    parity share a width, so they are evaluated in stacked blocks.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > GAMMA_SUM_CEILING:
        raise CapacityError(f"full-grid sum capped at N={GAMMA_SUM_CEILING}, got {N}")
    row_sums = np.empty(N)
    for first, width in ((1, N // 2), (2, N)):
        rows = np.arange(first, N + 1, 2, dtype=np.int64)
        factors = rows if first == 1 else rows // 2
        cols = np.arange(1, width + 1, dtype=np.int64)
        b_max = _row_blocks(rows.size, width)
        cells = b_max * width
        ks, values, scratch = np.empty(cells, dtype=np.int64), np.empty(cells), _Scratch(cells)
        for r0 in range(0, rows.size, b_max):
            b = min(b_max, rows.size - r0)
            np.multiply(factors[r0 : r0 + b, None], cols, out=ks[: b * width].reshape(b, width))
            _p_fill(ks[: b * width], values[: b * width], scratch)
            vb = values[: b * width].reshape(b, width)
            for r in range(b):
                row_sums[rows[r0 + r] - 1] = vb[r].sum()
    return _add_in_order(row_sums)


def antidiag_mean_exact(N: int) -> float:
    """``E[# of zeros along the anti-diagonal i + j = N, 1 <= i <= N-1]``.

    The area ``i * (N - i)`` is even for every ``i`` when ``N`` is odd, and
    for even ``i = 2t`` only when ``N`` is even, giving ``p(t * (N - 2t))``.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > MEAN_SUM_CEILING:
        raise CapacityError(f"linear sum capped at N={MEAN_SUM_CEILING}, got {N}")

    def ks_between(lo, hi):
        i = np.arange(lo + 1, hi + 1, dtype=np.int64)
        if N % 2:
            return i * (N - i) // 2
        return i * (N - 2 * i)

    count = N - 1 if N % 2 else max(N // 2 - 1, 0)
    return float(_p_chunks(count, ks_between).sum())


def hit_constant_estimate(n_max: int) -> float:
    """Minimum of ``sqrt(n) * P(S = x | S >= x)`` over ``n <= n_max``, even ``x``.

    ``S`` is a sum of ``2n`` fair signs and ``x`` runs over ``[2, 2n]``.
    Lower-bounds the constant in the ``K / sqrt(n)`` floor for the
    conditional point mass.  Brute force over the whole (n, x) triangle.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > HIT_CONSTANT_CEILING:
        raise CapacityError(
            f"hit-constant estimate capped at n_max={HIT_CONSTANT_CEILING}, got {n_max}"
        )
    best = math.inf
    for n in range(1, n_max + 1):
        # C(2n, k) for k = 2n down to n+1 (x = 2n down to 2), by the
        # recurrence C(2n, k-1) = C(2n, k) * k / (2n - k + 1)
        at = [1]
        for k in range(2 * n, n + 1, -1):
            at.append(at[-1] * k // (2 * n - k + 1))
        tail = list(itertools.accumulate(at))  # the running suffix sums
        # Python's float * int and float / int round the int to a float first
        ratios = math.sqrt(n) * np.array([float(v) for v in at]) / np.array(
            [float(v) for v in tail]
        )
        best = min(best, float(ratios.min()))
    return best
