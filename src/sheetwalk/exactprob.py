"""Exact return probabilities and closed-form zero-set moments.

Everything here reduces to ``p(n) = C(2n, n) / 4**n``, the chance that a
balanced +/-1 sum of length ``2n`` returns to zero.  ``p(n)`` is a dyadic
rational with odd numerator: one generator, :func:`dyadic_pairs`, walks
the recurrence ``p(n+1) = p(n) * (2n+1)/(2n+2)`` as (odd numerator, binary
exponent) pairs, its numerators ints or, for the decimal table, exact
``Decimal`` integers.  The table holds only the correctly rounded float
of each pair, taken from its top 60 bits plus a sticky bit.  No pair is held: the
rational readers (``exact pn --rational`` and check 1) read n = 0, 1, 2, ...
in order and walk the generator themselves.

The float table is package data, :data:`TABLE_FILE`, which
:meth:`ReturnProbTable.build` wrote: a process loads its 80 KB instead of
walking 10 001 big-integer steps before its first value.  Check 1 at the
full level compares every entry with an independent rebuild, so a stale
or damaged file fails ``verify``.  After a change to
:meth:`ReturnProbTable.build`, regenerate the file from a checkout, with
``src`` on the path::

    >>> np.save(exactprob.TABLE_FILE, exactprob.ReturnProbTable.build().float_values)

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

Every array of ``p`` values comes from one block evaluator,
:func:`_p_blocks`, the series' one caller.  It reads the blocks of a sum
from a plan, has the caller write their arguments into buffers it sizes
once, to the largest block, evaluates the series in place and patches in
the table values where ``k <= EXACT_CEILING``.  The grid sums take as many
rows as fit in ``CHUNK_CELLS`` cells (at least one) and add each row's sum
in row order; :func:`p_float_vec` copies one-cell rows into its result.
The two means never hold their ``N`` values: :func:`_p_sum` walks numpy's
pairwise-sum tree over them, evaluates one leaf of at most
``max(CHUNK_CELLS, 128)`` cells at a time, sums it with ``ndarray.sum`` and
adds the leaf sums in the tree's order, which is the float ``np.sum`` over
the whole array returns.  Each element and each sum is the same IEEE
operations in the same order as a per-row evaluation, so the results are
bit-identical to it (the tests keep that evaluation as the oracle).

The block size therefore sets only the scratch, never a bit: a grid row is
summed whole in whichever block holds it, and any leaf of at least 128
cells is a node of numpy's own tree.  ``CHUNK_CELLS`` = 2**14 keeps every
block at about 0.5 MiB of scratch, a quarter of what 2**16 took.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .randfield import as_int

EXACT_CEILING = 10_000  # largest n with a tabulated exact p(n)
VAR_SUM_CEILING = 4_000  # pairwise diagonal sums: O(N^2) p evaluations
GAMMA_SUM_CEILING = 4_096  # full-grid mean: O(N^2) p evaluations
HIT_CONSTANT_CEILING = 512  # above it, sqrt(n) * C(2n, n + 1) overflows a float
MEAN_SUM_CEILING = 10**7  # diagonal and anti-diagonal means: linear time, one leaf of cells held
# cells per evaluation block.  A block's scratch takes 33 bytes a cell (int64
# arguments, series argument, 1/x and values, a bool mask), so 2**14 cells
# hold about 0.5 MiB, inside L2.  Blocks of 2**16 cells (2.1 MiB) set the
# traced peaks of the exact sums: gamma_mean_exact(4096) 3.06 -> 0.95 MiB,
# delta_var_exact(4000) 2.29 -> 0.76 MiB, each mean at 10**6 1.97 -> 0.50
# MiB.  The size moves no bit (see the module docstring)
CHUNK_CELLS = 2**14

#: Slope of the diagonal zero-count law: E delta_N ~ this * ln N.
DIAG_LOG_COEFF = 1.0 / math.sqrt(2.0 * math.pi)

# Asymptotic series p(n)*sqrt(pi*n) = 1 + c1/n + ... + c5/n^5 + O(n^-6).
_C1 = -1.0 / 8.0
_C2 = 1.0 / 128.0
_C3 = 5.0 / 1024.0
_C4 = -21.0 / 32768.0
_C5 = -399.0 / 262144.0


#: The float table, ``p(0..EXACT_CEILING)`` as float64, written by
#: :meth:`ReturnProbTable.build` (see the module docstring to regenerate it).
TABLE_FILE = Path(__file__).with_name("pn_table.npy")


class CapacityError(Exception):
    """An exact computation exceeds its configured ceiling."""


class TableFileError(OSError):
    """The table file is not ``EXACT_CEILING + 1`` float64 values in ``.npy`` form."""


#: Decimal arithmetic that keeps every digit: the largest precision and
#: exponent, and any rounding raises rather than losing a digit.
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
)


def dyadic_pairs(
    decimal_numerators: bool = False,
) -> Iterator[tuple[int | decimal.Decimal, int]]:
    """Yield ``(odd numerator, exponent)`` of ``p(n)`` for ``n = 0..EXACT_CEILING``.

    With ``decimal_numerators`` the same recurrence carries each numerator
    as an exact ``Decimal`` integer in :data:`EXACT_DECIMAL`, for readers
    that print its digits: converting a 6000-digit int from binary costs
    far more than the carry.
    """
    if decimal_numerators:
        num, times, over = decimal.Decimal(1), EXACT_DECIMAL.multiply, EXACT_DECIMAL.divide_int
    else:
        num, times, over = 1, operator.mul, operator.floordiv
    exp = 0
    yield num, exp
    for n in range(EXACT_CEILING):
        m = n + 1
        twos = (m & -m).bit_length() - 1  # strip the even part of 2n+2
        num = over(times(num, 2 * n + 1), m >> twos)
        exp += 1 + twos
        yield num, exp


@dataclass(frozen=True)
class ReturnProbTable:
    """Float image of ``p(0..EXACT_CEILING)``.

    ``float_values[n]`` is the correctly rounded float of ``p(n)``, taken
    from the pair :func:`dyadic_pairs` yields at ``n``; the pairs are not kept.
    :meth:`build` computes the floats and wrote :data:`TABLE_FILE`;
    :meth:`load` reads them back, read-only.
    """

    float_values: np.ndarray

    @classmethod
    def load(cls, path: Path) -> "ReturnProbTable":
        """The table stored at ``path``; :class:`TableFileError` unless it is
        ``EXACT_CEILING + 1`` float64 values."""
        try:
            values = np.load(path, allow_pickle=False)
        except ValueError as exc:  # not an .npy file, or one of pickled objects
            raise TableFileError(f"{path}: {exc}") from None
        if values.shape != (EXACT_CEILING + 1,) or values.dtype != np.float64:
            raise TableFileError(
                f"{path} holds {values.dtype} values of shape {values.shape}, "
                f"not float64 of shape ({EXACT_CEILING + 1},)"
            )
        values.flags.writeable = False
        return cls(values)

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
    """The process's float table, loaded from :data:`TABLE_FILE` at its first read."""
    global _TABLE
    if _TABLE is None:
        _TABLE = ReturnProbTable.load(TABLE_FILE)
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


def p_float(n: int) -> float:
    """``p(n)`` of an int ``n < 2**63``: the table up to the ceiling, :func:`p_float_vec` above."""
    n = as_int("n", n, 0)
    if n <= EXACT_CEILING:
        return float(_table().float_values[n])
    if n >= 2**63:  # past the evaluator's int64 arguments
        raise CapacityError(f"p_float takes n < 2**63, got {n}")
    return float(p_float_vec(np.array([n]))[0])


def p_float_vec(ns: np.ndarray) -> np.ndarray:
    """Vectorized :func:`p_float` over an int array of any shape (entries >= 0)."""
    ns = np.asarray(ns)
    if ns.size and ns.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got {ns.dtype} values such as {ns.flat[0]}")
    if ns.dtype.kind == "u" and ns.size and ns.max() >= 2**63:  # the int64 cast would wrap them
        raise CapacityError(f"p_float takes n < 2**63, got {ns.max()}")
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 0:
        raise ValueError("all indices must be >= 0")
    flat = ns.reshape(-1)
    out = np.empty(flat.size)

    def fill(r, K):
        np.copyto(K[:, 0], flat[r : r + len(K)])

    for r, V in _p_blocks(_row_plan(flat.size, 1), fill):
        out[r : r + len(V)] = V[:, 0]
    return out.reshape(ns.shape)


def _row_plan(rows: int, width) -> list[tuple[int, int]]:
    """The ``(b, w)`` of each block of ``rows`` rows of width ``w``.

    A block holds as many rows as fit in ``CHUNK_CELLS`` cells, at least
    one.  ``width`` is the row width, or a function of the block's first
    row ``r`` where it shrinks down the rows.
    """
    plan, r = [], 0
    while r < rows:
        w = width(r) if callable(width) else width
        b = max(1, min(rows - r, CHUNK_CELLS // max(w, 1)))
        plan.append((b, w))
        r += b
    return plan


def _p_blocks(plan: list[tuple[int, int]], fill):
    """Yield ``(r, V)``, ``V = p(K)`` over each block of rows ``r..r+b-1``.

    ``plan`` lists the ``(b, w)`` of the blocks in row order, ``b`` rows of
    width ``w`` each.  ``fill(r, K)`` writes the block's int64 arguments into
    ``K``, shape ``(b, w)``.  Every buffer is sized once, to the largest
    block; ``V`` views the values buffer, which the next block overwrites.
    Table cells get a finite stand-in series argument, then their table
    values.
    """
    cells = max((b * w for b, w in plan), default=0)
    ks, x, inv = np.empty(cells, dtype=np.int64), np.empty(cells), np.empty(cells)
    small, values = np.empty(cells, dtype=bool), np.empty(cells)
    r = 0
    for b, w in plan:
        n = b * w
        k, arg, mask, v = ks[:n], x[:n], small[:n], values[:n]
        fill(r, k.reshape(b, w))
        np.copyto(arg, k)
        np.maximum(arg, EXACT_CEILING + 1.0, out=arg)
        _p_series(arg, v, inv[:n])
        np.less_equal(k, EXACT_CEILING, out=mask)
        if mask.any():
            v[mask] = _table().float_values[k[mask]]
        yield r, v.reshape(b, w)
        r += b


def _pairwise(n: int, leaf) -> float:
    """Add ``n`` cells in the order of numpy's ``pairwise_sum``, one leaf at a time.

    ``leaf(m)`` returns the sum of the next ``m`` cells.  numpy splits a
    run of more than 128 cells at half its length rounded down to a
    multiple of 8, and adds the two halves' sums.  Here a run of at most
    ``max(CHUNK_CELLS, 128)`` cells is a leaf: ``ndarray.sum`` over it
    walks numpy's own tree below that node, so with ``leaf`` summing an
    array's slices the total has the bits of ``np.sum`` over the array.
    """
    if n <= max(CHUNK_CELLS, 128):
        return leaf(n)
    h = n // 2 - n // 2 % 8
    return _pairwise(h, leaf) + _pairwise(n - h, leaf)


def _p_sum(count: int, fill) -> float:
    """``float(np.sum(p))`` over ``count`` cells, holding one leaf of them at a time.

    ``fill(lo, k)`` writes the arguments of cells ``lo..lo+len(k)-1``.  The
    leaves are the blocks of one :func:`_p_blocks` run, so its buffers are
    sized once, to the largest leaf.
    """
    sizes = []
    _pairwise(count, lambda m: sizes.append(m) or 0.0)  # a dry walk lists the leaves
    leaves = _p_blocks([(m, 1) for m in sizes], lambda r, K: fill(r, K[:, 0]))
    return _pairwise(count, lambda m: float(next(leaves)[1].sum()))


def _count_from(first: int, k: np.ndarray, step: int = 1) -> None:
    """Write ``first, first + step, ...`` into ``k`` by an in-place ``cumsum``, where ``np.arange``
    would allocate a leaf-sized temporary."""
    k.fill(step)
    k[:1] = first
    np.cumsum(k, out=k)


def _add_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum, the order of a running ``total += value`` loop."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _check_size(N: int, ceiling: int, what: str) -> int:
    N = as_int("N", N, 0)
    if N > ceiling:
        raise CapacityError(f"{what} capped at N={ceiling}, got {N}")
    return N


def delta_mean_exact(N: int) -> float:
    """``E[# of i <= N with zero diagonal sum at (2i,2i)]``."""
    N = _check_size(N, MEAN_SUM_CEILING, "linear sum")

    def fill(lo, k):  # 2 i^2 for i = lo+1..lo+len(k)
        _count_from(lo + 1, k)
        k *= k
        k *= 2

    return _p_sum(N, fill)


def delta_var_exact(N: int) -> float:
    """Exact variance of the diagonal zero count up to ``(2N,2N)``.

    For ``i < j`` both diagonal sums vanish with probability
    ``p(2 i^2) * p(2 (j^2 - i^2))``: the square block behind ``(2i,2i)``
    and the L-shaped extension out to ``(2j,2j)`` hold disjoint signs.
    Row ``i`` sums ``p(2 (j^2 - i^2))`` over ``j > i``; a block of rows
    ``a..a+b-1`` is evaluated over the columns ``a+1..N``, and the cells
    with ``j < i`` in it are evaluated at ``p(2 (i^2 - j^2))`` and never read.
    """
    N = _check_size(N, VAR_SUM_CEILING, "pairwise sum")
    squares = np.arange(1, N + 1, dtype=np.int64) ** 2
    singles = p_float_vec(2 * squares)
    mean = float(singles.sum())
    row_sums = np.empty(max(N - 1, 0))

    def fill(r, K):  # rows i = r+1..r+b, columns j = r+2..N
        b = len(K)
        np.subtract(squares[r + 1 :], squares[r : r + b, None], out=K)
        K *= 2
        np.absolute(K[:, :b], out=K[:, :b])  # the unread j < i corner

    for r, V in _p_blocks(_row_plan(N - 1, lambda r: N - 1 - r), fill):
        for t in range(len(V)):
            row_sums[r + t] = V[t, t:].sum()
    cross = _add_in_order(singles[: N - 1] * row_sums)
    return mean + 2.0 * cross - mean * mean


def gamma_mean_exact(N: int) -> float:
    """``E[# of interior zeros of the rectangle-sum array on [1,N]^2]``.

    A cell ``(i,j)`` can only vanish when ``i*j`` is even, contributing
    ``p(i*j/2)``: ``p((i/2) * j)`` for ``j = 1..N`` on even rows and
    ``p(i * h)`` for ``h = 1..N/2`` (``j = 2h``) on odd rows.  Rows of one
    parity share a width, so they are evaluated in stacked blocks.
    """
    N = _check_size(N, GAMMA_SUM_CEILING, "full-grid sum")
    row_sums = np.empty(N)
    for first, width in ((1, N // 2), (2, N)):
        factors = np.arange(first, N + 1, 2, dtype=np.int64)[:, None] // first  # i or i/2
        cols = np.arange(1, width + 1, dtype=np.int64)

        def fill(r, K):
            np.multiply(factors[r : r + len(K)], cols, out=K)

        parity_sums = row_sums[first - 1 :: 2]  # rows first, first + 2, ...
        for r, V in _p_blocks(_row_plan(len(factors), width), fill):
            parity_sums[r : r + len(V)] = V.sum(axis=1)
    return _add_in_order(row_sums)


def antidiag_mean_exact(N: int) -> float:
    """``E[# of zeros along the anti-diagonal i + j = N, 1 <= i <= N-1]``.

    The area ``i * (N - i)`` is even for every ``i`` when ``N`` is odd, and
    for even ``i = 2t`` only when ``N`` is even, giving ``p(t * (N - 2t))``.
    Both are ``(c^2 - (2k - c)^2) / 2^s`` at ``k = i`` or ``t``: ``c = N, s = 3``
    for odd ``N`` and ``c = N / 2, s = 1`` for even ``N``, which the cells'
    arguments take in place, with no temporary array.
    """
    N = _check_size(N, MEAN_SUM_CEILING, "linear sum")
    c, s = (N, 3) if N % 2 else (N // 2, 1)

    def fill(lo, k):  # 2k - c for k = lo+1..lo+len(k), then the argument
        _count_from(2 * (lo + 1) - c, k, 2)
        k *= k
        np.subtract(c * c, k, out=k)
        k >>= s

    count = N - 1 if N % 2 else max(N // 2 - 1, 0)
    return _p_sum(count, fill)


def hit_constant_estimate(n_max: int) -> float:
    """Minimum of ``sqrt(n) * P(S = x | S >= x)`` over ``n <= n_max``, even ``x``.

    ``S`` is a sum of ``2n`` fair signs and ``x`` runs over ``[2, 2n]``.
    Lower-bounds the constant in the ``K / sqrt(n)`` floor for the
    conditional point mass.  Brute force over the whole (n, x) triangle.
    """
    n_max = as_int("n_max", n_max, 1)
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
