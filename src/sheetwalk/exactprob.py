"""Exact return probabilities and closed-form zero-set moments.

Everything here reduces to ``p(n) = C(2n, n) / 4**n``, the chance that a
balanced +/-1 sum of length ``2n`` returns to zero.  ``p(n)`` is a dyadic
rational with odd numerator, so the table stores (odd numerator, binary
exponent) pairs built by the recurrence ``p(n+1) = p(n) * (2n+1)/(2n+2)``
and converts to correctly rounded floats by big-int division.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXACT_CEILING = 10_000  # largest n with a tabulated exact p(n)
VAR_SUM_CEILING = 4_000  # pairwise diagonal sums: O(N^2) p evaluations
GAMMA_SUM_CEILING = 4_096  # full-grid mean: O(N^2) p evaluations

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


@dataclass(frozen=True)
class ReturnProbTable:
    """Dyadic table of ``p(0..max_index)`` plus its rounded float image.

    ``exact_values[n]`` is ``(odd numerator, exponent)`` with
    ``p(n) = numerator / 2**exponent``; ``float_values[n]`` is the
    correctly rounded float of that rational.
    """

    max_index: int
    exact_values: tuple[tuple[int, int], ...]
    float_values: np.ndarray

    @classmethod
    def build(cls, max_index: int = EXACT_CEILING) -> "ReturnProbTable":
        if max_index < 0:
            raise ValueError(f"max_index must be >= 0, got {max_index}")
        num, exp = 1, 0
        pairs = [(1, 0)]
        floats = np.empty(max_index + 1)
        floats[0] = 1.0
        for n in range(max_index):
            num *= 2 * n + 1
            m = n + 1
            twos = (m & -m).bit_length() - 1  # strip the even part of 2n+2
            num //= m >> twos
            exp += 1 + twos
            pairs.append((num, exp))
            floats[n + 1] = num / (1 << exp)  # big-int division rounds correctly
        return cls(max_index, tuple(pairs), floats)

    def fraction(self, n: int) -> Fraction:
        num, exp = self.exact_values[n]
        return Fraction(num, 1 << exp)


_TABLE: ReturnProbTable | None = None


def _table() -> ReturnProbTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = ReturnProbTable.build()
    return _TABLE


def p_exact(n: int) -> Fraction:
    """Exact ``P(2n-step sign sum = 0)`` as a rational number."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > EXACT_CEILING:
        raise CapacityError(
            f"exact values stop at n={EXACT_CEILING}; use p_float for n={n}"
        )
    return _table().fraction(n)


def _p_series(n):
    """The asymptotic series for ``p(n)``; ``n`` is a float or a float array."""
    inv = 1.0 / n
    correction = 1.0 + inv * (_C1 + inv * (_C2 + inv * (_C3 + inv * (_C4 + inv * _C5))))
    return correction / np.sqrt(np.pi * n)


def p_float(n: int) -> float:
    """``p(n)`` as a float, exact-table below the ceiling, series above."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    table = _table()
    if n <= table.max_index:
        return float(table.float_values[n])
    return float(_p_series(float(n)))


def p_float_vec(ns: np.ndarray) -> np.ndarray:
    """Vectorized :func:`p_float` over an int array (entries >= 0)."""
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 0:
        raise ValueError("all indices must be >= 0")
    table = _table()
    out = np.empty(ns.shape)
    small = ns <= table.max_index
    out[small] = table.float_values[ns[small]]
    big = ~small
    if big.any():
        out[big] = _p_series(ns[big].astype(np.float64))
    return out


def delta_mean_exact(N: int) -> float:
    """``E[# of i <= N with zero diagonal sum at (2i,2i)]``."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    i = np.arange(1, N + 1, dtype=np.int64)
    return float(p_float_vec(2 * i * i).sum())


def delta_var_exact(N: int) -> float:
    """Exact variance of the diagonal zero count up to ``(2N,2N)``.

    For ``i < j`` both diagonal sums vanish with probability
    ``p(2 i^2) * p(2 (j^2 - i^2))``: the square block behind ``(2i,2i)``
    and the L-shaped extension out to ``(2j,2j)`` hold disjoint signs.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > VAR_SUM_CEILING:
        raise CapacityError(f"pairwise sum capped at N={VAR_SUM_CEILING}, got {N}")
    i = np.arange(1, N + 1, dtype=np.int64)
    singles = p_float_vec(2 * i * i)
    mean = float(singles.sum())
    cross = 0.0
    for a in range(1, N):
        js = np.arange(a + 1, N + 1, dtype=np.int64)
        cross += float(singles[a - 1] * p_float_vec(2 * (js * js - a * a)).sum())
    return mean + 2.0 * cross - mean * mean


def gamma_mean_exact(N: int) -> float:
    """``E[# of interior zeros of the rectangle-sum array on [1,N]^2]``.

    A cell ``(i,j)`` can only vanish when ``i*j`` is even, contributing
    ``p(i*j/2)``.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > GAMMA_SUM_CEILING:
        raise CapacityError(f"full-grid sum capped at N={GAMMA_SUM_CEILING}, got {N}")
    total = 0.0
    for i in range(1, N + 1):
        js = np.arange(1, N + 1, dtype=np.int64) if i % 2 == 0 else np.arange(
            2, N + 1, 2, dtype=np.int64
        )
        total += float(p_float_vec(i * js // 2).sum())
    return total


def antidiag_mean_exact(N: int) -> float:
    """``E[# of zeros along the anti-diagonal i + j = N, 1 <= i <= N-1]``."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    i = np.arange(1, N, dtype=np.int64)
    area = i * (N - i)
    even = area % 2 == 0
    return float(p_float_vec(area[even] // 2).sum())


def hit_constant_estimate(n_max: int) -> float:
    """Minimum of ``sqrt(n) * P(S = x | S >= x)`` over ``n <= n_max``, even ``x``.

    ``S`` is a sum of ``2n`` fair signs and ``x`` runs over ``[2, 2n]``.
    Lower-bounds the constant in the ``K / sqrt(n)`` floor for the
    conditional point mass.  Brute force over the whole (n, x) triangle.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    best = math.inf
    for n in range(1, n_max + 1):
        row = [math.comb(2 * n, k) for k in range(n + 1, 2 * n + 1)]
        tail = 0
        scale = math.sqrt(n)
        # walk x = 2n down to 2 so the tail is a running suffix sum
        for at in reversed(row):
            tail += at
            best = min(best, scale * at / tail)
    return best
