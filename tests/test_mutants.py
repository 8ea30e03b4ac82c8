"""Mutant catalogue: each mutant is a patched copy of one function, and each
test asserts that a named check or test kills it.

The killing tests are called on fixed inputs (hypothesis tests through
``.hypothesis.inner_test``), so the file runs in seconds.
"""

import numpy as np
import pytest

import test_exactprob
import test_randfield
from test_walkstats import AlternatingRowsField

from sheetwalk import checks, exactprob, randfield, walkstats


def _sign_rows_columns_from_zero(roots, start, words, scratch):
    """Mutant of :func:`randfield.sign_rows`: column keys ``0..count-1``, not ``1..count``."""
    if start < 1:
        raise ValueError(f"row index must be >= 1, got {start}")
    b, _, count = words.shape
    rows = np.arange(start, start + b, dtype=np.uint64)
    row_keys = randfield._mix64_vec(rows.reshape(-1, 1) * randfield._V_GOLDEN + roots)
    cols = np.arange(0, count, dtype=np.uint64) * randfield._V_GOLDEN
    np.add(row_keys[:, :, None], cols, out=words)
    randfield._mix64_head(words, scratch)
    signs = np.right_shift(words, randfield._S63, out=words).view(np.int64)
    signs *= 2
    signs -= 1
    return signs


def _p_fill_table_below_the_ceiling(ks, out, scratch):
    """Mutant of :func:`exactprob._p_fill`: table values patched where ``k < EXACT_CEILING``."""
    n = ks.size
    x, inv, small = scratch.x[:n], scratch.inv[:n], scratch.small[:n]
    np.copyto(x, ks)
    np.maximum(x, exactprob.EXACT_CEILING + 1.0, out=x)
    exactprob._p_series(x, out, inv)
    np.less(ks, exactprob.EXACT_CEILING, out=small)
    if small.any():
        out[small] = exactprob._table().float_values[ks[small]]


def _audit_rows_edge_zero_kept(plan, R, n, t):
    """Mutant of :func:`walkstats._audit_rows`: the zero at column ``n`` stays in ``[1, n-1]``."""
    zeros, crossings, touched = plan.per_row(
        R, n, t, [walkstats.ZEROS, walkstats.PRODUCT_CROSSINGS, walkstats.PRODUCT_TOUCHES]
    )
    return crossings, touched, zeros, zeros


class TestSignRowsColumnsFromZero:
    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        for module in (randfield, walkstats, test_randfield):  # every holder of the name
            monkeypatch.setattr(module, "sign_rows", _sign_rows_columns_from_zero)

    def test_killed_by_the_scalar_oracle(self):
        run = test_randfield.test_tiles_and_rows_match_scalar_values.hypothesis.inner_test
        with pytest.raises(AssertionError):
            run(seed=3, replicates=[0, 5], start=7, rows=2, count=4)

    def test_killed_by_check_10(self):
        ok, _ = checks._check_oracle_equivalence("quick", 1)
        assert not ok


class TestPFillTableBelowTheCeiling:
    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        monkeypatch.setattr(exactprob, "_p_fill", _p_fill_table_below_the_ceiling)

    def test_killed_by_the_scalar_path(self):
        ceiling = exactprob.EXACT_CEILING
        vec = exactprob.p_float_vec(np.array([ceiling]))
        assert vec[0] != exactprob.p_float(ceiling)

    def test_killed_by_the_gamma_pin(self):
        # cells (i, j) with i * j = 20000, such as (100, 200), evaluate p(10000)
        with pytest.raises(AssertionError):
            test_exactprob.test_sum_bits_are_pinned(
                "gamma_mean_exact", exactprob.GAMMA_SUM_CEILING
            )


class TestAuditRowsEdgeZeroKept:
    """Survives check 9 on real fields: its lower sandwich bound never binds there."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        monkeypatch.setattr(walkstats, "_audit_rows", _audit_rows_edge_zero_kept)

    def test_killed_by_the_alternating_rows_stub(self):
        # an even row vanishes: n zeros, n - 1 touching pairs, and only the
        # edge zero's subtraction keeps the zeros on [1, n-1] at the touches
        _, ok = walkstats.decomposition_audit(AlternatingRowsField(), 6, (3,))
        assert not ok
