"""Mutant catalogue: each mutant is a patched copy of one function or class,
and each test asserts that a named check or test kills it.

The killing tests are called on fixed inputs (hypothesis tests through
``.hypothesis.inner_test``), so the file runs in seconds.  A test that
reads a stub asks for the ``stub_hash`` fixture.  A mutant made by
:func:`_edited` runs in its module's live namespace, so it calls whatever
the module holds when it runs, the fake hash or a later patch among them.
"""

import inspect

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_exactprob
import test_exhaustive
import test_randfield
import test_walkstats
from test_acceptance import SHARED_PASS
from test_walkstats import AlternatingRowsField

from sheetwalk import checks, exactprob, mcharness, randfield, walkstats


def _sign_rows_columns_from_zero(roots, start, words, scratch):
    """Mutant of :func:`randfield.sign_rows`: column keys ``0..count-1``, not ``1..count``."""
    if start < 1:
        raise ValueError(f"row index must be >= 1, got {start}")
    b, _, count = words.shape
    rows = np.arange(start, start + b, dtype=np.uint64)
    row_keys = randfield._mix64_vec(rows.reshape(-1, 1) * randfield._V_GOLDEN + roots)
    cols = np.arange(0, count, dtype=np.uint64) * randfield._V_GOLDEN
    np.add(row_keys[:, :, None], cols, out=words)
    return randfield._mix64_head(words, scratch)


def _field_roots_of_the_next_replicate(seed, replicates):
    """Mutant of :func:`randfield.field_roots`: replicate ``r`` gets the root of ``r + 1``."""
    replicates = np.asarray(replicates, dtype=np.int64) + 1
    base = np.uint64(randfield._mix64(randfield.Seed(seed) ^ randfield._FIELD_TAG))
    return randfield._mix64_vec(replicates.astype(np.uint64) * randfield._V_GOLDEN + base)


def _audit_rows_edge_zero_kept(block, n, t):
    """Mutant of :func:`walkstats._audit_rows`: the zero at column ``n`` stays in ``[1, n-1]``."""
    zeros, crossings, touched = block.per_row(
        n, t, [walkstats.ZEROS, walkstats.PRODUCT_CROSSINGS, walkstats.PRODUCT_TOUCHES]
    )
    return crossings, touched, zeros, zeros


@pytest.fixture(scope="module")
def every_field():
    """Each counter of all 2^16 fields of ``tests/test_exhaustive.py`` at n = 1..4."""
    return test_exhaustive.exhaustive_counters()


def _verdict(name, workers=1):
    """Check ``name``'s verdict from a quick run of it alone; a crash is no verdict."""
    (result,) = checks.run_checks("quick", workers, {name})
    assert not result.raised, result.detail
    return result.passed


def _edited(monkeypatch, name, old, new, module=walkstats):
    """Install a mutant of ``module.<name>``, its one occurrence of ``old`` made ``new``; return it.

    The edited source runs in the module's own namespace, so the mutant
    reads every name it calls from the module when it runs;
    ``monkeypatch`` puts the original back after the test.
    """
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    monkeypatch.setattr(module, name, getattr(module, name))  # restored at teardown
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module))
    return getattr(module, name)


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
        assert not _verdict("oracle-equivalence")


class TestFieldRootsOfTheNextReplicate:
    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        for module in (randfield, mcharness, checks, test_randfield):  # every holder of the name
            monkeypatch.setattr(module, "field_roots", _field_roots_of_the_next_replicate)

    def test_killed_by_the_root_identity(self):
        with pytest.raises(AssertionError):
            test_randfield.TestFieldRoots().test_roots_equal_the_scalar_roots(0)

    def test_killed_by_the_simulate_pin(self, tmp_path):
        with pytest.raises(AssertionError):
            test_cli.TestBytePins().test_simulate_bytes_at_seed_zero(tmp_path, "gamma", "64", "40")


class TestPFillTableBelowTheCeiling:
    """Mutant of :func:`exactprob._p_blocks`: table values patched where ``k < EXACT_CEILING``."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        _edited(monkeypatch, "_p_blocks", "np.less_equal(", "np.less(", module=exactprob)

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


class TestPairwiseSplitUnaligned:
    """Mutant of :func:`exactprob._pairwise`: a run splits at ``n // 2``, not rounded down to 8.

    numpy still sums every leaf, so only the adds above the leaves move.
    Which pinned sums see that depends on the leaf size: with leaves of at
    most ``CHUNK_CELLS`` = 2**14 cells, of the pins only ``delta_mean_exact``
    at 3 * 10**6 moves, and every mean at 10**6, 2 * 10**6, 5 * 10**6 and
    the ceiling keeps its bits.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        split = "h = n // 2 - n // 2 % 8"
        _edited(monkeypatch, "_pairwise", split, "h = n // 2", module=exactprob)

    def test_killed_by_the_delta_mean_pin_at_three_million(self):
        with pytest.raises(AssertionError):
            test_exactprob.test_sum_bits_are_pinned("delta_mean_exact", 3_000_000)

    def test_killed_by_the_tree_walk(self, monkeypatch):
        with pytest.raises(AssertionError):
            test_exactprob.test_the_tree_walk_adds_as_np_sum_does(
                monkeypatch, 131_084, exactprob.CHUNK_CELLS
            )

    def test_survives_the_other_mean_pins(self):
        for name in ("delta_mean_exact", "antidiag_mean_exact"):
            for n in test_exactprob.SUM_PINS[name]:
                if (name, n) != ("delta_mean_exact", 3_000_000):
                    test_exactprob.test_sum_bits_are_pinned(name, n)


class TestAuditRowsEdgeZeroKept:
    """The zeros over ``[1, n-1]`` counted with the one at column ``n`` kept.

    Check 9's verdict still cannot see it: on the real fields of its grids
    the lower sandwich bound never binds.  The per-row count oracle sees
    it on real fields, and so does the audit of all 2^16 fields at N <= 4.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch, stub_hash):
        monkeypatch.setattr(walkstats, "_audit_rows", _audit_rows_edge_zero_kept)

    def test_killed_by_the_alternating_rows_stub(self):
        # an even row vanishes: n zeros, n - 1 touching pairs, and only the
        # edge zero's subtraction keeps the zeros on [1, n-1] at the touches
        _, ok = walkstats.decomposition_audit(AlternatingRowsField(), 6, (3,))
        assert not ok

    def test_killed_by_the_segment_counts(self):
        # real fields 3 and 4, at n = 30 and 12
        with pytest.raises(AssertionError):
            test_walkstats.test_segment_audit_counts_where_the_edge_zero_flag_matters()

    def test_killed_by_every_field_at_n_4(self, monkeypatch, every_field):
        with pytest.raises(AssertionError):
            test_exhaustive.test_the_sweep_counts_every_field_as_the_recount_does(
                every_field, monkeypatch
            )

    def test_survives_the_random_fields_audit(self):
        test_walkstats.TestDecompositionAudit().test_random_fields_pass()


# one text replacement each in the sweep's probe reads: (name, old, new)
_SWEEP_BLOCK_EDITS = {
    # the diagonal counted on the odd cells (2k - 1, 2k - 1), where S never vanishes
    "diagonal-parity": ("_sweep_block", "probed[1:n:2", "probed[0:n:2"),
    # the anti-diagonal probed one column right, on the cells (i, n + 1 - i)
    "antidiagonal-offset": ("_Block", "n - 2 - k", "n - 1 - k"),
}

# one text replacement each in the sweep's segment bookkeeping: (name, old, new)
_SEGMENT_EDITS = {
    # each crossing filed under the column of its left-hand cell, so the n grid
    # also counts the pair (n, n + 1) that leaves it
    "crossing-under-the-left-cell": (
        "_sweep_block",
        "flags[slot[CROSSINGS], :, :, 1:]",
        "flags[slot[CROSSINGS], :, :, :-1]",
    ),
    # segments cut at column e - 1, so the n grid misses its column n
    "segment-bounds-at-e-1": (
        "_Block",
        "np.array([0, *edges[:-1]])",
        "np.array([0, *(e - 1 for e in edges[:-1])])",
    ),
}


def test_an_unmutated_copy_survives(monkeypatch, stub_hash):
    # the copies themselves are sound, so each kill below is the replacement's
    touches = "np.equal(products, 0, out=touches)"
    _edited(monkeypatch, "_product_crossings", touches, touches)
    diagonal = "probed[1:n:2"
    _edited(monkeypatch, "_sweep_block", diagonal, diagonal)
    height = "_tile_height(rows, cols, grids)"  # one copy of _Tiles, which three mutants edit
    _edited(monkeypatch, "_Tiles", height, height)
    edges = "np.full(M, n - 1)"
    _edited(monkeypatch, "_Block", edges, edges)
    stream = "divmod(row, R)"
    _edited(monkeypatch, "_zero_blocks", stream, stream)
    gamma = '(mine, values["gamma"])'
    _edited(monkeypatch, "_audited_chunk", gamma, gamma, module=checks)
    placed = "values[size][replicates] = row"
    assemble = _edited(monkeypatch, "assemble_result", placed, placed, module=mcharness)
    monkeypatch.setattr(checks, "assemble_result", assemble)
    sticky = "float((num >> shift) | 1)"
    table = _edited(monkeypatch, "ReturnProbTable", sticky, sticky, module=exactprob)
    monkeypatch.setattr(exactprob, "_TABLE", table.build())
    mask = "np.less_equal("
    _edited(monkeypatch, "_p_blocks", mask, mask, module=exactprob)
    split = "h = n // 2 - n // 2 % 8"
    _edited(monkeypatch, "_pairwise", split, split, module=exactprob)
    test_exactprob.test_sum_bits_are_pinned("gamma_mean_exact", exactprob.GAMMA_SUM_CEILING)
    test_exactprob.test_sum_bits_are_pinned("delta_mean_exact", exactprob.MEAN_SUM_CEILING)
    test_exactprob.test_the_tree_walk_adds_as_np_sum_does(monkeypatch, 131_084, exactprob.CHUNK_CELLS)
    assert _verdict("oracle-equivalence")
    assert _verdict("crossing-decomposition")
    assert _verdict("return-probability")
    assert _verdict("determinism")
    test_walkstats.test_band_seams_equal_brute_force((65, 70))
    test_walkstats.test_band_seams_equal_brute_force((9, 70))
    test_walkstats.test_segment_audit_counts_where_the_edge_zero_flag_matters()
    test_walkstats.TestDecompositionAudit().test_random_fields_pass()
    test_walkstats.TestDecompositionAudit().test_product_recount_matches_upcrossing_times_per_row()
    for _, kill in _AUDIT_RULE_EDITS.values():
        kill(test_walkstats.TestDecompositionAudit())
    test_walkstats.TestSweepFrozenExamples().test_alternating_columns_four_by_four()
    test_walkstats.TestSweepFrozenExamples().test_all_plus_grid_has_no_zeros_and_one_unit_cell(256)
    test_walkstats.test_zero_set_counts_of_a_block_equal_each_streams_lone_count(5 * 192)
    test_walkstats.test_fold_equals_dense_recount_across_word_and_block_edges(65, False)
    test_walkstats.test_fold_at_the_ceiling_width(walkstats.SWEEP_CEILING)
    test_exactprob.TestReturnProbExact().test_table_floats_are_the_rounded_quotients()
    test_acceptance.test_audited_run_equals_run_experiment(
        test_acceptance._zero_count_config, 1, []
    )


def test_a_mutant_calls_a_callee_patched_after_the_edit(monkeypatch):
    # a copy that ran in a snapshot of the module's namespace kept calling the
    # _audit_rows it saw when it was made, so this patch never reached it
    diagonal = "probed[1:n:2"
    mutant = _edited(monkeypatch, "_sweep_block", diagonal, diagonal)
    real, calls = walkstats._audit_rows, []

    def recorded(block, n, t):
        calls.append(n)
        return real(block, n, t)

    monkeypatch.setattr(walkstats, "_audit_rows", recorded)
    walkstats.sweep_roots(randfield.field_roots(0, [0, 1]), (8, 4), (walkstats.AUDIT,))
    assert walkstats._sweep_block is mutant
    assert calls == [8, 4]  # one block, each size once


class TestSweepBlockEdits:
    @pytest.fixture(autouse=True, params=sorted(_SWEEP_BLOCK_EDITS))
    def mutant(self, request, monkeypatch, stub_hash):
        name, old, new = _SWEEP_BLOCK_EDITS[request.param]
        _edited(monkeypatch, name, old, new)

    def test_killed_by_check_10(self):
        assert not _verdict("oracle-equivalence")

    def test_killed_by_the_frozen_example(self):
        with pytest.raises(AssertionError):
            test_walkstats.TestSweepFrozenExamples().test_alternating_columns_four_by_four()

    def test_killed_by_every_field_at_n_4(self, monkeypatch, every_field):
        with pytest.raises(AssertionError):
            test_exhaustive.test_the_sweep_counts_every_field_as_the_recount_does(
                every_field, monkeypatch
            )


class TestSegmentEdits:
    @pytest.fixture(autouse=True, params=sorted(_SEGMENT_EDITS))
    def mutant(self, request, monkeypatch):
        name, old, new = _SEGMENT_EDITS[request.param]
        _edited(monkeypatch, name, old, new)

    @pytest.mark.parametrize("sizes", [(65, 70), (9, 70)], ids=str)
    def test_killed_by_the_band_seams(self, sizes):
        with pytest.raises(AssertionError):
            test_walkstats.test_band_seams_equal_brute_force(sizes)

    def test_killed_by_every_field_at_n_4(self, monkeypatch, every_field):
        with pytest.raises(AssertionError):
            test_exhaustive.test_the_sweep_counts_every_field_as_the_recount_does(
                every_field, monkeypatch
            )


class TestEdgeZeroFlagOneColumnLeft:
    """Each row's zero flag at edge ``n`` probed at column ``n - 1``; edge 1 clips to column 1.

    Survives check 9 and the band seams: only the lower side of the
    sandwich reads the flag, and it never binds on real fields.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        _edited(monkeypatch, "_Block", "np.full(M, n - 1)", "np.full(M, n - 2)")

    def test_killed_by_the_segment_counts(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_segment_audit_counts_where_the_edge_zero_flag_matters()

    def test_killed_by_the_dense_recounts_zero_rows(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_audit_zero_rows_equal_the_dense_recounts_zeros()

    def test_survives_the_band_seams(self):
        test_walkstats.test_band_seams_equal_brute_force((65, 70))

    def test_survives_every_field_at_n_4(self, monkeypatch, every_field):
        test_exhaustive.test_the_sweep_counts_every_field_as_the_recount_does(
            every_field, monkeypatch
        )


class TestTouchesAsNegativeProducts:
    """Touches counted as products ``< 0``, the strict crossings, not ``== 0``."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        touches = "np.equal(products, 0, out=touches)"
        _edited(monkeypatch, "_product_crossings", touches, "np.less(products, 0, out=touches)")

    def test_killed_by_the_upcrossing_oracle(self):
        audit = test_walkstats.TestDecompositionAudit()
        with pytest.raises(AssertionError):
            audit.test_product_recount_matches_upcrossing_times_per_row()

    def test_killed_by_the_sandwich_on_real_fields(self):
        with pytest.raises(AssertionError):
            test_walkstats.TestDecompositionAudit().test_random_fields_pass()

    def test_killed_by_every_field_at_n_4(self, monkeypatch, every_field):
        with pytest.raises(AssertionError):
            test_exhaustive.test_the_sweep_counts_every_field_as_the_recount_does(
                every_field, monkeypatch
            )


class TestProductCrossingsStrict:
    """The audit's product crossings counted as products ``< 0``, missing every touch of a zero.

    Check 9 kills it through ``run_checks``, on the grids of its own quick
    pass: each has a row whose recount falls short of its profile.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        crosses = "np.less_equal(products, 0, out=crosses)"
        _edited(monkeypatch, "_product_crossings", crosses, "np.less(products, 0, out=crosses)")

    def test_killed_by_check_9(self):
        (result,) = checks.run_checks("quick", 1, {"crossing-decomposition"})
        assert result.detail == (
            "crossing audit failed on 240 of 240 grids (N=64: 60, N=128: 60, N=256: 60, "
            "N=512: 60), 39624 failed conditions in all"
        )

    def test_survives_checks_8_and_10(self):
        assert _verdict("crossing-count-scaling")
        assert _verdict("oracle-equivalence")


class TestProductPlanesUnderTheLeftCell:
    """The audit's two product planes filed under each pair's left-hand cell, not its right.

    The ``n`` grid's recount then also counts the pair ``(n, n + 1)`` that
    leaves it; check 9 kills it through ``run_checks`` on its own quick
    grids, and no other check reads the audit.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        planes = "flags[slot[PRODUCT_CROSSINGS] :, :, :, "
        _edited(monkeypatch, "_sweep_block", planes + "1:]", planes + ":-1]")

    def test_killed_by_check_9(self):
        assert not _verdict("crossing-decomposition")


# one condition of the audit's per-row rule dropped from _sweep_block's reduce:
# (the text dropped, the TestDecompositionAudit call that kills it); dropping the
# totals' term instead is an equivalent mutant, since the per-row equality over
# the same rows implies it
_AUDIT_RULE_EDITS = {
    "profile-equality": (
        "crossings != profile, ",
        lambda audit: audit.test_a_crossing_moved_between_rows_fails_the_audit(),
    ),
    "lower-sandwich-bound": (
        "interior > touched, ",
        lambda audit: audit.test_misbooked_zeros_fail_the_sandwich("edge-zero-inside"),
    ),
    "upper-sandwich-bound": (
        ", touched > 2 * full",
        lambda audit: audit.test_misbooked_zeros_fail_the_sandwich("zeros-unbooked"),
    ),
}


@pytest.mark.parametrize("dropped", sorted(_AUDIT_RULE_EDITS))
def test_a_dropped_audit_condition_is_killed(monkeypatch, stub_hash, dropped):
    text, kill = _AUDIT_RULE_EDITS[dropped]
    _edited(monkeypatch, "_sweep_block", text, "")
    with pytest.raises(AssertionError):
        kill(test_walkstats.TestDecompositionAudit())


class TestAuditProductsInInt32:
    """The audit's adjacent products formed in the sums' int32, which wraps past ``2**31``."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch, stub_hash):
        _edited(monkeypatch, "_product_crossings", ", dtype=np.int64", "")

    def test_killed_by_the_all_plus_grid(self):
        frozen = test_walkstats.TestSweepFrozenExamples()
        with pytest.raises(AssertionError):
            frozen.test_all_plus_grid_has_no_zeros_and_one_unit_cell(256)


class TestZeroSetStreamOfAWiderBlock:
    """The zero-set reader decodes each zero's stream as if its block held one grid more.

    Zeros land under the wrong stream, and some under a stream past the
    block, whose counts then have rows of different lengths, which numpy
    refuses; either way the block's counts are not the lone streams'.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        _edited(monkeypatch, "_zero_blocks", "divmod(row, R)", "divmod(row, R + 1)")

    def test_killed_by_the_block_seams(self):
        with pytest.raises((AssertionError, ValueError)):
            test_walkstats.test_zero_set_counts_of_a_block_equal_each_streams_lone_count(5 * 192)


class TestTableWithoutTheStickyBit:
    """``ReturnProbTable.build`` rounds the top 60 bits of each numerator without the sticky 1.

    The dropped bits then round ties to even where the exact value lies
    above the tie: 34 of the 10001 table floats are one ulp low, the first
    at n = 166.  A process loads the table from its file, so the fixture
    installs the mutant's built table, what a file it wrote would hold.
    Check 1 requires every float to equal its rebuilt quotient, so it
    fails, and so does the table's own quotient test; the committed file
    no longer equals the mutant's build.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        sticky = "float((num >> shift) | 1)"
        unsticky = "float(num >> shift)"
        mutant = _edited(monkeypatch, "ReturnProbTable", sticky, unsticky, module=exactprob)
        monkeypatch.setattr(exactprob, "_TABLE", mutant.build())

    def test_killed_by_the_rounded_quotients(self):
        with pytest.raises(AssertionError):
            test_exactprob.TestReturnProbExact().test_table_floats_are_the_rounded_quotients()

    def test_killed_by_check_1(self):
        assert not _verdict("return-probability")

    def test_killed_by_the_committed_file(self):
        with pytest.raises(AssertionError):
            test_exactprob.TestTableFile().test_the_committed_table_is_the_build()


class TestCarryRowNotAdded:
    """Each tile's first row add skipped: a band starts again from ``S(start - 1, .) = 0``."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        adds = "zip(row_views, row_views[1 : b + 1])"
        _edited(monkeypatch, "_Tiles", adds, "zip(row_views[1:], row_views[2 : b + 1])")

    def test_killed_by_the_band_seams(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_band_seams_equal_brute_force((65, 70))

    def test_killed_by_the_simulate_pin(self, tmp_path):
        with pytest.raises(AssertionError):
            test_cli.TestBytePins().test_simulate_bytes_at_seed_zero(tmp_path, "gamma", "64", "40")

    def test_killed_by_check_10(self):
        # its block of 14 grids of N = 70 is read in tiles of 65 + 5 rows
        assert not _verdict("oracle-equivalence")


class TestShortBlockKeepsTheFullHeight:
    """A short last block, or a lone field, read in a full block's 8-row bands.

    The bytes do not depend on the tile height, so the byte pins cannot see
    it; only the seam test's height assertion does.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        height = "_tile_height(rows, cols, grids)"
        _edited(monkeypatch, "_Tiles", height, "tile_shape(rows, cols)[1]")

    def test_killed_by_the_band_seams(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_band_seams_equal_brute_force((65, 70))

    def test_survives_the_simulate_pin(self, tmp_path):
        test_cli.TestBytePins().test_simulate_bytes_at_seed_zero(tmp_path, "gamma", "64", "40")


class TestRowFoldBlockCarryDropped:
    """Every 64-cell block of a row starts again from ``S_row = 0``."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch, stub_hash):
        carry = "block_base -= self.block_bias\n"
        _edited(monkeypatch, "_Tiles", carry, "block_base[:] = -64\n")

    def test_killed_by_the_fold_widths(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_fold_equals_dense_recount_across_word_and_block_edges(65, False)

    def test_killed_by_the_ceiling_width(self):
        with pytest.raises(AssertionError):
            test_walkstats.test_fold_at_the_ceiling_width(walkstats.SWEEP_CEILING)

    def test_killed_by_the_render_pin(self, tmp_path):
        with pytest.raises(AssertionError):
            test_cli.TestBytePins().test_render_bytes_at_seed_seven(tmp_path)

    def test_killed_by_check_10(self):
        # its N = 70 grid has rows of two fold blocks
        assert not _verdict("oracle-equivalence")


class TestSharedPassFilesCrossingsAsGamma:
    """The shared pass of checks 7-9 files each grid's crossings where its gamma belongs.

    Check 7 is red from its exact slope whatever its Monte Carlo ratio
    reads, so its verdict cannot see this; check 8 reads the crossings and
    check 9 the audit, both intact.  The equality with ``run_experiment``
    kills it.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        gamma = '(mine, values["gamma"])'
        crossings = '(mine, values["z_crossings"])'
        _edited(monkeypatch, "_audited_chunk", gamma, crossings, module=checks)

    def test_killed_by_the_equality_with_run_experiment(self):
        with pytest.raises(AssertionError):
            test_acceptance.test_audited_run_equals_run_experiment(
                test_acceptance._zero_count_config, 1, []
            )

    def test_survives_checks_7_to_9(self):
        verdicts = {r.name: r.passed for r in checks.run_checks("quick", names=SHARED_PASS)}
        assert verdicts == {
            "zero-count-scaling": False,
            "crossing-count-scaling": True,
            "crossing-decomposition": True,
        }


class TestAssembleMisplacesValuesOfASplit:
    """Split into more than one task, each task's values land at its replicates reversed.

    One task places them right, so a result from one task, as every
    one-worker run takes, cannot see this; check 13 compares every split.
    """

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        placed = "values[size][replicates] = row"
        one_task = "replicates if len(replicates) == config.replicates else replicates[::-1]"
        misplaced = f"values[size][{one_task}] = row"
        mutant = _edited(monkeypatch, "assemble_result", placed, misplaced, module=mcharness)
        monkeypatch.setattr(checks, "assemble_result", mutant)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_by_check_13(self, inline_pool, workers):
        assert not _verdict("determinism", workers)

    def test_survives_check_8_at_one_worker(self):
        (result,) = checks.run_checks("quick", 1, {"crossing-count-scaling"})
        assert result.passed



def _refused_before_a_pool_opens(tmp_path, capsys, inline_pool, stat, sizes, message):
    """The ``simulate`` test of a grid past its ceiling, on one case of its table."""
    simulate = test_cli.TestSimulateCommand()
    simulate.test_a_grid_past_its_ceiling_is_refused_before_a_pool_opens(
        tmp_path, capsys, inline_pool, stat, sizes, message
    )


class TestRunExperimentWithoutItsGate:
    """Mutant of :func:`mcharness.run_experiment`: no task of no replicates runs first."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        gate = "    _worker_chunk((config, np.arange(0)))\n"
        _edited(monkeypatch, "run_experiment", gate, "", module=mcharness)

    def test_killed_by_the_pool_gate(self, tmp_path, capsys, inline_pool):
        # the tasks still refuse the grid, but only on the pool they opened
        message = f"sweep capped at N={walkstats.SWEEP_CEILING}, got 32769"
        with pytest.raises(AssertionError):
            _refused_before_a_pool_opens(tmp_path, capsys, inline_pool, "gamma", "32769", message)


class TestDeltaFastTaskWithoutItsSizeCheck:
    """Mutant of :func:`mcharness._worker_chunk`: the delta-fast branch checks its
    sizes only in each replicate's draw, so a task of no replicates checks none."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        _edited(monkeypatch, "_worker_chunk", "check_diag_sizes(sizes)", "pass", module=mcharness)

    def test_killed_by_the_pool_gate(self, tmp_path, capsys, inline_pool):
        N = walkstats.DIAG_FAST_CEILING + 1
        message = f"diagonal draws capped at N={walkstats.DIAG_FAST_CEILING}, got {N}"
        with pytest.raises(AssertionError):
            _refused_before_a_pool_opens(
                tmp_path, capsys, inline_pool, "delta-fast", str(N), message
            )

    def test_survives_the_pool_gate_of_a_sweep(self, tmp_path, capsys, inline_pool):
        message = f"sweep capped at N={walkstats.SWEEP_CEILING}, got 32769"
        _refused_before_a_pool_opens(tmp_path, capsys, inline_pool, "gamma", "32769", message)
