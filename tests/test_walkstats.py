import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetwalk import walkstats
from sheetwalk.checks import _recount_twins
from sheetwalk.exactprob import CapacityError
from sheetwalk.randfield import RademacherField, Seed, StreamKey, signed_binomial_batch
from sheetwalk.walkstats import (
    COUNTERS,
    SWEEP_CEILING,
    annulus_counts,
    annulus_zero_check,
    audit_fields,
    brute_force_bundle,
    decomposition_audit,
    diag_zero_count,
    diag_zero_counts,
    iter_partial_rows,
    sweep_fields,
    sweep_grid,
    tile_shape,
    twin_zero_count,
    twin_zero_counts,
    zero_points,
)


def _upcrossing_times(values):
    """Oracle for one row: 1-based ``t`` with ``values[t-1] * values[t] <= 0``.

    Returns ``(times, zero_flags)``; a flag marks a crossing whose product
    is exactly zero.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-d sequence of values")
    prod = arr[:-1] * arr[1:]
    times = np.nonzero(prod <= 0)[0] + 1
    return times, prod[times - 1] == 0


class ConstantField:
    """Stub: every sign +1, so S(i,j) = i*j."""

    def value(self, i, j):
        return 1

    def row_signs(self, i, count):
        return np.ones(count, dtype=np.int64)


class AlternatingColumnsField:
    """Stub: +1 on odd columns, -1 on even, so S(i,j) = i*(j mod 2)."""

    def value(self, i, j):
        return 1 if j % 2 else -1

    def row_signs(self, i, count):
        signs = np.ones(count, dtype=np.int64)
        signs[1::2] = -1
        return signs


class AlternatingRowsField:
    """Stub: +1 on odd rows, -1 on even, so S(i,j) = j*(i mod 2): even rows vanish."""

    def value(self, i, j):
        return 1 if i % 2 else -1

    def row_signs(self, i, count):
        return np.full(count, 1 if i % 2 else -1, dtype=np.int64)


def field(seed=1, replicate=0):
    return RademacherField(StreamKey(Seed(seed), replicate))


def zero_tuples(f, rows, cols):
    """:func:`zero_points` in the oracle's form: a tuple of ``(i, j)`` tuples."""
    return tuple(map(tuple, zero_points(f, rows, cols).tolist()))


def _oracle_field(kind, seed):
    if kind == "real":
        return field(seed % 1000, seed % 7)
    return AlternatingColumnsField() if kind == "alternating" else ConstantField()


class TestSweepFrozenExamples:
    def test_all_plus_grid_has_no_zeros_and_one_unit_cell(self):
        b = sweep_grid(ConstantField(), 5)
        assert b.gamma == 0
        assert b.gamma_prime == 1  # only S(1,1) == 1
        assert b.z_crossings == 0
        assert b.delta == 0

    def test_alternating_columns_four_by_four(self):
        b = sweep_grid(AlternatingColumnsField(), 4)
        assert b.gamma == 8  # every even column vanishes
        assert b.z_crossings == 12  # every horizontal pair touches a zero
        assert b.delta == 2
        assert b.d_antidiag == 1  # only S(2,2) on the i+j=4 line
        assert b.row_profiles.tolist() == [3, 3, 3, 3]

    def test_zero_coordinates_collection(self):
        # the sweep keeps no coordinates; the zero-set reader lists them row-major
        points = zero_points(AlternatingColumnsField(), 3, 3)
        assert points.dtype == np.int64
        assert points.tolist() == [[1, 2], [2, 2], [3, 2]]
        assert zero_tuples(AlternatingColumnsField(), 2, 5) == ((1, 2), (1, 4), (2, 2), (2, 4))
        assert zero_points(ConstantField(), 4, 6).shape == (0, 2)
        assert brute_force_bundle(AlternatingColumnsField(), 3)[1] == ((1, 2), (2, 2), (3, 2))

    def test_zero_reader_checks_both_sides(self):
        with pytest.raises(ValueError):
            zero_points(field(), 4, 0)
        with pytest.raises(CapacityError):
            zero_points(field(), 4, SWEEP_CEILING + 1)
        with pytest.raises(CapacityError):
            zero_points(field(), SWEEP_CEILING + 1, 4)

    def test_profile_sums_to_crossings(self):
        b = sweep_grid(field(3), 64)
        assert int(b.row_profiles.sum()) == b.z_crossings

    def test_domain_and_capacity(self):
        with pytest.raises(ValueError):
            sweep_grid(field(), 0)
        with pytest.raises(CapacityError):
            sweep_grid(field(), SWEEP_CEILING + 1)

    def test_single_cell_grid(self):
        b = sweep_grid(field(2), 1)
        assert b.gamma == 0  # a lone sign is never zero
        assert b.z_crossings == 0
        assert b.row_profiles.tolist() == [0]


class TestPartialRows:
    def test_rows_are_prefix_sums(self):
        rows = {}
        for i, col in iter_partial_rows(AlternatingColumnsField(), 4):
            rows[i] = col.copy()  # buffer is reused; contract says copy
        assert rows[1].tolist() == [1, 0, 1, 0]
        assert rows[3].tolist() == [3, 0, 3, 0]

    def test_buffer_reuse_is_real(self):
        it = iter_partial_rows(ConstantField(), 3)
        _, first = next(it)
        _, second = next(it)
        assert first is second


class TestBruteForceOracle:
    def test_matches_sweep_on_stub(self):
        for N in (1, 2, 3, 4, 7):
            a = sweep_grid(AlternatingColumnsField(), N)
            b, zeros = brute_force_bundle(AlternatingColumnsField(), N)
            assert (a.gamma, a.gamma_prime, a.z_crossings, a.delta, a.d_antidiag) == (
                b.gamma,
                b.gamma_prime,
                b.z_crossings,
                b.delta,
                b.d_antidiag,
            )
            assert a.row_profiles.tolist() == b.row_profiles.tolist()
            assert zero_tuples(AlternatingColumnsField(), N, N) == zeros

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sweep_on_random_fields(self, seed):
        f = field(seed)
        a = sweep_grid(f, 17)
        b, zeros = brute_force_bundle(f, 17)
        assert a.gamma == b.gamma
        assert a.gamma_prime == b.gamma_prime
        assert a.z_crossings == b.z_crossings
        assert a.delta == b.delta
        assert a.d_antidiag == b.d_antidiag
        assert a.row_profiles.tolist() == b.row_profiles.tolist()
        assert zero_tuples(f, 17, 17) == zeros

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_bundle(field(), 257)


@given(seed=st.integers(0, 2**32), n=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_sweep_equals_brute_force(seed, n):
    f = field(seed)
    a, (b, _) = sweep_grid(f, n), brute_force_bundle(f, n)
    assert (a.gamma, a.z_crossings, a.delta) == (b.gamma, b.z_crossings, b.delta)


@given(seed=st.integers(0, 2**32), n=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_zeros_need_even_cell_area(seed, n):
    # S(i,j) sums i*j signs, so an odd-area cell can never vanish
    assert all((i * j) % 2 == 0 for i, j in zero_points(field(seed), n, n).tolist())


def _bundle_key(b):
    return (
        b.N, b.gamma, b.gamma_prime, b.z_crossings, b.delta, b.d_antidiag,
        b.row_profiles.tolist(),
    )


@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 70),
    stride=st.integers(1, 3),
    count=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_tile_kernel_equals_brute_force(seed, n, stride, count, data):
    # a worker's replicates r = w, w + W, ...; tile caps from one row per
    # tile (rows need not divide n) up to several whole grids per tile
    worker = data.draw(st.integers(0, stride - 1), label="worker")
    cap = data.draw(st.integers(1, 3 * n * n), label="cap")
    fields = [field(seed, worker + k * stride) for k in range(count)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        grids, rows = tile_shape(n)
        assert grids * rows * n <= max(cap, n)
        bundles = [b for (b,) in sweep_fields(fields, (n,))]
        zeros = [zero_tuples(f, n, n) for f in fields]
    oracles = [brute_force_bundle(f, n) for f in fields]
    assert [_bundle_key(b) for b in bundles] == [_bundle_key(b) for b, _ in oracles]
    assert zeros == [coords for _, coords in oracles]


@pytest.mark.parametrize("n,cap", [(17, 3 * 17 + 1), (9, 1), (12, 2 * 144)])
def test_partial_rows_across_tile_seams(n, cap):
    f = field(6)
    signs = np.array([[f.value(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    dense = signs.cumsum(axis=0).cumsum(axis=1)
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        rows = [(i, col.copy()) for i, col in iter_partial_rows(f, n)]
    assert [i for i, _ in rows] == list(range(1, n + 1))
    assert all(np.array_equal(col, dense[i - 1]) for i, col in rows)


def test_stub_fields_sweep_in_blocks():
    with mock.patch.object(walkstats, "TILE_CELLS", 40):
        stubs = [AlternatingColumnsField(), ConstantField()]
        bundles = [b for (b,) in sweep_fields(stubs, (4,))]
    assert _bundle_key(bundles[0]) == _bundle_key(sweep_grid(AlternatingColumnsField(), 4))
    assert _bundle_key(bundles[1]) == _bundle_key(sweep_grid(ConstantField(), 4))


@given(
    seed=st.integers(0, 2**32),
    sizes=st.lists(
        st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=5, unique=True
    ),
    count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_nested_sizes_equal_one_size_sweeps(seed, sizes, count, data):
    # sizes arrive unsorted; one sweep at the largest edge, tile caps from one
    # cell (one row per tile, rows need not divide the edge) to several grids
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [field(seed, r) for r in range(count)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        nested = list(sweep_fields(fields, sizes))
    assert len(nested) == count
    for f, bundles in zip(fields, nested):
        assert [b.N for b in bundles] == sizes
        assert [_bundle_key(b) for b in bundles] == [
            _bundle_key(sweep_grid(f, n)) for n in sizes
        ]


@pytest.mark.parametrize("sizes", [(1, 2), (2, 1, 3), (3, 2)], ids=str)
@pytest.mark.parametrize("whole_grids", [False, True], ids=["cap-1", "cap-n2"])
@pytest.mark.parametrize("kind", ["real", "stub"])
def test_adjacent_edges_equal_brute_force(sizes, whole_grids, kind):
    # edges one apart: one-column segments, and size 1 has no pair to
    # cross at all; one row per tile, or every grid in one tile
    if kind == "real":
        fields = [field(seed, r) for seed in range(4) for r in range(3)]
    else:
        fields = [AlternatingColumnsField(), ConstantField(), AlternatingColumnsField()]
    cap = max(sizes) ** 2 if whole_grids else 1
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        swept = list(sweep_fields(fields, sizes))
    assert len(swept) == len(fields)
    for f, bundles in zip(fields, swept):
        assert [_bundle_key(b) for b in bundles] == [
            _bundle_key(brute_force_bundle(f, n)[0]) for n in sizes
        ]


def test_nested_sweep_needs_valid_sizes():
    with pytest.raises(ValueError):
        list(sweep_fields([field()], ()))
    with pytest.raises(ValueError):
        list(sweep_fields([field()], (4, 0)))
    with pytest.raises(CapacityError):
        list(sweep_fields([field()], (4, SWEEP_CEILING + 1)))


@given(
    seed=st.integers(0, 2**32),
    sizes=st.lists(
        st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=5, unique=True
    ),
    count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_audit_fields_equal_the_sweep_and_the_one_field_audit(seed, sizes, count, data):
    # unsorted sizes, tile caps from one cell to several grids; the audited
    # pass gives the sweep's bundles and each field's own audit verdict
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [field(seed, r) for r in range(count)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        audited = list(audit_fields(fields, sizes))
        swept = list(sweep_fields(fields, sizes))
        verdicts = [decomposition_audit(f, top, sizes)[1] for f in fields]
    assert len(audited) == count
    for (bundles, ok), plain, verdict in zip(audited, swept, verdicts):
        assert [b.N for b in bundles] == sizes
        assert [_bundle_key(b) for b in bundles] == [_bundle_key(b) for b in plain]
        assert ok is verdict is True

    # one profile entry of the first field off by one: only its verdict turns red
    size = data.draw(st.sampled_from(sizes), label="size")
    row = data.draw(st.integers(0, size - 1), label="row")
    real = walkstats._sweep_block
    first = []

    def corrupted(fields, plan):
        out = real(fields, plan)
        if not first:
            first.append(out[0][plan.sizes.index(size)].row_profiles)
            first[0][row] += 1
        return out

    with mock.patch.object(walkstats, "TILE_CELLS", cap), mock.patch.object(
        walkstats, "_sweep_block", corrupted
    ):
        verdicts = [ok for _, ok in audit_fields(fields, sizes)]
    assert verdicts == [False] + [True] * (count - 1)


def _counter_values(b, counters):
    """The bundle's ``counters``, plus ``row_profiles`` when ``z_crossings`` is among them."""
    values = {c: getattr(b, c) for c in counters}
    if "z_crossings" in counters:
        values["row_profiles"] = b.row_profiles.tolist()
    return values


@given(
    kinds=st.lists(st.sampled_from(["real", "alternating", "constant"]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
    counters=st.sets(st.sampled_from(COUNTERS), min_size=1),
    sizes=st.lists(st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_selected_counters_equal_brute_force(kinds, seed, counters, sizes, data):
    # a sweep fills only the planes its counters read: each counter asked for
    # equals the dense recount, every other one is None; unsorted nested
    # sizes, tile caps from one cell to three grids, real fields and both
    # row_signs stubs
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [_oracle_field(kind, seed + r) for r, kind in enumerate(kinds)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        swept = list(sweep_fields(fields, sizes, counters))
    assert len(swept) == len(fields)
    unread = set(COUNTERS) - counters
    for f, bundles in zip(fields, swept):
        assert [b.N for b in bundles] == sizes
        for b in bundles:
            assert all(getattr(b, c) is None for c in unread)
            assert (b.row_profiles is None) == ("z_crossings" in unread)
        assert [_counter_values(b, counters) for b in bundles] == [
            _counter_values(brute_force_bundle(f, n)[0], counters) for n in sizes
        ]


@pytest.mark.parametrize(
    "counters,audit,planes",
    [
        (("gamma",), False, [walkstats.ZEROS]),
        (("gamma_prime",), False, [walkstats.ONES]),
        (("z_crossings",), False, [walkstats.CROSSINGS]),
        (("delta",), False, []),
        (("d_antidiag",), False, []),
        (("gamma", "delta"), False, [walkstats.ZEROS]),
        (("delta",), True, [0, 2, 3, 4]),
        (COUNTERS, True, [0, 1, 2, 3, 4]),
    ],
    ids=str,
)
def test_plan_fills_only_the_planes_read(counters, audit, planes):
    plan = walkstats._SweepPlan((64, 16), frozenset(counters), audit=audit)
    assert plan.planes == planes
    assert plan.flags.size == len(planes) * 64 * 64 * tile_shape(64)[0]
    assert hasattr(plan, "signs") == (walkstats.CROSSINGS in planes)  # the int8 sign pass
    assert hasattr(plan, "diagonal") == ("delta" in counters)


def test_counters_are_checked():
    with pytest.raises(ValueError):
        list(sweep_fields([field()], (4,), ()))
    with pytest.raises(ValueError):
        list(sweep_fields([field()], (4,), ("gamma", "zeros")))
    with pytest.raises(ValueError):
        list(audit_fields([field()], (4,), ("crossings",)))


@given(
    seed=st.integers(0, 2**32),
    counter=st.sampled_from(COUNTERS),
    sizes=st.lists(st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=4, unique=True),
    count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_one_counter_audit_gives_the_full_verdicts(seed, counter, sizes, count, data):
    # the audit sweeps what it reads whatever the caller reads, so its verdict,
    # green or turned red by a corrupted profile, is that of the full audit
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [field(seed, r) for r in range(count)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        one = list(audit_fields(fields, sizes, (counter,)))
        full = list(audit_fields(fields, sizes))
    assert [ok for _, ok in one] == [ok for _, ok in full] == [True] * count
    for (bundles, _), (whole, _) in zip(one, full):
        assert [_counter_values(b, {counter}) for b in bundles] == [
            _counter_values(b, {counter}) for b in whole
        ]
        assert all(getattr(b, c) is None for b in bundles for c in set(COUNTERS) - {counter})

    size = data.draw(st.sampled_from(sizes), label="size")
    row = data.draw(st.integers(0, size - 1), label="row")
    real = walkstats._sweep_block

    def corrupted(fields, plan):
        out = real(fields, plan)
        out[0][plan.sizes.index(size)].row_profiles[row] += 1
        return out

    with mock.patch.object(walkstats, "TILE_CELLS", cap), mock.patch.object(
        walkstats, "_sweep_block", corrupted
    ):
        one = [ok for _, ok in audit_fields(fields, sizes, (counter,))]
        full = [ok for _, ok in audit_fields(fields, sizes)]
    # each block's first field is corrupted, so the verdicts agree block by block
    assert one == full
    assert not one[0]


def _dense_sums(f, n):
    """``S(i, j)`` on ``[1, n]^2`` from the field's rows, as an ``(n, n)`` int64 array."""
    signs = np.array([f.row_signs(i, n) for i in range(1, n + 1)], dtype=np.int64)
    return signs.cumsum(axis=0).cumsum(axis=1)


def _audit_oracle(sums, n):
    """The audit's per-size rule on dense sums, one ``count_nonzero`` per quantity.

    Per row of the ``n`` grid: adjacent products ``<= 0``, products ``== 0``,
    zeros over ``[1, n-1]`` and zeros over ``[1, n]``.
    """
    grid = sums[:n, :n]
    products = grid[:, :-1] * grid[:, 1:]
    interior = np.count_nonzero(grid[:, : n - 1] == 0, axis=1)
    return (
        np.count_nonzero(products <= 0, axis=1),
        np.count_nonzero(products == 0, axis=1),
        interior,
        interior + (grid[:, n - 1] == 0),
    )


@given(
    kinds=st.lists(st.sampled_from(["real", "alternating", "constant"]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
    sizes=st.one_of(
        st.sampled_from([[1, 2], [2, 1, 3], [3, 2]]),
        st.lists(st.one_of(st.just(1), st.integers(2, 40)), min_size=1, max_size=4, unique=True),
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_segment_audit_counts_equal_the_per_size_rule(kinds, seed, sizes, data):
    # per row of every grid, the counts read off the sweep's segments equal the
    # per-size count_nonzero rule; unsorted sizes, adjacent edges, tile caps
    # from one cell to three grids, real fields and both row_signs stubs
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [_oracle_field(kind, seed + r) for r, kind in enumerate(kinds)]
    # per size and block: recount, touched, zeros over [1, n-1] and over [1, n]
    seen = {n: [] for n in sizes}
    real = walkstats._audit_rows

    def recorded(plan, R, n, t):
        counts = real(plan, R, n, t)
        seen[n].append([c.copy() for c in counts])
        return counts

    with mock.patch.object(walkstats, "TILE_CELLS", cap), mock.patch.object(
        walkstats, "_audit_rows", recorded
    ):
        verdicts = [ok for _, ok in audit_fields(fields, sizes)]
    assert verdicts == [True] * len(fields)
    for n in sizes:
        got = [np.concatenate(blocks, axis=1) for blocks in zip(*seen[n])]  # each (n, fields)
        for r, f in enumerate(fields):
            want = _audit_oracle(_dense_sums(f, top), n)
            assert [g[:, r].tolist() for g in got] == [w.tolist() for w in want]


class TestDecompositionAudit:
    def test_random_fields_pass(self):
        for seed in range(5):
            bundle, ok = decomposition_audit(field(seed), 48)
            assert ok
            assert bundle.z_crossings == int(bundle.row_profiles.sum())

    def test_stub_field_passes(self):
        _, ok = decomposition_audit(AlternatingColumnsField(), 16)
        assert ok

    def test_single_column_grid(self):
        _, ok = decomposition_audit(field(3), 1)
        assert ok

    def test_nested_grids_pass_from_one_sweep(self):
        with mock.patch.object(walkstats, "TILE_CELLS", 5 * 40):
            bundle, ok = decomposition_audit(field(4), 40, (17, 1, 40, 8))
        assert ok
        assert _bundle_key(bundle) == _bundle_key(sweep_grid(field(4), 40))

    def test_nested_edges_beyond_the_sweep_are_rejected(self):
        with pytest.raises(ValueError):
            decomposition_audit(field(), 16, (8, 32))

    def test_product_recount_matches_upcrossing_times_per_row(self):
        n = 45
        rows = np.array([col.copy() for _, col in iter_partial_rows(field(8), n)])
        rows[3, 7] = 0  # make sure some products vanish exactly
        products = np.empty((n, n - 1), dtype=np.int64)
        crosses, touches = np.empty((2, n, n - 1), dtype=bool)
        walkstats._product_crossings(rows, products, crosses, touches)
        assert np.array_equal(products, rows[:, :-1] * rows[:, 1:])
        for row, cross, touch in zip(rows, crosses, touches):
            times, flags = _upcrossing_times(row)
            assert np.nonzero(cross)[0].tolist() == (times - 1).tolist()
            assert touch[times - 1].tolist() == flags.tolist()
            assert not touch[~cross].any()

    @pytest.mark.parametrize("size,shift", [(12, (1,)), (30, (1, -1)), (7, (-1,))])
    def test_corrupted_profile_fails_the_audit(self, size, shift):
        # a profile entry off by one, with or without the grid total kept,
        # in any of the nested grids, must turn the verdict red
        real = walkstats._sweep_block

        def corrupted(fields, plan):
            out = real(fields, plan)
            profile = out[0][plan.sizes.index(size)].row_profiles
            for row, delta in enumerate(shift, start=2):
                profile[row] += delta
            return out

        assert decomposition_audit(field(9), 30, (7, 12))[1]
        with mock.patch.object(walkstats, "_sweep_block", corrupted):
            assert not decomposition_audit(field(9), 30, (7, 12))[1]
            # an audit that reports one counter still audits the profiles
            for counter in COUNTERS:
                ((_, ok),) = audit_fields([field(9)], (7, 12, 30), (counter,))
                assert not ok


    @pytest.mark.parametrize("misbooking", ["edge-zero-inside", "zeros-unbooked"])
    def test_misbooked_zeros_fail_the_sandwich(self, misbooking):
        # even rows of the stub vanish, so n - 1 pairs touch a zero and both
        # sides of the sandwich are tight; the profiles and totals stay right,
        # so only the sandwich can turn the verdict red
        real = walkstats._sweep_block

        def misbooked(fields, plan):
            out = real(fields, plan)
            R = len(fields)
            if misbooking == "edge-zero-inside":  # the zero at column n counted in [1, n-1]
                plan.edge_zero_flags(R)[...] = False
            else:  # no zero booked on any segment: touches exceed twice the zeros
                plan.segment_counts(R)[walkstats.ZEROS] = 0
            return out

        stub = AlternatingRowsField()
        bundle, ok = decomposition_audit(stub, 6, (3,))
        assert ok and bundle.row_profiles.tolist() == [0, 5, 0, 5, 0, 5]
        with mock.patch.object(walkstats, "_sweep_block", misbooked):
            bundle, ok = decomposition_audit(stub, 6, (3,))
        assert not ok
        assert bundle.row_profiles.tolist() == [0, 5, 0, 5, 0, 5]


class TestUpcrossingTimes:
    def test_pinned_hand_worked_sequences(self):
        times, flags = _upcrossing_times([1, -1, -1, 1])
        assert times.tolist() == [1, 3]
        assert flags.tolist() == [False, False]

        times, flags = _upcrossing_times([2, 0, -2])
        assert times.tolist() == [1, 2]
        assert flags.tolist() == [True, True]

        times, flags = _upcrossing_times([1, 1, 1, 1])
        assert times.tolist() == []
        assert flags.tolist() == []

    def test_empty_is_a_domain_error(self):
        with pytest.raises(ValueError):
            _upcrossing_times([])

    def test_agrees_with_row_profiles(self):
        f = field(5)
        b = sweep_grid(f, 32)
        for i, col in iter_partial_rows(f, 32):
            times, _ = _upcrossing_times(col)
            assert times.size == b.row_profiles[i - 1]


class TestDiagZeroCount:
    def test_empty_grid(self):
        assert diag_zero_count(StreamKey(Seed(1), 0), 0) == 0
        assert diag_zero_count(StreamKey(Seed(1), 0), 1) == 0

    def test_deterministic(self):
        key = StreamKey(Seed(9), 5)
        assert diag_zero_count(key, 500) == diag_zero_count(key, 500)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            diag_zero_count(StreamKey(Seed(1), 0), -2)
        with pytest.raises(ValueError):
            diag_zero_counts(StreamKey(Seed(1), 0), (20, -2))

    @pytest.mark.parametrize("N", [2, 3, 40, 41, 999])
    def test_counts_the_zeros_of_the_diagonal_walk(self, N):
        # oracle: the walk S(2k, 2k), k = 1..N // 2, from one batch of its own size
        key = StreamKey(Seed(N), 1)
        increments = signed_binomial_batch(key, 8 * np.arange(1, N // 2 + 1) - 4)
        assert diag_zero_count(key, N) == int(np.count_nonzero(np.cumsum(increments) == 0))

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_nested_sizes_equal_one_size_draws(self, seed):
        # one draw at the largest size; each size counts the zeros of its prefix
        key = StreamKey(Seed(seed), seed % 3)
        sizes = (2000, 0, 1, 20, 3, 200, 1999)
        assert diag_zero_counts(key, sizes) == [diag_zero_count(key, n) for n in sizes]
        assert diag_zero_counts(key, (1, 0)) == [0, 0]

    def test_distribution_matches_sweep_law(self):
        # same mean as the pathwise delta across replicates, loose 5-sigma band
        key_vals = [diag_zero_count(StreamKey(Seed(3), r), 40) for r in range(400)]
        sweep_vals = [
            sweep_grid(RademacherField(StreamKey(Seed(4), r)), 40).delta
            for r in range(400)
        ]
        diff = np.mean(key_vals) - np.mean(sweep_vals)
        scale = np.sqrt((np.var(key_vals) + np.var(sweep_vals)) / 400)
        assert abs(diff) < 5 * scale


class TestTwinZeros:
    def test_frozen_example(self):
        assert twin_zero_count(AlternatingColumnsField(), 0.5, 6, 100) == 8

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            twin_zero_count(field(), 0.5, 6, 0)

    def test_eps_domain(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                twin_zero_count(field(), eps, 6, 2)

    def test_tiny_grids_have_no_wedge(self):
        assert twin_zero_count(field(1), 0.5, 2, 3) == 0

    def test_radius_one_requires_adjacent_zero(self):
        # wedge zeros of the alternating stub sit at even columns with odd
        # neighbors nonzero, so the only companions at L1 distance 1 are the
        # vertical ones, which always exist
        assert twin_zero_count(AlternatingColumnsField(), 0.5, 6, 1) == 8

    @pytest.mark.parametrize(
        "seed,eps,N,radius",
        [(310, 0.3, 6, 2), (313, 0.45, 3, 2), (986, 0.3, 6, 2), (12, 0.8, 5, 2), (14, 0.7, 5, 2)],
    )
    def test_companions_at_the_band_edges(self, seed, eps, N, radius):
        # the first three have wedge zeros near column 1 and a zero at the end
        # of the row above, which zero codes spaced too closely would count as
        # a companion; the last two have wedge zeros whose only companion lies
        # in the band's extra columns past the wedge
        f = field(seed)
        assert twin_zero_count(f, eps, N, radius) == _recount_twins(f, eps, N, radius)

    @given(
        kind=st.sampled_from(["real", "alternating", "constant"]),
        seed=st.integers(0, 2**32),
        eps=st.floats(0.25, 0.95),
        radius=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_recount(self, kind, seed, eps, radius, data):
        # nested unsorted sizes read from one band, tile caps from one cell
        # (one row per tile) to three bands; the stubs' dense zero sets keep
        # their quadratic recount small only on small grids
        f = _oracle_field(kind, seed)
        top = 70 if kind == "real" else 12
        sizes = data.draw(
            st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True), label="sizes"
        )
        M = max(sizes)
        band = (M - 1 + radius) * (math.ceil((M - 1) / eps) - 1 + radius)
        cap = data.draw(st.integers(1, max(1, 3 * band)), label="cap")
        with mock.patch.object(walkstats, "TILE_CELLS", cap):
            counts = twin_zero_counts(f, eps, sizes, radius)
        assert counts == [_recount_twins(f, eps, n, radius) for n in sizes]
        assert twin_zero_count(f, eps, M, radius) == counts[sizes.index(M)]


class TestAnnulus:
    def test_frozen_example(self):
        assert annulus_zero_check(AlternatingColumnsField(), 0.5, 4) == (True, 6)

    def test_no_zero_case(self):
        assert annulus_zero_check(ConstantField(), 0.5, 8) == (False, 0)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            annulus_zero_check(field(), 1.0, 8)
        with pytest.raises(ValueError):
            annulus_counts(field(), 0.0, (8, 16))

    @given(
        kind=st.sampled_from(["real", "alternating", "constant"]),
        seed=st.integers(0, 2**32),
        eps=st.floats(0.01, 0.99),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_agrees_with_zero_coordinates(self, kind, seed, eps, data):
        # nested unsorted sizes from one read of the largest grid, and the
        # reader's points on rectangles inside it, against the dense oracle;
        # tile caps from one cell to three grids
        f = _oracle_field(kind, seed)
        sizes = data.draw(
            st.lists(st.integers(1, 70), min_size=1, max_size=4, unique=True), label="sizes"
        )
        M = max(sizes)
        rows = data.draw(st.integers(1, M), label="rows")
        cols = data.draw(st.integers(1, M), label="cols")
        cap = data.draw(st.integers(1, 3 * M * M), label="cap")
        with mock.patch.object(walkstats, "TILE_CELLS", cap):
            counts = annulus_counts(f, eps, sizes)
            zeros = zero_tuples(f, rows, cols)
        _, oracle = brute_force_bundle(f, M)
        expected = []
        for n in sizes:
            lo = math.ceil(eps * n)
            expected.append(sum(1 for i, j in oracle if lo <= i <= n and lo <= j <= n))
        assert counts == expected
        assert zeros == tuple((i, j) for i, j in oracle if i <= rows and j <= cols)
        largest = expected[sizes.index(M)]
        assert annulus_zero_check(f, eps, M) == (largest > 0, largest)

    def test_sizes_are_checked(self):
        with pytest.raises(ValueError):
            annulus_counts(field(), 0.5, (8, 0))
        with pytest.raises(CapacityError):
            annulus_counts(field(), 0.5, (8, SWEEP_CEILING + 1))
