import math
import re
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import PlaneField, StubField, audit_roots
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetwalk import exactprob, walkstats
from sheetwalk.checks import _recount_twins
from sheetwalk.exactprob import CapacityError
from sheetwalk.randfield import (
    RademacherField,
    Seed,
    StreamKey,
    field_roots,
    sign_rows,
    signed_binomial_batch,
)
from sheetwalk.walkstats import (
    COUNTERS,
    DIAG_FAST_CEILING,
    SWEEP_CEILING,
    annulus_counts,
    annulus_zero_check,
    brute_force_bundle,
    decomposition_audit,
    dense_sums,
    diag_zero_count,
    diag_zero_counts,
    iter_partial_rows,
    render_zero_set,
    sweep_grid,
    sweep_roots,
    tile_shape,
    twin_zero_count,
    twin_zero_counts,
    zero_points,
)

# every stub below reaches the sweep through the hash, as a tagged root
pytestmark = pytest.mark.usefixtures("stub_hash")


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


class ConstantField(StubField):
    """Stub: every sign +1, so S(i,j) = i*j."""

    @staticmethod
    def positive(i, j):
        return i > 0


class AlternatingColumnsField(StubField):
    """Stub: +1 on odd columns, -1 on even, so S(i,j) = i*(j mod 2)."""

    @staticmethod
    def positive(i, j):
        return j % 2 == 1


class AlternatingRowsField(StubField):
    """Stub: +1 on odd rows, -1 on even, so S(i,j) = j*(i mod 2): even rows vanish."""

    @staticmethod
    def positive(i, j):
        return i % 2 == 1


def field(seed=1, replicate=0):
    return RademacherField(StreamKey(Seed(seed), replicate))


def _roots(fields):
    """The fields' roots, stub tags among them, as one ``uint64`` array of streams."""
    return np.array([f.root for f in fields], dtype=np.uint64)


def _brute(f, n):
    return brute_force_bundle(f, n)[0]


def _layout(bundle_of, fields, sizes, counters=COUNTERS):
    """The counters of ``bundle_of(f, n)`` laid out as :func:`sweep_roots` returns them.

    A dict of ``(len(sizes), len(fields))`` nested lists, one per counter.
    """
    bundles = [[bundle_of(f, n) for f in fields] for n in sizes]
    return {c: [[getattr(b, c) for b in row] for row in bundles] for c in counters}


def _lists(swept):
    """A dict of counter arrays as nested lists."""
    return {c: values.tolist() for c, values in swept.items()}


def zero_tuples(f, rows, cols):
    """:func:`zero_points` in the oracle's form: a tuple of ``(i, j)`` tuples."""
    return tuple(map(tuple, zero_points(f, rows, cols).tolist()))


def _oracle_field(kind, seed):
    if kind == "real":
        return field(seed % 1000, seed % 7)
    return AlternatingColumnsField() if kind == "alternating" else ConstantField()


class TestSweepFrozenExamples:
    @pytest.mark.parametrize("N", [5, 256])
    def test_all_plus_grid_has_no_zeros_and_one_unit_cell(self, N):
        b = sweep_grid(ConstantField(), N)
        assert b.gamma == 0
        assert b.gamma_prime == 1  # only S(1,1) == 1
        assert b.z_crossings == 0
        assert b.delta == 0
        # S = i * j, so at N = 256 the audit's adjacent products reach about 4.3e9, past 2**31
        audited, ok = decomposition_audit(ConstantField(), N)
        assert ok and audited.z_crossings == 0

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

    @pytest.mark.parametrize(
        "N, named",
        [(4.5, "grid edge must be an integer, got 4.5"), (-1, "grid edge must be >= 1, got -1")],
    )
    def test_a_bad_edge_is_refused_by_name(self, N, named):
        # the edge is checked before the row buffer is made of it
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            list(iter_partial_rows(ConstantField(), N))


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

    def test_reads_no_sweep_code(self, monkeypatch):
        # the dense table comes from the scalar value alone, so the oracles
        # agree with the sweep with its hash, tiles and reduce all gone
        f = field(5)
        swept, zeros = sweep_grid(f, 24), zero_tuples(f, 24, 24)
        twins = twin_zero_count(f, 0.5, 9, 3)

        def unread(*args):
            raise AssertionError("a dense oracle called the sweep")

        for name in ("sign_rows", "_Tiles", "_sweep_block"):
            monkeypatch.setattr(walkstats, name, unread)
        b, dense_zeros = brute_force_bundle(f, 24)
        assert [getattr(b, c) for c in COUNTERS] == [getattr(swept, c) for c in COUNTERS]
        assert b.row_profiles.tolist() == swept.row_profiles.tolist()
        assert dense_zeros == zeros
        assert _recount_twins(f, 0.5, 9, 3) == twins

    def test_dense_sums_of_any_rectangle(self):
        f = field(4)
        whole = dense_sums(f, 6, 9)
        assert whole.dtype == np.int64
        assert np.array_equal(dense_sums(f, 4, 3), whole[:4, :3])  # prefix-consistent
        assert dense_sums(f, 0, 5).shape == (0, 5)
        assert dense_sums(f, 5, 0).shape == (5, 0)
        assert dense_sums(AlternatingColumnsField(), 2, 4).tolist() == [[1, 0, 1, 0], [2, 0, 2, 0]]

    @pytest.mark.parametrize(
        "rows, cols, named",
        [
            (-1, 5, "rows must be >= 0, got -1"),
            (2, -1, "cols must be >= 0, got -1"),
            (4.5, 4, "rows must be an integer, got 4.5"),
        ],
    )
    def test_dense_sums_refuses_a_bad_extent_by_name(self, rows, cols, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            dense_sums(field(4), rows, cols)


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
    # tile (rows need not divide n) up to several whole grids per tile, in
    # blocks; the audit checks every row profile against the products of the sums
    worker = data.draw(st.integers(0, stride - 1), label="worker")
    cap = data.draw(st.integers(1, 3 * n * n), label="cap")
    replicates = [worker + k * stride for k in range(count)]
    roots = field_roots(seed, replicates)
    fields = [field(seed, r) for r in replicates]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        grids, rows = tile_shape(n)
        assert grids * rows * n <= max(cap, n)
        swept = sweep_roots(roots, (n,), COUNTERS)
        audited, ok = audit_roots(roots, (n,), COUNTERS)
        zeros = [zero_tuples(f, n, n) for f in fields]
    assert _lists(swept) == _lists(audited) == _layout(_brute, fields, (n,))
    assert ok.all()
    assert zeros == [brute_force_bundle(f, n)[1] for f in fields]


@pytest.mark.parametrize("n,cap", [(17, 3 * 17 + 1), (9, 1), (12, 2 * 144)])
def test_partial_rows_across_tile_seams(n, cap):
    f = field(6)
    dense = dense_sums(f, n, n)
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        rows = [(i, col.copy()) for i, col in iter_partial_rows(f, n)]
    assert [i for i, _ in rows] == list(range(1, n + 1))
    assert all(np.array_equal(col, dense[i - 1]) for i, col in rows)


@pytest.mark.parametrize("band", [False, True], ids=["whole-grids", "row-bands"])
@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])
def test_fold_equals_dense_recount_across_word_and_block_edges(cols, band):
    # the widths cross the fold's 8-cell words and 64-cell blocks; tiles of
    # two whole grids leave a last block of one, row bands carry a row, and
    # each block width has its own buffers, which every block of that width
    # reuses, real fields first, so a stale padding byte or block count
    # would show; then blocks that mix stubs and real fields
    rows = 5
    real = [field(cols, r) for r in range(3)]
    stubs = [AlternatingColumnsField(), ConstantField(), AlternatingRowsField()]
    mixed = [f for pair in zip(stubs, real) for f in pair]
    width = walkstats._padded(cols)  # the tile cap counts rows at their padded width
    with mock.patch.object(walkstats, "TILE_CELLS", 2 * (1 if band else rows) * width):
        grids = tile_shape(rows, cols)[0]
        assert grids == (1 if band else 2)
        tiles = {R: walkstats._Tiles(rows, cols, R) for R in {1, grids}}
        for fields in (real, mixed):
            for at in range(0, len(fields), grids):
                block = fields[at : at + grids]
                dense = [dense_sums(f, rows, cols) for f in block]
                starts = []
                for start, tile in tiles[len(block)].read(_roots(block)):
                    assert tile.shape[1] == len(block)
                    starts.append(start)
                    for r, sums in enumerate(dense):
                        assert np.array_equal(tile[:, r], sums[start - 1 : start - 1 + len(tile)])
                assert starts == ([1, 3, 5] if band else [1])


def test_a_short_roots_block_is_refused_by_wider_tiles():
    # one root through tiles of two grids would hash the same stream into both
    tiles = walkstats._Tiles(5, 65, 2)
    with pytest.raises(ValueError, match=re.escape("roots of shape (1,) for a buffer of 2 grids")):
        next(tiles.read(field_roots(0, [0])))


@pytest.mark.parametrize("cols", [SWEEP_CEILING - 1, SWEEP_CEILING])
def test_fold_at_the_ceiling_width(cols):
    # 512 blocks in a row and the largest row sums a sweep can make: the block
    # sums wrap in int16 on the way, and only the widest rows add in int32
    for stub, sums in (
        (ConstantField(), np.arange(1, cols + 1)),
        (AlternatingColumnsField(), np.arange(1, cols + 1) % 2),
    ):
        ((_, tile),) = walkstats._Tiles(1, cols, 1).read(_roots([stub]))
        assert np.array_equal(tile[0, 0], sums)


@pytest.mark.parametrize("N,grids", [(64, 128), (1024, 8)])
def test_the_sums_are_int32_in_the_hash_words_memory(N, grids):
    # |S(i, j)| <= i * j, so every sum of a sweep fits int32, and a full block's
    # sums take the first half of its hash words, no buffer of their own
    assert SWEEP_CEILING**2 < 2**31
    assert tile_shape(N)[0] == grids
    tiles = walkstats._Tiles(N, N, grids)
    assert tiles.sums.dtype == np.int32
    assert np.shares_memory(tiles.sums, tiles.words)


def test_stub_fields_sweep_in_blocks():
    stubs = [AlternatingColumnsField(), ConstantField()]
    with mock.patch.object(walkstats, "TILE_CELLS", 40):
        assert tile_shape(4)[0] == 1  # a block per stub
        swept = sweep_roots(_roots(stubs), (4,), COUNTERS)
        audited, ok = audit_roots(_roots(stubs), (4,), COUNTERS)
    assert _lists(swept) == _lists(audited) == _layout(sweep_grid, stubs, (4,))
    assert ok.all()


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
    # cell (one row per tile, rows need not divide the edge) to several grids;
    # each counter swept alone, as the harness sweeps it, equals its value in
    # the all-counter sweep
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields, roots = [field(seed, r) for r in range(count)], field_roots(seed, range(count))
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        nested = sweep_roots(roots, sizes, COUNTERS)
        alone = {c: sweep_roots(roots, sizes, (c,))[c] for c in COUNTERS}
    assert _lists(nested) == _lists(alone) == _layout(sweep_grid, fields, sizes)


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
        swept = sweep_roots(_roots(fields), sizes, COUNTERS)
        _, ok = audit_roots(_roots(fields), sizes, COUNTERS)
    assert _lists(swept) == _layout(_brute, fields, sizes)
    assert ok.all()


# the entry points that take several sizes, called on (N, *nested)
_NESTED_ENTRIES = {
    "sweep_roots": lambda sizes: sweep_roots(field_roots(1, [0, 1]), sizes, COUNTERS),
    "audit_roots": lambda sizes: audit_roots(field_roots(1, [0, 1]), sizes, COUNTERS),
    "decomposition_audit": lambda sizes: decomposition_audit(field(), sizes[0], sizes[1:]),
}


@pytest.mark.parametrize("entry", sorted(_NESTED_ENTRIES))
def test_nested_sweep_needs_valid_sizes(entry):
    run = _NESTED_ENTRIES[entry]
    # decomposition_audit(f, 8, (0,)) among them; a float equal to an int
    # edge is refused too, before a set could merge the two
    for sizes in [(8, 0), (8, -2), (0,), (5, 5.0), (5, 3, 3.0)]:
        with pytest.raises(ValueError):
            run(sizes)
    with pytest.raises(CapacityError):
        run((SWEEP_CEILING + 1, 4))
    if entry != "decomposition_audit":  # whose N is always given
        with pytest.raises(ValueError):
            run(())


def test_no_roots_sweep_to_empty_counters():
    # an empty block of streams: each counter (len(sizes), 0), and no verdict
    none = np.empty(0, dtype=np.uint64)
    swept = sweep_roots(none, (8, 16, 4), COUNTERS)
    audited, ok = audit_roots(none, (8, 16, 4), ("gamma",))
    assert set(swept) == set(COUNTERS)
    for values in (*swept.values(), audited["gamma"]):
        assert values.shape == (3, 0) and values.dtype == np.int64
    assert ok.shape == (0,) and ok.dtype == bool


# the readers of a block of roots, each called on a block ``r``
_ROOTS_READERS = {
    "sweep": lambda r: sweep_roots(r, (8,), COUNTERS),
    "audit": lambda r: audit_roots(r, (8,), COUNTERS),
    "twin": lambda r: twin_zero_counts(r, 0.5, (8,), 3),
    "twin-no-band": lambda r: twin_zero_counts(r, 0.5, (2,), 3),  # an empty wedge: no band
    "annulus": lambda r: annulus_counts(r, 0.5, (8,)),
}


@pytest.mark.parametrize("entry", _ROOTS_READERS.values(), ids=_ROOTS_READERS)
@pytest.mark.parametrize(
    "roots, named",
    [(np.array([1, 2], dtype=np.int64), "int64"), ([1, 2], "list")],
    ids=["int64", "list"],
)
def test_roots_that_are_not_uint64_are_named(entry, roots, named):
    with pytest.raises(ValueError, match=f"roots must be a uint64 array, got {named}$"):
        entry(roots)


def _sign_rows_of(r):
    """One row of four columns of ``r.size`` grids hashed from ``r``."""
    words = np.empty((1, r.size, 4), dtype=np.uint64)
    return sign_rows(r, 1, words, np.empty_like(words))


@pytest.mark.parametrize(
    "entry", [*_ROOTS_READERS.values(), _sign_rows_of], ids=[*_ROOTS_READERS, "sign-rows"]
)
@pytest.mark.parametrize("shape", [(8, 1), (2, 4), ()], ids=str)
def test_roots_that_are_not_one_dimensional_are_refused(entry, shape):
    # a column of eight roots was swept as one stream, its counts repeated
    # eight times; other shapes failed inside numpy, naming no argument
    roots = field_roots(1, range(math.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        entry(roots)


def test_counts_read_off_the_sweep_need_a_size():
    with pytest.raises(ValueError, match="need at least one grid size"):
        twin_zero_counts(_roots([field()]), 0.5, (), 3)
    with pytest.raises(ValueError, match="need at least one grid size"):
        diag_zero_counts(StreamKey(Seed(1), 0), ())


_NON_INTEGER_CALLS = {
    "gamma_mean_exact": (lambda: exactprob.gamma_mean_exact(4.0), "N", 4.0),
    "delta_mean_exact": (lambda: exactprob.delta_mean_exact(10.5), "N", 10.5),
    "delta_var_exact": (lambda: exactprob.delta_var_exact(10.5), "N", 10.5),
    "antidiag_mean_exact": (lambda: exactprob.antidiag_mean_exact(10.5), "N", 10.5),
    "hit_constant_estimate": (lambda: exactprob.hit_constant_estimate(3.5), "n_max", 3.5),
    "sweep_roots": (
        lambda: sweep_roots(field_roots(Seed(1), [0]), (8.5,), ("gamma",)), "grid edge", 8.5
    ),
    "zero_points": (lambda: zero_points(field(), 4.5, 4), "grid edge", 4.5),
    "render_zero_set": (lambda: render_zero_set(field(), 8.5), "image edge", 8.5),
    "brute_force_bundle": (lambda: brute_force_bundle(field(), 4.5), "grid edge", 4.5),
    "diag_zero_counts": (lambda: diag_zero_counts(StreamKey(Seed(1), 0), (10.5,)), "N", 10.5),
    "twin_zero_counts": (
        lambda: twin_zero_counts(_roots([field()]), 0.5, (8,), 2.5), "radius", 2.5
    ),
}


@pytest.mark.parametrize("entry", sorted(_NON_INTEGER_CALLS))
def test_integer_entries_refuse_a_non_integer_by_name(entry):
    # each raised a TypeError that named no argument
    call, name, value = _NON_INTEGER_CALLS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call()


def _shift_profile(block, size, row, by):
    """Add ``by`` to the first stream's crossings in ``row`` on the segment of edge ``size``.

    That moves the row's profile in the ``size`` grid and every larger one.
    The segment counts are uint16, so the shift wraps modulo ``2**16`` on
    purpose: a zero count shifted by -1 reads 65535.
    """
    crossings = block.counts[block.slot[walkstats.CROSSINGS]]
    crossings[row : row + 1, 0, block.edges.index(size)] += np.uint16(by % 2**16)


def _before_the_audit(corrupt):
    """Patch the sweep's ``_audit_rows`` to call ``corrupt(block)`` first, once per block.

    The sweep reduces the audit size by size after its last tile, so the
    counts ``corrupt`` changes at a block's first size are those that
    every size's audit reads.
    """
    real, calls = walkstats._audit_rows, []

    def audit_rows(block, n, t):
        if len(calls) % len(block.sizes) == 0:  # a block's first size
            corrupt(block)
        calls.append(n)
        return real(block, n, t)

    return mock.patch.object(walkstats, "_audit_rows", audit_rows)


@given(
    seed=st.integers(0, 2**32),
    sizes=st.lists(
        st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=5, unique=True
    ),
    count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_audit_roots_equal_the_sweep_and_the_one_field_audit(seed, sizes, count, data):
    # unsorted sizes, tile caps from one cell to several grids; the audited
    # pass gives the sweep's counters, each stream's own audit verdict and,
    # at the largest size, the one-field audit's bundle
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    roots = field_roots(seed, range(count))
    fields = [field(seed, r) for r in range(count)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        audited, ok = audit_roots(roots, sizes, COUNTERS)
        swept = sweep_roots(roots, sizes, COUNTERS)
        one = [decomposition_audit(f, top, sizes) for f in fields]
    assert _lists(audited) == _lists(swept)
    assert ok.tolist() == [True] * count
    assert all(verdict is True for _, verdict in one)
    at_top = {c: values[sizes.index(top)].tolist() for c, values in swept.items()}
    assert at_top == {c: [getattr(bundle, c) for bundle, _ in one] for c in COUNTERS}

    # one profile entry of the first field off by one: only its verdict turns red
    size = data.draw(st.sampled_from(sizes), label="size")
    row = data.draw(st.integers(0, size - 1), label="row")
    first = []

    def corrupt(block):
        if not first:
            first.append(True)
            _shift_profile(block, size, row, 1)

    with mock.patch.object(walkstats, "TILE_CELLS", cap), _before_the_audit(corrupt):
        _, ok = audit_roots(roots, sizes, COUNTERS)
    assert ok.tolist() == [False] + [True] * (count - 1)


@given(
    kinds=st.lists(st.sampled_from(["real", "alternating", "constant"]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
    counters=st.sets(st.sampled_from(COUNTERS), min_size=1),
    sizes=st.lists(st.one_of(st.just(1), st.integers(2, 70)), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_selected_counters_equal_brute_force(kinds, seed, counters, sizes, data):
    # a sweep fills only the planes its counters read: it returns just the
    # counters asked for, each equal to the dense recount; unsorted nested
    # sizes, tile caps from one cell to three grids, real fields and stubs
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [_oracle_field(kind, seed + r) for r, kind in enumerate(kinds)]
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        swept = sweep_roots(_roots(fields), sizes, counters)
    assert _lists(swept) == _layout(_brute, fields, sizes, counters)


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
    audited = {walkstats.AUDIT} if audit else set()
    # a full block's tile at N = 64: 128 grids side by side in 8-row bands
    assert tile_shape(64) == (128, 8)
    block = walkstats._Block((64, 16), frozenset(counters) | audited, 128)
    assert block.planes == planes
    assert block.flags.shape == (len(planes), 8, 128, 64)
    assert block.counts.shape == (len(planes), 64, 128, 2)
    assert hasattr(block, "signs") == (walkstats.CROSSINGS in planes)  # the int8 sign pass
    assert hasattr(block, "sum_products") == audit
    # one probe column per row for delta, one per edge for d_antidiag and for the audit
    K = len(block.edges)
    probes = ("delta" in counters) + K * ("d_antidiag" in counters) + K * audit
    if probes:
        assert block.probes.shape == (64, probes)
        assert block.probed.shape == (64, 128, probes)
    else:
        assert block.probes is None
        assert not hasattr(block, "probed")


@pytest.mark.parametrize("sizes", [(65, 70), (9, 70)], ids=str)
def test_band_seams_equal_brute_force(sizes):
    # a cap that puts 3 grids of N = 70 (72 cells at the padded width) side by
    # side in 8-row bands: 5 streams leave a last block of 2 grids, whose tiles
    # are 12 rows tall; the rows cross a 64-cell fold block, and every grid is
    # cut by many band seams; the oracle recounts from the scalar field values
    seed, top = 11, max(sizes)
    with mock.patch.object(walkstats, "TILE_CELLS", 3 * walkstats.BAND_ROWS * 72):
        grids, rows = tile_shape(top)
        assert (grids, rows) == (3, walkstats.BAND_ROWS)
        blocks = [walkstats._Block(sizes, frozenset(COUNTERS), R) for R in (1, 2, grids)]
        assert [block.tiles.height for block in blocks] == [24, 12, 8]
        roots = field_roots(seed, range(grids + 2))
        swept = sweep_roots(roots, sizes, COUNTERS)
        audited, ok = audit_roots(roots, sizes, COUNTERS)
    assert ok.tolist() == [True] * len(roots)
    fields = [field(seed, r) for r in range(grids + 2)]
    assert _lists(swept) == _lists(audited) == _layout(_brute, fields, sizes)


# each relation: the map of the sign planes, the counters it keeps, and one it moves
_RELATIONS = {
    "transposed": (np.transpose, ("gamma", "gamma_prime", "delta", "d_antidiag"), "z_crossings"),
    "negated": (np.logical_not, ("gamma", "z_crossings", "delta", "d_antidiag"), "gamma_prime"),
}
# sizes and plane counts: 9 crosses a band seam and 70 a 64-cell fold block;
# 61 grids of N = 130 are a full block of 60, swept in 8-row bands, and a short
# last block of one, read in one 130-row tile; at check 8's sizes, 9 grids of
# N = 1024 are a full block of 8 and a short last block of one
RELATION_SIZES = (9, 70, 130)
CHECK_8_SIZES = (128, 256, 512, 1024)


@pytest.mark.parametrize(
    "transform, kept, moved, sizes, grids",
    [
        pytest.param(*_RELATIONS[name], sizes, grids, id=name + suffix)
        for suffix, sizes, grids in (("", RELATION_SIZES, 61), ("-check-8", CHECK_8_SIZES, 9))
        for name in _RELATIONS
    ],
)
def test_transformed_signs_keep_their_invariant_counters(transform, kept, moved, sizes, grids):
    # S of the transposed signs is S transposed, and of the negated signs -S:
    # each keeps the counters whose cells and rule map onto themselves, and
    # negation keeps the audit verdict; the counter it moves shows the
    # transformed planes were read; every grid passes the audit either way
    top = max(sizes)
    rng = np.random.default_rng(5)
    planes = [rng.random((top, top)) < 0.5 for _ in range(grids)]
    assert tile_shape(top) == (grids - 1, walkstats.BAND_ROWS)
    read = []
    for signs in (planes, [transform(p) for p in planes]):
        roots = _roots([PlaneField(p) for p in signs])
        read.append((sweep_roots(roots, sizes, COUNTERS), *audit_roots(roots, sizes, COUNTERS)))
    (swept, audited, ok), (swept_t, audited_t, ok_t) = read
    for c in kept:
        assert swept[c].tolist() == swept_t[c].tolist(), c
        assert audited[c].tolist() == audited_t[c].tolist(), c
    assert swept[moved].tolist() != swept_t[moved].tolist()
    if transform is np.logical_not:
        assert ok.tolist() == ok_t.tolist()
    assert ok.all() and ok_t.all()


def _block_bytes(N):
    """Bytes of the arrays an auditing sweep of ``N`` holds for a full block, each once.

    The block's plan and buffers, and its tiles'; a view (the sums of the
    hash words, the fold's word and block views, the plane) counts as the
    array it views.
    """
    block = walkstats._Block((N,), frozenset((*COUNTERS, walkstats.AUDIT)), tile_shape(N)[0])
    bases = {}
    for owner in (block, block.tiles):
        for a in vars(owner).values():
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                bases[id(a)] = a
    return sum(a.nbytes for a in bases.values())


def test_narrow_grids_fit_the_tile_budget():
    # rows count at their padded width, so no tile of narrow grids holds more
    # byte-plane cells than one of N = 64; the bound adds what a narrow row
    # still costs beyond its cells: the fold's block word and int16 block sum
    # for each of the TILE_CELLS // 8 one-word rows of the narrowest tile
    limit = _block_bytes(64) + walkstats.TILE_CELLS // 8 * (8 + 2)
    assert max(_block_bytes(N) for N in range(1, 71)) <= limit


@pytest.mark.parametrize("sweep", [sweep_roots, audit_roots], ids=lambda f: f.__name__)
@pytest.mark.parametrize("count,widths", [(7, [3, 1]), (6, [3])], ids=["short-last", "whole"])
def test_a_sweep_makes_one_block_of_buffers_per_width(monkeypatch, sweep, count, widths):
    # 3 grids of N = 70 per full block: two full blocks and a short one make
    # the full width's buffers and then the short one's; whole blocks only
    # make the full width's; each width's buffers are gone before the next
    # width's are made
    made, alive = [], []
    real = walkstats._Block

    def counted(sizes, counters, R):
        assert not any(block() for block in alive)
        made.append(R)
        block = real(sizes, counters, R)
        alive.append(weakref.ref(block))
        return block

    monkeypatch.setattr(walkstats, "_Block", counted)
    monkeypatch.setattr(walkstats, "TILE_CELLS", 3 * walkstats.BAND_ROWS * 72)
    sweep(field_roots(11, range(count)), (9, 70), COUNTERS)
    assert made == widths


@pytest.mark.parametrize("sweep", [sweep_roots, audit_roots], ids=lambda f: f.__name__)
def test_counters_are_checked(sweep):
    for counters in [(), ("gamma", "zeros"), ("crossings",)]:
        with pytest.raises(ValueError):
            sweep(field_roots(1, [0]), (4,), counters)


def test_the_counter_refusals_name_every_output():
    roots = field_roots(1, [0])
    with pytest.raises(ValueError, match="^need at least one counter$"):
        sweep_roots(roots, (4,), ())
    names = "'gamma', 'gamma_prime', 'z_crossings', 'delta', 'd_antidiag', 'audit_faults'"
    message = f"unknown counters ['crossings', 'zeros']; choose from ({names})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_roots(roots, (4,), ("zeros", "gamma", "crossings"))
    # a bare name, which a set would split into its letters
    message = "counters must be a collection of names, got the string 'gamma'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_roots(roots, (4,), "gamma")
    # the audit alone is an output of its own, the one key returned
    alone = sweep_roots(field_roots(1, [0, 1]), (4, 9), (walkstats.AUDIT,))
    assert list(alone) == ["audit_faults"]
    assert alone["audit_faults"].tolist() == [[0, 0], [0, 0]]


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
    roots = field_roots(seed, range(count))
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        one, one_ok = audit_roots(roots, sizes, (counter,))
        full, full_ok = audit_roots(roots, sizes, COUNTERS)
    assert one_ok.tolist() == full_ok.tolist() == [True] * count
    assert _lists(one) == {counter: full[counter].tolist()}

    size = data.draw(st.sampled_from(sizes), label="size")
    row = data.draw(st.integers(0, size - 1), label="row")

    def corrupt(block):
        _shift_profile(block, size, row, 1)

    with mock.patch.object(walkstats, "TILE_CELLS", cap), _before_the_audit(corrupt):
        _, one_ok = audit_roots(roots, sizes, (counter,))
        _, full_ok = audit_roots(roots, sizes, COUNTERS)
    # each block's first stream is corrupted, so the verdicts agree block by block
    assert one_ok.tolist() == full_ok.tolist()
    assert not one_ok[0]


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


def _assert_segment_counts(fields, sizes, cap):
    """Per row of every grid, the audit's segment counts equal the per-size rule on dense sums."""
    top = max(sizes)
    # per size and block: recount, touched, zeros over [1, n-1] and over [1, n]
    seen = {n: [] for n in sizes}
    real = walkstats._audit_rows

    def recorded(block, n, t):
        counts = real(block, n, t)
        seen[n].append([c.copy() for c in counts])
        return counts

    with mock.patch.object(walkstats, "TILE_CELLS", cap), mock.patch.object(
        walkstats, "_audit_rows", recorded
    ):
        _, ok = audit_roots(_roots(fields), sizes, COUNTERS)
    assert ok.tolist() == [True] * len(fields)
    for n in sizes:
        got = [np.concatenate(blocks, axis=1) for blocks in zip(*seen[n])]  # each (n, fields)
        for r, f in enumerate(fields):
            want = _audit_oracle(dense_sums(f, top, top), n)
            assert [g[:, r].tolist() for g in got] == [w.tolist() for w in want]


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
    # unsorted sizes, adjacent edges, tile caps from one cell to three grids,
    # real fields and stubs
    top = max(sizes)
    cap = data.draw(st.integers(1, 3 * top * top), label="cap")
    fields = [_oracle_field(kind, seed + r) for r, kind in enumerate(kinds)]
    _assert_segment_counts(fields, sizes, cap)


def test_segment_audit_counts_where_the_edge_zero_flag_matters():
    # some rows vanish at column n or at n - 1 but not both (rows 11 and 12
    # at n = 12 in the first field, eight rows at n = 30 in the second), so
    # a zero flag read one column off the edge miscounts the zeros over
    # [1, n-1]; one row per tile
    _assert_segment_counts([field(3, 3), field(4, 4)], [30, 12], 1)


def test_audit_zero_rows_equal_the_dense_recounts_zeros():
    # per row of grids 9, 24 and 70 of four streams swept in one block, the
    # audit's zeros over [1, n-1] and over [1, n] are the rows' counts of the
    # dense recount's zero coordinates, which share no kernel code
    sizes, fields = (9, 24, 70), [field(3, r) for r in range(4)]
    seen = {n: [] for n in sizes}
    real = walkstats._audit_rows

    def recorded(block, n, t):
        counts = real(block, n, t)
        seen[n].append([c.copy() for c in counts[2:]])
        return counts

    with mock.patch.object(walkstats, "_audit_rows", recorded):
        audit_roots(_roots(fields), sizes, COUNTERS)
    zeros = [brute_force_bundle(f, max(sizes))[1] for f in fields]
    for n in sizes:
        [(interior, full)] = seen[n]  # one block
        for r, coords in enumerate(zeros):
            below = Counter(i for i, j in coords if i <= n and j < n)
            upto = Counter(i for i, j in coords if i <= n and j <= n)
            assert interior[:, r].tolist() == [below[i] for i in range(1, n + 1)]
            assert full[:, r].tolist() == [upto[i] for i in range(1, n + 1)]


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
        # a profile entry off by one, with or without the grid total kept
        # (a zero count shifted down wraps), in any of the nested grids,
        # must turn the verdict red
        def corrupt(block):
            for row, by in enumerate(shift, start=2):
                _shift_profile(block, size, row, by)

        assert decomposition_audit(field(9), 30, (7, 12))[1]
        with _before_the_audit(corrupt):
            assert not decomposition_audit(field(9), 30, (7, 12))[1]
            # an audit that reports one counter still audits the profiles
            for counter in COUNTERS:
                _, ok = audit_roots(field_roots(9, [0]), (7, 12, 30), (counter,))
                assert not ok[0]


    def test_a_crossing_moved_between_rows_fails_the_audit(self):
        # one crossing of the 30 grid moved from a row's profile to the next
        # row's keeps every total, so only the per-row equality turns it red
        def move(block):
            segment = block.counts[block.slot[walkstats.CROSSINGS], :30, 0, -1]
            row = int(np.flatnonzero(segment)[0])  # a count of at least one: no wrap
            assert row < 29
            _shift_profile(block, 30, row, -1)
            _shift_profile(block, 30, row + 1, 1)

        swept = sweep_grid(field(9), 30)
        with _before_the_audit(move):
            bundle, ok = decomposition_audit(field(9), 30, (7, 12))
        assert not ok
        assert bundle.z_crossings == int(bundle.row_profiles.sum()) == swept.z_crossings
        assert bundle.row_profiles.tolist() != swept.row_profiles.tolist()

    @pytest.mark.parametrize("misbooking", ["edge-zero-inside", "zeros-unbooked"])
    def test_misbooked_zeros_fail_the_sandwich(self, misbooking):
        # even rows of the stub vanish, so n - 1 pairs touch a zero and both
        # sides of the sandwich are tight; the profiles and totals stay right,
        # so only the sandwich can turn the verdict red
        def misbook(block):
            if misbooking == "edge-zero-inside":  # the zero at column n counted in [1, n-1]
                block.probed[:, :, block.edge :] = False
            else:  # no zero booked on any segment: touches exceed twice the zeros
                block.counts[walkstats.ZEROS] = 0

        stub = AlternatingRowsField()
        bundle, ok = decomposition_audit(stub, 6, (3,))
        assert ok and bundle.row_profiles.tolist() == [0, 5, 0, 5, 0, 5]
        with _before_the_audit(misbook):
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

    def test_past_the_ceiling_is_capacity_before_any_draw(self, monkeypatch):
        # a grid edge of 2 * 10**7 + 1: more diagonal points than delta_mean_exact takes
        def undrawn(*args):
            raise AssertionError("increments were drawn")

        monkeypatch.setattr(walkstats, "signed_binomial_batch", undrawn)
        with pytest.raises(CapacityError, match="N=20000000, got 20000001"):
            diag_zero_counts(StreamKey(Seed(1), 0), (8, DIAG_FAST_CEILING + 1))

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

    def test_a_subnormal_eps_is_past_the_ceiling(self):
        # (M - 1) / eps overflows to infinity; its ceiling once raised an OverflowError
        with pytest.raises(CapacityError, match="got a band of infinite width$"):
            twin_zero_counts(_roots([field(1)]), 5e-324, (8,), 8)
        # the rows are still refused first, and a finite quotient's columns as before
        with pytest.raises(CapacityError, match=f"got {SWEEP_CEILING + 1}$"):
            walkstats.twin_band(SWEEP_CEILING + 1, 5e-324, 1)
        with pytest.raises(CapacityError, match=f"got {math.ceil(7 / 1e-300) + 7}$"):
            walkstats.twin_band(8, 1e-300, 8)
        assert walkstats.twin_band(8, 0.25, 8) == (15, 35)

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
            counts = twin_zero_counts(_roots([f]), eps, sizes, radius)[:, 0].tolist()
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
            annulus_counts(_roots([field()]), 0.0, (8, 16))

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
            counts = annulus_counts(_roots([f]), eps, sizes)[:, 0].tolist()
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
            annulus_counts(_roots([field()]), 0.5, (8, 0))
        with pytest.raises(CapacityError):
            annulus_counts(_roots([field()]), 0.5, (8, SWEEP_CEILING + 1))


# both reads below have rows of 24 padded cells, so a band of BAND_ROWS rows is 192 cells
@pytest.mark.parametrize("cap", [1, 2 * 192, 5 * 192, 7 * 192 + 100, 23 * 20 * 24], ids=str)
def test_zero_set_counts_of_a_block_equal_each_streams_lone_count(cap):
    # 23 streams read in blocks, the last one short, against each stream read
    # alone at the default cap; a zero filed under the wrong stream moves a count
    roots = field_roots(5, range(23))
    with mock.patch.object(walkstats, "TILE_CELLS", cap):
        grids = tile_shape(20)[0]
        assert grids == tile_shape(14, 24)[0] and (grids == 1 or len(roots) % grids)
        annulus = annulus_counts(roots, 0.3, (20, 9, 14))
        twins = twin_zero_counts(roots, 0.5, (12, 7), 3)
    assert walkstats.twin_band(12, 0.5, 3) == (14, 24)
    lone = [root[None] for root in roots]
    assert annulus.dtype == twins.dtype == np.int64
    lone_annulus = [annulus_counts(r, 0.3, (20, 9, 14)) for r in lone]
    lone_twins = [twin_zero_counts(r, 0.5, (12, 7), 3) for r in lone]
    assert annulus.tolist() == np.hstack(lone_annulus).tolist()
    assert twins.tolist() == np.hstack(lone_twins).tolist()
