"""Pathwise zero-set statistics of simulated grids.

The rectangle sum ``S(i,j)`` is the sum of the sign field over
``[1,i] x [1,j]``.  Sums are never held whole: every reader works on
tiles of ``b`` rows x ``R`` grids x ``cols`` columns, rows outermost,
holding at most :data:`TILE_CELLS` cells, or one row when a row alone is
larger.  Each tile is hashed in one call, summed along its rows with one
contiguous ``cumsum``, and folded down with ``b`` in-place row adds, the
first of which adds the row carried from the tile above.  The buffers
are allocated once per call and filled in place, so no tile allocates.

The field is prefix-consistent: the ``n x n`` grid is the top-left corner
of any larger one, so each replicate is read once, at the largest edge
asked for, for every size.  The sweep (:func:`sweep_fields`) counts, per
row, on each column segment between the sorted sizes, only the flag
planes that the counters its caller reads need: the zeros (``S == 0``)
for ``gamma``, the ones for ``gamma_prime``, and the crossings, from int8
signs, for ``z_crossings``; ``delta`` and ``d_antidiag`` read the
diagonal and anti-diagonal cells of the sums and no plane at all.  The
crossing audit (:func:`audit_fields`) is counted in that same pass, on
the same segments, and always adds the planes it reads; its rule is on
int64 adjacent products of the sums: ``S(i,j) * S(i,j+1) <= 0`` crosses,
and ``== 0`` touches a zero.
:func:`zero_points` is the one zero-set reader: the annulus and twin-zero
counts, and the oracle check, read the zeros from it.

Bounds that keep int64 safe: ``|S(i,j)| <= i*j <= 2**30`` at the sweep
ceiling, so the audit's adjacent products stay below ``2**60``.  The
sweep's own crossing test multiplies int8 signs, never the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exactprob import CapacityError
from .randfield import RademacherField, StreamKey, sign_rows, signed_binomial_batch

# Largest grid edge the sweep accepts.  Time grows as N**2; memory is one
# tile per worker (TILE_CELLS cells, or one row of N cells when that is
# larger), so for a single grid it stays linear in N.
SWEEP_CEILING = 2**15
TILE_CELLS = 2**16  # cells per tile; sets both the grids and the rows per tile


@dataclass(frozen=True, eq=False)
class StatBundle:
    """The counters from one sweep of an ``N x N`` grid.

    A counter the sweep was not asked for is ``None``; ``row_profiles``
    comes with ``z_crossings``.  ``row_profiles[i-1]`` is the number of
    horizontal sign changes (weak: zero counts) in row ``i``; summing it
    recovers ``z_crossings`` exactly.  The zero set is read by
    :func:`zero_points`.
    """

    N: int
    gamma: int | None  # cells with S = 0
    gamma_prime: int | None  # cells with S = 1
    z_crossings: int | None  # horizontal pairs with S(i,j) * S(i,j+1) <= 0
    delta: int | None  # even diagonal cells (2i,2i) with S = 0
    d_antidiag: int | None  # anti-diagonal cells (i, N-i) with S = 0
    row_profiles: np.ndarray | None


#: The counters of a :class:`StatBundle`, in field order.
COUNTERS = ("gamma", "gamma_prime", "z_crossings", "delta", "d_antidiag")


def tile_shape(rows: int, cols: int | None = None) -> tuple[int, int]:
    """``(grids, rows)`` per tile of a ``rows x cols`` grid, square by default."""
    cols = cols or rows  # whole grids while they fit, else rows of one grid
    if rows * cols <= TILE_CELLS:
        return TILE_CELLS // (rows * cols), rows
    return 1, max(1, TILE_CELLS // cols)


def _check_edge(N: int) -> None:
    if N < 1:
        raise ValueError(f"grid edge must be >= 1, got {N}")
    if N > SWEEP_CEILING:
        raise CapacityError(f"sweep capped at N={SWEEP_CEILING}, got {N}")


def _tile_buffers(rows: int, cols: int, grids: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``uint64`` buffers for tiles of ``grids`` ``rows x cols`` grids: sums, hash scratch.

    Both sides are checked against :data:`SWEEP_CEILING` first.  The sums
    buffer holds one row more than a tile, for the carried row.
    """
    _check_edge(rows)
    _check_edge(cols)
    cells = grids * tile_shape(rows, cols)[1] * cols
    return np.empty(cells + grids * cols, dtype=np.uint64), np.empty(cells, dtype=np.uint64)


def _partial_sum_tiles(
    fields: Sequence, rows: int, cols: int, words: np.ndarray, scratch: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, T)`` with ``T[k, r, j-1] = S(start + k, j)`` of grid ``r``.

    ``words`` and ``scratch`` come from :func:`_tile_buffers` for these
    sides and at least ``len(fields)`` grids, and may serve several calls
    in turn.  Every ``T`` is a view of ``words`` that the next tile
    overwrites, so it lives for one iteration; a caller that keeps it
    must copy it.

    Row 0 of the buffer carries ``S(start - 1, .)``.  Each tile's signs
    are hashed into rows ``1..b``, summed along each row with one
    ``cumsum``, and folded down with ``b`` in-place row adds, the first
    of which adds the carried row.
    """
    R, height = len(fields), tile_shape(rows, cols)[1]
    words = words[: (height + 1) * R * cols].reshape(height + 1, R, cols)
    scratch = scratch[: height * R * cols].reshape(height, R, cols)
    sums = words.view(np.int64)  # the same memory: the hash words become the sums
    sums[0] = 0  # S(0, j)
    if all(isinstance(f, RademacherField) for f in fields):
        roots = np.array([f.root for f in fields], dtype=np.uint64)

        def read(start: int, b: int) -> np.ndarray:
            return sign_rows(roots, start, words[1 : b + 1], scratch[:b])

    else:

        def read(start: int, b: int) -> np.ndarray:
            # any other field (a test double) is read through its row_signs
            for k in range(b):
                for r, f in enumerate(fields):
                    sums[1 + k, r] = f.row_signs(start + k, cols)
            return sums[1 : b + 1]

    row_views = list(sums)  # made once: indexing a row per add costs as much as the add
    for start in range(1, rows + 1, height):
        b = min(height, rows + 1 - start)
        tile = read(start, b)
        np.cumsum(tile, axis=2, out=tile)
        for above, row in zip(row_views, row_views[1 : b + 1]):
            row += above
        sums[0] = sums[b]  # the carry, copied out before the next tile is hashed over it
        yield start, tile


def partial_sum_blocks(field, rows: int, cols: int) -> Iterator[tuple[int, np.ndarray]]:
    """One field's tiles as ``(start, B)``, ``B[k, j-1] = S(start + k, j)``, in row order.

    The sides are checked on the call, before any row is read.  The next
    block overwrites ``B``; copy it to keep it.
    """
    buffers = _tile_buffers(rows, cols, 1)
    return ((start, t[:, 0]) for start, t in _partial_sum_tiles([field], rows, cols, *buffers))


def zero_points(field, rows: int, cols: int) -> np.ndarray:
    """``(k, 2)`` int64 ``(i, j)`` of every zero of ``S`` on ``[1, rows] x [1, cols]``, row-major.

    The package's one zero-set reader; memory is the points plus one tile.
    """
    found = [np.empty(0, dtype=np.int64)]  # row-major cell indices (i - 1) * cols + j - 1
    for start, block in partial_sum_blocks(field, rows, cols):
        found.append(np.flatnonzero(block == 0) + (start - 1) * cols)
    return np.stack(np.divmod(np.concatenate(found), cols), axis=1) + 1


def iter_partial_rows(field: RademacherField, N: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, S(i, 1..N))`` for each row; the vector is reused in place.

    Callers that keep a row beyond one iteration must copy it.
    """
    blocks = partial_sum_blocks(field, N, N)
    col = np.empty(N, dtype=np.int64)
    for start, block in blocks:
        for k, row in enumerate(block):
            col[:] = row
            yield start + k, col


def sweep_fields(
    fields: Iterable, sizes: Sequence[int], counters: Iterable[str] = COUNTERS
) -> Iterator[tuple[StatBundle, ...]]:
    """Sweep each field once; yield a tuple of its bundles, one per size as given.

    Every ``n x n`` grid is the top-left corner of the ``M x M`` grid,
    ``M = max(sizes)``, so one sweep at ``M`` serves all sizes: size
    ``n`` is read from rows ``<= n`` and columns ``<= n`` of the same
    tiles.  Only the ``counters`` asked for (names from :data:`COUNTERS`)
    are computed; the others are ``None`` in every bundle.  Fields are
    drawn from ``fields`` (which may be lazy) in blocks of
    ``tile_shape(M)[0]``, so the memory held at any time is one block's
    fields, the tile buffers and the counters.
    """
    plan = _SweepPlan(_check_sizes(sizes), _check_counters(counters))
    for block in _field_blocks(fields, plan.M):
        yield from _sweep_block(block, plan)


def _check_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one grid size")
    for n in sizes:
        _check_edge(n)
    return sizes


def _check_counters(counters: Iterable[str]) -> frozenset[str]:
    counters = frozenset(counters)
    if not counters:
        raise ValueError("need at least one counter")
    if unknown := counters - set(COUNTERS):
        raise ValueError(f"unknown counters {sorted(unknown)}; choose from {COUNTERS}")
    return counters


def _field_blocks(fields: Iterable, N: int) -> Iterator[list]:
    """Draw ``fields`` (possibly lazy) in blocks of ``tile_shape(N)[0]``."""
    fields = iter(fields)
    while block := list(islice(fields, tile_shape(N)[0])):
        yield block


ZEROS, ONES, CROSSINGS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES = range(5)  # flag planes
_PLANE_OF = {"gamma": ZEROS, "gamma_prime": ONES, "z_crossings": CROSSINGS}


class _SweepPlan:
    """What a sweep of ``sizes`` sets up once and every block reuses.

    The sorted edges cut each row of the ``M x M`` grid into column
    segments ``[e_{t-1}, e_t)``.  Each row is counted per segment on the
    flag planes that ``counters`` read: zeros for ``gamma``, ones for
    ``gamma_prime`` and crossings for ``z_crossings``.  An auditing plan
    always adds the zeros and the crossings, the audit's product
    crossings and product touches, and each row's zero flag at every
    edge.  ``planes`` lists the planes filled, in plane order, and
    ``slot[p]`` is plane ``p``'s place in the flag and count buffers.
    The buffers are flat and sized for a full block, so a smaller last
    block uses a prefix of each and no tile allocates; a buffer no
    counter reads is not allocated.
    """

    def __init__(
        self, sizes: tuple[int, ...], counters: frozenset[str], audit: bool = False
    ) -> None:
        self.sizes = sizes
        self.counters = counters
        self.M = M = max(sizes)
        self.edges = edges = sorted(set(sizes))
        self.rank = [edges.index(n) for n in sizes]  # sizes[s] == edges[rank[s]]
        self.bounds = np.array([0, *edges[:-1]])
        self.audit = audit
        read = {_PLANE_OF[c] for c in counters if c in _PLANE_OF}
        if audit:
            read |= {ZEROS, CROSSINGS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES}
        self.planes = sorted(read)
        self.slot = {p: k for k, p in enumerate(self.planes)}
        grids, rows = tile_shape(M)
        cells = grids * rows * M
        self.words, self.scratch = _tile_buffers(M, M, grids)
        self.flags = np.empty(len(self.planes) * cells, dtype=bool)
        # a row has at most SWEEP_CEILING = 2**15 cells, so its counts fit uint16
        self.counts = np.empty(len(self.planes) * M * grids * len(edges), dtype=np.uint16)
        if CROSSINGS in read:  # the crossing test multiplies int8 signs
            self.signs = np.empty(cells, dtype=np.int8)
            self.products = np.empty(cells, dtype=np.int8)
        if "delta" in counters:
            self.diagonal = np.empty(M * grids, dtype=bool)
        if audit:
            self.sum_products = np.empty(cells, dtype=np.int64)
            self.edge_cols = np.array(edges) - 1
            self.edge_zeros = np.empty(M * grids * len(edges), dtype=bool)

    def segment_counts(self, R: int) -> np.ndarray:
        """``(planes, M, R, K)``: each plane's count per row and per segment, for ``R`` fields."""
        K = len(self.edges)
        return self.counts[: len(self.planes) * self.M * R * K].reshape(-1, self.M, R, K)

    def edge_zero_flags(self, R: int) -> np.ndarray:
        """``(M, R, K)``: ``S(i, e_t) == 0`` for row ``i`` and edge ``e_t``, for ``R`` fields."""
        K = len(self.edges)
        return self.edge_zeros[: self.M * R * K].reshape(self.M, R, K)

    def per_row(self, R: int, n: int, t: int, planes) -> np.ndarray:
        """``(len(planes), n, R)`` int64 counts of grid ``n = edges[t]``, per row.

        Rows ``1..n``, summed over the segments up to edge ``n``.
        """
        counts = self.segment_counts(R)[[self.slot[p] for p in planes], :n]
        rows = counts[..., 0].astype(np.int64)
        for u in range(1, t + 1):
            rows += counts[..., u]
        return rows


def _sweep_block(fields: Sequence, plan: _SweepPlan) -> list[tuple[StatBundle, ...]]:
    """Bundles of one block of fields; the per-row counts stay in ``plan``.

    Every size is reduced in one pass over the tiles of the largest edge
    ``M``, and each tile fills only the planes of ``plan``.  Zeros come
    from the int8 signs when the crossing plane has made them, else
    straight from the sums; each row's counts are taken on every column
    segment of ``plan`` by one ``reduceat`` over the planes (a crossing
    is filed under the column of its right-hand cell, so the pairs of
    the ``n`` grid are those filed at columns ``< n``); size ``n`` sums
    the segments up to ``n`` over its first ``n`` rows.  An auditing
    plan adds the product rule's two planes to the same count, filed the
    same way, and keeps each row's zero flag at every edge.  For
    ``delta``, the diagonal cells ``(i, i)`` are flagged per row for the
    same end-of-block sums; for ``d_antidiag``, each size's anti-diagonal
    ``(i, n - i)`` is read off a reversed diagonal view of the tile.
    """
    R, M, slot = len(fields), plan.M, plan.slot
    b = tile_shape(M)[1]
    cells = b * R * M
    flags = plan.flags[: len(plan.planes) * cells].reshape(-1, b, R, M)
    counts = plan.segment_counts(R)
    zero = flags[slot[ZEROS]] if ZEROS in slot else None
    crossing = CROSSINGS in slot
    if crossing:
        signs = plan.signs[:cells].reshape(b, R, M)
        products = plan.products[: cells - b * R].reshape(b, R, M - 1)
        flags[slot[CROSSINGS] :, :, :, 0] = False  # no pair ends at column 1
        cross = flags[slot[CROSSINGS], :, :, 1:]  # cross[k, r, j - 1]: the pair (j - 1, j) crosses
    delta = "delta" in plan.counters
    if delta:
        diagonal = plan.diagonal[: M * R].reshape(M, R)  # S(i, i) == 0
    antidiagonal = "d_antidiag" in plan.counters
    if antidiagonal:
        anti = np.zeros((len(plan.edges), R), dtype=np.int64)
    if plan.audit:
        sum_products = plan.sum_products[: cells - b * R].reshape(b, R, M - 1)
        crossed, touched = flags[slot[PRODUCT_CROSSINGS] :, :, :, 1:]
        edge_zeros = plan.edge_zero_flags(R)
    for start, tile in _partial_sum_tiles(fields, M, M, plan.words, plan.scratch):
        rows = len(tile)
        here = slice(start - 1, start - 1 + rows)
        if crossing:
            sg = signs[:rows]
            np.sign(tile, out=sg, casting="unsafe")  # -1, 0, 1: exact in int8
            if zero is not None:
                np.equal(sg, 0, out=zero[:rows])
            np.multiply(sg[:, :, :-1], sg[:, :, 1:], out=products[:rows])
            np.less_equal(products[:rows], 0, out=cross[:rows])
        elif zero is not None:
            np.equal(tile, 0, out=zero[:rows])
        if ONES in slot:
            np.equal(tile, 1, out=flags[slot[ONES], :rows])
        if plan.audit:
            _product_crossings(tile, sum_products[:rows], crossed[:rows], touched[:rows])
            edge_zeros[here] = zero[:rows, :, plan.edge_cols]
        if plan.planes:
            np.add.reduceat(
                flags[:, :rows], plan.bounds, axis=3, dtype=np.uint16, out=counts[:, here]
            )
        if delta:  # columns of this tile's rows
            np.equal(tile[:, :, here].diagonal(axis1=0, axis2=2), 0, out=diagonal[here].T)
        if antidiagonal:
            for t, n in enumerate(plan.edges):
                above = min(start + rows, n) - start  # rows i < n here, each with (i, n - i)
                if above > 0:
                    corner = tile[:above, :, n - start - above : n - start][:, :, ::-1]
                    anti[t] += np.count_nonzero(corner.diagonal(axis1=0, axis2=2) == 0, axis=1)
    read = [c for c in COUNTERS if c in _PLANE_OF and c in plan.counters]  # off the planes
    unread = [None] * R
    per_size = []
    for n, t in zip(plan.sizes, plan.rank):
        values = dict.fromkeys(COUNTERS, unread)
        per_row = plan.per_row(R, n, t, [_PLANE_OF[c] for c in read])
        values.update(zip(read, per_row.sum(axis=1).tolist()))
        profiles = unread
        if "z_crossings" in read:
            profiles = per_row[read.index("z_crossings")].T.copy()
        if delta:
            values["delta"] = diagonal[1:n:2].sum(axis=0).tolist()  # (2k, 2k) with 2k <= n
        if antidiagonal:
            values["d_antidiag"] = anti[t].tolist()
        per_size.append(
            [
                StatBundle(n, *row, profile)
                for *row, profile in zip(*(values[c] for c in COUNTERS), profiles)
            ]
        )
    return list(zip(*per_size))


def sweep_grid(field: RademacherField, N: int) -> StatBundle:
    """One pass over the grid, returning every pathwise counter at once."""
    ((bundle,),) = sweep_fields([field], (N,))
    return bundle


def brute_force_bundle(
    field: RademacherField, N: int
) -> tuple[StatBundle, tuple[tuple[int, int], ...]]:
    """Reference recount via a dense table of sums, pure Python arithmetic.

    Returns the bundle and the zeros' ``(i, j)`` in row-major order.
    Quadratic memory; exists to cross-check :func:`sweep_grid` and
    :func:`zero_points` on small grids, not for production sizes.
    """
    if N < 1:
        raise ValueError(f"grid edge must be >= 1, got {N}")
    if N > 256:
        raise CapacityError(f"dense recount capped at N=256, got {N}")
    S = [[0] * (N + 1) for _ in range(N + 1)]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            S[i][j] = (
                field.value(i, j) + S[i - 1][j] + S[i][j - 1] - S[i - 1][j - 1]
            )
    gamma = sum(S[i][j] == 0 for i in range(1, N + 1) for j in range(1, N + 1))
    gamma_prime = sum(S[i][j] == 1 for i in range(1, N + 1) for j in range(1, N + 1))
    profiles = np.array(
        [
            sum(S[i][j] * S[i][j + 1] <= 0 for j in range(1, N))
            for i in range(1, N + 1)
        ],
        dtype=np.int64,
    )
    delta = sum(S[2 * k][2 * k] == 0 for k in range(1, N // 2 + 1))
    anti = sum(S[i][N - i] == 0 for i in range(1, N))
    coords = tuple(
        (i, j) for i in range(1, N + 1) for j in range(1, N + 1) if S[i][j] == 0
    )
    bundle = StatBundle(
        N=N,
        gamma=gamma,
        gamma_prime=gamma_prime,
        z_crossings=int(profiles.sum()),
        delta=delta,
        d_antidiag=anti,
        row_profiles=profiles,
    )
    return bundle, coords


def _product_crossings(
    rows: np.ndarray, products: np.ndarray, crosses: np.ndarray, touches: np.ndarray
) -> None:
    """Adjacent products of ``rows`` along the last axis, and their masks, in place.

    ``products``, ``crosses`` and ``touches`` have one column fewer than
    ``rows``.  A product ``<= 0`` is a crossing; one ``== 0`` is a
    crossing that touches a zero (its sign is ambiguous at the boundary).
    """
    np.multiply(rows[..., :-1], rows[..., 1:], out=products)
    np.less_equal(products, 0, out=crosses)
    np.equal(products, 0, out=touches)


def audit_fields(
    fields: Iterable, sizes: Sequence[int], counters: Iterable[str] = COUNTERS
) -> Iterator[tuple[tuple[StatBundle, ...], bool]]:
    """Sweep each field once; yield its bundles (in the order of ``sizes``) and audit verdict.

    The bundles are those of :func:`sweep_fields` with the same
    ``counters``.  The audit is counted in the same pass, on the sweep's
    column segments: per row of each ``n x n`` grid, the count of
    adjacent products ``S(i,j) * S(i,j+1) <= 0`` (int64 products of the
    sums, a rule that shares no code with the sweep's sign-based
    profiles) must equal the profile entry, and the products ``== 0``
    (crossings that touch a zero) must be sandwiched between the row's
    zeros over ``[1, n-1]`` and twice its zeros over ``[1, n]`` (every
    zero makes at most two of them vanish).  The crossing totals must
    match too.  A field passes only if every one of its grids does.  The
    profiles are swept whatever ``counters`` asks for, since the audit
    reads them; the verdict does not depend on ``counters``.
    """
    counters = _check_counters(counters)
    plan = _SweepPlan(_check_sizes(sizes), counters | {"z_crossings"}, audit=True)
    unread = {} if "z_crossings" in counters else {"z_crossings": None, "row_profiles": None}
    for block in _field_blocks(fields, plan.M):
        for bundles, ok in _audit_block(block, plan):
            yield tuple(replace(b, **unread) for b in bundles) if unread else bundles, ok


def _audit_rows(plan: _SweepPlan, R: int, n: int, t: int) -> tuple[np.ndarray, ...]:
    """Per-row audit counts of grid ``n = edges[t]`` of the block just swept, each ``(n, R)``.

    Product crossings, product touches, zeros over ``[1, n-1]`` and
    zeros over ``[1, n]``: the last from the sweep's zero segments, the
    first zero count from it less the row's zero flag at column ``n``.
    """
    zeros, crossings, touched = plan.per_row(R, n, t, [ZEROS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES])
    return crossings, touched, zeros - plan.edge_zero_flags(R)[:n, :, t], zeros


def _audit_block(
    fields: Sequence, plan: _SweepPlan
) -> Iterator[tuple[tuple[StatBundle, ...], bool]]:
    R = len(fields)
    swept = _sweep_block(fields, plan)
    recount, sandwiched = [], np.ones(R, dtype=bool)
    for n, t in zip(plan.sizes, plan.rank):
        crossings, touched, zeros_interior, zeros_full = _audit_rows(plan, R, n, t)
        held = (zeros_interior <= touched) & (touched <= 2 * zeros_full)
        sandwiched &= held.all(axis=0)
        recount.append(crossings.T)
    for r, bundles in enumerate(swept):
        ok = bool(sandwiched[r]) and all(
            np.array_equal(counts[r], b.row_profiles)
            and int(counts[r].sum()) == b.z_crossings
            for counts, b in zip(recount, bundles)
        )
        yield bundles, ok


def decomposition_audit(
    field: RademacherField, N: int, nested: Sequence[int] = ()
) -> tuple[StatBundle, bool]:
    """Audit one field's ``N`` grid and its nested grids: :func:`audit_fields` of one field.

    Every edge in ``nested`` must be at most ``N``.  Returns the bundle of
    the ``N`` grid plus the audit verdict over all of them.
    """
    sizes = tuple(sorted({N, *nested}))
    if sizes[-1] > N:
        raise ValueError(f"nested edges must be <= {N}, got {tuple(nested)}")
    ((bundles, ok),) = audit_fields([field], sizes)
    return bundles[-1], ok


def diag_zero_counts(key: StreamKey, sizes: Sequence[int]) -> list[int]:
    """Zero counts on the even diagonal of each ``N`` in ``sizes``, sampled distribution-only.

    Draws the diagonal increments directly — ``S(2k,2k) - S(2k-2,2k-2)``
    is a signed binomial over the ``8k-4`` fresh cells of the L-shaped
    block — instead of sweeping the whole grid.  Same law as the
    ``delta`` field of :func:`sweep_grid`, NOT pathwise equal to it:
    the draws come from a different stream than the sign field.  The
    increments are drawn once, ``max(sizes) // 2`` of them, and size
    ``N`` counts the zeros among the first ``N // 2``: the batch's first
    ``k`` draws are those of a batch of ``k``, so each count equals a
    draw of its own size.
    """
    if min(sizes) < 0:
        raise ValueError(f"N must be >= 0, got {tuple(sizes)}")
    steps = max(sizes) // 2
    if steps == 0:
        return [0] * len(sizes)
    counts = 8 * np.arange(1, steps + 1, dtype=np.int64) - 4
    hits = np.cumsum(signed_binomial_batch(key, counts)) == 0
    return [int(np.count_nonzero(hits[: n // 2])) for n in sizes]


def diag_zero_count(key: StreamKey, N: int) -> int:
    """:func:`diag_zero_counts` of one size."""
    (count,) = diag_zero_counts(key, (N,))
    return count


def annulus_counts(field, eps: float, sizes: Sequence[int]) -> list[int]:
    """Zeros on ``[ceil(eps*n), n]^2`` for each size ``n``, from one read of the largest grid."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    M = max(_check_sizes(sizes))
    i, j = zero_points(field, M, M).T
    near, far = np.minimum(i, j), np.maximum(i, j)
    return [int(np.count_nonzero((near >= math.ceil(eps * n)) & (far <= n))) for n in sizes]


def annulus_zero_check(field: RademacherField, eps: float, N: int) -> tuple[bool, int]:
    """Presence and count of zeros on the co-annulus square ``[eps*N, N]^2``."""
    (count,) = annulus_counts(field, eps, (N,))
    return count > 0, count


def twin_zero_counts(field, eps: float, sizes: Sequence[int], radius: int) -> list[int]:
    """:func:`twin_zero_count` for each size, from one read of the largest size's band.

    The band of ``M = max(sizes)``, ``M - 1 + radius`` rows by ``ceil((M -
    1) / eps) - 1 + radius`` columns, holds every wedge zero of every size
    and every zero within ``radius`` of one, so one companion mask serves
    all sizes.  Zeros are coded ``i * stride + j``, sorted as they are
    row-major; per row offset, two binary searches count the codes in the
    span of each wedge zero's L1 ball on that row.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if min(sizes) < 0:
        raise ValueError(f"N must be >= 0, got {tuple(sizes)}")
    M = max(sizes)
    if M <= 2:
        return [0] * len(sizes)
    cols = math.ceil((M - 1) / eps) - 1 + radius
    i, j = zero_points(field, M - 1 + radius, cols).T
    stride = cols + radius + 1  # a ball's span on a row never reaches the next row's codes
    codes = i * stride + j
    wedge = (1 < i) & (i < M) & (eps * i < j) & (j < i / eps)  # the definition's float tests
    hits = np.full(np.count_nonzero(wedge), -1)  # each wedge zero finds itself at offset 0
    for di in range(-radius, radius + 1):
        w, centre = radius - abs(di), codes[wedge] + di * stride
        hits += np.searchsorted(codes, centre + w, "right") - np.searchsorted(codes, centre - w)
    twin_rows = i[wedge][hits > 0]  # ascending
    return [int(np.searchsorted(twin_rows, n)) for n in sizes]  # rows i < n


def twin_zero_count(field: RademacherField, eps: float, N: int, radius: int) -> int:
    """Zeros in the wedge ``{eps*i < j < i/eps, 1 < i < N}`` with a companion.

    A companion is any *other* zero of the sum array (wedge membership not
    required) at L1 distance at most ``radius``.  Memory is the zero points
    of the band :func:`twin_zero_counts` reads, plus one tile.
    """
    (count,) = twin_zero_counts(field, eps, (N,), radius)
    return count
