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
asked for, for every size.  The sweep (:func:`sweep_fields`) counts from
int8 signs, per row, the zeros, the ones and the crossings on each column
segment between the sorted sizes.  The crossing audit
(:func:`audit_fields`) is counted in that same pass, on the same
segments; its rule is on int64 adjacent products of the sums:
``S(i,j) * S(i,j+1) <= 0`` crosses, and ``== 0`` touches a zero.
:func:`zero_points` is the one zero-set reader: the annulus and twin-zero
counts, and the oracle check, read the zeros from it.

Bounds that keep int64 safe: ``|S(i,j)| <= i*j <= 2**30`` at the sweep
ceiling, so the audit's adjacent products stay below ``2**60``.  The
sweep's own crossing test multiplies int8 signs, never the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """All counters from one sweep of an ``N x N`` grid.

    ``row_profiles[i-1]`` is the number of horizontal sign changes
    (weak: zero counts) in row ``i``; summing it recovers
    ``z_crossings`` exactly.  The zero set is read by :func:`zero_points`.
    """

    N: int
    gamma: int  # cells with S = 0
    gamma_prime: int  # cells with S = 1
    z_crossings: int  # horizontal pairs with S(i,j) * S(i,j+1) <= 0
    delta: int  # even diagonal cells (2i,2i) with S = 0
    d_antidiag: int  # anti-diagonal cells (i, N-i) with S = 0
    row_profiles: np.ndarray


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


def sweep_fields(fields: Iterable, sizes: Sequence[int]) -> Iterator[tuple[StatBundle, ...]]:
    """Sweep each field once; yield a tuple of its bundles, one per size as given.

    Every ``n x n`` grid is the top-left corner of the ``M x M`` grid,
    ``M = max(sizes)``, so one sweep at ``M`` serves all sizes: size
    ``n`` is read from rows ``<= n`` and columns ``<= n`` of the same
    tiles.  Fields are drawn from ``fields`` (which may be lazy) in blocks
    of ``tile_shape(M)[0]``, so the memory held at any time is one block's
    fields, the tile buffers and the counters.
    """
    plan = _SweepPlan(_check_sizes(sizes))
    for block in _field_blocks(fields, plan.M):
        yield from _sweep_block(block, plan)


def _check_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one grid size")
    for n in sizes:
        _check_edge(n)
    return sizes


def _field_blocks(fields: Iterable, N: int) -> Iterator[list]:
    """Draw ``fields`` (possibly lazy) in blocks of ``tile_shape(N)[0]``."""
    fields = iter(fields)
    while block := list(islice(fields, tile_shape(N)[0])):
        yield block


ZEROS, ONES, CROSSINGS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES = range(5)  # flag planes


class _SweepPlan:
    """What a sweep of ``sizes`` sets up once and every block reuses.

    The sorted edges cut each row of the ``M x M`` grid into column
    segments ``[e_{t-1}, e_t)``.  Each row is counted per segment on the
    flag planes zeros, ones and crossings, plus, when ``audit`` is set,
    the audit's product crossings and product touches.  The buffers are
    flat and sized for a full block, so a smaller last block uses a
    prefix of each and no tile allocates.
    """

    def __init__(self, sizes: tuple[int, ...], audit: bool = False) -> None:
        self.sizes = sizes
        self.M = M = max(sizes)
        self.edges = edges = sorted(set(sizes))
        self.rank = [edges.index(n) for n in sizes]  # sizes[s] == edges[rank[s]]
        self.bounds = np.array([0, *edges[:-1]])
        self.audit = audit
        self.planes = 5 if audit else 3
        grids, rows = tile_shape(M)
        cells = grids * rows * M
        self.words, self.scratch = _tile_buffers(M, M, grids)
        self.signs = np.empty(cells, dtype=np.int8)
        self.products = np.empty(cells, dtype=np.int8)
        self.flags = np.empty(self.planes * cells, dtype=bool)
        # a row has at most SWEEP_CEILING = 2**15 cells, so its counts fit uint16
        self.counts = np.empty(self.planes * M * grids * len(edges), dtype=np.uint16)
        self.diagonal = np.empty(M * grids, dtype=bool)
        if audit:
            self.sum_products = np.empty(cells, dtype=np.int64)
            self.edge_cols = np.array(edges) - 1
            self.edge_zeros = np.empty(M * grids * len(edges), dtype=bool)

    def segment_counts(self, R: int) -> np.ndarray:
        """``(planes, M, R, K)``: each plane's count per row and per segment, for ``R`` fields."""
        K = len(self.edges)
        return self.counts[: self.planes * self.M * R * K].reshape(self.planes, self.M, R, K)

    def edge_zero_flags(self, R: int) -> np.ndarray:
        """``(M, R, K)``: ``S(i, e_t) == 0`` for row ``i`` and edge ``e_t``, for ``R`` fields."""
        K = len(self.edges)
        return self.edge_zeros[: self.M * R * K].reshape(self.M, R, K)

    def per_row(self, R: int, n: int, t: int, planes) -> np.ndarray:
        """``(len(planes), n, R)`` int64 counts of grid ``n = edges[t]``, per row.

        Rows ``1..n``, summed over the segments up to edge ``n``.
        """
        counts = self.segment_counts(R)[planes, :n]
        rows = counts[..., 0].astype(np.int64)
        for u in range(1, t + 1):
            rows += counts[..., u]
        return rows


def _sweep_block(fields: Sequence, plan: _SweepPlan) -> list[tuple[StatBundle, ...]]:
    """Bundles of one block of fields; the per-row counts stay in ``plan``.

    Every size is reduced in one pass over the tiles of the largest edge
    ``M``.  From the int8 signs, each row's zeros, ones and crossings are
    counted on every column segment of ``plan`` (a crossing is filed
    under the column of its right-hand cell, so the pairs of the ``n``
    grid are those filed at columns ``< n``); size ``n`` sums the
    segments up to ``n`` over its first ``n`` rows.  An auditing plan
    adds the product rule's two planes to the same count, filed the same
    way, and keeps each row's zero flag at every edge.  The diagonal
    cells ``(i, i)`` are kept per row for the same end-of-block sums;
    each size's anti-diagonal ``(i, n - i)`` is read off a reversed
    diagonal view of the tile.
    """
    R, M, K = len(fields), plan.M, len(plan.edges)
    b = tile_shape(M)[1]
    cells = b * R * M
    signs = plan.signs[:cells].reshape(b, R, M)
    products = plan.products[: cells - b * R].reshape(b, R, M - 1)
    flags = plan.flags[: plan.planes * cells].reshape(plan.planes, b, R, M)
    zero, one, cross = flags[:3]  # cross[k, r, j]: the pair (j - 1, j) crosses
    flags[CROSSINGS:, :, :, 0] = False  # no pair ends at column 1
    counts = plan.segment_counts(R)
    diagonal = plan.diagonal[: M * R].reshape(M, R)  # S(i, i) == 0
    anti = np.zeros((K, R), dtype=np.int64)
    if plan.audit:
        sum_products = plan.sum_products[: cells - b * R].reshape(b, R, M - 1)
        crossed, touched = flags[PRODUCT_CROSSINGS:, :, :, 1:]
        edge_zeros = plan.edge_zero_flags(R)
    for start, tile in _partial_sum_tiles(fields, M, M, plan.words, plan.scratch):
        rows = len(tile)
        sg, z = signs[:rows], zero[:rows]
        np.sign(tile, out=sg, casting="unsafe")  # -1, 0, 1: exact in int8
        np.equal(sg, 0, out=z)
        np.equal(tile, 1, out=one[:rows])
        np.multiply(sg[:, :, :-1], sg[:, :, 1:], out=products[:rows])
        np.less_equal(products[:rows], 0, out=cross[:rows, :, 1:])
        if plan.audit:
            _product_crossings(tile, sum_products[:rows], crossed[:rows], touched[:rows])
            edge_zeros[start - 1 : start - 1 + rows] = z[:, :, plan.edge_cols]
        np.add.reduceat(
            flags[:, :rows], plan.bounds, axis=3, dtype=np.uint16,
            out=counts[:, start - 1 : start - 1 + rows],
        )
        square = z[:, :, start - 1 : start - 1 + rows]  # columns of this tile's rows
        diagonal[start - 1 : start - 1 + rows].T[...] = square.diagonal(axis1=0, axis2=2)
        for t, n in enumerate(plan.edges):
            above = min(start + rows, n) - start  # rows i < n here, each with (i, n - i)
            if above > 0:
                corner = z[:above, :, n - start - above : n - start][:, :, ::-1]
                anti[t] += corner.diagonal(axis1=0, axis2=2).sum(axis=1)
    per_size = []
    for n, t in zip(plan.sizes, plan.rank):
        per_row = plan.per_row(R, n, t, slice(ZEROS, CROSSINGS + 1))
        gamma, gamma_prime, crossings = per_row.sum(axis=1).tolist()
        profiles = per_row[CROSSINGS].T.copy()
        delta = diagonal[1:n:2].sum(axis=0).tolist()  # (2k, 2k) with 2k <= n
        per_size.append(
            [
                StatBundle(
                    N=n,
                    gamma=g,
                    gamma_prime=g1,
                    z_crossings=c,
                    delta=d,
                    d_antidiag=a,
                    row_profiles=profile,
                )
                for g, g1, c, d, a, profile in zip(
                    gamma, gamma_prime, crossings, delta, anti[t].tolist(), profiles
                )
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
    fields: Iterable, sizes: Sequence[int]
) -> Iterator[tuple[tuple[StatBundle, ...], bool]]:
    """Sweep each field once; yield its bundles (in the order of ``sizes``) and audit verdict.

    The bundles are those of :func:`sweep_fields`.  The audit is counted
    in the same pass, on the sweep's column segments: per row of each
    ``n x n`` grid, the count of adjacent products ``S(i,j) * S(i,j+1) <=
    0`` (int64 products of the sums, a rule that shares no code with the
    sweep's sign-based profiles) must equal the profile entry, and the
    products ``== 0`` (crossings that touch a zero) must be sandwiched
    between the row's zeros over ``[1, n-1]`` and twice its zeros over
    ``[1, n]`` (every zero makes at most two of them vanish).  The
    crossing totals must match too.  A field passes only if every one of
    its grids does.
    """
    plan = _SweepPlan(_check_sizes(sizes), audit=True)
    for block in _field_blocks(fields, plan.M):
        yield from _audit_block(block, plan)


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


def diag_zero_count(key: StreamKey, N: int) -> int:
    """Zero count on the even diagonal, sampled distribution-only.

    Draws the diagonal increments directly — ``S(2k,2k) - S(2k-2,2k-2)``
    is a signed binomial over the ``8k-4`` fresh cells of the L-shaped
    block — instead of sweeping the whole grid.  Same law as the
    ``delta`` field of :func:`sweep_grid`, NOT pathwise equal to it:
    the draws come from a different stream than the sign field.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    steps = N // 2
    if steps == 0:
        return 0
    counts = 8 * np.arange(1, steps + 1, dtype=np.int64) - 4
    increments = signed_binomial_batch(key, counts)
    return int(np.count_nonzero(np.cumsum(increments) == 0))


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
