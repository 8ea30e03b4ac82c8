"""Pathwise zero-set statistics of simulated grids.

The rectangle sum ``S(i,j)`` is the sum of the sign field over
``[1,i] x [1,j]``.  Sums are never held whole: every reader works on
tiles of ``b`` rows x ``R`` grids x ``cols`` columns, rows outermost,
holding at most :data:`TILE_CELLS` cells, rows counted at their width
padded to whole 8-cell words, or one row when a row alone is larger.  A
full block of grids lies side by side in bands of :data:`BAND_ROWS`
rows; a block of fewer grids, a lone field among them, gets taller tiles
(see :func:`tile_shape`).  One :class:`_Tiles` per tile shape owns every
buffer of the read: :meth:`_Tiles.read` hashes each tile in one call and
reads it into a 0/1 byte plane of its sign bits; :meth:`_Tiles.fold` sums
it along its rows eight cells per ``uint64`` word, by exact byte-lane
arithmetic, with a ``cumsum`` only over each row's 64-cell block counts;
``b`` in-place row adds fold the rows down, the first of which adds the
row carried from the tile above.  Each block width of a sweep is one
:class:`_Block`: the plan that every block of that width reads, and every
buffer at its exact shape, filled in place by every tile of that width,
so no tile allocates; a sweep has at most two widths, the full block's
and a short last block's, and holds one at a time.

The kernel's one input is a block of stream roots, a ``uint64`` array
(see :func:`~sheetwalk.randfield.field_roots`), hashed by
:func:`~sheetwalk.randfield.sign_rows`; its output is one int64 array
per counter, sizes by grids.  :func:`sweep_roots`, the production
path, takes and returns just those arrays.  The one-field readers
(:func:`sweep_grid`, :func:`decomposition_audit`, the one-size zero-set
wrappers, :func:`iter_partial_rows` and :func:`render_zero_set`, the PGM
of a zero set) send in a block of one root, ``field.root``; only
:func:`sweep_grid` and :func:`decomposition_audit` turn the arrays into
a :class:`StatBundle`.

The field is prefix-consistent: the ``n x n`` grid is the top-left corner
of any larger one, so each replicate is read once, at the largest edge
asked for, for every size.  The sweep counts, per row, on each column
segment between the sorted sizes, only the flag planes that the counters
its caller reads need: the zeros (``S == 0``) for ``gamma``, the ones for
``gamma_prime``, and the crossings, from int8 signs, for ``z_crossings``;
``delta`` and ``d_antidiag`` read one cell per row, through one probe
table and one gather per tile, and no plane at all.  The crossing audit
is one more output of the sweep, :data:`AUDIT`: it is counted in that
same pass, on the same segments, and always adds the planes it reads,
with each row's zero flag at every edge column from the same gather; its
rule is on int64 adjacent products of the sums: ``S(i,j) * S(i,j+1) <=
0`` crosses, and ``== 0`` touches a zero.
:func:`_zero_blocks` is the one zero-set reader, of blocks of roots: the
annulus and twin-zero counts and :func:`zero_points` read the zeros from it.
The dense oracle shares none of this: :func:`dense_sums` builds the int64
table ``S`` from the scalar ``field.value`` with one ``cumsum`` down and
one across, and :func:`brute_force_bundle` counts it with whole-array numpy.

Integer widths: the sums are int32, since ``|S(i,j)| <= i*j <= 2**30``
at the sweep ceiling, and the audit's adjacent products, which reach
``2**60``, are int64.  The sweep's own crossing test multiplies int8
signs, never the sums.  Each ceiling rule is written once, in the check
its readers call first: :func:`check_sizes` for the sweeps and the
annulus, :func:`check_diag_sizes` for the diagonal draws and
:func:`twin_band` for the twin-zero band.  The harness's capacity gate
is a task of no replicates, which reads nothing and runs just these checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exactprob import MEAN_SUM_CEILING, CapacityError
from .randfield import RademacherField, StreamKey, as_int, sign_rows, signed_binomial_batch

# Largest grid edge the sweep accepts.  Time grows as N**2; memory is one
# tile per worker (TILE_CELLS cells, or one row of N cells when that is
# larger), so for a single grid it stays linear in N.
SWEEP_CEILING = 2**15
# Largest grid edge delta-fast draws: its N // 2 diagonal points, as many as delta_mean_exact takes
DIAG_FAST_CEILING = 2 * MEAN_SUM_CEILING
RENDER_CEILING = 2**13  # largest image edge render_zero_set draws
TILE_CELLS = 2**16  # cells per tile, each row counted at its padded width
BAND_ROWS = 8  # rows per tile of a full block: grids side by side, few row adds per cell


@dataclass(frozen=True, eq=False)
class StatBundle:
    """Every counter from one sweep of an ``N x N`` grid.

    ``row_profiles[i-1]`` is the number of horizontal sign changes (weak:
    zero counts) in row ``i``; summing it recovers ``z_crossings``
    exactly.  The zero set is read by :func:`zero_points`.
    """

    N: int
    gamma: int  # cells with S = 0
    gamma_prime: int  # cells with S = 1
    z_crossings: int  # horizontal pairs with S(i,j) * S(i,j+1) <= 0
    delta: int  # even diagonal cells (2i,2i) with S = 0
    d_antidiag: int  # anti-diagonal cells (i, N-i) with S = 0
    row_profiles: np.ndarray


#: The counters of a :class:`StatBundle`, in field order.
COUNTERS = ("gamma", "gamma_prime", "z_crossings", "delta", "d_antidiag")
#: The crossing audit's output of :func:`sweep_roots`, not a bundle field: each
#: grid's count of failed audit conditions, 0 when it passes.
AUDIT = "audit_faults"


def tile_shape(rows: int, cols: int | None = None) -> tuple[int, int]:
    """``(grids, rows)`` per tile of a full block of ``rows x cols`` grids, square by default.

    A full block puts as many grids side by side as fit in a band of
    :data:`BAND_ROWS` rows (the whole grid when it is shorter) within
    :data:`TILE_CELLS`; its tiles, like those of any block of ``R`` grids,
    are :func:`_tile_height` rows tall.  A row counts at its width padded
    to whole 8-cell words, the width of the fold's byte plane.
    """
    cols = cols or rows
    grids = max(1, TILE_CELLS // (min(BAND_ROWS, rows) * _padded(cols)))
    return grids, _tile_height(rows, cols, grids)


def _padded(cols: int) -> int:
    """``cols`` rounded up to whole 8-cell words."""
    return -(-cols // 8) * 8


def _tile_height(rows: int, cols: int, R: int) -> int:
    """Rows per tile of a block of ``R`` grids: as many as fit in :data:`TILE_CELLS`, at least one.

    Fewer grids than a full block get taller tiles, so a lone field or a
    short last block is read in as few tiles as the cap allows.
    """
    return min(rows, max(1, TILE_CELLS // (R * _padded(cols))))


def _check_edge(N: int) -> int:
    N = as_int("grid edge", N, 1)
    if N > SWEEP_CEILING:
        raise CapacityError(f"sweep capped at N={SWEEP_CEILING}, got {N}")
    return N


_ONES = np.uint64(0x0101010101010101)  # a multiply sums each byte lane with the lanes below
_TWOS = np.uint64(0x0202020202020202)  # the same, doubled
_S8 = np.uint64(8)
_S55 = np.uint64(55)
# 63 - p in the lane of block place p, for each of the 8 words of a 64-cell block:
# bytes 0x3F down to 0x38 in the first word, each 8 less in every word after it
_LANE_BIAS = np.uint64(0x38393A3B3C3D3E3F) - np.arange(0, 64, 8, dtype=np.uint64) * _ONES


class _Tiles:
    """A block of ``grids`` ``rows x cols`` grids, read in tiles of ``height`` rows.

    Both sides are checked against :data:`SWEEP_CEILING` first; ``height``
    is :func:`_tile_height`.  ``words`` takes each tile's hash words in
    rows ``1..height``, and ``sums``, listed by row in ``row_views``, is
    the first half of the same memory as int32, with the carried row in
    row 0: that row lies below word row 1, which the hash never writes,
    and sum rows ``1..b`` lie only over words that the sign compare has
    already read.  ``scratch`` is the hash's scratch.  ``bits[k, r,
    j-1]`` is 1 where the sign at tile row ``k``, grid ``r``, column ``j``
    is +1, else 0, each row padded to whole 8-cell words; ``plane`` is it
    cut to ``cols``.  The rest are the fold's; its words per block start
    at zero, so the pad word before a row of several blocks stays zero.
    """

    def __init__(self, rows: int, cols: int, grids: int) -> None:
        self.rows = rows = _check_edge(rows)
        cols = _check_edge(cols)
        self.height = height = _tile_height(rows, cols, grids)
        self.words = words = np.empty((height + 1, grids, cols), dtype=np.uint64)
        self.sums = words.view(np.int32).reshape(-1)[: words.size].reshape(words.shape)
        # a list of rows: indexing a row per add costs as much as the add
        self.row_views = list(self.sums)
        self.scratch = np.empty((height, grids, cols), dtype=np.uint64)
        nwords, self.blocks, self.full = -(-cols // 8), -(-cols // 64), cols // 64
        # a row of more than one block starts with a zero word, a pad for the block cumsum
        pad = int(self.blocks > 1)
        per_row = self.blocks + pad
        self.bits = np.empty((height, grids, nwords * 8), dtype=np.uint8)  # whole 8-cell words
        self.plane = self.bits[:, :, :cols]
        self.lanes = self.bits.view(np.uint64)
        self.counts = np.empty((height, grids, nwords), dtype=np.uint64)  # +1 cells, byte 7
        self.packed = np.zeros((height, grids, per_row), dtype=np.uint64)  # a word per block
        self.word_base = self.packed.view(np.uint8)[:, :, 8 * pad : 8 * pad + nwords]  # B
        self.before = np.empty((height, grids, per_row), dtype=np.int16)  # the block sums
        self.before[:, :, 0] = -64  # a row's first block starts at S_row = 0
        # a whole tile row of it, so the add runs in long loops
        self.lane_bias = _LANE_BIAS[np.arange(grids * nwords) % nwords % 8].reshape(grids, -1)
        # S_row before block q is 2 * (+1 cells before it) - 64 q; the lanes hold 64 more
        self.block_bias = (64 * np.arange(1, self.blocks + 1)).astype(np.int16)
        self.sum_type = np.int16 if cols < 2**15 else np.int32  # |S_row| <= cols

    def fold(self, b: int) -> np.ndarray:
        """Write the row sums of the plane's first ``b`` rows into ``sums[1 : b + 1]``; return it.

        Row ``k`` gets ``S_row(j)``, the sum of its signs over columns
        ``1..j``, as int32.  Viewed as ``uint64``, a word of the plane holds
        8 cells, one per byte lane, and exact lane arithmetic turns it, in
        place, into ``S_blk + 64`` per cell, where ``S_blk`` sums the row
        from the start of the cell's 64-cell block:

        - one multiply by ``0x0101...01`` leaves each word's count of +1
          cells in its top byte;
        - those counts, packed 8 to a word (one word per block), multiplied
          the same way and shifted left one byte, give each word's count of
          +1 cells before it in its block, ``B``;
        - ``(word + B) * 0x0202...02`` puts ``2C`` in each lane, ``C`` the
          +1 cells of the block up to that cell, and adding ``63 - p`` to
          the lane of block place ``p`` makes it ``2C + 63 - p = S_blk +
          64``.  Since ``C <= p + 1``, every lane stays in ``[0, 128]``, so
          no carry crosses a lane.

        A ``cumsum`` over the block counts gives each row's sum before each
        block; a row of one block needs none.  One add of the lanes and
        those sums, less 64, writes the int32 row sums.  The block sums are
        int16: its arithmetic wraps modulo ``2**16``, and every block sum
        fits int16, so each comes out exact.  The add runs in int16 too,
        which holds every sum of a row narrower than ``2**15``, and in int32
        for the widest rows.  A padding byte only reaches lanes, words and
        blocks to its right, past column ``cols``, so its value does not
        matter.
        """
        out = self.sums[1 : b + 1]
        lanes, counts, packed, word_base = (
            self.lanes[:b], self.counts[:b], self.packed[:b], self.word_base[:b]
        )
        np.multiply(lanes, _ONES, out=counts)
        np.copyto(word_base, counts.view(np.uint8)[:, :, 7::8])
        packed *= _ONES
        before = self.before[:b]
        block_base = before[:, :, : self.blocks]  # S_row before each block, less 64
        if self.blocks > 1:
            # twice each block's +1 cells: byte 6 of a whole block is at most 56, so
            # bit 55 is clear (the last block's count is never read)
            np.right_shift(packed, _S55, out=before, casting="unsafe")
            # one cumsum down the whole tile; less each row's first entry, whatever
            # that held, it leaves twice the +1 cells before each block of the row
            np.cumsum(before.reshape(-1), dtype=np.int16, out=before.reshape(-1))
            np.subtract(block_base, before[:, :, :1], out=block_base)
            block_base -= self.block_bias
        np.left_shift(packed, _S8, out=packed)
        np.add(lanes, word_base, out=lanes)
        lanes *= _TWOS
        lanes += self.lane_bias
        full, split = self.full, 64 * self.full
        if full:
            blocks = (b, out.shape[1], full, 64)
            np.add(
                self.bits[:b, :, :split].reshape(blocks),
                block_base[:, :, :full, None],
                out=out[:, :, :split].reshape(blocks),
                dtype=self.sum_type,
            )
        if full < self.blocks:  # the last, shorter block
            cols = out.shape[2]
            np.add(
                self.bits[:b, :, split:cols],
                block_base[:, :, full:],
                out=out[:, :, split:],
                dtype=self.sum_type,
            )
        return out

    def read(self, roots: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, T)``, ``T[k, r, j-1] = S(start + k, j)`` of the stream ``roots[r]``.

        ``roots`` is a ``uint64`` block of exactly ``grids`` roots; the
        tiles may read several blocks in turn.  Every ``T`` is a view of
        the sums buffer that the next tile overwrites, so it lives for one
        iteration; a caller that keeps it must copy it.

        Row 0 of the buffer carries ``S(start - 1, .)``.  Each tile's hash
        words are hashed into rows ``1..b`` in one call, and their sign bits
        (bit 63) read by one compare into the 0/1 plane.  :meth:`fold`
        writes the row sums over the hash words, and ``b`` in-place row
        adds, the first of which adds the carried row, fold them down.
        """
        rows, height, words, sums = self.rows, self.height, self.words, self.sums
        row_views, scratch, fold, plane = self.row_views, self.scratch, self.fold, self.plane
        sums[0] = 0  # S(0, j)
        for start in range(1, rows + 1, height):
            b = min(height, rows + 1 - start)
            hashed = sign_rows(roots, start, words[1 : b + 1], scratch[:b])
            np.less(hashed.view(np.int64), 0, out=plane[:b])
            tile = fold(b)
            for above, row in zip(row_views, row_views[1 : b + 1]):
                row += above
            sums[0] = sums[b]  # the carry, copied out before the next tile is hashed over it
            yield start, tile


def _root_block(field: RademacherField) -> np.ndarray:
    """The one-stream block of ``field``: its root as a ``uint64`` array."""
    return np.array([field.root], dtype=np.uint64)


def _zero_blocks(roots: np.ndarray, rows: int, cols: int) -> Iterator[tuple]:
    """Yield ``(R, r, i, j)`` per block of ``R`` streams: the zeros on ``[1, rows] x [1, cols]``,
    int64, stably sorted by ``r``, a zero's stream in the block, so row-major in each stream."""
    for block in _field_blocks(roots, rows, cols):
        R = len(block)
        tiles = _Tiles(rows, cols, R).read(block)  # found: ((i - 1) * R + r) * cols + j - 1
        found = [np.flatnonzero(tile == 0) + (start - 1) * R * cols for start, tile in tiles]
        row, j = np.divmod(np.concatenate(found), cols)
        i, r = np.divmod(row, R)
        order = np.argsort(r, kind="stable")
        yield R, r[order], i[order] + 1, j[order] + 1


def zero_points(field, rows: int, cols: int) -> np.ndarray:
    """Row-major ``(k, 2)`` int64 ``(i, j)`` of the zeros of ``S`` on ``[1, rows] x [1, cols]``."""
    ((_, _, i, j),) = _zero_blocks(_root_block(field), rows, cols)
    return np.stack((i, j), axis=1)


def render_zero_set(field, n: int) -> bytes:
    """The zero set of ``field`` on ``[1, n]^2`` as a binary PGM.

    Pixel (1, 1) is top left and rows run in row-major order, one byte
    per cell: 0 zero, 128 negative, 255 positive.
    """
    n = as_int("image edge", n, 1)
    if n > RENDER_CEILING:
        raise CapacityError(f"render capped at N={RENDER_CEILING}, got {n}")
    pixels = np.empty((n, 1, n), dtype=np.uint8)  # rows of a one-grid tile
    for start, sums in _Tiles(n, n, 1).read(_root_block(field)):
        pixels[start - 1 : start - 1 + len(sums)] = np.where(
            sums == 0, 0, np.where(sums < 0, 128, 255)
        )
    return b"P5\n%d %d\n255\n" % (n, n) + pixels.tobytes()


def iter_partial_rows(field: RademacherField, N: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, S(i, 1..N))`` for each row; the vector is reused in place.

    Callers that keep a row beyond one iteration must copy it.
    """
    tiles = _Tiles(N, N, 1)  # checks N before the row is made
    col = np.empty(N, dtype=np.int64)
    for start, tile in tiles.read(_root_block(field)):
        for k, row in enumerate(tile[:, 0]):
            col[:] = row
            yield start + k, col


def sweep_roots(
    roots: np.ndarray, sizes: Sequence[int], counters: Iterable[str]
) -> dict[str, np.ndarray]:
    """Sweep the streams with ``roots`` (see :func:`~sheetwalk.randfield.field_roots`).

    The production sweep.  Every ``n x n`` grid is the top-left corner
    of the ``M x M`` grid, ``M = max(sizes)``, so one sweep at ``M`` serves
    all sizes: size ``n`` is read from rows ``<= n`` and columns ``<= n``
    of the same tiles.  Only the ``counters`` asked for (names from
    :data:`COUNTERS`, and :data:`AUDIT`) are computed.  The streams are
    swept in blocks of ``tile_shape(M)[0]``.  Each counter comes back as
    an int64 ``(len(sizes), len(roots))`` array, sizes in the order given
    and streams in the order of ``roots``.

    :data:`AUDIT` is the crossing audit, counted in the same pass on the
    sweep's column segments.  Per row of each ``n x n`` grid, the count of
    adjacent products ``S(i,j) * S(i,j+1) <= 0`` (int64 products of the
    sums, a rule that shares no code with the sweep's sign-based
    profiles) must equal the profile entry, and the products ``== 0``
    (crossings that touch a zero) must be sandwiched between the row's
    zeros over ``[1, n-1]`` and twice its zeros over ``[1, n]`` (every
    zero makes at most two of them vanish).  The crossing totals must
    match too.  Its entry counts the grid's failed conditions, so 0 means
    the grid passes.  The audit always sweeps the planes it reads, so its
    entries do not depend on the other counters asked for.
    """
    sizes, counters = check_sizes(sizes), _check_counters(counters)
    M, swept = max(sizes), []
    for R, blocks in itertools.groupby(_field_blocks(roots, M, M), len):
        block = _Block(sizes, counters, R)
        swept += [_sweep_block(block, source) for source in blocks]
        del block  # the full width's buffers go before a short last block's are made
    return {c: _joined([values[c] for values in swept], sizes) for c in counters}


def _some_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one grid size")
    return sizes


def check_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """``sizes`` as a tuple, refused when empty or when an edge is below 1 or
    past :data:`SWEEP_CEILING`: the check of every sweep and of the annulus."""
    return tuple(_check_edge(n) for n in _some_sizes(sizes))


def check_eps(eps: float) -> None:
    """Refuse a wedge or annulus aperture ``eps`` outside ``(0, 1)``."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")


def _check_counters(counters: Iterable[str]) -> frozenset[str]:
    if isinstance(counters, str):  # a set of it would be its letters
        raise ValueError(f"counters must be a collection of names, got the string {counters!r}")
    counters = frozenset(counters)
    if not counters:
        raise ValueError("need at least one counter")
    if unknown := counters - {*COUNTERS, AUDIT}:
        raise ValueError(f"unknown counters {sorted(unknown)}; choose from {(*COUNTERS, AUDIT)}")
    return counters


def _field_blocks(roots: np.ndarray, rows: int, cols: int) -> Iterator[np.ndarray]:
    """``roots`` in the blocks of a read of ``rows x cols`` grids; both edges are checked first."""
    _check_roots(roots)
    grids = tile_shape(_check_edge(rows), _check_edge(cols))[0]
    return (roots[at : at + grids] for at in range(0, len(roots), grids))


def _check_roots(roots: np.ndarray) -> None:
    dtype = getattr(roots, "dtype", type(roots).__name__)
    if dtype != np.uint64:
        raise ValueError(f"roots must be a uint64 array, got {dtype}")
    if roots.ndim != 1:  # numpy would broadcast any other shape into wrong counts
        raise ValueError(f"roots must be a 1-D array, got shape {roots.shape}")


def _joined(blocks: list[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    """The blocks' ``(len(sizes), R)`` arrays side by side; ``(len(sizes), 0)`` with none."""
    return np.concatenate([np.empty((len(sizes), 0), dtype=np.int64), *blocks], axis=1)


ZEROS, ONES, CROSSINGS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES = range(5)  # flag planes
_PLANE_OF = {"gamma": ZEROS, "gamma_prime": ONES, "z_crossings": CROSSINGS}


class _Block:
    """One block width of a sweep of ``sizes``: the plan of its blocks of ``R`` grids, and buffers.

    The sorted edges cut each row of the ``M x M`` grid into column
    segments ``[e_{t-1}, e_t)``.  Each row is counted per segment on the
    flag planes that ``counters`` read: zeros for ``gamma``, ones for
    ``gamma_prime`` and crossings for ``z_crossings``.  Counters that hold
    :data:`AUDIT` always add the zeros and the crossings, and the audit's
    product crossings and product touches.  ``planes`` lists the planes
    filled, in plane order, and ``slot[p]`` is plane ``p``'s place in the
    flag and count buffers.  Single cells are read through ``probes``,
    ``(M, P)`` 0-based columns, one per row per probe, clipped to the grid
    (``None`` with no probe): ``i - 1`` in row ``i`` at ``diag``, for
    ``delta``; ``n - i - 1`` at ``anti + t`` and ``n - 1`` at ``edge +
    t``, ``n = edges[t]``, for ``d_antidiag`` and the audit.

    The buffers, each at its exact shape, are filled in place by every
    block of ``R`` grids.  Per tile of ``b = tiles.height`` rows:
    ``flags``, ``(planes, b, R, M)``; the crossing test's int8 ``signs``
    and ``products``; the audit's int64 ``sum_products``.  Per row:
    ``counts``, ``(planes, M, R, K)``, each plane's count on each column
    segment (a row has at most ``SWEEP_CEILING = 2**15`` cells, so they
    fit uint16), and ``probed``, ``(M, R, P)``, ``S == 0`` at the row's
    probe columns, gathered through ``row`` and ``grid``.  A buffer no
    counter reads is empty or not made.
    """

    def __init__(self, sizes: tuple[int, ...], counters: frozenset[str], R: int) -> None:
        self.sizes = sizes
        self.counters = counters
        self.M = M = max(sizes)
        self.edges = edges = sorted(set(sizes))
        self.rank = [edges.index(n) for n in sizes]  # sizes[s] == edges[rank[s]]
        self.bounds = np.array([0, *edges[:-1]])
        self.audit = audit = AUDIT in counters
        read = {_PLANE_OF[c] for c in counters if c in _PLANE_OF}
        if audit:
            read |= {ZEROS, CROSSINGS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES}
        self.planes = sorted(read)
        self.slot = {p: k for k, p in enumerate(self.planes)}
        k = np.arange(M)  # row k + 1
        probes = []
        if "delta" in counters:
            self.diag = len(probes)
            probes.append(k)
        if "d_antidiag" in counters:
            self.anti = len(probes)
            probes += [n - 2 - k for n in edges]
        if audit:
            self.edge = len(probes)
            probes += [np.full(M, n - 1) for n in edges]
        # a column is below SWEEP_CEILING = 2**15, so it fits int16
        self.probes = np.stack(probes, 1).clip(0, M - 1).astype(np.int16) if probes else None
        self.tiles = _Tiles(M, M, R)
        b = self.tiles.height
        self.flags = np.empty((len(self.planes), b, R, M), dtype=bool)
        self.counts = np.empty((len(self.planes), M, R, len(edges)), dtype=np.uint16)
        if CROSSINGS in self.slot:  # the crossing test multiplies int8 signs
            self.signs = np.empty((b, R, M), dtype=np.int8)
            self.products = np.empty((b, R, M - 1), dtype=np.int8)
        if audit:
            self.sum_products = np.empty((b, R, M - 1), dtype=np.int64)
        if probes:
            self.probed = np.empty((M, R, len(probes)), dtype=bool)
            self.row, self.grid = np.arange(b)[:, None, None], np.arange(R)[:, None]

    def per_row(self, n: int, t: int, planes) -> np.ndarray:
        """``(len(planes), n, R)`` int64 counts of grid ``n = edges[t]``, per row.

        Rows ``1..n`` of the block last swept, summed over the segments up
        to edge ``n``.
        """
        counts = self.counts[[self.slot[p] for p in planes], :n]
        rows = counts[..., 0].astype(np.int64)
        for u in range(1, t + 1):  # a sum over the short last axis is 5-7x slower
            rows += counts[..., u]
        return rows


def _sweep_block(block: _Block, roots: np.ndarray) -> dict[str, np.ndarray]:
    """Counters of one block of grids, ``roots`` a block of ``R`` roots (see :meth:`_Tiles.read`).

    Returns each counter of ``block`` as an int64 ``(len(sizes), R)``
    array; the per-row counts, row profiles among them, and the probe
    flags stay in the buffers of ``block`` (see :meth:`_Block.per_row`).

    Every size is reduced in one pass over the tiles of the largest edge
    ``M``, and each tile fills only the planes of ``block``: the zeros
    and the ones each by one compare of the sums, the crossings from
    their int8 signs.  Each row's counts are taken on every column
    segment by one ``reduceat`` over the planes (a crossing is filed
    under the column of its right-hand cell, so the pairs of the ``n``
    grid are those filed at columns ``< n``); size ``n`` sums the
    segments up to ``n`` over its first ``n`` rows.  An auditing block
    adds the product rule's two planes to the same count, filed the same
    way.  One gather per tile flags ``S == 0`` at every probe column of
    its rows; ``delta`` sums the diagonal probe over the even rows
    ``<= n``, ``d_antidiag`` the anti-diagonal probe of edge ``n`` over
    rows ``< n``.  :data:`AUDIT` counts, per size, the rows that break
    each row condition of the audit rule (see :func:`sweep_roots`), on
    the per-row counts of :func:`_audit_rows` and the profile, plus one
    when the crossing totals differ.
    """
    R, slot, flags, counts = len(roots), block.slot, block.flags, block.counts
    equal = [(flags[slot[p]], value) for p, value in ((ZEROS, 0), (ONES, 1)) if p in slot]
    crossing = CROSSINGS in slot
    if crossing:
        signs, products = block.signs, block.products
        flags[slot[CROSSINGS] :, :, :, 0] = False  # no pair ends at column 1
        cross = flags[slot[CROSSINGS], :, :, 1:]  # cross[k, r, j - 1]: the pair (j - 1, j) crosses
    if block.probes is not None:
        probed, row, grid = block.probed, block.row, block.grid
    if block.audit:
        sum_products = block.sum_products
        crossed, touched = flags[slot[PRODUCT_CROSSINGS] :, :, :, 1:]
    for start, tile in block.tiles.read(roots):
        rows = len(tile)
        here = slice(start - 1, start - 1 + rows)
        for plane, value in equal:  # S == 0 and S == 1, one compare of the sums each
            np.equal(tile, value, out=plane[:rows])
        if crossing:
            sg = signs[:rows]
            np.sign(tile, out=sg, casting="unsafe")  # -1, 0, 1: exact in int8
            np.multiply(sg[:, :, :-1], sg[:, :, 1:], out=products[:rows])
            np.less_equal(products[:rows], 0, out=cross[:rows])
        if block.audit:
            _product_crossings(tile, sum_products[:rows], crossed[:rows], touched[:rows])
        if block.planes:
            np.add.reduceat(
                flags[:, :rows], block.bounds, axis=3, dtype=np.uint16, out=counts[:, here]
            )
        if block.probes is not None:  # the same columns in every grid
            np.equal(tile[row[:rows], grid, block.probes[here, None]], 0, out=probed[here])
    read = [c for c in COUNTERS if c in _PLANE_OF and c in block.counters]  # off the planes
    values = {c: np.empty((len(block.sizes), R), dtype=np.int64) for c in block.counters}
    for s, (n, t) in enumerate(zip(block.sizes, block.rank)):
        per_row = block.per_row(n, t, [_PLANE_OF[c] for c in read])
        for c, total in zip(read, per_row.sum(axis=1)):
            values[c][s] = total
        if "delta" in block.counters:
            values["delta"][s] = probed[1:n:2, :, block.diag].sum(0)  # (2k, 2k) with 2k <= n
        if "d_antidiag" in block.counters:
            values["d_antidiag"][s] = probed[: n - 1, :, block.anti + t].sum(0)  # (i, n - i)
        if block.audit:
            crossings, touched, interior, full = _audit_rows(block, n, t)
            (profile,) = block.per_row(n, t, [CROSSINGS])
            faults = [crossings != profile, interior > touched, touched > 2 * full]
            # the totals' term follows from the rows' equality; it is the rule as documented
            values[AUDIT][s] = sum(f.sum(0) for f in faults) + (crossings.sum(0) != profile.sum(0))
    return values


def sweep_grid(field: RademacherField, N: int) -> StatBundle:
    """One pass over the grid, returning every pathwise counter at once."""
    return _one_stream(field, (N,), frozenset(COUNTERS))[0]


def _one_stream(field, sizes: Sequence[int], counters: frozenset[str]) -> tuple[StatBundle, dict]:
    """``field`` swept alone for ``counters``, all of :data:`COUNTERS` among them: the bundle of
    its largest grid, and the values."""
    block = _Block(check_sizes(sizes), counters, 1)
    values = _sweep_block(block, _root_block(field))
    s, M = block.sizes.index(block.M), block.M
    (profile,) = block.per_row(M, len(block.edges) - 1, [CROSSINGS])
    return StatBundle(M, *(int(values[c][s, 0]) for c in COUNTERS), profile[:, 0]), values


def dense_sums(field, rows: int, cols: int) -> np.ndarray:
    """The int64 table ``S(i, j)`` on ``[1, rows] x [1, cols]``, from the scalar ``field.value``.

    One ``cumsum`` down and one across; no tile, hash block or fold, so the
    dense recounts that read it share no code with the sweep.
    """
    rows, cols = as_int("rows", rows, 0), as_int("cols", cols, 0)
    signs = [field.value(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    return np.array(signs, dtype=np.int64).reshape(rows, cols).cumsum(axis=0).cumsum(axis=1)


def brute_force_bundle(
    field: RademacherField, N: int
) -> tuple[StatBundle, tuple[tuple[int, int], ...]]:
    """Reference recount on the :func:`dense_sums` table, counted with whole-array numpy.

    Returns the bundle and the zeros' ``(i, j)`` in row-major order.  A
    crossing is an int64 adjacent product ``<= 0``.  Quadratic memory;
    exists to cross-check :func:`sweep_grid` and :func:`zero_points` on
    small grids, not for production sizes.
    """
    N = as_int("grid edge", N, 1)
    if N > 256:
        raise CapacityError(f"dense recount capped at N=256, got {N}")
    S = dense_sums(field, N, N)
    zero = S == 0
    profiles = (S[:, :-1] * S[:, 1:] <= 0).sum(axis=1, dtype=np.int64)
    k = np.arange(N - 1)  # (k + 1, N - 1 - k): the anti-diagonal i + j = N
    bundle = StatBundle(
        N=N,
        gamma=int(np.count_nonzero(zero)),
        gamma_prime=int(np.count_nonzero(S == 1)),
        z_crossings=int(profiles.sum()),
        delta=int(np.count_nonzero(zero.diagonal()[1::2])),  # (2k, 2k) with 2k <= N
        d_antidiag=int(np.count_nonzero(zero[k, N - 2 - k])),
        row_profiles=profiles,
    )
    return bundle, tuple(map(tuple, (np.argwhere(zero) + 1).tolist()))


def _product_crossings(
    rows: np.ndarray, products: np.ndarray, crosses: np.ndarray, touches: np.ndarray
) -> None:
    """Adjacent products of ``rows`` along the last axis, and their masks, in place.

    ``products``, ``crosses`` and ``touches`` have one column fewer than
    ``rows``.  A product ``<= 0`` is a crossing; one ``== 0`` is a
    crossing that touches a zero (its sign is ambiguous at the boundary).
    """
    np.multiply(rows[..., :-1], rows[..., 1:], out=products, dtype=np.int64)
    np.less_equal(products, 0, out=crosses)
    np.equal(products, 0, out=touches)


def _audit_rows(block: _Block, n: int, t: int) -> tuple[np.ndarray, ...]:
    """Per-row audit counts of grid ``n = edges[t]`` of the block just swept, each ``(n, R)``.

    Product crossings, product touches, zeros over ``[1, n-1]`` and
    zeros over ``[1, n]``: the last from the sweep's zero segments, the
    first from it less the row's zero flag at column ``n``, a probe.
    """
    zeros, crossings, touched = block.per_row(n, t, [ZEROS, PRODUCT_CROSSINGS, PRODUCT_TOUCHES])
    return crossings, touched, zeros - block.probed[:n, :, block.edge + t], zeros


def decomposition_audit(
    field: RademacherField, N: int, nested: Sequence[int] = ()
) -> tuple[StatBundle, bool]:
    """Audit one field's ``N`` grid and its nested grids: the :data:`AUDIT` of one stream.

    Every edge in ``nested`` must be at most ``N``.  Returns the bundle of
    the ``N`` grid, from the same sweep, plus the audit verdict over all
    of them: True when no grid fails a condition.
    """
    N, *edges = (as_int("grid edge", n) for n in (N, *nested))  # before a set merges 3.0 into 3
    if max(edges, default=N) > N:
        raise ValueError(f"nested edges must be <= {N}, got {tuple(nested)}")
    bundle, values = _one_stream(field, sorted({N, *edges}), frozenset((*COUNTERS, AUDIT)))
    return bundle, not values[AUDIT].any()


def check_diag_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """``sizes`` as a tuple, refused when empty, negative or past
    :data:`DIAG_FAST_CEILING`: the check of :func:`diag_zero_counts`."""
    sizes = tuple(as_int("N", n, 0) for n in _some_sizes(sizes))
    if max(sizes) > DIAG_FAST_CEILING:
        raise CapacityError(f"diagonal draws capped at N={DIAG_FAST_CEILING}, got {max(sizes)}")
    return sizes


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
    sizes = check_diag_sizes(sizes)
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


def annulus_counts(roots: np.ndarray, eps: float, sizes: Sequence[int]) -> np.ndarray:
    """Zeros on ``[ceil(eps*n), n]^2``, sizes ``n`` by streams, read at the largest size."""
    check_eps(eps)
    sizes = check_sizes(sizes)
    M, counts = max(sizes), []
    for R, r, i, j in _zero_blocks(roots, M, M):
        near, far = np.minimum(i, j), np.maximum(i, j)
        inside = [(near >= math.ceil(eps * n)) & (far <= n) for n in sizes]
        counts.append(np.array([np.bincount(r[m], minlength=R) for m in inside]))
    return _joined(counts, sizes)


def annulus_zero_check(field: RademacherField, eps: float, N: int) -> tuple[bool, int]:
    """Presence and count of zeros on the co-annulus square ``[eps*N, N]^2``."""
    count = int(annulus_counts(_root_block(field), eps, (N,))[0, 0])
    return count > 0, count


def twin_band(M: int, eps: float, radius: int) -> tuple[int, int] | None:
    """Rows and columns of the band :func:`twin_zero_counts` reads for largest size ``M``.

    None when ``M <= 2``, whose wedge holds no cell, so no band is read;
    either side past :data:`SWEEP_CEILING` is refused, rows first, and so
    is a band whose width ``(M - 1) / eps`` overflows to infinity.
    """
    if M <= 2:
        return None
    rows, width = M - 1 + radius, (M - 1) / eps
    _check_edge(rows)
    if math.isinf(width):  # (M - 1) / eps overflowed, at a subnormal eps; math.ceil would raise
        raise CapacityError(f"sweep capped at N={SWEEP_CEILING}, got a band of infinite width")
    cols = math.ceil(width) - 1 + radius
    _check_edge(cols)
    return rows, cols


def twin_zero_counts(
    roots: np.ndarray, eps: float, sizes: Sequence[int], radius: int
) -> np.ndarray:
    """:func:`twin_zero_count`, sizes by streams, from one read of the largest size's band.

    The band of ``M = max(sizes)``, ``M - 1 + radius`` rows by ``ceil((M -
    1) / eps) - 1 + radius`` columns, holds every wedge zero of every size
    and every zero within ``radius`` of one, so one companion search serves
    all sizes and a block's streams.  Zeros are coded ``r * page + (i +
    radius) * stride + j``, sorted in :func:`_zero_blocks`' order; per row
    offset, two binary searches count the codes in each wedge zero's L1 ball.
    """
    check_eps(eps)
    radius = as_int("radius", radius, 1)
    sizes = tuple(as_int("N", n, 0) for n in _some_sizes(sizes))
    M = max(sizes)
    band = twin_band(M, eps, radius)
    if band is None:  # no read, so the roots are checked here
        _check_roots(roots)
        return np.zeros((len(sizes), len(roots)), dtype=np.int64)
    rows, cols = band
    stride = cols + radius + 1  # a ball's span on a row never reaches the next row's codes
    page = (rows + 2 * radius + 1) * stride  # nor a ball's rows the next stream's
    counts = []
    for R, r, i, j in _zero_blocks(roots, rows, cols):
        codes = r * page + (i + radius) * stride + j
        wedge = (1 < i) & (i < M) & (eps * i < j) & (j < i / eps)  # the definition's float tests
        hits = np.full(np.count_nonzero(wedge), -1)  # each wedge zero finds itself at offset 0
        for di in range(-radius, radius + 1):
            w, centre = radius - abs(di), codes[wedge] + di * stride
            hits += np.searchsorted(codes, centre + w, "right") - np.searchsorted(codes, centre - w)
        r, i = r[wedge][hits > 0], i[wedge][hits > 0]
        counts.append(np.array([np.bincount(r[i < n], minlength=R) for n in sizes]))
    return _joined(counts, sizes)


def twin_zero_count(field: RademacherField, eps: float, N: int, radius: int) -> int:
    """Zeros in the wedge ``{eps*i < j < i/eps, 1 < i < N}`` with a companion.

    A companion is any *other* zero of the sum array (wedge membership not
    required) at L1 distance at most ``radius``.  Memory is the zero points
    of the band :func:`twin_zero_counts` reads, plus one tile.
    """
    return int(twin_zero_counts(_root_block(field), eps, (N,), radius)[0, 0])
