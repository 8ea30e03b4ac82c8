"""Counter-based random sign field.

Every sign is a pure function of ``(seed, replicate, i, j)``: the field
hashes the coordinates instead of advancing sequential generator state, so
any cell can be read in any order, from any worker, and the value never
changes.  The hash is the SplitMix64 finalizer (Steele, Lea & Flood's
``mix64``), applied to a per-row key that is itself derived from a
per-replicate root.  The two consumers (field cells and batched binomial
draws) mix the seed with distinct domain tags so their streams never
collide.

The same finalizer is implemented twice — once on Python ints, once on
``numpy`` ``uint64`` arrays — and the two are bit-identical; tests pin
this down.  So are the field roots: :func:`field_roots` derives a whole
run of replicates' roots in one array call, and
:attr:`RademacherField.root` (via ``StreamKey._root``) is its scalar
oracle.  The array path hashes whole tiles, rows outermost, into
buffers the caller owns (:func:`sign_rows`: many fields, many rows, one
call), and stops at the raw hash words: bit 63 of each is its sign, which
the sweep reads straight into its fold.  The tile path stops the cell
finalizer one step early, since its last step ``z ^= z >> 31`` cannot
change bit 63, the only bit a sign reads.
:meth:`RademacherField.row_signs` is the one-field, one-row case, and
the only place the words become int64 +/-1 signs;
:meth:`RademacherField.value` runs the full finalizer and is the scalar
oracle.  All index arithmetic wraps modulo 2**64 by design.

Integer input follows one rule across the package, read by :func:`as_int`
(scalars) and :func:`_int64_array` (arrays): an integer argument is an int
or a numpy int, a float (2.0 too) is refused by value rather than
truncated, and a value below its floor is refused with a ``ValueError``
naming it.  A replicate lies in ``[0, 2**63)``, for :class:`StreamKey` and
:func:`field_roots` alike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants (Vigna / JDK SplittableRandom).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Arbitrary odd tags separating the two consumer domains.
_FIELD_TAG = 0x663D80A819C3A3A7
_BATCH_TAG = 0x51C64FD8A13B97E5

_V_GOLDEN = np.uint64(_GOLDEN)
_V_MIX1 = np.uint64(_MIX1)
_V_MIX2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S63 = np.uint64(63)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on Python ints (reduced mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a ``uint64`` array, in place; returns ``z``.

    Multiplication wraps, same as the scalar path.
    """
    t = np.empty_like(z)
    _mix64_head(z, t)
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _mix64_head(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The finalizer without its last step ``z ^= z >> 31``, in place on ``z``.

    ``t`` is scratch of ``z``'s shape, so no temporary is made.  The last
    step never changes bit 63 (``z >> 31`` has it clear), so a caller that
    reads only the sign bit may stop here.
    """
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _V_MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _V_MIX2
    return z


def sign_rows(
    roots: np.ndarray, start: int, words: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Hash the sign words of rows ``start, start + 1, ...`` into ``words``; return ``words``.

    ``words`` and ``scratch`` are ``uint64`` buffers of shape ``(b, R,
    count)``, rows outermost: bit 63 of entry ``[k, r, j-1]`` is set
    exactly when the sign at cell ``(start + k, j)`` of the stream with
    root ``roots[r]`` is +1.  The other bits are hash state, not signs.
    ``roots`` has shape ``(R,)``; numpy would broadcast one root over
    every grid, or a column of roots over the rows, so any other shape is
    refused.
    """
    start = as_int("row index", start, 1)
    b, grids, count = words.shape
    if np.shape(roots) != (grids,):
        raise ValueError(f"roots of shape {np.shape(roots)} for a buffer of {grids} grids")
    rows = np.arange(start, start + b, dtype=np.uint64)
    row_keys = _mix64_vec(rows.reshape(-1, 1) * _V_GOLDEN + roots)
    cols = np.arange(1, count + 1, dtype=np.uint64) * _V_GOLDEN
    np.add(row_keys[:, :, None], cols, out=words)
    return _mix64_head(words, scratch)  # the sign is bit 63, set before the last step


def field_roots(seed: int, replicates) -> np.ndarray:
    """The cell-hash roots of the streams ``StreamKey(seed, r)``, ``r`` in ``replicates``.

    Entry ``k`` is ``RademacherField(StreamKey(seed, replicates[k])).root``,
    bit for bit, as a ``uint64`` array.  The seed is reduced mod ``2**64``
    as :class:`Seed` reduces it, and ``r * GOLDEN`` wraps as the scalar
    path's does.  Replicates are ints in ``[0, 2**63)``, read as
    :class:`StreamKey` reads its one.
    """
    replicates = _int64_array("replicate", replicates, 0)
    base = np.uint64(_mix64(Seed(seed) ^ _FIELD_TAG))
    return _mix64_vec(replicates.astype(np.uint64) * _V_GOLDEN + base)


def as_int(name: str, value, low: int | None = None) -> int:
    """``value`` as an int, numpy ints too, and at least ``low`` when given;
    a ``ValueError`` naming it for anything else."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _int64_array(name: str, values, low: int) -> np.ndarray:
    """``values`` as an int64 array; a ``ValueError`` names an entry that is
    no int, as :func:`as_int` has it (so 2.0 neither), is below ``low`` or is
    ``2**63`` or more."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":  # floats, or ints that numpy holds as objects or floats
        ints = [as_int(name, v) for v in np.asarray(values, dtype=object).flat]
        array = np.array(ints, dtype=object).reshape(array.shape)
    if array.size and array.min() < low:
        raise ValueError(f"{name} must be >= {low}, got {int(array.min())}")
    if array.size and array.max() >= 2**63:
        raise ValueError(f"{name} out of range: must be < 2**63, got {int(array.max())}")
    return np.asarray(array, dtype=np.int64)


class Seed(int):
    """A 64-bit seed.  Arbitrary ints (numpy ints too) are accepted and reduced mod 2**64."""

    def __new__(cls, value: int = 0) -> "Seed":
        return super().__new__(cls, as_int("seed", value) & _MASK64)


@dataclass(frozen=True)
class StreamKey:
    """Identifies one replicate's stream: ``(seed, replicate)``, replicate in ``[0, 2**63)``."""

    seed: Seed
    replicate: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", Seed(self.seed))
        # as_int first refuses a list, and names a numpy float by its own repr
        replicate = _int64_array("replicate", as_int("replicate", self.replicate), 0)
        object.__setattr__(self, "replicate", int(replicate))

    def _root(self, tag: int) -> int:
        return _mix64(_mix64(self.seed ^ tag) + self.replicate * _GOLDEN)


@dataclass(frozen=True)
class RademacherField:
    """The +/-1 field for one stream, defined on all of i, j >= 1."""

    key: StreamKey
    root: int = field(init=False, repr=False, compare=False)  # hash root of the cells

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", self.key._root(_FIELD_TAG))

    def _row_key(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        return _mix64(self.root + i * _GOLDEN)

    def value(self, i: int, j: int) -> int:
        """Sign at cell ``(i, j)``; both indices start at 1."""
        if j < 1:
            raise ValueError(f"column index must be >= 1, got {j}")
        word = _mix64(self._row_key(i) + (j * _GOLDEN & _MASK64))
        return 2 * (word >> 63) - 1

    def row_signs(self, i: int, count: int) -> np.ndarray:
        """Signs for columns ``1..count`` of row ``i`` as an int64 vector."""
        words = np.empty((1, 1, count), dtype=np.uint64)
        roots = np.array([self.root], dtype=np.uint64)
        sign_rows(roots, i, words, np.empty_like(words))
        signs = np.right_shift(words[0, 0], _S63, out=words[0, 0]).view(np.int64)
        signs *= 2
        signs -= 1
        return signs


def signed_binomial_batch(key: StreamKey, counts: np.ndarray) -> np.ndarray:
    """Vector of independent signed binomial sums, one per entry of ``counts``.

    Entry ``k`` is the sum of ``counts[k]`` fresh +/-1 signs, drawn as one
    exact Binomial variate (no normal approximation at any count) from a
    single Philox stream keyed off ``key``.  Domain-separated from the
    field cells, so the two never share variates.
    """
    counts = _int64_array("count", counts, 1)
    root = key._root(_BATCH_TAG)
    gen = np.random.Generator(np.random.Philox(key=[root, _mix64(root + _GOLDEN)]))
    heads = gen.binomial(counts, 0.5)
    return 2 * heads - counts
