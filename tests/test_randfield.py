import math
import random
import re

import numpy as np
import pytest
from conftest import PlaneField, StubField
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sheetwalk.randfield import (
    RademacherField,
    Seed,
    StreamKey,
    field_roots,
    sign_rows,
    signed_binomial_batch,
)
from sheetwalk.walkstats import sweep_roots


def field(seed=1, replicate=0):
    return RademacherField(StreamKey(Seed(seed), replicate))


class TestSeedAndKey:
    def test_seed_reduces_mod_2_64(self):
        assert Seed(2**64 + 5) == Seed(5)
        assert Seed(-1) == Seed(2**64 - 1)
        assert 0 <= Seed(-12345) < 2**64

    @pytest.mark.parametrize("bad", [2.5, "5", np.float64(3.0), None])
    def test_seed_refuses_a_non_integer_by_value(self, bad):
        # int() truncated 2.5 to seed 2 and parsed "5" as seed 5
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {bad!r}")):
            Seed(bad)

    def test_seed_takes_numpy_ints(self):
        assert Seed(np.uint64(2**64 - 1)) == Seed(-1) and Seed(np.int8(-1)) == Seed(-1)

    def test_replicate_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            StreamKey(Seed(0), -1)

    @pytest.mark.parametrize("bad", [2.5, np.float64(3.0), "1"])
    def test_replicate_refuses_a_non_integer_by_value(self, bad):
        # StreamKey(0, 2.5) was accepted, and its field failed later in _mix64
        with pytest.raises(ValueError, match=re.escape(f"replicate must be an integer, got {bad!r}")):
            StreamKey(Seed(0), bad)

    def test_replicate_takes_numpy_ints(self):
        assert StreamKey(Seed(3), np.uint8(4)) == StreamKey(Seed(3), 4)

    @pytest.mark.parametrize("past", [2**63, 2**64])
    def test_replicate_at_or_past_2_63_is_out_of_range(self, past):
        # field_roots refused it, but the key wrapped it mod 2**64, so
        # StreamKey(0, 2**64) read the stream of replicate 0
        message = f"replicate out of range: must be < 2**63, got {past}"
        with pytest.raises(ValueError, match=re.escape(message)):
            StreamKey(Seed(0), past)
        last = 2**63 - 1
        assert RademacherField(StreamKey(Seed(0), last)).root == field_roots(Seed(0), [last])[0]

    def test_keys_are_hashable_values(self):
        assert StreamKey(Seed(3), 1) == StreamKey(Seed(3), 1)
        assert len({StreamKey(Seed(3), r) for r in (0, 1, 1)}) == 2


class TestFieldRoots:
    # 2**40 and 2**62 wrap r * GOLDEN mod 2**64; 2**64 + 5 and -1 are reduced seeds
    REPLICATES = (0, 1, 2**40, 2**62, 7)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5, -1])
    def test_roots_equal_the_scalar_roots(self, seed):
        roots = field_roots(seed, self.REPLICATES)
        assert roots.dtype == np.uint64
        scalar = [RademacherField(StreamKey(seed, r)).root for r in self.REPLICATES]
        assert roots.tolist() == scalar

    def test_negative_replicate_is_rejected(self):
        with pytest.raises(ValueError):
            field_roots(Seed(0), [2, -1])

    @pytest.mark.parametrize("below", [-(2**63) - 1, -(2**64)])
    def test_replicates_below_int64_are_refused_by_value(self, below):
        # the int64 cast raised an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"replicate must be >= 0, got {below}")):
            field_roots(Seed(0), [3, below])

    @pytest.mark.parametrize("bad", [[2.5], [2, 2.5], np.array([2.5, 4.0])])
    def test_a_non_integer_replicate_is_refused_by_value(self, bad):
        # the int64 cast truncated [2.5] to the roots of [2]
        with pytest.raises(ValueError, match=re.escape("replicate must be an integer, got 2.5")):
            field_roots(Seed(0), bad)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (np.array([3, 2**63], dtype=np.uint64), 2**63),
            (np.array([2**64 - 1], dtype=np.uint64), 2**64 - 1),
            ([1, 2**63], 2**63),
            ([2**64], 2**64),
        ],
        ids=["uint64", "uint64-max", "list", "past-uint64"],
    )
    def test_replicates_at_or_past_2_63_are_out_of_range(self, bad, shown):
        # the int64 cast wrapped them, and the error named a negative replicate
        message = f"replicate out of range: must be < 2**63, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            field_roots(Seed(0), bad)

    def test_integer_dtypes_and_empty_input_are_taken(self):
        last = 2**63 - 1
        want = [RademacherField(StreamKey(Seed(5), r)).root for r in (3, last)]
        for replicates in ([3, last], np.array([3, last], dtype=np.uint64), np.array([3, last])):
            assert field_roots(Seed(5), replicates).tolist() == want
        assert field_roots(Seed(5), np.array([3], dtype=np.int8)).tolist() == want[:1]
        assert field_roots(Seed(5), []).shape == (0,)


class TestFieldValues:
    def test_values_are_signs(self):
        f = field()
        assert {f.value(i, j) for i in range(1, 20) for j in range(1, 20)} == {-1, 1}

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (0, 0), (-2, 3), (3, -2)])
    def test_indices_start_at_one(self, i, j):
        with pytest.raises(ValueError):
            field().value(i, j)

    def test_same_key_same_field(self):
        a, b = field(9, 4), field(9, 4)
        cells = [(i, j) for i in range(1, 30) for j in range(1, 30)]
        assert [a.value(i, j) for i, j in cells] == [b.value(i, j) for i, j in cells]

    def test_read_order_is_irrelevant(self):
        f = field(7)
        cells = [(i, j) for i in range(1, 40) for j in range(1, 40)]
        forward = {c: f.value(*c) for c in cells}
        random.Random(0).shuffle(cells)
        assert all(field(7).value(*c) == forward[c] for c in cells)

    def test_replicates_differ(self):
        a, b = field(1, 0), field(1, 1)
        assert any(a.value(i, j) != b.value(i, j) for i in range(1, 10) for j in range(1, 10))

    def test_row_prefix_consistency(self):
        f = field(3)
        assert np.array_equal(f.row_signs(5, 100)[:40], f.row_signs(5, 40))

    def test_empty_row(self):
        assert field().row_signs(1, 0).shape == (0,)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    replicate=st.integers(min_value=0, max_value=2**20),
    i=st.integers(min_value=1, max_value=2**40),
    j=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=200, deadline=None)
def test_scalar_and_vector_paths_agree(seed, replicate, i, j):
    # value() walks the Python-int mix, row_signs() the uint64 numpy mix.
    f = RademacherField(StreamKey(Seed(seed), replicate))
    assert f.value(i, j) == f.row_signs(i, j)[-1]


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    replicates=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=3),
    start=st.integers(min_value=1, max_value=2**40),
    rows=st.integers(min_value=0, max_value=4),
    count=st.integers(min_value=0, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_tiles_and_rows_match_scalar_values(seed, replicates, start, rows, count):
    # sign_rows fills rows 1.. of a buffer whose row 0 carries the sums
    # above the tile, as the sweep calls it; row 0 must stay as it was
    fields = [RademacherField(StreamKey(Seed(seed), r)) for r in replicates]
    roots = np.array([f.root for f in fields], dtype=np.uint64)
    words = np.full((rows + 1, len(fields), count), 0xA5A5, dtype=np.uint64)
    tile = sign_rows(roots, start, words[1:], np.empty_like(words[1:]))
    assert tile.shape == (rows, len(fields), count) and tile.dtype == np.uint64
    assert np.shares_memory(tile, words) or tile.size == 0
    assert (words[0] == 0xA5A5).all()
    for k, grids in enumerate(tile):
        i = start + k
        for f, row in zip(fields, grids):
            expected = [f.value(i, j) for j in range(1, count + 1)]
            assert [1 if word >> 63 else -1 for word in row.tolist()] == expected  # bit 63
            assert f.row_signs(i, count).tolist() == expected


def test_tile_rows_start_at_one():
    words = np.empty((2, 1, 3), dtype=np.uint64)
    with pytest.raises(ValueError):
        sign_rows(np.zeros(1, dtype=np.uint64), 0, words, np.empty_like(words))
    with pytest.raises(ValueError):
        field().row_signs(0, 3)


class TestFieldStatistics:
    def test_mean_over_a_million_cells(self):
        f = field(3)
        total = sum(int(f.row_signs(i, 1000).sum()) for i in range(1, 1001))
        assert abs(total / 1e6) < 4e-3

    def test_streams_of_distinct_replicates_are_uncorrelated(self):
        # 1e5 shared cells; |corr| < 4/sqrt(n) holds for honest independence.
        a, b = field(2, 0), field(2, 1)
        n, dot = 100_000, 0
        for i in range(1, 101):
            dot += int((a.row_signs(i, 1000) * b.row_signs(i, 1000)).sum())
        assert abs(dot / n) < 4 / math.sqrt(n)


class TestSecondStreamOracle:
    """The hash's counts against a second, independent stream.

    ``M`` production fields at ``N = 64`` (seed 0, replicates ``0..M-1``)
    and ``M`` dense sign planes from numpy's Philox (seed 24), the planes
    read through the same sweep as stub fields, so one kernel counts both
    sides.  Fixed before the first run, and not to be re-picked:

    - a two-sample KS test per counter must read ``p >= 0.001``; under
      equal laws that fails with probability at most 0.001 per counter,
      at most 0.3% for the three (KS on tied integer counts is
      conservative, so the rate is lower still);
    - the correlation of each counter between replicates ``r`` and
      ``r + 1`` must read ``|rho| <= 4 / sqrt(M - 1)``; for independent
      replicates rho is about normal with sd ``1 / sqrt(M - 1)``, so each
      fails with probability about 6e-5, about 2e-4 for the three.
    """

    M, N, PHILOX_SEED, P_FLOOR = 4000, 64, 24, 0.001
    COUNTED = ("gamma", "gamma_prime", "z_crossings")

    @pytest.fixture(scope="class")
    def production(self):
        swept = sweep_roots(field_roots(Seed(0), range(self.M)), (self.N,), self.COUNTED)
        return {c: swept[c][0] for c in self.COUNTED}

    @pytest.mark.usefixtures("stub_hash")
    def test_the_counts_follow_the_law_of_a_philox_stream(self, production):
        rng = np.random.Generator(np.random.Philox(self.PHILOX_SEED))
        planes = [PlaneField(rng.random((self.N, self.N)) < 0.5) for _ in range(self.M)]
        roots = np.array([p.root for p in planes], dtype=np.uint64)
        try:
            dense = sweep_roots(roots, (self.N,), self.COUNTED)
        finally:
            for root in roots.tolist():
                StubField.tagged.pop(root)
        for c in self.COUNTED:
            test = stats.ks_2samp(production[c], dense[c][0])
            assert test.pvalue >= self.P_FLOOR, (c, test)

    def test_neighbouring_replicates_are_uncorrelated(self, production):
        bound = 4 / math.sqrt(self.M - 1)
        for c in self.COUNTED:
            values = production[c].astype(np.float64)
            rho = np.corrcoef(values[:-1], values[1:])[0, 1]
            assert abs(rho) <= bound, (c, rho, bound)


class TestSignedBinomial:
    """The law of :func:`signed_binomial_batch`, the one binomial sampler."""

    def test_deterministic_per_index(self):
        counts = np.full(20, 65, dtype=np.int64)
        first = signed_binomial_batch(StreamKey(Seed(4), 2), counts)
        again = signed_binomial_batch(StreamKey(Seed(4), 2), counts)
        other = signed_binomial_batch(StreamKey(Seed(4), 3), counts)
        assert np.array_equal(first, again)
        assert len(set(first.tolist())) > 1
        assert not np.array_equal(first, other)

    def test_count_two_hits_zero_half_the_time(self):
        key = StreamKey(Seed(6), 0)
        n = 100_000
        zeros = int((signed_binomial_batch(key, np.full(n, 2)) == 0).sum())
        se = math.sqrt(0.25 / n)
        assert abs(zeros / n - 0.5) < 4 * se

    def test_count_eight_matches_exact_law(self):
        # chi-square GOF against C(8,k)/2^8 at significance 1e-3.
        key = StreamKey(Seed(8), 0)
        n = 100_000
        draws = signed_binomial_batch(key, np.full(n, 8))
        observed = np.array([(draws == s).sum() for s in range(-8, 9, 2)])
        expected = n * np.array([math.comb(8, k) / 256 for k in range(9)])
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 1e-3

    def test_large_count_moments(self):
        key = StreamKey(Seed(9), 0)
        n, count = 20_000, 1000
        draws = signed_binomial_batch(key, np.full(n, count))
        assert abs(draws.mean()) < 4 * math.sqrt(count / n)
        assert abs(draws.var() / count - 1) < 0.05


class TestSignedBinomialBatch:
    def test_matches_parity_and_is_deterministic(self):
        key = StreamKey(Seed(10), 3)
        counts = np.arange(1, 500, dtype=np.int64)
        a = signed_binomial_batch(key, counts)
        b = signed_binomial_batch(key, counts)
        assert np.array_equal(a, b)
        assert np.all((a - counts) % 2 == 0)
        assert np.all(np.abs(a) <= counts)

    @pytest.mark.parametrize("seed", [0, 3, 2**63 + 11])
    def test_a_prefix_of_the_counts_draws_a_prefix_of_the_batch(self, seed):
        # the delta fast path draws nested sizes once and reads prefixes; the
        # diagonal's counts 8k - 4 run under and over the sampler's switch
        # from inversion to BTPE at count * p = 30
        key = StreamKey(Seed(seed), seed % 4)
        counts = 8 * np.arange(1, 1001, dtype=np.int64) - 4
        full = signed_binomial_batch(key, counts)
        for k in (1, 2, 7, 8, 9, 100, 999):
            assert np.array_equal(signed_binomial_batch(key, counts[:k]), full[:k])

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            signed_binomial_batch(StreamKey(Seed(0), 0), np.array([3, 0]))

    @pytest.mark.parametrize("below", [-(2**63) - 1, -(2**64)])
    def test_counts_below_int64_are_refused_by_value(self, below):
        # the int64 cast raised an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"count must be >= 1, got {below}")):
            signed_binomial_batch(StreamKey(Seed(0), 0), [3, below])

    @pytest.mark.parametrize("bad", [[2.5, 3], np.array([2.5, 3.0])])
    def test_refuses_non_integer_counts_by_value(self, bad):
        # the int64 cast truncated [2.5, 3] to the draws of [2, 3]
        with pytest.raises(ValueError, match=re.escape("count must be an integer, got 2.5")):
            signed_binomial_batch(StreamKey(Seed(0), 0), bad)

    def test_batch_mean_scales_like_sqrt_count(self):
        key = StreamKey(Seed(11), 0)
        counts = np.full(50_000, 400, dtype=np.int64)
        draws = signed_binomial_batch(key, counts)
        assert abs(draws.mean()) < 4 * math.sqrt(400 / counts.size)
        assert abs(draws.var() / 400 - 1) < 0.05
