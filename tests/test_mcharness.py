import math
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sheetwalk import checks, mcharness, walkstats
from sheetwalk.cli import _resolve_workers
from sheetwalk.mcharness import (
    ExperimentConfig,
    Statistic,
    assemble_result,
    delta_log_law_report,
    estimate_exponent,
    run_experiment,
    split_tasks,
    summarize,
)
from sheetwalk.exactprob import CapacityError, delta_mean_exact
from sheetwalk.randfield import RademacherField, Seed, StreamKey, field_roots
from sheetwalk.walkstats import brute_force_bundle, sweep_grid, tile_shape


def _sleep(args):
    time.sleep(0.05)


def _replicates(args):
    return args[1].tolist()


def _raise(args):
    raise RuntimeError("task failed")


def _assembled(config, tasks):
    """The result of ``config`` split into ``tasks`` tasks, each run in process;
    every task's values are sizes by its replicates, an empty task's too."""
    chunks = [mcharness._worker_chunk(args) for args in split_tasks(config, tasks)]
    assert all(values.shape == (len(config.sizes), len(mine)) for mine, values in chunks)
    return assemble_result(config, chunks)


def config(**overrides):
    base = dict(
        statistic=Statistic.Z_CROSSINGS,
        sizes=(8, 16),
        replicates=6,
        seed=Seed(42),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_values_are_deterministic(self):
        a = run_experiment(config())
        b = run_experiment(config())
        for n in (8, 16):
            assert np.array_equal(a.values[n], b.values[n])

    def test_worker_count_never_changes_results(self):
        # the splits a pool may take, T = 8 among them, assembled in process,
        # whatever the machine's CPU count
        nine = config(replicates=9)
        base = run_experiment(nine)
        for tasks in (2, 3, 5, 8, 9):
            other = _assembled(nine, tasks)
            for n in (8, 16):
                assert np.array_equal(base.values[n], other.values[n])
                assert base.summaries[n] == other.summaries[n]

    @given(
        stat=st.sampled_from(Statistic),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
        replicates=st.integers(1, 30),
        tasks=st.integers(1, 40),
    )
    @example(stat=Statistic.GAMMA, sizes=[40, 7], replicates=30, tasks=7)
    @settings(max_examples=40, deadline=None)
    def test_every_task_split_assembles_the_same_result(self, stat, sizes, replicates, tasks):
        # any T gives the one-task result byte for byte: a T that does not
        # divide the sweep's block of tile_shape(max(sizes))[0] grids (7 of
        # 204 above), and a T over the replicate count, whose last tasks are empty
        split = config(statistic=stat, sizes=sizes, replicates=replicates)
        one, other = _assembled(split, 1), _assembled(split, tasks)
        for n in sizes:
            assert one.values[n].tobytes() == other.values[n].tobytes()
            assert one.summaries[n] == other.summaries[n]

    def test_raw_values_are_retained_per_replicate(self):
        res = run_experiment(config(replicates=5))
        assert res.values[8].shape == (5,)
        assert res.summaries[8].count == 5

    def test_each_statistic_runs(self):
        for stat in Statistic:
            res = run_experiment(
                ExperimentConfig(
                    statistic=stat, sizes=(6,), replicates=2, seed=Seed(1)
                )
            )
            assert np.all(res.values[6] >= 0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(sizes=()),
            dict(sizes=(0, 4)),
            dict(replicates=0),
            dict(workers=0),
            dict(sizes=(8, 16, 8)),
            dict(eps=7.0),
            dict(eps=0.0),
            dict(radius=-3),
            dict(radius=0),
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    @pytest.mark.parametrize(
        "bad,named",
        [
            (dict(sizes=(8.7,)), "grid size must be an integer, got 8.7"),
            (dict(workers=1.5), "workers must be an integer, got 1.5"),
            (dict(replicates=2.5), "replicates must be an integer, got 2.5"),
            (dict(radius=8.5), "radius must be an integer, got 8.5"),
        ],
    )
    def test_config_refuses_non_integers_by_value(self, bad, named):
        # a float size or worker count was truncated, and 2.5 replicates
        # crashed inside numpy with a TypeError
        with pytest.raises(ValueError, match=named):
            config(**bad)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan])
    def test_every_reader_of_eps_refuses_it_with_one_message(self, eps):
        roots = field_roots(1, [0, 1])
        for refuse in (
            lambda: config(eps=eps),
            lambda: walkstats.annulus_counts(roots, eps, (8,)),
            lambda: walkstats.twin_zero_counts(roots, eps, (8,), 3),
        ):
            with pytest.raises(ValueError, match=rf"^eps must be in \(0,1\), got {eps}$"):
                refuse()

    def test_config_takes_numpy_ints(self):
        cfg = config(sizes=(np.int64(8), np.int32(16)), replicates=np.int64(6),
                     workers=np.int16(1), radius=np.uint8(8), seed=np.uint64(42))
        assert (cfg.sizes, cfg.replicates, cfg.workers, cfg.radius) == ((8, 16), 6, 1, 8)
        assert {type(v) for v in (*cfg.sizes, cfg.replicates, cfg.workers, cfg.radius)} == {int}
        assert cfg == config()

    def test_result_ceiling_is_capacity_before_any_work(self, monkeypatch):
        def unrun(*args):
            raise AssertionError("a worker ran")

        monkeypatch.setattr(mcharness, "_worker_chunk", unrun)
        config(sizes=(8, 16), replicates=mcharness.RESULT_CEILING // 2)  # at the cap
        with pytest.raises(CapacityError, match="capped at 10000000, got 5000001 x 2"):
            run_experiment(config(sizes=(8, 16), replicates=mcharness.RESULT_CEILING // 2 + 1))

    def test_blocks_that_do_not_divide_the_replicates(self):
        sizes = (64, 40)
        replicates = 2 * tile_shape(64)[0] + 5
        assert all(replicates % tile_shape(n)[0] for n in sizes)
        one = run_experiment(config(sizes=sizes, replicates=replicates))
        two = run_experiment(config(sizes=sizes, replicates=replicates, workers=2))
        for n in sizes:
            assert np.array_equal(one.values[n], two.values[n])
            serial = [
                sweep_grid(RademacherField(StreamKey(Seed(42), r)), n).z_crossings
                for r in range(replicates)
            ]
            assert one.values[n].tolist() == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_swept_values_equal_the_dense_recount(self, inline_pool, workers):
        # the production path (roots in one call, counter arrays out) against
        # brute_force_bundle, which shares no code with it; N = 70 crosses a
        # 64-cell fold block, and 14 replicates cross a block of 13 grids
        sizes, replicates = (9, 70), tile_shape(70)[0] + 1
        results = {
            stat.value: run_experiment(
                config(statistic=stat, sizes=sizes, replicates=replicates, workers=workers)
            )
            for stat in (Statistic.GAMMA, Statistic.Z_CROSSINGS)
        }
        for r in range(replicates):
            f = RademacherField(StreamKey(Seed(42), r))
            for n in sizes:
                bundle, _ = brute_force_bundle(f, n)
                for stat, res in results.items():
                    assert res.values[n][r] == getattr(bundle, stat)

    def test_swept_statistics_build_no_object_per_replicate(self, monkeypatch):
        # simulate's sweep and the checks' audited sweep go roots in, arrays out
        def refused(*args, **kwargs):
            raise AssertionError("an object was built on the roots path")

        for module in (mcharness, walkstats, checks):
            for name in ("RademacherField", "StreamKey", "StatBundle"):
                monkeypatch.setattr(module, name, refused, raising=False)
        for stat in walkstats.COUNTERS:
            swept = config(statistic=Statistic(stat), replicates=tile_shape(16)[0] + 3)
            run_experiment(swept)
            checks._audited_chunk((swept, np.arange(swept.replicates)))

    def test_grid_statistics_build_no_field(self, monkeypatch):
        # annulus and twin zeros once built a RademacherField per replicate
        def refused(self):
            raise AssertionError("a field was built")

        monkeypatch.setattr(RademacherField, "__post_init__", refused)
        for stat in Statistic:
            if stat is not Statistic.DELTA_FASTPATH:
                grid = config(statistic=stat, eps=0.5, radius=3, replicates=5)
                mine, values = mcharness._worker_chunk((grid, np.arange(5)))
                assert values.shape == (2, 5)

    def test_pool_is_clamped_to_the_replicate_count(self, inline_pool):
        wide = run_experiment(config(replicates=2, workers=8))
        assert inline_pool == [2]
        serial = run_experiment(config(replicates=2))
        for n in (8, 16):
            assert np.array_equal(wide.values[n], serial.values[n])
            assert wide.summaries[n] == serial.summaries[n]
        run_experiment(config(replicates=1, workers=8))
        assert inline_pool == [2]  # one replicate runs inline, with no pool

    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (1, []), (None, [])])
    def test_processes_are_capped_at_the_cpu_count(self, inline_pool, monkeypatch, cpus, pools):
        # 20 replicates go into TASKS_PER_PROCESS tasks per CPU; one CPU (or
        # an unknown count) runs them all inline, as one task.  With no affinity mask
        # to read, the installed count is the usable one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        wide = run_experiment(config(replicates=20, workers=10_000))
        assert inline_pool == pools
        serial = run_experiment(config(replicates=20))
        for n in (8, 16):
            assert np.array_equal(wide.values[n], serial.values[n])
            assert wide.summaries[n] == serial.summaries[n]

    def test_processes_are_capped_at_the_usable_cpus(self, inline_pool, monkeypatch):
        # two CPUs installed, one in the affinity mask (as under `taskset -c 0`):
        # two workers run inline, and the command line defaults to one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("WORKERS", raising=False)
        pinned = run_experiment(config(replicates=20, workers=2))
        assert inline_pool == []
        assert _resolve_workers(None) == 1
        serial = run_experiment(config(replicates=20))
        for n in (8, 16):
            assert np.array_equal(pinned.values[n], serial.values[n])

    @given(
        replicates=st.integers(1, 60), workers=st.integers(1, 8), cpus=st.integers(1, 4)
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_every_replicate_lands_in_one_task(self, inline_pool, replicates, workers, cpus):
        # the queue's task split: one task inline, else TASKS_PER_PROCESS per
        # process, never more tasks than replicates, and each replicate in exactly one
        wide = config(replicates=replicates, workers=workers)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcharness, "usable_cpus", lambda: cpus)
            with mcharness.job_queue({"split": (_replicates, wide)}) as collect:
                owned, _ = collect("split")
            values = run_experiment(wide).values
        processes = min(workers, replicates, cpus)
        per_process = mcharness.TASKS_PER_PROCESS * processes
        assert len(owned) == (1 if processes == 1 else min(replicates, per_process))
        assert all(owned)
        assert sorted(r for mine in owned for r in mine) == list(range(replicates))
        serial = run_experiment(config(replicates=replicates)).values
        assert all(np.array_equal(values[n], serial[n]) for n in serial)

    def test_a_sleeping_task_takes_wall_seconds_not_cpu_seconds(self, inline_pool):
        # each task is timed in wall and CPU seconds: a wait, here a sleep,
        # counts in the first only
        with mcharness.job_queue({"sleep": (_sleep, config(replicates=2, workers=2))}) as collect:
            values, (seconds, cpu_seconds) = collect("sleep")
        assert inline_pool == [2] and len(values) == len(seconds) == len(cpu_seconds) == 2
        for wall, cpu in zip(seconds, cpu_seconds):
            assert wall >= 0.05 and cpu < wall / 5

    def test_an_inline_queue_runs_a_job_only_when_collected(self, inline_pool):
        # one worker: no pool, no times, and a job never collected never runs
        ran = []

        def task(args):
            ran.append(args[1].tolist())
            return len(ran)

        def never(args):
            raise AssertionError("an uncollected job ran")

        jobs = {"never": (never, config()), "collected": (task, config(replicates=4))}
        with mcharness.job_queue(jobs) as collect:
            assert ran == []
            assert collect("collected") == ([1], None)  # its replicates as one task
        assert ran == [[0, 1, 2, 3]] and inline_pool == []

    def test_a_queue_shares_one_pool_of_its_widest_job(self, inline_pool):
        # every task of every job on one pool as wide as the widest job,
        # each job's values in task order
        jobs = {
            "narrow": (_replicates, config(replicates=20, workers=2)),
            "wide": (_replicates, config(replicates=20, workers=3)),
        }
        with mcharness.job_queue(jobs) as collect:
            for name in ("wide", "narrow"):
                values, (seconds, _) = collect(name)
                job = jobs[name][1]  # TASKS_PER_PROCESS tasks per process of the job
                tasks = split_tasks(job, mcharness.TASKS_PER_PROCESS * job.workers)
                assert values == [mine.tolist() for _, mine in tasks]
                assert len(seconds) == len(tasks) > 1
        assert inline_pool == [3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_task_raises_at_collect(self, inline_pool, workers):
        # the queue opens without raising; the job's collect raises
        with mcharness.job_queue({"bad": (_raise, config(workers=workers))}) as collect:
            with pytest.raises(RuntimeError, match="task failed"):
                collect("bad")
        assert inline_pool == ([2] if workers == 2 else [])

    def test_fastpath_matches_sweep_law(self):
        # same distribution, different streams: means agree to 4 combined SEs
        shared = dict(sizes=(64,), replicates=300, seed=Seed(5))
        slow = run_experiment(config(statistic=Statistic.DELTA, **shared))
        fast = run_experiment(config(statistic=Statistic.DELTA_FASTPATH, **shared))
        a, b = slow.summaries[64], fast.summaries[64]
        gap = abs(a.mean - b.mean)
        assert gap < 4 * math.hypot(a.stderr, b.stderr)


class TestSummarize:
    def test_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(3.0, 2.0, size=501)
        s = summarize(vals)
        mean = sum(float(v) for v in vals) / 501
        var = sum((float(v) - mean) ** 2 for v in vals) / 500
        assert s.mean == pytest.approx(mean, abs=1e-10)
        assert s.variance == pytest.approx(var, abs=1e-10)
        assert s.stderr == pytest.approx(math.sqrt(var / 501), abs=1e-12)
        assert (s.minimum, s.maximum) == (vals.min(), vals.max())

    def test_single_value(self):
        s = summarize(np.array([7.0]))
        assert (s.variance, s.stderr) == (0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))


class TestEstimateExponent:
    def test_exact_power_law_is_exact(self):
        sizes = np.array([4, 8, 16, 32, 64])
        fit = estimate_exponent(sizes, 7.0 * sizes**1.5)
        assert abs(fit.slope - 1.5) < 1e-12
        assert abs(fit.intercept - math.log(7.0)) < 1e-12
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.points_used == (4, 8, 16, 32, 64)

    def test_matches_scipy_on_noisy_data(self):
        rng = np.random.default_rng(3)
        sizes = np.array([10, 20, 40, 80, 160, 320])
        means = sizes**1.2 * np.exp(rng.normal(0, 0.05, sizes.size))
        fit = estimate_exponent(sizes, means)
        ref = stats.linregress(np.log(sizes), np.log(means))
        assert fit.slope == pytest.approx(ref.slope, abs=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-12)
        assert fit.stderr == pytest.approx(ref.stderr, abs=1e-12)

    def test_drop_below_floor(self):
        sizes = np.array([2, 4, 64, 128])
        means = np.array([99.0, 99.0, 64.0, 128.0])
        fit = estimate_exponent(sizes, means, drop_below=32)
        assert fit.points_used == (64, 128)
        assert fit.rows_used == (2, 3)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_a_floor_past_float_range_drops_every_size(self):
        with pytest.raises(ValueError, match="need positive means at two distinct sizes"):
            estimate_exponent([64, 128], [64.0, 128.0], drop_below=10**400)
        fit = estimate_exponent([64, 128], [64.0, 128.0], drop_below=-(10**400))
        assert fit.points_used == (64, 128)

    def test_nonpositive_means_warn_and_drop(self):
        with pytest.warns(UserWarning, match="nonpositive"):
            fit = estimate_exponent([4, 8, 16], [0.0, 8.0, 16.0])
        assert fit.points_used == (8, 16)
        assert fit.rows_used == (1, 2)

    def test_too_few_points(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            estimate_exponent([4, 8], [0.0, 8.0])


class TestDeltaLogLawReport:
    def test_exact_rows_without_mc(self):
        rows = delta_log_law_report([10, 100])
        assert [r.size for r in rows] == [10, 100]
        for row in rows:
            assert row.exact_mean == pytest.approx(delta_mean_exact(row.size))
            assert row.prediction == pytest.approx(
                math.log(row.size) / math.sqrt(2 * math.pi)
            )
            assert row.ratio == pytest.approx(row.exact_mean / row.prediction)
            assert row.mc_mean is None and row.mc_stderr is None

    def test_mc_columns_track_the_exact_mean(self):
        (row,) = delta_log_law_report([200], replicates=400, seed=3)
        assert row.mc_stderr > 0
        assert abs(row.mc_mean - row.exact_mean) < 4 * row.mc_stderr

    def test_size_domain(self):
        with pytest.raises(ValueError):
            delta_log_law_report([1, 10])
        with pytest.raises(ValueError):
            delta_log_law_report([])

    def test_a_non_integer_size_is_refused_by_value(self):
        # int(n) truncated 10.7 to a row of size 10
        with pytest.raises(ValueError, match=r"^size must be an integer, got 10\.7$"):
            delta_log_law_report([10.7])

    @pytest.mark.parametrize("replicates", [0, 5])
    def test_repeated_sizes_are_refused_in_the_callers_words(self, replicates):
        # refused in the sizes the caller passed, not the grid edges 2n
        with pytest.raises(ValueError, match=r"^sizes must be distinct, got \(10, 10\)$"):
            delta_log_law_report([10, 10], replicates=replicates)
