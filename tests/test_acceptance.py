"""Acceptance gate: the thirteen committed checks, run at full size.

Each test prints one pass/fail line with the measured numbers.  Four
checks measure bounds that are unattainable as committed (the exact
oracles disagree with the committed constants); those run their literal
assertion, report the honest FAIL, and are marked expected-failure so
the defect stays visible without masking real regressions.  A check
that crashes fails the gate even when it is one of those four.
README.md carries the full analysis.
"""

import concurrent.futures
import contextlib
import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sheetwalk import checks, walkstats
from sheetwalk.checks import EXPECTED_RED, CheckResult, check_names, format_report, run_checks
from sheetwalk.mcharness import (
    ExperimentConfig,
    Statistic,
    job_queue,
    run_experiment,
    split_tasks,
    usable_cpus,
)
from sheetwalk.randfield import Seed

# the checks that share one audited pass over check 8's grids: check 7 reads
# its gamma there, check 8 its crossings and check 9 its audit verdict
SHARED_PASS = {"zero-count-scaling", "crossing-count-scaling", "crossing-decomposition"}

# committed wall-clock ceilings (seconds)
RUNTIME_LIMITS = {
    "return-probability": 5,
    "wallis-envelope": 10,
    "difference-window": 10,
    "diagonal-mean-log-law": 120,
    "diagonal-variance-band": 300,
    "fastpath-consistency": 60,
    "zero-count-scaling": 180,
    "crossing-count-scaling": 300,
    "crossing-decomposition": 60,
    "oracle-equivalence": 30,
    "antidiagonal-constant": 60,
    "hitting-floor": 30,
    "determinism": 60,
}


@contextlib.contextmanager
def recorded_pools():
    """Real process pools for the block, whose widths are recorded as they open."""
    opened = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        yield opened


def _one_worker_run(level):
    # the run at one worker, and the pools it opened
    with recorded_pools() as opened:
        results = run_checks(level=level, workers=1)
    return results, opened


@pytest.fixture(scope="module")
def full_run():
    return _one_worker_run("full")


@pytest.fixture(scope="module")
def full_results(full_run):
    return {r.name: r for r in full_run[0]}


# the numbers each expected-red check is red for, at each level, as its
# detail prints them (the README's verification section derives them); the
# level changes only how many sizes a detail lists
RED_FOR = {
    "difference-window": dict.fromkeys(
        ("quick", "full"), ("in [0.2789528664, ", "; min sits at n=100 ")
    ),
    "zero-count-scaling": dict.fromkeys(("quick", "full"), ("slope over 64..1024: 1.0574 vs",)),
    "diagonal-variance-band": {
        "quick": ("at N=10: 0.1574, N=100: 0.4992, N=1000: 0.9596 — ",),
        "full": ("at N=10: 0.1574, N=100: 0.4992, N=1000: 0.9596, N=2000: 1.1063 — ",),
    },
    "antidiagonal-constant": {
        "quick": ("successive gaps 0.0216, 0.0153 vs",),
        "full": ("successive gaps 0.0216, 0.0153, 0.0108 vs",),
    },
}


def judge(result: CheckResult, level: str = "full") -> None:
    """Gate one check of a run at ``level``: under its ceiling, and passed or expected-red.

    Only a measured failure of an expected-red check is xfailed, and only
    while its detail carries the numbers :data:`RED_FOR` documents; a
    check that raised is a failure whatever its name.
    """
    limit = RUNTIME_LIMITS[result.name]
    assert result.seconds < limit, (
        f"{result.name} took {result.seconds:.1f}s, over the {limit}s ceiling"
    )
    crashed = result.detail.startswith("raised ")
    if not result.passed and result.name in EXPECTED_RED and not crashed:
        missing = [n for n in RED_FOR[result.name][level] if n not in result.detail]
        assert not missing, f"red for numbers other than {missing}: {result.detail}"
        pytest.xfail(f"bound unattainable as committed: {result.detail}")
    assert result.passed, result.detail


@pytest.mark.parametrize("name", check_names())
def test_criterion(full_results, name):
    result = full_results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.index:02d} {name}: {status} — {result.detail}")
    judge(result)


def test_a_crashed_expected_red_check_fails_the_gate(monkeypatch):
    def crash(run):
        raise RuntimeError("injected")

    patched = tuple(
        c._replace(run=crash) if c.name == "difference-window" else c for c in checks._CHECKS
    )
    monkeypatch.setattr(checks, "_CHECKS", patched)
    (result,) = run_checks(level="quick", names={"difference-window"})
    assert result.detail == "raised RuntimeError: injected"
    try:
        judge(result)
    except pytest.xfail.Exception:
        pytest.fail("a crashed expected-red check was xfailed")
    except AssertionError:
        pass
    else:
        pytest.fail("a crashed expected-red check passed the gate")
    detail = (
        "strictly decreasing to n=100000: True; scaled difference on [100,2000] in "
        "[0.2789528664, 0.2819361933] vs [0.2790, 0.2825]; min sits at n=100 — the "
        "committed lower edge is above the true minimum (band holds from n=102); see README"
    )
    measured = CheckResult(3, "difference-window", False, 0.1, detail)
    with pytest.raises(pytest.xfail.Exception):
        judge(measured, "quick")
    undocumented = CheckResult(3, "difference-window", False, 0.1, "min 0.2789 < 0.2790")
    with pytest.raises(AssertionError, match="red for numbers other than"):
        judge(undocumented, "quick")


def test_every_expected_red_check_has_its_documented_numbers():
    assert set(RED_FOR) == EXPECTED_RED
    assert all(set(levels) == {"quick", "full"} for levels in RED_FOR.values())


@pytest.mark.parametrize("name", sorted(EXPECTED_RED))
def test_a_quick_expected_red_check_is_red_for_its_documented_numbers(quick_serial, name):
    (result,) = [r for r in quick_serial if r.name == name]
    with pytest.raises(pytest.xfail.Exception):
        judge(result, "quick")


# one exact value each expected-red check reads, moved by a stub that keeps
# the check red: (the name the check calls, the stub made from the real one)
_DRIFTS = {
    # the lower edge of the scaled difference, 0.2789528664, moves in its 10th digit
    "difference-window": ("p_float_vec", lambda real: lambda n: real(n) * (1 + 1e-9)),
    # the exact-mean slope over 64..1024, 1.0574, moves to about 1.061
    "zero-count-scaling": (
        "gamma_mean_exact", lambda real: lambda n: real(n) * (1.01 if n == 1024 else 1.0)
    ),
    # the gap at N = 100, 0.4992, moves by 0.001
    "diagonal-variance-band": (
        "delta_var_exact", lambda real: lambda n: real(n) + (0.001 if n == 100 else 0.0)
    ),
    # the last mean, at 2000, moves by 0.001, and with it the gap 0.0153
    "antidiagonal-constant": (
        "antidiag_mean_exact", lambda real: lambda n: real(n) + (0.001 if n == 2000 else 0.0)
    ),
}


@pytest.mark.parametrize("name", sorted(_DRIFTS))
def test_a_drifted_number_fails_the_gate(monkeypatch, name):
    # still red, but for a number the README does not document: not an xfail
    attr, drift = _DRIFTS[name]
    monkeypatch.setattr(checks, attr, drift(getattr(checks, attr)))
    (result,) = run_checks(level="quick", names={name})
    assert not result.passed and not result.detail.startswith("raised ")
    with pytest.raises(AssertionError, match="red for numbers other than"):
        judge(result, "quick")


def test_audit_on_two_workers_keeps_the_verdict(full_results, inline_pool):
    # check 9 shares check 8's task split; the width must not change it
    (wide,) = run_checks(level="full", workers=2, names={"crossing-decomposition"})
    assert inline_pool == [2]
    serial = full_results["crossing-decomposition"]
    assert (wide.passed, wide.detail) == (serial.passed, serial.detail)
    assert "800 grids" in wide.detail


def _full_crossing_config(level, workers):
    # what check 8 reads: the config of the run's shared pass
    return checks._jobs(level, workers)["shared-pass"][1]


def _zero_count_config(level, workers):
    # what check 7 reads: the gamma statistic of check 8's grids
    config = _full_crossing_config(level, workers)
    return dataclasses.replace(config, statistic=Statistic.GAMMA)


def _with_job_config(monkeypatch, job, config):
    """Patch the run's job ``job`` to the same task on ``config(workers)``."""
    real = checks._jobs

    def jobs(level, workers):
        table = real(level, workers)
        return {**table, job: (table[job][0], config(workers))}

    monkeypatch.setattr(checks, "_jobs", jobs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make", [_zero_count_config, _full_crossing_config])
def test_audited_run_equals_run_experiment(make, workers, inline_pool):
    # the run's one audited pass gives what check 7 reads (gamma) and what
    # check 8 reads (crossings); each equals the plain run of that check's config
    config = make("quick", workers)
    jobs = {"shared-pass": checks._jobs("quick", workers)["shared-pass"]}
    with job_queue(jobs) as collect:
        gamma, crossings, faults = checks._Run("quick", jobs, collect).audited
    assert not any(faults.values[n].any() for n in config.sizes)
    assert inline_pool == ([2] if workers == 2 else [])  # one pool for both
    audited = gamma if config.statistic is Statistic.GAMMA else crossings
    plain = run_experiment(config)
    assert audited.config == plain.config == config
    assert list(audited.values) == list(plain.values) == list(config.sizes)
    for n in config.sizes:
        assert np.array_equal(audited.values[n], plain.values[n])
        assert audited.summaries[n] == plain.summaries[n]
    assert inline_pool == ([2] * 2 if workers == 2 else [])  # one pool per run


def test_the_shared_pass_is_the_same_under_any_task_split():
    # the pass's tasks assembled from T = 1 .. 31 tasks, the last split with an
    # empty task; size 70 has rows of two 64-cell fold blocks
    config = ExperimentConfig(Statistic.Z_CROSSINGS, (16, 40, 70), 30, Seed(1))
    jobs = {"shared-pass": (checks._audited_chunk, config)}

    def assembled(tasks):
        chunks = [checks._audited_chunk(args) for args in split_tasks(config, tasks)]
        gamma, crossings, faults = checks._Run("quick", jobs, lambda name: (chunks, None)).audited
        written = [(r.values[n].tobytes(), r.summaries[n]) for r in (gamma, crossings, faults)
                   for n in config.sizes]
        return written, not any(faults.values[n].any() for n in config.sizes)

    one_task = assembled(1)
    assert one_task[1]
    for tasks in (2, 3, 7, 8, 31):
        assert assembled(tasks) == one_task, f"T = {tasks}"


def test_check_8_names_the_seed_of_its_job():
    # the detail formats the shared pass's own seed, as check 7's does
    config = ExperimentConfig(Statistic.Z_CROSSINGS, (16, 32), 4, Seed(5))
    jobs = {"shared-pass": (checks._audited_chunk, config)}
    chunks = [checks._audited_chunk(args) for args in split_tasks(config, 1)]
    run = checks._Run("quick", jobs, lambda name: (chunks, None))
    _, detail = checks._check_crossing_count_scaling(run)
    assert "(M=4, seed 5): " in detail


def test_each_verify_call_sweeps_its_grids_again(inline_pool):
    # checks 7-9 share one pass, made by the first of them to run; the pass
    # belongs to the call's run, so a second call sweeps again
    first = run_checks(level="quick", workers=2, names=SHARED_PASS)
    assert inline_pool == [2]
    second = run_checks(level="quick", workers=2, names=SHARED_PASS)
    assert inline_pool == [2] * 2
    assert [(r.passed, r.detail) for r in first] == [(r.passed, r.detail) for r in second]
    # run alone, check 9 sweeps the same grids itself, to the same verdict
    (alone,) = run_checks(level="quick", workers=2, names={"crossing-decomposition"})
    assert inline_pool == [2] * 3
    assert (alone.passed, alone.detail) == (second[-1].passed, second[-1].detail)
    assert "240 grids" in alone.detail


def test_a_direct_call_of_check_9_sweeps_again(monkeypatch):
    # a run of check 9 alone sweeps its grids again, so audit verdicts that
    # turned red since are seen
    (first,) = run_checks("quick", 1, {"crossing-decomposition"})
    assert first.passed
    real = checks.sweep_roots

    def all_red(roots, sizes, counters):
        values = real(roots, sizes, counters)
        values[walkstats.AUDIT] = np.ones_like(values[walkstats.AUDIT])
        return values

    monkeypatch.setattr(checks, "sweep_roots", all_red)
    (again,) = run_checks("quick", 1, {"crossing-decomposition"})
    assert not again.passed and not again.raised
    # the red detail says what failed; it once read as the green one does
    assert again.detail == (
        "crossing audit failed on 240 of 240 grids (N=64: 60, N=128: 60, N=256: 60, "
        "N=512: 60), 240 failed conditions in all"
    )


def test_a_verify_call_after_an_aborted_one_sweeps_again(monkeypatch, inline_pool):
    # check 7 makes the pass, then check 9 aborts the call; the pass went
    # with that call's run, so the next call makes its own
    class Abort(BaseException):
        pass

    def abort(run):
        raise Abort

    original = checks._CHECKS
    patched = tuple(
        c._replace(run=abort) if c.name == "crossing-decomposition" else c for c in original
    )
    monkeypatch.setattr(checks, "_CHECKS", patched)
    with pytest.raises(Abort):
        run_checks(level="quick", workers=2, names=SHARED_PASS)
    assert inline_pool == [2]
    monkeypatch.setattr(checks, "_CHECKS", original)
    (alone,) = run_checks(level="quick", workers=2, names={"crossing-decomposition"})
    assert inline_pool == [2] * 2
    assert alone.passed and "240 grids" in alone.detail


def _unrun(run):
    raise AssertionError("a check ran")


@pytest.fixture(scope="module")
def quick_run():
    return _one_worker_run("quick")


@pytest.fixture(scope="module")
def quick_serial(quick_run):
    return quick_run[0]


def _reported(results):
    return [(r.index, r.name, r.passed, r.detail) for r in results]


@pytest.fixture
def real_pools():
    """Real process pools, whose widths are recorded as they open."""
    with recorded_pools() as opened:
        yield opened


@pytest.mark.parametrize("run", ["quick_run", "full_run"])
def test_one_worker_starts_no_process(request, run):
    # every check at one worker, determinism among them, runs in this process
    results, opened = request.getfixturevalue(run)
    assert len(results) == len(check_names())
    assert opened == [] and multiprocessing.active_children() == []


# a selection that reads no pool work: no pool opens for it
NO_POOL_WORK = {"return-probability", "oracle-equivalence", "hitting-floor"}


@pytest.mark.parametrize(
    "names, pools",
    [(None, [2]), ({"crossing-decomposition"}, [2]), (NO_POOL_WORK, [])],
    ids=["all", "check-9", "no-pool-work"],
)
def test_a_real_pool_reports_what_one_worker_does(quick_serial, real_pools, names, pools):
    # the run's one pool at two workers; checks 6-9 and 13 collect their tasks
    # after the others ran, yet the report is in index order
    wide = run_checks(level="quick", workers=2, names=names)
    serial = [r for r in quick_serial if names is None or r.name in names]
    assert _reported(wide) == _reported(serial)
    assert real_pools == (pools if usable_cpus() >= 2 else [])
    assert multiprocessing.active_children() == []


def test_with_a_pool_the_checks_that_read_none_run_first(monkeypatch, inline_pool):
    # checks 6-9 and 13 collect their pool work after the others ran beside
    # it; one worker takes the same order
    order = []

    def recorded(name):
        def check(run):
            order.append(name)
            return True, ""

        return check

    monkeypatch.setattr(
        checks, "_CHECKS", tuple(c._replace(run=recorded(c.name)) for c in checks._CHECKS)
    )
    readers = ["fastpath-consistency", *sorted(SHARED_PASS, key=check_names().index), "determinism"]
    reports = run_checks(level="quick", workers=2)
    assert inline_pool == [2]
    beside = [name for name in check_names() if name not in readers]
    assert order == beside + readers
    assert [r.name for r in reports] == list(check_names())
    single = list(order)
    order.clear()
    run_checks(level="quick", workers=1)
    assert inline_pool == [2] and order == single


def test_every_reader_is_a_check_and_every_job_resolves():
    # the rows name only jobs of the job table, and some row reads each job
    read = {c.job for c in checks._CHECKS if c.job is not None}
    for level in ("quick", "full"):
        jobs = checks._jobs(level, 2)
        assert read == set(jobs)
        for task, config in jobs.values():
            assert callable(task) and isinstance(config, ExperimentConfig)
            assert config.workers == 2


@pytest.mark.parametrize(
    "names, jobs",
    [
        (None, ["fastpath-draws", "shared-pass", "determinism"]),
        (
            {"crossing-decomposition", "hitting-floor", "fastpath-consistency"},
            ["fastpath-draws", "shared-pass"],
        ),
        ({"zero-count-scaling", "crossing-count-scaling"}, ["shared-pass"]),
        ({"fastpath-consistency", "determinism"}, ["fastpath-draws", "determinism"]),
        (NO_POOL_WORK, []),
    ],
    ids=["all", "6-and-9", "7-and-8", "6", "no-pool-work"],
)
def test_a_two_worker_run_queues_the_jobs_of_its_checks(monkeypatch, inline_pool, names, jobs):
    # exactly the jobs the selected checks read, in the table's order; the
    # queue is handed tasks that do no work, since no check collects them
    queued = []
    real = checks.job_queue

    def recorded(jobs):
        queued.extend(jobs.values())
        return real({name: (_idle, config) for name, (_, config) in jobs.items()})

    monkeypatch.setattr(checks, "job_queue", recorded)
    monkeypatch.setattr(
        checks, "_CHECKS", tuple(c._replace(run=lambda run: (True, "")) for c in checks._CHECKS)
    )
    run_checks(level="quick", workers=2, names=names)
    assert queued == [checks._jobs("quick", 2)[job] for job in jobs]
    assert inline_pool == ([2] if jobs else [])


def _idle(args):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_a_crashed_job_runs_once_for_all_its_readers(monkeypatch, inline_pool, workers):
    # checks 7-9 read one shared pass; when it raises, each reports the crash,
    # and each replicate was swept once in all, not once per reader
    swept = []

    def crash(args):
        swept.extend(args[1].tolist())
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(checks, "_audited_chunk", crash)
    results = run_checks(level="quick", workers=workers, names=SHARED_PASS)
    assert [r.detail for r in results] == ["raised RuntimeError: sweep failed"] * 3
    replicates = _full_crossing_config("quick", workers).replicates
    assert sorted(swept) == list(range(replicates))
    assert inline_pool == ([2] if workers == 2 else [])


def test_a_crashed_pool_task_is_a_crash_and_leaves_no_process(monkeypatch):
    # check 6's draws past the fast path's ceiling raise in the pool's task
    past = walkstats.DIAG_FAST_CEILING // 2 + 1  # diagonal points, so the edge is twice that
    _with_job_config(
        monkeypatch,
        "fastpath-draws",
        lambda workers: ExperimentConfig(Statistic.DELTA_FASTPATH, (2 * past,), 8, Seed(11), workers),
    )
    crashed, other = run_checks(
        level="quick", workers=2, names={"fastpath-consistency", "hitting-floor"}
    )
    assert crashed.raised and not crashed.passed
    assert crashed.detail.startswith("raised CapacityError: diagonal draws capped")
    assert other.passed
    assert multiprocessing.active_children() == []


def test_a_crashed_shared_pass_is_never_an_expected_red(monkeypatch):
    # zero-count-scaling is expected red; crashed, it fails the gate and the
    # report does not list it among the expected-red checks
    def past_the_ceiling(workers):
        sizes = (walkstats.SWEEP_CEILING + 1,)
        return ExperimentConfig(Statistic.Z_CROSSINGS, sizes, 4, Seed(1), workers)

    _with_job_config(monkeypatch, "shared-pass", past_the_ceiling)
    results = run_checks(level="quick", workers=2, names=SHARED_PASS)
    detail = "raised CapacityError: sweep capped at N=32768, got 32769"
    assert [r.detail for r in results] == [detail] * 3
    assert "expected-red" not in format_report(results, "quick")
    for result in results:
        with pytest.raises(AssertionError):
            judge(result)
    assert multiprocessing.active_children() == []


def test_an_interrupt_in_the_parent_shuts_the_pool_down(monkeypatch, real_pools):
    # hitting-floor runs while check 6's tasks are on the pool, and is interrupted
    def interrupt(run):
        raise KeyboardInterrupt

    patched = tuple(
        c._replace(run=interrupt) if c.name == "hitting-floor" else c for c in checks._CHECKS
    )
    monkeypatch.setattr(checks, "_CHECKS", patched)
    with pytest.raises(KeyboardInterrupt):
        run_checks(level="full", workers=2, names={"fastpath-consistency", "hitting-floor"})
    assert real_pools == ([2] if usable_cpus() >= 2 else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_are_rejected_before_any_check(monkeypatch, workers):
    # rejected at entry, like a bad level: no check runs and no pool starts
    monkeypatch.setattr(checks, "_CHECKS", tuple(c._replace(run=_unrun) for c in checks._CHECKS))
    with pytest.raises(ValueError, match="workers must be >= 1, got"):
        run_checks(level="quick", workers=workers)


@pytest.mark.parametrize(
    "level, workers, message",
    [
        ("FULL", 1, "level must be 'quick' or 'full', got 'FULL'"),
        ("quick", 0, "workers must be >= 1, got 0"),
    ],
    ids=["FULL", "no-workers"],
)
def test_a_run_rejects_a_bad_level_or_worker_count(level, workers, message):
    # so a run cannot fall back to the quick sizes on a typo
    with pytest.raises(ValueError, match=message):
        run_checks(level, workers)


@pytest.mark.parametrize(
    "names, message",
    [
        ({"no-such-check"}, r"unknown check name\(s\): no-such-check$"),
        ({"hitting-floor", "hitting_floor"}, r"unknown check name\(s\): hitting_floor$"),
        (set(), "no check selected"),
    ],
    ids=["unknown", "one-unknown", "empty"],
)
def test_run_checks_rejects_a_bad_selection_before_any_check(monkeypatch, names, message):
    # an empty result list has no report: format_report would fail on it
    monkeypatch.setattr(checks, "_CHECKS", tuple(c._replace(run=_unrun) for c in checks._CHECKS))
    with pytest.raises(ValueError, match=message):
        run_checks(level="quick", names=names)
