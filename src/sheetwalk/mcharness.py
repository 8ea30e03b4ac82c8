"""Deterministic Monte Carlo harness over the grid statistics.

Replicate ``r`` of an experiment always simulates stream
``StreamKey(seed, r)``.  The replicates are split into interleaved tasks:
of ``T`` tasks, task ``t`` gets the replicates ``r = t (mod T)``
(:func:`split_tasks`).  A :func:`job_queue` puts every task on one pool at
once, and each idle process pulls the next, so no process waits on a
slower one's fixed share.  Each value lands at its
replicate's index, and every float is reduced from them in replicate
order after the last task returns, so the full set of simulated values
and every summary is byte-identical for any worker count.
A task sweeps each of its replicates of a grid statistic once, at the
largest edge, and reads every smaller size as a prefix of that sweep (see
:func:`~sheetwalk.walkstats.sweep_roots`).  It derives the roots of all its
streams in one call (:func:`~sheetwalk.randfield.field_roots`), and the
sweep takes that array and hands back one int64 array per counter, sizes
by replicates; it computes only the one counter the statistic reads.  No
field, key or bundle object is made per replicate on that path.  The
diagonal fast path draws each replicate's increments once, for the
largest size, and counts every size on a prefix of them
(:func:`~sheetwalk.walkstats.diag_zero_counts`); the zero-set statistics
read each replicate's zeros once, for all sizes.  Raw per-replicate
values are retained, not just summaries.  A task's output is its
replicate indices and a sizes-by-replicates array of their values;
:func:`assemble_result` is the one place that output becomes an
:class:`ExperimentResult`.  The acceptance checks queue their jobs on
one queue (one runs its own task, which also audits each grid) and build
their results there too.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Iterator

import numpy as np

from .exactprob import DIAG_LOG_COEFF, CapacityError, delta_mean_exact
from .randfield import RademacherField, Seed, StreamKey, as_int, field_roots
from .walkstats import (
    COUNTERS,
    annulus_counts,
    check_diag_sizes,
    check_sizes,
    diag_zero_counts,
    sweep_roots,
    twin_band,
    twin_zero_counts,
)


class Statistic(enum.Enum):
    """Per-grid statistics the harness can sample."""

    GAMMA = "gamma"
    GAMMA_PRIME = "gamma_prime"
    Z_CROSSINGS = "z_crossings"
    DELTA = "delta"
    DELTA_FASTPATH = "delta_fastpath"
    D_ANTIDIAG = "d_antidiag"
    TWIN_ZEROS = "twin_zeros"
    ANNULUS = "annulus"


_BUNDLE_FIELDS = {Statistic(c) for c in COUNTERS}  # the statistics a sweep counts

# replicates x sizes of one result: its values take 80 MB of float64 at the cap
RESULT_CEILING = 10**7
# tasks queued per pool process: a process that finishes early pulls another
# task instead of waiting on a slower one's fixed share
TASKS_PER_PROCESS = 4


@dataclass(frozen=True)
class ExperimentConfig:
    statistic: Statistic
    sizes: tuple[int, ...]
    replicates: int
    seed: Seed
    workers: int = 1
    eps: float = 0.25  # wedge/annulus aperture where the statistic needs one
    radius: int = 8  # companion distance for twin-zero counting

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(as_int("grid size", n, 1) for n in self.sizes))
        for name in ("replicates", "workers", "radius"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", Seed(self.seed))
        if not self.sizes:
            raise ValueError("need at least one grid size")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"grid sizes must be distinct, got {self.sizes}")
        if self.replicates * len(self.sizes) > RESULT_CEILING:
            raise CapacityError(
                f"replicates x sizes capped at {RESULT_CEILING}, "
                f"got {self.replicates} x {len(self.sizes)}"
            )
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")


@dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    variance: float  # sample variance (ddof=1); 0 for a single replicate
    stderr: float  # sqrt(variance / count)
    minimum: float
    maximum: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    values: dict[int, np.ndarray]  # size -> per-replicate values, replicate order
    summaries: dict[int, SummaryStats] = dataclass_field(default_factory=dict)


def summarize(values: np.ndarray) -> SummaryStats:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1:
        raise ValueError("cannot summarize an empty sample")
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return SummaryStats(
        count=int(values.size),
        mean=float(values.mean()),
        variance=variance,
        stderr=math.sqrt(variance / values.size),
        minimum=float(values.min()),
        maximum=float(values.max()),
    )


def _worker_chunk(args: tuple[ExperimentConfig, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One task of :func:`split_tasks`, ``args = (config, replicate indices)``."""
    config, mine = args
    stat, sizes = config.statistic, config.sizes
    if stat in _BUNDLE_FIELDS:  # only the counter read is swept, from the roots
        roots = field_roots(config.seed, mine)
        return mine, sweep_roots(roots, sizes, (stat.value,))[stat.value]
    keys = [StreamKey(config.seed, r) for r in mine.tolist()]
    fields = (RademacherField(key) for key in keys)
    # per replicate, one value per size in the order of sizes
    if stat is Statistic.DELTA_FASTPATH:  # drawn, not read from a grid
        values = [diag_zero_counts(key, sizes) for key in keys]
    elif stat is Statistic.TWIN_ZEROS:
        values = [twin_zero_counts(f, config.eps, sizes, config.radius) for f in fields]
    else:
        values = [annulus_counts(f, config.eps, sizes) for f in fields]
    return mine, np.array(values, dtype=np.float64).reshape(len(mine), len(sizes)).T


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_processes(config: ExperimentConfig) -> int:
    """The processes an experiment's tasks run on: one per worker, but no
    more than there are replicates to share out or CPUs to run them."""
    return min(config.workers, config.replicates, usable_cpus())


def split_tasks(config: ExperimentConfig, tasks: int) -> list[tuple[ExperimentConfig, np.ndarray]]:
    """The arguments ``(config, replicate indices)`` of an experiment's ``tasks`` tasks.

    Task ``t`` of ``T`` gets the replicates ``r = t (mod T)``; with ``T``
    above the replicate count the last tasks are empty.
    """
    return [(config, np.arange(t, config.replicates, tasks)) for t in range(tasks)]


def timed(task: Callable, args) -> tuple:
    """``task(args)``, its seconds and its cpu_seconds, timed where it ran:
    wall time, which counts any wait for a CPU, and the process's CPU time."""
    start, cpu_start = time.perf_counter(), time.process_time()
    value = task(args)
    return value, time.perf_counter() - start, time.process_time() - cpu_start


@contextlib.contextmanager
def job_queue(
    jobs: dict[str, tuple[Callable, ExperimentConfig]]
) -> Iterator[Callable[[str], tuple[list, tuple | None]]]:
    """Queue the ``jobs``, name -> ``(task, config)``; yield ``collect(name)``,
    the job's values in the task order of :func:`split_tasks` and, if it
    ran on a pool, their seconds and cpu_seconds (:func:`timed`), else None.

    One process pool as wide as the widest job takes every task (of
    module-level functions) at entry, or with a width of 1 none starts and
    each job runs inline, as one task, when first collected.  On the pool,
    a job of ``P`` :func:`pool_processes` is split into one task if ``P``
    is 1, else into ``min(replicates, TASKS_PER_PROCESS * P)``, so none is
    empty.  Either way a job runs at most once: every ``collect`` of it
    hands back the values of that run, or raises the exception a task of
    it raised.  The pool is shut down however the block exits: the queued
    tasks are cancelled and the running ones waited for, so no process
    outlives the block.
    """
    processes = max((pool_processes(config) for _, config in jobs.values()), default=1)
    if processes == 1:
        done: dict[str, tuple[list, None] | Exception] = {}  # a job's values, or what it raised

        def run_inline(name: str) -> tuple[list, None]:
            if name not in done:
                task, config = jobs[name]
                try:
                    done[name] = [task(args) for args in split_tasks(config, 1)], None
                except Exception as exc:
                    done[name] = exc
            if isinstance(done[name], Exception):
                raise done[name]
            return done[name]

        yield run_inline
        return

    def tasks(config: ExperimentConfig) -> int:
        width = pool_processes(config)
        return 1 if width == 1 else min(config.replicates, TASKS_PER_PROCESS * width)

    from concurrent.futures import ProcessPoolExecutor  # here, so only a pool loads multiprocessing

    pool = ProcessPoolExecutor(max_workers=processes)
    try:
        queued = {
            name: [pool.submit(timed, task, args) for args in split_tasks(config, tasks(config))]
            for name, (task, config) in jobs.items()
        }

        def collect(name: str) -> tuple[list, tuple]:
            values, seconds, cpu_seconds = zip(*(future.result() for future in queued[name]))
            return list(values), (seconds, cpu_seconds)

        yield collect
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def assemble_result(
    config: ExperimentConfig, chunks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> ExperimentResult:
    """Place every task's values at their replicates; summarize each size.

    A chunk is ``(replicates, values)``: the task's replicate indices
    and a ``(len(sizes), len(replicates))`` array, one row per size in
    the order of ``config.sizes``.  Values land at their replicate's
    index, so the result does not depend on how the replicates were
    split into tasks.
    """
    values = {
        size: np.empty(config.replicates, dtype=np.float64) for size in config.sizes
    }
    for replicates, chunk in chunks:
        for size, row in zip(config.sizes, chunk):
            values[size][replicates] = row
    summaries = {size: summarize(vals) for size, vals in values.items()}
    return ExperimentResult(config=config, values=values, summaries=summaries)


def _check_capacity(config: ExperimentConfig) -> None:
    """Raise the ``CapacityError`` a task of ``config`` would raise, through
    the check its reader calls first."""
    if config.statistic is Statistic.DELTA_FASTPATH:
        check_diag_sizes(config.sizes)
    elif config.statistic is Statistic.TWIN_ZEROS:
        twin_band(max(config.sizes), config.eps, config.radius)
    else:  # a sweep, or the annulus's read of the largest grid
        check_sizes(config.sizes)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Simulate every (size, replicate) cell of the experiment grid.

    The outcome is a pure function of ``(statistic, sizes, replicates,
    seed, eps, radius)`` — the worker count only changes wall time.
    A grid past its reader's ceiling is refused before any task starts.
    """
    _check_capacity(config)
    with job_queue({"run": (_worker_chunk, config)}) as collect:
        chunks, _ = collect("run")
    return assemble_result(config, chunks)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float  # OLS slope standard error; 0 when the fit is exact
    points_used: tuple[int, ...]


def estimate_exponent(
    sizes, means, *, drop_below: int | None = None
) -> SlopeFit:
    """Least-squares slope of ``log mean`` against ``log size``.

    Nonpositive means cannot enter a log fit; they are dropped with a
    warning.  ``drop_below`` additionally excludes sizes under a floor
    (small-size transients).  Non-finite values, sizes below 1 and fewer
    than two distinct surviving sizes are errors.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if sizes.shape != means.shape or sizes.ndim != 1:
        raise ValueError("sizes and means must be 1-d and the same length")
    if not (np.isfinite(sizes).all() and np.isfinite(means).all()):
        raise ValueError("sizes and means must be finite")
    if (sizes < 1).any():
        raise ValueError(f"sizes must be >= 1, got {sizes.min():g}")
    keep = np.ones(sizes.size, dtype=bool)
    if drop_below is not None:
        keep &= sizes >= drop_below
    bad = keep & (means <= 0)
    if bad.any():
        warnings.warn(
            f"excluding {int(bad.sum())} nonpositive mean(s) from the log fit",
            stacklevel=2,
        )
        keep &= means > 0
    if np.unique(sizes[keep]).size < 2:
        raise ValueError("need positive means at two distinct sizes to fit a slope")
    x = np.log(sizes[keep])
    y = np.log(means[keep])
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        stderr=math.sqrt(s2 / sxx),
        points_used=tuple(int(n) for n in sizes[keep]),
    )


@dataclass(frozen=True)
class LogLawRow:
    size: int
    exact_mean: float
    prediction: float  # ln(size) / sqrt(2 pi)
    ratio: float  # exact_mean / prediction
    mc_mean: float | None = None
    mc_stderr: float | None = None


def delta_log_law_report(
    sizes,
    *,
    replicates: int = 0,
    seed: Seed | int = 0,
    workers: int = 1,
) -> list[LogLawRow]:
    """Tabulate the diagonal zero count against its logarithmic law.

    Sizes count *diagonal points*: row ``n`` covers the even diagonal out
    to ``(2n, 2n)``, i.e. a simulated grid of edge ``2n``.  Pure
    reporting — one row per size with the exact mean, the
    ``ln n / sqrt(2 pi)`` prediction and their ratio, plus Monte Carlo
    columns when ``replicates`` is positive, from :func:`run_experiment`
    of the distribution-level fast path on the grid edges ``2n``.
    No row is asserted here; judgments belong to callers.
    """
    sizes = tuple(as_int("size", n, 2) for n in sizes)
    if not sizes:
        raise ValueError("need at least one size")
    mc: dict[int, SummaryStats] = {}
    if replicates:
        config = ExperimentConfig(
            Statistic.DELTA_FASTPATH, tuple(2 * n for n in sizes), replicates, seed, workers
        )
        result = run_experiment(config)
        mc = {n: result.summaries[2 * n] for n in sizes}
    rows = []
    for n in sizes:
        exact = delta_mean_exact(n)
        prediction = DIAG_LOG_COEFF * math.log(n)
        rows.append(
            LogLawRow(
                size=n,
                exact_mean=exact,
                prediction=prediction,
                ratio=exact / prediction,
                mc_mean=mc[n].mean if mc else None,
                mc_stderr=mc[n].stderr if mc else None,
            )
        )
    return rows
