"""Deterministic Monte Carlo harness over the grid statistics.

Replicate ``r`` of an experiment always simulates stream
``StreamKey(seed, r)``, and worker ``r mod W`` owns it under a static
partition (:func:`map_workers`), so the full set of simulated values — and
every float reduced from them, since aggregation happens in replicate
order after the pool returns — is byte-identical for any worker count.
A worker sweeps each of its replicates of a grid statistic once, at the
largest edge, and reads every smaller size as a prefix of that sweep (see
:func:`~sheetwalk.walkstats.sweep_fields`); the sweep computes only the one
counter the statistic reads.  The diagonal fast path draws each
replicate's increments once, for the largest size, and counts every size
on a prefix of them (:func:`~sheetwalk.walkstats.diag_zero_counts`); the
zero-set statistics read each replicate's zeros once, for all sizes.  Raw
per-replicate values are retained, not just summaries.
:func:`assemble_result` is the one place worker output becomes an
:class:`ExperimentResult`; a caller that runs its own task on the same
partition (the acceptance checks, which also audit each grid in the pass)
builds its result there too.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable

import numpy as np

from .exactprob import DIAG_LOG_COEFF, delta_mean_exact
from .randfield import RademacherField, Seed, StreamKey
from .walkstats import COUNTERS, annulus_counts, diag_zero_counts, sweep_fields, twin_zero_counts


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
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "seed", Seed(self.seed))
        if not self.sizes:
            raise ValueError("need at least one grid size")
        if any(n < 1 for n in self.sizes):
            raise ValueError(f"grid sizes must be >= 1, got {self.sizes}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"grid sizes must be distinct, got {self.sizes}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")


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


def _worker_chunk(args: tuple[ExperimentConfig, int, int]) -> list[tuple[int, int, float]]:
    config, worker_index, workers = args
    mine = range(worker_index, config.replicates, workers)
    stat, sizes = config.statistic, config.sizes
    fields = (RademacherField(StreamKey(config.seed, r)) for r in mine)
    # per replicate, one value per size in the order of sizes
    if stat is Statistic.DELTA_FASTPATH:  # drawn, not read from a grid
        values = (diag_zero_counts(StreamKey(config.seed, r), sizes) for r in mine)
    elif stat in _BUNDLE_FIELDS:  # only the counter read is swept
        swept = sweep_fields(fields, sizes, (stat.value,))
        values = ([getattr(b, stat.value) for b in bs] for bs in swept)
    elif stat is Statistic.TWIN_ZEROS:
        values = (twin_zero_counts(f, config.eps, sizes, config.radius) for f in fields)
    else:
        values = (annulus_counts(f, config.eps, sizes) for f in fields)
    return [(n, r, float(v)) for r, vs in zip(mine, values) for n, v in zip(sizes, vs)]


def map_workers(task: Callable, config: ExperimentConfig) -> list:
    """Run ``task((config, w, W))`` for each worker ``w``; results in worker order.

    This is the static partition: of ``W = min(config.workers,
    config.replicates)`` workers, worker ``w`` owns replicates ``r = w
    (mod W)``.  The ``W`` jobs run on ``min(W, os.cpu_count())``
    processes, so no more processes start than there are replicates to
    share out or CPUs to run them.  With one process the jobs run inline;
    otherwise ``task`` must be a module-level function.
    """
    workers = min(config.workers, config.replicates)
    jobs = [(config, w, workers) for w in range(workers)]
    processes = min(workers, os.cpu_count() or 1)
    if processes == 1:
        return [task(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(task, jobs))


def assemble_result(
    config: ExperimentConfig, chunks: Iterable[Iterable[tuple[int, int, float]]]
) -> ExperimentResult:
    """Place every worker's ``(size, replicate, value)`` triples; summarize each size.

    Values land at their replicate's index, so the result does not depend
    on how the replicates were shared out among the workers.
    """
    values = {
        size: np.empty(config.replicates, dtype=np.float64) for size in config.sizes
    }
    for chunk in chunks:
        for size, r, value in chunk:
            values[size][r] = value
    summaries = {size: summarize(vals) for size, vals in values.items()}
    return ExperimentResult(config=config, values=values, summaries=summaries)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Simulate every (size, replicate) cell of the experiment grid.

    The outcome is a pure function of ``(statistic, sizes, replicates,
    seed, eps, radius)`` — the worker count only changes wall time.
    """
    return assemble_result(config, map_workers(_worker_chunk, config))


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
    (small-size transients).  Fewer than two surviving points is an error.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if sizes.shape != means.shape or sizes.ndim != 1:
        raise ValueError("sizes and means must be 1-d and the same length")
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
    if keep.sum() < 2:
        raise ValueError("need at least two positive points to fit a slope")
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
    columns (via the distribution-level fast path) when ``replicates``
    is positive.  No row is asserted here; judgments belong to callers.
    """
    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n < 2 for n in sizes):
        raise ValueError(f"sizes must all be >= 2, got {sizes}")
    mc: dict[int, SummaryStats] = {}
    if replicates:
        result = run_experiment(
            ExperimentConfig(
                statistic=Statistic.DELTA_FASTPATH,
                sizes=tuple(2 * n for n in sizes),  # grid edge = 2 * points
                replicates=replicates,
                seed=Seed(seed),
                workers=workers,
            )
        )
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
