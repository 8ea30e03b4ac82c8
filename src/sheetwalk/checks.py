"""The acceptance-check suite behind ``sheetwalk verify``.

Thirteen checks, each a literal assertion about the package's exact
values, Monte Carlo output, or byte-level determinism.  ``full`` runs
every check at its committed size; ``quick`` shrinks the expensive grids
for a sub-minute smoke pass.  Results are reported honestly: a check
that measures a violated bound FAILS and says what it measured — four
bounds in this suite are unattainable as committed (the README's
verification section carries the analysis) and stay red by design.

Each check is one row of ``_CHECKS``: its name, its function, the pool
job it reads, if any, and whether it is red by design; the red rows
make :data:`EXPECTED_RED`.  A check reads only its run, the object that
:func:`run_suite` makes: the run's level and the pool jobs it queued,
each from the run's queue, which runs a job once and hands every reader
its values or its error.  :func:`_jobs` writes each job's config once,
in grid edges.  ``shared-pass`` is one pass over check 8's grids that
sweeps each grid once for checks 7-9 and audits it in the same sweep;
check 13 compares its ``determinism`` job's result from the run's task
split with every other split's, assembled in process.

Every run takes one order.  It puts the selected checks' jobs on one
:func:`~sheetwalk.mcharness.job_queue` at its start; the checks that read
no job run meanwhile, beside the queue's pool if it has one, then checks
6-9 and 13 collect their jobs.  No check starts a process of its own.
Results come back in index order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import exactprob
from .exactprob import (
    DIAG_LOG_COEFF,
    antidiag_mean_exact,
    delta_mean_exact,
    delta_var_exact,
    gamma_mean_exact,
    hit_constant_estimate,
    p_float,
    p_float_vec,
)
from .mcharness import (
    ExperimentConfig,
    ExperimentResult,
    Statistic,
    _worker_chunk,
    assemble_result,
    estimate_exponent,
    job_queue,
    split_tasks,
)
from .randfield import RademacherField, Seed, StreamKey, as_int, field_roots
from .walkstats import (
    AUDIT,
    COUNTERS,
    annulus_zero_check,
    brute_force_bundle,
    dense_sums,
    render_zero_set,
    sweep_grid,
    sweep_roots,
    twin_zero_count,
    zero_points,
)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    seconds: float
    detail: str

    @property
    def raised(self) -> bool:
        """The check crashed: it measured nothing, so it is never an expected red."""
        return self.detail.startswith("raised ")


@dataclass(frozen=True)
class Suite:
    """What one :func:`run_suite` call reports."""

    results: list[CheckResult]  # in index order
    # per pool job, its tasks' seconds and their cpu_seconds, timed in the process that ran each
    pool: dict[str, tuple[tuple[float, ...], tuple[float, ...]]]


@dataclass
class _Run:
    """One :func:`run_suite` call: what every check reads of it."""

    level: str
    # the jobs the run queued, name -> (task, config), and collect of their job_queue
    jobs: dict[str, tuple[Callable, ExperimentConfig]]
    collect: Callable[[str], tuple] = field(repr=False)
    # job -> its tasks' seconds and cpu_seconds, for the jobs collected from a pool
    pool_seconds: dict[str, tuple] = field(default_factory=dict, init=False)

    def job(self, name: str) -> tuple[ExperimentConfig, list]:
        """Job ``name``'s config and task values, in task order; the queue runs
        it once, and a task that raised raises here, at every read."""
        values, times = self.collect(name)
        if times:
            self.pool_seconds[name] = times
        return self.jobs[name][1], values

    @cached_property
    def audited(self) -> tuple[ExperimentResult, ExperimentResult, ExperimentResult]:
        """Check 8's grids swept once: the results of ``run_experiment`` with
        statistic ``GAMMA`` and ``Z_CROSSINGS``, and of the audit's fault counts."""
        config, chunks = self.job("shared-pass")
        read = (Statistic.GAMMA, Statistic.Z_CROSSINGS, config.statistic)
        return tuple(
            assemble_result(replace(config, statistic=s), c) for s, c in zip(read, zip(*chunks))
        )


# --------------------------------------------------------------- check 1


def _rebuild_dyadic(limit: int) -> Iterator[tuple[int, int]]:
    # reimplements the ratio recurrence with its own odd-part bookkeeping
    num, exp = 1, 0
    yield num, exp
    for n in range(limit):
        num *= 2 * n + 1
        m = n + 1
        exp += 1
        while m % 2 == 0:
            m //= 2
            exp += 1
        num //= m
        yield num, exp


def _check_return_probability(run: _Run) -> tuple[bool, str]:
    limit = exactprob.EXACT_CEILING if run.level == "full" else 2000
    ident_limit = 1000 if run.level == "full" else 200
    samples = {*range(51), 509, 997, limit}
    # one pass over the oracle's pairs and the generator's, so no pair is
    # held; a Fraction is built only at the n a closed form or identity reads
    same_pairs = closed_ok = ident_ok = True
    floats = np.empty(limit + 1)
    for n, (rebuilt, (num, exp)) in enumerate(
        zip(_rebuild_dyadic(limit), exactprob.dyadic_pairs())
    ):
        same_pairs &= rebuilt == (num, exp)
        floats[n] = rebuilt[0] / (1 << rebuilt[1])
        if n in samples or n <= ident_limit:
            p = Fraction(num, 1 << exp)
            if n in samples:
                closed_ok &= p == Fraction(math.comb(2 * n, n), 4**n)
            if 0 < n <= ident_limit:
                ident_ok &= p * (2 * n) == prev * (2 * n - 1)
            prev = p
    got = np.array([p_float(n) for n in range(limit + 1)])
    rel = np.abs(got - floats) / floats
    max_rel = float(rel.max())
    ok = same_pairs and closed_ok and ident_ok and max_rel == 0  # the table is correctly rounded
    return ok, (
        f"rebuilt table to n={limit}: max rel err {max_rel:.1e}, "
        f"closed form ok={closed_ok}, rational recurrence identity to "
        f"n={ident_limit} ok={ident_ok}"
    )


# --------------------------------------------------------------- check 2


def _check_wallis_envelope(run: _Run) -> tuple[bool, str]:
    limit = 10_000 if run.level == "full" else 2000
    n = np.arange(1, limit + 1, dtype=np.int64)
    defect = p_float_vec(n) * np.sqrt(np.pi * n) - (1.0 - 1.0 / (8.0 * n))
    scaled = defect * n.astype(np.float64) ** 2
    ok = bool((defect >= 0).all() and (scaled <= 0.012).all())
    worst = int(n[scaled.argmax()])
    return ok, (
        f"0 <= defect <= 0.012/n^2 on [1,{limit}]: "
        f"max n^2*defect {scaled.max():.8f} at n={worst}, min defect {defect.min():.2e}"
    )


# --------------------------------------------------------------- check 3


def _check_difference_window(run: _Run) -> tuple[bool, str]:
    mono_limit = 1_000_000 if run.level == "full" else 100_000
    window_hi = 10_000 if run.level == "full" else 2000
    # n and n + 1 for n = 0..mono_limit, CHUNK_CELLS cells at a time, so each
    # p_float_vec call is one evaluator block (about 0.5 MiB of scratch; 62
    # calls at full) and no mono_limit-long array is held; each chunk starts
    # on the last cell of the one before
    step = exactprob.CHUNK_CELLS - 1
    decreasing = True
    for lo in range(0, mono_limit + 1, step):
        values = p_float_vec(np.arange(lo, min(lo + step, mono_limit + 1) + 1))
        decreasing &= bool((np.diff(values) < 0).all())
    n = np.arange(100, window_hi + 1, dtype=np.int64)
    x = n.astype(np.float64)
    scaled = x**1.5 * p_float_vec(n) / (2.0 * x + 2.0)
    lo, hi = float(scaled.min()), float(scaled.max())
    in_band = 0.2790 <= lo and hi <= 0.2825
    ok = decreasing and in_band
    detail = (
        f"strictly decreasing to n={mono_limit}: {decreasing}; scaled difference "
        f"on [100,{window_hi}] in [{lo:.10f}, {hi:.10f}] vs [0.2790, 0.2825]"
    )
    if not in_band:
        detail += (
            f"; min sits at n={int(n[scaled.argmin()])} — the committed lower "
            "edge is above the true minimum (band holds from n=102); see README"
        )
    return ok, detail


# --------------------------------------------------------------- check 4


def _check_diagonal_mean_law(run: _Run) -> tuple[bool, str]:
    if run.level == "full":
        chain = [100 * 2**k for k in range(10)]  # 100 .. 51200
        ratio_at = 10**6
    else:
        chain = [100 * 2**k for k in range(5)]
        ratio_at = 10**5
    centered = {
        n: delta_mean_exact(n) - DIAG_LOG_COEFF * math.log(n)
        for n in {*chain, *(2 * n for n in chain)}
    }
    gaps = [abs(centered[2 * n] - centered[n]) for n in chain]
    ratio = delta_mean_exact(ratio_at) / math.log(ratio_at)
    ok = max(gaps) <= 0.01 and 0.34 <= ratio <= 0.46
    return ok, (
        f"doubling gaps of the centered mean on {chain[0]}..{chain[-1]}: "
        f"max {max(gaps):.6f} (<= 0.01); mean/ln at {ratio_at:.0e}: {ratio:.6f} "
        "in [0.34, 0.46]"
    )


# --------------------------------------------------------------- check 5


def _check_diagonal_variance_band(run: _Run) -> tuple[bool, str]:
    sizes = (10, 100, 1000, 2000) if run.level == "full" else (10, 100, 1000)
    gaps = {
        n: abs(delta_var_exact(n) - DIAG_LOG_COEFF * math.log(n)) for n in sizes
    }
    worst_n = max(gaps, key=gaps.get)
    ok = all(g <= 0.5 for g in gaps.values())
    detail = "|variance - ln-law| at " + ", ".join(
        f"N={n}: {gaps[n]:.4f}" for n in sizes
    )
    if not ok:
        detail += (
            f" — exceeds the committed 0.5 at N={worst_n}; the exact variance "
            "grows like 0.61*ln N, so no constant-offset band of width 0.5 can "
            "hold (see README)"
        )
    return ok, detail


# --------------------------------------------------------------- check 6


def _check_fastpath_consistency(run: _Run) -> tuple[bool, str]:
    config, chunks = run.job("fastpath-draws")
    (edge,) = config.sizes  # twice the diagonal points
    mc = assemble_result(config, chunks).summaries[edge]
    exact = delta_mean_exact(edge // 2)
    z = (mc.mean - exact) / mc.stderr
    ok = abs(z) <= 4.0
    return ok, (
        f"diagonal fast path, {edge // 2} points x {config.replicates} replicates: "
        f"mc {mc.mean:.4f} vs exact {exact:.4f}, z = {z:+.3f}"
    )


# ------------------------------------------------- checks 7-9: one pass


def _audited_chunk(args: tuple[ExperimentConfig, np.ndarray]) -> tuple[tuple, ...]:
    # one task of the harness's split, args = (config, replicate indices): each
    # replicate swept once, its gamma, crossings and audit fault counts read from it
    config, mine = args
    roots = field_roots(config.seed, mine)
    values = sweep_roots(roots, config.sizes, ("gamma", "z_crossings", AUDIT))
    return (mine, values["gamma"]), (mine, values["z_crossings"]), (mine, values[AUDIT])


# --------------------------------------------------------------- check 7


def _check_zero_count_scaling(run: _Run) -> tuple[bool, str]:
    sizes = tuple(2**k for k in range(6, 11))
    exact = {n: gamma_mean_exact(n) for n in sizes}
    fit = estimate_exponent(sizes, list(exact.values()))
    gamma, _, _ = run.audited
    config = gamma.config
    top = max(config.sizes)  # 1024 at full, 512 at quick
    ratio = gamma.summaries[top].mean / exact[top]
    slope_ok = 0.97 <= fit.slope <= 1.03
    mc_ok = abs(ratio - 1.0) <= 0.10
    detail = (
        f"exact-mean slope over 64..1024: {fit.slope:.4f} vs [0.97, 1.03]; "
        f"Monte Carlo mean / exact at N={top} (M={config.replicates}, "
        f"seed {config.seed}): {ratio:.4f}"
    )
    if not slope_ok:
        detail += (
            " — slope misses the band: the mean carries a -c*sqrt(N) boundary "
            "term that inflates pre-asymptotic slopes (see README)"
        )
    return slope_ok and mc_ok, detail


# --------------------------------------------------------------- check 8


def _check_crossing_count_scaling(run: _Run) -> tuple[bool, str]:
    _, result, _ = run.audited
    config = result.config
    means = [result.summaries[n].mean for n in config.sizes]
    fit = estimate_exponent(config.sizes, means)
    ok = 1.40 <= fit.slope <= 1.60
    return ok, (
        f"crossing-count slope over {config.sizes[0]}..{config.sizes[-1]} "
        f"(M={config.replicates}, seed {config.seed}): {fit.slope:.4f} vs [1.40, 1.60]"
    )


# --------------------------------------------------------------- check 9


def _check_crossing_decomposition(run: _Run) -> tuple[bool, str]:
    # audits exactly the grids swept for checks 7 and 8, in their one pass;
    # run without them, it makes that pass itself
    _, _, faults = run.audited
    grids = sum(vals.size for vals in faults.values.values())
    failed = {n: np.count_nonzero(vals) for n, vals in faults.values.items() if vals.any()}
    if failed:
        at = ", ".join(f"N={n}: {k}" for n, k in failed.items())
        total = int(sum(vals.sum() for vals in faults.values.values()))
        return False, (
            f"crossing audit failed on {sum(failed.values())} of {grids} grids ({at}), "
            f"{total} failed conditions in all"
        )
    return True, (
        f"crossing total equals profile sum and zero-touch counts are "
        f"sandwiched by row zeros on all {grids} grids"
    )


# -------------------------------------------------------------- check 10


def _recount_twins(field, eps: float, N: int, radius: int) -> int:
    # dense quadratic recount over a square holding the band, from the
    # scalar field values; no shared code with the tile hash, the tile
    # reader or the vectorized companion search
    rows = N - 1 + radius
    cols = math.ceil((N - 1) / eps) - 1 + radius
    extent = max(rows, cols)
    sums = dense_sums(field, extent, extent)
    zeros = {(i + 1, j + 1) for i, j in np.argwhere(sums == 0).tolist()}
    count = 0
    for zi, zj in zeros:
        if not (1 < zi < N and eps * zi < zj < zi / eps):
            continue
        count += any(
            (oi, oj) != (zi, zj) and abs(oi - zi) + abs(oj - zj) <= radius
            for oi, oj in zeros
        )
    return count


def _check_oracle_equivalence(run: _Run) -> tuple[bool, str]:
    seeds = 50 if run.level == "full" else 12
    sizes = (5, 8, 12, 17, 24)
    ok = True
    wide = (seeds, 70)  # rows of 70 cells span two of the row fold's 64-cell blocks
    for seed, n in [*((s, sizes[s % len(sizes)]) for s in range(seeds)), wide]:
        field = RademacherField(StreamKey(Seed(seed), 0))
        a, (b, zeros) = sweep_grid(field, n), brute_force_bundle(field, n)
        ok &= (
            all(getattr(a, c) == getattr(b, c) for c in COUNTERS)
            and a.row_profiles.tolist() == b.row_profiles.tolist()
            and tuple(map(tuple, zero_points(field, n, n).tolist())) == zeros
        )
        if (seed, n) == wide:  # the twin and annulus oracles read the small grids only
            break
        ok &= twin_zero_count(field, 0.5, n, 3) == _recount_twins(field, 0.5, n, 3)
        lo = math.ceil(0.5 * n)
        dense_annulus = sum(1 for (i, j) in zeros if i >= lo and j >= lo)
        ok &= annulus_zero_check(field, 0.5, n) == (dense_annulus > 0, dense_annulus)
    # every grid above is one tile; 14 grids of N = 70 as one block are read in
    # tiles of 65 + 5 rows, so a fault at a tile seam shows against lone sweeps
    streams = 14
    block = sweep_roots(field_roots(Seed(seeds), range(streams)), (70,), COUNTERS)
    for r in range(streams):
        lone = sweep_grid(RademacherField(StreamKey(Seed(seeds), r)), 70)
        ok &= all(block[c][0, r] == getattr(lone, c) for c in COUNTERS)
    return bool(ok), (
        f"sweep counters, twin zeros (radius 3) and annulus counts (eps 0.5) "
        f"match dense recounts for {seeds} seeds at N in {sizes}; sweep counters, "
        f"row profiles and zeros also for seed {seeds} at N = 70, and the counters "
        f"of its first {streams} streams swept as one block match their lone sweeps"
    )


# -------------------------------------------------------------- check 11


def _check_antidiagonal_constant(run: _Run) -> tuple[bool, str]:
    # the anti-diagonal mean stays bounded: ~N/2 admissible cells, each ~c/N
    ms = (250, 500, 1000, 2000) if run.level == "full" else (250, 500, 1000)
    values = [antidiag_mean_exact(2 * m) for m in ms]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    cauchy_ok = all(g <= 0.01 for g in gaps)
    last = values[-1]
    low, high = math.sqrt(math.pi / 8), math.sqrt(math.pi / 2)
    verdicts = []
    if abs(last - low) <= 0.02:
        verdicts.append(f"matches sqrt(pi/8)={low:.4f}")
    if abs(last - high) <= 0.02:
        verdicts.append(f"matches sqrt(pi/2)={high:.4f}")
    which = "; ".join(verdicts) if verdicts else (
        f"matches neither sqrt(pi/8)={low:.4f} nor sqrt(pi/2)={high:.4f} "
        f"within 0.02 (closest: sqrt(pi/2), gap {abs(last - high):.4f}; "
        "the sequence is still converging toward it)"
    )
    detail = (
        f"exact mean at half-sizes {ms}: last {last:.6f}, successive gaps "
        + ", ".join(f"{g:.4f}" for g in gaps)
        + f" vs <= 0.01; {which}"
    )
    if not cauchy_ok:
        detail += " — gaps shrink like 1/sqrt(M), too slowly for the committed 0.01 (see README)"
    return cauchy_ok, detail


# -------------------------------------------------------------- check 12


def _check_hitting_floor(run: _Run) -> tuple[bool, str]:
    # The estimate reads exactly 1.0 at every n_max: its minimum is always the
    # n = 1, x = 2 term, sqrt(1) * P(S = 2 | S >= 2) = 1 for a sum of 2 signs.
    # The smallest term over n >= 2 is 1.1314, at (n, x) = (2, 2), so the
    # 0.5 floor is met by that one trivial term.
    estimate = hit_constant_estimate(200)
    ok = estimate >= 0.5
    return ok, f"hit_constant_estimate(200) = {estimate:.6f} >= 0.5"


# -------------------------------------------------------------- check 13


def _check_determinism(run: _Run) -> tuple[bool, str]:
    config, chunks = run.job("determinism")

    def written(chunks) -> list:  # what simulate formats raw.csv and summary.csv from
        result = assemble_result(config, chunks)
        return [(result.values[n].tobytes(), result.summaries[n]) for n in config.sizes]

    ran = written(chunks)  # from the run's own task split
    splits = range(1, config.replicates + 1)
    same = sum(written(map(_worker_chunk, split_tasks(config, t))) == ran for t in splits)
    render_n = 256 if run.level == "full" else 128
    images = [render_zero_set(RademacherField(StreamKey(Seed(7), 0)), render_n) for _ in range(2)]
    same_image = images[0] == images[1]
    return same == len(splits) and same_image, (
        f"{config.statistic.value} at N in {config.sizes} (M={config.replicates}, "
        f"seed {config.seed}): {same} of the {len(splits)} splits into T = "
        f"1..{config.replicates} interleaved tasks give the run's values and summaries; "
        f"render(seed 7, N={render_n}) identical across two calls: {same_image}"
    )


class _Check(NamedTuple):
    """One check of the suite: all the suite knows of it."""

    name: str
    run: Callable[[_Run], tuple[bool, str]]
    job: str | None = None  # the key of _jobs it reads
    red: bool = False  # its committed bound is unattainable: red by design (see README)


_CHECKS = (
    _Check("return-probability", _check_return_probability),
    _Check("wallis-envelope", _check_wallis_envelope),
    _Check("difference-window", _check_difference_window, red=True),
    _Check("diagonal-mean-log-law", _check_diagonal_mean_law),
    _Check("diagonal-variance-band", _check_diagonal_variance_band, red=True),
    _Check("fastpath-consistency", _check_fastpath_consistency, "fastpath-draws"),
    _Check("zero-count-scaling", _check_zero_count_scaling, "shared-pass", red=True),
    _Check("crossing-count-scaling", _check_crossing_count_scaling, "shared-pass"),
    _Check("crossing-decomposition", _check_crossing_decomposition, "shared-pass"),
    _Check("oracle-equivalence", _check_oracle_equivalence),
    _Check("antidiagonal-constant", _check_antidiagonal_constant, red=True),
    _Check("hitting-floor", _check_hitting_floor),
    _Check("determinism", _check_determinism, "determinism"),
)

#: Checks that measure bounds known to be unattainable as committed; they
#: stay red on a correct build.  Kept failing on purpose — see README.
EXPECTED_RED = frozenset(c.name for c in _CHECKS if c.red)


def _jobs(level: str, workers: int) -> dict[str, tuple[Callable, ExperimentConfig]]:
    """The pool jobs of a run at ``level`` on ``workers``, in the order it
    queues them: job -> its task and config.  Every size is a grid edge."""
    if level == "full":
        draws, grids = ((20_000,), 2000), ((128, 256, 512, 1024), 200)
    else:
        draws, grids = ((4000,), 500), ((64, 128, 256, 512), 60)
    return {
        # check 6: the diagonal out to (2n, 2n), n = 10^4 points (2000 at quick)
        "fastpath-draws": (
            _worker_chunk, ExperimentConfig(Statistic.DELTA_FASTPATH, *draws, Seed(11), workers)
        ),
        # checks 7-9: check 8's grids, each swept once
        "shared-pass": (
            _audited_chunk, ExperimentConfig(Statistic.Z_CROSSINGS, *grids, Seed(1), workers)
        ),
        # check 13: a simulate run
        "determinism": (
            _worker_chunk, ExperimentConfig(Statistic.Z_CROSSINGS, (32, 64), 24, Seed(7), workers)
        ),
    }


def check_names() -> tuple[str, ...]:
    return tuple(c.name for c in _CHECKS)


def _run_check(run: _Run, index: int, check: _Check) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = check.run(run)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(
        index=index,
        name=check.name,
        passed=passed,
        seconds=time.perf_counter() - start,
        detail=detail,
    )


def run_suite(
    level: str = "full", workers: int = 1, names: set[str] | None = None
) -> Suite:
    """Run the checks ``names`` (all by default) and time the run's pool work.

    The checks that read no pool job run first, beside the queue of the
    others' jobs, then those collect them.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    workers = as_int("workers", workers, 1)
    if names is not None:
        unknown = sorted(set(names) - set(check_names()))
        if unknown:
            raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
        if not names:
            raise ValueError("no check selected")
    selected = [
        (index, check)
        for index, check in enumerate(_CHECKS, start=1)
        if names is None or check.name in names
    ]
    selected.sort(key=lambda pair: pair[1].job is not None)
    read = {check.job for _, check in selected}
    jobs = {name: job for name, job in _jobs(level, workers).items() if name in read}
    with job_queue(jobs) as collect:
        run = _Run(level, jobs, collect)
        results = [_run_check(run, *pair) for pair in selected]
    results.sort(key=lambda result: result.index)
    return Suite(results, run.pool_seconds)


def run_checks(
    level: str = "full", workers: int = 1, names: set[str] | None = None
) -> list[CheckResult]:
    """The results of :func:`run_suite`, in index order."""
    return run_suite(level, workers, names).results


def format_report(results: list[CheckResult], level: str) -> str:
    lines = [f"sheetwalk verification — level={level}"]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{r.index:2d}/{len(_CHECKS)}] {status} {r.name:<{width}}  "
            f"({r.seconds:6.2f}s)  {r.detail}"
        )
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    failed_expected = [
        r.name for r in results if not r.passed and not r.raised and r.name in EXPECTED_RED
    ]
    if failed_expected:
        lines.append(
            "expected-red checks (committed bounds shown unattainable; "
            "README has the analysis): " + ", ".join(failed_expected)
        )
    return "\n".join(lines) + "\n"
