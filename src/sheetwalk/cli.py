"""Command-line front end.

Five subcommands: ``exact`` (closed-form tables), ``simulate`` (Monte
Carlo runs to CSV), ``estimate`` (log-log slope fits of summary means),
``render`` (zero-set images), ``verify`` (the acceptance-check suite).

Exit codes are part of the contract: 0 success, 1 verification failure,
2 usage/validation, 3 capacity, 4 I/O.  Every table and report goes
through :func:`_destination`: stdout without ``--out``, else a temporary
file renamed over the target once complete.  ``render`` writes the PGM
bytes of :func:`~sheetwalk.walkstats.render_zero_set` the same atomic way.  A run's manifest
is written last, so a manifest's existence certifies complete outputs.
Reals are serialized with shortest round-trip ``repr``; the ``exact``
tables use 15 significant digits, with exact numerator/denominator
available under ``--rational``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import decimal
import itertools
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from . import exactprob
from .exactprob import CapacityError
from .randfield import RademacherField, Seed, StreamKey, as_int

# the value of each command-line statistic's mcharness.Statistic; mcharness
# and walkstats are imported by the commands that use them, so `exact` loads neither
_STAT_NAMES = {
    "gamma": "gamma",
    "gamma-prime": "gamma_prime",
    "z-crossings": "z_crossings",
    "delta": "delta",
    "delta-fast": "delta_fastpath",
    "antidiag": "d_antidiag",
    "twin-zeros": "twin_zeros",
    "annulus": "annulus",
}

RAW_HEADER = "N,replicate,value"
SUMMARY_HEADER = "N,M,mean,variance,stderr,min,max"


def _fmt15(x: float) -> str:
    return "%.15g" % x


def _fractions(pairs: Iterable[tuple[decimal.Decimal, int]]) -> Iterator[str]:
    """``num/2**exp`` in decimal digits for each ``(num, exp)`` of ``pairs``.

    The numerators come as exact ``Decimal`` integers, and the denominator
    is carried as one too: each row multiplies the one before by
    ``2**(exp - previous exp)`` in :data:`~sheetwalk.exactprob.EXACT_DECIMAL`.
    So no digit is converted from binary, which cost far more than the
    carry, and no int passes through ``str``, which refuses more than 4300
    digits by default (a numerator passes that at n = 7148).
    """
    den, last = decimal.Decimal(1), 0
    for num, exp in pairs:
        den, last = exactprob.EXACT_DECIMAL.multiply(den, 1 << (exp - last)), exp
        yield f"{num}/{den}"


@contextlib.contextmanager
def _atomic_file(path: Path | str, mode: str = "wb", **kwargs):
    """A handle on a temporary file that replaces ``path`` once the block completes.

    ``mode`` and ``kwargs`` go to :func:`open`.  If the block raises, the
    temporary file is removed and ``path`` is left as it was.  A directory
    that cannot take the temporary file raises an ``OSError`` naming
    ``path``.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    except OSError as exc:  # name the target, not the temporary file that was never made
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, mode, **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _destination(target: Path | str | None):
    """A text handle on ``target``, replaced atomically on success, or else on stdout."""
    if target:
        return _atomic_file(target, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _write_csv(target: Path | str | None, header: str, rows: Iterable) -> None:
    """Write ``header`` and ``rows`` to ``target`` through :func:`_destination`.

    Each row is written as it is formatted, so ``rows`` may be a generator
    and the table is never held in memory whole.  Every field is a number
    or a fraction of digits, which needs no quoting, so fields are joined
    with commas as they stand: ``csv.writer`` took 1.1 s to scan the 60 MB
    of ``exact pn --rational`` digits for characters to quote.
    """
    with _destination(target) as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_json(target: Path | str | None, payload: dict) -> None:
    """Write ``payload`` to ``target`` through :func:`_destination`, indented, keys sorted."""
    with _destination(target) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _new_directory(path: Path):
    """Make ``path`` and its missing parents; if the block raises, remove the ones it made.

    Only an empty directory is removed, and one that existed before is
    left as it was.
    """
    missing = [p for p in (path, *path.parents) if not p.exists()]  # deepest first
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for made in missing:
            with contextlib.suppress(OSError):  # not empty: a run wrote into it
                made.rmdir()
        raise


@contextlib.contextmanager
def _directory_lock(outdir: Path):
    # advisory: concurrent runs against one directory would interleave files
    lock = outdir / ".sheetwalk.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OSError(
            f"output directory is locked by another run (remove {lock} if stale)"
        ) from None
    try:
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock)


def _output_entry(path: Path) -> dict:
    """The manifest entry of an output: its name, size and sha256, read in
    64 KiB chunks so the file is never held whole."""
    import hashlib  # here, its one user, so a run that writes no manifest never loads it

    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as handle:
        while chunk := handle.read(2**16):
            digest.update(chunk)
            size += len(chunk)
    return {"name": path.name, "bytes": size, "sha256": digest.hexdigest()}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _resolve_workers(flag: int | None) -> int:
    # env overrides the default; an explicit flag wins over both
    if flag is not None:
        return as_int("workers", flag, 1)
    env = os.environ.get("WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"WORKERS must be an integer, got {env!r}") from None
        return as_int("WORKERS", value, 1)
    from .mcharness import usable_cpus

    return usable_cpus()


# ---------------------------------------------------------------- exact


def cmd_exact(args: argparse.Namespace) -> int:
    target = args.target
    if target in ("delta-mean", "delta-var", "gamma-mean") and args.n < 1:
        # their centered column takes ln N or divides by N
        raise ValueError(f"--n must be >= 1 for {target}, got {args.n}")
    if target == "pn":
        as_int("--max", args.max, 0)
        if args.max > exactprob.EXACT_CEILING:
            raise CapacityError(
                f"exact values stop at n={exactprob.EXACT_CEILING}, got --max {args.max}"
            )
        if args.rational:
            pairs = exactprob.dyadic_pairs(decimal_numerators=True)
            rows = enumerate(_fractions(itertools.islice(pairs, args.max + 1)))
        else:
            floats = exactprob._table().float_values[: args.max + 1].tolist()
            rows = ((n, _fmt15(p)) for n, p in enumerate(floats))
        _write_csv(args.out, "n,p", rows)
    elif target == "hit-constant":
        estimate = exactprob.hit_constant_estimate(args.n)
        _write_csv(args.out, "n_max,estimate", [(args.n, _fmt15(estimate))])
    else:  # a moment and its centered form
        n, column = args.n, "mean"
        if target == "delta-mean":
            value = exactprob.delta_mean_exact(n)
            centered = value - exactprob.DIAG_LOG_COEFF * math.log(n)
        elif target == "delta-var":
            column, value = "variance", exactprob.delta_var_exact(n)
            centered = value - exactprob.DIAG_LOG_COEFF * math.log(n)
        elif target == "gamma-mean":
            value = exactprob.gamma_mean_exact(n)
            centered = value / n  # per-column mean
        else:  # antidiag-mean
            value = exactprob.antidiag_mean_exact(n)
            centered = value - math.sqrt(math.pi / 2)  # gap to the limiting constant
        _write_csv(args.out, f"N,{column},centered", [(n, _fmt15(value), _fmt15(centered))])
    return 0


# ------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import mcharness

    sizes = tuple(int(part) for part in args.sizes.split(","))
    workers = _resolve_workers(args.workers)
    config = mcharness.ExperimentConfig(
        statistic=mcharness.Statistic(_STAT_NAMES[args.stat]),
        sizes=sizes,
        replicates=args.reps,
        seed=Seed(args.seed),
        workers=workers,
        eps=args.eps,
        radius=args.radius,
    )
    outdir = Path(args.out)
    started = _now()
    with _new_directory(outdir), _directory_lock(outdir):
        result = mcharness.run_experiment(config)
        raw_rows = (
            (n, r, repr(float(result.values[n][r])))
            for n in sizes
            for r in range(config.replicates)
        )
        raw_path = outdir / "raw.csv"
        _write_csv(raw_path, RAW_HEADER, raw_rows)
        summary_rows = []
        for n in sizes:
            s = result.summaries[n]
            summary_rows.append(
                (
                    n,
                    s.count,
                    repr(s.mean),
                    repr(s.variance),
                    repr(s.stderr),
                    repr(s.minimum),
                    repr(s.maximum),
                )
            )
        summary_path = outdir / "summary.csv"
        _write_csv(summary_path, SUMMARY_HEADER, summary_rows)
        manifest = {  # provenance of the run; always the last file written
            "version": __version__,
            "command": "simulate",
            "config": {
                "statistic": args.stat,
                "sizes": list(sizes),
                "replicates": config.replicates,
                "eps": config.eps,
                "radius": config.radius,
            },
            "seed": int(config.seed),
            "workers": workers,
            "started": started,
            "finished": _now(),
            "outputs": [_output_entry(raw_path), _output_entry(summary_path)],
        }
        _write_json(outdir / "manifest.json", manifest)
    return 0


# ------------------------------------------------------------- estimate


def cmd_estimate(args: argparse.Namespace) -> int:
    from .mcharness import estimate_exponent

    path = Path(args.summary)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SUMMARY_HEADER.split(","):
            raise ValueError(
                f"{path}: expected header {SUMMARY_HEADER!r}, got {header}"
            )
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            rows.append((int(row[0]), float(row[2])))
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two summary rows, got {len(rows)}")
    sizes = np.array([n for n, _ in rows], dtype=np.float64)
    means = np.array([m for _, m in rows], dtype=np.float64)
    fit = estimate_exponent(sizes, means, drop_below=args.drop_below)
    keep = [i for i, n in enumerate(sizes) if int(n) in fit.points_used]
    residuals = []
    for i in keep:
        log_mean = math.log(means[i])
        fitted = fit.intercept + fit.slope * math.log(sizes[i])
        residuals.append(
            {
                "N": int(sizes[i]),
                "log_mean": log_mean,
                "fitted": fitted,
                "residual": log_mean - fitted,
            }
        )
    report = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.stderr,
        "points_used": list(fit.points_used),
        "residuals": residuals,
    }
    _write_json(args.out, report)
    return 0


# --------------------------------------------------------------- render


def cmd_render(args: argparse.Namespace) -> int:
    from .walkstats import render_zero_set

    field = RademacherField(StreamKey(Seed(args.seed), 0))
    pgm = render_zero_set(field, args.n)
    with _atomic_file(args.out) as handle:
        handle.write(pgm)
    return 0


# --------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    import platform  # deferred with checks: no other command needs either

    from . import checks
    from .mcharness import usable_cpus

    workers = _resolve_workers(args.workers)
    suite = checks.run_suite(level=args.level, workers=workers)
    results = suite.results
    sys.stdout.write(checks.format_report(results, level=args.level))
    if args.out:
        payload = {
            "level": args.level,
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    # checks 6-9 read the run's pool: with one, this is their wait
                    "seconds": round(r.seconds, 3),
                    "detail": r.detail,
                }
                for r in results
            ],
            # per job on the run's pool, its tasks' wall and CPU seconds in the
            # pool processes, summed
            "pool": {
                job: {"seconds": round(sum(walls), 3), "cpu_seconds": round(sum(cpus), 3),
                      "tasks": len(walls)}
                for job, (walls, cpus) in suite.pool.items()
            },
            "environment": {
                "cpu_count": os.cpu_count(),
                "numpy": np.__version__,
                "python": platform.python_version(),
                "usable_cpus": usable_cpus(),  # the default worker count follows it
                "workers": workers,
            },
        }
        _write_json(args.out, payload)
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetwalk",
        description="Simulate two-parameter sign surfaces and check their "
        "zero-set statistics against exact closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="print closed-form tables as CSV")
    exact_sub = p_exact.add_subparsers(dest="target", required=True)
    p_pn = exact_sub.add_parser("pn", help="return probabilities p(0..max)")
    p_pn.add_argument("--max", type=int, required=True)
    p_pn.add_argument(
        "--rational", action="store_true", help="exact numerator/denominator column"
    )
    p_pn.add_argument("--out")
    for name, helptext in [
        ("delta-mean", "expected diagonal zero count"),
        ("delta-var", "variance of the diagonal zero count"),
        ("gamma-mean", "expected grid zero count"),
        ("antidiag-mean", "expected anti-diagonal zero count"),
        ("hit-constant", "conditional hitting-probability floor"),
    ]:
        p_t = exact_sub.add_parser(name, help=helptext)
        p_t.add_argument("--n", type=int, required=True)
        p_t.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiment to CSV files")
    p_sim.add_argument("--stat", choices=sorted(_STAT_NAMES), required=True)
    p_sim.add_argument("--sizes", required=True, help="comma-separated grid edges")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--eps", type=float, default=0.25)
    p_sim.add_argument("--radius", type=int, default=8)
    p_sim.add_argument("--out", default=".", help="output directory")

    p_est = sub.add_parser("estimate", help="log-log slope fit of summary means")
    p_est.add_argument("--summary", required=True, help="summary CSV from simulate")
    p_est.add_argument("--drop-below", type=int, default=None)
    p_est.add_argument("--out")

    p_rend = sub.add_parser("render", help="zero-set image as binary PGM")
    p_rend.add_argument("--seed", type=int, default=0)
    p_rend.add_argument("--n", type=int, required=True)
    p_rend.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the acceptance-check suite")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--workers", type=int, default=None)
    p_ver.add_argument("--out", help="also write a JSON report")

    return parser


_DISPATCH = {
    "exact": cmd_exact,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "render": cmd_render,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except CapacityError as exc:
        print(f"sheetwalk: capacity: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"sheetwalk: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sheetwalk: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
