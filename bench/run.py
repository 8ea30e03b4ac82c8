#!/usr/bin/env python3
"""sheetwalk benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep-nested --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced passes at ``--workers 2`` and prints the
end-to-end metrics.  ``--trace 1`` runs the same inputs three ways -- at
``--workers 2`` with only ``run_experiment`` timed, at ``--workers 1`` with
every traced layer wrapped, and at ``--workers 1`` untraced -- and prints
the per-layer metrics.  Either way every operation's output is checked, and the
last line of standard output is the JSON result.  Run it from anywhere;
it measures the package under ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS = 2  # pool size of every untraced pass; fixed, so runs compare across machines
SETUP_SAMPLES = 7  # fresh interpreters timed per run for setup_s
RUN_BUDGET_S = 150  # start no further pass past this, to exit well inside 180 s
SWEEP_EDGES = (64, 128, 256, 512, 1024)

KNOWN_GAPS = (
    "twin-zeros, annulus and render have no end-to-end workload; they run only "
    "on tiny grids inside oracle-equivalence (verify-full)",
    "in-program stage timers and manifest telemetry (ROADMAP item 1) are not "
    "there yet; spans are recorded around calls from the benchmark's own files",
    "verify-full's traced run skips the workers=2 pass, so its "
    "mcharness.run_experiment_s.w2 and mcharness.scaling_efficiency read 0",
)

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sheetwalk.cli\n"
    "from sheetwalk import exactprob\n"
    "exactprob.p_float(1)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _import_package():
    if not (SRC / "sheetwalk" / "__init__.py").is_file():
        sys.exit(f"bench: no sheetwalk package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sheetwalk

    if Path(sheetwalk.__file__).resolve().parent != SRC / "sheetwalk":
        sys.exit(f"bench: imported sheetwalk from {sheetwalk.__file__}, not {SRC}")


_import_package()

import numpy as np  # noqa: E402

from sheetwalk import exactprob  # noqa: E402
from spans import ROW, ROWS, SpanTable, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Verify  # noqa: E402


@dataclass
class Pass:
    """One run of every operation of a workload."""

    workers: int
    wall_s: float = 0.0
    results: list = field(default_factory=list)
    files: list[dict[str, bytes]] = field(default_factory=list)
    bytes_written: int = 0


def run_pass(workload, seed: int, workers: int, out: Path,
             tracer: Tracer | None = None) -> Pass:
    p = Pass(workers)
    start = time.perf_counter()
    for index, op in enumerate(workload.ops):
        op_out = out / f"op{index}"
        if tracer is None:
            p.results.append(op.execute(seed, workers, op_out))
        else:
            tracer.op_id = index
            p.results.append(tracer.call(op.span, op.execute, seed, workers, op_out))
    p.wall_s = time.perf_counter() - start
    for index, op in enumerate(workload.ops):
        op_out = out / f"op{index}"
        p.files.append(op.outputs(op_out) if op_out.exists() else {})
        if op_out.exists():
            p.bytes_written += sum(f.stat().st_size for f in op_out.iterdir())
    return p


def check_passes(workload, seed: int, passes: list[Pass]) -> dict[tuple[int, int], list[str]]:
    """Problems per (pass, operation): the operation's own checks, plus
    identical bytes to pass 0, which may have run at another worker count."""
    problems = {}
    for k, p in enumerate(passes):
        for i, (op, result, files) in enumerate(zip(workload.ops, p.results, p.files)):
            found = op.problems(result, files, seed)
            if files != passes[0].files[i]:
                found.append(f"wrote other bytes than pass 0 (workers={passes[0].workers})")
            if found:
                problems[(k, i)] = [f"pass {k} {op.label} workers={p.workers}: {msg}"
                                    for msg in found]
    return problems


def setup_seconds() -> list[float]:
    """Fresh-interpreter time to import ``sheetwalk.cli`` and make a first ``p_float`` call."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):  # the first one warms the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ------------------------------------------------------------ environment


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict[str, str]:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        head = _read(ROOT / ".git" / head[5:])
    return {
        "cpu": cpu,
        "nproc": str(len(os.sched_getaffinity(0))),
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": head or "unknown (checkout is not a git repository)",
    }


# ---------------------------------------------------------------- metrics


def end_to_end(workload, seed: int, seconds: float, out: Path):
    started = time.perf_counter()
    passes: list[Pass] = []
    while True:  # as many whole passes as fit in `seconds`, and at least one
        passes.append(run_pass(workload, seed, WORKERS, out / f"pass{len(passes)}"))
        timed = sum(p.wall_s for p in passes)
        next_pass = timed / len(passes)
        spent = time.perf_counter() - started
        if timed + next_pass > seconds or spent + next_pass + 5 > RUN_BUDGET_S:
            break
    rss = peak_rss_mb()  # before the setup interpreters join RUSAGE_CHILDREN
    setup = setup_seconds()
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (workload.requested_cells / wall, "cells/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"passes: {len(passes)} at workers={WORKERS}, wall_s each "
        + ", ".join(f"{p.wall_s:.3f}" for p in passes),
        "setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup),
    ]
    return passes, metrics, notes


def _ns_per(ns: int, work: int) -> float:
    return ns / work if work else 0.0


def per_layer(workload, seed: int, out: Path):
    started = time.perf_counter()
    w2 = w1 = t2 = t1 = None
    if not isinstance(workload.ops[0], Verify):  # verify-full would overrun 180 s
        t2 = Tracer(full=False)
        with t2.installed():
            w2 = run_pass(workload, seed, WORKERS, out / "w2", t2)
    tt = Tracer(full=True)
    with tt.installed():
        traced = run_pass(workload, seed, 1, out / "traced", tt)
        tt.op_id = len(workload.ops)
        tt.call("exactprob.ReturnProbTable.build", exactprob.ReturnProbTable.build)
    # the untraced workers=1 pass only sets trace_overhead_ratio and t1, so it
    # is the one dropped when a slow machine would push the run past 180 s
    if time.perf_counter() - started + traced.wall_s + 5 <= RUN_BUDGET_S:
        t1 = Tracer(full=False)
        with t1.installed():
            w1 = run_pass(workload, seed, 1, out / "w1", t1)
    passes = [p for p in (w2, traced, w1) if p is not None]

    s = SpanTable(tt)
    rs, row, rows = s.mask("randfield.row_signs"), s.mask(ROW), s.mask(ROWS)
    sweep, sbb = s.mask("walkstats.sweep_grid"), s.mask("randfield.signed_binomial_batch")
    diag = s.mask("walkstats.diag_zero_count")
    rows_in_sweep = s.under(row, s.under(rows, sweep))
    fold_ns = s.ns(row) - s.ns(s.under(rs, row))
    swept = s.work(row)
    m: dict[str, tuple[float, str]] = {
        "randfield.hash_ns_per_cell": (_ns_per(s.ns(rs), s.work(rs)), "ns/cell"),
        "randfield.row_signs_calls": (int(rs.sum()), "count"),
        "randfield.binomial_ns_per_draw": (_ns_per(s.ns(sbb), s.work(sbb)), "ns/draw"),
        "randfield.philox_draws": (s.work(sbb), "count"),
        "walkstats.fold_ns_per_cell": (_ns_per(fold_ns, swept), "ns/cell"),
        "walkstats.reduce_ns_per_cell": (
            _ns_per(s.ns(sweep) - s.ns(rows_in_sweep), int((s.size[sweep] ** 2).sum())),
            "ns/cell",
        ),
    }
    for edge in SWEEP_EDGES:
        at = sweep & (s.size == edge)
        m[f"walkstats.sweep_ns_per_cell.N{edge}"] = (
            _ns_per(s.ns(at), int(at.sum()) * edge * edge), "ns/cell")
    diag_s = s.ns(diag) / 1e9
    m.update({
        "walkstats.sweeps": (int(sweep.sum()), "count"),
        "walkstats.cells_swept": (swept, "count"),
        "walkstats.cells_swept_ratio": (
            swept / workload.needed_cells if workload.needed_cells else 0.0, "ratio"),
        "walkstats.audit_s": (s.ns(s.mask("walkstats.decomposition_audit")) / 1e9, "s"),
        "walkstats.diag_draws_per_s": (s.work(diag) / diag_s if diag_s else 0.0, "1/s"),
    })
    harness = "mcharness.run_experiment"

    def harness_s(tracer: Tracer) -> float:
        table = SpanTable(tracer)
        return table.ns(table.mask(harness)) / 1e9

    t1_s = harness_s(t1) if w1 else 0.0
    t2_s = harness_s(t2) if w2 else 0.0
    m.update({
        "mcharness.run_experiment_s.w1": (t1_s, "s"),
        "mcharness.run_experiment_s.w2": (t2_s, "s"),
        "mcharness.scaling_efficiency": (t1_s / (2 * t2_s) if t2_s else 0.0, "ratio"),
        "exactprob.table_build_s": (s.ns(s.mask("exactprob.ReturnProbTable.build")) / 1e9, "s"),
    })
    for short in ("gamma_mean", "delta_var", "delta_mean", "antidiag_mean"):
        m[f"exactprob.{short}_s"] = (s.ns(s.mask(f"exactprob.{short}_exact")) / 1e9, "s")
    m["exactprob.hit_constant_s"] = (
        s.ns(s.mask("exactprob.hit_constant_estimate")) / 1e9, "s")
    m["exactprob.gamma_mean_calls"] = (int(s.mask("exactprob.gamma_mean_exact").sum()), "count")
    checks_by_name = {}
    for op, result in zip(workload.ops, traced.results):
        if isinstance(op, Verify):
            checks_by_name = {r.name: r.seconds for r in result}
    for name in sorted(Verify.names()):
        m[f"checks.{name}.s"] = (checks_by_name.get(name, 0.0), "s")
    cli_sim = s.mask("cli.simulate")
    m.update({
        "cli.simulate_overhead_s": (
            (s.ns(cli_sim) - s.ns(s.under(s.mask(harness), cli_sim))) / 1e9, "s"),
        "cli.bytes_written": (traced.bytes_written, "bytes"),
        "trace_overhead_ratio": (traced.wall_s / w1.wall_s if w1 else 0.0, "ratio"),
        "work.requested_cells": (workload.requested_cells, "count"),
        "work.needed_cells": (workload.needed_cells, "count"),
    })
    trace_path = out.parent / f"trace-{workload.name}.npz"  # the latest traced run
    tt.save(trace_path)
    walls = [f"workers={p.workers} {label} {p.wall_s:.3f} s" for p, label in
             ((w2, "untraced"), (traced, "traced"), (w1, "untraced")) if p]
    if w1 is None:
        walls.append("workers=1 untraced pass skipped to stay inside 180 s: "
                     "trace_overhead_ratio and mcharness.run_experiment_s.w1 read 0")
    notes = [
        "passes: " + "; ".join(walls),
        f"spans: {len(tt.start)} written to {trace_path.relative_to(ROOT)}",
    ]
    return passes, m, notes


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    out_root = ROOT / ".bench_out"
    out = out_root / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        exactprob.p_float(0)  # build the p(n) table outside the timed passes; setup_s times it
        if args.trace:
            passes, metrics, notes = per_layer(workload, args.seed, out)
        else:
            passes, metrics, notes = end_to_end(workload, args.seed, args.seconds, out)
        problems = check_passes(workload, args.seed, passes)
        # untimed, once per run: a later fix must not read as a slowdown
        probe = workload.probe.run(out / "probe") if workload.probe else None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    attempted, failed = len(workload.ops) * len(passes), len(problems)
    probe_failed = int(probe is not None and not probe[0])
    all_attempted = attempted + (probe is not None)
    all_failed = failed + probe_failed
    if args.trace:
        metrics.update({
            "fail_ratio": (all_failed / all_attempted, "ratio"),
            "ops_attempted": (all_attempted, "count"),
            "ops_failed": (all_failed, "count"),
            "probe.pn_rational_failed": (probe_failed, "count"),
        })

    print(f"sheetwalk benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"why: {workload.why}")
    print("operations: " + "; ".join(op.label for op in workload.ops))
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment().items()))
    for note in notes:
        print(note)
    print(f"timed operations: attempted {attempted}, failed {failed}")
    if probe is not None:
        print(f"known-defect probe {workload.probe.label} (untimed): "
              f"{'ok' if probe[0] else 'FAILED'}: {probe[1]}")
    print(f"fail_ratio (probe included): {all_failed}/{all_attempted}")
    for msgs in problems.values():
        for msg in msgs:
            print(f"OUTPUT CHECK FAILED: {msg}")
    for gap in KNOWN_GAPS:
        print(f"known gap: {gap}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
