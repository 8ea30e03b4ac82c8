"""The four benchmark workloads and the checks on their outputs.

A workload is a fixed list of operations run one after another (closed
loop, one client).  Each operation calls the package's public API
in-process: ``cli.main`` for ``simulate`` and ``exact``, and
``checks.run_checks`` for the verify gate.  The workload seed reaches the
program only as ``simulate --seed``; the closed-form tables and the checks
carry no seed of their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from sheetwalk import checks, cli
from sheetwalk.randfield import RademacherField, Seed, StreamKey
from sheetwalk.walkstats import diag_zero_count, sweep_grid

DEFAULT_SEED = 0  # the seed the sha256 pins below were taken at

_BUNDLE_ATTR = {"gamma": "gamma", "z-crossings": "z_crossings"}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def recompute_summary(raw: bytes) -> bytes:
    """Rebuild ``summary.csv`` from ``raw.csv`` with the file contract's formulas."""
    lines = raw.decode("utf-8").splitlines()
    if lines[0] != cli.RAW_HEADER:
        raise ValueError(f"raw.csv header {lines[0]!r}")
    groups: dict[int, list[float]] = {}
    for line in lines[1:]:
        n, _, value = line.split(",")
        groups.setdefault(int(n), []).append(float(value))
    rows = [cli.SUMMARY_HEADER]
    for n, vals in groups.items():
        v = np.asarray(vals, dtype=np.float64)
        var = float(np.var(v, ddof=1)) if v.size > 1 else 0.0
        rows.append(",".join([
            str(n), str(v.size), repr(float(v.mean())), repr(var),
            repr(math.sqrt(var / v.size)), repr(float(v.min())), repr(float(v.max())),
        ]))
    return ("\n".join(rows) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Simulate:
    """``sheetwalk simulate``; writes ``raw.csv`` and ``summary.csv``."""

    stat: str
    sizes: tuple[int, ...]
    reps: int
    span = "cli.simulate"

    @property
    def label(self) -> str:
        return f"simulate {self.stat} {','.join(map(str, self.sizes))} x{self.reps}"

    @property
    def requested_cells(self) -> int:
        # lattice cells asked for, whether or not the statistic sweeps them
        return self.reps * sum(n * n for n in self.sizes)

    @property
    def needed_cells(self) -> int:
        # nested sizes share one prefix-consistent field, so one sweep at the
        # largest edge per replicate covers every size; delta-fast sweeps none
        if self.stat not in _BUNDLE_ATTR:
            return 0
        return self.reps * max(self.sizes) ** 2

    def execute(self, seed: int, workers: int, out: Path):
        return _run_cli([
            "simulate", "--stat", self.stat,
            "--sizes", ",".join(map(str, self.sizes)), "--reps", str(self.reps),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out),
        ])

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {name: (out / name).read_bytes() for name in ("raw.csv", "summary.csv")}

    def _expected_value(self, seed: int, r: int, n: int) -> float:
        key = StreamKey(Seed(seed), r)
        if self.stat == "delta-fast":
            return float(diag_zero_count(key, n))
        return float(getattr(sweep_grid(RademacherField(key), n), _BUNDLE_ATTR[self.stat]))

    def problems(self, result, files: dict[str, bytes], seed: int) -> list[str]:
        code, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        found = []
        raw, summary = files["raw.csv"], files["summary.csv"]
        rows = raw.decode("utf-8").splitlines()[1:]
        want_keys = [(n, r) for n in self.sizes for r in range(self.reps)]
        got_keys = [(int(a), int(b)) for a, b, _ in (row.split(",") for row in rows)]
        if got_keys != want_keys:
            found.append("raw.csv rows are not one per (size, replicate) in order")
        elif recompute_summary(raw) != summary:
            found.append("summary.csv does not recompute from raw.csv")
        else:
            values = {key: float(row.split(",")[2]) for key, row in zip(got_keys, rows)}
            for r in sorted({0, self.reps // 2, self.reps - 1}):  # serial recompute
                for n in self.sizes:
                    if values[(n, r)] != self._expected_value(seed, r, n):
                        found.append(f"raw value N={n} r={r} differs from a serial recompute")
        pins = SIMULATE_PINS.get(self.label)
        if seed == DEFAULT_SEED and pins is not None:
            for name, digest in pins.items():
                if hashlib.sha256(files[name]).hexdigest() != digest:
                    found.append(f"{name} sha256 differs from the pinned value")
        return found


@dataclass(frozen=True)
class Exact:
    """``sheetwalk exact <target> --n N``; a one-row table pinned byte for byte."""

    target: str
    n: int
    span = "cli.exact"
    requested_cells = 0
    needed_cells = 0

    @property
    def label(self) -> str:
        return f"exact {self.target} {self.n}"

    def execute(self, seed: int, workers: int, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        return _run_cli(["exact", self.target, "--n", str(self.n),
                         "--out", str(out / "table.csv")])

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {"table.csv": (out / "table.csv").read_bytes()}

    def problems(self, result, files: dict[str, bytes], seed: int) -> list[str]:
        code, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        if files["table.csv"] != EXACT_PINS[self.label]:
            return ["table bytes differ from the pinned table"]
        return []


@dataclass(frozen=True)
class Verify:
    """``checks.run_checks(level="full")`` over every check but ``determinism``.

    ``determinism`` forks an 8-process pool; the benchmark checks the same
    property itself by comparing worker-count-2 and worker-count-1 bytes.
    """

    span = "checks.run_checks"
    label = "verify full (12 checks)"
    # Grids the full-level checks ask for: check 7 (N=1024, 50 replicates),
    # check 8 (N=128..1024, 200 replicates; check 9 audits these same grids)
    # and check 10 (50 small oracle grids with edges cycling 5..24).
    _ORACLE = sum((5, 8, 12, 17, 24)[s % 5] ** 2 for s in range(50))
    requested_cells = 50 * 1024**2 + 200 * sum(n * n for n in (128, 256, 512, 1024)) + _ORACLE
    needed_cells = (50 + 200) * 1024**2 + _ORACLE

    @staticmethod
    def names() -> set[str]:
        return set(checks.check_names()) - {"determinism"}

    def execute(self, seed: int, workers: int, out: Path):
        return checks.run_checks(level="full", workers=workers, names=self.names())

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {}

    def problems(self, result, files: dict[str, bytes], seed: int) -> list[str]:
        found = []
        if {r.name for r in result} != self.names():
            found.append("the verify run did not report exactly the 12 checks")
        for r in result:
            if r.detail.startswith("raised "):
                found.append(f"{r.name} crashed: {r.detail}")
            elif r.passed == (r.name in checks.EXPECTED_RED):
                want = "fail" if r.name in checks.EXPECTED_RED else "pass"
                found.append(f"{r.name} should {want}: {r.detail}")
        return found


@dataclass(frozen=True)
class PnRationalProbe:
    """Known defect: ``exact pn --max 10000 --rational`` exits 2 at every max >= 7148.

    Run once per run, untimed, and counted as a failed operation until it
    succeeds with a correct table.
    """

    label = "exact pn --max 10000 --rational"
    known_error = "Exceeds the limit (4300 digits) for integer string conversion"

    def run(self, out: Path) -> tuple[bool, str]:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "pn.csv"
        code, err = _run_cli(["exact", "pn", "--max", "10000", "--rational",
                              "--out", str(path)])
        if code != 0:
            known = "known defect" if self.known_error in err else "NEW failure"
            return False, f"exit {code} ({known}): {err.strip()[:120]}"
        lines = path.read_bytes().split(b"\n")
        if lines[0] != b"n,p" or len(lines) != 10003 or lines[-1] != b"":
            return False, "exit 0 but the table is not 10001 rows"
        for n in (0, 1, 2, 10, 100, 1000):  # rows whose digits fit any int limit
            p = Fraction(math.comb(2 * n, n), 4**n)
            if lines[n + 1] != f"{n},{p.numerator}/{p.denominator}".encode():
                return False, f"exit 0 but row n={n} is wrong"
        return True, "exit 0, table correct"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    probe: PnRationalProbe | None = None

    @property
    def requested_cells(self) -> int:
        return sum(op.requested_cells for op in self.ops)

    @property
    def needed_cells(self) -> int:
        return sum(op.needed_cells for op in self.ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-nested",
            "check 8's production Monte Carlo path (z-crossings, N=128..1024 x200): hash, "
            "fold and reduce per cell dominate; nested sizes sweep 1.33x the cells needed",
            (Simulate("z-crossings", (128, 256, 512, 1024), 200),),
        ),
        Workload(
            "sweep-small",
            "gamma at N=64 x8000: per-row Python overhead dominates (~450 ns/cell vs ~40 "
            "at N=1024); one size, so sharing sweeps across sizes predicts no change",
            (Simulate("gamma", (64,), 8000),),
        ),
        Workload(
            "verify-full",
            "the gate users and tier-1 run: 12 full-level checks; crossing-decomposition "
            "re-sweeps every grid twice, serially, and takes ~70% of the time",
            (Verify(),),
        ),
        Workload(
            "closed-form",
            "exact moment sums plus the Philox delta-fast path; no grid is "
            "swept, so sweep or hash optimisations predict no change here",
            (
                Exact("gamma-mean", 4096),
                Exact("delta-var", 4000),
                Exact("delta-mean", 1_000_000),
                Exact("antidiag-mean", 1_000_000),
                Exact("hit-constant", 200),
                Simulate("delta-fast", (20000,), 2000),
            ),
            probe=PnRationalProbe(),
        ),
    )
}

# sha256 of the simulate outputs at DEFAULT_SEED (any worker count)
SIMULATE_PINS = {
    "simulate z-crossings 128,256,512,1024 x200": {
        "raw.csv": "1b5495a62cac7f30cdf7384d001f81fcdac3d0c1389225306858c9ebc0d20565",
        "summary.csv": "557f5a47ac04db2de22f28c2ddc91a7bc153805a1207e8d9c6c6de0aa33ee5c8",
    },
    "simulate gamma 64 x8000": {
        "raw.csv": "2d12a01d61d8ebeb07ccdaaca0c871a3662fb88fca1bfe6d1dbf3bc23910fa0d",
        "summary.csv": "5b3bed53783e09ff2ac1c0b9791372f765aa0154420c138c108abaf8f35cd846",
    },
    "simulate delta-fast 20000 x2000": {
        "raw.csv": "87d8defb4c9d62b32beb3615e1e485d2e6b503d3a6fd1f088c6f1c79ef9acc3b",
        "summary.csv": "d0bd641892f8395e3b750037eb953d32f025383049ec6fc81f7ed921bc160a65",
    },
}

# exact tables carry no seed, so they are pinned at every seed
EXACT_PINS = {
    "exact gamma-mean 4096": b"N,mean,centered\n4096,9552.18129467865,2.33207551139615\n",
    "exact delta-var 4000": b"N,variance,centered\n4000,4.56371485171044,1.25486777452546\n",
    "exact delta-mean 1000000":
        b"N,mean,centered\n1000000,5.71291763983048,0.20132635292614\n",
    "exact antidiag-mean 1000000":
        b"N,mean,centered\n1000000,1.25166630310814,-0.00164783420735737\n",
    "exact hit-constant 200": b"n_max,estimate\n200,1\n",
}
