"""In-memory span tracer that wraps sheetwalk's public functions from outside.

Nothing in the package is edited.  While a :class:`Tracer` is installed it
replaces the traced functions in every ``sheetwalk`` module namespace that
holds them (``from .walkstats import sweep_grid`` makes a second reference
in ``mcharness`` and ``checks``), plus ``RademacherField.row_signs`` on the
class, and puts the originals back on exit.

A span is (name, start, end, parent, operation id, size).  ``size`` is the
work the call was asked for: cells for ``row_signs``, the grid edge for
``sweep_grid``, draws for ``signed_binomial_batch``.  Spans live in flat
typed arrays so a few million of them stay under ~100 MB; they are written
once, at the end, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np

from sheetwalk import checks, cli, exactprob, mcharness, randfield, walkstats

MODULES = (randfield, walkstats, mcharness, exactprob, checks, cli)

ROW = "walkstats.iter_partial_rows.row"  # one yielded row; size = cells folded
ROWS = "walkstats.iter_partial_rows"  # generator lifetime; not on the stack


def _n_arg(_field, n, *args, **kwargs):
    return n


# (module, attribute, span name, size of the call)
_TRACED = (
    (randfield, "signed_binomial_batch", "randfield.signed_binomial_batch",
     lambda key, counts: len(counts)),
    (walkstats, "sweep_grid", "walkstats.sweep_grid", _n_arg),
    (walkstats, "decomposition_audit", "walkstats.decomposition_audit", _n_arg),
    (walkstats, "diag_zero_count", "walkstats.diag_zero_count",
     lambda key, n: n // 2),
    (walkstats, "twin_zero_count", "walkstats.twin_zero_count",
     lambda field, eps, n, radius: n),
    (walkstats, "annulus_zero_check", "walkstats.annulus_zero_check",
     lambda field, eps, n: n),
    (walkstats, "brute_force_bundle", "walkstats.brute_force_bundle", _n_arg),
    (mcharness, "delta_log_law_report", "mcharness.delta_log_law_report", None),
    (mcharness, "estimate_exponent", "mcharness.estimate_exponent", None),
    (exactprob, "gamma_mean_exact", "exactprob.gamma_mean_exact", None),
    (exactprob, "delta_var_exact", "exactprob.delta_var_exact", None),
    (exactprob, "delta_mean_exact", "exactprob.delta_mean_exact", None),
    (exactprob, "antidiag_mean_exact", "exactprob.antidiag_mean_exact", None),
    (exactprob, "hit_constant_estimate", "exactprob.hit_constant_estimate", None),
)


class Tracer:
    """Records spans while installed; ``full=False`` times only ``run_experiment``."""

    def __init__(self, full: bool = True) -> None:
        self.full = full
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.op_id = 0  # set by the caller before each operation
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str, size: int = 0, parent: int | None = None,
             push: bool = True) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if parent is None else parent)
        self.op.append(self.op_id)
        self.size.append(size)
        self.end.append(0)
        if push:
            self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, pop: bool = True) -> None:
        self.end[sid] = time.perf_counter_ns()
        if pop:
            self._stack.pop()

    def call(self, name: str, fn, *args):
        sid = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def _wrap(self, name: str, fn, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name, size_of(*args, **kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def _wrap_rows(self, fn):
        # a generator: time each next() separately, because the consumer's
        # own work (the reduction in sweep_grid) runs between yields
        @functools.wraps(fn)
        def traced(field, N):
            rows = fn(field, N)
            life = self.open(ROWS, N, push=False)
            try:
                while True:
                    sid = self.open(ROW, N, parent=life)
                    try:
                        item = next(rows)
                    except StopIteration:
                        self.size[sid] = 0
                        return
                    finally:
                        self.close(sid)
                    yield item
            finally:
                self.close(life, pop=False)

        return traced

    # ------------------------------------------------------------- patching

    def _replace(self, original, replacement) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        try:
            self._replace(
                mcharness.run_experiment,
                self._wrap("mcharness.run_experiment", mcharness.run_experiment,
                           lambda config: config.workers),
            )
            if self.full:
                for module, attr, name, size_of in _TRACED:
                    original = getattr(module, attr)
                    self._replace(original, self._wrap(name, original, size_of))
                self._replace(
                    walkstats.iter_partial_rows,
                    self._wrap_rows(walkstats.iter_partial_rows),
                )
                row_signs = randfield.RademacherField.row_signs
                self._undo.append((randfield.RademacherField, "row_signs", row_signs))
                randfield.RademacherField.row_signs = self._wrap(
                    "randfield.row_signs", row_signs, lambda field, i, count: count
                )
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    # ------------------------------------------------------------- reading

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


class SpanTable:
    """Read-side view of a tracer's spans: sums and self times by name."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.columns()
        ids = {name: i for i, name in enumerate(tracer.names)}
        self._name = cols["name"]
        self._ids = ids
        self.parent = cols["parent"]
        self.size = cols["size"]
        self.dur = cols["end_ns"] - cols["start_ns"]

    def mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(self._name.shape, dtype=bool)
        return self._name == nid

    def under(self, child: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Spans in ``child`` whose parent span is in ``parent``."""
        has_parent = self.parent >= 0
        out = np.zeros_like(child)
        out[has_parent] = parent[self.parent[has_parent]]
        return child & out

    def ns(self, mask: np.ndarray) -> int:
        return int(self.dur[mask].sum())

    def work(self, mask: np.ndarray) -> int:
        return int(self.size[mask].sum())
