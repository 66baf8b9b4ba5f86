"""Span recording around the public functions of the d2dcap modules.

`instrument` swaps each traced function for a wrapper, at the name the
caller looks up, and restores the originals on exit; nothing under `src/`
changes.  `propagation` gets no spans: its calls are sub-microsecond leaf
arithmetic whose cost shows as self time in the layers that call it.

Spans live in memory (`SpanRecorder.spans`) and are written out between
passes, never inside a timed one.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

from d2dcap import bounds, cli, guard, hexpack, mcsim

# Densities at or below SPARSE_MAX and at or above DENSE_MIN (per m^2) feed
# the sparse and dense per-trial medians of run_ppp_trial.
SPARSE_MAX = 1.2e-4
DENSE_MIN = 5.0e-4
_MIB = 1024.0 * 1024.0


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    cpu: float  # thread CPU time: the reading at open until close
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    """Thread-safe span store.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with nothing open on that thread takes as parent the
    innermost span open on the main thread (the thread that created the
    recorder), so trials run by `--threads N` stay children of
    `cli.cmd_simulate`.  The runner sets `op` before each operation.
    """

    def __init__(self):
        self.densest: list[tuple] = []  # run_ppp_trial args at the top density
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self.spans: list[Span] = []
        self.op = -1

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            stack.append(span_id)
        span = Span(span_id, name, parent, self.op, threading.get_ident(), time.thread_time())
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        stack = self._stack()
        with self._lock:
            stack.pop()
            self.spans.append(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recorded as span `name`; hooks may fill the span's attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if before is not None:
                    before(span, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                self.close(span)

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _count_disks(span, args):
    span.attrs["disks"] = args[0].n_total


def _record_pairs(span, result):
    span.attrs["pairs"] = result.n_pairs


def ppp_peak_alloc_mib(calls) -> float:
    """Peak traced allocation (MiB) over re-runs of the given trial calls.

    tracemalloc slows the pairing loop several times over, so it runs here,
    after the timed passes, on the densest trials rather than inside them.
    """
    peak = 0
    for args in calls:
        tracemalloc.start()
        try:
            mcsim.run_ppp_trial(*args)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / _MIB


def _targets(rec: SpanRecorder):
    """(namespace, attribute, wrapper) for every traced call site."""

    def keep_densest(span, args):
        density = span.attrs["density"] = args[0].density
        top = rec.densest[0][0].density if rec.densest else 0.0
        if density > top:
            rec.densest = [args]
        elif density == top:
            rec.densest.append(args)

    hooks = {
        "hexpack.bs_interference": {"before": _count_disks},
        "mcsim.run_saturation_trial": {"after": _record_pairs},
        "mcsim.run_ppp_trial": {"before": keep_densest, "after": _record_pairs},
    }
    sites = [  # (namespace, attribute, span name)
        (cli, "load_scenario", "scenario.load_scenario"),
        (guard, "guard_report", "guard.guard_report"),
        (guard, "guard_distances", "guard.guard_distances"),
        (guard, "solve_gd", "guard.solve_gd"),
        (guard, "solve_gb", "guard.solve_gb"),
        (hexpack, "build_layout", "hexpack.build_layout"),
        (hexpack, "bs_interference", "hexpack.bs_interference"),
        (hexpack, "first_layer_neighbors", "hexpack.first_layer_neighbors"),
        (bounds, "deployable_area", "bounds.deployable_area"),
        # bounds calls the name it imported, so that is the one to wrap
        (bounds, "intersection_area", "geometry.intersection_area"),
        (mcsim, "run_saturation_trial", "mcsim.run_saturation_trial"),
        (mcsim, "run_ppp_trial", "mcsim.run_ppp_trial"),
        (mcsim, "evaluate_sir", "mcsim.evaluate_sir"),
    ] + [(cli, f"cmd_{c}", f"cli.cmd_{c}") for c in ("guard", "bounds", "sweep", "simulate")]
    # main dispatches through a table that holds the public cmd_* functions
    table = getattr(cli, "_COMMANDS", {})
    targets = []
    for where, attr, name in sites:
        original = getattr(where, attr)
        wrapper = rec.wrap(name, original, **hooks.get(name, {}))
        targets.append((where, attr, wrapper))
        targets += [(table, key, wrapper) for key, fn in table.items() if fn is original]
    return targets


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Route the traced call sites through `rec` for the duration."""
    saved = []
    try:
        for where, name, wrapper in _targets(rec):
            if isinstance(where, dict):
                saved.append((where, name, where[name]))
                where[name] = wrapper
            else:
                saved.append((where, name, getattr(where, name)))
                setattr(where, name, wrapper)
        yield
    finally:
        for where, name, original in reversed(saved):
            if isinstance(where, dict):
                where[name] = original
            else:
                setattr(where, name, original)


def _union(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union((a, b) for a, b in kids if b > a)
    return out


@dataclass
class PassTotals:
    """Per-name totals of one traced pass."""

    calls: dict[str, int]
    busy: dict[str, float]
    self_s: dict[str, float]
    cpu: dict[str, float]
    layouts_in_gb: int
    disks: int
    pairs: int
    ppp_sparse: list[float]
    ppp_dense: list[float]


def pass_totals(spans: list[Span]) -> PassTotals:
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}
    t = PassTotals({}, {}, {}, {}, 0, 0, 0, [], [])
    for s in spans:
        t.calls[s.name] = t.calls.get(s.name, 0) + 1
        t.busy[s.name] = t.busy.get(s.name, 0.0) + (s.end - s.start)
        t.self_s[s.name] = t.self_s.get(s.name, 0.0) + selfs[s.id]
        t.cpu[s.name] = t.cpu.get(s.name, 0.0) + s.cpu
        if s.name == "hexpack.build_layout" and names.get(s.parent) == "guard.solve_gb":
            t.layouts_in_gb += 1
        t.disks += s.attrs.get("disks", 0)
        t.pairs += s.attrs.get("pairs", 0)
        density = s.attrs.get("density")
        if density is not None and density <= SPARSE_MAX:
            t.ppp_sparse.append(s.end - s.start)
        elif density is not None and density >= DENSE_MIN:
            t.ppp_dense.append(s.end - s.start)
    return t


def coverage(spans: list[Span], name: str, op_wall: float) -> float:
    """Share of `op_wall`, the ops' summed wall time, that spans called
    `name` cover (overlapping spans counted once)."""
    by_op: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.name == name:
            by_op.setdefault(s.op, []).append((s.start, s.end))
    return sum(_union(v) for v in by_op.values()) / op_wall


PER_LAYER = {
    # name: (unit, better)
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.cmd_guard.busy_s": ("s", "lower"),
    "cli.cmd_bounds.busy_s": ("s", "lower"),
    "cli.cmd_sweep.busy_s": ("s", "lower"),
    "cli.cmd_simulate.busy_s": ("s", "lower"),
    "cli.cmd_simulate.parallelism": ("ratio", "higher"),
    "scenario.load_scenario.calls": ("count", "lower"),
    "scenario.load_scenario.busy_s": ("s", "lower"),
    "guard.solve_gb.calls": ("count", "lower"),
    "guard.solve_gb.busy_s": ("s", "lower"),
    "guard.solve_gb.self_s": ("s", "lower"),
    "guard.solve_gb.layouts_per_call": ("layouts/call", "lower"),
    "guard.solve_gd.calls": ("count", "lower"),
    "guard.solve_gd.busy_s": ("s", "lower"),
    "guard.gd_iterations": ("count", "lower"),
    "hexpack.build_layout.calls": ("count", "lower"),
    "hexpack.build_layout.busy_s": ("s", "lower"),
    "hexpack.bs_interference.calls": ("count", "lower"),
    "hexpack.bs_interference.busy_s": ("s", "lower"),
    "hexpack.disks_summed": ("count", "lower"),
    "hexpack.first_layer_neighbors.calls": ("count", "lower"),
    "bounds.deployable_area.calls": ("count", "lower"),
    "bounds.deployable_area.busy_s": ("s", "lower"),
    "bounds.deployable_area.self_s": ("s", "lower"),
    "geometry.intersection_area.calls": ("count", "lower"),
    "geometry.intersection_area.busy_s": ("s", "lower"),
    "mcsim.run_saturation_trial.calls": ("count", "lower"),
    "mcsim.run_saturation_trial.busy_s": ("s", "lower"),
    "mcsim.run_saturation_trial.cpu_s": ("s", "lower"),
    "mcsim.run_saturation_trial.wait_s": ("s", "lower"),
    "mcsim.run_ppp_trial.calls": ("count", "lower"),
    "mcsim.run_ppp_trial.busy_s": ("s", "lower"),
    "mcsim.run_ppp_trial.p50_sparse_s": ("s", "lower"),
    "mcsim.run_ppp_trial.p50_dense_s": ("s", "lower"),
    "mcsim.run_ppp_trial.peak_alloc_mib": ("MiB", "lower"),
    "mcsim.evaluate_sir.calls": ("count", "lower"),
    "mcsim.evaluate_sir.busy_s": ("s", "lower"),
    "mcsim.pairs_accepted": ("count", "higher"),
    "tracing.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(passes: list[PassTotals], gd_iterations: int, overhead: float,
                  peak_alloc_mib: float) -> dict:
    """The PER_LAYER values: counts from the first traced pass (they repeat
    exactly), times as the median over traced passes."""
    first = passes[0]

    def median(fn) -> float:
        return statistics.median(fn(t) for t in passes)

    def busy(name):
        return median(lambda t: t.busy.get(name, 0.0))

    def p50(values):
        return statistics.median(values) if values else 0.0

    sat = "mcsim.run_saturation_trial"
    trial_cpu = median(
        lambda t: t.cpu.get(sat, 0.0) + t.cpu.get("mcsim.run_ppp_trial", 0.0)
    )
    sim_wall = busy("cli.cmd_simulate")
    values = {
        "cli.main.calls": first.calls.get("cli.main", 0),
        "cli.main.self_s": median(lambda t: t.self_s.get("cli.main", 0.0)),
        "cli.cmd_simulate.parallelism": trial_cpu / sim_wall if sim_wall else 0.0,
        "guard.solve_gb.layouts_per_call": (
            first.layouts_in_gb / first.calls["guard.solve_gb"]
            if first.calls.get("guard.solve_gb") else 0.0
        ),
        "guard.gd_iterations": gd_iterations,
        "hexpack.disks_summed": first.disks,
        "mcsim.run_saturation_trial.cpu_s": median(lambda t: t.cpu.get(sat, 0.0)),
        "mcsim.run_saturation_trial.wait_s": median(
            lambda t: t.busy.get(sat, 0.0) - t.cpu.get(sat, 0.0)
        ),
        "mcsim.run_ppp_trial.p50_sparse_s": p50([v for t in passes for v in t.ppp_sparse]),
        "mcsim.run_ppp_trial.p50_dense_s": p50([v for t in passes for v in t.ppp_dense]),
        "mcsim.run_ppp_trial.peak_alloc_mib": peak_alloc_mib,
        "mcsim.pairs_accepted": first.pairs,
        "tracing.overhead_frac": overhead,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = first.calls.get(name, 0)
        elif kind == "busy_s":
            values[metric] = busy(name)
        elif kind == "self_s":
            values[metric] = median(lambda t: t.self_s.get(name, 0.0))
        else:
            raise KeyError(metric)
    return {m: values[m] for m in PER_LAYER}
