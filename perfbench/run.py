"""End-to-end benchmark of the d2dcap command line.

    python3 perfbench/run.py --workload analytic|saturation|ppp \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` of the
same checkout; without it the benchmark exits with code 2 and prints no
result.  Each workload (see `workloads.py`) is a seeded pass of operations,
each one `d2dcap.cli.main(argv)` in this process with a generated YAML
config and `--out` into a scratch directory under `perfbench/out/`.  Every
artifact is checked (`checks.py`) and must be byte-identical each time its
op repeats.

--trace 0 repeats the pass, untraced, until S seconds have passed (the
first pass always completes) and reports the end-to-end metrics:

  setup_s         median time a fresh interpreter takes to import d2dcap.cli
  work_per_s      the work of one pass (CLI ops on analytic, trials on
                  saturation and ppp; failed ops do no work) divided by the
                  sum of the op times below
  op_p50_s        median over the pass's ops of each op's time: the median
                  over its repetitions of its wall time in reference
                  seconds (see below)
  op_tail_s       the same op times at the highest of p99/p95/p90/p75/p50
                  with at least 10 ops beyond it
  peak_rss_mib    max of own and child peak resident memory
  pairs_per_trial mean `mean_pairs` of the first pass's simulate artifacts;
                  on analytic, the mean hexagonal packed pair count of the
                  feasible sweep rows (t_upper_bps / bit rate)

The 2-core machine this was tuned on runs identical code up to 1.5 times
slower or faster from one stretch of seconds or minutes to the next, wall
and CPU time alike.  So op times are in reference seconds: wall seconds
scaled by a fixed kernel timed between the ops (`speed.py`), which slows
down with the host but not with the program.  The unscaled figures are
printed on the lines before the result.  Timing per op rather than per
call fixes the sample count, hence the tail percentile, per workload.
Between ops the heap is trimmed (`trim_heap`), so that peak RSS does not
depend on what earlier ops left behind.

--trace 1 alternates untraced and traced passes, whole passes only, until S
seconds have passed, and reports the per-layer metrics of
`tracing.PER_LAYER`.  Spans go to `perfbench/out/spans-<workload>-<seed>.jsonl.gz`.

The last stdout line is one JSON object: correct, attempted, failed (ops)
and metrics.  An op fails when main raises or exits non-zero, or when its
artifact is missing, malformed, breaks an invariant or changes bytes;
fail_frac is failed / attempted and is printed on the line before.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 11
PPP_ALLOC_TRIALS = 3  # densest trials re-run under tracemalloc after a traced run
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "work/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "pairs_per_trial": "pairs",
}
# The layer whose spans should cover each workload's op time.
DOMINANT = {
    "analytic": "cli.main",
    "saturation": "mcsim.run_saturation_trial",
    "ppp": "mcsim.run_ppp_trial",
}


class MissingProgram(RuntimeError):
    """The checkout holds no importable d2dcap package under src/."""


def bootstrap() -> None:
    """Make `src/` of this checkout importable and prove it is what loads."""
    if not (SRC / "d2dcap" / "cli.py").is_file():
        raise MissingProgram(f"no d2dcap package under {SRC}")
    # workers are --threads; keep native thread pools from adding more
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import d2dcap.cli

    if Path(d2dcap.cli.__file__).resolve().parent != SRC / "d2dcap":
        raise MissingProgram(f"d2dcap imported from {d2dcap.cli.__file__}, not {SRC}")


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median time a fresh interpreter spends importing d2dcap.cli, in
    reference seconds: each child times its import, then the speed kernel
    (the median of three runs) in the same process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")])
    )
    code = (
        "import time; t = time.perf_counter(); import d2dcap.cli; "
        "t = time.perf_counter() - t; import speed; print(t, speed.probe_in_place())"
    )
    times = []
    for n in range(repeats + 1):  # the first may compile bytecode
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        if n:
            wall, scale = map(float, done.stdout.split())
            times.append(wall * scale)
    return statistics.median(times)


@dataclass
class Execution:
    index: int  # position of the op in the pass
    pass_no: int
    start: float
    wall: float
    code: int | None  # None when main raised
    out: Path
    error: str = ""
    scale: float = 1.0  # wall seconds to reference seconds, from nearby probes

    @property
    def ref(self) -> float:
        return self.wall * self.scale


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return None
    fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


def trim_heap() -> None:
    """Hand freed heap pages back to the system between ops.

    A CLI user starts each op in a fresh process; here the ops share one,
    and without a trim the pages one op freed stay resident or fragment
    the heap for the next, so peak RSS would depend on which ops ran
    before and in what order rather than on the op itself."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def run_pass(ops, main, workdir: Path, pass_no: int, rec=None,
             deadline: float | None = None,
             probe: SpeedProbe | None = None) -> list[Execution]:
    """Run the ops in order, stopping early only once `deadline` is past.

    With a probe, host speed is sampled between ops and each execution's
    `scale` is set from the samples nearest to it."""
    done = []
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if probe is not None:
            probe.maybe_sample()
        out = workdir / f"p{pass_no}-{i}.csv"
        argv = [op.command]
        if op.config is not None:
            argv += ["--config", str(workdir / f"s{op.scenario}.yaml")]
        argv += [*op.flags, "--out", str(out)]
        if rec is not None:
            rec.op = pass_no * len(ops) + i
        error, code = "", None
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        done.append(Execution(i, pass_no, t0, wall, code, out, error))
        trim_heap()
    if probe is not None:
        probe.sample()
        for ex in done:
            ex.scale = probe.scale(ex.start, ex.start + ex.wall)
    return done


def evaluate(ops, executions: list[Execution]) -> tuple[list[list[str]], dict]:
    """Problems per execution, and the parsed artifacts of pass 0 by op index."""
    from checks import Artifact, check_artifact

    first_text: dict[int, str] = {}
    guards: dict[tuple[int, int], Artifact] = {}
    first_pass: dict[int, Artifact] = {}
    problems = []
    for ex in executions:
        op = ops[ex.index]
        if ex.code != 0:
            problems.append([ex.error or f"exit code {ex.code}"])
            continue
        try:
            text = ex.out.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append([f"no artifact: {exc}"])
            continue
        found = check_artifact(op, text, guards.get((ex.pass_no, op.scenario)))
        if text != first_text.setdefault(ex.index, text):
            found.append("artifact differs from the op's first run")
        if not found:
            art = Artifact(text)
            if op.command == "guard":
                guards[(ex.pass_no, op.scenario)] = art
            if ex.pass_no == 0:
                first_pass[ex.index] = art
        problems.append(found)
    return problems, first_pass


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder rung with >= 10 values beyond."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        k = int(n * pct / 100.0)  # values at or below the percentile
        if k >= 1 and n - k >= 10:
            return pct, ordered[k - 1]
    raise ValueError(f"{n} ops are too few for a tail percentile")


def pairs_per_trial(ops, first_pass: dict) -> float:
    values = []
    for index, art in first_pass.items():
        op = ops[index]
        if op.command == "simulate":
            values.extend(float(row["mean_pairs"]) for row in art.rows)
        elif op.command == "sweep":
            bitrate = float(art.config["radio.bitrate_bps"])
            values.extend(
                float(row["t_upper_bps"]) / bitrate
                for row in art.rows
                if row["t_upper_bps"] != "nan"
            )
    return statistics.fmean(values)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(ops, main, workdir: Path, seconds: float, report):
    """End-to-end metrics and per-execution problems."""
    setup = measure_setup()
    probe = SpeedProbe(max(op.threads for op in ops))
    executions: list[Execution] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    pass_no = 0
    while pass_no == 0 or time.perf_counter() < deadline:
        executions += run_pass(ops, main, workdir, pass_no,
                               deadline=deadline if pass_no else None, probe=probe)
        pass_no += 1
    wall = time.perf_counter() - t0
    problems, first_pass = evaluate(ops, executions)
    refs: dict[int, list[float]] = {}
    walls: dict[int, list[float]] = {}
    failed: set[int] = set()
    for ex, found in zip(executions, problems):
        refs.setdefault(ex.index, []).append(ex.ref)
        walls.setdefault(ex.index, []).append(ex.wall)
        if found:
            failed.add(ex.index)
    op_times = [statistics.median(v) for v in refs.values()]
    op_walls = [statistics.median(v) for v in walls.values()]
    work = sum(op.work for i, op in enumerate(ops) if i not in failed)
    pct, tail_value = tail(op_times)
    scales = [ex.scale for ex in executions]
    report(f"timed phase {wall:.3f} s: {len(executions)} calls, {pass_no} passes "
           f"of {len(ops)} ops; op_tail_s is p{pct:g} of {len(op_times)} op times")
    report(f"host speed (reference s per wall s) {min(scales):.3f}-{max(scales):.3f} "
           f"over the calls; unscaled: op p50 "
           f"{statistics.median(op_walls):.4g} s, op tail "
           f"{tail(op_walls)[1]:.4g} s")
    values = {
        "setup_s": setup,
        "work_per_s": work / sum(op_times),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_value,
        "peak_rss_mib": peak_rss_mib(),
        "pairs_per_trial": pairs_per_trial(ops, first_pass),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, problems


def run_traced(ops, main, workdir: Path, seconds: float, report, workload: str,
               spans_path: Path):
    """Per-layer metrics, per-execution problems, and the dominant layer's
    coverage of op wall time (lowest over traced passes)."""
    import tracing
    from checks import Artifact

    spans_path.unlink(missing_ok=True)
    executions: list[Execution] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    totals, coverages = [], []
    probe = SpeedProbe(max(op.threads for op in ops))
    densest: list[tuple] = []  # run_ppp_trial args of the first traced pass
    t0 = time.perf_counter()
    pass_no = 0
    while pass_no < 2 or time.perf_counter() - t0 < seconds:
        traced = pass_no % 2 == 1
        if traced:
            rec = tracing.SpanRecorder()
            with tracing.instrument(rec):
                done = run_pass(ops, rec.wrap("cli.main", main), workdir, pass_no, rec,
                                probe=probe)
        else:
            done = run_pass(ops, main, workdir, pass_no, probe=probe)
        walls[traced].append(sum(ex.ref for ex in done))
        executions += done
        if traced:
            totals.append(tracing.pass_totals(rec.spans))
            op_wall = sum(ex.wall for ex in done)
            coverages.append(tracing.coverage(rec.spans, DOMINANT[workload], op_wall))
            rec.write(spans_path)
            densest = densest or rec.densest
        pass_no += 1
    problems, _ = evaluate(ops, executions)
    gd_iterations = sum(
        int(Artifact(ex.out.read_text(encoding="utf-8")).rows[0]["gd_iterations"])
        for ex, found in zip(executions, problems)
        if ex.pass_no == 1 and ops[ex.index].command == "guard" and not found
    )
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    peak = tracing.ppp_peak_alloc_mib(densest[:PPP_ALLOC_TRIALS])
    values = tracing.layer_metrics(totals, gd_iterations, overhead, peak)
    report(f"{pass_no} passes of {len(ops)} ops; {DOMINANT[workload]} spans cover "
           f"{min(coverages):.1%} of op wall time; spans in {spans_path}")
    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
    return metrics, problems, min(coverages)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, ops=None,
                 report=print):
    """One benchmark run: (result object, dominant coverage or None)."""
    import d2dcap.cli
    from workloads import make_ops

    ops = make_ops(workload, seed) if ops is None else ops
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        for op in ops:
            if op.config is not None:
                (workdir / f"s{op.scenario}.yaml").write_text(op.config, encoding="utf-8")
        cover = None
        if trace:
            metrics, problems, cover = run_traced(
                ops, d2dcap.cli.main, workdir, seconds, report, workload,
                OUT / f"spans-{workload}-{seed}.jsonl.gz",
            )
        else:
            metrics, problems = run_untraced(ops, d2dcap.cli.main, workdir, seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = 0
    for n, found in enumerate(problems):
        if found:
            failed += 1
            report(f"failed call #{n} (op {n % len(ops)}): {'; '.join(found[:3])}")
    report(f"fail_frac = {failed}/{len(problems)} = {failed / len(problems):g}")
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, cover


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(DOMINANT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        bootstrap()
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
