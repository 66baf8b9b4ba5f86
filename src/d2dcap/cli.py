"""Command-line front end: guard | bounds | sweep | simulate.

Each command resolves a Scenario (built-in preset, optional YAML config,
flag overrides), runs the corresponding computation and emits one CSV or
JSON artifact.  Every artifact embeds the fully resolved configuration so
any row can be reproduced from the file alone.  Exit codes: 0 success,
2 configuration error, 3 solver infeasibility.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import replace

from . import bounds, guard, hexpack
from .scenario import Scenario, ScenarioError, SweepAxis, format_float, load_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_SOLVER_FAILURES = (guard.NoiseLimited, guard.Infeasible, guard.NonConvergent)


def _fmt(value) -> str:
    """Stable textual form: 9 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


def _open_out(path: str | None):
    """The artifact's destination, opened before any work as a shell redirect
    is, but to append: a failed run leaves a previous artifact as it was."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "a", encoding="utf-8", newline="\n")


def _emit(scenario: Scenario, rows: list[dict], fh) -> None:
    """Write the rows to `fh`; the first row's keys are the columns."""
    config = scenario.header
    if scenario.fmt == "json":
        payload = {
            "config": config,
            "columns": list(rows[0]),
            "rows": [
                {col: format_float(v) if isinstance(v, float) else v for col, v in row.items()}
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {key}={_fmt(val)}" for key, val in config.items()]
        lines.append(",".join(rows[0]))
        lines.extend(",".join(map(_fmt, row.values())) for row in rows)
        text = "\n".join(lines) + "\n"
    fh.write(text)
    fh.flush()


def cmd_guard(scenario: Scenario) -> list[dict]:
    """Solve the guard radii once: one row, the full record."""
    return [guard.guard_report(scenario.radio, scenario.cell)]


def cmd_bounds(scenario: Scenario) -> list[dict]:
    """Deployable area and throughput bounds over a CUE-position sweep."""
    gd = guard.guard_distances(scenario.radio, scenario.cell)
    axis = scenario.axis("d_cb", SweepAxis("d_cb", 0.0, scenario.cell.r_cell_m, 101))
    rows = []
    for d_cb in axis.values():
        area = bounds.deployable_area(d_cb, gd, scenario.cell)
        tb = bounds.throughput_bounds(area, gd, scenario.radio.bitrate_bps)
        rows.append(
            {
                "d_cb_m": d_cb,
                "s_d_m2": area.area_m2,
                "case": area.case_label,
                "regime": area.regime,
                "t_upper_bps": tb.t_upper_bps,
                "t_lower_bps": tb.t_lower_bps,
            }
        )
    return rows


def cmd_sweep(scenario: Scenario) -> list[dict]:
    """Guard radii and packed-count throughput over a DUE-power grid.

    The second axis is either the maximum CUE power or the bit rate.
    A point where a solver gives up is emitted with NaN for every
    quantity it could not solve rather than aborting the sweep.  Each
    g_b solve reuses the ring sums of the previous point's bisection.
    """
    axis = scenario.axis("p_due", SweepAxis("p_due", 0.25, 6.0, 24))
    cell = scenario.cell
    sums: dict = {}
    rows = []
    for versus_value in scenario.versus_values:
        for p_due in axis.values():
            radio = scenario.radio_with(
                p_due_mw=p_due, **{scenario.versus_field: versus_value}
            )
            g_d = g_b = t_upper = math.nan
            try:
                g_d = guard.solve_gd(radio, cell)[0]
                g_b = guard.solve_gb(radio, cell, g_d, sums)
                t_upper = bounds.packing_upper_bound(
                    hexpack.packed_layout(g_d, g_b, cell).n_total, radio.bitrate_bps
                )
            except _SOLVER_FAILURES:
                pass
            rows.append(
                {
                    "p_due_mw": p_due,
                    scenario.versus_name: float(versus_value),
                    "g_d_m": g_d,
                    "g_b_m": g_b,
                    "t_upper_bps": t_upper,
                }
            )
    return rows


def cmd_simulate(scenario: Scenario) -> list[dict]:
    """Monte Carlo throughput versus CUE position, with analytic bounds.

    In ppp mode every density gets its own pass over the CUE positions
    and a leading density column.  Trials run one after another in the
    calling thread; trial t of grid point p runs on random stream
    p * trials + t.  The default CUE axis ends at 400 m or at the cell
    edge, whichever is nearer.

    t_lower_bps and t_upper_bps are the paper's hexagonal-packing bounds
    for links spread over [d_min, d_max], whatever sim.d2d_dist says.
    Random sequential packing jams at a coverage of about 0.547, against
    0.907 for hexagonal packing, so a fixed-link run can fall below
    t_lower_bps: the preset with d_fixed 150 m places 5.8 pairs against 11.
    """
    from . import mcsim  # numpy loads here, not for the analytic commands

    gd = guard.guard_distances(scenario.radio, scenario.cell)
    axis = scenario.axis("d_cb", SweepAxis("d_cb", 0.0, min(400.0, scenario.cell.r_cell_m), 5))
    n = scenario.trials
    grid = (replace(sim, d_cb=d_cb) for sim in scenario.sims for d_cb in axis.values())
    rows = []
    for point, cfg in enumerate(grid):
        stats = mcsim.aggregate(
            mcsim.run_trial(cfg, scenario.radio, scenario.cell, gd, trial_index=point * n + t)
            for t in range(n)
        )
        area = bounds.deployable_area(cfg.d_cb, gd, scenario.cell)
        tb = bounds.throughput_bounds(area, gd, scenario.radio.bitrate_bps)
        tput = stats["throughput_bps"]
        row = {"density_per_m2": cfg.density} if cfg.mode == "ppp" else {}
        row.update(
            d_cb_m=cfg.d_cb,
            trials=n,
            mean_pairs=stats["n_pairs"].mean,
            mean_throughput_bps=tput.mean,
            stderr_throughput_bps=tput.stderr,
            ci95_low_bps=tput.ci_low,
            ci95_high_bps=tput.ci_high,
            t_lower_bps=tb.t_lower_bps,
            t_upper_bps=tb.t_upper_bps,
            sir_success_rate=stats["sir_ok"].mean,
            rotation_success_rate=stats["rotation_ok"].mean,
        )
        rows.append(row)
    return rows


_COMMANDS = {"guard": cmd_guard, "bounds": cmd_bounds, "sweep": cmd_sweep, "simulate": cmd_simulate}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcap",
        description="Guard distances, throughput bounds and Monte Carlo placement simulation\n"
        "for D2D pairs reusing cellular uplink spectrum.",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("command", metavar="command", choices=tuple(_COMMANDS), help=(
        "guard     solve the three guard radii and emit the record\n"
        "bounds    deployable area and throughput bounds over CUE position\n"
        "sweep     guard radii and packed throughput over a DUE-power grid\n"
        "simulate  Monte Carlo placement trials with analytic bound columns"
    ))
    parser.add_argument("--config", metavar="PATH", help="YAML scenario file")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--trials", type=int, help="trials per grid point")
    parser.add_argument("--threads", type=int, help="ignored: trials run in the calling thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(
            args.config, seed=args.seed, trials=args.trials, out=args.out, fmt=args.format
        )
        try:
            with _open_out(scenario.out) as fh:
                rows = _COMMANDS[args.command](scenario)
                st = os.fstat(fh.fileno()) if scenario.out else None
                if st and stat.S_ISREG(st.st_mode) and st.st_size:
                    fh.truncate(0)  # a device or FIFO cannot be emptied
                _emit(scenario, rows, fh)
        except OSError as exc:  # opening, writing, flushing or closing the artifact
            raise ScenarioError(
                f"output.path: cannot write {scenario.out or 'stdout'}: {exc}"
            ) from exc
    except (ScenarioError, hexpack.LayoutTooLarge) as exc:
        print(f"d2dcap: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_FAILURES as exc:
        print(f"d2dcap: solver gave up: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
