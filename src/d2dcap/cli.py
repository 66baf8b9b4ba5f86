"""Command-line front end: guard | bounds | sweep | simulate.

Each command resolves a Scenario (built-in preset, optional YAML config,
flag overrides), runs the corresponding computation and emits one CSV or
JSON artifact.  Every artifact embeds the fully resolved configuration so
any row can be reproduced from the file alone.  Exit codes: 0 success,
2 configuration error, 3 solver infeasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import bounds, guard, hexpack, mcsim
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


def _emit(scenario: Scenario, columns: list[str], rows: list[list]) -> None:
    config = scenario.resolved_config()
    if scenario.fmt == "json":
        payload = {
            "config": {k: v for k, v in config.items()},
            "columns": columns,
            "rows": [
                {
                    col: format_float(v) if isinstance(v, float) else v
                    for col, v in zip(columns, row)
                }
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {key}={_fmt(val)}" for key, val in config.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if scenario.out:
        try:
            with open(scenario.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"output.path: cannot write {scenario.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_guard(scenario: Scenario) -> tuple[list[str], list[list]]:
    """Solve the guard radii once and emit the full record."""
    report = guard.guard_report(scenario.radio, scenario.cell)
    return list(report.keys()), [list(report.values())]


def cmd_bounds(scenario: Scenario) -> tuple[list[str], list[list]]:
    """Deployable area and throughput bounds over a CUE-position sweep."""
    gd = guard.guard_distances(scenario.radio, scenario.cell)
    axis = scenario.axis(
        "d_cb", SweepAxis("d_cb", 0.0, scenario.cell.r_cell_m, 101)
    )
    rows = []
    for d_cb in axis.values():
        area = bounds.deployable_area(float(d_cb), gd, scenario.cell)
        tb = bounds.throughput_bounds(area, gd, scenario.radio.bitrate_bps)
        rows.append(
            [
                float(d_cb),
                area.area_m2,
                area.case_label,
                area.regime,
                tb.t_upper_bps,
                tb.t_lower_bps,
            ]
        )
    return ["d_cb_m", "s_d_m2", "case", "regime", "t_upper_bps", "t_lower_bps"], rows


def cmd_sweep(scenario: Scenario) -> tuple[list[str], list[list]]:
    """Guard radii and packed-count throughput over a DUE-power grid.

    The second axis is either the maximum CUE power or the bit rate.
    A point where a solver gives up is emitted with NaN for every
    quantity it could not solve rather than aborting the sweep.
    """
    axis = scenario.axis("p_due", SweepAxis("p_due", 0.25, 6.0, 24))
    cell = scenario.cell
    rows = []
    for versus_value in scenario.versus_values:
        for p_due in axis.values():
            radio = scenario.radio_with(
                p_due_mw=float(p_due), **{scenario.versus_field: versus_value}
            )
            g_d = g_b = t_upper = math.nan
            try:
                g_d, _ = guard.solve_gd(radio, cell)
                g_b = guard.solve_gb(radio, cell, g_d)
                t_upper = bounds.packing_upper_bound(
                    hexpack.packed_layout(g_d, g_b, cell).n_total, radio.bitrate_bps
                )
            except _SOLVER_FAILURES:
                pass
            rows.append([float(p_due), float(versus_value), g_d, g_b, t_upper])
    return ["p_due_mw", scenario.versus_name, "g_d_m", "g_b_m", "t_upper_bps"], rows


def cmd_simulate(scenario: Scenario) -> tuple[list[str], list[list]]:
    """Monte Carlo throughput versus CUE position, with analytic bounds.

    In ppp mode every density gets its own pass over the CUE positions
    and a leading density column.  Trials run one after another in the
    calling thread; trial t of grid point p runs on random stream
    p * trials + t.
    """
    gd = guard.guard_distances(scenario.radio, scenario.cell)
    axis = scenario.axis("d_cb", SweepAxis("d_cb", 0.0, 400.0, 5))
    ppp = scenario.sims[0].mode == "ppp"
    columns = ["density_per_m2"] if ppp else []
    columns += [
        "d_cb_m",
        "trials",
        "mean_pairs",
        "mean_throughput_bps",
        "stderr_throughput_bps",
        "ci95_low_bps",
        "ci95_high_bps",
        "t_lower_bps",
        "t_upper_bps",
        "sir_success_rate",
        "rotation_success_rate",
    ]
    n = scenario.trials
    grid = (replace(sim, d_cb=float(d_cb)) for sim in scenario.sims for d_cb in axis.values())
    rows = []
    for point, cfg in enumerate(grid):
        stats = mcsim.aggregate(
            [
                mcsim.run_trial(cfg, scenario.radio, scenario.cell, gd, trial_index=point * n + t)
                for t in range(n)
            ]
        )
        area = bounds.deployable_area(cfg.d_cb, gd, scenario.cell)
        tb = bounds.throughput_bounds(area, gd, scenario.radio.bitrate_bps)
        tput = stats["throughput_bps"]
        rows.append(
            ([cfg.density] if ppp else [])
            + [
                cfg.d_cb,
                n,
                stats["n_pairs"].mean,
                tput.mean,
                tput.stderr,
                tput.ci_low,
                tput.ci_high,
                tb.t_lower_bps,
                tb.t_upper_bps,
                stats["sir_ok"].mean,
                stats["rotation_ok"].mean,
            ]
        )
    return columns, rows


_COMMANDS = {
    "guard": cmd_guard,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcap",
        description=(
            "Guard distances, throughput bounds and Monte Carlo placement "
            "simulation for D2D pairs reusing cellular uplink spectrum."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("guard", "solve the three guard radii and emit the record"),
        ("bounds", "deployable area and throughput bounds over CUE position"),
        ("sweep", "guard radii and packed throughput over a DUE-power grid"),
        ("simulate", "Monte Carlo placement trials with analytic bound columns"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="YAML scenario file")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--trials", type=int, help="trials per grid point")
        p.add_argument("--threads", type=int, help="ignored: trials run in the calling thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(
            args.config, seed=args.seed, trials=args.trials, out=args.out, fmt=args.format
        )
        columns, rows = _COMMANDS[args.command](scenario)
        _emit(scenario, columns, rows)
    except ScenarioError as exc:
        print(f"d2dcap: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_FAILURES as exc:
        print(f"d2dcap: solver gave up: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
