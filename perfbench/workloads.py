"""Seeded inputs for the three benchmark workloads.

Each workload is a *pass*: a fixed list of CLI operations generated from
the seed alone.  The runner repeats the pass until its time is up, so every
operation's artifact must come out byte-identical on each repetition.

* analytic   -- `guard`, `bounds` and `sweep` on the built-in preset and on
  generated interference-limited scenarios.  Three recipes cover the three
  exclusion-slope regimes and, between them, all five area cases: d_max of
  30, 40 or 55 m gives K<=Kth1, d_max of 100-150 m gives Kth1<K<=Kth2, and a
  very small p_due with a strong CUE gives K>Kth2.  Never touches `mcsim`.
* saturation -- `simulate` in saturation mode with two worker threads at
  CUE positions stratified over [0, r_cell].  48 trials per position keep
  the sampled mean throughput inside the analytic bounds: where the margin
  is tightest (d_cb near 300 m) the mean of 48 trials falls below t_lower
  with probability about 1e-6.
* ppp        -- `simulate` in PPP mode with one thread: 15 ops on a
  geometric grid of the paper's sparse densities (4e-5 to 1.2e-4 per m^2),
  then 10, 9 and 6 ops at the dense deployments 5e-4, 1e-3 and 2e-3 per m^2.
  Trial cost grows about as the density squared, so a spread of dense
  densities would put op_p50_s and op_tail_s (ranks 20 and 30 of 40) on a
  steep ramp; on these levels each lands mid-plateau, at 5e-4 and 1e-3.
  The densities and their order are fixed (peak RSS depends on the
  allocation history); the seed draws the CUE positions and the
  simulation seeds.

Other parameters are Latin-hypercube stratified within their ranges so that
every seed covers each range evenly and run-to-run spreads stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("analytic", "saturation", "ppp")

R_CELL_M = 500.0

#: Scenarios generated per analytic recipe (the preset comes on top).
ANALYTIC_PER_RECIPE = 20
# Ops per pass are chosen so that the tail percentile (see run.py) is fixed
# per workload: 183 analytic ops give p95, 20 saturation ops p50, 40 ppp p75.
SATURATION_OPS = 20
SATURATION_TRIALS = 48
PPP_SPARSE_OPS = 15
SPARSE_BAND = (4.0e-5, 1.2e-4)
DENSE_LEVELS = ((5.0e-4, 10), (1.0e-3, 9), (2.0e-3, 6))  # (density, ops)
PPP_TRIALS = 3

# The first recipe's d_max sits on levels.  A sweep costs about 1/d_max^2
# and ignores the scenario's powers, so the 20 slowest ops are this recipe's
# sweeps; the tail op (10th slowest) then falls mid-way through the 9 at
# 40 m rather than on a steep ramp of distinct costs.
LOW_D_MAX_LEVELS = ((30.0, 5), (40.0, 9), (55.0, 6))  # (d_max_m, scenarios)
# (d_max_m range or None for the levels, p_due_mw range, p_cue_max_mw range);
# p_due is drawn log-uniformly.
_RECIPES = (
    (None, (0.02, 0.7), (100.0, 400.0)),
    ((100.0, 150.0), (0.1, 3.0), (50.0, 400.0)),
    ((140.0, 150.0), (0.002, 0.005), (350.0, 400.0)),
)


@dataclass(frozen=True)
class Op:
    """One `d2dcap` invocation: subcommand, scenario file and extra flags."""

    command: str
    scenario: int
    config: str | None
    flags: tuple[str, ...] = ()
    trials: int = 0
    mode: str = ""

    @property
    def threads(self) -> int:
        """Worker threads the op runs with."""
        if "--threads" in self.flags:
            return int(self.flags[self.flags.index("--threads") + 1])
        return 1

    @property
    def work(self) -> int:
        """Units of work the op completes: its trials, or 1 for analytic ops."""
        return self.trials or 1


def _yaml_float(x: float) -> str:
    """Float literal PyYAML reads back as a float (it needs a dot before 'e')."""
    text = repr(float(x))
    mantissa, _, exponent = text.partition("e")
    if exponent and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return text


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float, log: bool = False):
    """n values, one uniform draw in each of n equal strata of [lo, hi], shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _geometric(n: int, lo: float, hi: float) -> np.ndarray:
    """n values from lo to hi inclusive with a constant ratio."""
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))


def _analytic(rng: np.random.Generator) -> list[Op]:
    scenarios: list[str | None] = [None]  # the built-in preset, no --config
    n = ANALYTIC_PER_RECIPE
    for d_range, p_range, c_range in _RECIPES:
        if d_range is None:
            d_max = [d for d, count in LOW_D_MAX_LEVELS for _ in range(count)]
        else:
            d_max = _strata(rng, n, *d_range)
        p_due = _strata(rng, n, *p_range, log=True)
        p_cue = _strata(rng, n, *c_range)
        for d, p, c in zip(d_max, p_due, p_cue):
            scenarios.append(
                "radio:\n"
                "  noise_mode: zero\n"
                f"  p_due_mw: {_yaml_float(p)}\n"
                f"  p_cue_max_mw: {_yaml_float(c)}\n"
                f"cell: {{d_max_m: {_yaml_float(d)}}}\n"
            )
    order = [0] + [int(i) + 1 for i in rng.permutation(len(scenarios) - 1)]
    # guard first: the bounds check reads the ring radii from its artifact
    return [
        Op(command, s, scenarios[s])
        for s in order
        for command in ("guard", "bounds", "sweep")
    ]


def _simulate_config(mode: str, d_cb: float, density: float | None) -> str:
    lines = ["radio: {noise_mode: zero}", f"sim: {{mode: {mode}"]
    if density is not None:
        lines[-1] += f", densities: [{_yaml_float(density)}]"
    lines[-1] += "}"
    lines.append(
        f"sweep: [{{name: d_cb, start: {_yaml_float(d_cb)}, "
        f"stop: {_yaml_float(d_cb)}, steps: 1}}]"
    )
    return "\n".join(lines) + "\n"


def _saturation(rng: np.random.Generator) -> list[Op]:
    d_cb = _strata(rng, SATURATION_OPS, 0.0, R_CELL_M)
    seeds = rng.integers(1, 2**31 - 1, SATURATION_OPS)
    return [
        Op(
            "simulate",
            i,
            _simulate_config("saturation", float(d), None),
            ("--trials", str(SATURATION_TRIALS), "--threads", "2", "--seed", str(int(s))),
            trials=SATURATION_TRIALS,
            mode="saturation",
        )
        for i, (d, s) in enumerate(zip(d_cb, seeds))
    ]


def _ppp(rng: np.random.Generator) -> list[Op]:
    densities = list(_geometric(PPP_SPARSE_OPS, *SPARSE_BAND))
    for density, count in DENSE_LEVELS:
        densities += [density] * count
    n = len(densities)
    d_cb = _strata(rng, n, 0.0, R_CELL_M)
    seeds = rng.integers(1, 2**31 - 1, n)
    ops = [
        Op(
            "simulate",
            i,
            _simulate_config("ppp", float(d), float(lam)),
            ("--trials", str(PPP_TRIALS), "--threads", "1", "--seed", str(int(s))),
            trials=PPP_TRIALS,
            mode="ppp",
        )
        for i, (lam, d, s) in enumerate(zip(densities, d_cb, seeds))
    ]
    # the same order for every seed: peak RSS depends on allocation history
    return [ops[int(i)] for i in np.random.default_rng(0).permutation(n)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The pass of `workload` for `seed`; the same seed gives the same ops."""
    build = {"analytic": _analytic, "saturation": _saturation, "ppp": _ppp}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return build[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
