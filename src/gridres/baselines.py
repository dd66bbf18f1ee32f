"""Comparison policies: SoC-hold rule, joint single-actor learner and a
perfect-foresight dynamic-programming reference.

The DP oracle works on a discretized SoC grid with full knowledge of the
day (series and outage window) and returns the exact optimum over that
grid. Its ``delta_grid``, the cost drop from refining the grid, is a
heuristic for the discretization slack and not a bound: on the one-ESS
acceptance scenario at seed 3 (``small_scenario`` in the tests) it reads 0.68,
while the 21-point cost lies at least 1.29 above the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import DayEncoding
from .env import MicrogridEnv, Observation
from .grid import (
    SLOT_HOURS,
    MicrogridConfig,
    day_inputs,
    dispatch_generators,
    mask_bounds,
)
from .maddpg import Trainer, TrainSettings
from .outage import grid_tie

RULE_TARGET_SOC = 0.5


class RulePolicy:
    """Hold every unit at the target SoC; discharge to serve when islanded.

    Connected: full correction toward the setpoint within one slot, with the
    setpoint clamped into each unit's SoC window and the move into its power
    limits. Float differences and positive products keep order, so that is bit
    for bit the move clipped into the SoC-feasible ``mask_bounds``. Islanded:
    discharge covers the residual demand left after PV and generators, split
    across units proportionally to their available discharge headroom.
    """

    def __init__(self, config: MicrogridConfig):
        self.config = config
        self._units = [(min(max(RULE_TARGET_SOC, s.soc_min), s.soc_max), s.energy_cap,
                        s.p_min, s.p_max) for s in config.ess]  # target SoC, cap, limits

    def __call__(self, obs: Observation) -> np.ndarray:
        if obs.connected:
            out = []
            for (target, cap, p_min, p_max), soc in zip(self._units, obs.soc.tolist()):
                move = (target - soc) * cap / SLOT_HOURS
                out.append(p_min if move < p_min else p_max if move > p_max else move)
            return np.array(out)
        low, _ = mask_bounds(self.config.ess_limits, obs.soc, SLOT_HOURS)
        now = obs.window[:, 0].tolist()  # the slot's raw values, PV rows first
        n_pv = len(self.config.pv)
        load_sum = sum(now[n_pv:])
        pv_sum = sum(now[:n_pv])
        gen_sum = sum(dispatch_generators(self.config.generators, load_sum))
        residual = max(load_sum - pv_sum - gen_sum, 0.0)
        headroom = -low
        total = headroom.sum()
        if residual <= 0.0 or total <= 0.0:
            return np.zeros(len(self.config.ess))
        return -min(residual, total) * headroom / total


class TrainedPolicy:
    """Greedy adapter around a trainer: no noise, no learning. A day's
    windows are encoded in one pass when the policy first sees the day."""

    def __init__(self, trainer: Trainer):
        self.trainer = trainer
        self._day: DayEncoding | None = None

    def __call__(self, obs: Observation) -> np.ndarray:
        if self._day is None or self._day.windows is not obs.windows:
            self._day = DayEncoding(self.trainer.encoder, obs.windows)
        pis = self.trainer.raw_policy(obs.soc, obs.counter,
                                      self._day.vector(obs.slot))
        actions, _ = self.trainer.apply_mask(pis, obs.soc)
        return actions[0]


def build_trainer(env: MicrogridEnv, settings: TrainSettings, method: str,
                  init_rng: np.random.Generator) -> Trainer:
    """Construct the multi-agent learner or the joint single-actor variant
    on the same machinery, for the env's fleet."""
    return Trainer(env.config, method, settings, init_rng)


# ------------------------------------------------------------------- DP

DP_MAX_COMBOS = 5_000_000  # joint state-action pairs per slot: bounds a pass's work
DP_BLOCK = 1 << 16  # state-action pairs per row block: 512 KiB per float buffer


class DpSizeError(ValueError):
    """The discretized joint state space would be too large."""


@dataclass
class DpResult:
    cost: float
    commands: np.ndarray  # (slots, n_ess) MW
    delta_grid: float  # refinement slack; 0.0 when refinement was skipped


def dp_oracle(config: MicrogridConfig, pv: np.ndarray, load: np.ndarray,
              outage: tuple[int, int] | None, grid_points: int = 21,
              refine: bool = True) -> DpResult:
    """Backward-induction optimum of the day cost over a joint SoC grid.

    ``pv``/``load`` are per-device arrays shaped (devices, slots); the outage
    is (onset, duration) or None. Actions are moves to grid points whose
    implied power lies inside the SoC-aware masked window and whose slot
    resolves without corrective scaling, so every evaluated transition is
    exactly replayable through the slot physics.
    """
    inputs = day_inputs(config, pv, load, grid_tie(outage)[:np.shape(pv)[1]])
    result = _dp_cost(config, inputs, grid_points)
    if refine:
        fine = _dp_cost(config, inputs, 2 * grid_points - 1)
        result.delta_grid = max(result.cost - fine.cost, 0.0)
    return result


def _dp_cost(config, inputs, grid_points) -> DpResult:
    costs = config.costs
    n_ess = len(config.ess)
    connected, pv_sum, load_sum = inputs.connected, inputs.pv_sum, inputs.load_sum
    slots = len(load_sum)

    grids = [np.linspace(s.soc_min, s.soc_max, grid_points) for s in config.ess]
    n_states = grid_points ** n_ess
    if n_states * n_states > DP_MAX_COMBOS:
        raise DpSizeError(
            f"{n_states}^2 state-action combinations exceed the cap "
            f"{DP_MAX_COMBOS}; reduce grid_points or the number of ESS")

    # Per-unit transition powers and feasibility on the grid; column i of
    # the bounds is unit i's mask at each of its grid SoCs.
    lows, ups = mask_bounds(config.ess_limits, np.stack(grids, axis=1), SLOT_HOURS)
    per_net, per_dis, per_feas = [], [], []
    for i, (spec, grid) in enumerate(zip(config.ess, grids)):
        delta_soc = grid[None, :] - grid[:, None]
        eff = np.where(delta_soc > 0, spec.eff_charge, spec.eff_discharge)
        power = delta_soc * spec.energy_cap / (eff * SLOT_HOURS)
        low, up = lows[:, i], ups[:, i]
        feas = (power >= low[:, None] - 1e-12) & (power <= up[:, None] + 1e-12)
        per_net.append(power)
        per_dis.append(np.abs(np.minimum(power, 0.0)))
        per_feas.append(feas)

    gen_sum = [sum(dispatch_generators(config.generators, l)) for l in load_sum]

    # Each slot sweeps the source states in blocks of rows. A block's rows of
    # the joint tables are built from the unit tables into buffers reused by
    # every block; no joint n_states x n_states array is held.
    rows = min(n_states, DP_BLOCK // n_states)  # at least 29: DP_MAX_COMBOS caps n_states
    units = np.unravel_index(np.arange(n_states), (grid_points,) * n_ess)
    net_buf, wear_buf = np.empty((rows, n_states)), np.empty((rows, n_states))
    ok_buf, mask_buf = (np.empty((rows, n_states), dtype=bool) for _ in range(2))
    value = np.zeros(n_states)
    policy = np.zeros((slots, n_states), dtype=np.int32)
    for t in reversed(range(slots)):
        new_value = np.empty(n_states)
        for r0 in range(0, n_states, rows):
            r, m = slice(r0, r0 + rows), min(rows, n_states - r0)
            # x holds the net ESS power, then the gap, then the pair's cost.
            x, wear, ok, mask = net_buf[:m], wear_buf[:m], ok_buf[:m], mask_buf[:m]
            _fold_rows(np.add, 0.0, per_net, units, r, x)
            _fold_rows(np.add, 0.0, per_dis, units, r, wear)
            _fold_rows(np.logical_and, True, per_feas, units, r, ok)
            wear *= costs.lambda_ess
            wear *= SLOT_HOURS
            x += load_sum[t]
            x -= pv_sum[t]
            if connected[t]:
                np.abs(x, out=x)
                x *= costs.lambda_grid
            else:
                x -= gen_sum[t]
                # Exclude combos that the slot physics would have to rescale.
                ok &= np.greater_equal(x, -pv_sum[t] - 1e-12, out=mask)
                ok &= np.less_equal(x, load_sum[t] + 1e-12, out=mask)
                if load_sum[t] > 0:
                    x /= load_sum[t]
                    np.clip(x, 0.0, 1.0, out=x)
                else:
                    x.fill(0.0)
                x *= costs.lambda_load
                x *= load_sum[t]
                wear += costs.lambda_gen * gen_sum[t] * SLOT_HOURS
            x *= SLOT_HOURS
            x += wear
            x += value
            np.copyto(x, np.inf, where=np.logical_not(ok, out=mask))
            arg = x.argmin(axis=1)
            policy[t, r] = arg
            new_value[r] = x[np.arange(m), arg]
        value = new_value

    start_idx = _nearest_state(grids, config.initial_soc)
    best = float(value[start_idx])

    commands = np.zeros((slots, n_ess))
    state = start_idx
    for t in range(slots):
        action = int(policy[t, state])
        commands[t] = [p[u[state], u[action]] for p, u in zip(per_net, units)]
        state = action
    return DpResult(cost=best, commands=commands, delta_grid=0.0)


def _fold_rows(op, start, tables, units, rows, out) -> None:
    """Write rows ``rows`` of the joint (state, action) table into ``out``:
    the unit tables folded in unit order, ``((start op unit 0) op unit 1) ...``."""
    m, g = len(out), len(tables[-1])
    acc = np.full((m, 1), start)
    for table, unit in zip(tables[:-1], units[:-1]):
        acc = op(acc[:, :, None], table[unit[rows]][:, None, :]).reshape(m, -1)
    op(acc[:, :, None], tables[-1][units[-1][rows]][:, None, :],
       out=out.reshape(m, -1, g))


def _nearest_state(grids: list[np.ndarray], soc: float) -> int:
    idx = 0
    for grid in grids:
        idx = idx * len(grid) + int(np.argmin(np.abs(grid - soc)))
    return idx
