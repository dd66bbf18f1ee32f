"""Comparison policies: SoC-hold rule, joint single-actor learner and a
perfect-foresight dynamic-programming reference.

The DP oracle works on a discretized SoC grid with full knowledge of the
day (series and outage window) and returns the exact optimum over that
grid, which lower-bounds learned policies up to discretization slack.
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
from .maddpg import Trainer, TrainSettings, ddpg_groups, maddpg_groups
from .outage import grid_tie

RULE_TARGET_SOC = 0.5


class RulePolicy:
    """Hold every unit at the target SoC; discharge to serve when islanded.

    Connected: full correction toward the setpoint within one slot, clipped
    into the SoC-feasible window. Islanded: discharge covers the residual
    demand left after PV and generators, split across units proportionally
    to their available discharge headroom.
    """

    def __init__(self, config: MicrogridConfig):
        self.config = config

    def __call__(self, obs: Observation) -> np.ndarray:
        limits = self.config.ess_limits
        low, up = mask_bounds(limits, obs.soc, SLOT_HOURS)
        if obs.connected:
            raw = (RULE_TARGET_SOC - obs.soc) * limits.energy_cap / SLOT_HOURS
            return np.minimum(np.maximum(raw, low), up)
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
    on the same machinery."""
    if method == "maddpg":
        groups = maddpg_groups(env.n_agents)
    elif method == "ddpg":
        groups = ddpg_groups(env.n_agents)
    else:
        raise ValueError(f"unknown learned method {method!r}")
    return Trainer(env.config, groups, settings, init_rng)


# ------------------------------------------------------------------- DP

DP_MAX_COMBOS = 5_000_000  # joint state-action pairs one DP pass may hold


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

    net = np.zeros((1, 1))
    dis = np.zeros((1, 1))
    feas = np.ones((1, 1), dtype=bool)
    for p, d, f in zip(per_net, per_dis, per_feas):
        s_old, a_old = net.shape
        g = p.shape[0]
        net = (net[:, None, :, None] + p[None, :, None, :]).reshape(
            s_old * g, a_old * g)
        dis = (dis[:, None, :, None] + d[None, :, None, :]).reshape(
            s_old * g, a_old * g)
        feas = (feas[:, None, :, None] & f[None, :, None, :]).reshape(
            s_old * g, a_old * g)

    gen_sum = [sum(dispatch_generators(config.generators, l)) for l in load_sum]

    wear = costs.lambda_ess * dis * SLOT_HOURS
    value = np.zeros(n_states)
    policy = np.zeros((slots, n_states), dtype=np.int32)
    for t in reversed(range(slots)):
        if connected[t]:
            slot_cost = wear + costs.lambda_grid * np.abs(
                load_sum[t] + net - pv_sum[t]) * SLOT_HOURS
            ok = feas
        else:
            gap = load_sum[t] + net - pv_sum[t] - gen_sum[t]
            # Exclude combos that the slot physics would have to rescale.
            ok = feas & (gap >= -pv_sum[t] - 1e-12) & (gap <= load_sum[t] + 1e-12)
            if load_sum[t] > 0:
                alpha = np.clip(gap / load_sum[t], 0.0, 1.0)
            else:
                alpha = np.zeros_like(gap)
            slot_cost = (wear + costs.lambda_gen * gen_sum[t] * SLOT_HOURS
                         + costs.lambda_load * alpha * load_sum[t] * SLOT_HOURS)
        total = np.where(ok, slot_cost + value[None, :], np.inf)
        policy[t] = np.argmin(total, axis=1)
        value = total[np.arange(n_states), policy[t]]

    start_idx = _nearest_state(grids, config.initial_soc)
    best = float(value[start_idx])

    commands = np.zeros((slots, n_ess))
    shape = (grid_points,) * n_ess
    state = start_idx
    for t in range(slots):
        action = int(policy[t, state])
        from_idx = np.unravel_index(state, shape)
        to_idx = np.unravel_index(action, shape)
        for i in range(n_ess):
            commands[t, i] = per_net[i][from_idx[i], to_idx[i]]
        state = action
    return DpResult(cost=best, commands=commands, delta_grid=0.0)


def _nearest_state(grids: list[np.ndarray], soc: float) -> int:
    idx = 0
    for grid in grids:
        idx = idx * len(grid) + int(np.argmin(np.abs(grid - soc)))
    return idx
