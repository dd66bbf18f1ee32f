"""Comparison policies: SoC-hold rule, joint single-actor learner and a
perfect-foresight dynamic-programming reference.

The DP oracle works on a discretized SoC grid with full knowledge of the
day (series and outage window) and returns the exact optimum over that
grid, which lower-bounds learned policies up to discretization slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import MicrogridEnv, Observation
from .grid import EssArrays, MicrogridConfig, SimState, dispatch_generators, mask_bounds
from .maddpg import Trainer, TrainSettings, ddpg_groups, maddpg_groups

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
        self.ess_limits = EssArrays.of(config.ess)

    def __call__(self, obs: Observation, state: SimState) -> np.ndarray:
        dt = self.config.costs.slot_hours
        soc = np.array(state.soc)
        low, up = mask_bounds(self.ess_limits, soc, dt)
        if state.connected:
            raw = (RULE_TARGET_SOC - soc) * self.ess_limits.energy_cap / dt
            return np.minimum(np.maximum(raw, low), up)
        load_sum = sum(state.load_now)
        pv_sum = sum(state.pv_now)
        gen_sum = sum(dispatch_generators(self.config.generators, load_sum))
        residual = max(load_sum - pv_sum - gen_sum, 0.0)
        headroom = -low
        total = headroom.sum()
        if residual <= 0.0 or total <= 0.0:
            return np.zeros(len(self.config.ess))
        return -min(residual, total) * headroom / total


class TrainedPolicy:
    """Greedy adapter around a trainer: no noise, no learning."""

    def __init__(self, trainer: Trainer):
        self.trainer = trainer

    def __call__(self, obs: Observation, state: SimState) -> np.ndarray:
        _, actions, _ = self.trainer.act(obs.soc, obs.counter, obs.window)
        return actions


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
    caps = np.concatenate([[s.p_max for s in env.config.pv],
                           [s.p_max for s in env.config.loads]])
    return Trainer(env.config.ess, env.config.costs.slot_hours, groups,
                   env.obs_window_rows, caps, settings, init_rng)


# ------------------------------------------------------------------- DP

DP_MAX_COMBOS = 5_000_000  # joint state-action pairs one DP pass may hold


class DpSizeError(ValueError):
    """The discretized joint state space would be too large."""


@dataclass
class DpResult:
    cost: float
    commands: np.ndarray  # (slots, n_ess) MW
    soc_path: np.ndarray  # (slots + 1, n_ess)
    grid_points: int
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
    base = _dp_cost(config, pv, load, outage, grid_points)
    delta = 0.0
    if refine:
        fine = _dp_cost(config, pv, load, outage, 2 * grid_points - 1,
                        value_only=True)
        delta = max(base.cost - fine, 0.0)
    return DpResult(cost=base.cost, commands=base.commands,
                    soc_path=base.soc_path, grid_points=grid_points,
                    delta_grid=delta)


@dataclass
class _DpRaw:
    cost: float
    commands: np.ndarray
    soc_path: np.ndarray


def _dp_cost(config, pv, load, outage, grid_points, value_only=False):
    costs = config.costs
    dt = costs.slot_hours
    n_ess = len(config.ess)
    slots = pv.shape[1]
    if load.shape[1] != slots:
        raise ValueError("pv and load must cover the same slots")

    grids = [np.linspace(s.soc_min, s.soc_max, grid_points) for s in config.ess]
    n_states = grid_points ** n_ess
    if n_states * n_states > DP_MAX_COMBOS:
        raise DpSizeError(
            f"{n_states}^2 state-action combinations exceed the cap "
            f"{DP_MAX_COMBOS}; reduce grid_points or the number of ESS")

    # Per-unit transition powers and feasibility on the grid; column i of
    # the bounds is unit i's mask at each of its grid SoCs.
    lows, ups = mask_bounds(EssArrays.of(config.ess), np.stack(grids, axis=1), dt)
    per_net, per_dis, per_feas = [], [], []
    for i, (spec, grid) in enumerate(zip(config.ess, grids)):
        delta_soc = grid[None, :] - grid[:, None]
        eff = np.where(delta_soc > 0, spec.eff_charge, spec.eff_discharge)
        power = delta_soc * spec.energy_cap / (eff * dt)
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

    pv_sum = pv.sum(axis=0)
    load_sum = load.sum(axis=0)
    gen_caps = [g.p_max for g in config.generators]
    gen_sum = np.array([
        sum(dispatch_generators(list(config.generators), float(l)))
        for l in load_sum]) if gen_caps else np.zeros(slots)

    def connected_at(t: int) -> bool:
        if outage is None:
            return True
        onset, duration = outage
        return not onset <= t < onset + duration

    wear = costs.lambda_ess * dis * dt
    value = np.zeros(n_states)
    policy = np.zeros((slots, n_states), dtype=np.int32)
    for t in reversed(range(slots)):
        if connected_at(t):
            slot_cost = wear + costs.lambda_grid * np.abs(
                load_sum[t] + net - pv_sum[t]) * dt
            ok = feas
        else:
            gap = load_sum[t] + net - pv_sum[t] - gen_sum[t]
            # Exclude combos that the slot physics would have to rescale.
            ok = feas & (gap >= -pv_sum[t] - 1e-12) & (gap <= load_sum[t] + 1e-12)
            if load_sum[t] > 0:
                alpha = np.clip(gap / load_sum[t], 0.0, 1.0)
            else:
                alpha = np.zeros_like(gap)
            slot_cost = (wear + costs.lambda_gen * gen_sum[t] * dt
                         + costs.lambda_load * alpha * load_sum[t] * dt)
        total = np.where(ok, slot_cost + value[None, :], np.inf)
        policy[t] = np.argmin(total, axis=1)
        value = total[np.arange(n_states), policy[t]]

    start_idx = _nearest_state(grids, config.initial_soc)
    best = float(value[start_idx])

    if value_only:
        return best

    commands = np.zeros((slots, n_ess))
    soc_path = np.zeros((slots + 1, n_ess))
    shape = (grid_points,) * n_ess
    state = start_idx
    soc_path[0] = [grids[i][j] for i, j in enumerate(np.unravel_index(state, shape))]
    for t in range(slots):
        action = int(policy[t, state])
        from_idx = np.unravel_index(state, shape)
        to_idx = np.unravel_index(action, shape)
        for i in range(n_ess):
            commands[t, i] = per_net[i][from_idx[i], to_idx[i]]
            soc_path[t + 1, i] = grids[i][to_idx[i]]
        state = action
    return _DpRaw(cost=best, commands=commands, soc_path=soc_path)


def _nearest_state(grids: list[np.ndarray], soc: float) -> int:
    idx = 0
    for grid in grids:
        idx = idx * len(grid) + int(np.argmin(np.abs(grid - soc)))
    return idx
