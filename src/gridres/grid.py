"""Microgrid slot physics: device limits, storage dynamics, dispatch and cost.

Conventions used throughout the package:

* powers in MW; ESS charging is positive, discharging negative; grid import
  is positive, export negative,
* energies in MWh, time in hours, state of charge as a fraction of capacity,
* every function in this module is pure; episode state is owned by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

SLOTS_PER_DAY = 96  # 15-minute slots
BALANCE_TOL = 1e-9
COMMAND_TOL = 1e-12


class DispatchError(ValueError):
    """An ESS command violated its power bounds (masking failed upstream)."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EssSpec:
    """One battery unit: power window, usable energy, cycle efficiencies."""

    id: str
    p_min: float  # MW, discharge limit (negative)
    p_max: float  # MW, charge limit
    energy_cap: float  # MWh
    soc_min: float
    soc_max: float
    eff_charge: float = 0.999
    eff_discharge: float = 1.001
    bus: int = 0

    def __post_init__(self) -> None:
        if not self.p_min < 0.0 < self.p_max:
            raise ValueError(f"{self.id}: need p_min < 0 < p_max, got [{self.p_min}, {self.p_max}]")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError(f"{self.id}: bad SoC window [{self.soc_min}, {self.soc_max}]")
        if self.energy_cap <= 0.0:
            raise ValueError(f"{self.id}: energy_cap must be positive")
        if not self.eff_charge <= 1.0 <= self.eff_discharge:
            raise ValueError(f"{self.id}: need eff_charge <= 1 <= eff_discharge")


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    p_min: float
    p_max: float
    bus: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_min <= self.p_max:
            raise ValueError(f"{self.id}: need 0 <= p_min <= p_max")


@dataclass(frozen=True)
class PvSpec:
    id: str
    p_max: float
    bus: int = 0

    def __post_init__(self) -> None:
        if self.p_max <= 0.0:
            raise ValueError(f"{self.id}: p_max must be positive")


@dataclass(frozen=True)
class LoadSpec:
    id: str
    p_max: float
    bus: int = 0

    def __post_init__(self) -> None:
        if self.p_max <= 0.0:
            raise ValueError(f"{self.id}: p_max must be positive")


@dataclass(frozen=True)
class CostParams:
    """$/MWh coefficients for storage wear, generation, grid exchange and shed load."""

    lambda_ess: float = 0.2
    lambda_gen: float = 0.5
    lambda_grid: float = 0.3
    lambda_load: float = 1.5
    slot_hours: float = 0.25

    def __post_init__(self) -> None:
        for name in ("lambda_ess", "lambda_gen", "lambda_grid", "lambda_load"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.slot_hours <= 0.0:
            raise ValueError("slot_hours must be positive")


@dataclass(frozen=True)
class MicrogridConfig:
    """Static description of the controllable fleet plus cost coefficients."""

    ess: tuple[EssSpec, ...]
    generators: tuple[GeneratorSpec, ...]
    pv: tuple[PvSpec, ...]
    loads: tuple[LoadSpec, ...]
    costs: CostParams = field(default_factory=CostParams)
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        if not self.ess:
            raise ValueError("at least one ESS is required")
        if not self.loads:
            raise ValueError("at least one load is required")
        for spec in self.ess:
            if not spec.soc_min <= self.initial_soc <= spec.soc_max:
                raise ValueError(f"initial_soc {self.initial_soc} outside {spec.id} SoC window")

    @property
    def n_agents(self) -> int:
        return len(self.ess)


@dataclass
class SimState:
    """Per-slot dynamic state owned by exactly one episode at a time."""

    slot_index: int
    soc: list[float]
    connected: bool
    outage_slots_remaining: int
    pv_now: list[float]
    load_now: list[float]

    def __post_init__(self) -> None:
        if (self.outage_slots_remaining == 0) != self.connected:
            raise ValueError("outage_slots_remaining must be 0 iff connected")


class CostBreakdown(NamedTuple):
    ess: float
    gen: float
    grid: float
    shed: float


@dataclass(frozen=True)
class DispatchResult:
    """Resolved powers for one slot; balance residual is guaranteed tiny."""

    p_ess: tuple[float, ...]
    p_gen: tuple[float, ...]
    p_grid: float
    alpha: float  # shedding fraction, uniform across loads
    p_load: tuple[float, ...]
    pv_available: float
    pv_curtailed: float
    connected: bool
    balance_residual: float
    cost_total: float
    cost_breakdown: CostBreakdown


class SocUpdate(NamedTuple):
    soc: float
    excess: float  # signed SoC amount removed by clamping, 0.0 inside bounds

    @property
    def saturated(self) -> bool:
        return self.excess != 0.0


def step_soc(spec: EssSpec, soc: float, p_ess: float, dt: float) -> SocUpdate:
    """Advance one storage unit by one slot.

    Charging applies ``eff_charge``, discharging (p_ess <= 0) applies
    ``eff_discharge``. The result is clamped to the SoC window; the clamped
    excess is reported so callers can tell saturation from a clean step.
    """
    _require_finite(soc=soc, p_ess=p_ess, dt=dt)
    eff = spec.eff_charge if p_ess > 0.0 else spec.eff_discharge
    raw = soc + eff * p_ess * dt / spec.energy_cap
    clamped = min(max(raw, spec.soc_min), spec.soc_max)
    return SocUpdate(clamped, raw - clamped)


class EssArrays(NamedTuple):
    """Per-unit ESS limits as arrays in fleet order, for vectorised masking."""

    energy_cap: np.ndarray
    soc_min: np.ndarray
    soc_max: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray

    @classmethod
    def of(cls, specs: Sequence[EssSpec]) -> "EssArrays":
        return cls(*(np.array([getattr(s, name) for s in specs])
                     for name in cls._fields))


def mask_bounds(ess: EssArrays, socs: np.ndarray,
                dt: float) -> tuple[np.ndarray, np.ndarray]:
    """SoC-aware feasible [low, up] power window of every unit.

    ``socs`` broadcasts against the unit axis (last). The window keeps the
    next SoC inside its band before efficiencies, so a discharge at ``low``
    can still reach the SoC clamp of :func:`step_soc`.
    """
    up = np.minimum((ess.soc_max - socs) * ess.energy_cap / dt, ess.p_max)
    low = np.maximum((ess.soc_min - socs) * ess.energy_cap / dt, ess.p_min)
    return low, up


def dispatch_generators(gens: Sequence[GeneratorSpec], total_load: float) -> list[float]:
    """Generator outputs for one islanded slot.

    If the fleet cannot cover the demand every unit runs flat out; otherwise
    the demand is split proportionally to capacity.
    """
    _require_finite(total_load=total_load)
    if total_load < 0.0:
        raise ValueError("total_load must be >= 0")
    if not gens:
        return []
    cap_sum = sum(g.p_max for g in gens)
    if cap_sum <= total_load:
        return [g.p_max for g in gens]
    if cap_sum == 0.0:
        return [0.0 for _ in gens]
    return [total_load * g.p_max / cap_sum for g in gens]


def resolve_slot(config: MicrogridConfig, state: SimState,
                 ess_commands: Sequence[float]) -> DispatchResult:
    """Resolve all powers for one slot and price them.

    Connected mode: generators stay idle (grid energy is cheaper than diesel)
    and the grid tie closes the balance as a signed slack. Islanded mode:
    generators follow the proportional demand rule, shedding covers any
    remaining deficit, and PV surplus is curtailed.

    Commands must already be masked into the SoC-feasible range; a command
    outside the spec power window raises :class:`DispatchError`. Two corner
    adjustments keep the balance exact when islanded: residual surplus after
    full PV curtailment scales discharge back toward zero, and a deficit that
    survives full shedding scales charging back toward zero. Both moves stay
    inside the masked range because it always contains zero.
    """
    if len(ess_commands) != len(config.ess):
        raise ValueError(f"expected {len(config.ess)} commands, got {len(ess_commands)}")
    p_ess = []
    for spec, cmd in zip(config.ess, ess_commands):
        _require_finite(command=cmd)
        if cmd > spec.p_max + COMMAND_TOL or cmd < spec.p_min - COMMAND_TOL:
            raise DispatchError(
                f"{spec.id}: command {cmd} outside [{spec.p_min}, {spec.p_max}]")
        p_ess.append(min(max(cmd, spec.p_min), spec.p_max))

    pv_now = [min(max(p, 0.0), spec.p_max) for p, spec in zip(state.pv_now, config.pv)]
    load_now = [min(max(p, 0.0), spec.p_max) for p, spec in zip(state.load_now, config.loads)]
    load_sum = sum(load_now)
    pv_sum = sum(pv_now)
    ess_net = sum(p_ess)

    if state.connected:
        p_gen = [0.0 for _ in config.generators]
        alpha = 0.0
        pv_curtailed = 0.0
        p_grid = load_sum + ess_net - pv_sum
    else:
        p_grid = 0.0
        p_gen = dispatch_generators(config.generators, load_sum)
        gen_sum = sum(p_gen)
        gap = load_sum + ess_net - pv_sum - gen_sum
        pv_curtailed = 0.0
        if gap < 0.0:
            alpha = 0.0
            pv_curtailed = min(-gap, pv_sum)
            gap += pv_curtailed
            if gap < -COMMAND_TOL:
                # Surplus persists with all PV curtailed: discharge has nowhere
                # to go, scale it back pro rata.
                discharge = sum(-p for p in p_ess if p < 0.0)
                scale = (discharge + gap) / discharge
                p_ess = [p * scale if p < 0.0 else p for p in p_ess]
        elif gap > load_sum:
            alpha = 1.0
            deficit = gap - load_sum
            charge = sum(p for p in p_ess if p > 0.0)
            # Charging demand exceeds available generation even with full
            # shedding; scale the charge commands down to what exists.
            scale = (charge - deficit) / charge
            p_ess = [p * scale if p > 0.0 else p for p in p_ess]
        else:
            alpha = gap / load_sum if load_sum > 0.0 else 0.0
        ess_net = sum(p_ess)

    gen_sum = sum(p_gen)
    pv_used = pv_sum - pv_curtailed
    residual = (1.0 - alpha) * load_sum - pv_used + ess_net - gen_sum - p_grid

    result = DispatchResult(
        p_ess=tuple(p_ess),
        p_gen=tuple(p_gen),
        p_grid=p_grid,
        alpha=alpha,
        p_load=tuple(load_now),
        pv_available=pv_sum,
        pv_curtailed=pv_curtailed,
        connected=state.connected,
        balance_residual=residual,
        cost_total=0.0,
        cost_breakdown=CostBreakdown(0.0, 0.0, 0.0, 0.0),
    )
    total, breakdown = _price(result, config.costs)
    return replace(result, cost_total=total, cost_breakdown=breakdown)


def _price(result: DispatchResult, costs: CostParams) -> tuple[float, CostBreakdown]:
    dt = costs.slot_hours
    ess = sum(costs.lambda_ess * abs(min(p, 0.0)) for p in result.p_ess) * dt
    gen = sum(costs.lambda_gen * p for p in result.p_gen) * dt
    grid = costs.lambda_grid * abs(result.p_grid) * dt
    shed = sum(result.alpha * costs.lambda_load * p for p in result.p_load) * dt
    breakdown = CostBreakdown(ess, gen, grid, shed)
    return ess + gen + grid + shed, breakdown


def reward_for_agent(n: int, result: DispatchResult, costs: CostParams) -> float:
    """Per-agent reward: negative slot cost where the storage-wear term counts
    only agent ``n``'s discharge while the other terms are shared."""
    dt = costs.slot_hours
    own = costs.lambda_ess * abs(min(result.p_ess[n], 0.0))
    shared = (sum(costs.lambda_gen * p for p in result.p_gen)
              + costs.lambda_grid * abs(result.p_grid)
              + sum(result.alpha * costs.lambda_load * p for p in result.p_load))
    return -(own + shared) * dt


def shed_energy_mwh(results: Sequence[DispatchResult], dt: float) -> float:
    """Total load energy left unserved over a sequence of slots."""
    return sum(r.alpha * sum(r.p_load) for r in results) * dt
