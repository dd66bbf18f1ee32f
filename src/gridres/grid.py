"""Microgrid slot physics: device limits, storage dynamics, dispatch and cost.

Conventions used throughout the package:

* powers in MW; ESS charging is positive, discharging negative; grid import
  is positive, export negative,
* energies in MWh, time in hours, state of charge as a fraction of capacity,
* every function in this module is pure; episode state is owned by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

SLOTS_PER_DAY = 96
SLOT_HOURS = 24 / SLOTS_PER_DAY  # 0.25 h, a power of two: scaling by it is exact
BALANCE_TOL = 1e-9
COMMAND_TOL = 1e-12


class DispatchError(ValueError):
    """An ESS command violated its power bounds (masking failed upstream)."""


def _not_finite(**values: float) -> None:
    """Raise for the first of ``values``, in keyword order, that is not finite."""
    name, value = next((k, v) for k, v in values.items() if not math.isfinite(v))
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
    p_max: float
    bus: int = 0

    def __post_init__(self) -> None:
        if self.p_max < 0.0:
            raise ValueError(f"{self.id}: p_max must be >= 0")


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

    def __post_init__(self) -> None:
        for name in ("lambda_ess", "lambda_gen", "lambda_grid", "lambda_load"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


class EssArrays(NamedTuple):
    """Per-unit ESS limits as arrays in fleet order, for vectorised masking;
    built once per fleet as ``MicrogridConfig.ess_limits``."""

    energy_cap: np.ndarray
    soc_min: np.ndarray
    soc_max: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray


@dataclass(frozen=True)
class MicrogridConfig:
    """Static description of the controllable fleet plus cost coefficients."""

    ess: tuple[EssSpec, ...]
    generators: tuple[GeneratorSpec, ...]
    pv: tuple[PvSpec, ...]
    loads: tuple[LoadSpec, ...]
    costs: CostParams = field(default_factory=CostParams)
    initial_soc: float = 0.5
    # Compiled from the specs, read-only and shared: ESS limits in fleet order,
    # and PV then load capacities in the row order of ``dataio.ForecastTable``.
    ess_limits: EssArrays = field(init=False, repr=False, compare=False)
    capacities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ess:
            raise ValueError("at least one ESS is required")
        if not self.loads:
            raise ValueError("at least one load is required")
        outside = [s.id for s in self.ess if not s.soc_min <= self.initial_soc <= s.soc_max]
        if outside:
            raise ValueError(f"initial_soc {self.initial_soc} outside the SoC window of "
                             f"{', '.join(outside)}")
        limits = EssArrays(*(np.array([getattr(s, name) for s in self.ess], dtype=float)
                             for name in EssArrays._fields))
        caps = np.array([unit.p_max for unit in (*self.pv, *self.loads)], dtype=float)
        for a in (*limits, caps):
            a.flags.writeable = False
        object.__setattr__(self, "ess_limits", limits)
        object.__setattr__(self, "capacities", caps)

    @property
    def n_agents(self) -> int:
        return len(self.ess)


class DayInputs(NamedTuple):
    """The day's exogenous schedule: each slot's grid tie, and its device
    inputs clamped to their limits and summed for pricing."""

    connected: list[bool]
    pv: list[tuple[float, ...]]
    pv_sum: list[float]
    load: list[tuple[float, ...]]
    load_sum: list[float]


def day_inputs(config: MicrogridConfig, pv: np.ndarray, load: np.ndarray,
               connected: Sequence[bool]) -> DayInputs:
    """Clamp and sum (devices, slots) PV and load arrays once for all slots,
    bit for bit as ``min(max(p, 0.0), p_max)`` and a left-to-right ``sum``
    per slot: ``np.where`` keeps -0.0 as ``max`` does (``np.maximum`` does
    not), and ``sum`` adds device rows in order, never pairwise."""
    pv, load = np.asarray(pv, dtype=float), np.asarray(load, dtype=float)
    if not pv.shape[1] == load.shape[1] == len(connected):
        raise ValueError("pv, load and connected must cover the same slots")
    fields = [np.asarray(connected, dtype=bool).tolist()]
    n_pv = len(config.pv)
    for raw, caps in ((pv, config.capacities[:n_pv]), (load, config.capacities[n_pv:])):
        clamped = np.minimum(np.where(raw < 0.0, 0.0, raw), caps[:, None])
        fields += [list(map(tuple, clamped.T.tolist())),
                   sum(clamped, np.zeros(raw.shape[1])).tolist()]
    return DayInputs(*fields)


class CostBreakdown(NamedTuple):
    ess: float
    gen: float
    grid: float
    shed: float


class DispatchResult(NamedTuple):
    """Resolved powers for one slot; balance residual is guaranteed tiny."""

    p_ess: tuple[float, ...]
    p_gen: tuple[float, ...]
    p_grid: float
    alpha: float  # shedding fraction, uniform across loads
    p_load: tuple[float, ...]
    p_pv: tuple[float, ...]  # per plant, before curtailment
    pv_curtailed: float  # fleet total, taken from the plants pro rata
    connected: bool
    balance_residual: float
    cost_total: float
    cost_breakdown: CostBreakdown


class SocUpdate(NamedTuple):
    soc: list[float]
    excess: list[float]  # signed SoC amounts removed by clamping, 0.0 inside bounds


def step_soc(ess: Sequence[EssSpec], socs: Sequence[float], p_ess: Sequence[float],
             dt: float) -> SocUpdate:
    """Advance every unit of a fleet by one slot, in fleet order.

    Charging applies ``eff_charge``, discharging (p_ess <= 0) applies
    ``eff_discharge``. Each SoC is clamped to its window, as the comparisons
    of ``min(max(raw, soc_min), soc_max)`` without the calls; the clamped
    excess is reported so callers can tell saturation from a clean step.
    """
    soc_out, excess = [], []
    for spec, soc, p in zip(ess, socs, p_ess):
        if not (math.isfinite(soc) and math.isfinite(p) and math.isfinite(dt)):
            _not_finite(soc=soc, p_ess=p, dt=dt)
        eff = spec.eff_charge if p > 0.0 else spec.eff_discharge
        raw = soc + eff * p * dt / spec.energy_cap
        lo, hi = spec.soc_min, spec.soc_max
        clamped = lo if raw < lo else hi if raw > hi else raw
        soc_out.append(clamped)
        excess.append(raw - clamped)
    return SocUpdate(soc_out, excess)


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
    if not math.isfinite(total_load):
        _not_finite(total_load=total_load)
    if total_load < 0.0:
        raise ValueError("total_load must be >= 0")
    cap_sum = sum(g.p_max for g in gens)
    if cap_sum <= total_load:
        return [g.p_max for g in gens]
    return [total_load * g.p_max / cap_sum for g in gens]


def resolve_slot(config: MicrogridConfig, inputs: DayInputs, slot: int,
                 ess_commands: Sequence[float]) -> DispatchResult:
    """Resolve all powers for slot ``slot`` of a day and price them.

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
        if not math.isfinite(cmd):
            _not_finite(command=cmd)
        if cmd > spec.p_max + COMMAND_TOL or cmd < spec.p_min - COMMAND_TOL:
            raise DispatchError(
                f"{spec.id}: command {cmd} outside [{spec.p_min}, {spec.p_max}]")
        p_ess.append(min(max(cmd, spec.p_min), spec.p_max))

    connected = inputs.connected[slot]
    pv_sum, load_sum = inputs.pv_sum[slot], inputs.load_sum[slot]
    ess_net = sum(p_ess)

    alpha = pv_curtailed = 0.0
    if connected:
        p_gen, gen_sum = [0.0] * len(config.generators), 0.0
        p_grid = load_sum + ess_net - pv_sum
    else:
        p_grid = 0.0
        p_gen = dispatch_generators(config.generators, load_sum)
        gen_sum = sum(p_gen)
        gap = load_sum + ess_net - pv_sum - gen_sum
        if gap < 0.0:
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

    pv_used = pv_sum - pv_curtailed
    residual = (1.0 - alpha) * load_sum - pv_used + ess_net - gen_sum - p_grid

    breakdown = price_slot(config.costs, p_ess, p_gen, p_grid, alpha, inputs.load[slot])
    return DispatchResult(tuple(p_ess), tuple(p_gen), p_grid, alpha, inputs.load[slot],
                          inputs.pv[slot], pv_curtailed, connected, residual,
                          sum(breakdown), breakdown)


def price_slot(costs: CostParams, p_ess: Sequence[float], p_gen: Sequence[float],
               p_grid: float, alpha: float, p_load: Sequence[float]) -> CostBreakdown:
    """The slot's cost in $ by term; skipping exact-zero terms changes no bit."""
    return CostBreakdown(
        ess=sum(costs.lambda_ess * -p for p in p_ess if p < 0.0) * SLOT_HOURS,
        gen=sum(costs.lambda_gen * p for p in p_gen if p) * SLOT_HOURS,
        grid=costs.lambda_grid * abs(p_grid) * SLOT_HOURS,
        shed=sum(alpha * costs.lambda_load * p for p in p_load) * SLOT_HOURS
        if alpha else 0.0,
    )


def reward_for_agent(result: DispatchResult, costs: CostParams) -> list[float]:
    """Every agent's reward in fleet order: negative slot cost where the
    storage-wear term counts only the agent's own discharge."""
    b = result.cost_breakdown
    shared = b.gen + b.grid + b.shed
    return [-(costs.lambda_ess * abs(min(p, 0.0)) * SLOT_HOURS + shared) for p in result.p_ess]
