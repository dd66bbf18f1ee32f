"""Episode environment: one simulated day of ``SLOTS_PER_DAY`` slots.

Owns the SoC trajectory, the day's schedule and the data cursors. Each slot
a policy is given one :class:`Observation` (per-ESS SoC, slots-to-risk-peak
counter, grid tie, and the forecast window whose column 0 is the slot's raw
device values) and commands ESS powers in MW; generators, shedding and the
grid tie resolve automatically. The learners' features leave the tie out
(``maddpg.features``). Outages are drawn once per episode at reset, so the
agent knows the risk profile but not the actual onset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import ForecastTable, SeriesSet, build_window
from .grid import (
    SLOT_HOURS,
    SLOTS_PER_DAY,
    DispatchResult,
    MicrogridConfig,
    day_inputs,
    resolve_slot,
    reward_for_agent,
    step_soc,
)
from .outage import OutageDraw, build_profile, grid_tie, sample_outage


@dataclass
class Observation:
    soc: np.ndarray  # per ESS
    counter: int  # slots until the primary risk peak, same for all agents
    slot: int  # the slot whose window this is; 95 on the terminal observation
    windows: np.ndarray  # the day's read-only (SLOTS_PER_DAY, devices, horizon) stack
    connected: bool  # this slot's grid tie

    @property
    def window(self) -> np.ndarray:
        """This slot's (devices, horizon) window, a view into ``windows``."""
        return self.windows[self.slot]


@dataclass
class OutageSettings:
    peak_prob: float = 0.3
    width_slots: float = 4.0
    breakpoints: int = 4
    shift_range: int = 3
    duration_range: tuple[int, int] = (12, 15)
    forced_onset: int | None = None
    forced_duration: int | None = None
    forced_peak_slot: int | None = None


@dataclass
class EpisodeRecord:
    day: int
    results: list[DispatchResult] = field(default_factory=list)
    soc_trace: list[list[float]] = field(default_factory=list)
    outage: OutageDraw | None = None

    @property
    def cost(self) -> float:
        return sum(r.cost_total for r in self.results)

    @property
    def shed_mwh(self) -> float:
        """Load energy left unserved over the day."""
        return sum(r.alpha * sum(r.p_load) for r in self.results) * SLOT_HOURS


class MicrogridEnv:
    """Steps one day at a time; owned by a single rollout at a time."""

    def __init__(self, config: MicrogridConfig, series: SeriesSet,
                 forecasts: ForecastTable, outage_cfg: OutageSettings,
                 horizon: int):
        self.config = config
        self.series = series
        self.forecasts = forecasts
        self.outage_cfg = outage_cfg
        self.horizon = horizon
        self.n_agents = config.n_agents
        self._slot = SLOTS_PER_DAY  # no episode before the first reset
        self.record: EpisodeRecord | None = None

    @property
    def obs_window_rows(self) -> int:
        return self.forecasts.windows.shape[2]

    def reset(self, day: int, rng: np.random.Generator) -> Observation:
        """Start an episode on a dataset day; samples this day's storm."""
        if not 0 <= day < self.series.n_days:
            raise IndexError(f"day {day} outside dataset of {self.series.n_days}")
        self._slot = 0
        self._soc = [self.config.initial_soc] * self.n_agents
        # A new view every day: policies key their per-day encoding on it.
        self._windows = build_window(self.forecasts, day)
        cfg = self.outage_cfg
        if cfg.forced_onset is not None:
            duration = cfg.forced_duration or cfg.duration_range[0]
            outage = OutageDraw(cfg.forced_onset, duration)
            peak_slot = (cfg.forced_peak_slot if cfg.forced_peak_slot
                         is not None else cfg.forced_onset)
        elif cfg.peak_prob <= 0.0:
            outage = None
            peak_slot = int(rng.integers(SLOTS_PER_DAY))
        else:
            profile = build_profile(rng, cfg.peak_prob, cfg.width_slots,
                                    cfg.breakpoints, cfg.shift_range)
            outage = sample_outage(rng, profile, cfg.duration_range)
            peak_slot = profile.peak_slot
        t = np.arange(SLOTS_PER_DAY)
        onset, _ = outage or (SLOTS_PER_DAY, 0)
        self._inputs = day_inputs(self.config, self.series.pv[:, day],
                                  self.series.load[:, day], grid_tie(outage))
        # Slots left until the primary risk peak; zero from the onset on.
        self._counters = np.where(t < onset, np.maximum(peak_slot - t, 0),
                                  0).tolist()
        self.record = EpisodeRecord(day=day, outage=outage)
        self.record.soc_trace.append(self._soc)
        return self._observe()

    def _observe(self) -> Observation:
        slot = min(self._slot, SLOTS_PER_DAY - 1)
        return Observation(
            soc=np.array(self._soc),
            counter=self._counters[slot],
            slot=slot,
            windows=self._windows,
            connected=self._inputs.connected[slot],
        )

    def step(self, commands_mw: np.ndarray):
        """Resolve the current slot. Returns (result, rewards,
        next_observation, done), with every agent's reward in fleet order."""
        if self._slot >= SLOTS_PER_DAY:
            raise RuntimeError("no episode in progress; call reset")
        result = resolve_slot(self.config, self._inputs, self._slot,
                              np.asarray(commands_mw, float).tolist())
        rewards = reward_for_agent(result, self.config.costs)
        self._soc = step_soc(self.config.ess, self._soc, result.p_ess, SLOT_HOURS).soc
        self._slot += 1
        done = self._slot >= SLOTS_PER_DAY
        self.record.results.append(result)
        self.record.soc_trace.append(self._soc)
        return result, rewards, self._observe(), done
