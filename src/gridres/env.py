"""Episode environment: one simulated day of ``SLOTS_PER_DAY`` slots.

Owns the SoC trajectory, the islanding countdown and the data cursors. The
policies see (per-ESS SoC, slots-to-risk-peak counter, forecast window) and
command ESS powers in MW; generators, shedding and the grid tie resolve
automatically. Outages are drawn once per episode at reset, so the agent
knows the risk profile but not the actual onset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dataio import ForecastTable, SeriesSet
from .encoder import build_window
from .grid import (
    SLOTS_PER_DAY,
    DispatchResult,
    MicrogridConfig,
    SimState,
    resolve_slot,
    reward_for_agent,
    step_soc,
)
from .outage import OutageDraw, build_profile, counter, sample_outage


@dataclass
class Observation:
    soc: np.ndarray  # per ESS
    counter: int  # slots until the primary risk peak, same for all agents
    window: np.ndarray  # (devices, horizon)


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

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "OutageSettings":
        return cls(**d)


@dataclass
class EpisodeRecord:
    day: int
    results: list[DispatchResult] = field(default_factory=list)
    soc_trace: list[list[float]] = field(default_factory=list)
    outage: OutageDraw | None = None

    @property
    def cost(self) -> float:
        return sum(r.cost_total for r in self.results)


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
        self._day = 0
        self._slot = 0
        self._soc = [config.initial_soc] * self.n_agents
        self._outage: OutageDraw | None = None
        self._peak_slot = 0
        self.record: EpisodeRecord | None = None

    @property
    def obs_window_rows(self) -> int:
        return self.series.pv.shape[0] + self.series.load.shape[0]

    def reset(self, day: int, rng: np.random.Generator) -> Observation:
        """Start an episode on a dataset day; samples this day's storm."""
        if not 0 <= day < self.series.n_days:
            raise IndexError(f"day {day} outside dataset of {self.series.n_days}")
        self._day = day
        self._slot = 0
        self._soc = [self.config.initial_soc] * self.n_agents
        cfg = self.outage_cfg
        if cfg.forced_onset is not None:
            duration = cfg.forced_duration or cfg.duration_range[0]
            self._outage = OutageDraw(cfg.forced_onset, duration, 0)
            self._peak_slot = (cfg.forced_peak_slot if cfg.forced_peak_slot
                               is not None else cfg.forced_onset)
        elif cfg.peak_prob <= 0.0:
            self._outage = None
            self._peak_slot = int(rng.integers(SLOTS_PER_DAY))
        else:
            profile = build_profile(rng, SLOTS_PER_DAY, cfg.peak_prob,
                                    cfg.width_slots, cfg.breakpoints,
                                    cfg.shift_range)
            self._outage = sample_outage(rng, profile, cfg.duration_range)
            self._peak_slot = profile.peak_slot
        self.record = EpisodeRecord(day=day, outage=self._outage)
        self.record.soc_trace.append(list(self._soc))
        return self._observe()

    def _connected(self, slot: int) -> bool:
        if self._outage is None:
            return True
        return not (self._outage.onset_slot <= slot
                    < self._outage.onset_slot + self._outage.duration_slots)

    def _counter(self, slot: int) -> int:
        disconnected = (self._outage is not None
                        and slot >= self._outage.onset_slot)
        return counter(slot, self._peak_slot, disconnected)

    def _observe(self) -> Observation:
        slot = min(self._slot, SLOTS_PER_DAY - 1)
        return Observation(
            soc=np.array(self._soc),
            counter=self._counter(slot),
            window=build_window(self.series, self.forecasts, self._day, slot,
                                self.horizon),
        )

    def state(self) -> SimState:
        slot = self._slot
        connected = self._connected(slot)
        remaining = 0
        if not connected:
            remaining = self._outage.onset_slot + self._outage.duration_slots - slot
        return SimState(
            slot_index=slot,
            soc=list(self._soc),
            connected=connected,
            outage_slots_remaining=remaining,
            pv_now=list(self.series.pv[:, self._day, slot]),
            load_now=list(self.series.load[:, self._day, slot]),
        )

    def step(self, commands_mw: np.ndarray):
        """Resolve the current slot. Returns
        (result, rewards, next_observation, done)."""
        if self._slot >= SLOTS_PER_DAY:
            raise RuntimeError("episode is over; call reset")
        state = self.state()
        result = resolve_slot(self.config, state, list(commands_mw))
        rewards = np.array([reward_for_agent(n, result, self.config.costs)
                            for n in range(self.n_agents)])
        dt = self.config.costs.slot_hours
        self._soc = [step_soc(spec, soc, p, dt).soc
                     for spec, soc, p in zip(self.config.ess, self._soc, result.p_ess)]
        self._slot += 1
        done = self._slot >= SLOTS_PER_DAY
        self.record.results.append(result)
        self.record.soc_trace.append(list(self._soc))
        return result, rewards, self._observe(), done
