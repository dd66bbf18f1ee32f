"""Storm model: bell-shaped disconnection probabilities and outage sampling.

Each episode day gets a primary risk peak at a uniformly random slot plus
three sibling breakpoints whose peaks are shifted by up to three slots. A
slot trips when any breakpoint's fresh uniform draw falls below that
breakpoint's probability for the slot; the whole microgrid then islands for
a duration drawn uniformly from 12..15 slots. At most one outage per day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import SLOTS_PER_DAY


@dataclass(frozen=True)
class DisconnectionProfile:
    peak_slot: int  # primary breakpoint
    probabilities: np.ndarray  # (n_breakpoints, slots)


class OutageDraw(NamedTuple):
    onset_slot: int
    duration_slots: int


def build_profile(rng: np.random.Generator, peak_prob: float, width: float,
                  n_breakpoints: int, shift_range: int) -> DisconnectionProfile:
    """Sample one day of disconnection probabilities.

    The primary peak slot is uniform over the day; each additional breakpoint
    reuses the same bell with its peak shifted uniformly in
    [-shift_range, +shift_range] slots.
    """
    if not 0.0 < peak_prob <= 1.0:
        raise ValueError("peak_prob must be in (0, 1]")
    if width <= 0.0:
        raise ValueError("width must be positive")
    primary = int(rng.integers(SLOTS_PER_DAY))
    peaks = [primary]
    for _ in range(n_breakpoints - 1):
        peaks.append(primary + int(rng.integers(-shift_range, shift_range + 1)))
    t = np.arange(SLOTS_PER_DAY, dtype=float)
    probs = np.stack([
        peak_prob * np.exp(-((t - p) ** 2) / (2.0 * width ** 2)) for p in peaks
    ])
    return DisconnectionProfile(peak_slot=primary, probabilities=probs)


def sample_outage(rng: np.random.Generator, profile: DisconnectionProfile,
                  duration_range: tuple[int, int]) -> OutageDraw | None:
    """One fresh uniform draw per slot per breakpoint; the first hit islands
    the microgrid. Returns None when no draw triggers over the day."""
    draws = rng.random(profile.probabilities.shape)
    hits = draws < profile.probabilities
    if not hits.any():
        return None
    onset = int(np.argmax(hits.any(axis=0)))
    lo, hi = duration_range
    duration = int(rng.integers(lo, hi + 1))
    return OutageDraw(onset_slot=onset, duration_slots=duration)


def grid_tie(outage: tuple[int, int] | None) -> np.ndarray:
    """The day's per-slot grid tie: False on the slots of an outage given as
    (onset, duration), True on every other slot."""
    onset, duration = outage or (SLOTS_PER_DAY, 0)
    t = np.arange(SLOTS_PER_DAY)
    return (t < onset) | (t >= onset + duration)
