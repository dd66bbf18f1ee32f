"""Storm model: bell-shaped disconnection probabilities and outage sampling.

Each episode day gets a primary risk peak at a uniformly random slot plus
three sibling breakpoints whose peaks are shifted by up to three slots. A
slot trips when any breakpoint's fresh uniform draw falls below that
breakpoint's probability for the slot; the whole microgrid then islands for
a duration drawn uniformly from 12..15 slots. At most one outage per day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SLOTS_PER_DAY


@dataclass(frozen=True)
class DisconnectionProfile:
    peak_slot: int  # primary breakpoint
    peak_prob: float
    width_slots: float
    breakpoint_peaks: tuple[int, ...]  # primary first
    probabilities: np.ndarray  # (n_breakpoints, slots)


@dataclass(frozen=True)
class OutageDraw:
    onset_slot: int
    duration_slots: int
    breakpoint: int


def build_profile(rng: np.random.Generator, slots_per_day: int = SLOTS_PER_DAY,
                  peak_prob: float = 0.3, width: float = 4.0,
                  n_breakpoints: int = 4, shift_range: int = 3) -> DisconnectionProfile:
    """Sample one day of disconnection probabilities.

    The primary peak slot is uniform over the day; each additional breakpoint
    reuses the same bell with its peak shifted uniformly in
    [-shift_range, +shift_range] slots.
    """
    if not 0.0 < peak_prob <= 1.0:
        raise ValueError("peak_prob must be in (0, 1]")
    if width <= 0.0:
        raise ValueError("width must be positive")
    primary = int(rng.integers(slots_per_day))
    peaks = [primary]
    for _ in range(n_breakpoints - 1):
        peaks.append(primary + int(rng.integers(-shift_range, shift_range + 1)))
    t = np.arange(slots_per_day, dtype=float)
    probs = np.stack([
        peak_prob * np.exp(-((t - p) ** 2) / (2.0 * width ** 2)) for p in peaks
    ])
    return DisconnectionProfile(
        peak_slot=primary,
        peak_prob=peak_prob,
        width_slots=width,
        breakpoint_peaks=tuple(peaks),
        probabilities=probs,
    )


def sample_outage(rng: np.random.Generator, profile: DisconnectionProfile,
                  duration_range: tuple[int, int] = (12, 15)) -> OutageDraw | None:
    """One fresh uniform draw per slot per breakpoint; the first hit islands
    the microgrid. Returns None when no draw triggers over the day."""
    draws = rng.random(profile.probabilities.shape)
    hits = draws < profile.probabilities
    if not hits.any():
        return None
    any_hit = hits.any(axis=0)
    onset = int(np.argmax(any_hit))
    breakpoint = int(np.argmax(hits[:, onset]))
    lo, hi = duration_range
    duration = int(rng.integers(lo, hi + 1))
    return OutageDraw(onset_slot=onset, duration_slots=duration, breakpoint=breakpoint)


def counter(t: int, peak_slot: int, disconnected: bool) -> int:
    """Slots left until the primary risk peak; zero once disconnected."""
    if disconnected:
        return 0
    return max(peak_slot - t, 0)
