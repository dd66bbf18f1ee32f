"""Quarter-hourly PV/load series: CSV ingestion, capacity scaling, synthetic
generation, forecast-error injection and stress perturbations.

CSV schema (documented here, see also README): a header row followed by one
row per slot. The first column is an ISO timestamp at 15-minute resolution.
Either one column per device, named after the device ids in the config, or
the two aggregate columns ``pv_total,load_total`` which are allocated across
devices proportionally to capacity. Days with missing or extra slots are
rejected, never interpolated.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .grid import SLOTS_PER_DAY, LoadSpec, PvSpec


class SeriesError(ValueError):
    """Malformed or gap-ridden input series."""


@dataclass
class SeriesSet:
    """Per-device quarter-hourly actuals in MW, shaped (device, day, slot)."""

    pv: np.ndarray
    load: np.ndarray
    day_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.pv.ndim != 3 or self.load.ndim != 3:
            raise SeriesError("series arrays must be (device, day, slot)")
        if self.pv.shape[1:] != self.load.shape[1:]:
            raise SeriesError("pv and load must cover the same days/slots")
        if (self.pv < 0).any() or (self.load < 0).any():
            raise SeriesError("series values must be non-negative")

    @property
    def n_days(self) -> int:
        return self.pv.shape[1]

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.pv).tobytes())
        h.update(np.ascontiguousarray(self.load).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class ForecastModel:
    """Gaussian forecast errors as a fraction of device capacity."""

    std_pv: float = 0.05
    std_load: float = 0.03

    def __post_init__(self) -> None:
        if self.std_pv < 0 or self.std_load < 0:
            raise ValueError("forecast stds must be >= 0")


@dataclass
class ForecastTable:
    """Predictions made at slot t for slots t+1..t+T-1.

    Arrays are shaped (device, day, slot, lead-1); lead index k stores the
    prediction of slot t+k+1 issued at slot t, clipped to device bounds.
    """

    pv: np.ndarray
    load: np.ndarray
    horizon: int


def load_csv(path: str, pv_specs: list[PvSpec], load_specs: list[LoadSpec]) -> SeriesSet:
    """Parse a series CSV into a validated SeriesSet.

    Raises SeriesError naming line numbers for malformed rows and listing any
    day whose slot count is not exactly ``SLOTS_PER_DAY``.
    """
    rows: list[tuple[datetime, list[float]]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SeriesError(f"{path}: empty file") from None
        columns = [c.strip() for c in header[1:]]
        aggregate = columns == ["pv_total", "load_total"]
        expected = [s.id for s in pv_specs] + [s.id for s in load_specs]
        if not aggregate and columns != expected:
            raise SeriesError(
                f"{path}: header must be timestamp plus {expected} or "
                "timestamp,pv_total,load_total")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SeriesError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                ts = datetime.fromisoformat(row[0].strip())
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: {exc}") from None
            if any(not np.isfinite(v) or v < 0 for v in values):
                raise SeriesError(f"{path}:{lineno}: negative or non-finite value")
            if rows and ts <= rows[-1][0]:
                raise SeriesError(f"{path}:{lineno}: timestamps must be increasing")
            rows.append((ts, values))

    by_day: dict[str, list[list[float]]] = {}
    for ts, values in rows:
        by_day.setdefault(ts.date().isoformat(), []).append(values)
    bad = [f"{day} has {len(slots)} slots" for day, slots in by_day.items()
           if len(slots) != SLOTS_PER_DAY]
    if bad:
        raise SeriesError(f"{path}: days with gaps rejected: " + "; ".join(bad))
    if not by_day:
        raise SeriesError(f"{path}: no data rows")

    labels = tuple(sorted(by_day))
    data = np.array([by_day[d] for d in labels], dtype=float)  # (day, slot, col)
    if aggregate:
        pv_caps = np.array([s.p_max for s in pv_specs])
        load_caps = np.array([s.p_max for s in load_specs])
        pv = np.einsum("ds,i->ids", data[:, :, 0], pv_caps / pv_caps.sum())
        load = np.einsum("ds,l->lds", data[:, :, 1], load_caps / load_caps.sum())
    else:
        n_pv = len(pv_specs)
        pv = np.transpose(data[:, :, :n_pv], (2, 0, 1))
        load = np.transpose(data[:, :, n_pv:], (2, 0, 1))
    return SeriesSet(pv=np.ascontiguousarray(pv), load=np.ascontiguousarray(load),
                     day_labels=labels)


def scale_to_capacity(series: SeriesSet, pv_specs: list[PvSpec],
                      load_specs: list[LoadSpec]) -> SeriesSet:
    """Rescale each device so its observed maximum hits its rated capacity.

    Pure gain scaling: zero stays zero, ratios within a series are preserved.
    """
    pv = series.pv.copy()
    load = series.load.copy()
    for i, spec in enumerate(pv_specs):
        peak = pv[i].max()
        if peak > 0:
            pv[i] *= spec.p_max / peak
    for i, spec in enumerate(load_specs):
        peak = load[i].max()
        if peak > 0:
            load[i] *= spec.p_max / peak
    return SeriesSet(pv=pv, load=load, day_labels=series.day_labels)


def make_forecasts(series: SeriesSet, model: ForecastModel, horizon: int,
                   rng: np.random.Generator, pv_specs: list[PvSpec],
                   load_specs: list[LoadSpec]) -> ForecastTable:
    """Predictions as truth plus independent Gaussian noise per device, slot
    and lead, clipped to the device's physical range."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    def _table(actual: np.ndarray, caps: np.ndarray, std: float) -> np.ndarray:
        n_dev, n_days, n_slots = actual.shape
        out = np.empty((n_dev, n_days, n_slots, horizon - 1))
        for k in range(1, horizon):
            target = np.roll(actual, -k, axis=2)
            # Targets beyond the day's end hold the final slot's value.
            target[:, :, n_slots - k:] = actual[:, :, -1][:, :, None]
            noise = rng.normal(0.0, 1.0, size=target.shape)
            noisy = target + noise * std * caps[:, None, None]
            out[:, :, :, k - 1] = np.clip(noisy, 0.0, caps[:, None, None])
        return out

    pv_caps = np.array([s.p_max for s in pv_specs], dtype=float)
    load_caps = np.array([s.p_max for s in load_specs], dtype=float)
    return ForecastTable(
        pv=_table(series.pv, pv_caps, model.std_pv),
        load=_table(series.load, load_caps, model.std_load),
        horizon=horizon,
    )


def stress_transform(series: SeriesSet, pv_factor: float, load_factor: float) -> SeriesSet:
    """Scale the actuals to model systematic forecast bias.

    Forecasts should be built from the unstressed series before calling this,
    so that predictions keep tracking the original truth.
    """
    return SeriesSet(pv=series.pv * pv_factor, load=series.load * load_factor,
                     day_labels=series.day_labels)


def synth_generator(rng: np.random.Generator, days: int, pv_specs: list[PvSpec],
                    load_specs: list[LoadSpec]) -> SeriesSet:
    """Synthetic but plausible days: a solar arc for PV and a double-peaked
    demand curve, both with day-level and slot-level noise."""
    slots = np.arange(SLOTS_PER_DAY, dtype=float)
    pv = np.zeros((len(pv_specs), days, SLOTS_PER_DAY))
    load = np.zeros((len(load_specs), days, SLOTS_PER_DAY))
    for d in range(days):
        sunrise = 24.0 + rng.uniform(-2.0, 2.0)
        daylight = 48.0 + rng.uniform(-4.0, 4.0)
        weather = rng.uniform(0.65, 1.0)
        arc = np.clip(np.sin(np.pi * (slots - sunrise) / daylight), 0.0, None)
        arc[slots < sunrise] = 0.0
        arc[slots > sunrise + daylight] = 0.0
        for i, spec in enumerate(pv_specs):
            jitter = 1.0 + 0.05 * rng.standard_normal(SLOTS_PER_DAY)
            pv[i, d] = np.clip(spec.p_max * weather * arc * jitter, 0.0, spec.p_max)

        morning = np.exp(-((slots - (32.0 + rng.uniform(-2, 2))) ** 2) / (2 * 6.0 ** 2))
        evening = np.exp(-((slots - (76.0 + rng.uniform(-2, 2))) ** 2) / (2 * 7.0 ** 2))
        shape = 0.35 + 0.22 * morning + 0.55 * evening
        for i, spec in enumerate(load_specs):
            jitter = 1.0 + 0.03 * rng.standard_normal(SLOTS_PER_DAY)
            load[i, d] = np.clip(spec.p_max * shape * jitter, 0.05 * spec.p_max,
                                 spec.p_max)
    labels = tuple(f"synth-{d:03d}" for d in range(days))
    return SeriesSet(pv=pv, load=load, day_labels=labels)


def split_days(n_days: int, rng: np.random.Generator,
               test_fraction: float = 0.25) -> tuple[list[int], list[int]]:
    """Deterministic whole-day train/test split (75/25 by default)."""
    order = rng.permutation(n_days)
    n_test = max(1, round(n_days * test_fraction))
    test = sorted(int(i) for i in order[:n_test])
    train = sorted(int(i) for i in order[n_test:])
    return train, test
