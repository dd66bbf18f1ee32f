from dataclasses import dataclass

import numpy as np
import pytest

from gridres import dataio
from gridres.dataio import (
    ForecastModel,
    SeriesError,
    SeriesSet,
    load_csv,
    make_forecasts,
    scale_to_capacity,
    split_days,
    stress_transform,
    synth_generator,
)
from gridres.grid import LoadSpec, PvSpec

PV2 = [PvSpec(id="PV1", p_max=1.0), PvSpec(id="PV2", p_max=2.0)]
LOAD2 = [LoadSpec(id="L1", p_max=1.0), LoadSpec(id="L2", p_max=3.0)]


def write_csv(tmp_path, rows, header):
    path = tmp_path / "series.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def day_rows(day, n_slots=96, pv=("0.5", "1.0"), load=("0.4", "1.2")):
    out = []
    for s in range(n_slots):
        hh, mm = divmod(s * 15, 60)
        out.append(f"2022-07-{day:02d}T{hh // 60}{hh:02d}"[:0] or
                   f"2022-07-{day:02d}T{hh:02d}:{mm:02d}:00," +
                   ",".join(pv + load))
    return out


class TestLoadCsv:
    def test_one_good_day(self, tmp_path):
        path = write_csv(tmp_path, day_rows(1), "timestamp,PV1,PV2,L1,L2")
        ss = load_csv(path, PV2, LOAD2)
        assert ss.n_days == 1
        assert ss.pv.shape == (2, 1, 96)
        assert ss.load[1, 0, 0] == pytest.approx(1.2)

    def test_gap_day_rejected_by_name(self, tmp_path):
        path = write_csv(tmp_path, day_rows(3, n_slots=95), "timestamp,PV1,PV2,L1,L2")
        with pytest.raises(SeriesError, match="2022-07-03"):
            load_csv(path, PV2, LOAD2)

    def test_aggregate_allocation_proportional_to_caps(self, tmp_path):
        rows = []
        for s in range(96):
            hh, mm = divmod(s * 15, 60)
            rows.append(f"2022-07-01T{hh:02d}:{mm:02d}:00,10,8")
        path = write_csv(tmp_path, rows, "timestamp,pv_total,load_total")
        ss = load_csv(path, PV2, LOAD2)
        # PV caps 1:2 split 10 MW, load caps 1:3 split 8 MW.
        assert ss.pv[:, 0, 0] == pytest.approx([10 / 3, 20 / 3])
        assert ss.load[:, 0, 0] == pytest.approx([2.0, 6.0])

    def test_malformed_row_names_line(self, tmp_path):
        rows = day_rows(1)
        rows[10] = "2022-07-01T02:30:00,abc,1.0,0.4,1.2"
        path = write_csv(tmp_path, rows, "timestamp,PV1,PV2,L1,L2")
        with pytest.raises(SeriesError, match=":12"):
            load_csv(path, PV2, LOAD2)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        rows = day_rows(1)
        rows[5], rows[6] = rows[6], rows[5]
        path = write_csv(tmp_path, rows, "timestamp,PV1,PV2,L1,L2")
        with pytest.raises(SeriesError, match="increasing"):
            load_csv(path, PV2, LOAD2)

    def test_mixed_naive_and_aware_timestamps_rejected(self, tmp_path):
        rows = day_rows(1)
        rows[0] = rows[0].replace("00:00:00,", "00:00:00+00:00,", 1)
        path = write_csv(tmp_path, rows, "timestamp,PV1,PV2,L1,L2")
        with pytest.raises(SeriesError, match=r":3: timestamps must all carry"):
            load_csv(path, PV2, LOAD2)


class TestScaleToCapacity:
    def test_max_maps_to_cap_and_ratio_constant(self):
        rng = np.random.default_rng(0)
        pv = rng.uniform(0.1, 0.6, size=(2, 3, 96))
        load = rng.uniform(0.1, 0.9, size=(2, 3, 96))
        ss = scale_to_capacity(SeriesSet(pv, load, ("a", "b", "c")), PV2, LOAD2)
        assert ss.pv[0].max() == pytest.approx(1.0)
        assert ss.pv[1].max() == pytest.approx(2.0)
        assert ss.load[1].max() == pytest.approx(3.0)
        ratio = ss.pv[0] / pv[0]
        assert np.allclose(ratio, ratio.flat[0])

    def test_all_zero_series_unchanged(self):
        pv = np.zeros((2, 1, 96))
        load = np.ones((2, 1, 96)) * 0.5
        ss = scale_to_capacity(SeriesSet(pv, load, ("a",)), PV2, LOAD2)
        assert (ss.pv == 0).all()


@dataclass
class ReferenceForecasts:
    """The (device, day, slot, lead-1) forecast layout the window table replaced."""

    pv: np.ndarray
    load: np.ndarray
    horizon: int


def reference_make_forecasts(series, model, horizon, rng, pv_specs, load_specs):
    """The forecast builder the window table replaced, kept verbatim."""
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
    return ReferenceForecasts(
        pv=_table(series.pv, pv_caps, model.std_pv),
        load=_table(series.load, load_caps, model.std_load),
        horizon=horizon,
    )


def reference_gather_windows(series, forecasts, horizon, days, slots):
    """The window gather the table replaced, kept verbatim: the (n, rows, T)
    windows of n (day, slot) pairs over ``series``' actuals and the reference
    forecasts."""
    n_slots, slots = series.pv.shape[2], np.asarray(slots)
    at = np.asarray(days) * n_slots + slots  # flat (day, slot) index
    ahead_at = (at * (horizon - 1))[:, None] + np.minimum(
        np.arange(horizon - 1), np.maximum(n_slots - 2 - slots, 0)[:, None])
    flat = lambda a: a.reshape(len(a), a[0].size)  # (device, day * slot ...)
    windows = np.empty((len(at), len(series.pv) + len(series.load), horizon))
    for rows, actual, ahead in ((slice(0, len(series.pv)), series.pv, forecasts.pv),
                                (slice(len(series.pv), None), series.load, forecasts.load)):
        windows[:, rows, 0] = flat(actual).take(at, axis=1).T
        windows[:, rows, 1:] = flat(ahead).take(ahead_at, axis=1).transpose(1, 0, 2)
    final = slots == n_slots - 1  # its columns 1..T-1 hold placeholders
    windows[final, :, 1:] = windows[final, :, :1]
    return windows


def reference_windows(series, served, model, horizon, seed):
    """Every (day, slot) window of ``served`` by the reference builders, as a
    (day, slot, rows, horizon) array, and the rng they drew from."""
    rng = np.random.default_rng(seed)
    forecasts = reference_make_forecasts(series, model, horizon, rng, PV2, LOAD2)
    days, slots = np.indices(series.pv.shape[1:]).reshape(2, -1)
    windows = reference_gather_windows(served, forecasts, horizon, days, slots)
    return windows.reshape(series.pv.shape[1:] + windows.shape[1:]), rng


class TestMakeForecasts:
    @pytest.mark.parametrize("stress", [(1.0, 1.0), (0.85, 1.15)])
    @pytest.mark.parametrize("horizon", [1, 2, 4, 8])
    def test_table_matches_the_reference_gather_bit_for_bit(self, horizon, stress):
        """Every (day, slot) window, the slots whose horizon crosses the day's
        end and the final slot included, keeps the reference's bytes, and
        the rng is left where the reference left it."""
        series = synth_generator(np.random.default_rng(1), 3, PV2, LOAD2)
        served = stress_transform(series, *stress)
        model = ForecastModel(0.05, 0.03)
        rng = np.random.default_rng(2)
        table = make_forecasts(series, served, model, horizon, rng, PV2, LOAD2)
        want, want_rng = reference_windows(series, served, model, horizon, 2)
        assert table.windows.shape == (3, 96, 4, horizon)
        assert table.windows.tobytes() == want.tobytes()
        assert rng.random(4).tobytes() == want_rng.random(4).tobytes()

    def test_zero_std_equals_truth(self):
        rng = np.random.default_rng(1)
        series = synth_generator(rng, 2, PV2, LOAD2)
        table = make_forecasts(series, series, ForecastModel(0.0, 0.0), 8,
                               np.random.default_rng(2), PV2, LOAD2)
        for k in range(1, 8):
            got = table.windows[0, :96 - k, 0, k]
            assert np.allclose(got, series.pv[0, 0, k:])

    def test_noise_std_close_to_nominal(self):
        pv = np.full((1, 11, 96), 5.0)
        load = np.full((1, 11, 96), 5.0)
        series = SeriesSet(pv, load, tuple(f"d{i}" for i in range(11)))
        specs_pv = [PvSpec(id="PV1", p_max=10.0)]
        specs_load = [LoadSpec(id="L1", p_max=10.0)]
        table = make_forecasts(series, series, ForecastModel(0.05, 0.03), 8,
                               np.random.default_rng(3), specs_pv, specs_load)
        # Each in-day forecast once; truth constant, no clipping active.
        err = np.concatenate([table.windows[:, :96 - k, 0, k].ravel() - 5.0
                              for k in range(1, 8)])
        assert err.std() == pytest.approx(0.05 * 10.0, rel=0.03)

    def test_clipping_keeps_nonnegative(self):
        pv = np.zeros((2, 2, 96))
        load = np.zeros((2, 2, 96)) + 0.01
        series = SeriesSet(pv, load, ("a", "b"))
        table = make_forecasts(series, series, ForecastModel(0.5, 0.5), 4,
                               np.random.default_rng(4), PV2, LOAD2)
        assert (table.windows >= 0).all()

    def test_table_is_read_only(self):
        series = synth_generator(np.random.default_rng(1), 1, PV2, LOAD2)
        table = make_forecasts(series, series, ForecastModel(0.05, 0.03), 4,
                               np.random.default_rng(2), PV2, LOAD2)
        with pytest.raises(ValueError, match="read-only"):
            table.windows[0, 0, 0, 0] = 1.0


class TestStressTransform:
    def test_identity(self):
        series = synth_generator(np.random.default_rng(5), 2, PV2, LOAD2)
        out = stress_transform(series, 1.0, 1.0)
        assert np.array_equal(out.pv, series.pv)
        assert np.array_equal(out.load, series.load)

    def test_pv_scaling_and_energy(self):
        series = synth_generator(np.random.default_rng(5), 2, PV2, LOAD2)
        out = stress_transform(series, 0.85, 1.15)
        assert np.allclose(out.pv, series.pv * 0.85)
        assert out.pv.sum() == pytest.approx(0.85 * series.pv.sum())
        assert np.allclose(out.load, series.load * 1.15)


class TestSynthGenerator:
    def test_pv_dark_outside_daylight(self):
        series = synth_generator(np.random.default_rng(6), 5, PV2, LOAD2)
        assert (series.pv[:, :, :20] == 0).all()
        assert (series.pv[:, :, 80:] == 0).all()

    def test_load_floor(self):
        series = synth_generator(np.random.default_rng(7), 5, PV2, LOAD2)
        for i, spec in enumerate(LOAD2):
            assert series.load[i].min() >= 0.05 * spec.p_max - 1e-12

    def test_two_daily_load_peaks(self):
        series = synth_generator(np.random.default_rng(8), 10, PV2, LOAD2)
        for d in range(10):
            total = series.load[:, d, :].sum(axis=0)
            # Smooth, then count prominent interior local maxima.
            kernel = np.ones(13)
            smooth = (np.convolve(total, kernel, mode="same")
                      / np.convolve(np.ones_like(total), kernel, mode="same"))
            lo, hi = smooth.min(), smooth.max()
            cut = lo + 0.25 * (hi - lo)
            peaks = [
                t for t in range(7, 89)
                if smooth[t] >= smooth[t - 1] and smooth[t] > smooth[t + 1]
                and smooth[t] > cut
            ]
            # Collapse peaks closer than 10 slots into one group.
            groups = 1 + sum(1 for a, b in zip(peaks, peaks[1:]) if b - a > 10)
            assert groups == 2, f"day {d}: peaks at {peaks}"


class TestWriteCsv:
    def test_93_days_round_trip_through_loader(self, tmp_path):
        series = synth_generator(np.random.default_rng(10), 93, PV2, LOAD2)
        path = str(tmp_path / "synth.csv")
        dataio.write_csv(path, series, PV2, LOAD2)
        loaded = load_csv(path, PV2, LOAD2)
        # July and August have 31 days and September 30, so day 93 is 1 October.
        assert loaded.day_labels[0] == "2022-07-01"
        assert loaded.day_labels[91:] == ("2022-09-30", "2022-10-01")
        np.testing.assert_allclose(loaded.pv, series.pv, rtol=0, atol=5e-7)
        np.testing.assert_allclose(loaded.load, series.load, rtol=0, atol=5e-7)


class TestSplitDays:
    def test_deterministic_and_sized(self):
        a = split_days(64, np.random.default_rng(9))
        b = split_days(64, np.random.default_rng(9))
        assert a == b
        train, test = a
        assert len(test) == 16
        assert len(train) == 48
        assert not set(train) & set(test)
