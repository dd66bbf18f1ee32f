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


class TestMakeForecasts:
    def test_zero_std_equals_truth(self):
        rng = np.random.default_rng(1)
        series = synth_generator(rng, 2, PV2, LOAD2)
        table = make_forecasts(series, ForecastModel(0.0, 0.0), 8,
                               np.random.default_rng(2), PV2, LOAD2)
        for k in range(1, 8):
            got = table.pv[0, 0, :96 - k, k - 1]
            assert np.allclose(got, series.pv[0, 0, k:])

    def test_end_of_day_last_value_hold(self):
        rng = np.random.default_rng(1)
        series = synth_generator(rng, 1, PV2, LOAD2)
        table = make_forecasts(series, ForecastModel(0.0, 0.0), 8,
                               np.random.default_rng(2), PV2, LOAD2)
        # Prediction issued at slot 95 for any lead holds the slot-95 value.
        assert table.load[1, 0, 95, :] == pytest.approx(
            [series.load[1, 0, 95]] * 7)

    def test_noise_std_close_to_nominal(self):
        pv = np.full((1, 11, 96), 5.0)
        load = np.full((1, 11, 96), 5.0)
        series = SeriesSet(pv, load, tuple(f"d{i}" for i in range(11)))
        specs_pv = [PvSpec(id="PV1", p_max=10.0)]
        specs_load = [LoadSpec(id="L1", p_max=10.0)]
        table = make_forecasts(series, ForecastModel(0.05, 0.03), 8,
                               np.random.default_rng(3), specs_pv, specs_load)
        err = table.pv[0, :, :, :] - 5.0  # truth constant, no clipping active
        assert err.std() == pytest.approx(0.05 * 10.0, rel=0.03)

    def test_clipping_keeps_nonnegative(self):
        pv = np.zeros((2, 2, 96))
        load = np.zeros((2, 2, 96)) + 0.01
        series = SeriesSet(pv, load, ("a", "b"))
        table = make_forecasts(series, ForecastModel(0.5, 0.5), 4,
                               np.random.default_rng(4), PV2, LOAD2)
        assert (table.pv >= 0).all()
        assert (table.load >= 0).all()


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
