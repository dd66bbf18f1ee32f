import numpy as np
import pytest

from gradcheck import assert_grads_close, numeric_grad
from gridres import diffkit as dk
from gridres.dataio import ForecastModel, build_window, make_forecasts, synth_generator
from gridres.encoder import DayEncoding, GruEncoder
from gridres.grid import LoadSpec, PvSpec
from test_dataio import reference_gather_windows, reference_make_forecasts

PV = [PvSpec(id="PV1", p_max=1.0), PvSpec(id="PV2", p_max=2.0)]
LOAD = [LoadSpec(id="L1", p_max=1.0)]


def series_and_forecasts(std=0.0, days=2, horizon=8, seed=1):
    series = synth_generator(np.random.default_rng(seed), days, PV, LOAD)
    table = make_forecasts(series, series, ForecastModel(std, std), horizon,
                           np.random.default_rng(seed + 1), PV, LOAD)
    return series, table


def per_slot_window(series, forecasts, day, t, horizon):
    """One slot's window by the per-slot rule the day stack replaced, over
    the reference (device, day, slot, lead) forecasts."""
    n_slots = series.pv.shape[2]
    rows = series.pv.shape[0] + series.load.shape[0]
    window = np.empty((rows, horizon))
    window[: series.pv.shape[0], 0] = series.pv[:, day, t]
    window[series.pv.shape[0]:, 0] = series.load[:, day, t]
    for j in range(1, horizon):
        lead = min(j, n_slots - 1 - t)
        if lead == 0:
            window[:, j] = window[:, 0]
        else:
            window[: series.pv.shape[0], j] = forecasts.pv[:, day, t, lead - 1]
            window[series.pv.shape[0]:, j] = forecasts.load[:, day, t, lead - 1]
    return window


class TestBuildWindow:
    def test_single_column_horizon(self):
        series, table = series_and_forecasts(horizon=1)
        w = build_window(table, 0)
        assert w.shape == (96, 3, 1)
        assert w[40, :, 0] == pytest.approx(
            list(series.pv[:, 0, 40]) + [series.load[0, 0, 40]])

    def test_constant_series_perfect_forecasts(self):
        series, table = series_and_forecasts()
        series.pv[:] = 0.7
        series.load[:] = 0.3
        table = make_forecasts(series, series, ForecastModel(0, 0), 8,
                               np.random.default_rng(0), PV, LOAD)
        w = build_window(table, 0)
        assert np.allclose(w[:, :2], 0.7)
        assert np.allclose(w[:, 2:], 0.3)

    def test_end_of_day_holds_last_value(self):
        series, table = series_and_forecasts()
        w = build_window(table, 1)
        for j in range(1, 8):
            assert np.allclose(w[95, :, j], w[95, :, 0])
        # One slot earlier: only the first forecast column is real.
        assert np.allclose(w[94, :, 2:], np.repeat(w[94, :, 1:2], 6, axis=1))

    @pytest.mark.parametrize("horizon", [1, 4, 8])
    def test_day_stack_matches_per_slot_rule_bit_for_bit(self, horizon):
        series = synth_generator(np.random.default_rng(1), 3, PV, LOAD)
        model = ForecastModel(0.1, 0.1)
        table = make_forecasts(series, series, model, horizon,
                               np.random.default_rng(2), PV, LOAD)
        reference = reference_make_forecasts(series, model, horizon,
                                             np.random.default_rng(2), PV, LOAD)
        for day in range(3):
            stack = build_window(table, day)
            assert stack.shape == (96, 3, horizon)
            for t in range(96):
                want = per_slot_window(series, reference, day, t, horizon)
                assert stack[t].tobytes() == want.tobytes(), (day, t)

    @pytest.mark.parametrize("horizon", [1, 4, 8])
    def test_pair_gather_matches_day_stack_bit_for_bit(self, horizon):
        """Every (day, slot) pair, in a shuffled order with repeats, indexes
        its day stack's row from the table as the replay does, and the
        reference gather returns the same bytes: slot 0, the slots whose
        horizon crosses the day's end and the last slot included."""
        series = synth_generator(np.random.default_rng(1), 3, PV, LOAD)
        model = ForecastModel(0.1, 0.1)
        table = make_forecasts(series, series, model, horizon,
                               np.random.default_rng(2), PV, LOAD)
        reference = reference_make_forecasts(series, model, horizon,
                                             np.random.default_rng(2), PV, LOAD)
        stacks = [build_window(table, day) for day in range(3)]
        pairs = np.argwhere(np.ones((3, 96), bool))
        pairs = np.concatenate([pairs, pairs[:50]])
        np.random.default_rng(7).shuffle(pairs)
        got = table.windows[pairs[:, 0], pairs[:, 1]]
        want = reference_gather_windows(series, reference, horizon,
                                        pairs[:, 0], pairs[:, 1])
        assert got.shape == (len(pairs), 3, horizon)
        assert got.tobytes() == want.tobytes()
        for (day, t), window in zip(pairs, got):
            assert window.tobytes() == stacks[day][t].tobytes(), (day, t)
        one = table.windows[[2], [95]]
        assert one.tobytes() == stacks[2][95:].tobytes()


def make_encoder(seed=0):
    return GruEncoder(np.array([1.0, 2.0, 1.0]), np.random.default_rng(seed))


class TestGruEncoder:
    def test_zero_params_zero_vector(self):
        enc = make_encoder()
        for k in enc.params:
            enc.params[k] = np.zeros_like(enc.params[k])
        v, _ = enc.forward(np.random.default_rng(0).uniform(0, 1, (2, 3, 8)))
        assert np.array_equal(v, np.zeros((2, 16)))

    def test_output_dimension_and_nonnegative(self):
        enc = make_encoder(seed=3)
        v, _ = enc.forward(np.random.default_rng(4).uniform(0, 2, (10, 3, 8)))
        assert v.shape == (10, 16)
        assert (v >= 0).all()
        assert np.isfinite(v).all()

    def test_deterministic(self):
        enc = make_encoder(seed=5)
        w = np.random.default_rng(6).uniform(0, 1, (4, 3, 8))
        assert enc.forward(w)[0].tobytes() == enc.forward(w)[0].tobytes()

    def test_column_order_matters(self):
        enc = make_encoder(seed=7)
        rng = np.random.default_rng(8)
        w = rng.uniform(0.1, 1.0, (1, 3, 8))
        assert not np.allclose(enc.forward(w)[0],
                               enc.forward(w[:, :, ::-1].copy())[0])

    def test_batched_matches_single(self):
        enc = make_encoder(seed=9)
        rng = np.random.default_rng(10)
        windows = rng.uniform(0, 1, (4, 3, 8))
        batch, _ = enc.forward(windows)
        for i in range(4):
            single, _ = enc.forward(windows[i:i + 1])
            assert np.allclose(batch[i], single[0], rtol=0, atol=1e-12)

    def test_window_rows_must_match_capacities(self):
        enc = make_encoder()
        with pytest.raises(dk.ShapeError, match="window rows 2 vs 3 capacities"):
            enc.forward(np.ones((1, 2, 4)))

    def test_parameter_gradients(self):
        enc = make_encoder(seed=11)
        rng = np.random.default_rng(12)
        windows = rng.uniform(0.1, 1.0, (2, 3, 4))
        seed_grad = rng.standard_normal((2, 16))

        def loss():
            v, _ = enc.forward(windows)
            return float((v * seed_grad).sum())

        v, cache = enc.forward(windows)
        grads = enc.backward(cache, seed_grad)
        # Spot-check every parameter family, including both GRU layers.
        for name in ["emb/W", "l0/Wz", "l0/Uh", "l0/br", "l1/Wh", "l1/Uz",
                     "head/W", "head/b"]:
            num = numeric_grad(lambda _: loss(), enc.params[name])
            assert_grads_close(grads[name], num, context=name)


class TestDayEncoding:
    @pytest.mark.parametrize("span, want", [
        (None, [96]), (24, [24] * 4), (25, [25, 25, 25, 21]), (5, [5] * 18 + [6])])
    def test_passes_of_span_keep_the_whole_day_bits(self, span, want):
        """Read slot by slot, a day is encoded in passes of ``span`` windows
        from the slot asked for, the last pass never leaving slot 95 to a
        one-window pass of its own; every vector keeps the bits of the
        whole-day pass."""
        series, table = series_and_forecasts(horizon=8)
        windows = build_window(table, 1)
        enc = make_encoder(seed=13)
        whole, _ = enc.forward(windows)
        passes = []
        forward = enc.forward
        enc.forward = lambda w: (passes.append(len(w)), forward(w))[1]
        day = DayEncoding(enc, windows, span)
        got = np.stack([day.vector(slot) for slot in range(96)])
        assert got.tobytes() == whole.tobytes()
        assert passes == want

    def test_clear_encodes_from_the_next_slot_asked_for(self):
        series, table = series_and_forecasts(horizon=8)
        windows = build_window(table, 0)
        enc = make_encoder(seed=14)
        day = DayEncoding(enc, windows, 10)
        day.vector(0)
        for k in enc.params:
            enc.params[k] = enc.params[k] * 0.5
        day.clear()
        want, _ = enc.forward(windows[40:50])
        assert day.vector(40).tobytes() == want[0].tobytes()
        assert day.vector(49).tobytes() == want[9].tobytes()
