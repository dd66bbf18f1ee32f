import numpy as np
import pytest

from gridres.dataio import ForecastModel, make_forecasts, synth_generator
from gridres.env import MicrogridEnv, OutageSettings
from gridres.grid import CostParams, EssSpec, LoadSpec, MicrogridConfig, PvSpec
from gridres.outage import DisconnectionProfile, build_profile, sample_outage

DEFAULTS = OutageSettings()


def profile(rng, peak_prob=DEFAULTS.peak_prob, width=DEFAULTS.width_slots,
            shift_range=DEFAULTS.shift_range):
    return build_profile(rng, peak_prob, width, DEFAULTS.breakpoints, shift_range)


def sample(rng, prof):
    return sample_outage(rng, prof, DEFAULTS.duration_range)


def fixed_profile(peak_slot=40, peak_prob=0.3, width=4.0, n_breakpoints=1):
    t = np.arange(96, dtype=float)
    probs = np.stack([
        peak_prob * np.exp(-((t - peak_slot) ** 2) / (2 * width ** 2))
        for _ in range(n_breakpoints)
    ])
    return DisconnectionProfile(peak_slot, probs)


class TestBuildProfile:
    def test_peak_value(self):
        rng = np.random.default_rng(0)
        prof = profile(rng, peak_prob=0.3, width=4.0)
        assert prof.probabilities[0, prof.peak_slot] == pytest.approx(0.3)

    def test_symmetry_about_peak(self):
        rng = np.random.default_rng(1)
        prof = profile(rng, peak_prob=0.25, width=5.0)
        p = prof.peak_slot
        for k in range(1, 6):
            if 0 <= p - k and p + k < 96:
                assert prof.probabilities[0, p - k] == pytest.approx(
                    prof.probabilities[0, p + k])

    def test_bell_worked_value(self):
        # 0.3 * exp(-0.5) four slots away from the peak with width 4
        prof = fixed_profile(peak_slot=40, peak_prob=0.3, width=4.0)
        assert prof.probabilities[0, 44] == pytest.approx(0.3 * np.exp(-0.5), rel=1e-9)
        assert prof.probabilities[0, 44] == pytest.approx(0.18196, abs=1e-5)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            prof = profile(rng, peak_prob=rng.uniform(0.05, 1.0),
                           width=rng.uniform(1, 10))
            assert (prof.probabilities >= 0).all()
            assert (prof.probabilities <= 1).all()

    def test_breakpoint_shifts_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            prof = profile(rng, shift_range=3)
            # An edge-clipped peak still lies within the shift of the primary.
            for p in prof.probabilities.argmax(axis=1):
                assert abs(p - prof.peak_slot) <= 3

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            profile(rng, peak_prob=0.0)
        with pytest.raises(ValueError):
            profile(rng, width=0.0)


class TestSampleOutage:
    def test_zero_profile_never_trips(self):
        prof = fixed_profile(peak_prob=1e-300)
        rng = np.random.default_rng(4)
        prof.probabilities[:] = 0.0
        for _ in range(200):
            assert sample(rng, prof) is None

    def test_certain_peak_trips_by_peak(self):
        prof = fixed_profile(peak_slot=40, peak_prob=1.0, width=4.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            draw = sample(rng, prof)
            assert draw is not None
            assert draw.onset_slot <= 40

    def test_duration_uniform_over_12_to_15(self):
        prof = fixed_profile(peak_prob=1.0)
        rng = np.random.default_rng(6)
        counts = np.zeros(4)
        n = 20000
        for _ in range(n):
            draw = sample(rng, prof)
            counts[draw.duration_slots - 12] += 1
        # Chi-square against uniform, 3 dof: 16.27 is the 0.1% cutoff.
        expected = n / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27

    def test_onset_frequency_matches_closed_form(self):
        # Monte-Carlo oracle: P(outage) = 1 - prod_t prod_b (1 - F_bt).
        rng = np.random.default_rng(7)
        prof = profile(rng, peak_prob=0.02, width=3.0)
        p_any = 1.0 - float(np.prod(1.0 - prof.probabilities))
        n = 100_000
        hits = sum(sample(rng, prof) is not None for _ in range(n))
        assert hits / n == pytest.approx(p_any, abs=0.01)


def per_slot_connected(outage, slot):
    """The per-slot grid-tie rule the env's day schedule replaced."""
    if outage is None:
        return True
    return not (outage.onset_slot <= slot
                < outage.onset_slot + outage.duration_slots)


def per_slot_counter(slot, peak_slot, outage):
    """The per-slot slots-to-peak rule the env's day schedule replaced."""
    if outage is not None and slot >= outage.onset_slot:
        return 0
    return max(peak_slot - slot, 0)


def small_env(outage_cfg):
    config = MicrogridConfig(
        ess=(EssSpec(id="E1", p_min=-2.0, p_max=2.0, energy_cap=6.0,
                     soc_min=0.1, soc_max=0.9),),
        generators=(), pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=2.5),), costs=CostParams())
    series = synth_generator(np.random.default_rng(0), 2,
                             list(config.pv), list(config.loads))
    table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                           np.random.default_rng(1), list(config.pv), list(config.loads))
    return MicrogridEnv(config, series, table, outage_cfg, horizon=4)


def day_schedule(env, seed):
    """Each slot's (connected, counter) as a policy sees them."""
    obs = env.reset(0, np.random.default_rng(seed))
    seen = []
    for _ in range(96):
        seen.append((obs.connected, obs.counter))
        _, _, obs, _ = env.step(np.zeros(1))
    return seen


def counters(onset, peak_slot):
    """The env's slots-to-peak counters for a day with a forced outage."""
    cfg = OutageSettings(forced_onset=onset, forced_duration=12,
                         forced_peak_slot=peak_slot)
    return [counter for _, counter in day_schedule(small_env(cfg), 0)]


class TestCounter:
    def test_at_peak(self):
        assert counters(60, 40)[40] == 0

    def test_before_peak(self):
        assert counters(60, 40)[35] == 5

    def test_disconnected_forces_zero(self):
        assert counters(10, 40)[10:] == [0] * 86

    def test_non_increasing_until_outage(self):
        values = counters(60, 50)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[60:] == [0] * 36


class TestEnvDaySchedule:
    def check(self, outage_cfg, seed, peak_slot):
        env = small_env(outage_cfg)
        seen = day_schedule(env, seed)
        outage = env.record.outage
        assert seen == [(per_slot_connected(outage, t),
                         per_slot_counter(t, peak_slot, outage))
                        for t in range(96)]
        return outage

    def test_no_outage(self):
        for seed in range(5):
            # The peak slot is the env stream's first draw.
            peak = int(np.random.default_rng(seed).integers(96))
            assert self.check(OutageSettings(peak_prob=0.0), seed, peak) is None

    def test_sampled_outages(self):
        drawn = []
        for seed in range(12):
            # build_profile draws the primary peak first from the env stream.
            peak = int(np.random.default_rng(seed).integers(96))
            drawn.append(self.check(OutageSettings(peak_prob=0.02), seed, peak))
        assert any(d is None for d in drawn)
        assert any(d is not None for d in drawn)

    def test_forced_outage_past_end_of_day(self):
        cfg = OutageSettings(forced_onset=90, forced_duration=12)
        outage = self.check(cfg, 0, peak_slot=90)
        assert (outage.onset_slot, outage.duration_slots) == (90, 12)

    @pytest.mark.parametrize("peak_slot", [30, 60])
    def test_forced_peak_before_and_after_onset(self, peak_slot):
        cfg = OutageSettings(forced_onset=40, forced_duration=13,
                             forced_peak_slot=peak_slot)
        self.check(cfg, 0, peak_slot)

    def test_reset_rejects_day_outside_dataset(self):
        env = small_env(DEFAULTS)
        for day in (-1, 2):
            with pytest.raises(IndexError, match=f"day {day} outside dataset of 2"):
                env.reset(day, np.random.default_rng(0))

    def test_step_outside_an_episode_raises(self):
        env = small_env(DEFAULTS)
        with pytest.raises(RuntimeError, match="no episode in progress"):
            env.step(np.zeros(1))
        env.reset(0, np.random.default_rng(0))
        for _ in range(96):
            env.step(np.zeros(1))
        with pytest.raises(RuntimeError, match="no episode in progress"):
            env.step(np.zeros(1))


class TestResetWindows:
    def test_windows_are_read_only(self):
        obs = small_env(DEFAULTS).reset(0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="read-only"):
            obs.windows[3, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            obs.window[0, 1] = 1.0

    def test_two_resets_of_a_day_give_distinct_views_of_equal_bytes(self):
        """A policy keys its day encoding on the stack's identity, so each
        reset hands out a new view of the same table rows."""
        env = small_env(DEFAULTS)
        rng = np.random.default_rng(0)
        first, second = (env.reset(1, rng).windows for _ in range(2))
        assert first is not second
        assert first.tobytes() == second.tobytes()
        assert first.base is second.base is env.forecasts.windows
        assert first.tobytes() == env.forecasts.windows[1].tobytes()


class TestEnvBindings:
    def test_step_and_reset_call_the_module_bindings_once(self, monkeypatch):
        """A step calls the slot physics through ``env``'s own bindings of
        ``resolve_slot``, ``reward_for_agent`` and ``step_soc``, once each,
        and a reset calls its ``build_window`` once: the names a tracer
        wraps to time those layers."""
        from gridres import env as envmod

        physics = ("resolve_slot", "reward_for_agent", "step_soc")
        calls = dict.fromkeys((*physics, "build_window"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(envmod, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(envmod, name, counted)
        env = small_env(OutageSettings(forced_onset=40, forced_duration=12))
        for day in range(2):
            calls.update(dict.fromkeys(calls, 0))
            env.reset(day, np.random.default_rng(day))
            assert calls == {**dict.fromkeys(physics, 0), "build_window": 1}
            for slot in range(96):
                env.step([0.0] if slot % 2 else np.zeros(1))
                assert calls == {**dict.fromkeys(physics, slot + 1), "build_window": 1}
