import numpy as np
import pytest

from gridres.outage import DisconnectionProfile, build_profile, counter, sample_outage


def fixed_profile(peak_slot=40, peak_prob=0.3, width=4.0, n_breakpoints=1):
    t = np.arange(96, dtype=float)
    probs = np.stack([
        peak_prob * np.exp(-((t - peak_slot) ** 2) / (2 * width ** 2))
        for _ in range(n_breakpoints)
    ])
    return DisconnectionProfile(peak_slot, tuple([peak_slot] * n_breakpoints),
                                probs)


class TestBuildProfile:
    def test_peak_value(self):
        rng = np.random.default_rng(0)
        prof = build_profile(rng, peak_prob=0.3, width=4.0)
        assert prof.probabilities[0, prof.peak_slot] == pytest.approx(0.3)

    def test_symmetry_about_peak(self):
        rng = np.random.default_rng(1)
        prof = build_profile(rng, peak_prob=0.25, width=5.0)
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
            prof = build_profile(rng, peak_prob=rng.uniform(0.05, 1.0),
                                 width=rng.uniform(1, 10))
            assert (prof.probabilities >= 0).all()
            assert (prof.probabilities <= 1).all()

    def test_breakpoint_shifts_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            prof = build_profile(rng, shift_range=3)
            for p in prof.breakpoint_peaks[1:]:
                assert abs(p - prof.peak_slot) <= 3

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_profile(rng, peak_prob=0.0)
        with pytest.raises(ValueError):
            build_profile(rng, width=0.0)


class TestSampleOutage:
    def test_zero_profile_never_trips(self):
        prof = fixed_profile(peak_prob=1e-300)
        rng = np.random.default_rng(4)
        prof.probabilities[:] = 0.0
        for _ in range(200):
            assert sample_outage(rng, prof) is None

    def test_certain_peak_trips_by_peak(self):
        prof = fixed_profile(peak_slot=40, peak_prob=1.0, width=4.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            draw = sample_outage(rng, prof)
            assert draw is not None
            assert draw.onset_slot <= 40

    def test_duration_uniform_over_12_to_15(self):
        prof = fixed_profile(peak_prob=1.0)
        rng = np.random.default_rng(6)
        counts = np.zeros(4)
        n = 20000
        for _ in range(n):
            draw = sample_outage(rng, prof)
            counts[draw.duration_slots - 12] += 1
        # Chi-square against uniform, 3 dof: 16.27 is the 0.1% cutoff.
        expected = n / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27

    def test_onset_frequency_matches_closed_form(self):
        # Monte-Carlo oracle: P(outage) = 1 - prod_t prod_b (1 - F_bt).
        rng = np.random.default_rng(7)
        prof = build_profile(rng, peak_prob=0.02, width=3.0)
        p_any = 1.0 - float(np.prod(1.0 - prof.probabilities))
        n = 100_000
        hits = sum(sample_outage(rng, prof) is not None for _ in range(n))
        assert hits / n == pytest.approx(p_any, abs=0.01)


class TestCounter:
    def test_at_peak(self):
        assert counter(40, 40, False) == 0

    def test_before_peak(self):
        assert counter(35, 40, False) == 5

    def test_disconnected_forces_zero(self):
        assert counter(10, 40, True) == 0

    def test_non_increasing_until_outage(self):
        values = [counter(t, 50, t >= 60) for t in range(96)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[60:] == [0] * 36
