"""Property tests of the SoC mask and the slot core over random fleets,
states of charge and raw actions, and of a day stepped through the env
against the slot core on hand-built one-slot days."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridres.baselines import RULE_TARGET_SOC, RulePolicy
from gridres.dataio import ForecastModel, SeriesSet, make_forecasts
from gridres.env import MicrogridEnv, Observation, OutageSettings
from gridres.grid import (
    BALANCE_TOL,
    SLOT_HOURS,
    SLOTS_PER_DAY,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    day_inputs,
    mask_bounds,
    resolve_slot,
    step_soc,
)
from test_harness_helpers import fleet_mask

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def between(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def fleets(draw, max_devices=3):
    """A fleet of 1-4 ESS with generators, PV and loads."""
    ess = tuple(
        EssSpec(id=f"E{i}", p_min=-draw(between(0.1, 3.0)),
                p_max=draw(between(0.1, 3.0)), energy_cap=draw(between(0.5, 10.0)),
                soc_min=draw(between(0.0, 0.4)), soc_max=draw(between(0.6, 1.0)),
                eff_charge=draw(between(0.9, 1.0)),
                eff_discharge=draw(between(1.0, 1.1)))
        for i in range(draw(st.integers(1, 4))))
    return MicrogridConfig(
        ess=ess,
        generators=tuple(GeneratorSpec(id=f"G{i}", p_max=draw(between(0.0, 3.0)))
                         for i in range(draw(st.integers(0, 3)))),
        pv=tuple(PvSpec(id=f"PV{i}", p_max=draw(between(0.1, 5.0)))
                 for i in range(draw(st.integers(1, max_devices)))),
        loads=tuple(LoadSpec(id=f"L{i}", p_max=draw(between(0.1, 5.0)))
                    for i in range(draw(st.integers(1, max_devices)))),
    )


@st.composite
def slots(draw):
    """(config, SoCs, inputs, raw actions): a fleet, one slot's SoCs, the
    inputs of a one-slot day, connected or islanded, and raw actions."""
    config = draw(fleets())
    soc = [draw(between(s.soc_min, s.soc_max)) for s in config.ess]
    connected = draw(st.booleans())
    inputs = day_inputs(
        config, [[draw(between(0.0, s.p_max))] for s in config.pv],
        [[draw(between(0.0, s.p_max))] for s in config.loads], [connected])
    pis = np.array([draw(between(-1.0, 1.0)) for _ in config.ess])
    return config, soc, inputs, pis


@PROPERTY
@given(slots())
def test_mask_maps_unit_interval_ends_to_bounds(slot):
    config, soc, _, _ = slot
    n = len(config.ess)
    low, up = mask_bounds(config.ess_limits, np.array(soc), SLOT_HOURS)
    assert (low <= 0.0).all() and (up >= 0.0).all()
    mask = fleet_mask(config.ess)
    ends = mask(np.array([-np.ones(n), np.ones(n)]), soc)
    np.testing.assert_allclose(ends, [low, up], rtol=0.0, atol=1e-12)


@PROPERTY
@given(slots())
def test_masked_slot_keeps_the_physics_invariants(slot):
    config, socs, inputs, pis = slot
    commands = fleet_mask(config.ess)(pis, socs)[0]
    # Raises DispatchError if a masked command fell outside its power limits.
    result = resolve_slot(config, inputs, 0, list(commands))

    assert abs(result.balance_residual) <= BALANCE_TOL
    assert 0.0 <= result.alpha <= 1.0
    if not inputs.connected[0]:
        assert result.p_grid == 0.0
    assert result.cost_total == pytest.approx(sum(result.cost_breakdown),
                                              rel=1e-12, abs=1e-12)
    assert result.cost_total >= 0.0
    update = step_soc(config.ess, socs, result.p_ess, SLOT_HOURS)
    for spec, soc, excess, p in zip(config.ess, update.soc, update.excess,
                                    result.p_ess):
        assert spec.soc_min <= soc <= spec.soc_max
        # The mask ignores eff_discharge, so only a discharge may clamp, and
        # by no more than its efficiency loss.
        slack = (spec.eff_discharge - 1.0) * abs(p) * SLOT_HOURS / spec.energy_cap
        assert abs(excess) <= slack + 1e-12


@st.composite
def rule_fleets(draw):
    """(config, SoCs): a fleet whose SoC windows share one drawn point, the
    initial SoC, so windows wholly above or below ``RULE_TARGET_SOC`` occur;
    each unit's SoC lies in its window and is often exactly on an edge."""
    common = draw(between(0.0, 1.0))
    ess, socs = [], []
    for i in range(draw(st.integers(1, 5))):
        soc_min, soc_max = draw(between(0.0, common)), draw(between(common, 1.0))
        assume(soc_min < soc_max)
        ess.append(EssSpec(id=f"E{i}", p_min=-draw(between(0.1, 3.0)),
                           p_max=draw(between(0.1, 3.0)),
                           energy_cap=draw(between(0.5, 10.0)),
                           soc_min=soc_min, soc_max=soc_max))
        socs.append(draw(st.one_of(st.just(soc_min), st.just(soc_max),
                                   between(soc_min, soc_max))))
    config = MicrogridConfig(ess=tuple(ess), generators=(),
                             pv=(PvSpec(id="PV", p_max=1.0),),
                             loads=(LoadSpec(id="L", p_max=1.0),),
                             initial_soc=common)
    return config, socs


@PROPERTY
@given(rule_fleets())
def test_connected_rule_is_the_target_move_clipped_into_the_mask(fleet):
    """The rule's connected command, the move to the setpoint clamped into
    each SoC window and clipped into the power limits, is bit for bit the
    unclamped move clipped into the mask's [low, up]."""
    config, socs = fleet
    soc = np.array(socs)
    obs = Observation(soc=soc, counter=0, slot=0,
                      windows=np.zeros((1, 2, 1)), connected=True)
    limits = config.ess_limits
    low, up = mask_bounds(limits, soc, SLOT_HOURS)
    raw = (RULE_TARGET_SOC - soc) * limits.energy_cap / SLOT_HOURS
    want = np.minimum(np.maximum(raw, low), up)
    assert repr(RulePolicy(config)(obs).tolist()) == repr(want.tolist())


def _device_day(rng, specs):
    """(devices, slots) inputs from -0.5 to 1.5 times each device's p_max,
    with exact zeros, signed zeros and exact limits mixed in."""
    caps = np.array([s.p_max for s in specs])[:, None]
    values = rng.uniform(-0.5, 1.5, size=(len(specs), SLOTS_PER_DAY)) * caps
    pick = rng.integers(6, size=values.shape)
    values = np.where(pick == 0, 0.0, values)
    values = np.where(pick == 1, -0.0, values)
    return np.where(pick == 2, caps, values)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(fleets(max_devices=12), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.tuples(st.integers(0, SLOTS_PER_DAY - 1),
                                      st.integers(1, 40))),
       st.booleans())
def test_env_day_matches_hand_built_slots(config, seed, outage, rule):
    """A day stepped through the env, its inputs clamped and summed once at
    reset, resolves every slot bit for bit as resolve_slot and step_soc do
    on a one-slot day; the clamp and sums are Python's min/max and
    left-to-right sum, and the observation carries the slot's tie and its
    raw values."""
    rng = np.random.default_rng(seed)
    pv, load = _device_day(rng, config.pv), _device_day(rng, config.loads)
    if rule:  # its generator rule takes no negative demand
        pv, load = np.where(pv < 0.0, -pv, pv), np.where(load < 0.0, -load, load)
    # SeriesSet rejects negative values when built; writing them afterwards
    # reaches the lower clamp of the slot inputs.
    series = SeriesSet(np.abs(pv)[:, None, :], np.abs(load)[:, None, :], ("d0",))
    series.pv[:, 0], series.load[:, 0] = pv, load
    table = make_forecasts(series, series, ForecastModel(0, 0), 4, rng,
                           list(config.pv), list(config.loads))
    onset, duration = outage or (SLOTS_PER_DAY, 0)
    env = MicrogridEnv(config, series, table,
                       OutageSettings(peak_prob=0.0) if outage is None else
                       OutageSettings(forced_onset=onset, forced_duration=duration),
                       horizon=4)
    mask = fleet_mask(config.ess)
    policy = RulePolicy(config) if rule else (
        lambda obs: mask(rng.uniform(-1, 1, len(obs.soc)), obs.soc)[0])
    obs = env.reset(0, np.random.default_rng(seed))
    soc = [config.initial_soc] * len(config.ess)
    for t in range(SLOTS_PER_DAY):
        tie = not onset <= t < onset + duration
        assert repr(obs.connected) == repr(tie)
        assert repr(obs.window[:, 0].tolist()) == repr(pv[:, t].tolist()
                                                       + load[:, t].tolist())
        commands = np.asarray(policy(obs), dtype=float).tolist()
        result, _, obs, _ = env.step(commands)
        assert repr(result.connected) == repr(tie)

        one = day_inputs(config, pv[:, t:t + 1], load[:, t:t + 1], [tie])
        for raw, specs, now, total in ((pv, config.pv, one.pv[0], one.pv_sum[0]),
                                       (load, config.loads, one.load[0],
                                        one.load_sum[0])):
            clamped = tuple(min(max(p, 0.0), s.p_max)
                            for p, s in zip(raw[:, t].tolist(), specs))
            assert repr(now) == repr(clamped)
            assert repr(total) == repr(sum(clamped))
        assert repr(result) == repr(resolve_slot(config, one, 0, commands))
        soc = step_soc(config.ess, soc, result.p_ess, SLOT_HOURS).soc
        assert repr(env.record.soc_trace[t + 1]) == repr(soc)
