"""Property tests of the SoC mask and the slot core over random fleets,
states of charge and raw actions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres.grid import (
    BALANCE_TOL,
    SLOT_HOURS,
    EssArrays,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    SimState,
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
def slots(draw):
    """(config, state, raw actions): a fleet of 1-4 ESS with generators, PV
    and loads, one slot's SoCs and powers, connected or islanded."""
    ess = tuple(
        EssSpec(id=f"E{i}", p_min=-draw(between(0.1, 3.0)),
                p_max=draw(between(0.1, 3.0)), energy_cap=draw(between(0.5, 10.0)),
                soc_min=draw(between(0.0, 0.4)), soc_max=draw(between(0.6, 1.0)),
                eff_charge=draw(between(0.9, 1.0)),
                eff_discharge=draw(between(1.0, 1.1)))
        for i in range(draw(st.integers(1, 4))))
    config = MicrogridConfig(
        ess=ess,
        generators=tuple(GeneratorSpec(id=f"G{i}", p_min=0.0,
                                       p_max=draw(between(0.0, 3.0)))
                         for i in range(draw(st.integers(0, 3)))),
        pv=tuple(PvSpec(id=f"PV{i}", p_max=draw(between(0.1, 5.0)))
                 for i in range(draw(st.integers(1, 3)))),
        loads=tuple(LoadSpec(id=f"L{i}", p_max=draw(between(0.1, 5.0)))
                    for i in range(draw(st.integers(1, 3)))),
    )
    connected = draw(st.booleans())
    state = SimState(
        soc=[draw(between(s.soc_min, s.soc_max)) for s in ess],
        connected=connected,
        pv_now=[draw(between(0.0, s.p_max)) for s in config.pv],
        load_now=[draw(between(0.0, s.p_max)) for s in config.loads],
    )
    pis = np.array([draw(between(-1.0, 1.0)) for _ in ess])
    return config, state, pis


@PROPERTY
@given(slots())
def test_mask_maps_unit_interval_ends_to_bounds(slot):
    config, state, _ = slot
    n = len(config.ess)
    low, up = mask_bounds(EssArrays.of(config.ess), np.array(state.soc), SLOT_HOURS)
    assert (low <= 0.0).all() and (up >= 0.0).all()
    mask = fleet_mask(config.ess)
    ends = mask(np.array([-np.ones(n), np.ones(n)]), state.soc)
    np.testing.assert_allclose(ends, [low, up], rtol=0.0, atol=1e-12)


@PROPERTY
@given(slots())
def test_masked_slot_keeps_the_physics_invariants(slot):
    config, state, pis = slot
    commands = fleet_mask(config.ess)(pis, state.soc)[0]
    # Raises DispatchError if a masked command fell outside its power limits.
    result = resolve_slot(config, state, list(commands))

    assert abs(result.balance_residual) <= BALANCE_TOL
    assert 0.0 <= result.alpha <= 1.0
    if not state.connected:
        assert result.p_grid == 0.0
    assert result.cost_total == pytest.approx(sum(result.cost_breakdown),
                                              rel=1e-12, abs=1e-12)
    assert result.cost_total >= 0.0
    for spec, soc, p in zip(config.ess, state.soc, result.p_ess):
        update = step_soc(spec, soc, p, SLOT_HOURS)
        assert spec.soc_min <= update.soc <= spec.soc_max
        # The mask ignores eff_discharge, so only a discharge may clamp, and
        # by no more than its efficiency loss.
        slack = (spec.eff_discharge - 1.0) * abs(p) * SLOT_HOURS / spec.energy_cap
        assert abs(update.excess) <= slack + 1e-12
