import dataclasses
import math

import numpy as np
import pytest

from gridres.grid import (
    CostParams,
    DispatchError,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    SLOT_HOURS,
    day_inputs,
    dispatch_generators,
    price_slot,
    reward_for_agent,
    resolve_slot,
    step_soc,
)
from test_harness_helpers import table_config


def ess(p_min=-2.0, p_max=2.0, cap=6.0, eff_ch=0.999, eff_dis=1.001, **kw):
    return EssSpec(id="E", p_min=p_min, p_max=p_max, energy_cap=cap,
                   soc_min=0.1, soc_max=0.9, eff_charge=eff_ch,
                   eff_discharge=eff_dis, **kw)


TABLE_GENS = [GeneratorSpec(id=f"G{i}", p_max=p)
              for i, p in enumerate([2.0, 1.0, 1.0, 1.0, 1.0])]


def small_config(n_ess=1, gens=True):
    return MicrogridConfig(
        ess=tuple(ess() for _ in range(n_ess)),
        generators=tuple(TABLE_GENS) if gens else (),
        pv=(PvSpec(id="PV1", p_max=10.0),),
        loads=(LoadSpec(id="L1", p_max=10.0),),
        costs=CostParams(),
    )


def slot_inputs(cfg, connected, pv, load):
    """The inputs of a one-slot day of a one-PV, one-load fleet."""
    return day_inputs(cfg, [[pv]], [[load]], [connected])


class TestStepSoc:
    def test_charge_worked_value(self):
        # 0.5 + 0.999 * 2 * 0.25 / 6
        out = step_soc(ess(), 0.5, 2.0, 0.25)
        assert out.soc == pytest.approx(0.583250, abs=1e-12)
        assert out.excess == 0.0

    def test_zero_power_identity(self):
        assert step_soc(ess(), 0.5, 0.0, 0.25).soc == 0.5

    def test_discharge_worked_value(self):
        # 0.5 - 1.001 * 2 * 0.25 / 6
        out = step_soc(ess(), 0.5, -2.0, 0.25)
        assert out.soc == pytest.approx(0.5 - 1.001 * 0.5 / 6.0, abs=1e-12)

    def test_clamping_reports_excess(self):
        out = step_soc(ess(), 0.89, 2.0, 0.25)
        assert out.soc == 0.9
        assert out.excess > 0.0
        assert out.excess == pytest.approx(0.89 + 0.999 * 0.5 / 6.0 - 0.9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            step_soc(ess(), float("nan"), 1.0, 0.25)
        with pytest.raises(ValueError):
            step_soc(ess(), 0.5, float("inf"), 0.25)

    def test_round_trip_never_gains(self):
        # Charging some energy then discharging the same energy cannot raise
        # SoC when eff_charge <= 1 <= eff_discharge.
        rng = np.random.default_rng(7)
        spec = ess()
        for _ in range(500):
            soc0 = rng.uniform(0.3, 0.7)
            p = rng.uniform(0.1, 1.0)
            up = step_soc(spec, soc0, p, 0.25)
            down = step_soc(spec, up.soc, -p, 0.25)
            assert down.soc <= soc0 + 1e-12

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(11)
        spec = ess()
        for _ in range(2000):
            soc = rng.uniform(spec.soc_min, spec.soc_max)
            p = rng.uniform(spec.p_min, spec.p_max)
            out = step_soc(spec, soc, p, 0.25)
            assert spec.soc_min <= out.soc <= spec.soc_max


class TestDispatchGenerators:
    def test_demand_exceeds_capacity(self):
        assert dispatch_generators(TABLE_GENS, 7.2) == [2.0, 1.0, 1.0, 1.0, 1.0]

    def test_zero_demand(self):
        assert dispatch_generators(TABLE_GENS, 0.0) == [0.0] * 5

    def test_proportional_split(self):
        out = dispatch_generators(TABLE_GENS, 3.0)
        assert out == pytest.approx([1.0, 0.5, 0.5, 0.5, 0.5])

    def test_empty_fleet(self):
        assert dispatch_generators([], 4.0) == []

    def test_bounds_and_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            load = rng.uniform(0.0, 12.0)
            out = dispatch_generators(TABLE_GENS, load)
            for p, g in zip(out, TABLE_GENS):
                assert -1e-12 <= p <= g.p_max + 1e-12
            assert sum(out) == pytest.approx(min(6.0, load))


def islanded(load, ess_cmd, pv, gen_cap=None):
    """One islanded slot; a generator of ``gen_cap`` MW runs flat out when
    the load exceeds it, so the supply terms can be set independently."""
    gens = (GeneratorSpec(id="G", p_max=gen_cap),) if gen_cap else ()
    cfg = MicrogridConfig(ess=(ess(),), generators=gens,
                          pv=(PvSpec(id="PV1", p_max=10.0),),
                          loads=(LoadSpec(id="L1", p_max=10.0),))
    return resolve_slot(cfg, slot_inputs(cfg, False, pv=pv, load=load), 0, [ess_cmd])


class TestComputeShedding:
    """Shedding and curtailment of islanded slots, as resolve_slot computes them."""

    def test_deficit(self):
        out = islanded(load=5.0, ess_cmd=1.0, pv=2.0, gen_cap=3.0)
        assert out.alpha == pytest.approx(0.2)
        assert out.pv_curtailed == 0.0

    def test_exact_balance(self):
        out = islanded(load=5.0, ess_cmd=0.0, pv=2.0, gen_cap=3.0)
        assert (out.alpha, out.pv_curtailed) == (0.0, 0.0)

    def test_surplus_curtailed(self):
        out = islanded(load=2.0, ess_cmd=0.0, pv=4.0)
        assert out.alpha == 0.0
        assert out.pv_curtailed == pytest.approx(2.0)

    def test_zero_load(self):
        out = islanded(load=0.0, ess_cmd=1.0, pv=3.0)
        assert out.alpha == 0.0
        assert out.pv_curtailed == pytest.approx(2.0)


class TestResolveSlot:
    def test_connected_grid_closes_balance(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, True, pv=1.0, load=4.0), 0, [1.0])
        assert out.p_grid == pytest.approx(4.0)
        assert out.alpha == 0.0
        assert out.p_gen == (0.0,) * 5
        assert abs(out.balance_residual) <= 1e-9

    def test_islanded_all_zero(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, False, pv=0.0, load=0.0), 0, [0.0])
        assert out.p_grid == 0.0
        assert out.alpha == 0.0
        assert out.p_ess == (0.0,)
        assert sum(out.p_gen) == 0.0

    def test_islanded_chained_with_curtailment(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, False, pv=2.0, load=5.0), 0, [1.0])
        # Generators split 5 MW proportionally, PV surplus of 1 MW curtailed.
        assert sum(out.p_gen) == pytest.approx(5.0)
        assert out.alpha == 0.0
        assert out.pv_curtailed == pytest.approx(1.0)
        assert abs(out.balance_residual) <= 1e-9

    def test_command_out_of_bounds_raises(self):
        cfg = small_config()
        with pytest.raises(DispatchError):
            resolve_slot(cfg, slot_inputs(cfg, True, 1.0, 4.0), 0, [2.5])

    def test_islanded_never_uses_grid(self):
        cfg = small_config()
        rng = np.random.default_rng(5)
        for _ in range(200):
            day = slot_inputs(cfg, False, pv=rng.uniform(0, 10), load=rng.uniform(0, 10))
            out = resolve_slot(cfg, day, 0, [rng.uniform(-2, 2)])
            assert out.p_grid == 0.0
            assert 0.0 <= out.alpha <= 1.0
            assert abs(out.balance_residual) <= 1e-9

    def test_islanded_overcharge_scaled_back(self):
        # No PV, no load: charging demand has no source, must drop to zero.
        cfg = small_config(gens=True)
        out = resolve_slot(cfg, slot_inputs(cfg, False, pv=0.0, load=0.0), 0, [1.5])
        assert out.p_ess[0] == pytest.approx(0.0)
        assert abs(out.balance_residual) <= 1e-9

    def test_islanded_stranded_discharge_scaled_back(self):
        # No load and no export path: discharge beyond PV absorption is cut.
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, False, pv=0.0, load=0.0), 0, [-1.0])
        assert out.p_ess[0] == pytest.approx(0.0)
        assert abs(out.balance_residual) <= 1e-9

    def test_randomized_balance_residual(self):
        cfg = small_config(n_ess=2)
        rng = np.random.default_rng(19)
        for _ in range(500):
            connected = bool(rng.integers(2))
            day = slot_inputs(cfg, connected, pv=rng.uniform(0, 10),
                            load=rng.uniform(0, 10))
            cmds = list(rng.uniform(-2, 2, size=2))
            out = resolve_slot(cfg, day, 0, cmds)
            assert abs(out.balance_residual) <= 1e-9
            assert out.cost_total >= 0.0
            assert sum(out.cost_breakdown) == pytest.approx(out.cost_total, abs=1e-12)


def price(out, costs):
    return price_slot(costs, out.p_ess, out.p_gen, out.p_grid, out.alpha, out.p_load)


def discharge_result():
    """Slot with one ESS discharging 2 MW, gens at 3 MW, alpha=0.2 on 5 MW.

    Built directly (not via resolve_slot) to pin the pricing formula on
    hand-picked powers.
    """
    from gridres.grid import DispatchResult

    cfg = small_config()
    breakdown = price_slot(cfg.costs, (-2.0,), (3.0,), 0.0, 0.2, (5.0,))
    out = DispatchResult(
        p_ess=(-2.0,), p_gen=(3.0,), p_grid=0.0, alpha=0.2, p_load=(5.0,),
        p_pv=(0.0,), pv_curtailed=0.0, connected=False,
        balance_residual=0.0, cost_total=sum(breakdown), cost_breakdown=breakdown)
    return cfg, out


class TestCostAndReward:
    def test_worked_cost(self):
        cfg, out = discharge_result()
        assert out.cost_total == pytest.approx(0.85)
        assert out.cost_breakdown == pytest.approx((0.10, 0.375, 0.0, 0.375))

    def test_all_zero_slot(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, False, 0.0, 0.0), 0, [0.0])
        assert out.cost_total == 0.0
        assert reward_for_agent(0, out, cfg.costs) == 0.0

    def test_grid_import_only(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, True, 0.0, 4.0), 0, [0.0])
        assert out.p_grid == pytest.approx(4.0)
        assert out.cost_total == pytest.approx(0.30)

    def test_reward_owner_vs_idle_agent(self):
        cfg, out = discharge_result()
        assert reward_for_agent(0, out, cfg.costs) == pytest.approx(-0.85)
        # A second idle agent shares everything except the wear term.
        from dataclasses import replace
        out2 = replace(out, p_ess=(-2.0, 0.0))
        assert reward_for_agent(1, out2, cfg.costs) == pytest.approx(-0.75)

    def test_reward_is_negative_per_agent_cost(self):
        cfg = small_config()
        rng = np.random.default_rng(4)
        for _ in range(100):
            day = slot_inputs(cfg, False, pv=rng.uniform(0, 5), load=rng.uniform(0, 9))
            out = resolve_slot(cfg, day, 0, [rng.uniform(-2, 2)])
            assert reward_for_agent(0, out, cfg.costs) <= 0.0

    def test_reward_equals_scaled_per_agent_cost_bit_for_bit(self):
        # The reward reads the slot's priced terms; scaling by the slot
        # length is exact, so it equals pricing the agent's share in MW first.
        cfg = small_config(n_ess=2)
        c = cfg.costs
        rng = np.random.default_rng(5)
        for _ in range(300):
            day = slot_inputs(cfg, bool(rng.integers(2)), pv=rng.uniform(0, 10),
                            load=rng.uniform(0, 10))
            out = resolve_slot(cfg, day, 0, list(rng.uniform(-2, 2, size=2)))
            shared = (sum(c.lambda_gen * p for p in out.p_gen)
                      + c.lambda_grid * abs(out.p_grid)
                      + sum(out.alpha * c.lambda_load * p for p in out.p_load))
            for n in range(2):
                own = c.lambda_ess * abs(min(out.p_ess[n], 0.0))
                assert reward_for_agent(n, out, c) == -(own + shared) * SLOT_HOURS


class TestResilienceMetric:
    """The resilience metric is the negated shedding cost, read from the
    ``shed`` term of a slot's cost breakdown."""

    def test_zero_shedding(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, True, 1.0, 4.0), 0, [0.0])
        assert out.cost_breakdown.shed == 0.0

    def test_single_slot_value(self):
        cfg, out = discharge_result()
        assert -price(out, cfg.costs).shed == pytest.approx(-0.375)

    def test_linearity(self):
        cfg, out = discharge_result()
        from dataclasses import replace
        doubled = replace(out, alpha=0.4)
        assert price(doubled, cfg.costs).shed == pytest.approx(
            2 * price(out, cfg.costs).shed)


class TestCompiledFleet:
    """MicrogridConfig compiles its ESS limits and device capacities once."""

    def test_replace_recompiles_for_the_new_fleet(self):
        config = table_config()
        two = dataclasses.replace(config, ess=config.ess[:2])
        assert [a.shape for a in two.ess_limits] == [(2,)] * 5
        assert two.ess_limits.p_min.tolist() == [s.p_min for s in config.ess[:2]]
        # The compiled arrays stay out of equality, hashing and repr.
        again = dataclasses.replace(config, ess=config.ess[:2])
        assert two == again and hash(two) == hash(again)
        assert "capacities" not in repr(two) and "ess_limits" not in repr(two)

    def test_capacities_are_pv_then_loads_as_float(self):
        config = table_config()
        assert config.capacities.dtype == np.float64
        assert config.capacities.tolist() == [
            s.p_max for s in (*config.pv, *config.loads)]

    def test_compiled_arrays_are_read_only(self):
        config = table_config()
        with pytest.raises(ValueError, match="read-only"):
            config.capacities[0] = 0.0
        for limits in config.ess_limits:
            with pytest.raises(ValueError, match="read-only"):
                limits[0] = 0.0


class TestSpecValidation:
    def test_ess_bounds(self):
        with pytest.raises(ValueError):
            EssSpec(id="x", p_min=0.5, p_max=2.0, energy_cap=6.0,
                    soc_min=0.1, soc_max=0.9)
        with pytest.raises(ValueError):
            ess(eff_ch=1.1)
