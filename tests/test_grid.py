import dataclasses
import math

import numpy as np
import pytest

from gridres.grid import (
    CostParams,
    DispatchError,
    DispatchResult,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    SLOT_HOURS,
    SocUpdate,
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
        out = step_soc([ess()], [0.5], [2.0], 0.25)
        assert out.soc[0] == pytest.approx(0.583250, abs=1e-12)
        assert out.excess == [0.0]

    def test_zero_power_identity(self):
        assert step_soc([ess()], [0.5], [0.0], 0.25).soc == [0.5]

    def test_discharge_worked_value(self):
        # 0.5 - 1.001 * 2 * 0.25 / 6
        out = step_soc([ess()], [0.5], [-2.0], 0.25)
        assert out.soc[0] == pytest.approx(0.5 - 1.001 * 0.5 / 6.0, abs=1e-12)

    def test_clamping_reports_excess(self):
        (soc,), (excess,) = step_soc([ess()], [0.89], [2.0], 0.25)
        assert soc == 0.9
        assert excess > 0.0
        assert excess == pytest.approx(0.89 + 0.999 * 0.5 / 6.0 - 0.9)

    def test_fleet_steps_each_unit_in_order(self):
        specs = [ess(), ess(cap=3.0)]
        out = step_soc(specs, [0.5, 0.89], [-2.0, 2.0], 0.25)
        assert out.soc == [0.5 - 1.001 * 0.5 / 6.0, 0.9]
        assert out.excess[0] == 0.0 and out.excess[1] > 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            step_soc([ess()], [float("nan")], [1.0], 0.25)
        with pytest.raises(ValueError):
            step_soc([ess()], [0.5], [float("inf")], 0.25)

    def test_round_trip_never_gains(self):
        # Charging some energy then discharging the same energy cannot raise
        # SoC when eff_charge <= 1 <= eff_discharge.
        rng = np.random.default_rng(7)
        specs = [ess()] * 500
        soc0 = rng.uniform(0.3, 0.7, size=500).tolist()
        p = rng.uniform(0.1, 1.0, size=500).tolist()
        up = step_soc(specs, soc0, p, 0.25)
        down = step_soc(specs, up.soc, [-x for x in p], 0.25)
        for before, after in zip(soc0, down.soc):
            assert after <= before + 1e-12

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(11)
        spec = ess()
        soc = rng.uniform(spec.soc_min, spec.soc_max, size=2000).tolist()
        p = rng.uniform(spec.p_min, spec.p_max, size=2000).tolist()
        for out in step_soc([spec] * 2000, soc, p, 0.25).soc:
            assert spec.soc_min <= out <= spec.soc_max


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
        assert reward_for_agent(out, cfg.costs) == [0.0]

    def test_grid_import_only(self):
        cfg = small_config()
        out = resolve_slot(cfg, slot_inputs(cfg, True, 0.0, 4.0), 0, [0.0])
        assert out.p_grid == pytest.approx(4.0)
        assert out.cost_total == pytest.approx(0.30)

    def test_reward_owner_vs_idle_agent(self):
        cfg, out = discharge_result()
        assert reward_for_agent(out, cfg.costs) == pytest.approx([-0.85])
        # A second idle agent shares everything except the wear term.
        out2 = out._replace(p_ess=(-2.0, 0.0))
        assert reward_for_agent(out2, cfg.costs) == pytest.approx([-0.85, -0.75])

    def test_reward_is_negative_per_agent_cost(self):
        cfg = small_config()
        rng = np.random.default_rng(4)
        for _ in range(100):
            day = slot_inputs(cfg, False, pv=rng.uniform(0, 5), load=rng.uniform(0, 9))
            out = resolve_slot(cfg, day, 0, [rng.uniform(-2, 2)])
            assert reward_for_agent(out, cfg.costs)[0] <= 0.0

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
            rewards = reward_for_agent(out, c)
            assert len(rewards) == 2
            for n in range(2):
                own = c.lambda_ess * abs(min(out.p_ess[n], 0.0))
                assert rewards[n] == -(own + shared) * SLOT_HOURS


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
        doubled = out._replace(alpha=0.4)
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


# The per-unit SoC step and reward that the fleet calls replaced, verbatim:
# the reference the fleet calls must match bit for bit.

def _not_finite(name: str, value: float) -> None:
    raise ValueError(f"{name} must be finite, got {value!r}")


def unit_step_soc(spec: EssSpec, soc: float, p_ess: float, dt: float) -> SocUpdate:
    """Advance one storage unit by one slot.

    Charging applies ``eff_charge``, discharging (p_ess <= 0) applies
    ``eff_discharge``. The result is clamped to the SoC window; the clamped
    excess is reported so callers can tell saturation from a clean step.
    """
    if not math.isfinite(soc):
        _not_finite("soc", soc)
    if not math.isfinite(p_ess):
        _not_finite("p_ess", p_ess)
    if not math.isfinite(dt):
        _not_finite("dt", dt)
    eff = spec.eff_charge if p_ess > 0.0 else spec.eff_discharge
    raw = soc + eff * p_ess * dt / spec.energy_cap
    clamped = min(max(raw, spec.soc_min), spec.soc_max)
    return SocUpdate(clamped, raw - clamped)


def unit_reward_for_agent(n: int, result: DispatchResult, costs: CostParams) -> float:
    """Per-agent reward: negative slot cost where the storage-wear term counts
    only agent ``n``'s discharge while the other, priced terms are shared."""
    b = result.cost_breakdown
    own = costs.lambda_ess * abs(min(result.p_ess[n], 0.0)) * SLOT_HOURS
    return -(own + (b.gen + b.grid + b.shed))


def unit_steps(specs, socs, p_ess, dt):
    """The fleet step as the per-unit calls made it, as one SocUpdate of lists."""
    steps = [unit_step_soc(s, x, p, dt) for s, x, p in zip(specs, socs, p_ess)]
    return SocUpdate([u.soc for u in steps], [u.excess for u in steps])


def random_fleet(rng, n):
    """``n`` random units whose SoC windows all hold a random point, which
    is returned as the fleet's initial SoC."""
    common = float(rng.uniform(0.05, 0.95))
    specs = [EssSpec(
        id=f"E{i}", p_min=-float(rng.uniform(0.1, 3.0)),
        p_max=float(rng.uniform(0.1, 3.0)),
        energy_cap=float(rng.uniform(0.5, 10.0)),
        soc_min=float(rng.uniform(0.0, common)),
        soc_max=float(rng.uniform(common, 1.0)),
        eff_charge=float(rng.uniform(0.9, 1.0)),
        eff_discharge=float(rng.uniform(1.0, 1.1))) for i in range(n)]
    return specs, common


def random_socs(rng, specs):
    """Each unit's SoC inside its window, one in three exactly on an edge."""
    pick = rng.integers(6, size=len(specs))
    return [s.soc_min if k == 0 else s.soc_max if k == 1
            else float(rng.uniform(s.soc_min, s.soc_max))
            for s, k in zip(specs, pick)]


class TestFleetCallsMatchPerUnitReference:
    """The fleet's ``step_soc`` and ``reward_for_agent`` give, by ``repr``,
    the floats and the errors of the per-unit calls made in fleet order."""

    def test_soc_step_matches_on_random_fleets(self):
        rng = np.random.default_rng(23)
        clamped = zeros = 0
        for _ in range(2000):
            specs, _ = random_fleet(rng, int(rng.integers(1, 7)))
            socs = random_socs(rng, specs)
            # Commands up to twice the power limits, so steps clamp both ways;
            # exact and signed zeros mixed in.
            p = [float(rng.uniform(2.0 * s.p_min, 2.0 * s.p_max)) for s in specs]
            pick = rng.integers(6, size=len(specs))
            p = [0.0 if k == 0 else -0.0 if k == 1 else x for x, k in zip(p, pick)]
            dt = SLOT_HOURS if rng.integers(2) else float(rng.uniform(0.05, 1.0))
            got = step_soc(specs, socs, p, dt)
            assert repr(got) == repr(unit_steps(specs, socs, p, dt))
            clamped += sum(e != 0.0 for e in got.excess)
            zeros += sum(x == 0.0 for x in p)
        assert clamped > 500 and zeros > 500

    def test_non_finite_input_raises_the_same_error(self):
        rng = np.random.default_rng(29)
        bad = (float("nan"), float("inf"), float("-inf"))
        for _ in range(500):
            specs, _ = random_fleet(rng, int(rng.integers(1, 6)))
            socs = random_socs(rng, specs)
            p = [float(rng.uniform(s.p_min, s.p_max)) for s in specs]
            dt = SLOT_HOURS
            # One to three non-finite values among the SoCs, powers and dt.
            for _ in range(int(rng.integers(1, 4))):
                where, value = int(rng.integers(3)), bad[rng.integers(3)]
                if where == 2:
                    dt = value
                else:
                    (socs, p)[where][rng.integers(len(specs))] = value
            with pytest.raises(ValueError) as want:
                unit_steps(specs, socs, p, dt)
            with pytest.raises(ValueError, match="must be finite") as got:
                step_soc(specs, socs, p, dt)
            assert str(got.value) == str(want.value)

    def test_rewards_match_on_random_slots_with_both_islanded_rescales(self):
        rng = np.random.default_rng(31)
        rescaled = {"discharge": 0, "charge": 0}
        for _ in range(1500):
            specs, common = random_fleet(rng, int(rng.integers(1, 6)))
            gens = tuple(GeneratorSpec(id=f"G{i}", p_max=float(rng.uniform(0.0, 3.0)))
                         for i in range(int(rng.integers(0, 3))))
            cfg = MicrogridConfig(
                ess=tuple(specs), generators=gens,
                pv=(PvSpec(id="PV1", p_max=10.0),), loads=(LoadSpec(id="L1", p_max=10.0),),
                costs=CostParams(*rng.uniform(0.0, 2.0, size=4).tolist()),
                initial_soc=common)
            # Small loads and PV leave islanded discharge stranded; charging
            # beyond PV and generation exceeds the supply.
            day = slot_inputs(cfg, bool(rng.integers(4) == 0),
                              pv=float(rng.uniform(0.0, 2.0)),
                              load=float(rng.uniform(0.0, 4.0)))
            cmds = [float(rng.uniform(s.p_min, s.p_max)) for s in specs]
            pick = rng.integers(5, size=len(specs))
            cmds = [0.0 if k == 0 else x for x, k in zip(cmds, pick)]
            out = resolve_slot(cfg, day, 0, cmds)
            for sign, kind in ((-1.0, "discharge"), (1.0, "charge")):
                rescaled[kind] += any(c * sign > 0.0 and p != c
                                      for c, p in zip(cmds, out.p_ess))
            want = [unit_reward_for_agent(n, out, cfg.costs) for n in range(len(specs))]
            assert repr(reward_for_agent(out, cfg.costs)) == repr(want)
            socs = random_socs(rng, specs)
            assert repr(step_soc(specs, socs, out.p_ess, SLOT_HOURS)) == repr(
                unit_steps(specs, socs, out.p_ess, SLOT_HOURS))
        assert rescaled["discharge"] > 50 and rescaled["charge"] > 50


class TestDispatchResult:
    def test_repr_lists_every_field_as_the_dataclass_did(self):
        cfg, out = discharge_result()
        fields = ("p_ess", "p_gen", "p_grid", "alpha", "p_load", "p_pv",
                  "pv_curtailed", "connected", "balance_residual", "cost_total",
                  "cost_breakdown")
        assert DispatchResult._fields == fields
        assert repr(out) == "DispatchResult(" + ", ".join(
            f"{f}={getattr(out, f)!r}" for f in fields) + ")"
