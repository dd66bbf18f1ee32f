import itertools
import tracemalloc

import numpy as np
import pytest

from gridres.baselines import (
    DpResult,
    DpSizeError,
    RulePolicy,
    TrainedPolicy,
    _dp_cost,
    _nearest_state,
    build_trainer,
    dp_oracle,
)
from gridres.dataio import ForecastModel, SeriesSet, make_forecasts, synth_generator
from gridres.env import MicrogridEnv, Observation, OutageSettings
from gridres.grid import (
    SLOT_HOURS,
    CostParams,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    day_inputs,
    dispatch_generators,
    mask_bounds,
    resolve_slot,
    step_soc,
)
from gridres.maddpg import TrainSettings
from gridres.outage import grid_tie


def one_ess_config(energy_cap=1.0):
    return MicrogridConfig(
        ess=(EssSpec(id="E1", p_min=-2.0, p_max=2.0, energy_cap=energy_cap,
                     soc_min=0.1, soc_max=0.9),),
        generators=(GeneratorSpec(id="G1", p_max=1.0),),
        pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=2.5),),
        costs=CostParams(),
    )


def two_ess_config():
    return MicrogridConfig(
        ess=(EssSpec(id="E1", p_min=-2.0, p_max=2.0, energy_cap=6.0,
                     soc_min=0.1, soc_max=0.9),
             EssSpec(id="E2", p_min=-1.0, p_max=1.0, energy_cap=3.0,
                     soc_min=0.1, soc_max=0.9)),
        generators=(),
        pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=2.5),),
        costs=CostParams(),
    )


def slot_obs(soc, connected, pv, load):
    """A one-slot observation of a one-PV, one-load fleet: the rule policy
    reads the SoC, the tie and the window's column 0 (PV rows, then loads)."""
    return Observation(soc=np.array(soc), counter=0, slot=0,
                       windows=np.array([[[pv], [load]]]), connected=connected)


class TestRulePolicy:
    def test_setpoint_reached_means_idle(self):
        config = one_ess_config()
        policy = RulePolicy(config)
        assert policy(slot_obs([0.5], True, pv=0.0, load=1.0))[0] == 0.0

    def test_below_setpoint_charges(self):
        config = one_ess_config()
        policy = RulePolicy(config)
        assert policy(slot_obs([0.3], True, pv=0.0, load=1.0))[0] > 0.0

    def test_islanded_proportional_headroom_split(self):
        config = two_ess_config()
        policy = RulePolicy(config)
        # Both units mid-range: headrooms are the power limits 2 and 1.
        cmds = policy(slot_obs([0.5, 0.5], False, pv=0.0, load=1.0))
        assert cmds == pytest.approx([-2.0 / 3.0, -1.0 / 3.0])

    def test_commands_always_inside_mask(self):
        config = two_ess_config()
        policy = RulePolicy(config)
        limits = config.ess_limits
        rng = np.random.default_rng(0)
        for _ in range(300):
            socs = list(rng.uniform(0.1, 0.9, size=2))
            connected = bool(rng.integers(2))
            cmds = policy(slot_obs(socs, connected, pv=rng.uniform(0, 2),
                                   load=rng.uniform(0, 2.5)))
            low, up = mask_bounds(limits, np.array(socs), SLOT_HOURS)
            assert (low - 1e-12 <= cmds).all() and (cmds <= up + 1e-12).all()

    def test_holds_setpoint_on_calm_days(self):
        config = one_ess_config(energy_cap=6.0)
        series = synth_generator(np.random.default_rng(1), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                               np.random.default_rng(2),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table,
                           OutageSettings(peak_prob=0.0), horizon=4)
        policy = RulePolicy(config)
        rng = np.random.default_rng(3)
        obs = env.reset(0, rng)
        devs = []
        done = False
        while not done:
            _, _, obs, done = env.step(policy(obs))
            devs.append(abs(env._soc[0] - 0.5))
        assert float(np.mean(devs[8:])) < 0.05


def scenario_arrays(config, slots=4, load=2.0, pv=0.5):
    pv_arr = np.full((len(config.pv), slots), pv)
    load_arr = np.full((len(config.loads), slots), load)
    return pv_arr, load_arr


class TestDpOracle:
    def test_no_outage_zero_load_idle(self):
        config = one_ess_config()
        pv, load = scenario_arrays(config, slots=6, load=0.0, pv=0.0)
        out = dp_oracle(config, pv, load, outage=None, grid_points=5,
                        refine=False)
        assert out.cost == pytest.approx(0.0)
        assert np.allclose(out.commands, 0.0)

    def test_matches_exhaustive_enumeration(self):
        config = one_ess_config(energy_cap=1.0)
        slots = 4
        pv, load = scenario_arrays(config, slots=slots, load=2.0, pv=0.5)
        outage = (1, 2)  # slots 1 and 2 islanded
        grid = np.linspace(0.1, 0.9, 3)
        spec = config.ess[0]
        limits = config.ess_limits
        dt = SLOT_HOURS

        def command(soc_from, soc_to):
            eff = spec.eff_charge if soc_to > soc_from else spec.eff_discharge
            return (soc_to - soc_from) * spec.energy_cap / (eff * dt)

        tie = [not outage[0] <= t < outage[0] + outage[1] for t in range(slots)]
        inputs = day_inputs(config, pv, load, tie)
        best = np.inf
        start = grid[np.argmin(np.abs(grid - config.initial_soc))]
        for path in itertools.product(range(3), repeat=slots):
            soc = start
            cost = 0.0
            feasible = True
            for t, gi in enumerate(path):
                target = grid[gi]
                p = command(soc, target)
                (low,), (up,) = mask_bounds(limits, soc, dt)
                if not low - 1e-12 <= p <= up + 1e-12:
                    feasible = False
                    break
                result = resolve_slot(config, inputs, t, [p])
                if abs(result.p_ess[0] - p) > 1e-9:
                    feasible = False  # slot physics had to rescale the command
                    break
                cost += result.cost_total
                (soc,) = step_soc([spec], [soc], result.p_ess, dt).soc
                # Enumeration tracks the grid value; step_soc agrees closely.
                assert soc == pytest.approx(target, abs=1e-9)
                soc = target
            if feasible:
                best = min(best, cost)

        out = dp_oracle(config, pv, load, outage, grid_points=3, refine=False)
        assert out.cost == pytest.approx(best, abs=1e-9)

    def test_refinement_never_increases_cost(self):
        config = one_ess_config()
        rng = np.random.default_rng(4)
        pv = rng.uniform(0, 1.5, size=(1, 8))
        load = rng.uniform(0.5, 2.4, size=(1, 8))
        coarse = dp_oracle(config, pv, load, (2, 4), grid_points=5, refine=False)
        fine = dp_oracle(config, pv, load, (2, 4), grid_points=9, refine=False)
        assert fine.cost <= coarse.cost + 1e-12

    def test_delta_grid_reported(self):
        config = one_ess_config()
        rng = np.random.default_rng(5)
        pv = rng.uniform(0, 1.5, size=(1, 8))
        load = rng.uniform(0.5, 2.4, size=(1, 8))
        out = dp_oracle(config, pv, load, (2, 4), grid_points=5, refine=True)
        assert out.delta_grid >= 0.0

    def test_size_guard(self):
        config = two_ess_config()
        pv, load = scenario_arrays(config)
        with pytest.raises(DpSizeError):
            dp_oracle(config, pv, load, None, grid_points=81, refine=False)

    def test_schedule_replays_to_reported_cost(self):
        self.check_replay(load_scale=1.0)

    def test_stressed_schedule_replays_to_reported_cost(self):
        # Loads at 1.15x, as --stress load=1.15 gives: 13 slots exceed the
        # load's p_max, and the DP prices them clamped as the env does.
        self.check_replay(load_scale=1.15)

    @staticmethod
    def check_replay(load_scale):
        config = one_ess_config(energy_cap=1.0)
        rng = np.random.default_rng(6)
        slots = 96
        pv = rng.uniform(0, 1.5, size=(1, slots))
        load = rng.uniform(0.3, 2.4, size=(1, slots)) * load_scale
        outage = (40, 13)
        out = dp_oracle(config, pv, load, outage, grid_points=17, refine=False)

        series = SeriesSet(pv[:, None, :], load[:, None, :], ("d0",))
        table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                               np.random.default_rng(7),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table,
                           OutageSettings(forced_onset=outage[0],
                                          forced_duration=outage[1]),
                           horizon=4)
        env.reset(0, np.random.default_rng(8))
        for commands in out.commands:
            env.step(commands)
        assert env.record.cost == pytest.approx(out.cost, abs=1e-8)

    def test_dp_lower_bounds_rule_policy(self):
        config = one_ess_config(energy_cap=2.0)
        rng = np.random.default_rng(9)
        slots = 96
        pv = rng.uniform(0, 1.0, size=(1, slots))
        load = rng.uniform(0.5, 2.4, size=(1, slots))
        outage = (60, 14)
        out = dp_oracle(config, pv, load, outage, grid_points=21)

        series = SeriesSet(pv[:, None, :], load[:, None, :], ("d0",))
        table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                               np.random.default_rng(10),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table,
                           OutageSettings(forced_onset=outage[0],
                                          forced_duration=outage[1]),
                           horizon=4)
        policy = RulePolicy(config)
        obs = env.reset(0, np.random.default_rng(11))
        done = False
        while not done:
            _, _, obs, done = env.step(policy(obs))
        assert out.cost <= env.record.cost + out.delta_grid + 1e-9


def reference_dp_cost(config, inputs, grid_points) -> DpResult:
    """The DP as it was before the row-block sweep: whole joint tables per
    pass. Kept as the reference that ``_dp_cost`` must match bit for bit."""
    costs = config.costs
    n_ess = len(config.ess)
    connected, pv_sum, load_sum = inputs.connected, inputs.pv_sum, inputs.load_sum
    slots = len(load_sum)
    grids = [np.linspace(s.soc_min, s.soc_max, grid_points) for s in config.ess]
    n_states = grid_points ** n_ess

    lows, ups = mask_bounds(config.ess_limits, np.stack(grids, axis=1), SLOT_HOURS)
    per_net, per_dis, per_feas = [], [], []
    for i, (spec, grid) in enumerate(zip(config.ess, grids)):
        delta_soc = grid[None, :] - grid[:, None]
        eff = np.where(delta_soc > 0, spec.eff_charge, spec.eff_discharge)
        power = delta_soc * spec.energy_cap / (eff * SLOT_HOURS)
        low, up = lows[:, i], ups[:, i]
        feas = (power >= low[:, None] - 1e-12) & (power <= up[:, None] + 1e-12)
        per_net.append(power)
        per_dis.append(np.abs(np.minimum(power, 0.0)))
        per_feas.append(feas)

    net = np.zeros((1, 1))
    dis = np.zeros((1, 1))
    feas = np.ones((1, 1), dtype=bool)
    for p, d, f in zip(per_net, per_dis, per_feas):
        s_old, a_old = net.shape
        g = p.shape[0]
        net = (net[:, None, :, None] + p[None, :, None, :]).reshape(
            s_old * g, a_old * g)
        dis = (dis[:, None, :, None] + d[None, :, None, :]).reshape(
            s_old * g, a_old * g)
        feas = (feas[:, None, :, None] & f[None, :, None, :]).reshape(
            s_old * g, a_old * g)

    gen_sum = [sum(dispatch_generators(config.generators, l)) for l in load_sum]

    wear = costs.lambda_ess * dis * SLOT_HOURS
    value = np.zeros(n_states)
    policy = np.zeros((slots, n_states), dtype=np.int32)
    for t in reversed(range(slots)):
        if connected[t]:
            slot_cost = wear + costs.lambda_grid * np.abs(
                load_sum[t] + net - pv_sum[t]) * SLOT_HOURS
            ok = feas
        else:
            gap = load_sum[t] + net - pv_sum[t] - gen_sum[t]
            ok = feas & (gap >= -pv_sum[t] - 1e-12) & (gap <= load_sum[t] + 1e-12)
            if load_sum[t] > 0:
                alpha = np.clip(gap / load_sum[t], 0.0, 1.0)
            else:
                alpha = np.zeros_like(gap)
            slot_cost = (wear + costs.lambda_gen * gen_sum[t] * SLOT_HOURS
                         + costs.lambda_load * alpha * load_sum[t] * SLOT_HOURS)
        total = np.where(ok, slot_cost + value[None, :], np.inf)
        policy[t] = np.argmin(total, axis=1)
        value = total[np.arange(n_states), policy[t]]

    start_idx = _nearest_state(grids, config.initial_soc)
    best = float(value[start_idx])

    commands = np.zeros((slots, n_ess))
    shape = (grid_points,) * n_ess
    state = start_idx
    for t in range(slots):
        action = int(policy[t, state])
        from_idx = np.unravel_index(state, shape)
        to_idx = np.unravel_index(action, shape)
        for i in range(n_ess):
            commands[t, i] = per_net[i][from_idx[i], to_idx[i]]
        state = action
    return DpResult(cost=best, commands=commands, delta_grid=0.0)


def fleet_config(n_ess):
    """``n_ess`` unlike units, a generator, a PV and two loads."""
    return MicrogridConfig(
        ess=tuple(EssSpec(id=f"E{i}", p_min=-2.0 + 0.5 * i, p_max=2.0 - 0.3 * i,
                          energy_cap=2.0 + i, soc_min=0.1 + 0.05 * i, soc_max=0.9,
                          eff_charge=0.95 - 0.02 * i, eff_discharge=1.05 + 0.01 * i)
                  for i in range(n_ess)),
        generators=(GeneratorSpec(id="G1", p_max=0.8),),
        pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=1.5), LoadSpec(id="L2", p_max=1.0)),
        costs=CostParams(),
    )


class TestDpRowBlocks:
    """The row-block sweep gives the whole-table DP's cost and commands bit
    for bit: one block (1 ESS at 161 points), several with a partial last
    block (2 ESS at 17 points, 289 states; 3 ESS at 7 points, 343 states)."""

    @pytest.mark.parametrize("n_ess, grid_points", [(1, 161), (2, 17), (3, 7)])
    @pytest.mark.parametrize("outage", [None, (40, 20), (0, 96)])
    def test_matches_whole_table_dp(self, n_ess, grid_points, outage):
        config = fleet_config(n_ess)
        rng = np.random.default_rng(30 + n_ess)
        pv = rng.uniform(0.0, 2.2, size=(1, 96))
        # Loads up to 1.3x p_max, so some slots are clamped, and slot 50, islanded
        # in both outages, carries no load at all.
        load = rng.uniform(0.0, 1.3, size=(2, 96)) * np.array([[1.5], [1.0]])
        load[:, 50] = 0.0
        inputs = day_inputs(config, pv, load, grid_tie(outage)[:96])
        got = _dp_cost(config, inputs, grid_points)
        want = reference_dp_cost(config, inputs, grid_points)
        assert repr(got.cost) == repr(want.cost)
        assert got.commands.tobytes() == want.commands.tobytes()

    def test_memory_is_bounded(self):
        """Two ESS at 21 then 41 points (2.8M pairs per slot in the fine
        pass, 200 MiB as whole tables) stay below 16 MiB. The peak does not
        grow with the day's length, so 12 slots keep the traced run short."""
        config = two_ess_config()
        rng = np.random.default_rng(40)
        pv = rng.uniform(0.0, 1.5, size=(1, 12))
        load = rng.uniform(0.5, 2.4, size=(1, 12))
        tracemalloc.start()
        try:
            dp_oracle(config, pv, load, (4, 6), grid_points=21, refine=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestTrainedPolicy:
    def test_day_encoding_matches_per_slot_encode(self):
        """The policy encodes a day's windows in one pass; its actions match
        encoding each slot's window on its own, also after the day changes."""
        config = two_ess_config()
        series = synth_generator(np.random.default_rng(22), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, series, ForecastModel(0.05, 0.05), 4,
                               np.random.default_rng(23),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table, OutageSettings(), horizon=4)
        trainer = build_trainer(env, TrainSettings(hidden=16), "maddpg",
                                np.random.default_rng(24))
        # So that the actions follow v visibly.
        trainer.actor_stack.params["W3"] *= 1e3
        policy = TrainedPolicy(trainer)
        rng = np.random.default_rng(25)
        for day in (0, 1):
            obs = env.reset(day, rng)
            done = False
            while not done:
                got = policy(obs)
                v = trainer.encoder.forward(obs.window[None])[0][0]
                pis = trainer.raw_policy(obs.soc, obs.counter, v)
                want = trainer.apply_mask(pis, obs.soc)[0][0]
                assert np.allclose(got, want, rtol=0, atol=1e-12), (day, obs.slot)
                _, _, obs, done = env.step(got)


class TestDdpgBaseline:
    def test_joint_actor_commands_every_unit(self):
        config = two_ess_config()
        series = synth_generator(np.random.default_rng(12), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                               np.random.default_rng(13),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table, OutageSettings(), horizon=4)
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=8,
                                 update_every=8, episodes=1)
        trainer = build_trainer(env, settings, "ddpg", np.random.default_rng(14))
        assert len(trainer.groups) == 1
        assert trainer.groups.tolist() == [[0, 1]]
        obs = env.reset(0, np.random.default_rng(15))
        policy = TrainedPolicy(trainer)
        cmds = policy(obs)
        assert cmds.shape == (2,)

    def test_smoke_training(self):
        config = two_ess_config()
        series = synth_generator(np.random.default_rng(16), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, series, ForecastModel(0, 0), 4,
                               np.random.default_rng(17),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table, OutageSettings(), horizon=4)
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                 update_every=8, episodes=2)
        trainer = build_trainer(env, settings, "ddpg", np.random.default_rng(18))
        from gridres.maddpg import run_training
        metrics = run_training(env, trainer, settings, [0, 1],
                               np.random.default_rng(19),
                               np.random.default_rng(20),
                               np.random.default_rng(21))
        assert len(metrics) == 2
