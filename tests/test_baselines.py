import itertools

import numpy as np
import pytest

from gridres.baselines import (
    DpSizeError,
    RulePolicy,
    TrainedPolicy,
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
    mask_bounds,
    resolve_slot,
    step_soc,
)
from gridres.maddpg import TrainSettings


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
        table = make_forecasts(series, ForecastModel(0, 0), 4,
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
                soc = step_soc(spec, soc, result.p_ess[0], dt).soc
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
        table = make_forecasts(series, ForecastModel(0, 0), 4,
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
        table = make_forecasts(series, ForecastModel(0, 0), 4,
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


class TestTrainedPolicy:
    def test_day_encoding_matches_per_slot_encode(self):
        """The policy encodes a day's windows in one pass; its actions match
        encoding each slot's window on its own, also after the day changes."""
        config = two_ess_config()
        series = synth_generator(np.random.default_rng(22), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, ForecastModel(0.05, 0.05), 4,
                               np.random.default_rng(23),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table, OutageSettings(), horizon=4)
        trainer = build_trainer(env, TrainSettings(hidden=16), "maddpg",
                                np.random.default_rng(24))
        for actor in trainer.actors:  # so that the actions follow v visibly
            actor.params["W3"] *= 1e3
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
        table = make_forecasts(series, ForecastModel(0, 0), 4,
                               np.random.default_rng(13),
                               list(config.pv), list(config.loads))
        env = MicrogridEnv(config, series, table, OutageSettings(), horizon=4)
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=8,
                                 update_every=8, episodes=1)
        trainer = build_trainer(env, settings, "ddpg", np.random.default_rng(14))
        assert len(trainer.groups) == 1
        assert trainer.groups[0].ess_indices == (0, 1)
        obs = env.reset(0, np.random.default_rng(15))
        policy = TrainedPolicy(trainer)
        cmds = policy(obs)
        assert cmds.shape == (2,)

    def test_smoke_training(self):
        config = two_ess_config()
        series = synth_generator(np.random.default_rng(16), 2,
                                 list(config.pv), list(config.loads))
        table = make_forecasts(series, ForecastModel(0, 0), 4,
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
