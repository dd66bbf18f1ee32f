import numpy as np
import pytest

from gradcheck import assert_grads_close, numeric_grad
from gridres import diffkit as dk
from gridres.dataio import ForecastModel, make_forecasts, synth_generator
from gridres.encoder import VECTOR_DIM
from gridres.env import MicrogridEnv, OutageSettings
from gridres.grid import (
    CostParams,
    EssArrays,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
    mask_bounds,
    step_soc,
)
from gridres.maddpg import (
    ActorNet,
    CriticNet,
    ReplayBuffer,
    Trainer,
    TrainSettings,
    ddpg_groups,
    explore,
    maddpg_groups,
    noise_sigma,
    run_training,
)

ESS1 = EssSpec(id="ESS1", p_min=-2.0, p_max=2.0, energy_cap=6.0,
               soc_min=0.1, soc_max=0.9)
ESS2 = EssSpec(id="ESS2", p_min=-1.5, p_max=1.5, energy_cap=4.0,
               soc_min=0.1, soc_max=0.9)


def tiny_config(n_ess=2):
    specs = (ESS1, ESS2)[:n_ess]
    return MicrogridConfig(
        ess=specs,
        generators=(GeneratorSpec(id="G1", p_min=0.0, p_max=1.0),),
        pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=2.0), LoadSpec(id="L2", p_max=1.0)),
        costs=CostParams(),
    )


def tiny_env(n_ess=2, days=3, seed=0, peak_prob=0.3):
    config = tiny_config(n_ess)
    rng = np.random.default_rng(seed)
    series = synth_generator(rng, days, list(config.pv), list(config.loads))
    table = make_forecasts(series, ForecastModel(0.02, 0.02), 4,
                           np.random.default_rng(seed + 1),
                           list(config.pv), list(config.loads))
    outage = OutageSettings(peak_prob=peak_prob, breakpoints=2,
                            duration_range=(6, 8))
    return MicrogridEnv(config, series, table, outage, horizon=4)


def make_trainer(env, groups=None, settings=None, seed=0):
    settings = settings or TrainSettings(hidden=16, batch_size=8,
                                         warmup_steps=16, update_every=8,
                                         episodes=2)
    groups = groups or maddpg_groups(env.n_agents)
    caps = np.concatenate([[s.p_max for s in env.config.pv],
                           [s.p_max for s in env.config.loads]])
    return Trainer(env.config.ess, env.config.costs.slot_hours, groups,
                   env.obs_window_rows, caps, settings,
                   np.random.default_rng(seed))


class TestActorNet:
    def test_zero_params_zero_output(self):
        net = ActorNet(np.random.default_rng(0), 18, 16, 1)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        pi, _ = net.forward(np.random.default_rng(1).standard_normal((3, 18)))
        assert np.array_equal(pi, np.zeros((3, 1)))

    def test_output_in_open_interval(self):
        net = ActorNet(np.random.default_rng(2), 18, 16, 1)
        x = 100.0 * np.random.default_rng(3).standard_normal((50, 18))
        pi, _ = net.forward(x)
        assert (np.abs(pi) < 1.0).all()

    def test_gradients(self):
        rng = np.random.default_rng(4)
        net = ActorNet(rng, 5, 8, 2)
        # Perturb affine LN params so their gradients are generic.
        net.params["g1"] += 0.1 * rng.standard_normal(8)
        net.params["be2"] += 0.1 * rng.standard_normal(8)
        x = rng.standard_normal((3, 5))
        seed = rng.standard_normal((3, 2))

        def loss():
            out, _ = net.forward(x)
            return float((out * seed).sum())

        _, cache = net.forward(x)
        grads, dx = net.backward(cache, seed)
        assert list(grads) == list(net.params)
        assert_grads_close(dx, numeric_grad(lambda _: loss(), x), context="dx")
        for name in net.params:
            num = numeric_grad(lambda _: loss(), net.params[name])
            assert_grads_close(grads[name], num, context=name)


class TestCriticNet:
    def test_zero_params_zero_q(self):
        net = CriticNet(np.random.default_rng(5), 10, 2, 16)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        q, _ = net.forward(np.ones((4, 10)), np.ones((4, 2)))
        assert np.array_equal(q, np.zeros(4))

    def test_sensitive_to_every_action(self):
        rng = np.random.default_rng(6)
        net = CriticNet(rng, 10, 3, 16)
        state = rng.standard_normal((1, 10))
        base = rng.standard_normal((1, 3))
        q0, _ = net.forward(state, base)
        for j in range(3):
            bumped = base.copy()
            bumped[0, j] += 1e-3
            qj, _ = net.forward(state, bumped)
            assert qj[0] != q0[0]

    def test_gradients(self):
        rng = np.random.default_rng(7)
        net = CriticNet(rng, 6, 2, 8)
        net.params["gs"] += 0.1 * rng.standard_normal(8)
        state = rng.standard_normal((3, 6))
        act = rng.standard_normal((3, 2))
        seed = rng.standard_normal(3)

        def loss():
            q, _ = net.forward(state, act)
            return float((q * seed).sum())

        _, cache = net.forward(state, act)
        grads, dstate, dact = net.backward(cache, seed)
        assert list(grads) == list(net.params)
        assert_grads_close(dstate, numeric_grad(lambda _: loss(), state), context="ds")
        assert_grads_close(dact, numeric_grad(lambda _: loss(), act), context="da")
        for name in net.params:
            num = numeric_grad(lambda _: loss(), net.params[name])
            assert_grads_close(grads[name], num, context=name)


class TestMaskAction:
    """Trainer.apply_mask: the affine map of raw outputs onto the windows of
    grid.mask_bounds, here for ESS1 alone."""

    LIMITS = EssArrays.of((ESS1,))

    @pytest.fixture(scope="class")
    def mask(self):
        trainer = make_trainer(tiny_env(n_ess=1))

        def masked(pis, socs):
            actions, _ = trainer.apply_mask(np.reshape(pis, (-1, 1)),
                                            np.reshape(socs, (-1, 1)))
            return actions[:, 0]
        return masked

    def test_endpoints(self, mask):
        (low,), (up,) = mask_bounds(self.LIMITS, 0.5, 0.25)
        assert mask([-1.0, 1.0], [0.5, 0.5]) == pytest.approx([low, up])

    def test_worked_upper_bound(self):
        # ESS1 near full: headroom (0.9 - 0.88) * 6 / 0.25 = 0.48 MW.
        _, up = mask_bounds(self.LIMITS, 0.88, 0.25)
        assert up[0] == pytest.approx(0.48)

    def test_full_soc_blocks_charging(self):
        _, up = mask_bounds(self.LIMITS, 0.9, 0.25)
        assert up[0] == 0.0

    def test_monotone_and_affine(self, mask):
        rng = np.random.default_rng(8)
        for _ in range(200):
            soc = rng.uniform(0.1, 0.9)
            a, b, c = sorted(rng.uniform(-1, 1, size=3))
            fa, fb, fc = mask([a, b, c], [soc] * 3)
            assert fa <= fb <= fc
            if c - a > 1e-9:
                lam = (b - a) / (c - a)
                assert fb == pytest.approx((1 - lam) * fa + lam * fc, abs=1e-9)

    def test_masked_soc_step_never_escapes_bounds(self, mask):
        rng = np.random.default_rng(9)
        socs = rng.uniform(0.1, 0.9, size=2000)
        actions = mask(rng.uniform(-1, 1, size=2000), socs)
        for soc, a in zip(socs, actions):
            out = step_soc(ESS1, soc, a, 0.25)
            assert 0.1 <= out.soc <= 0.9


class TestExplore:
    def test_zero_sigma_identity(self):
        settings = TrainSettings(noise_sigma_start=0.0, noise_sigma_end=0.0,
                                 warmup_steps=0)
        pi = np.array([0.3, -0.5])
        out = explore(pi, np.random.default_rng(0), 10, settings, 100)
        assert np.array_equal(out, pi)

    def test_output_in_open_interval(self):
        settings = TrainSettings(warmup_steps=5)
        rng = np.random.default_rng(1)
        for step in range(0, 50, 5):
            out = explore(np.array([0.99, -0.99]), rng, step, settings, 50)
            assert (np.abs(out) < 1.0).all()

    def test_schedule_and_empirical_std(self):
        settings = TrainSettings(noise_sigma_start=0.2, noise_sigma_end=0.02,
                                 warmup_steps=0)
        total = 1000
        assert noise_sigma(0, settings, total) == pytest.approx(0.2)
        assert noise_sigma(total, settings, total) == pytest.approx(0.02)
        assert noise_sigma(500, settings, total) == pytest.approx(0.11)
        rng = np.random.default_rng(2)
        draws = explore(np.zeros(100_000), rng, 500, settings, total)
        assert draws.std() == pytest.approx(0.11, rel=0.02)


class TestReplayBuffer:
    def test_fifo_overwrite(self):
        buf = ReplayBuffer(4, 1, 1, (2, 2))
        for i in range(6):
            buf.add([i], i, np.zeros(VECTOR_DIM), [0.0], [0.0], [0.0], 0,
                    np.zeros(VECTOR_DIM), False, np.zeros((2, 2)))
        assert buf.size == 4
        assert sorted(buf.socs[:, 0]) == [2, 3, 4, 5]

    def test_uniform_sampling(self):
        buf = ReplayBuffer(1000, 1, 1, (1, 1))
        for i in range(1000):
            buf.add([i], 0, np.zeros(VECTOR_DIM), [0.0], [0.0], [0.0], 0,
                    np.zeros(VECTOR_DIM), False, np.zeros((1, 1)))
        rng = np.random.default_rng(3)
        counts = np.zeros(1000)
        n = 100_000
        idx = buf.sample_indices(n, rng)
        np.add.at(counts, idx, 1)
        expected = n / 1000
        sd = np.sqrt(n * (1 / 1000) * (1 - 1 / 1000))
        assert np.abs(counts - expected).max() < 4 * sd + 1


def fill_replay(env, trainer, steps=40, seed=0):
    rng = np.random.default_rng(seed)
    replay = ReplayBuffer(256, trainer.n_ess, len(trainer.groups),
                          (env.obs_window_rows, env.horizon))
    obs = env.reset(0, rng)
    v = trainer.encoder.encode(obs.window)
    for _ in range(steps):
        pis = rng.uniform(-0.99, 0.99, trainer.n_ess)
        actions, _ = trainer.apply_mask(pis, obs.soc)
        result, agent_rewards, next_obs, done = env.step(actions[0])
        next_v = trainer.encoder.encode(next_obs.window)
        from gridres.maddpg import group_reward
        rewards = [group_reward(g, agent_rewards, result.cost_total)
                   for g in trainer.groups]
        replay.add(obs.soc, obs.counter, v, actions[0], rewards, next_obs.soc,
                   next_obs.counter, next_v, done, obs.window)
        obs, v = next_obs, next_v
        if done:
            obs = env.reset(0, rng)
            v = trainer.encoder.encode(obs.window)
    return replay


class TestCriticUpdate:
    def test_gamma_zero_reduces_to_reward_regression(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=8, gamma=1e-12)
        trainer = make_trainer(env, settings=settings)
        replay = fill_replay(env, trainer)
        idx = np.arange(8)
        # Zero the critic so that Q == 0: loss must be mean(r^2).
        for k in trainer.critics[0].params:
            trainer.critics[0].params[k] = np.zeros_like(trainer.critics[0].params[k])
        loss = trainer.critic_update(0, replay, idx)
        r = replay.rewards[idx, 0]
        assert loss == pytest.approx(float((r ** 2).mean()), rel=1e-9)

    def test_unit_reward_zero_nets_loss_one(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        replay.rewards[:, :] = 1.0
        for nets in (trainer.critics, trainer.target_critics):
            for net in nets:
                for k in net.params:
                    net.params[k] = np.zeros_like(net.params[k])
        idx = np.arange(8)
        loss = trainer.critic_update(0, replay, idx)
        assert loss == pytest.approx(1.0)

    def test_loss_decreases_on_frozen_batch(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=16, lr_critic=1e-3)
        trainer = make_trainer(env, settings=settings)
        replay = fill_replay(env, trainer, steps=32)
        idx = np.arange(16)
        first = trainer.critic_update(0, replay, idx)
        for _ in range(99):
            last = trainer.critic_update(0, replay, idx)
        assert last < first


class TestActorUpdate:
    def test_zero_critic_gives_zero_gradient(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        for k in trainer.critics[0].params:
            trainer.critics[0].params[k] = np.zeros_like(trainer.critics[0].params[k])
        before = {k: p.copy() for k, p in trainer.actors[0].params.items()}
        trainer.actor_update(0, replay, np.arange(8))
        # Adam with exactly zero gradient leaves parameters untouched.
        for k, p in trainer.actors[0].params.items():
            assert np.array_equal(p, before[k]), k

    def test_objective_non_decreasing_with_frozen_critic(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=16, lr_actor=5e-4)
        trainer = make_trainer(env, settings=settings, seed=3)
        replay = fill_replay(env, trainer, steps=32, seed=4)
        idx = np.arange(16)
        objs = [trainer.actor_update(0, replay, idx)[0] for _ in range(100)]
        assert objs[-1] >= objs[0]

    def test_gru_gradients_flow(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        _, gru_grads = trainer.actor_update(0, replay, np.arange(8))
        total = sum(float(np.abs(g).sum()) for g in gru_grads.values())
        assert total > 0.0


class TestTargets:
    def test_targets_track_behaviour_geometrically(self):
        env = tiny_env()
        trainer = make_trainer(env)
        tau = trainer.settings.tau
        src = trainer.actors[0].params
        tgt = trainer.target_actors[0].params
        src["W1"] += 1.0  # freeze a gap
        errors = []
        for _ in range(4):
            dk.soft_update(tgt, src, tau)
            errors.append(float(np.abs(src["W1"] - tgt["W1"]).max()))
        for a, b in zip(errors, errors[1:]):
            assert b / a == pytest.approx(1.0 - tau, rel=1e-6)


class TestRunTraining:
    def test_smoke_five_episodes(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                 update_every=8, episodes=5)
        trainer = make_trainer(env, settings=settings)
        metrics = run_training(env, trainer, settings, [0, 1, 2],
                               np.random.default_rng(0),
                               np.random.default_rng(1),
                               np.random.default_rng(2))
        assert len(metrics) == 5
        assert all(np.isfinite(m.cost) for m in metrics)

    def test_soc_stays_in_bounds_throughout(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                 update_every=8, episodes=3)
        trainer = make_trainer(env, settings=settings)

        traces = []

        def hook(row):
            traces.append(np.array(env.record.soc_trace))

        run_training(env, trainer, settings, [0, 1], np.random.default_rng(3),
                     np.random.default_rng(4), np.random.default_rng(5),
                     episode_hook=hook)
        for trace in traces:
            assert (trace >= 0.1 - 1e-12).all()
            assert (trace <= 0.9 + 1e-12).all()

    def test_determinism(self):
        def run():
            env = tiny_env()
            settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                     update_every=8, episodes=3)
            trainer = make_trainer(env, settings=settings)
            metrics = run_training(env, trainer, settings, [0, 1],
                                   np.random.default_rng(0),
                                   np.random.default_rng(1),
                                   np.random.default_rng(2))
            return [(m.cost, m.shed_mwh, m.critic_loss) for m in metrics]

        assert run() == run()


class TestEquivalenceSingleAgent:
    def test_maddpg_matches_ddpg_bit_for_bit(self):
        """With one ESS the per-agent learner and the joint learner are the
        same computation on identical frozen batches."""
        env_a = tiny_env(n_ess=1)
        env_b = tiny_env(n_ess=1)
        settings = TrainSettings(hidden=16, batch_size=8)
        t_madd = make_trainer(env_a, groups=maddpg_groups(1), settings=settings,
                              seed=11)
        t_ddpg = make_trainer(env_b, groups=ddpg_groups(1), settings=settings,
                              seed=11)
        for k in t_madd.actors[0].params:
            assert np.array_equal(t_madd.actors[0].params[k],
                                  t_ddpg.actors[0].params[k])

        replay = fill_replay(env_a, t_madd, steps=64, seed=12)
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        for _ in range(100):
            t_madd.update(replay, rng_a)
            t_ddpg.update(replay, rng_b)
        for k in t_madd.actors[0].params:
            assert t_madd.actors[0].params[k].tobytes() == \
                t_ddpg.actors[0].params[k].tobytes(), k
        for k in t_madd.critics[0].params:
            assert t_madd.critics[0].params[k].tobytes() == \
                t_ddpg.critics[0].params[k].tobytes(), k


class TestCheckpoint:
    def test_param_set_round_trip(self, tmp_path):
        env = tiny_env()
        trainer = make_trainer(env, seed=21)
        replay = fill_replay(env, trainer)
        trainer.update(replay, np.random.default_rng(0))
        path = str(tmp_path / "ckpt.npz")
        trainer.param_set().save(path)

        fresh = make_trainer(env, seed=99)
        fresh.load_param_set(dk.ParamSet.load(path))
        obs = env.reset(0, np.random.default_rng(1))
        a = trainer.act(obs.soc, obs.counter, obs.window)
        b = fresh.act(obs.soc, obs.counter, obs.window)
        assert a[0].tobytes() == b[0].tobytes()
        assert fresh.gru_adam.t == trainer.gru_adam.t

    def test_key_names_and_order_for_two_ess(self):
        trainer = make_trainer(tiny_env(n_ess=2))
        actor = ["W1", "b1", "g1", "be1", "W2", "b2", "g2", "be2", "W3", "b3"]
        critic = ["Ws", "bs", "gs", "bes", "Wa", "ba",
                  "W2", "b2", "g2", "be2", "W3", "b3"]
        gru = ["emb/W", "emb/b"]
        for layer in ("l0", "l1"):
            gru += [f"{layer}/{w}{gate}" for gate in "zrh" for w in "WUb"]
        gru += ["head/W", "head/b"]

        expected = [f"gru/{k}" for k in gru]
        for g in (0, 1):
            for net, names in (("actor", actor), ("critic", critic),
                               ("target_actor", actor), ("target_critic", critic)):
                expected += [f"{net}{g}/{k}" for k in names]
        for net, names in (("actor0", actor), ("critic0", critic),
                           ("actor1", actor), ("critic1", critic), ("gru", gru)):
            expected += [f"adam/{net}/{moment}/{k}" for moment in "mv" for k in names]
            expected.append(f"adam/{net}/t")
        assert trainer.param_set().names() == expected
