import copy

import numpy as np
import pytest

from gradcheck import assert_grads_close, numeric_grad
from gridres import diffkit as dk
from gridres import maddpg
from gridres.baselines import TrainedPolicy, build_trainer
from gridres.config import build_microgrid, resolve_dict
from gridres.dataio import ForecastModel, make_forecasts, synth_generator
from gridres.encoder import VECTOR_DIM
from gridres.env import MicrogridEnv, OutageSettings
from gridres.grid import (
    SLOTS_PER_DAY,
    CostParams,
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
    TrainingDiverged,
    TrainSettings,
    explore,
    features,
    noise_sigma,
    run_training,
)
from test_harness_helpers import fleet_config

ESS1 = EssSpec(id="ESS1", p_min=-2.0, p_max=2.0, energy_cap=6.0,
               soc_min=0.1, soc_max=0.9)
ESS2 = EssSpec(id="ESS2", p_min=-1.5, p_max=1.5, energy_cap=4.0,
               soc_min=0.1, soc_max=0.9)


def tiny_config(n_ess=2):
    specs = ((ESS1, ESS2) + tuple(
        EssSpec(id=f"ESS{n + 1}", p_min=-1.0, p_max=1.0, energy_cap=3.0,
                soc_min=0.1, soc_max=0.9) for n in range(2, n_ess)))[:n_ess]
    return MicrogridConfig(
        ess=specs,
        generators=(GeneratorSpec(id="G1", p_max=1.0),),
        pv=(PvSpec(id="PV1", p_max=2.0),),
        loads=(LoadSpec(id="L1", p_max=2.0), LoadSpec(id="L2", p_max=1.0)),
        costs=CostParams(),
    )


def tiny_env(n_ess=2, days=3, seed=0, peak_prob=0.3):
    config = tiny_config(n_ess)
    rng = np.random.default_rng(seed)
    series = synth_generator(rng, days, list(config.pv), list(config.loads))
    table = make_forecasts(series, series, ForecastModel(0.02, 0.02), 4,
                           np.random.default_rng(seed + 1),
                           list(config.pv), list(config.loads))
    outage = OutageSettings(peak_prob=peak_prob, breakpoints=2,
                            duration_range=(6, 8))
    return MicrogridEnv(config, series, table, outage, horizon=4)


def make_trainer(env, method="maddpg", settings=None, seed=0):
    settings = settings or TrainSettings(hidden=16, batch_size=8,
                                         warmup_steps=16, update_every=8,
                                         episodes=2)
    return Trainer(env.config, method, settings, np.random.default_rng(seed))


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

    LIMITS = fleet_config((ESS1,)).ess_limits

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
        out = step_soc([ESS1] * len(socs), socs.tolist(), actions.tolist(), 0.25)
        for soc in out.soc:
            assert 0.1 <= soc <= 0.9


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
        buf = ReplayBuffer(4, 1, 1, None)
        for i in range(6):
            buf.add([i], i, np.zeros(VECTOR_DIM), [0.0], [0.0], [0.0], 0,
                    np.zeros(VECTOR_DIM), False, i // 2, i)
        assert buf.size == 4
        assert sorted(buf.socs[:, 0]) == [2, 3, 4, 5]
        assert sorted(zip(buf.days, buf.slots)) == [(1, 2), (1, 3), (2, 4), (2, 5)]

    def test_default_fleet_reserve_is_bounded(self):
        """At capacity 100,000 the default fleet's replay reserves at most
        50 MB: a window is gathered from its (day, slot), not copied (a
        (26, 8) float64 copy per transition took 210.4 MB)."""
        n_ess = build_microgrid(resolve_dict()).n_agents
        buf = ReplayBuffer(100_000, n_ess, n_ess, None)
        arrays = [a for a in vars(buf).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 50_000_000

    def test_uniform_sampling(self):
        buf = ReplayBuffer(1000, 1, 1, None)
        for i in range(1000):
            buf.add([i], 0, np.zeros(VECTOR_DIM), [0.0], [0.0], [0.0], 0,
                    np.zeros(VECTOR_DIM), False, 0, 0)
        rng = np.random.default_rng(3)
        counts = np.zeros(1000)
        n = 100_000
        idx = buf.sample_indices(n, rng)
        np.add.at(counts, idx, 1)
        expected = n / 1000
        sd = np.sqrt(n * (1 / 1000) * (1 - 1 / 1000))
        assert np.abs(counts - expected).max() < 4 * sd + 1


def encode_one(trainer, window):
    """One window's characteristic vector, encoded as a batch of one."""
    return trainer.encoder.forward(window[None])[0][0]


def fill_replay(env, trainer, steps=40, seed=0):
    rng = np.random.default_rng(seed)
    replay = ReplayBuffer(256, trainer.n_ess, len(trainer.groups),
                          env.forecasts.windows)
    obs = env.reset(0, rng)
    v = encode_one(trainer, obs.window)
    for _ in range(steps):
        pis = rng.uniform(-0.99, 0.99, trainer.n_ess)
        actions, _ = trainer.apply_mask(pis, obs.soc)
        result, agent_rewards, next_obs, done = env.step(actions[0])
        next_v = encode_one(trainer, next_obs.window)
        rewards = agent_rewards if trainer.own_reward else [-result.cost_total]
        replay.add(obs.soc, obs.counter, v, actions[0], rewards, next_obs.soc,
                   next_obs.counter, next_v, done, 0, obs.slot)
        obs, v = next_obs, next_v
        if done:
            obs = env.reset(0, rng)
            v = encode_one(trainer, obs.window)
    return replay


def critic_state(replay, idx):
    """The critics' state input for the minibatch ``idx``, as ``update``
    builds it."""
    return maddpg.features(replay.socs[idx], replay.counters[idx], replay.v[idx])


def zero_params(net):
    for k in net.params:
        net.params[k] = np.zeros_like(net.params[k])


class TestCriticUpdate:
    def test_gamma_zero_reduces_to_reward_regression(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=8, gamma=1e-12)
        trainer = make_trainer(env, settings=settings)
        replay = fill_replay(env, trainer)
        idx = np.arange(8)
        # Zero the critics so that Q == 0: each loss must be mean(r^2).
        zero_params(trainer.critic_stack)
        losses = trainer.critic_update(replay, idx, critic_state(replay, idx))
        r = replay.rewards[idx]
        assert losses == pytest.approx((r ** 2).mean(axis=0), rel=1e-9)

    def test_unit_reward_zero_nets_loss_one(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        replay.rewards[:, :] = 1.0
        for net in (trainer.critic_stack, trainer.target_critic_stack):
            zero_params(net)
        idx = np.arange(8)
        losses = trainer.critic_update(replay, idx, critic_state(replay, idx))
        assert losses == pytest.approx([1.0, 1.0])

    def test_loss_decreases_on_frozen_batch(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=16, lr_critic=1e-3)
        trainer = make_trainer(env, settings=settings)
        replay = fill_replay(env, trainer, steps=32)
        idx = np.arange(16)
        state = critic_state(replay, idx)
        first = trainer.critic_update(replay, idx, state)
        for _ in range(99):
            last = trainer.critic_update(replay, idx, state)
        assert (last < first).all()


class TestActorUpdate:
    def test_zero_critic_gives_zero_gradient(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        zero_params(trainer.critic_stack)
        before = {k: p.copy() for k, p in trainer.actor_stack.params.items()}
        idx = np.arange(8)
        trainer.actor_update(replay, idx, critic_state(replay, idx))
        # Adam with exactly zero gradient leaves parameters untouched.
        for k, p in trainer.actor_stack.params.items():
            assert np.array_equal(p, before[k]), k

    def test_objective_non_decreasing_with_frozen_critic(self):
        env = tiny_env()
        settings = TrainSettings(hidden=16, batch_size=16, lr_actor=5e-4)
        trainer = make_trainer(env, settings=settings, seed=3)
        replay = fill_replay(env, trainer, steps=32, seed=4)
        idx = np.arange(16)
        state = critic_state(replay, idx)
        objs = [trainer.actor_update(replay, idx, state)[0] for _ in range(100)]
        assert (objs[-1] >= objs[0]).all()

    def test_gru_gradients_flow(self):
        env = tiny_env()
        trainer = make_trainer(env)
        replay = fill_replay(env, trainer)
        idx = np.arange(8)
        _, gru_grads = trainer.actor_update(replay, idx, critic_state(replay, idx))
        total = sum(float(np.abs(g).sum()) for g in gru_grads.values())
        assert total > 0.0


class TestTargets:
    def test_targets_track_behaviour_geometrically(self):
        env = tiny_env()
        trainer = make_trainer(env)
        tau = trainer.settings.tau
        src = trainer.actor_stack.params
        tgt = trainer.target_actor_stack.params
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

    @pytest.mark.parametrize("update_every", [24, 7])
    def test_replay_windows_match_the_windows_shown(self, update_every, monkeypatch):
        """Each stored transition's gathered window is the ``obs.window``
        the env showed at that step."""
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                 update_every=update_every, episodes=4)
        env = tiny_env()
        shown, buffers = [], []
        reset, step = env.reset, env.step

        def record_reset(day, rng):
            obs = reset(day, rng)
            shown.append(obs.window.copy())
            return obs

        def record_step(commands):
            out = step(commands)
            if not out[3]:
                shown.append(out[2].window.copy())
            return out

        class RecordedReplay(ReplayBuffer):
            def __init__(self, *args):
                super().__init__(*args)
                buffers.append(self)

        monkeypatch.setattr(env, "reset", record_reset)
        monkeypatch.setattr(env, "step", record_step)
        monkeypatch.setattr(maddpg, "ReplayBuffer", RecordedReplay)
        metrics = run_training(env, make_trainer(env, settings=settings), settings,
                               [0, 1, 2], np.random.default_rng(3),
                               np.random.default_rng(4), np.random.default_rng(5))
        replay, = buffers
        assert not np.isnan(metrics[-1].critic_loss)  # updates ran
        assert replay.size == len(shown) == 4 * SLOTS_PER_DAY
        assert len(set(replay.days[:replay.size])) > 1
        got = replay.windows(np.arange(replay.size))
        assert got.tobytes() == np.stack(shown).tobytes()

    @pytest.mark.parametrize("update_every", [24, 7])
    def test_segment_encoding_matches_per_window_reference(self, update_every,
                                                           monkeypatch):
        """``run_training`` encodes each update-free segment of a day in one
        batched pass; the per-step loop below encodes one window at a time.
        Batching moves only the last bits of each vector."""
        settings = TrainSettings(hidden=16, batch_size=8, warmup_steps=16,
                                 update_every=update_every, episodes=3)
        buffers = []

        class RecordedReplay(ReplayBuffer):
            def __init__(self, *args):
                super().__init__(*args)
                buffers.append(self)

        monkeypatch.setattr(maddpg, "ReplayBuffer", RecordedReplay)
        runs = []
        for loop in (run_training, per_window_run_training):
            env = tiny_env()
            trainer = make_trainer(env, settings=settings)
            runs.append(loop(env, trainer, settings, [0, 1, 2],
                             np.random.default_rng(0), np.random.default_rng(1),
                             np.random.default_rng(2)))
        batched, reference = buffers
        n = batched.size
        assert n == reference.size == 3 * SLOTS_PER_DAY
        for name in ("v", "next_v"):
            assert np.allclose(getattr(batched, name)[:n],
                               getattr(reference, name)[:n], rtol=0, atol=1e-12), name
        assert not np.isnan(runs[1][-1].critic_loss)  # updates ran
        for got, want in zip(*runs):
            for field in ("cost", "shed_mwh", "critic_loss", "actor_objective",
                          "reward"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-9, nan_ok=True), field


    @pytest.mark.parametrize("update_every", [24, 7])
    def test_segments_keep_the_whole_day_encodings_bits(self, update_every,
                                                        monkeypatch):
        """A day wholly in warmup is one pass; after warmup a segment
        encodes ``update_every + 1`` slots, yet every stored ``v`` and
        ``next_v`` is, bit for bit, its slot's row of a whole-day encoding
        under the parameters of its step. A one-window pass (slot 95 asked
        for first after an update) takes numpy's matrix-vector product and
        stands for itself."""
        settings = TrainSettings(hidden=16, batch_size=8,
                                 warmup_steps=SLOTS_PER_DAY,
                                 update_every=update_every, episodes=4)
        env = tiny_env()
        trainer = make_trainer(env, settings=settings)
        forward = trainer.encoder.forward
        table = env.forecasts.windows
        stacks, rows, passes = [], {}, []
        reset = env.reset

        def record_reset(day, rng):
            obs = reset(day, rng)
            stacks.append(obs.windows)
            return obs

        def recorded(windows):
            out = forward(windows)
            if windows.base is table:  # a pass over a day's view, not a replay gather
                stack = stacks[-1]
                assert stack.base is table and len(stack) == SLOTS_PER_DAY
                episode = len(stacks) - 1
                first = (windows.ctypes.data - stack.ctypes.data) // stack.strides[0]
                assert 0 <= first < SLOTS_PER_DAY
                want = forward(stack)[0][first:] if len(windows) > 1 else out[0]
                for k, v in enumerate(out[0]):
                    assert v.tobytes() == want[k].tobytes(), (episode, first + k)
                    rows.setdefault((episode, first + k), set()).add(v.tobytes())
                passes.append((episode, len(windows)))
            return out

        buffers = []

        class RecordedReplay(ReplayBuffer):
            def __init__(self, *args):
                super().__init__(*args)
                buffers.append(self)

        monkeypatch.setattr(env, "reset", record_reset)
        monkeypatch.setattr(trainer.encoder, "forward", recorded)
        monkeypatch.setattr(maddpg, "ReplayBuffer", RecordedReplay)
        metrics = run_training(env, trainer, settings, [0, 1, 2],
                               np.random.default_rng(3), np.random.default_rng(4),
                               np.random.default_rng(5))
        replay, = buffers
        assert not np.isnan(metrics[-1].critic_loss)  # updates ran
        assert replay.size == len(stacks) * SLOTS_PER_DAY
        for i in range(replay.size):
            episode, slot = i // SLOTS_PER_DAY, int(replay.slots[i])
            next_slot = min(slot + 1, SLOTS_PER_DAY - 1)
            assert replay.v[i].tobytes() in rows[episode, slot], i
            assert replay.next_v[i].tobytes() in rows[episode, next_slot], i
        assert [n for episode, n in passes if episode == 0] == [SLOTS_PER_DAY]
        last = [n for episode, n in passes if episode == len(stacks) - 1]
        segments = -(-SLOTS_PER_DAY // update_every)
        assert sum(last) <= SLOTS_PER_DAY + segments  # the parent encoded 240 at 24
        assert max(last) <= update_every + 1


def per_window_run_training(env, trainer, settings, train_days, env_rng,
                            noise_rng, replay_rng):
    """Reference for ``run_training``: the same loop with every window
    encoded on its own, right at the step that needs it."""
    total_steps = settings.episodes * SLOTS_PER_DAY
    # Looked up on the module, as run_training does, so a test can record it.
    replay = maddpg.ReplayBuffer(settings.replay_capacity, trainer.n_ess,
                                 len(trainer.groups), env.forecasts.windows)
    metrics = []
    step = 0
    for episode in range(settings.episodes):
        day = int(train_days[env_rng.integers(len(train_days))])
        obs = env.reset(day, env_rng)
        v = encode_one(trainer, obs.window)
        ep_losses, ep_objectives, ep_reward = [], [], 0.0
        for _ in range(SLOTS_PER_DAY):
            if step < settings.warmup_steps:
                pis = explore(np.zeros(trainer.n_ess), noise_rng, step,
                              settings, total_steps)
            else:
                pis = trainer.raw_policy(obs.soc, obs.counter, v)
                pis = explore(pis, noise_rng, step, settings, total_steps)
            actions, _ = trainer.apply_mask(pis, obs.soc)
            result, agent_rewards, next_obs, done = env.step(actions[0])
            rewards = np.array(agent_rewards if trainer.own_reward
                               else [-result.cost_total])
            ep_reward += float(rewards.sum())
            next_v = encode_one(trainer, next_obs.window)
            replay.add(obs.soc, obs.counter, v, actions[0], rewards, next_obs.soc,
                       next_obs.counter, next_v, done, day, obs.slot)
            obs, v = next_obs, next_v
            step += 1
            if (step >= settings.warmup_steps
                    and step % settings.update_every == 0
                    and replay.size >= settings.batch_size):
                losses, objectives = trainer.update(replay, replay_rng)
                ep_losses.extend(losses)
                ep_objectives.extend(objectives)
        record = env.record
        metrics.append(maddpg.EpisodeMetrics(
            episode=episode, cost=record.cost, shed_mwh=record.shed_mwh,
            critic_loss=float(np.mean(ep_losses)) if ep_losses else float("nan"),
            actor_objective=(float(np.mean(ep_objectives)) if ep_objectives
                             else float("nan")),
            reward=ep_reward))
    return metrics


class TestEquivalenceSingleAgent:
    def test_maddpg_matches_ddpg_bit_for_bit(self):
        """With one ESS the per-agent learner and the joint learner are the
        same computation on identical frozen batches."""
        env_a = tiny_env(n_ess=1)
        env_b = tiny_env(n_ess=1)
        settings = TrainSettings(hidden=16, batch_size=8)
        t_madd = make_trainer(env_a, "maddpg", settings=settings, seed=11)
        t_ddpg = make_trainer(env_b, "ddpg", settings=settings, seed=11)
        for k in t_madd.actor_stack.params:
            assert np.array_equal(t_madd.actor_stack.params[k],
                                  t_ddpg.actor_stack.params[k])

        replay = fill_replay(env_a, t_madd, steps=64, seed=12)
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        for _ in range(100):
            t_madd.update(replay, rng_a)
            t_ddpg.update(replay, rng_b)
        for k in t_madd.actor_stack.params:
            assert t_madd.actor_stack.params[k].tobytes() == \
                t_ddpg.actor_stack.params[k].tobytes(), k
        for k in t_madd.critic_stack.params:
            assert t_madd.critic_stack.params[k].tobytes() == \
                t_ddpg.critic_stack.params[k].tobytes(), k


def per_group_pis(trainer, actors, socs, counters, v):
    """Reference for ``Trainer.joint_pis``: each group's actor run on its
    own 2-D input, one group at a time; returns (pis, per-group caches)."""
    batch = socs.shape[0]
    pis = np.zeros((batch, trainer.n_ess))
    caches = []
    for cols, actor in zip(trainer.groups, actors):
        own = socs[:, cols]
        n = 2 * own.shape[1]
        x = np.empty((batch, n + VECTOR_DIM))
        x[:, 0:n:2] = own
        x[:, 1:n:2] = counters[:, None] * maddpg.COUNTER_SCALE
        x[:, n:] = v
        out, cache = actor.forward(x)
        pis[:, cols] = out
        caches.append(cache)
    return pis, caches


def group_net(stack, g):
    """Group ``g``'s 2-D net, a view of its slice of ``stack``."""
    net = copy.copy(stack)
    net.params = {k: p[g] for k, p in stack.params.items()}
    return net


def group_ids(value):
    """A parameter's test id: a method is named by its group layout."""
    return f"{value}_groups" if isinstance(value, str) else None


def five_unit_trainer(method, seed):
    specs = tuple(EssSpec(id=f"E{n}", p_min=-1.0 - n, p_max=1.0 + n,
                          energy_cap=4.0, soc_min=0.1, soc_max=0.9)
                  for n in range(5))
    trainer = Trainer(fleet_config(specs), method, TrainSettings(hidden=16),
                      np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for stack in (trainer.actor_stack, trainer.target_actor_stack,
                  trainer.critic_stack, trainer.target_critic_stack):
        for p in stack.params.values():  # distinct per group and net
            p += 0.3 * rng.standard_normal(p.shape)
    return trainer, rng


class TestStackedActors:
    N_ESS = 5

    @pytest.mark.parametrize("method", maddpg.METHODS, ids=group_ids)
    @pytest.mark.parametrize("batch", [1, N_ESS, 128])
    def test_joint_pass_matches_per_group_reference(self, method, batch):
        """One stacked pass gives each group's outputs and actor gradients
        bit for bit, also at batch 1 and batch == groups, where a stacked
        bias that skipped the batch axis would still broadcast."""
        trainer, rng = five_unit_trainer(method, 31)
        socs = rng.uniform(0.1, 0.9, (batch, self.N_ESS))
        counters = rng.integers(0, SLOTS_PER_DAY, batch).astype(float)
        v = rng.standard_normal((batch, VECTOR_DIM))
        dpi = rng.standard_normal((batch, self.N_ESS))
        for stack in (trainer.actor_stack, trainer.target_actor_stack):
            nets = [group_net(stack, g) for g in range(len(trainer.groups))]
            pis, cache = trainer.joint_pis(stack, features(socs, counters, v))
            want, caches = per_group_pis(trainer, nets, socs, counters, v)
            assert pis.tobytes() == want.tobytes()
            grads, dx = stack.backward(cache, np.stack(
                [dpi[:, cols] for cols in trainer.groups]))
            for g, cols in enumerate(trainer.groups):
                ref_grads, ref_dx = nets[g].backward(caches[g], dpi[:, cols])
                assert dx[g].tobytes() == ref_dx.tobytes()
                for k in ref_grads:
                    assert grads[k][g].tobytes() == ref_grads[k].tobytes(), (g, k)
        first, _ = trainer.joint_pis(trainer.actor_stack,
                                     features(socs[:1], counters[:1], v[:1]))
        assert trainer.raw_policy(socs[0], counters[0], v[0]).tobytes() == \
            first[0].tobytes()

    def test_unknown_method_rejected(self):
        """A learner is built for one of the named methods only."""
        env = tiny_env()
        for build in (lambda: build_trainer(env, TrainSettings(hidden=4), "bogus",
                                            np.random.default_rng(0)),
                      lambda: Trainer(env.config, "bogus", TrainSettings(hidden=4),
                                      np.random.default_rng(0))):
            with pytest.raises(ValueError, match="unknown learned method 'bogus'"):
                build()


class TestStackedCritics:
    N_ESS = 5

    @pytest.mark.parametrize("method", maddpg.METHODS, ids=group_ids)
    @pytest.mark.parametrize("batch", [1, N_ESS, 128])
    def test_stacked_pass_matches_per_group_reference(self, method, batch):
        """One stacked critic forward and backward over a shared state and
        action input gives each group's values, parameter gradients,
        ``dstate`` and ``dact`` as its 2-D pass, bit for bit."""
        trainer, rng = five_unit_trainer(method, 41)
        state = rng.standard_normal((batch, trainer.state_dim))
        actions = rng.standard_normal((batch, self.N_ESS))
        for stack in (trainer.critic_stack, trainer.target_critic_stack):
            q, cache = stack.forward(state, actions)
            dq = rng.standard_normal(q.shape)
            grads, dstate, dact = stack.backward(cache, dq)
            assert q.shape == (len(trainer.groups), batch)
            for g in range(len(trainer.groups)):
                net = group_net(stack, g)
                ref_q, ref_cache = net.forward(state, actions)
                ref_grads, ref_dstate, ref_dact = net.backward(ref_cache, dq[g])
                assert q[g].tobytes() == ref_q.tobytes()
                assert dstate[g].tobytes() == ref_dstate.tobytes()
                assert dact[g].tobytes() == ref_dact.tobytes()
                for k in ref_grads:
                    assert grads[k][g].tobytes() == ref_grads[k].tobytes(), (g, k)

    @pytest.mark.parametrize("method", maddpg.METHODS, ids=group_ids)
    @pytest.mark.parametrize("batch", [1, N_ESS, 128])
    def test_action_grad_matches_full_backward(self, method, batch):
        """The actor step's short backward gives the full backward's
        ``dact`` bit for bit, for 5 stacked groups and for 1."""
        trainer, rng = five_unit_trainer(method, 43)
        state = rng.standard_normal((batch, trainer.state_dim))
        actions = rng.standard_normal((batch, self.N_ESS))
        q, cache = trainer.critic_stack.forward(state, actions)
        dq = rng.standard_normal(q.shape)
        _, _, dact = trainer.critic_stack.backward(cache, dq)
        got = trainer.critic_stack.action_grad(cache, dq)
        assert got.shape == (len(trainer.groups), batch, self.N_ESS)
        assert got.tobytes() == dact.tobytes()


def take_group(cache, g: int):
    """Group ``g``'s slice of a stacked forward's (nested tuple) cache."""
    if isinstance(cache, tuple):
        return tuple(take_group(c, g) for c in cache)
    return cache[g]


class ReferenceTrainer(Trainer):
    """The Gauss-Seidel round that ``Trainer.update`` replaced: per group, a
    minibatch of its own, a critic step, an actor step through its stepped
    critic and its soft updates, each group seeing the groups before it
    already stepped; then one summed encoder step. It runs on a copy of a
    trainer, with per-group nets and Adam states on views of the copy's
    stacks, as the per-group lists were."""

    def __init__(self, trainer: Trainer):
        self.__dict__.update(copy.deepcopy(trainer).__dict__)
        groups = range(len(self.groups))
        self.actors = [group_net(self.actor_stack, g) for g in groups]
        self.critics = [group_net(self.critic_stack, g) for g in groups]
        self.target_actors = [group_net(self.target_actor_stack, g) for g in groups]
        self.target_critics = [group_net(self.target_critic_stack, g) for g in groups]
        self.actor_adam = [dk.AdamState.for_params(n.params) for n in self.actors]
        self.critic_adam = [dk.AdamState.for_params(n.params) for n in self.critics]

    def critic_update(self, g: int, replay: ReplayBuffer, idx: np.ndarray) -> float:
        """Temporal-difference regression toward the target networks."""
        s = self.settings
        next_socs = replay.next_socs[idx]
        next_state = features(next_socs, replay.next_counters[idx], replay.next_v[idx])
        next_pis, _ = self.joint_pis(self.target_actor_stack, next_state)
        next_actions, _ = self.apply_mask(next_pis, next_socs)
        q_next, _ = self.target_critics[g].forward(next_state, next_actions)
        y = replay.rewards[idx, g] + s.gamma * (1.0 - replay.dones[idx]) * q_next

        state = features(replay.socs[idx], replay.counters[idx], replay.v[idx])
        q, cache = self.critics[g].forward(state, replay.actions[idx])
        loss, dq = dk.mse_loss(q, y)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"critic loss non-finite in group {g}")
        grads, _, _ = self.critics[g].backward(cache, dq)
        dk.clip_grads(grads, s.grad_clip)
        dk.adam_step(self.critics[g].params, grads, self.critic_adam[g], s.lr_critic)
        return loss

    def actor_update(self, g: int, replay: ReplayBuffer, idx: np.ndarray):
        """Ascend the critic's value through the masking map.

        The raw output of every group is recomputed from the current
        behaviour policies on the stored states; only group ``g``'s action
        path is differentiated. The characteristic vector feeding the actors
        is re-encoded from the transitions' windows so the gradient reaches the
        shared encoder; the critic's state input keeps the stored vector.
        The critic's backward is seeded with -1/batch, so every gradient
        here is that of -objective and the descent-style optimizer ascends.
        Returns (objective, encoder gradient of -objective).
        """
        s = self.settings
        batch = len(idx)
        socs = replay.socs[idx]
        counters = replay.counters[idx]
        v_live, gru_cache = self.encoder.forward(replay.windows(idx))
        pis, cache = self.joint_pis(self.actor_stack, features(socs, counters, v_live))
        actions, slope = self.apply_mask(pis, socs)

        state = features(socs, counters, replay.v[idx])
        q, critic_cache = self.critics[g].forward(state, actions)
        objective = float(q.mean())
        if not np.isfinite(objective):
            raise TrainingDiverged(f"actor objective non-finite in group {g}")

        _, _, dact = self.critics[g].backward(critic_cache,
                                              np.full(batch, -1.0 / batch))
        cols = self.groups[g]
        grads, dfeat = self.actors[g].backward(take_group(cache, g),
                                               dact[:, cols] * slope[:, cols])
        dk.clip_grads(grads, s.grad_clip)
        dk.adam_step(self.actors[g].params, grads, self.actor_adam[g], s.lr_actor)
        gru_grads = self.encoder.backward(gru_cache, dfeat[:, -VECTOR_DIM:])
        return objective, gru_grads

    def reference_update(self, replay: ReplayBuffer, rng: np.random.Generator):
        """One full round: per group critic + actor + soft targets, then one
        summed encoder step at its own learning rate.

        Groups update in sequence (Gauss-Seidel, as in Algorithm 1 of Lowe
        et al. 2017): group ``g``'s critic target uses the already
        soft-updated target actors of groups ``< g``, and its actor step sees
        their already-stepped actors. The encoder takes one step on the sum
        of every group's encoder gradient after all groups.
        """
        s = self.settings
        gru_total: dict[str, np.ndarray] = {}
        losses = []
        objectives = []
        for g in range(len(self.groups)):
            idx = replay.sample_indices(s.batch_size, rng)
            losses.append(self.critic_update(g, replay, idx))
            objective, gru_grads = self.actor_update(g, replay, idx)
            objectives.append(objective)
            dk.accumulate(gru_total, gru_grads)
            dk.soft_update(self.target_critics[g].params, self.critics[g].params, s.tau)
            dk.soft_update(self.target_actors[g].params, self.actors[g].params, s.tau)
        dk.clip_grads(gru_total, s.grad_clip)
        dk.adam_step(self.encoder.params, gru_total, self.gru_adam, s.lr_gru)
        return losses, objectives


class TestReferenceRound:
    @pytest.mark.parametrize("n_ess, method", [(1, "maddpg"), (1, "ddpg"), (5, "ddpg")],
                             ids=group_ids)
    def test_one_group_round_matches_gauss_seidel_bit_for_bit(self, n_ess, method):
        """With one group the shared-minibatch round is the per-group
        round's arithmetic: 100 rounds leave every parameter, target, Adam
        moment and step count, and every loss and objective, the same bits."""
        env = tiny_env(n_ess=n_ess)
        settings = TrainSettings(hidden=16, batch_size=8)
        trainer = make_trainer(env, method, settings=settings, seed=51)
        reference = ReferenceTrainer(trainer)
        replay = fill_replay(env, trainer, steps=64, seed=52)
        rng_a, rng_b = np.random.default_rng(53), np.random.default_rng(53)
        for _ in range(100):
            got = trainer.update(replay, rng_a)
            want = reference.reference_update(replay, rng_b)
            assert np.array(got).tobytes() == np.array(want).tobytes()
        pairs = [(trainer.encoder.params, reference.encoder.params),
                 (trainer.gru_adam.m, reference.gru_adam.m),
                 (trainer.gru_adam.v, reference.gru_adam.v)]
        for stack, nets in ((trainer.actor_stack, reference.actors),
                            (trainer.critic_stack, reference.critics),
                            (trainer.target_actor_stack, reference.target_actors),
                            (trainer.target_critic_stack, reference.target_critics)):
            pairs.append((stack.params, nets[0].params))
        for state, states in ((trainer.actor_adam, reference.actor_adam),
                              (trainer.critic_adam, reference.critic_adam)):
            pairs += [(state.m, states[0].m), (state.v, states[0].v)]
            assert state.t == states[0].t == 100
        assert trainer.gru_adam.t == reference.gru_adam.t == 100
        for got, want in pairs:
            assert list(got) == list(want)
            for k in got:
                assert got[k].tobytes() == want[k].tobytes(), k


class TestCheckpoint:
    @pytest.mark.parametrize("n_ess", [1, 2])
    @pytest.mark.parametrize("method", maddpg.METHODS)
    def test_param_set_round_trip(self, tmp_path, method, n_ess):
        env = tiny_env(n_ess=n_ess)
        trainer = make_trainer(env, method, seed=21)
        replay = fill_replay(env, trainer)
        trainer.update(replay, np.random.default_rng(0))
        path = str(tmp_path / "ckpt.npz")
        trainer.param_set().save(path)

        fresh = make_trainer(env, method, seed=99)
        fresh.load_param_set(dk.ParamSet.load(path))
        obs = env.reset(0, np.random.default_rng(1))
        a = TrainedPolicy(trainer)(obs)
        b = TrainedPolicy(fresh)(obs)
        assert a.tobytes() == b.tobytes()
        for net in ("actor", "critic", "gru"):
            assert getattr(fresh, f"{net}_adam").t == getattr(trainer, f"{net}_adam").t

    @pytest.mark.parametrize("n_ess", [1, 2])
    @pytest.mark.parametrize("method", maddpg.METHODS)
    def test_loaded_checkpoint_keeps_actor_stacks_live(self, tmp_path, method, n_ess):
        """A loaded trainer learns on from the loaded values: its next
        update matches the saved trainer's byte for byte, which needs the
        load to reach the actor stacks that the forward passes run on."""
        env = tiny_env(n_ess=n_ess)
        trainer = make_trainer(env, method, seed=21)
        replay = fill_replay(env, trainer)
        trainer.update(replay, np.random.default_rng(0))
        path = str(tmp_path / "ckpt.npz")
        trainer.param_set().save(path)

        fresh = make_trainer(env, method, seed=99)
        fresh.load_param_set(dk.ParamSet.load(path))
        for t in (trainer, fresh):
            t.update(replay, np.random.default_rng(1))
        saved, loaded = trainer.param_set().tensors, fresh.param_set().tensors
        assert list(saved) == list(loaded)
        for k in saved:
            assert saved[k].tobytes() == loaded[k].tobytes(), k
        for a, b in ((trainer.actor_stack, fresh.actor_stack),
                     (trainer.target_actor_stack, fresh.target_actor_stack)):
            for k in a.params:
                assert a.params[k].tobytes() == b.params[k].tobytes(), k

    def test_key_names_and_order_for_two_ess(self):
        """The checkpoint holds the stacks: one key per tensor, each net's
        with its leading group axis, and one step count per optimizer."""
        trainer = make_trainer(tiny_env(n_ess=2))
        actor = ["W1", "b1", "g1", "be1", "W2", "b2", "g2", "be2", "W3", "b3"]
        critic = ["Ws", "bs", "gs", "bes", "Wa", "ba",
                  "W2", "b2", "g2", "be2", "W3", "b3"]
        gru = ["emb/W", "emb/b"]
        for layer in ("l0", "l1"):
            gru += [f"{layer}/{w}{gate}" for gate in "zrh" for w in "WUb"]
        gru += ["head/W", "head/b"]

        expected = [f"gru/{k}" for k in gru]
        for net, names in (("actor", actor), ("critic", critic),
                           ("target_actor", actor), ("target_critic", critic)):
            expected += [f"{net}/{k}" for k in names]
        for net, names in (("actor", actor), ("critic", critic), ("gru", gru)):
            expected += [f"adam/{net}/{moment}/{k}" for moment in "mv" for k in names]
            expected.append(f"adam/{net}/t")
        tensors = trainer.param_set().tensors
        assert list(tensors) == expected
        # Two groups of one unit: each actor sees 2 + VECTOR_DIM columns and
        # commands one unit; each critic sees the whole fleet's state and action.
        assert tensors["actor/W1"].shape == (2, 2 + VECTOR_DIM, 16)
        assert tensors["actor/W3"].shape == tensors["adam/actor/m/W3"].shape == (2, 16, 1)
        assert tensors["target_critic/Ws"].shape == (2, 4 + VECTOR_DIM, 16)
        assert tensors["critic/Wa"].shape == tensors["adam/critic/v/Wa"].shape == (2, 2, 16)
        assert tensors["gru/head/W"].ndim == 2
        for net in ("actor", "critic", "gru"):
            assert tensors[f"adam/{net}/t"].shape == (1,)
