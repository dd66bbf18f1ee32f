"""Cooperative deterministic-policy learner for storage dispatch.

Each agent owns one ESS, observes (SoC, outage counter, characteristic
vector) and emits a scalar in (-1, 1) that an affine SoC-aware mask maps to
a feasible power. Critics are centralized: they see every agent's state and
action. Targets track behaviour networks through soft updates.

The same machinery also runs the single-agent baseline: a "group" is one
actor commanding a set of ESS units, so the multi-agent learner is N groups
of one unit each and the single-agent baseline is one group of N units.
With one ESS the two are the same computation, which the tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import diffkit as dk
from .encoder import GruEncoder, VECTOR_DIM
from .grid import SLOTS_PER_DAY, EssArrays, EssSpec, mask_bounds, shed_energy_mwh

COUNTER_SCALE = 1.0 / SLOTS_PER_DAY  # keeps the slots-to-peak feature near unit range


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; the trainer aborts with a diagnostic state."""


@dataclass
class TrainSettings:
    episodes: int = 400
    gamma: float = 0.99
    tau: float = 0.001
    lr_actor: float = 2.5e-4
    lr_critic: float = 2.5e-4
    lr_gru: float = 2.5e-4
    batch_size: int = 128
    update_every: int = 24
    updates_per: int = 1
    warmup_steps: int = 8000
    replay_capacity: int = 100_000
    noise_sigma_start: float = 0.2
    noise_sigma_end: float = 0.02
    grad_clip: float = 1.0
    hidden: int = 64

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TrainSettings":
        return cls(**d)


def explore(raw_pi: np.ndarray, rng: np.random.Generator, step: int,
            settings: TrainSettings, total_steps: int) -> np.ndarray:
    """Exploration noise: uniform actions during warmup, then Gaussian noise
    whose scale decays linearly over the run; output stays inside (-1, 1)."""
    if step < settings.warmup_steps:
        return rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, size=raw_pi.shape)
    sigma = noise_sigma(step, settings, total_steps)
    noisy = raw_pi + rng.normal(0.0, sigma, size=raw_pi.shape)
    return np.clip(noisy, -1.0 + 1e-6, 1.0 - 1e-6)


def noise_sigma(step: int, settings: TrainSettings, total_steps: int) -> float:
    frac = min(step / max(total_steps, 1), 1.0)
    return settings.noise_sigma_start + frac * (
        settings.noise_sigma_end - settings.noise_sigma_start)


class ActorNet:
    """features -> 64 LN ReLU -> 64 LN ReLU -> tanh output."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int,
                 out_dim: int):
        self.params = {
            "W1": dk.uniform_init(rng, (in_dim, hidden)),
            "b1": np.zeros(hidden),
            "g1": np.ones(hidden), "be1": np.zeros(hidden),
            "W2": dk.uniform_init(rng, (hidden, hidden)),
            "b2": np.zeros(hidden),
            "g2": np.ones(hidden), "be2": np.zeros(hidden),
            # Final layer scaled down so initial actions start near zero.
            "W3": dk.uniform_init(rng, (hidden, out_dim),
                                  scale=1e-3 / np.sqrt(hidden)),
            "b3": np.zeros(out_dim),
        }

    def forward(self, x: np.ndarray):
        p = self.params
        z1, c1 = dk.dense_forward(x, p["W1"], p["b1"])
        n1, cn1 = dk.layernorm_forward(z1, p["g1"], p["be1"])
        h1, cr1 = dk.relu_forward(n1)
        z2, c2 = dk.dense_forward(h1, p["W2"], p["b2"])
        n2, cn2 = dk.layernorm_forward(z2, p["g2"], p["be2"])
        h2, cr2 = dk.relu_forward(n2)
        z3, c3 = dk.dense_forward(h2, p["W3"], p["b3"])
        pi, ct = dk.tanh_forward(z3)
        return pi, (c1, cn1, cr1, c2, cn2, cr2, c3, ct)

    def backward(self, cache, dpi: np.ndarray):
        c1, cn1, cr1, c2, cn2, cr2, c3, ct = cache
        dz3 = dk.tanh_backward(ct, dpi)
        dh2, dW3, db3 = dk.dense_backward(c3, dz3)
        dn2 = dk.relu_backward(cr2, dh2)
        dz2, dg2, dbe2 = dk.layernorm_backward(cn2, dn2)
        dh1, dW2, db2 = dk.dense_backward(c2, dz2)
        dn1 = dk.relu_backward(cr1, dh1)
        dz1, dg1, dbe1 = dk.layernorm_backward(cn1, dn1)
        dx, dW1, db1 = dk.dense_backward(c1, dz1)
        grads = {"W1": dW1, "b1": db1, "g1": dg1, "be1": dbe1,
                 "W2": dW2, "b2": db2, "g2": dg2, "be2": dbe2,
                 "W3": dW3, "b3": db3}
        return grads, dx


class CriticNet:
    """State through two 64 LN ReLU layers; the action embedding (64, ReLU)
    joins additively after the first state layer; scalar linear head."""

    def __init__(self, rng: np.random.Generator, state_dim: int, act_dim: int,
                 hidden: int):
        self.params = {
            "Ws": dk.uniform_init(rng, (state_dim, hidden)),
            "bs": np.zeros(hidden),
            "gs": np.ones(hidden), "bes": np.zeros(hidden),
            "Wa": dk.uniform_init(rng, (act_dim, hidden)),
            "ba": np.zeros(hidden),
            "W2": dk.uniform_init(rng, (hidden, hidden)),
            "b2": np.zeros(hidden),
            "g2": np.ones(hidden), "be2": np.zeros(hidden),
            "W3": dk.uniform_init(rng, (hidden, 1)),
            "b3": np.zeros(1),
        }

    def forward(self, state: np.ndarray, actions: np.ndarray):
        p = self.params
        zs, cs = dk.dense_forward(state, p["Ws"], p["bs"])
        ns, cns = dk.layernorm_forward(zs, p["gs"], p["bes"])
        hs, crs = dk.relu_forward(ns)
        za, ca = dk.dense_forward(actions, p["Wa"], p["ba"])
        ea, cra = dk.relu_forward(za)
        h = hs + ea
        z2, c2 = dk.dense_forward(h, p["W2"], p["b2"])
        n2, cn2 = dk.layernorm_forward(z2, p["g2"], p["be2"])
        h2, cr2 = dk.relu_forward(n2)
        q, c3 = dk.dense_forward(h2, p["W3"], p["b3"])
        return q[:, 0], (cs, cns, crs, ca, cra, c2, cn2, cr2, c3)

    def backward(self, cache, dq: np.ndarray):
        cs, cns, crs, ca, cra, c2, cn2, cr2, c3 = cache
        dq = dq[:, None]
        dh2, dW3, db3 = dk.dense_backward(c3, dq)
        dn2 = dk.relu_backward(cr2, dh2)
        dz2, dg2, dbe2 = dk.layernorm_backward(cn2, dn2)
        dh, dW2, db2 = dk.dense_backward(c2, dz2)
        # dh splits into the state tower and the action embedding.
        dza = dk.relu_backward(cra, dh)
        dact, dWa, dba = dk.dense_backward(ca, dza)
        dns = dk.relu_backward(crs, dh)
        dzs, dgs, dbes = dk.layernorm_backward(cns, dns)
        dstate, dWs, dbs = dk.dense_backward(cs, dzs)
        grads = {"Ws": dWs, "bs": dbs, "gs": dgs, "bes": dbes,
                 "Wa": dWa, "ba": dba,
                 "W2": dW2, "b2": db2, "g2": dg2, "be2": dbe2,
                 "W3": dW3, "b3": db3}
        return grads, dstate, dact


@dataclass
class AgentGroup:
    """One actor commanding a slice of the ESS fleet."""

    name: str
    ess_indices: tuple[int, ...]
    own_obs: int | None  # observe a single unit's SoC, or None for all


def global_features(socs: np.ndarray, counters: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """Critic input: (soc, scaled counter) per agent then the shared vector."""
    socs = np.atleast_2d(socs)
    counters = np.atleast_1d(counters).astype(float)
    v = np.atleast_2d(v)
    n = socs.shape[1]
    parts = np.empty((socs.shape[0], 2 * n))
    parts[:, 0::2] = socs
    parts[:, 1::2] = counters[:, None] * COUNTER_SCALE
    return np.concatenate([parts, v], axis=1)


def group_features(group: AgentGroup, socs: np.ndarray, counters: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    if group.own_obs is None:
        return global_features(socs, counters, v)
    socs = np.atleast_2d(socs)
    counters = np.atleast_1d(counters).astype(float)
    v = np.atleast_2d(v)
    own = socs[:, group.own_obs:group.own_obs + 1]
    scaled = counters[:, None] * COUNTER_SCALE
    return np.concatenate([own, scaled, v], axis=1)


class ReplayBuffer:
    """Fixed-capacity FIFO of transitions in flat arrays."""

    def __init__(self, capacity: int, n_ess: int, n_groups: int,
                 window_shape: tuple[int, int]):
        self.capacity = capacity
        self.size = 0
        self._cursor = 0
        self.socs = np.zeros((capacity, n_ess))
        self.counters = np.zeros(capacity)
        self.v = np.zeros((capacity, VECTOR_DIM))
        self.pis = np.zeros((capacity, n_ess))
        self.rewards = np.zeros((capacity, n_groups))
        self.next_socs = np.zeros((capacity, n_ess))
        self.next_counters = np.zeros(capacity)
        self.next_v = np.zeros((capacity, VECTOR_DIM))
        self.dones = np.zeros(capacity)
        self.windows = np.zeros((capacity,) + window_shape)

    def add(self, socs, counter, v, pis, rewards, next_socs, next_counter,
            next_v, done, window) -> None:
        i = self._cursor
        self.socs[i] = socs
        self.counters[i] = counter
        self.v[i] = v
        self.pis[i] = pis
        self.rewards[i] = rewards
        self.next_socs[i] = next_socs
        self.next_counters[i] = next_counter
        self.next_v[i] = next_v
        self.dones[i] = float(done)
        self.windows[i] = window
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.size, size=batch)


class Trainer:
    """Owns the networks, targets, optimizer state and the update rules."""

    def __init__(self, ess_specs: tuple[EssSpec, ...], dt: float,
                 groups: list[AgentGroup], window_rows: int,
                 capacities: np.ndarray, settings: TrainSettings,
                 init_rng: np.random.Generator):
        self.ess_limits = EssArrays.of(ess_specs)
        self.dt = dt
        self.groups = groups
        self.settings = settings
        self.n_ess = len(ess_specs)
        self.state_dim = 2 * self.n_ess + VECTOR_DIM

        self.encoder = GruEncoder(window_rows, capacities, init_rng)
        self.actors: list[ActorNet] = []
        self.critics: list[CriticNet] = []
        self.target_actors: list[ActorNet] = []
        self.target_critics: list[CriticNet] = []
        self.actor_adam: list[dk.AdamState] = []
        self.critic_adam: list[dk.AdamState] = []
        for group in groups:
            obs_dim = (2 + VECTOR_DIM) if group.own_obs is not None else self.state_dim
            act_dim = len(group.ess_indices)
            actor = ActorNet(init_rng, obs_dim, settings.hidden, act_dim)
            critic = CriticNet(init_rng, self.state_dim, self.n_ess, settings.hidden)
            self.actors.append(actor)
            self.critics.append(critic)
            tgt_a = ActorNet.__new__(ActorNet)
            tgt_a.params = {k: p.copy() for k, p in actor.params.items()}
            tgt_c = CriticNet.__new__(CriticNet)
            tgt_c.params = {k: p.copy() for k, p in critic.params.items()}
            self.target_actors.append(tgt_a)
            self.target_critics.append(tgt_c)
            self.actor_adam.append(dk.AdamState.for_params(actor.params))
            self.critic_adam.append(dk.AdamState.for_params(critic.params))
        self.gru_adam = dk.AdamState.for_params(self.encoder.params)

    # ----------------------------------------------------------- acting

    def apply_mask(self, pis: np.ndarray, socs: np.ndarray):
        """Affine map of raw (-1, 1) outputs onto each unit's SoC-feasible
        power window. Returns (actions, slope); slope is d action / d pi."""
        low, up = mask_bounds(self.ess_limits, np.atleast_2d(socs), self.dt)
        slope = (up - low) / 2.0
        return slope * (np.atleast_2d(pis) + 1.0) + low, slope

    def raw_policy(self, socs, counter, v, target: bool = False) -> np.ndarray:
        """All groups' raw outputs assembled in ESS order, one sample."""
        actors = self.target_actors if target else self.actors
        pis = np.zeros(self.n_ess)
        for group, actor in zip(self.groups, actors):
            feats = group_features(group, socs, counter, v)
            out, _ = actor.forward(feats)
            pis[list(group.ess_indices)] = out[0]
        return pis

    def act(self, socs: np.ndarray, counter: int, window: np.ndarray):
        """Greedy (noise-free) raw outputs and masked commands."""
        v = self.encoder.encode(window)
        pis = self.raw_policy(socs, counter, v)
        actions, _ = self.apply_mask(pis, socs)
        return pis, actions[0], v

    # ----------------------------------------------------------- updates

    def _batch_actions(self, replay: ReplayBuffer, idx: np.ndarray,
                       target: bool, next_state: bool) -> np.ndarray:
        socs = replay.next_socs[idx] if next_state else replay.socs[idx]
        counters = replay.next_counters[idx] if next_state else replay.counters[idx]
        v = replay.next_v[idx] if next_state else replay.v[idx]
        actors = self.target_actors if target else self.actors
        pis = np.zeros((len(idx), self.n_ess))
        for group, actor in zip(self.groups, actors):
            feats = group_features(group, socs, counters, v)
            out, _ = actor.forward(feats)
            pis[:, list(group.ess_indices)] = out
        actions, _ = self.apply_mask(pis, socs)
        return actions

    def critic_update(self, g: int, replay: ReplayBuffer, idx: np.ndarray) -> float:
        """Temporal-difference regression toward the target networks."""
        s = self.settings
        next_actions = self._batch_actions(replay, idx, target=True, next_state=True)
        next_state = global_features(replay.next_socs[idx],
                                     replay.next_counters[idx], replay.next_v[idx])
        q_next, _ = self.target_critics[g].forward(next_state, next_actions)
        y = replay.rewards[idx, g] + s.gamma * (1.0 - replay.dones[idx]) * q_next

        state = global_features(replay.socs[idx], replay.counters[idx],
                                replay.v[idx])
        actions, _ = self.apply_mask(replay.pis[idx], replay.socs[idx])
        q, cache = self.critics[g].forward(state, actions)
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
        is re-encoded from the stored windows so the gradient reaches the
        shared encoder; the critic's state input keeps the stored vector.
        Returns (objective, encoder gradient contribution).
        """
        s = self.settings
        batch = len(idx)
        socs = replay.socs[idx]
        counters = replay.counters[idx]
        v_live, gru_cache = self.encoder.forward(replay.windows[idx])

        pis = np.zeros((batch, self.n_ess))
        cache_g = None
        for h, (group, actor) in enumerate(zip(self.groups, self.actors)):
            feats = group_features(group, socs, counters, v_live)
            out, cache = actor.forward(feats)
            pis[:, list(group.ess_indices)] = out
            if h == g:
                cache_g = cache
        actions, slope = self.apply_mask(pis, socs)

        state = global_features(socs, counters, replay.v[idx])
        q, critic_cache = self.critics[g].forward(state, actions)
        objective = float(q.mean())
        if not np.isfinite(objective):
            raise TrainingDiverged(f"actor objective non-finite in group {g}")

        _, _, dact = self.critics[g].backward(critic_cache, np.full(batch, 1.0 / batch))
        cols = list(self.groups[g].ess_indices)
        dpi = dact[:, cols] * slope[:, cols]
        grads, dfeat = self.actors[g].backward(cache_g, dpi)

        # Ascent: negate before the descent-style optimizer.
        dk.clip_grads(grads, s.grad_clip)
        neg = {k: -v for k, v in grads.items()}
        dk.adam_step(self.actors[g].params, neg, self.actor_adam[g], s.lr_actor)

        dv = dfeat[:, -VECTOR_DIM:]
        gru_grads = self.encoder.backward(gru_cache, dv)
        return objective, gru_grads

    def update(self, replay: ReplayBuffer, rng: np.random.Generator):
        """One full round: per group critic + actor + soft targets, then one
        summed encoder step at its own learning rate."""
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
        neg = {k: -v for k, v in gru_total.items()}
        dk.adam_step(self.encoder.params, neg, self.gru_adam, s.lr_gru)
        return losses, objectives

    # ------------------------------------------------------- persistence

    def _adam_states(self) -> list[tuple[str, dk.AdamState]]:
        states = []
        for g in range(len(self.groups)):
            states += [(f"actor{g}", self.actor_adam[g]),
                       (f"critic{g}", self.critic_adam[g])]
        return states + [("gru", self.gru_adam)]

    def _checkpoint_entries(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Every checkpointed tensor dict with its key prefix, in file order.
        An optimizer's step count is stored as ``adam/<net>/t`` after its
        moments; its one-element dict here is a copy, restored separately."""
        entries = [("gru", self.encoder.params)]
        for g in range(len(self.groups)):
            entries += [(f"actor{g}", self.actors[g].params),
                        (f"critic{g}", self.critics[g].params),
                        (f"target_actor{g}", self.target_actors[g].params),
                        (f"target_critic{g}", self.target_critics[g].params)]
        for name, state in self._adam_states():
            entries += [(f"adam/{name}/m", state.m), (f"adam/{name}/v", state.v),
                        (f"adam/{name}", {"t": np.array([state.t], dtype=float)})]
        return entries

    def param_set(self) -> dk.ParamSet:
        return dk.ParamSet(tensors={
            f"{prefix}/{name}": p
            for prefix, params in self._checkpoint_entries()
            for name, p in params.items()})

    def load_param_set(self, ps: dk.ParamSet) -> None:
        for prefix, params in self._checkpoint_entries():
            for name in params:
                src = ps.tensors[f"{prefix}/{name}"]
                if src.shape != params[name].shape:
                    raise dk.ShapeError(
                        f"{prefix}/{name}: checkpoint {src.shape} vs "
                        f"model {params[name].shape}")
                params[name] = src.copy()
        for name, state in self._adam_states():
            state.t = int(ps.tensors[f"adam/{name}/t"][0])


def maddpg_groups(n_ess: int) -> list[AgentGroup]:
    return [AgentGroup(name=f"agent{n}", ess_indices=(n,), own_obs=n)
            for n in range(n_ess)]


def ddpg_groups(n_ess: int) -> list[AgentGroup]:
    return [AgentGroup(name="joint", ess_indices=tuple(range(n_ess)), own_obs=None)]


def group_reward(group: AgentGroup, agent_rewards: np.ndarray,
                 slot_cost: float) -> float:
    """Per-agent groups get their own reward; a joint group pays the full
    slot cost (identical to the per-agent reward when there is one ESS)."""
    if group.own_obs is not None:
        return float(agent_rewards[group.ess_indices[0]])
    return -slot_cost


@dataclass
class EpisodeMetrics:
    episode: int
    cost: float
    shed_mwh: float
    critic_loss: float  # mean over this episode's updates, nan before any
    actor_objective: float
    reward: float


def run_training(env, trainer: Trainer, settings: TrainSettings,
                 train_days: list[int], env_rng: np.random.Generator,
                 noise_rng: np.random.Generator,
                 replay_rng: np.random.Generator,
                 episode_hook: Callable[[EpisodeMetrics], None] | None = None,
                 ) -> list[EpisodeMetrics]:
    """The outer loop: roll episodes, store transitions, trigger updates.

    Exploration is uniform for the first ``warmup_steps`` environment steps
    and updates only start after the warmup; from then on one full update
    round runs every ``update_every`` steps. Raises TrainingDiverged if any
    loss goes non-finite.
    """
    total_steps = settings.episodes * SLOTS_PER_DAY
    replay = ReplayBuffer(settings.replay_capacity, trainer.n_ess,
                          len(trainer.groups),
                          (env.obs_window_rows, env.horizon))
    metrics: list[EpisodeMetrics] = []
    step = 0
    for episode in range(settings.episodes):
        day = int(train_days[env_rng.integers(len(train_days))])
        obs = env.reset(day, env_rng)
        v = trainer.encoder.encode(obs.window)
        ep_losses: list[float] = []
        ep_objectives: list[float] = []
        ep_reward = 0.0
        for _ in range(SLOTS_PER_DAY):
            if step < settings.warmup_steps:
                pis = explore(np.zeros(trainer.n_ess), noise_rng, step,
                              settings, total_steps)
            else:
                pis = trainer.raw_policy(obs.soc, obs.counter, v)
                pis = explore(pis, noise_rng, step, settings, total_steps)
            actions, _ = trainer.apply_mask(pis, obs.soc)
            result, agent_rewards, next_obs, done = env.step(actions[0])
            rewards = np.array([
                group_reward(group, agent_rewards, result.cost_total)
                for group in trainer.groups])
            ep_reward += float(rewards.sum())
            next_v = trainer.encoder.encode(next_obs.window)
            replay.add(obs.soc, obs.counter, v, pis, rewards, next_obs.soc,
                       next_obs.counter, next_v, done, obs.window)
            obs, v = next_obs, next_v
            step += 1
            if (step >= settings.warmup_steps
                    and step % settings.update_every == 0
                    and replay.size >= settings.batch_size):
                for _ in range(settings.updates_per):
                    losses, objectives = trainer.update(replay, replay_rng)
                    ep_losses.extend(losses)
                    ep_objectives.extend(objectives)
        record = env.record
        row = EpisodeMetrics(
            episode=episode,
            cost=record.cost,
            shed_mwh=shed_energy_mwh(record.results, env.config.costs.slot_hours),
            critic_loss=float(np.mean(ep_losses)) if ep_losses else float("nan"),
            actor_objective=(float(np.mean(ep_objectives)) if ep_objectives
                             else float("nan")),
            reward=ep_reward,
        )
        metrics.append(row)
        if episode_hook is not None:
            episode_hook(row)
    return metrics
