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

import copy
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
            **dk.block_init(rng, in_dim, hidden, "1"),
            **dk.block_init(rng, hidden, hidden, "2"),
            # Final layer scaled down so initial actions start near zero.
            "W3": dk.uniform_init(rng, (hidden, out_dim),
                                  scale=1e-3 / np.sqrt(hidden)),
            "b3": np.zeros(out_dim),
        }

    def forward(self, x: np.ndarray):
        p = self.params
        h1, c1 = dk.block_forward(x, p, "1")
        h2, c2 = dk.block_forward(h1, p, "2")
        z3, c3 = dk.dense_forward(h2, p["W3"], p["b3"])
        pi, ct = dk.tanh_forward(z3)
        return pi, (c1, c2, c3, ct)

    def backward(self, cache, dpi: np.ndarray):
        c1, c2, c3, ct = cache
        dh2, dW3, db3 = dk.dense_backward(c3, dk.tanh_backward(ct, dpi))
        dh1, g2 = dk.block_backward(c2, dh2, "2")
        dx, g1 = dk.block_backward(c1, dh1, "1")
        return {**g1, **g2, "W3": dW3, "b3": db3}, dx


class CriticNet:
    """State through two 64 LN ReLU layers; the action embedding (64, ReLU)
    joins additively after the first state layer; scalar linear head."""

    def __init__(self, rng: np.random.Generator, state_dim: int, act_dim: int,
                 hidden: int):
        self.params = {
            **dk.block_init(rng, state_dim, hidden, "s"),
            "Wa": dk.uniform_init(rng, (act_dim, hidden)),
            "ba": np.zeros(hidden),
            **dk.block_init(rng, hidden, hidden, "2"),
            "W3": dk.uniform_init(rng, (hidden, 1)),
            "b3": np.zeros(1),
        }

    def forward(self, state: np.ndarray, actions: np.ndarray):
        p = self.params
        hs, cs = dk.block_forward(state, p, "s")
        za, ca = dk.dense_forward(actions, p["Wa"], p["ba"])
        ea, cra = dk.relu_forward(za)
        h2, c2 = dk.block_forward(hs + ea, p, "2")
        q, c3 = dk.dense_forward(h2, p["W3"], p["b3"])
        return q[:, 0], (cs, ca, cra, c2, c3)

    def backward(self, cache, dq: np.ndarray):
        cs, ca, cra, c2, c3 = cache
        dh2, dW3, db3 = dk.dense_backward(c3, dq[:, None])
        dh, g2 = dk.block_backward(c2, dh2, "2")
        # dh splits into the state tower and the action embedding.
        dact, dWa, dba = dk.dense_backward(ca, dk.relu_backward(cra, dh))
        dstate, gs = dk.block_backward(cs, dh, "s")
        grads = {**gs, "Wa": dWa, "ba": dba, **g2, "W3": dW3, "b3": db3}
        return grads, dstate, dact


@dataclass
class AgentGroup:
    """One actor commanding a slice of the ESS fleet."""

    ess_indices: tuple[int, ...]
    own_obs: int | None  # observe a single unit's SoC, or None for all


def features(socs: np.ndarray, counters: np.ndarray, v: np.ndarray,
             own: int | None = None) -> np.ndarray:
    """Network input: (soc, scaled counter) per unit, then the shared
    characteristic vector. The critic sees every unit; a per-agent actor
    sees the same layout restricted to unit ``own``."""
    socs = np.atleast_2d(socs)
    if own is not None:
        socs = socs[:, own:own + 1]
    n = 2 * socs.shape[1]
    out = np.empty((socs.shape[0], n + VECTOR_DIM))
    out[:, 0:n:2] = socs
    out[:, 1:n:2] = np.atleast_1d(counters)[:, None] * COUNTER_SCALE
    out[:, n:] = v
    return out


class ReplayBuffer:
    """Fixed-capacity FIFO of transitions in flat arrays. ``actions`` holds
    the masked commands (MW) the environment received."""

    def __init__(self, capacity: int, n_ess: int, n_groups: int,
                 window_shape: tuple[int, int]):
        self.capacity = capacity
        self.size = 0
        self._cursor = 0
        self.socs = np.zeros((capacity, n_ess))
        self.counters = np.zeros(capacity)
        self.v = np.zeros((capacity, VECTOR_DIM))
        self.actions = np.zeros((capacity, n_ess))
        self.rewards = np.zeros((capacity, n_groups))
        self.next_socs = np.zeros((capacity, n_ess))
        self.next_counters = np.zeros(capacity)
        self.next_v = np.zeros((capacity, VECTOR_DIM))
        self.dones = np.zeros(capacity)
        self.windows = np.zeros((capacity,) + window_shape)

    def add(self, socs, counter, v, actions, rewards, next_socs, next_counter,
            next_v, done, window) -> None:
        i = self._cursor
        self.socs[i] = socs
        self.counters[i] = counter
        self.v[i] = v
        self.actions[i] = actions
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
            self.target_actors.append(copy.deepcopy(actor))
            self.target_critics.append(copy.deepcopy(critic))
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

    def joint_pis(self, actors: list[ActorNet], socs, counters, v):
        """Every group's raw outputs assembled in ESS order, (batch, n_ess),
        and each group's actor cache."""
        socs = np.atleast_2d(socs)
        pis = np.zeros((socs.shape[0], self.n_ess))
        caches = []
        for group, actor in zip(self.groups, actors):
            out, cache = actor.forward(features(socs, counters, v, group.own_obs))
            pis[:, list(group.ess_indices)] = out
            caches.append(cache)
        return pis, caches

    def raw_policy(self, socs, counter, v) -> np.ndarray:
        """The behaviour actors' raw outputs in ESS order, one sample."""
        return self.joint_pis(self.actors, socs, counter, v)[0][0]

    def act(self, socs: np.ndarray, counter: int, window: np.ndarray):
        """Greedy (noise-free) raw outputs and masked commands."""
        v = self.encoder.encode(window)
        pis = self.raw_policy(socs, counter, v)
        actions, _ = self.apply_mask(pis, socs)
        return pis, actions[0], v

    # ----------------------------------------------------------- updates

    def critic_update(self, g: int, replay: ReplayBuffer, idx: np.ndarray) -> float:
        """Temporal-difference regression toward the target networks."""
        s = self.settings
        next_socs = replay.next_socs[idx]
        next_counters = replay.next_counters[idx]
        next_v = replay.next_v[idx]
        next_pis, _ = self.joint_pis(self.target_actors, next_socs,
                                     next_counters, next_v)
        next_actions, _ = self.apply_mask(next_pis, next_socs)
        q_next, _ = self.target_critics[g].forward(
            features(next_socs, next_counters, next_v), next_actions)
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
        is re-encoded from the stored windows so the gradient reaches the
        shared encoder; the critic's state input keeps the stored vector.
        The critic's backward is seeded with -1/batch, so every gradient
        here is that of -objective and the descent-style optimizer ascends.
        Returns (objective, encoder gradient of -objective).
        """
        s = self.settings
        batch = len(idx)
        socs = replay.socs[idx]
        counters = replay.counters[idx]
        v_live, gru_cache = self.encoder.forward(replay.windows[idx])
        pis, caches = self.joint_pis(self.actors, socs, counters, v_live)
        actions, slope = self.apply_mask(pis, socs)

        state = features(socs, counters, replay.v[idx])
        q, critic_cache = self.critics[g].forward(state, actions)
        objective = float(q.mean())
        if not np.isfinite(objective):
            raise TrainingDiverged(f"actor objective non-finite in group {g}")

        _, _, dact = self.critics[g].backward(critic_cache,
                                              np.full(batch, -1.0 / batch))
        cols = list(self.groups[g].ess_indices)
        grads, dfeat = self.actors[g].backward(caches[g],
                                               dact[:, cols] * slope[:, cols])
        dk.clip_grads(grads, s.grad_clip)
        dk.adam_step(self.actors[g].params, grads, self.actor_adam[g], s.lr_actor)
        gru_grads = self.encoder.backward(gru_cache, dfeat[:, -VECTOR_DIM:])
        return objective, gru_grads

    def update(self, replay: ReplayBuffer, rng: np.random.Generator):
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
    return [AgentGroup(ess_indices=(n,), own_obs=n) for n in range(n_ess)]


def ddpg_groups(n_ess: int) -> list[AgentGroup]:
    return [AgentGroup(ess_indices=tuple(range(n_ess)), own_obs=None)]


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
            replay.add(obs.soc, obs.counter, v, actions[0], rewards, next_obs.soc,
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
