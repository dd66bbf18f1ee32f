"""Cooperative deterministic-policy learner for storage dispatch.

Each agent owns one ESS, observes (SoC, outage counter, characteristic
vector) and emits a scalar in (-1, 1) that an affine SoC-aware mask maps to
a feasible power. Critics are centralized: they see every agent's state and
action. Targets track behaviour networks through soft updates.

The same machinery also runs the single-agent baseline: a "group" is one
actor commanding a set of ESS units, so the multi-agent learner is N groups
of one unit each and the single-agent baseline is one group of N units.
With one ESS the two are the same computation, which the tests exploit.

An update round samples one minibatch for all groups and steps them all at
once (Jacobi), each pass running once over group-axis stacks of the nets.
This departs from Algorithm 1 of Lowe et al. 2017, which gives each agent its
own minibatch and steps the agents in sequence; with one group they coincide.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import diffkit as dk
from .encoder import DayEncoding, GruEncoder, VECTOR_DIM
from .grid import SLOT_HOURS, SLOTS_PER_DAY, MicrogridConfig, mask_bounds

COUNTER_SCALE = 1.0 / SLOTS_PER_DAY  # keeps the slots-to-peak feature near unit range
METHODS = ("maddpg", "ddpg")  # one actor per ESS unit, or one joint actor


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


def stack_nets(nets: list) -> Any:
    """One net of ``nets``' type whose parameters hold theirs, copied, along
    a leading group axis."""
    stacked = copy.copy(nets[0])
    stacked.params = {k: np.stack([net.params[k] for net in nets])
                      for k in nets[0].params}
    return stacked


class ActorNet:
    """features -> 64 LN ReLU -> 64 LN ReLU -> tanh output.

    ``forward`` and ``backward`` also run a stack of same-shaped nets
    (``stack_nets``) in one pass over a leading group axis.
    """

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
    joins additively after the first state layer; scalar linear head. A
    stack (``stack_nets``) maps one (batch, ·) state and action input to
    (groups, batch) values."""

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
        return q[..., 0], (cs, ca, cra, c2, c3)

    def _to_action(self, cache, dq: np.ndarray):
        """The backward through the head and block "2": the gradients where the towers
        join and at the action embedding's pre-activation, and those layers' grads."""
        dh2, dW3, db3 = dk.dense_backward(cache[4], dq[..., None])
        dh, g2 = dk.block_backward(cache[3], dh2, "2")
        return dh, dk.relu_backward(cache[2], dh), {**g2, "W3": dW3, "b3": db3}

    def backward(self, cache, dq: np.ndarray):
        dh, dza, top = self._to_action(cache, dq)
        dact, dWa, dba = dk.dense_backward(cache[1], dza)
        dstate, gs = dk.block_backward(cache[0], dh, "s")
        return {**gs, "Wa": dWa, "ba": dba, **top}, dstate, dact

    def action_grad(self, cache, dq: np.ndarray) -> np.ndarray:
        """``backward``'s ``dact`` alone, the same bits, without the state tower."""
        return self._to_action(cache, dq)[1] @ cache[1][1].swapaxes(-1, -2)


def features(socs: np.ndarray, counters: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The critics' state rows, (batch, 2 n_ess + VECTOR_DIM): (soc, scaled
    counter) per unit, then the shared characteristic vector. Each actor's
    input is a column slice of these rows (``Trainer.columns``)."""
    socs = np.atleast_2d(socs)
    n = 2 * socs.shape[1]
    out = np.empty((socs.shape[0], n + VECTOR_DIM))
    out[:, 0:n:2] = socs
    out[:, 1:n:2] = np.atleast_1d(counters)[:, None] * COUNTER_SCALE
    out[:, n:] = v
    return out


class ReplayBuffer:
    """Fixed-capacity FIFO of transitions in flat arrays. ``actions`` holds the masked
    commands (MW) the env received; ``windows`` indexes the dataset's (day, slot,
    rows, horizon) window ``table`` by each transition's (day, slot)."""

    def __init__(self, capacity: int, n_ess: int, n_groups: int, table: np.ndarray):
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
        self.days, self.slots = np.zeros((2, capacity), dtype=int)
        self.table = table

    def add(self, socs, counter, v, actions, rewards, next_socs, next_counter,
            next_v, done, day, slot) -> None:
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
        self.days[i], self.slots[i] = day, slot
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.size, size=batch)

    def windows(self, idx: np.ndarray) -> np.ndarray:
        return self.table[self.days[idx], self.slots[idx]]


class Trainer:
    """Owns the networks, targets, optimizer state and the update rules;
    each group's nets and Adam moments are slices of group-axis stacks, and
    each group's actor input is the columns ``columns[g]`` of the critics'
    state rows."""

    def __init__(self, config: MicrogridConfig, method: str,
                 settings: TrainSettings, init_rng: np.random.Generator):
        if method not in METHODS:
            raise ValueError(f"unknown learned method {method!r}")
        self.config = config
        self.settings = settings
        self.n_ess = config.n_agents
        self.state_dim = 2 * self.n_ess + VECTOR_DIM

        # (groups, k): the units each group's actor observes and commands, in
        # fleet order, so the stacked actors' outputs need no scatter. A MADDPG
        # actor is paid its own unit's reward, DDPG's joint actor the slot cost.
        self.own_reward = method == "maddpg"
        self.groups = np.arange(self.n_ess).reshape((-1, 1) if self.own_reward
                                                    else (1, -1))
        # (groups, 2k + VECTOR_DIM): each group's units' (soc, counter) pairs,
        # then the characteristic vector, as columns of a ``features`` row.
        pairs = (2 * self.groups[..., None] + [0, 1]).reshape(len(self.groups), -1)
        vector = np.arange(2 * self.n_ess, self.state_dim)
        self.columns = np.hstack([pairs, np.tile(vector, (len(self.groups), 1))])

        self.encoder = GruEncoder(config.capacities, init_rng)
        k = self.groups.shape[1]
        nets = [(ActorNet(init_rng, 2 * k + VECTOR_DIM, settings.hidden, k),
                 CriticNet(init_rng, self.state_dim, self.n_ess, settings.hidden))
                for _ in self.groups]
        self.actor_stack, self.critic_stack = map(stack_nets, zip(*nets))
        self.target_actor_stack = copy.deepcopy(self.actor_stack)
        self.target_critic_stack = copy.deepcopy(self.critic_stack)
        self.actor_adam = dk.AdamState.for_params(self.actor_stack.params)
        self.critic_adam = dk.AdamState.for_params(self.critic_stack.params)
        self.gru_adam = dk.AdamState.for_params(self.encoder.params)

    # ----------------------------------------------------------- acting

    def apply_mask(self, pis: np.ndarray, socs: np.ndarray):
        """Affine map of raw (-1, 1) outputs onto each unit's SoC-feasible
        power window. Returns (actions, slope); slope is d action / d pi."""
        low, up = mask_bounds(self.config.ess_limits, np.atleast_2d(socs), SLOT_HOURS)
        slope = (up - low) / 2.0
        return slope * (np.atleast_2d(pis) + 1.0) + low, slope

    def joint_pis(self, actors: ActorNet, states: np.ndarray):
        """Every group's raw outputs in ESS order, (batch, n_ess), from one pass
        of the stacked ``actors`` over their ``columns`` of the (batch, state_dim)
        ``states``, gathered contiguous (groups, batch, ·); and its cache."""
        x = np.ascontiguousarray(states[:, self.columns].swapaxes(0, 1))
        out, cache = actors.forward(x)
        return out.transpose(1, 0, 2).reshape(len(states), -1), cache

    def raw_policy(self, socs, counter, v) -> np.ndarray:
        """The behaviour actors' raw outputs in ESS order, one sample."""
        return self.joint_pis(self.actor_stack, features(socs, counter, v))[0][0]

    # ----------------------------------------------------------- updates

    def critic_update(self, replay: ReplayBuffer, idx: np.ndarray, state: np.ndarray):
        """Every group's temporal-difference regression toward the target
        networks on minibatch ``idx``, whose critic input is ``state``.
        Returns the (groups,) losses."""
        s = self.settings
        next_socs = replay.next_socs[idx]
        next_state = features(next_socs, replay.next_counters[idx], replay.next_v[idx])
        next_pis, _ = self.joint_pis(self.target_actor_stack, next_state)
        next_actions, _ = self.apply_mask(next_pis, next_socs)
        q_next, _ = self.target_critic_stack.forward(next_state, next_actions)
        y = replay.rewards[idx].T + s.gamma * (1.0 - replay.dones[idx]) * q_next

        q, cache = self.critic_stack.forward(state, replay.actions[idx])
        losses, dq = dk.mse_loss(q, y)
        if not np.isfinite(losses).all():
            raise TrainingDiverged(f"critic loss non-finite in group "
                                   f"{np.argmin(np.isfinite(losses))}")
        grads, _, _ = self.critic_stack.backward(cache, dq)
        dk.clip_grads(grads, s.grad_clip, stacked=True)
        dk.adam_step(self.critic_stack.params, grads, self.critic_adam, s.lr_critic)
        return losses

    def actor_update(self, replay: ReplayBuffer, idx: np.ndarray,
                     state: np.ndarray):
        """Ascend each group's critic value through the masking map.

        Every group's raw output is computed from the current behaviour
        policies on the stored states; each group differentiates its own
        critic along its own units' action columns. The characteristic
        vector feeding the actors is re-encoded from the gathered windows so
        the gradient reaches the shared encoder; the critics' input
        ``state`` keeps the stored vector. The backward is seeded with
        -1/batch, so every gradient here is that of -objective and the
        descent-style optimizer ascends. Returns the (groups,) objectives
        and the encoder gradient of their summed -objective."""
        s = self.settings
        batch = len(idx)
        socs = replay.socs[idx]
        v_live, gru_cache = self.encoder.forward(replay.windows(idx))
        pis, cache = self.joint_pis(self.actor_stack,
                                    features(socs, replay.counters[idx], v_live))
        actions, slope = self.apply_mask(pis, socs)

        q, critic_cache = self.critic_stack.forward(state, actions)
        objectives = q.mean(axis=-1)
        if not np.isfinite(objectives).all():
            raise TrainingDiverged(f"actor objective non-finite in group "
                                   f"{np.argmin(np.isfinite(objectives))}")

        dact = self.critic_stack.action_grad(critic_cache, np.full(q.shape, -1.0 / batch))
        dpi = np.take_along_axis(dact * slope, self.groups[:, None, :], axis=2)
        grads, dfeat = self.actor_stack.backward(cache, dpi)
        dk.clip_grads(grads, s.grad_clip, stacked=True)
        dk.adam_step(self.actor_stack.params, grads, self.actor_adam, s.lr_actor)
        gru_grads = self.encoder.backward(gru_cache,
                                          dfeat[..., -VECTOR_DIM:].sum(axis=0))
        return objectives, gru_grads

    def update(self, replay: ReplayBuffer, rng: np.random.Generator):
        """One round on one shared minibatch, every group at once (Jacobi,
        unlike Algorithm 1 of Lowe et al. 2017): all critics step, then all
        actors through the stepped critics, each seeing the others' actors
        as before the round; then the soft target updates and one encoder
        step at its own learning rate. Returns per-group losses and
        objectives."""
        s = self.settings
        idx = replay.sample_indices(s.batch_size, rng)
        state = features(replay.socs[idx], replay.counters[idx], replay.v[idx])
        losses = self.critic_update(replay, idx, state)
        objectives, gru_grads = self.actor_update(replay, idx, state)
        dk.soft_update(self.target_critic_stack.params, self.critic_stack.params, s.tau)
        dk.soft_update(self.target_actor_stack.params, self.actor_stack.params, s.tau)
        dk.clip_grads(gru_grads, s.grad_clip)
        dk.adam_step(self.encoder.params, gru_grads, self.gru_adam, s.lr_gru)
        return losses.tolist(), objectives.tolist()

    # ------------------------------------------------------- persistence

    def _checkpoint_entries(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Every checkpointed tensor dict with its key prefix, in file order:
        the encoder, then the stacks with their leading group axis, then each
        optimizer's moments and its step count ``adam/<net>/t``, whose
        one-element dict here is a copy, restored separately."""
        entries = [("gru", self.encoder.params), ("actor", self.actor_stack.params),
                   ("critic", self.critic_stack.params),
                   ("target_actor", self.target_actor_stack.params),
                   ("target_critic", self.target_critic_stack.params)]
        for net in ("actor", "critic", "gru"):
            state = getattr(self, f"{net}_adam")
            entries += [(f"adam/{net}/m", state.m), (f"adam/{net}/v", state.v),
                        (f"adam/{net}", {"t": np.array([state.t], dtype=float)})]
        return entries

    def param_set(self) -> dk.ParamSet:
        return dk.ParamSet(tensors={
            f"{prefix}/{name}": p
            for prefix, params in self._checkpoint_entries()
            for name, p in params.items()})

    def load_param_set(self, ps: dk.ParamSet) -> None:
        names = self.param_set().tensors
        missing = [n for n in names if n not in ps.tensors]
        unexpected = [n for n in ps.tensors if n not in names]
        if missing or unexpected:
            raise ValueError("checkpoint does not match the model: missing "
                             f"{missing or 'none'}, unexpected {unexpected or 'none'}")
        for prefix, params in self._checkpoint_entries():
            for name in params:
                src = ps.tensors[f"{prefix}/{name}"]
                if src.shape != params[name].shape:
                    raise dk.ShapeError(
                        f"{prefix}/{name}: checkpoint {src.shape} vs "
                        f"model {params[name].shape}")
                params[name][...] = src
        for net in ("actor", "critic", "gru"):
            getattr(self, f"{net}_adam").t = int(ps.tensors[f"adam/{net}/t"][0])


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

    A day wholly in warmup is encoded in one batched pass, a later day in
    passes of ``update_every + 1`` slots. Every stored vector is encoded
    under the parameters current at its step, and the vector an agent acts
    on at slot t is the one stored as slot t-1's ``next_v``, so it predates
    an update that lands between the two slots.
    """
    total_steps = settings.episodes * SLOTS_PER_DAY
    replay = ReplayBuffer(settings.replay_capacity, trainer.n_ess, len(trainer.groups),
                          env.forecasts.windows)
    metrics: list[EpisodeMetrics] = []
    step = 0
    for episode in range(settings.episodes):
        day = int(train_days[env_rng.integers(len(train_days))])
        obs = env.reset(day, env_rng)
        warm = step + SLOTS_PER_DAY <= settings.warmup_steps  # no update this day
        encoded = DayEncoding(trainer.encoder, obs.windows,
                              None if warm else settings.update_every + 1)
        v = encoded.vector(obs.slot)
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
            # With one ESS the two rewards are the same value by another path.
            rewards = np.array(agent_rewards if trainer.own_reward
                               else [-result.cost_total])
            ep_reward += float(rewards.sum())
            next_v = encoded.vector(next_obs.slot)
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
                encoded.clear()
        record = env.record
        row = EpisodeMetrics(
            episode=episode,
            cost=record.cost,
            shed_mwh=record.shed_mwh,
            critic_loss=float(np.mean(ep_losses)) if ep_losses else float("nan"),
            actor_objective=(float(np.mean(ep_objectives)) if ep_objectives
                             else float("nan")),
            reward=ep_reward,
        )
        metrics.append(row)
        if episode_hook is not None:
            episode_hook(row)
    return metrics
