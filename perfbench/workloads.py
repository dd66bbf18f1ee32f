"""The benchmark's workloads, their output checks and their metrics.

Every workload is one closed-loop caller: each step, day or solve starts
only after the previous one returned. A run sets the scenario up once, then
repeats the workload's fixed job until the time budget is spent (at least
twice, so the deterministic outputs of the repeats can be compared).

* ``train-maddpg`` / ``train-ddpg``: ``harness.train_run`` with the default
  ``train`` settings (warmup 8000 steps) and a shortened episode count.
* ``evaluate``: rule rollout, greedy rollout of an untrained
  ``TrainedPolicy``, power-flow audit of the greedy slots, and the DP oracle
  on a 2-ESS variant of the fleet for test days with a forced outage.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import shutil
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from gridres import baselines, encoder, env as envmod, harness, maddpg, powerflow
from gridres import diffkit as dk
from gridres.config import build_microgrid, resolve_dict

from tracer import Tracer

SLOTS = envmod.SLOTS_PER_DAY
BALANCE_TOL = 1e-9  # |balance_residual| allowed on any slot
DP_REPLAY_TOL = 1e-8  # replayed DP schedule cost vs the oracle's cost
MIN_REPEATS = 2
# Repeats a full-size run holds; the tail percentile is fixed for this many
# repeats' samples, so it does not change with the speed of the code.
TAIL_REPEATS = 4

# Post-warmup episodes per train_run, sized so that four repeats fill a
# 36 s run on a 2-CPU host (warmup 4-7 s; then MADDPG 0.3-0.45 s, DDPG
# 0.1-0.15 s per episode). Short repeats spread every figure's samples
# over the whole run (README, "Host noise").
POST_WARMUP_EPISODES = {"train-maddpg": 8, "train-ddpg": 20}
DP_GRID_POINTS = 21


@dataclasses.dataclass(frozen=True)
class Sizes:
    post_warmup_episodes: int
    eval_days: int | None  # None: every test day
    dp_grid_points: int
    train_overrides: dict


def sizes(workload: str, tiny: bool) -> Sizes:
    """Full sizes keep the default train settings; tiny ones only exercise
    every code path for the schema smoke test."""
    if tiny:
        return Sizes(post_warmup_episodes=2, eval_days=2,
                     dp_grid_points=5,
                     train_overrides={"warmup_steps": SLOTS,
                                      "replay_capacity": 4 * SLOTS})
    return Sizes(post_warmup_episodes=POST_WARMUP_EPISODES.get(workload, 0),
                 eval_days=None,
                 dp_grid_points=DP_GRID_POINTS, train_overrides={})


def warmup_episodes(settings: maddpg.TrainSettings) -> int:
    """Episodes that contain at least one uniform-exploration step."""
    return -(-settings.warmup_steps // SLOTS)


# ------------------------------------------------------------------ setup

def setup(workload: str, seed: int, tiny: bool) -> SimpleNamespace:
    """Everything up to the first timed operation: config resolution,
    dataset, env, and the trainer (plus the feeder for ``evaluate``)."""
    size = sizes(workload, tiny)
    overrides: dict[str, Any] = {}
    if workload != "evaluate":
        train = dict(size.train_overrides)
        warm = warmup_episodes(maddpg.TrainSettings(**train))
        train["episodes"] = warm + size.post_warmup_episodes
        overrides["train"] = train
    cfg = resolve_dict(overrides=overrides)
    dataset = harness.build_dataset(cfg, harness.seed_stream(seed, "data"))
    env = harness.build_env(cfg, dataset)
    settings = maddpg.TrainSettings.from_dict(cfg["train"])
    method = "ddpg" if workload == "train-ddpg" else "maddpg"
    trainer = baselines.build_trainer(env, settings, method,
                                      harness.seed_stream(seed, "init"))
    sc = SimpleNamespace(workload=workload, seed=seed, size=size, cfg=cfg,
                         dataset=dataset, env=env, settings=settings,
                         method=method, trainer=trainer)
    if workload == "evaluate":
        sc.mg = build_microgrid(cfg)
        sc.rule = baselines.RulePolicy(sc.mg)
        sc.greedy = baselines.TrainedPolicy(trainer)
        sc.topology = powerflow.load_ieee33()
        sc.mg2 = dataclasses.replace(sc.mg, ess=sc.mg.ess[:2])
        days = dataset.test_days
        sc.days = days if size.eval_days is None else days[:size.eval_days]
    return sc


# ----------------------------------------------------------------- checks

def broken_slots(config, record) -> int:
    """Slots of one episode that break a physics invariant."""
    bad = 0
    for slot, r in enumerate(record.results):
        soc = record.soc_trace[slot + 1]
        ok = (all(s.soc_min <= x <= s.soc_max for s, x in zip(config.ess, soc))
              and 0.0 <= r.alpha <= 1.0
              and abs(r.balance_residual) <= BALANCE_TOL
              and math.isfinite(r.cost_total))
        bad += not ok
    return bad


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcome:
    """Attempted and failed operations of a run, failures by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, int] = {}

    def count(self, kind: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        if failed:
            self.failed[kind] = self.failed.get(kind, 0) + failed

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


# --------------------------------------------------------------- repeats

def train_repeat(sc: SimpleNamespace, out_dir: Path, tracer: Tracer,
                 outcome: Outcome) -> dict:
    """One whole ``train_run``, timed per episode from its episode hook."""
    stamps: list[float] = []
    records: list = []
    original = harness.run_training

    def timed_run_training(env, trainer, settings, *args, episode_hook, **kw):
        def hook(row):
            stamps.append(perf_counter())
            records.append(env.record)
            tracer.request = f"ep{row.episode + 1}"
            episode_hook(row)

        tracer.request = "ep0"
        stamps.append(perf_counter())
        return original(env, trainer, settings, *args, episode_hook=hook, **kw)

    harness.run_training = timed_run_training
    try:
        with tracer.bench_span("bench.train"):
            t0 = perf_counter()
            metrics = harness.train_run(sc.cfg, sc.seed, out_dir, method=sc.method)
            train_s = perf_counter() - t0
    finally:
        harness.run_training = original

    episode_s = np.diff(stamps)
    warm = warmup_episodes(sc.settings)
    full_warm = sc.settings.warmup_steps // SLOTS  # episodes of warmup only
    every = sc.settings.update_every
    first_update = every * max(-(-sc.settings.warmup_steps // every),
                               -(-sc.settings.batch_size // every))
    losses_from = (first_update - 1) // SLOTS  # first episode with updates

    # One operation per episode; an episode fails on either check.
    bad_loss = {m.episode for m in metrics[losses_from:]
                if not (math.isfinite(m.critic_loss)
                        and math.isfinite(m.actor_objective))}
    bad_slots = {i for i, rec in enumerate(records)
                 if broken_slots(sc.env.config, rec)}
    outcome.count("non_finite_loss", 0, len(bad_loss))
    outcome.count("slot_invariant", len(records), len(bad_slots - bad_loss))
    digest = sha256((out_dir / "metrics.csv").read_bytes())
    shutil.rmtree(out_dir)
    return {
        "wall_s": train_s,
        "warmup_episode_s": episode_s[:full_warm].tolist(),
        "post_episode_s": episode_s[warm:].tolist(),
        "digest": digest,
    }


def evaluate_repeat(sc: SimpleNamespace, out_dir: Path, tracer: Tracer,
                    outcome: Outcome) -> dict:
    """The four evaluate phases over the test days.

    Host speed switches level every few seconds, so the phases are
    interleaved day by day (rule, greedy, audit) and each samples the whole
    repeat; the DP then solves the first day with its outage. Each rollout
    keeps its own ``env`` stream, so its outputs match one ``run_days`` call
    over all the days.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    env, days = sc.env, sc.days
    rule_rng = harness.seed_stream(sc.seed, "env")
    greedy_rng = harness.seed_stream(sc.seed, "env")
    rule_records, rule_eps, rule_times = [], [], []
    greedy_records, greedy_eps, greedy_times = [], [], []
    audit_rows: list[str] = []
    audit_times: list[float] = []
    violation_slots = nonconverged = 0
    series = sc.dataset.series

    def rollout(policy, day, rng, phase, records, episodes, times):
        with tracer.bench_span(phase):
            t0 = perf_counter()
            recs, eps = harness.run_days(env, policy, [day], rng)
            times.append(perf_counter() - t0)
        records += recs
        episodes += eps

    t_repeat = perf_counter()
    for day in days:
        tracer.request = f"day{day}"
        rollout(sc.rule, day, rule_rng, "bench.rule",
                rule_records, rule_eps, rule_times)
        rollout(sc.greedy, day, greedy_rng, "bench.policy",
                greedy_records, greedy_eps, greedy_times)
        with tracer.bench_span("bench.audit"):
            t0 = perf_counter()
            for slot, result in enumerate(greedy_eps[-1].results):
                tracer.request = f"day{day}/slot{slot}"
                report = powerflow.check_dispatch(sc.topology, sc.mg, result)
                violation_slots += bool(report.violations)
                nonconverged += not report.converged
                audit_rows.append(
                    f"{day},{slot},{int(report.converged)},"
                    f"{len(report.violations)},{report.v_min:.6f},"
                    f"{report.v_max:.6f},{report.loss_mw:.6f}")
            audit_times.append(perf_counter() - t0)
    rec = greedy_eps[0]
    tracer.request = f"dp-day{rec.day}"
    onset, duration = forced_outage(rec, sc)
    with tracer.bench_span("bench.dp"):
        t0 = perf_counter()
        res = baselines.dp_oracle(sc.mg2, series.pv[:, rec.day, :],
                                  series.load[:, rec.day, :],
                                  (onset, duration),
                                  grid_points=sc.size.dp_grid_points,
                                  refine=True)
        dp_s = perf_counter() - t0
        replay_env = envmod.MicrogridEnv(
            sc.mg2, series, sc.dataset.forecasts,
            envmod.OutageSettings(forced_onset=onset,
                                  forced_duration=duration,
                                  forced_peak_slot=onset),
            horizon=sc.cfg["data"]["window"])
        replay_env.reset(rec.day, np.random.default_rng(0))
        for slot in range(SLOTS):
            replay_env.step(res.commands[slot])
    wall_s = perf_counter() - t_repeat
    dp_line = (f"{rec.day},{onset},{duration},{res.cost!r},"
               f"{res.delta_grid!r},{sha256(res.commands.tobytes())}")

    n_rule = sum(len(r.results) for r in rule_eps)
    n_greedy = sum(len(r.results) for r in greedy_eps)
    outcome.count("slot_invariant", n_rule + n_greedy,
                  sum(broken_slots(sc.mg, r) for r in rule_eps + greedy_eps)
                  + broken_slots(sc.mg2, replay_env.record))
    outcome.count("powerflow_nonconverged", len(audit_rows), nonconverged)
    outcome.count("dp_replay_mismatch", 1,
                  abs(replay_env.record.cost - res.cost) > DP_REPLAY_TOL)

    harness.write_day_records(out_dir / "days-rule.csv", rule_records)
    harness.write_day_records(out_dir / "days-greedy.csv", greedy_records)
    blob = b"".join((out_dir / f).read_bytes()
                    for f in ("days-rule.csv", "days-greedy.csv"))
    blob += "\n".join(audit_rows + [dp_line]).encode()
    shutil.rmtree(out_dir)
    return {
        "wall_s": wall_s,
        "rule_day_s": rule_times,
        "policy_day_s": greedy_times,
        "check_day_s": audit_times,
        "audit_day_s": [g + a for g, a in zip(greedy_times, audit_times)],
        "dp_s": [dp_s],
        "violation_slots": violation_slots,
        "nonconverged": nonconverged,
        "digest": sha256(blob),
    }


def forced_outage(rec, sc: SimpleNamespace) -> tuple[int, int]:
    """The outage the day's greedy rollout drew, or a seeded one if the day
    had none, so the DP always solves an islanding day."""
    if rec.outage is not None:
        return rec.outage.onset_slot, rec.outage.duration_slots
    rng = np.random.default_rng([sc.seed, rec.day])
    lo, hi = sc.cfg["outage"]["duration_range"]
    duration = int(rng.integers(lo, hi + 1))
    return int(rng.integers(SLOTS - duration)), duration


# ---------------------------------------------------------------- metrics

def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten samples beyond it
    (linear interpolation between order statistics); 100 when n < 11."""
    for p in range(99, 0, -1):
        if n - 1 - math.floor(p / 100 * (n - 1)) >= 10:
            return p
    return 100


def day_rate(day_s: list[float]) -> tuple:
    """Slots per second of the median day (or episode)."""
    return SLOTS / float(np.median(day_s)), "slots/s", len(day_s)


def tail_percentiles(reps: list[dict]) -> dict[str, int]:
    """Tail percentile of each sampled figure, fixed for ``TAIL_REPEATS``
    repeats' samples so that it does not change with the number of repeats
    a run holds."""
    return {k: tail_percentile(len(v) * TAIL_REPEATS)
            for k, v in reps[0].items() if isinstance(v, list)}


def summarize(workload: str, reps: list[dict]) -> dict:
    """End-to-end figures of a set of repeats under the workload's own
    names: name -> (value, unit, n)."""
    tails = tail_percentiles(reps)

    def pooled(key):
        return [x for r in reps for x in r[key]]

    def stats(key):
        samples = pooled(key)
        return len(samples), {"best": min(samples),
                              "p50": float(np.median(samples)),
                              "tail": float(np.percentile(samples, tails[key]))}

    def times(name, key):
        n, st = stats(key)
        return {f"{name}.{k}": (v, "s", n) for k, v in st.items()}

    def rates(name, key, unit="slots/s"):
        """Slots per second of the median (bare name), fastest and tail day."""
        n, st = stats(key)
        return {f"{name}.{k}".removesuffix(".p50"): (SLOTS / v, unit, n)
                for k, v in st.items()}

    wall = [r["wall_s"] for r in reps]
    if workload == "evaluate":
        dp = pooled("dp_s")
        return {
            **rates("rule_eval_slots_per_s", "rule_day_s"),
            "policy_eval_slots_per_s": day_rate(pooled("policy_day_s")),
            "audit_slots_per_s": day_rate(pooled("check_day_s")),
            "dp_solve_s": (float(np.median(dp)), "s", len(dp)),
            **times("audit_day_s", "audit_day_s"),
            "evaluate_s": (float(np.mean(wall)), "s", len(wall)),
        }
    return {
        **rates("warmup_steps_per_s", "warmup_episode_s", "steps/s"),
        **times("train_episode_s", "post_episode_s"),
        "train_s": (float(np.mean(wall)), "s", len(wall)),
    }


# Generic end-to-end names shared by every workload -> the workload's own
# figure behind it. Host speed switches between a few levels (README, "Host
# noise"); the tail day stays on the slow level, which every run reaches,
# while the median and the fastest day move with the mix of levels in a run.
# A job spans several levels: its mean over the run still spread too much to
# gate, so BENCHMARK.json gates every name here but ``job_s``.
GENERIC = {
    "train": {"rollout_slots_per_s.tail": "warmup_steps_per_s.tail",
              "day_s.tail": "train_episode_s.tail",
              "job_s": "train_s"},
    "evaluate": {"rollout_slots_per_s.tail": "rule_eval_slots_per_s.tail",
                 "day_s.tail": "audit_day_s.tail",
                 "job_s": "evaluate_s"},
}
GENERIC_UNITS = {"rollout_slots_per_s.tail": "slots/s", "day_s.tail": "s",
                 "job_s": "s"}


def generic(workload: str, named: dict) -> dict:
    family = "evaluate" if workload == "evaluate" else "train"
    return {g: (named[n][0], GENERIC_UNITS[g], named[n][2])
            for g, n in GENERIC[family].items()}


def replay_bytes(sc: SimpleNamespace) -> tuple[int, int]:
    """Computed replay footprint: bytes reserved at capacity and bytes
    written by one train_run (one transition per env step)."""
    if sc.workload == "evaluate":
        return 0, 0
    s = sc.settings
    buf = maddpg.ReplayBuffer(s.replay_capacity, sc.trainer.n_ess,
                              len(sc.trainer.groups),
                              (sc.env.obs_window_rows, sc.env.horizon))
    reserved = sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray))
    filled = min(s.episodes * SLOTS, s.replay_capacity)
    return reserved, reserved * filled // s.replay_capacity


# ------------------------------------------------------------ the layers

def layer_table(counters: dict) -> list[tuple]:
    """(owner, attribute, span name, namer, on_result) for every traced
    layer entry point, patched where its callers look it up: ``env`` binds
    the slot physics, storm model and window builder by ``from`` import,
    ``harness`` binds the data builders, ``run_training`` and
    ``check_dispatch``; ``maddpg`` and ``encoder`` call ``diffkit`` through
    the module attribute."""

    def forward_kind(args):
        return ("encoder.GruEncoder.forward.single" if args[1].ndim == 2
                else "encoder.GruEncoder.forward.batch")

    def bfs_result(args, sol):
        counters["bfs_iterations"] += sol.iterations

    table = [
        (envmod, "resolve_slot", "grid.resolve_slot"),
        (envmod, "reward_for_agent", "grid.reward_for_agent"),
        (envmod, "step_soc", "grid.step_soc"),
        (envmod.MicrogridEnv, "step", "env.MicrogridEnv.step"),
        (envmod.MicrogridEnv, "reset", "env.MicrogridEnv.reset"),
        (envmod, "build_profile", "outage.build_profile"),
        (envmod, "sample_outage", "outage.sample_outage"),
        (envmod, "build_window", "encoder.build_window"),
        (encoder.GruEncoder, "forward", "encoder.GruEncoder.forward", forward_kind),
        (encoder.GruEncoder, "backward", "encoder.GruEncoder.backward"),
        (harness, "run_training", "maddpg.run_training"),
        (maddpg.Trainer, "update", "maddpg.Trainer.update"),
        (maddpg.Trainer, "critic_update", "maddpg.Trainer.critic_update"),
        (maddpg.Trainer, "actor_update", "maddpg.Trainer.actor_update"),
        (maddpg.Trainer, "raw_policy", "maddpg.Trainer.raw_policy"),
        (maddpg.ActorNet, "forward", "maddpg.ActorNet.forward"),
        (maddpg.ActorNet, "backward", "maddpg.ActorNet.backward"),
        (maddpg.CriticNet, "forward", "maddpg.CriticNet.forward"),
        (maddpg.CriticNet, "backward", "maddpg.CriticNet.backward"),
        (maddpg.ReplayBuffer, "add", "maddpg.ReplayBuffer.add"),
    ]
    table += [(dk, fn, f"diffkit.{fn}") for fn in (
        "dense_forward", "layernorm_forward", "layernorm_backward",
        "gru_cell_forward", "gru_cell_backward", "clip_grads", "adam_step",
        "soft_update")]
    table += [
        (dk.ParamSet, "save", "diffkit.ParamSet.save"),
        (baselines.RulePolicy, "__call__", "baselines.RulePolicy.__call__"),
        (baselines.TrainedPolicy, "__call__", "baselines.TrainedPolicy.__call__"),
        (baselines, "dp_oracle", "baselines.dp_oracle"),
        (harness, "build_trainer", "baselines.build_trainer"),
        (powerflow, "check_dispatch", "powerflow.check_dispatch"),
        (harness, "check_dispatch", "powerflow.check_dispatch"),
        (powerflow, "solve_bfs", "powerflow.solve_bfs", None, bfs_result),
        (harness, "synth_generator", "dataio.synth_generator"),
        (harness, "make_forecasts", "dataio.make_forecasts"),
        (harness, "build_dataset", "harness.build_dataset"),
        (harness, "build_env", "harness.build_env"),
        (harness, "train_run", "harness.train_run"),
        (harness, "run_days", "harness.run_days"),
    ]
    return table


def layer_names() -> list[str]:
    names = []
    for entry in layer_table({}):
        if len(entry) > 3 and entry[3] is not None:
            names += [entry[2] + ".single", entry[2] + ".batch"]
        elif entry[2] not in names:
            names.append(entry[2])
    return names


def install(tracer: Tracer, counters: dict) -> None:
    for owner, attr, name, *rest in layer_table(counters):
        namer = rest[0] if rest else None
        on_result = rest[1] if len(rest) > 1 else None
        tracer.wrap(owner, attr, name, namer=namer, on_result=on_result)


# -------------------------------------------------------------------- run

REPEAT: dict[str, Callable] = {"train-maddpg": train_repeat,
                               "train-ddpg": train_repeat,
                               "evaluate": evaluate_repeat}


def run(sc: SimpleNamespace, seconds: float, trace: bool, work_dir: Path,
        tracer: Tracer, counters: dict) -> dict:
    """Repeat the workload's job for ``seconds``, at least twice. With
    ``trace`` the repeats alternate untraced and traced, so the tracing
    overhead is measured inside one process."""
    repeat = REPEAT[sc.workload]
    # Two traced and two untraced repeats, since host speed alone moves a
    # single repeat by 10-20%.
    min_repeats = 2 * MIN_REPEATS if trace else MIN_REPEATS
    outcome = Outcome()
    plain: list[dict] = []
    traced: list[dict] = []
    first_digest = None
    start = perf_counter()
    i = 0
    while True:
        with_trace = trace and i % 2 == 1
        # Collect the previous repeat's trainer and replay here, outside the
        # timed repeat.
        gc.collect()
        if with_trace:
            install(tracer, counters)
        try:
            with tracer.bench_span("bench.repeat"):
                rep = repeat(sc, work_dir / f"rep{i}", tracer, outcome)
        except Exception:
            # A crash ends the measurement; it is reported, not hidden.
            traceback.print_exc()
            outcome.count("exception", 1, 1)
            break
        finally:
            tracer.unwrap_all()
        (traced if with_trace else plain).append(rep)
        if first_digest is None:
            first_digest = rep["digest"]
        else:
            outcome.count("digest_mismatch", 1, rep["digest"] != first_digest)
        i += 1
        if i >= min_repeats and perf_counter() - start + rep["wall_s"] > seconds:
            break
    return {"plain": plain, "traced": traced, "outcome": outcome,
            "measured_s": perf_counter() - start}
