"""Experiment drivers behind the CLI: train, evaluate, compare, audit.

Every run writes a manifest (resolved config, seeds, dataset checksum, code
version, wall-clock, outcome) sufficient to reproduce it. All randomness
derives from one root seed split into named streams so individual
components can be perturbed independently. Deterministic outputs
(metrics.csv, report.csv, per-day records) never contain timing; wall-clock
lives in timing.csv and the manifest so byte-level reproducibility holds.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .baselines import RulePolicy, TrainedPolicy, build_trainer
from .config import ConfigError, build_microgrid, merge_config, resolve_dict
from .dataio import (
    ForecastModel,
    SeriesSet,
    load_csv,
    make_forecasts,
    scale_to_capacity,
    split_days,
    stress_transform,
    synth_generator,
)
from .diffkit import ParamSet
from .env import MicrogridEnv, OutageSettings
from .grid import shed_energy_mwh
from .maddpg import EpisodeMetrics, TrainSettings, run_training
from .powerflow import check_dispatch, load_ieee33

METRIC_COLUMNS = ("episode", "cost_usd", "shed_mwh", "critic_loss",
                  "actor_objective", "reward")
REPORT_COLUMNS = ("method", "avg_cost_usd", "highest_cost_usd",
                  "lowest_cost_usd", "avg_shed_mwh")
STREAMS = ("env", "noise", "init", "data", "replay")
METHODS = ("maddpg", "ddpg", "rule")  # compare_run's methods; all but rule train


def seed_stream(root_seed: int, name: str) -> np.random.Generator:
    """Named substream of the root seed; stable across runs and platforms."""
    if name not in STREAMS:
        raise ValueError(f"unknown stream {name!r}; expected one of {STREAMS}")
    tag = zlib.crc32(name.encode())
    return np.random.default_rng(np.random.SeedSequence([root_seed, tag]))


def fmt(x: float) -> str:
    """Shortest round-trip decimal form; identical bytes for identical floats."""
    return repr(float(x))


@dataclass
class ReportRow:
    method: str
    avg_cost_usd: float
    highest_cost_usd: float
    lowest_cost_usd: float
    avg_shed_mwh: float
    computation_time_s: float


@dataclass
class DayRecord:
    day: int
    cost_usd: float
    shed_mwh: float
    outage_onset: int | None
    outage_duration: int | None


@dataclass
class Dataset:
    series: SeriesSet
    forecasts: Any
    train_days: list[int]
    test_days: list[int]
    checksum: str


def build_dataset(cfg: dict[str, Any], data_rng: np.random.Generator) -> Dataset:
    """Series + forecasts + split for a resolved config.

    Forecasts are always generated from the unstressed truth; stress factors
    rescale the served actuals afterwards, modelling systematic bias.
    """
    mg = build_microgrid(cfg)
    data = cfg["data"]
    pv_specs, load_specs = list(mg.pv), list(mg.loads)
    if data["source"] == "synth":
        series = synth_generator(data_rng, data["days"], pv_specs, load_specs)
    else:
        series = load_csv(data["source"], pv_specs, load_specs)
        series = scale_to_capacity(series, pv_specs, load_specs)
    model = ForecastModel(data["forecast_std_pv"], data["forecast_std_load"])
    forecasts = make_forecasts(series, model, data["window"], data_rng,
                               pv_specs, load_specs)
    if data["stress_pv"] != 1.0 or data["stress_load"] != 1.0:
        series = stress_transform(series, data["stress_pv"], data["stress_load"])
    train_days, test_days = split_days(series.n_days, data_rng)
    return Dataset(series=series, forecasts=forecasts, train_days=train_days,
                   test_days=test_days, checksum=series.checksum())


def build_env(cfg: dict[str, Any], dataset: Dataset) -> MicrogridEnv:
    return MicrogridEnv(build_microgrid(cfg), dataset.series, dataset.forecasts,
                        OutageSettings.from_dict(cfg["outage"]),
                        horizon=cfg["data"]["window"])


def write_manifest(out_dir: Path, cfg: dict[str, Any], seed: int, method: str,
                   checksum: str, wallclock_s: float, outcome: dict[str, Any]) -> None:
    manifest = {
        "version": __version__,
        "method": method,
        "seed": seed,
        "streams": list(STREAMS),
        "dataset_checksum": checksum,
        "wallclock_s": wallclock_s,
        "outcome": outcome,
        "config": cfg,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")


def read_manifest(run_dir: Path) -> dict[str, Any]:
    return json.loads((run_dir / "manifest.json").read_text())


def train_run(cfg: dict[str, Any], seed: int, out_dir: str | Path,
              method: str = "maddpg") -> list[EpisodeMetrics]:
    """Train one method and persist checkpoint, logs and manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    env = build_env(cfg, dataset)
    settings = TrainSettings.from_dict(cfg["train"])
    trainer = build_trainer(env, settings, method, seed_stream(seed, "init"))

    metrics_path = out / "metrics.csv"
    timing_path = out / "timing.csv"
    t_episode = time.perf_counter()
    with open(metrics_path, "w") as mfh, open(timing_path, "w") as tfh:
        mfh.write(",".join(METRIC_COLUMNS) + "\n")
        tfh.write("episode,wallclock_s\n")

        def hook(row: EpisodeMetrics) -> None:
            nonlocal t_episode
            mfh.write(f"{row.episode},{fmt(row.cost)},{fmt(row.shed_mwh)},"
                      f"{fmt(row.critic_loss)},{fmt(row.actor_objective)},"
                      f"{fmt(row.reward)}\n")
            now = time.perf_counter()
            tfh.write(f"{row.episode},{now - t_episode:.3f}\n")
            t_episode = now

        try:
            metrics = run_training(env, trainer, settings, dataset.train_days,
                                   seed_stream(seed, "env"),
                                   seed_stream(seed, "noise"),
                                   seed_stream(seed, "replay"),
                                   episode_hook=hook)
        except Exception:
            # Leave a diagnostic snapshot behind before propagating.
            trainer.param_set().save(str(out / "diagnostic.npz"))
            raise

    trainer.param_set().save(str(out / "checkpoint.npz"))
    wall = time.perf_counter() - t0
    outcome = {
        "episodes": len(metrics),
        "final_cost_usd": metrics[-1].cost if metrics else None,
        "status": "ok",
    }
    write_manifest(out, cfg, seed, method, dataset.checksum, wall, outcome)
    return metrics


def load_trained_policy(run_dir: str | Path):
    """Rebuild the greedy policy recorded in a training run directory."""
    run = Path(run_dir)
    manifest = read_manifest(run)
    cfg = manifest["config"]
    # Manifests of earlier versions may hold train keys removed since.
    cfg["train"] = {f.name: cfg["train"][f.name] for f in fields(TrainSettings)}
    seed = manifest["seed"]
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    env = build_env(cfg, dataset)
    settings = TrainSettings.from_dict(cfg["train"])
    trainer = build_trainer(env, settings, manifest["method"],
                            seed_stream(seed, "init"))
    trainer.load_param_set(ParamSet.load(str(run / "checkpoint.npz")))
    return TrainedPolicy(trainer), cfg, seed


def run_days(env: MicrogridEnv, policy: Callable, days: Sequence[int],
             env_rng: np.random.Generator, fail_agents: int = 0):
    """Frozen-policy rollout over dataset days.

    ``fail_agents`` disables the first k units: their command is forced to
    0 MW after the policy acts, modelling unresponsive agents.
    """
    records: list[DayRecord] = []
    episodes = []
    dt = env.config.costs.slot_hours
    for day in days:
        obs = env.reset(int(day), env_rng)
        done = False
        while not done:
            cmds = np.asarray(policy(obs, env.state()), dtype=float).copy()
            if fail_agents:
                cmds[:fail_agents] = 0.0
            _, _, obs, done = env.step(cmds)
        rec = env.record
        records.append(DayRecord(
            day=int(day),
            cost_usd=rec.cost,
            shed_mwh=shed_energy_mwh(rec.results, dt),
            outage_onset=rec.outage.onset_slot if rec.outage else None,
            outage_duration=rec.outage.duration_slots if rec.outage else None,
        ))
        episodes.append(rec)
    return records, episodes


def aggregate(method: str, records: list[DayRecord],
              computation_time_s: float) -> ReportRow:
    costs = [r.cost_usd for r in records]
    sheds = [r.shed_mwh for r in records]
    return ReportRow(
        method=method,
        avg_cost_usd=float(np.mean(costs)),
        highest_cost_usd=float(np.max(costs)),
        lowest_cost_usd=float(np.min(costs)),
        avg_shed_mwh=float(np.mean(sheds)),
        computation_time_s=computation_time_s,
    )


def write_day_records(path: Path, records: list[DayRecord]) -> None:
    with open(path, "w") as fh:
        fh.write("day,cost_usd,shed_mwh,outage_onset,outage_duration\n")
        for r in records:
            onset = "" if r.outage_onset is None else str(r.outage_onset)
            dur = "" if r.outage_duration is None else str(r.outage_duration)
            fh.write(f"{r.day},{fmt(r.cost_usd)},{fmt(r.shed_mwh)},{onset},{dur}\n")


def write_report(path: Path, rows: list[ReportRow],
                 with_time: bool = False) -> None:
    columns = REPORT_COLUMNS + (("computation_time_s",) if with_time else ())
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [row.method, fmt(row.avg_cost_usd), fmt(row.highest_cost_usd),
                     fmt(row.lowest_cost_usd), fmt(row.avg_shed_mwh)]
            if with_time:
                cells.append(f"{row.computation_time_s:.3f}")
            fh.write(",".join(cells) + "\n")


def eval_run(run_dir: str | Path | None, out_dir: str | Path, seed: int | None,
             method: str | None = None, cfg: dict[str, Any] | None = None,
             days: int | None = None, fail_agents: int = 0,
             overrides: dict[str, Any] | None = None) -> ReportRow:
    """Evaluate a trained run directory or a config-only method ('rule').
    Usage errors raise ConfigError before the output directory is made."""
    t0 = time.perf_counter()
    if run_dir is not None:
        policy, cfg, run_seed = load_trained_policy(run_dir)
        method = method or read_manifest(Path(run_dir))["method"]
        seed = run_seed if seed is None else seed
    else:
        if method != "rule":
            raise ConfigError(["eval: give --checkpoint, or --method rule"])
        cfg = cfg if cfg is not None else resolve_dict()
        seed = 0 if seed is None else seed
        policy = RulePolicy(build_microgrid(cfg))
    if overrides:
        cfg = merge_config(cfg, overrides)
    n_ess = len(cfg["microgrid"]["ess"])
    if fail_agents > n_ess:
        raise ConfigError([f"--fail-agents: {fail_agents} exceeds the "
                           f"{n_ess} ESS units of the fleet"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    env = build_env(cfg, dataset)
    eval_days = dataset.test_days if days is None else dataset.test_days[:days]
    records, _ = run_days(env, policy, eval_days, seed_stream(seed, "env"),
                          fail_agents=fail_agents)
    row = aggregate(method, records, time.perf_counter() - t0)
    write_day_records(out / "days.csv", records)
    write_report(out / "report.csv", [row])
    write_manifest(out, cfg, seed, f"eval-{method}", dataset.checksum,
                   row.computation_time_s,
                   {"days": len(records), "fail_agents": fail_agents,
                    "avg_cost_usd": row.avg_cost_usd,
                    "avg_shed_mwh": row.avg_shed_mwh, "status": "ok"})
    return row


def compare_run(cfg: dict[str, Any], seed: int, out_dir: str | Path,
                methods: Sequence[str] = METHODS,
                lambda_sweep: Sequence[float] | None = None) -> list[ReportRow]:
    """Train/evaluate each method on the identical seeded scenario and emit
    the aligned report table, learning curves and outage-window trajectories."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[ReportRow] = []
    curves: dict[str, list[EpisodeMetrics]] = {}
    trajectories: dict[str, Any] = {}

    for method in methods:
        t0 = time.perf_counter()
        if method == "rule":
            policy = RulePolicy(build_microgrid(cfg))
        elif method in METHODS:
            run_dir = out / f"train-{method}"
            curves[method] = train_run(cfg, seed, run_dir, method=method)
            policy, _, _ = load_trained_policy(run_dir)
        else:
            raise ValueError(f"unknown method {method!r}")
        dataset = build_dataset(cfg, seed_stream(seed, "data"))
        env = build_env(cfg, dataset)
        records, episodes = run_days(env, policy, dataset.test_days,
                                     seed_stream(seed, "env"))
        rows.append(aggregate(method, records, time.perf_counter() - t0))
        write_day_records(out / f"days-{method}.csv", records)
        trajectories[method] = _pick_outage_episode(episodes)

    write_report(out / "report.csv", rows)
    write_report(out / "comparison.csv", rows, with_time=True)
    _write_curves(out / "learning_curves.csv", curves)
    _write_trajectories(out / "trajectories.csv", trajectories)
    if lambda_sweep:
        _write_lambda_sweep(out, cfg, seed, lambda_sweep)
    write_manifest(out, cfg, seed, "compare", "-", 0.0,
                   {"methods": list(methods), "status": "ok"})
    return rows


def _pick_outage_episode(episodes):
    for rec in episodes:
        if rec.outage is not None:
            return rec
    return episodes[0] if episodes else None


def _write_curves(path: Path, curves: dict[str, list[EpisodeMetrics]]) -> None:
    with open(path, "w") as fh:
        fh.write("method,episode,cost_usd,shed_mwh,reward\n")
        for method, rows in curves.items():
            for m in rows:
                fh.write(f"{method},{m.episode},{fmt(m.cost)},{fmt(m.shed_mwh)},"
                         f"{fmt(m.reward)}\n")


def _write_trajectories(path: Path, trajectories) -> None:
    """Per-slot storage powers and SoC around the day, with outage markers."""
    with open(path, "w") as fh:
        fh.write("method,slot,connected,outage_onset,outage_offset,"
                 "alpha,p_grid,p_ess_total,soc_mean\n")
        for method, rec in trajectories.items():
            if rec is None:
                continue
            onset = rec.outage.onset_slot if rec.outage else ""
            offset = (rec.outage.onset_slot + rec.outage.duration_slots
                      if rec.outage else "")
            for slot, result in enumerate(rec.results):
                soc = rec.soc_trace[slot + 1]
                fh.write(
                    f"{method},{slot},{int(result.connected)},{onset},{offset},"
                    f"{fmt(result.alpha)},{fmt(result.p_grid)},"
                    f"{fmt(sum(result.p_ess))},{fmt(float(np.mean(soc)))}\n")


def _write_lambda_sweep(out: Path, cfg: dict[str, Any], seed: int,
                        lambdas: Sequence[float]) -> None:
    """Retrain at each shedding penalty and tabulate the resulting shed."""
    rows = []
    for lam in lambdas:
        sweep_cfg = merge_config(cfg, {"microgrid": {"costs": {"load": float(lam)}}})
        run_dir = out / f"lambda-{lam}"
        train_run(sweep_cfg, seed, run_dir, method="maddpg")
        policy, _, _ = load_trained_policy(run_dir)
        dataset = build_dataset(sweep_cfg, seed_stream(seed, "data"))
        env = build_env(sweep_cfg, dataset)
        records, _ = run_days(env, policy, dataset.test_days,
                              seed_stream(seed, "env"))
        rows.append((lam, float(np.mean([r.shed_mwh for r in records]))))
    with open(out / "lambda_sweep.csv", "w") as fh:
        fh.write("lambda_load,avg_shed_mwh\n")
        for lam, shed in rows:
            fh.write(f"{fmt(lam)},{fmt(shed)}\n")


def audit_run(run_dir: str | Path, out_dir: str | Path,
              seed: int | None = None, days: int | None = None) -> dict[str, Any]:
    """Replay an evaluation through the feeder power flow and count
    voltage-band violations and non-convergence per slot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    policy, cfg, run_seed = load_trained_policy(run_dir)
    seed = run_seed if seed is None else seed
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    env = build_env(cfg, dataset)
    topology = load_ieee33()
    mg = build_microgrid(cfg)
    eval_days = dataset.test_days if days is None else dataset.test_days[:days]
    _, episodes = run_days(env, policy, eval_days, seed_stream(seed, "env"))

    slots_total = 0
    violations_total = 0
    nonconverged = 0
    with open(out / "audit.csv", "w") as fh:
        fh.write("day,slot,converged,violations,v_min,v_max,loss_mw\n")
        for rec in episodes:
            for slot, result in enumerate(rec.results):
                report = check_dispatch(topology, mg, result)
                slots_total += 1
                violations_total += len(report.violations)
                nonconverged += int(not report.converged)
                fh.write(f"{rec.day},{slot},{int(report.converged)},"
                         f"{len(report.violations)},{report.v_min:.6f},"
                         f"{report.v_max:.6f},{report.loss_mw:.6f}\n")
    summary = {
        "slots": slots_total,
        "violations": violations_total,
        "nonconverged": nonconverged,
        "status": "ok",
    }
    (out / "audit_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
