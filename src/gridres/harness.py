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
import resource
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .baselines import RulePolicy, TrainedPolicy, build_trainer
from .config import (ConfigError, build_microgrid, default_dict, merge_config,
                     resolve_dict)
from .dataio import (
    ForecastModel,
    ForecastTable,
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
from .grid import SLOT_HOURS
from .maddpg import METHODS as LEARNED, EpisodeMetrics, TrainSettings, run_training
from .powerflow import check_dispatch, load_ieee33

METRIC_COLUMNS = ("episode", "cost_usd", "shed_mwh", "critic_loss",
                  "actor_objective", "reward")
REPORT_COLUMNS = ("method", "avg_cost_usd", "highest_cost_usd",
                  "lowest_cost_usd", "avg_shed_mwh")
STREAMS = ("env", "noise", "init", "data", "replay")
METHODS = (*LEARNED, "rule")  # compare_run's methods; all but rule train


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
    forecasts: ForecastTable
    train_days: list[int]
    test_days: list[int]
    checksum: str


def build_dataset(cfg: dict[str, Any], data_rng: np.random.Generator) -> Dataset:
    """Served series + window table + split for a resolved config.

    Forecasts are always drawn from the unstressed truth; stress factors
    rescale the served actuals, modelling systematic bias.
    """
    mg = build_microgrid(cfg)
    data = cfg["data"]
    pv_specs, load_specs = list(mg.pv), list(mg.loads)
    if data["source"] == "synth":
        series = synth_generator(data_rng, data["days"], pv_specs, load_specs)
    else:
        series = load_csv(data["source"], pv_specs, load_specs)
        series = scale_to_capacity(series, pv_specs, load_specs)
    served = series
    if data["stress_pv"] != 1.0 or data["stress_load"] != 1.0:
        served = stress_transform(series, data["stress_pv"], data["stress_load"])
    model = ForecastModel(data["forecast_std_pv"], data["forecast_std_load"])
    forecasts = make_forecasts(series, served, model, data["window"], data_rng,
                               pv_specs, load_specs)
    train_days, test_days = split_days(served.n_days, data_rng)
    return Dataset(series=served, forecasts=forecasts, train_days=train_days,
                   test_days=test_days, checksum=served.checksum())


def build_env(cfg: dict[str, Any], dataset: Dataset) -> MicrogridEnv:
    return MicrogridEnv(build_microgrid(cfg), dataset.series, dataset.forecasts,
                        OutageSettings(**cfg["outage"]),
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


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """One header line, then one line per row. A cell is written as ``str``
    gives it, None as an empty cell; callers format their floats first."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if c is None else str(c) for c in row) + "\n")


def train_run(cfg: dict[str, Any], seed: int, out_dir: str | Path,
              method: str = "maddpg") -> list[EpisodeMetrics]:
    """Train one method and persist checkpoint, logs and manifest. The
    dataset is built before the output dir is made."""
    return _train(cfg, seed, out_dir, method,
                  build_dataset(cfg, seed_stream(seed, "data")))


def _train(cfg: dict[str, Any], seed: int, out_dir: str | Path, method: str,
           dataset: Dataset) -> list[EpisodeMetrics]:
    """``train_run`` on a built dataset; its clock starts after that build."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env = build_env(cfg, dataset)
    settings = TrainSettings.from_dict(cfg["train"])
    trainer = build_trainer(env, settings, method, seed_stream(seed, "init"))

    t_episode = time.perf_counter()
    with open(out / "metrics.csv", "w") as mfh, open(out / "timing.csv", "w") as tfh:
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
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    write_manifest(out, cfg, seed, method, dataset.checksum, wall, outcome)
    return metrics


def _lacking(node: Any, tree: dict[str, Any], path: str = "") -> list[str]:
    """The paths of ``tree``'s keys that ``node`` lacks; a lacking mapping is
    named without its deeper keys."""
    missing = []
    for key, sub in tree.items():
        if not isinstance(node, dict) or key not in node:
            missing.append(path + key)
        elif isinstance(sub, dict):
            missing += _lacking(node[key], sub, f"{path}{key}.")
    return missing


def read_run(run_dir: str | Path) -> tuple[dict[str, Any], int, str]:
    """Config, seed and method of a training run directory. Keys that earlier
    versions wrote (train keys, generators' ``p_min``) are dropped; another
    slot length is refused, as 15-minute slots would silently change its physics.
    A manifest that lacks any key of the default config's mapping tree raises
    one ValueError naming them all; one whose values fail validation, one
    ConfigError naming every problem."""
    manifest = read_manifest(Path(run_dir))
    defaults = default_dict()
    missing = _lacking(manifest, {"config": defaults, "seed": 0, "method": ""})
    if missing:
        raise ValueError(f"{run_dir}: manifest.json lacks " + ", ".join(missing))
    cfg = manifest["config"]
    cfg["train"] = {key: cfg["train"][key] for key in defaults["train"]}
    for gen in cfg["microgrid"]["generators"]:
        gen.pop("p_min", None)
    slot_hours = cfg["microgrid"].pop("slot_hours", SLOT_HOURS)
    if slot_hours != SLOT_HOURS:
        raise ConfigError([f"{run_dir}: microgrid.slot_hours {slot_hours} differs "
                           f"from the fixed {SLOT_HOURS} h slot"])
    try:
        cfg = merge_config(cfg)
    except ConfigError as exc:
        raise ConfigError([f"{run_dir}: {p}" for p in exc.problems]) from None
    return cfg, manifest["seed"], manifest["method"]


def load_policy(run_dir: str | Path | None, env: MicrogridEnv) -> Callable:
    """The rule policy without a run directory, else the greedy policy of that
    training run, sized on the env it will act in."""
    if run_dir is None:
        return RulePolicy(env.config)
    cfg, seed, method = read_run(run_dir)
    trainer = build_trainer(env, TrainSettings.from_dict(cfg["train"]), method,
                            seed_stream(seed, "init"))
    trainer.load_param_set(ParamSet.load(str(Path(run_dir) / "checkpoint.npz")))
    return TrainedPolicy(trainer)


def run_days(env: MicrogridEnv, policy: Callable, days: Sequence[int],
             env_rng: np.random.Generator, fail_agents: int = 0):
    """Frozen-policy rollout over dataset days.

    ``fail_agents`` disables the first k units: their command is forced to
    0 MW after the policy acts, modelling unresponsive agents.
    """
    records: list[DayRecord] = []
    episodes = []
    for day in days:
        obs = env.reset(int(day), env_rng)
        done = False
        while not done:
            cmds = np.asarray(policy(obs), dtype=float).copy()
            if fail_agents:
                cmds[:fail_agents] = 0.0
            _, _, obs, done = env.step(cmds)
        rec = env.record
        records.append(DayRecord(
            day=int(day),
            cost_usd=rec.cost,
            shed_mwh=rec.shed_mwh,
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
    write_csv(path, ("day", "cost_usd", "shed_mwh", "outage_onset", "outage_duration"),
              ([r.day, fmt(r.cost_usd), fmt(r.shed_mwh), r.outage_onset,
                r.outage_duration] for r in records))


def _report_cells(row: ReportRow) -> list[str]:
    return [row.method, fmt(row.avg_cost_usd), fmt(row.highest_cost_usd),
            fmt(row.lowest_cost_usd), fmt(row.avg_shed_mwh)]


def _setup(run_dir: str | Path | None, out_dir: str | Path, seed: int | None,
           days: int | None, method: str | None = None,
           cfg: dict[str, Any] | None = None,
           overrides: dict[str, Any] | None = None, fail_agents: int = 0):
    """Eval's and audit's output dir, config, seed, method, dataset, env and
    policy, for a training run or the rule on a config. Usage errors, counts
    out of range, a bad manifest and a missing checkpoint raise before the
    output dir is made."""
    if run_dir is not None:
        if method is not None:
            raise ConfigError(["eval: --method does not apply to --checkpoint, "
                               "which is evaluated as the method it was trained with"])
        cfg, run_seed, method = read_run(run_dir)
        seed = run_seed if seed is None else seed
    else:
        if method != "rule":
            raise ConfigError(["eval: give --checkpoint, or --method rule"])
        cfg = cfg if cfg is not None else resolve_dict()
        seed = 0 if seed is None else seed
    if overrides:
        cfg = merge_config(cfg, overrides)
    n_ess = len(cfg["microgrid"]["ess"])
    problems = []
    if fail_agents < 0:
        problems.append("--fail-agents: must be >= 0")
    if fail_agents > n_ess:
        problems.append(f"--fail-agents: {fail_agents} exceeds the "
                        f"{n_ess} ESS units of the fleet")
    if days is not None and days < 1:
        problems.append("--eval-days: must be >= 1")
    if problems:
        raise ConfigError(problems)
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    env = build_env(cfg, dataset)
    policy = load_policy(run_dir, env)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, cfg, seed, method, dataset, env, policy


def eval_run(run_dir: str | Path | None, out_dir: str | Path, seed: int | None,
             method: str | None = None, cfg: dict[str, Any] | None = None,
             days: int | None = None, fail_agents: int = 0,
             overrides: dict[str, Any] | None = None) -> ReportRow:
    """Evaluate a trained run directory or a config-only method ('rule')."""
    t0 = time.perf_counter()
    out, cfg, seed, method, dataset, env, policy = _setup(
        run_dir, out_dir, seed, days, method, cfg, overrides, fail_agents)
    records, _ = run_days(env, policy, dataset.test_days[:days],
                          seed_stream(seed, "env"), fail_agents=fail_agents)
    row = aggregate(method, records, time.perf_counter() - t0)
    write_day_records(out / "days.csv", records)
    write_csv(out / "report.csv", REPORT_COLUMNS, [_report_cells(row)])
    write_manifest(out, cfg, seed, f"eval-{method}", dataset.checksum,
                   row.computation_time_s,
                   {"days": len(records), "fail_agents": fail_agents,
                    "avg_cost_usd": row.avg_cost_usd,
                    "avg_shed_mwh": row.avg_shed_mwh, "status": "ok"})
    return row


def audit_run(run_dir: str | Path, out_dir: str | Path,
              seed: int | None = None, days: int | None = None) -> dict[str, Any]:
    """Replay an evaluation through the feeder power flow and count
    voltage-band violations and non-convergence per slot."""
    out, _, seed, _, dataset, env, policy = _setup(run_dir, out_dir, seed, days)
    _, episodes = run_days(env, policy, dataset.test_days[:days],
                           seed_stream(seed, "env"))
    topology = load_ieee33()
    audited = [(rec.day, slot, check_dispatch(topology, env.config, result))
               for rec in episodes for slot, result in enumerate(rec.results)]
    write_csv(out / "audit.csv",
              ("day", "slot", "converged", "violations", "v_min", "v_max", "loss_mw"),
              ([day, slot, int(r.converged), len(r.violations), f"{r.v_min:.6f}",
                f"{r.v_max:.6f}", f"{r.loss_mw:.6f}"] for day, slot, r in audited))
    summary = {
        "slots": len(audited),
        "violations": sum(len(r.violations) for _, _, r in audited),
        "nonconverged": sum(not r.converged for _, _, r in audited),
        "status": "ok",
    }
    (out / "audit_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _train_and_roll(cfg: dict[str, Any], seed: int, dataset: Dataset, method: str,
                    run_dir: Path | None):
    """Train ``method`` into ``run_dir`` (nothing for the rule, which has none)
    and roll the test days with its greedy policy: (curve, records, episodes)."""
    curve = [] if run_dir is None else _train(cfg, seed, run_dir, method, dataset)
    env = build_env(cfg, dataset)
    return (curve, *run_days(env, load_policy(run_dir, env), dataset.test_days,
                             seed_stream(seed, "env")))


def compare_run(cfg: dict[str, Any], seed: int, out_dir: str | Path,
                methods: Sequence[str] = METHODS,
                lambda_sweep: Sequence[float] | None = None) -> list[ReportRow]:
    """Train/evaluate each method on the identical seeded scenario and emit
    the aligned report table, learning curves and outage-window trajectories;
    with a sweep, retrain MADDPG at each shedding penalty and tabulate its
    shed. One dataset serves every training and rollout. The methods, every
    swept penalty and the dataset are checked before the output dir is made."""
    problems = [f"--methods: unknown method {m!r} (known: {', '.join(METHODS)})"
                for m in methods if m not in METHODS]
    problems += [f"--methods: {m!r} listed twice"
                 for i, m in enumerate(methods) if m in methods[:i]]
    sweep = []
    for lam in lambda_sweep or ():
        try:
            sweep.append((lam, merge_config(
                cfg, {"microgrid": {"costs": {"load": float(lam)}}})))
        except ConfigError as exc:
            problems += [f"lambda_sweep {fmt(lam)}: {p}" for p in exc.problems]
    if problems:
        raise ConfigError(problems)
    # The sweep changes only microgrid.costs.load, which build_dataset never reads.
    t_start = time.perf_counter()
    dataset = build_dataset(cfg, seed_stream(seed, "data"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, curves, trajectories = [], [], []
    for method in methods:
        t0 = time.perf_counter()
        run_dir = None if method == "rule" else out / f"train-{method}"
        curve, records, episodes = _train_and_roll(cfg, seed, dataset, method, run_dir)
        rows.append(aggregate(method, records, time.perf_counter() - t0))
        write_day_records(out / f"days-{method}.csv", records)
        curves += [[method, m.episode, fmt(m.cost), fmt(m.shed_mwh), fmt(m.reward)]
                   for m in curve]
        # An outage day's trajectory when the test days hold one.
        rec = next((rec for rec in episodes if rec.outage), episodes[0])
        onset, offset = ((rec.outage.onset_slot,
                          rec.outage.onset_slot + rec.outage.duration_slots)
                         if rec.outage else (None, None))
        trajectories += [[method, slot, int(r.connected), onset, offset, fmt(r.alpha),
                          fmt(r.p_grid), fmt(sum(r.p_ess)), fmt(float(np.mean(soc)))]
                         for slot, (r, soc) in enumerate(zip(rec.results,
                                                             rec.soc_trace[1:]))]
    sheds = []
    for lam, sweep_cfg in sweep:
        _, records, _ = _train_and_roll(sweep_cfg, seed, dataset, "maddpg",
                                        out / f"lambda-{lam}")
        sheds.append([fmt(lam), fmt(float(np.mean([r.shed_mwh for r in records])))])

    write_csv(out / "report.csv", REPORT_COLUMNS, map(_report_cells, rows))
    write_csv(out / "comparison.csv", (*REPORT_COLUMNS, "computation_time_s"),
              [_report_cells(r) + [f"{r.computation_time_s:.3f}"] for r in rows])
    write_csv(out / "learning_curves.csv",
              ("method", "episode", "cost_usd", "shed_mwh", "reward"), curves)
    write_csv(out / "trajectories.csv",
              ("method", "slot", "connected", "outage_onset", "outage_offset",
               "alpha", "p_grid", "p_ess_total", "soc_mean"), trajectories)
    if sweep:
        write_csv(out / "lambda_sweep.csv", ("lambda_load", "avg_shed_mwh"), sheds)
    write_manifest(out, cfg, seed, "compare", dataset.checksum,
                   time.perf_counter() - t_start,
                   {"methods": list(methods), "status": "ok"})
    return rows
