"""Command-line front door.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure,
3 training aborted on a non-finite loss.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, merge_config, resolve_dict
from .grid import SLOTS_PER_DAY
from .maddpg import TrainingDiverged


def _parse_stress(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if key not in ("pv", "load") or not value:
            raise ConfigError([f"--stress: expected pv=<f>,load=<f>, got {text!r}"])
        out[key] = float(value)
    return out


def _config_overrides(args) -> dict:
    overrides: dict = {}
    if getattr(args, "episodes", None) is not None:
        overrides.setdefault("train", {})["episodes"] = args.episodes
    if getattr(args, "stress", None):
        stress = _parse_stress(args.stress)
        data = overrides.setdefault("data", {})
        if "pv" in stress:
            data["stress_pv"] = stress["pv"]
        if "load" in stress:
            data["stress_load"] = stress["load"]
    if getattr(args, "lambda_load", None) is not None:
        overrides.setdefault("microgrid", {}).setdefault("costs", {})["load"] = \
            args.lambda_load
    if getattr(args, "days", None) is not None:
        overrides.setdefault("data", {})["days"] = args.days
    return overrides


def _resolve(args) -> dict:
    cfg = resolve_dict(args.config, _config_overrides(args))
    if getattr(args, "scenario", None):
        import yaml

        with open(args.scenario) as fh:
            overlay = yaml.safe_load(fh) or {}
        cfg = merge_config(cfg, overlay)
    return cfg


def _check_counts(args) -> None:
    """Integer flags that select units or days must be in range."""
    problems = []
    if getattr(args, "fail_agents", 0) < 0:
        problems.append("--fail-agents: must be >= 0")
    if getattr(args, "eval_days", None) is not None and args.eval_days < 1:
        problems.append("--eval-days: must be >= 1")
    if problems:
        raise ConfigError(problems)


def cmd_train(args) -> int:
    from .harness import train_run

    cfg = _resolve(args)
    metrics = train_run(cfg, args.seed, args.out, method=args.method)
    print(f"trained {args.method}: {len(metrics)} episodes, "
          f"final day cost ${metrics[-1].cost:.2f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .harness import eval_run

    _check_counts(args)
    overrides = _config_overrides(args)
    cfg = None
    if args.checkpoint is None:
        cfg = _resolve(args)
        overrides = None
    row = eval_run(args.checkpoint, args.out, args.seed, method=args.method,
                   cfg=cfg, days=args.eval_days, fail_agents=args.fail_agents,
                   overrides=overrides or None)
    print(f"{row.method}: avg ${row.avg_cost_usd:.2f}/day, "
          f"shed {row.avg_shed_mwh:.2f} MWh/day over the test days -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    from .harness import METHODS, compare_run

    methods = args.methods.split(",")
    problems = [f"--methods: unknown method {m!r} (known: {', '.join(METHODS)})"
                for m in methods if m not in METHODS]
    sweep = None
    if args.lambda_sweep:
        try:
            sweep = [float(x) for x in args.lambda_sweep.split(",")]
        except ValueError:
            problems.append("--lambda-sweep: expected a comma list of numbers, "
                            f"got {args.lambda_sweep!r}")
    if problems:
        raise ConfigError(problems)
    cfg = _resolve(args)
    rows = compare_run(cfg, args.seed, args.out, methods=methods,
                       lambda_sweep=sweep)
    for row in rows:
        print(f"{row.method:8s} avg ${row.avg_cost_usd:8.2f} "
              f"shed {row.avg_shed_mwh:6.2f} MWh/day "
              f"({row.computation_time_s:.1f}s)")
    return 0


def cmd_audit(args) -> int:
    from .harness import audit_run

    _check_counts(args)
    summary = audit_run(args.checkpoint, args.out, seed=args.seed,
                        days=args.eval_days)
    print(json.dumps(summary))
    return 0


def cmd_synth_data(args) -> int:
    from .config import build_microgrid
    from .dataio import synth_generator
    from .harness import seed_stream

    cfg = _resolve(args)
    mg = build_microgrid(cfg)
    series = synth_generator(seed_stream(args.seed, "data"), cfg["data"]["days"],
                             list(mg.pv), list(mg.loads))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        ids = [s.id for s in mg.pv] + [s.id for s in mg.loads]
        fh.write("timestamp," + ",".join(ids) + "\n")
        for d in range(series.n_days):
            for slot in range(SLOTS_PER_DAY):
                hh, mm = divmod(slot * 15, 60)
                day = d + 1
                stamp = f"2022-{7 + (day - 1) // 31:02d}-{(day - 1) % 31 + 1:02d}" \
                        f"T{hh:02d}:{mm:02d}:00"
                values = [f"{series.pv[i, d, slot]:.6f}"
                          for i in range(series.pv.shape[0])]
                values += [f"{series.load[i, d, slot]:.6f}"
                           for i in range(series.load.shape[0])]
                fh.write(stamp + "," + ",".join(values) + "\n")
    print(f"wrote {series.n_days} synthetic days to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridres",
        description="Microgrid resilience toolkit: train and evaluate "
                    "storage-dispatch policies under storm outages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0):
        p.add_argument("--config", help="YAML config file (defaults built in)")
        p.add_argument("--scenario", help="YAML overlay applied after --config")
        p.add_argument("--seed", type=int, default=seed_default,
                       help="root seed; split into env/noise/init/data/replay")
        p.add_argument("--out", required=True, help="output directory or file")

    p = sub.add_parser("train", help="train a dispatch policy")
    common(p)
    p.add_argument("--method", choices=("maddpg", "ddpg"), default="maddpg")
    p.add_argument("--episodes", type=int, help="override train.episodes")
    p.add_argument("--lambda-load", type=float, dest="lambda_load",
                   help="override the load-shedding penalty in $/MWh")
    p.add_argument("--days", type=int, help="override data.days")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or the rule policy")
    common(p, seed_default=None)
    p.add_argument("--checkpoint", help="training run directory")
    p.add_argument("--method", help="rule (when no checkpoint is given)")
    p.add_argument("--eval-days", type=int, dest="eval_days",
                   help="cap the number of test days")
    p.add_argument("--fail-agents", type=int, dest="fail_agents", default=0,
                   help="force the first k agents' commands to 0 MW")
    p.add_argument("--stress", help="pv=<factor>,load=<factor> actuals scaling")
    p.add_argument("--lambda-load", type=float, dest="lambda_load")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train/evaluate methods side by side")
    common(p)
    p.add_argument("--methods", default="maddpg,ddpg,rule")
    p.add_argument("--episodes", type=int)
    p.add_argument("--lambda-sweep", dest="lambda_sweep",
                   help="comma list of shedding penalties to retrain at")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit", help="power-flow feasibility replay")
    common(p, seed_default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eval-days", type=int, dest="eval_days")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("synth-data", help="write a synthetic series CSV")
    common(p)
    p.add_argument("--days", type=int)
    p.set_defaults(func=cmd_synth_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
