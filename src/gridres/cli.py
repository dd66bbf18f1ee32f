"""Command-line front door.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure,
3 training aborted on a non-finite loss.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .config import ConfigError, build_microgrid, default_dict, load_yaml, merge_config
from .dataio import synth_generator, write_csv
from .maddpg import METHODS, TrainingDiverged


def _parse_stress(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if key in out:
            raise ConfigError([f"--stress: {key!r} listed twice"])
        try:
            out[key] = float(value)
        except ValueError:
            key = None
        if key not in ("pv", "load"):
            raise ConfigError([f"--stress: expected pv=<f>,load=<f>, got {text!r}"])
    return out


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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


def _resolve(args, split: bool = True) -> dict:
    """Defaults < --config < --scenario < flags; each later source wins."""
    return merge_config(default_dict(), load_yaml(args.config),
                        load_yaml(args.scenario), _config_overrides(args),
                        split=split)


def cmd_train(args) -> int:
    cfg = _resolve(args)
    metrics = harness.train_run(cfg, args.seed, args.out, method=args.method)
    print(f"trained {args.method}: {len(metrics)} episodes, "
          f"final day cost ${metrics[-1].cost:.2f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.checkpoint is not None and (args.config or args.scenario):
        raise ConfigError(["eval: --config and --scenario do not apply to "
                           "--checkpoint, which carries its own config"])
    overrides = _config_overrides(args)
    cfg = None
    if args.checkpoint is None:
        cfg = _resolve(args)
        overrides = None
    row = harness.eval_run(args.checkpoint, args.out, args.seed, method=args.method,
                           cfg=cfg, days=args.eval_days, fail_agents=args.fail_agents,
                           overrides=overrides or None)
    print(f"{row.method}: avg ${row.avg_cost_usd:.2f}/day, "
          f"shed {row.avg_shed_mwh:.2f} MWh/day over the test days -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    sweep = None
    if args.lambda_sweep:
        try:
            sweep = [float(x) for x in args.lambda_sweep.split(",")]
        except ValueError:
            raise ConfigError(["--lambda-sweep: expected a comma list of numbers, "
                               f"got {args.lambda_sweep!r}"]) from None
    rows = harness.compare_run(_resolve(args), args.seed, args.out,
                               methods=args.methods.split(","), lambda_sweep=sweep)
    for row in rows:
        print(f"{row.method:8s} avg ${row.avg_cost_usd:8.2f} "
              f"shed {row.avg_shed_mwh:6.2f} MWh/day "
              f"({row.computation_time_s:.1f}s)")
    return 0


def cmd_audit(args) -> int:
    summary = harness.audit_run(args.checkpoint, args.out, seed=args.seed,
                                days=args.eval_days)
    print(json.dumps(summary))
    return 0


def cmd_synth_data(args) -> int:
    cfg = _resolve(args, split=False)  # the series is written, not split
    mg = build_microgrid(cfg)
    series = synth_generator(harness.seed_stream(args.seed, "data"),
                             cfg["data"]["days"], list(mg.pv), list(mg.loads))
    write_csv(args.out, series, list(mg.pv), list(mg.loads))
    print(f"wrote {series.n_days} synthetic days to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridres",
        description="Microgrid resilience toolkit: train and evaluate "
                    "storage-dispatch policies under storm outages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0):
        p.add_argument("--seed", type=_seed, default=seed_default,
                       help="root seed; split into env/noise/init/data/replay")
        p.add_argument("--out", required=True, help="output directory or file")

    def configured(p, seed_default=0):
        p.add_argument("--config", help="YAML config file (defaults built in)")
        p.add_argument("--scenario", help="YAML overlay applied after --config")
        common(p, seed_default)

    p = sub.add_parser("train", help="train a dispatch policy")
    configured(p)
    p.add_argument("--method", choices=METHODS, default="maddpg")
    p.add_argument("--episodes", type=int, help="override train.episodes")
    p.add_argument("--lambda-load", type=float, dest="lambda_load",
                   help="override the load-shedding penalty in $/MWh")
    p.add_argument("--days", type=int, help="override data.days")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or the rule policy")
    configured(p, seed_default=None)
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
    configured(p)
    p.add_argument("--methods", default=",".join(harness.METHODS))
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
    configured(p)
    p.add_argument("--days", type=int)
    p.set_defaults(func=cmd_synth_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; it is input
        return 1 if exc.code else 0
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
