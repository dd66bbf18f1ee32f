import json
from pathlib import Path

import numpy as np
import pytest

from gridres.cli import main
from gridres.config import ConfigError, resolve_dict
from gridres.harness import (
    aggregate,
    build_dataset,
    build_env,
    eval_run,
    read_manifest,
    run_days,
    seed_stream,
    train_run,
)

SMALL = {
    "train": {"episodes": 4, "warmup_steps": 64, "update_every": 24,
              "batch_size": 32, "hidden": 32},
    "data": {"days": 8},
}


def small_cfg(extra=None):
    overrides = json.loads(json.dumps(SMALL))
    if extra:
        def deep(dst, src):
            for k, v in src.items():
                if isinstance(v, dict) and isinstance(dst.get(k), dict):
                    deep(dst[k], v)
                else:
                    dst[k] = v
        deep(overrides, extra)
    return resolve_dict(None, overrides)


class TestConfig:
    def test_defaults_reproduce_study_fleet(self):
        cfg = resolve_dict()
        mg = cfg["microgrid"]
        assert len(mg["ess"]) == 5
        assert len(mg["generators"]) == 5
        assert len(mg["pv"]) == 6
        assert len(mg["loads"]) == 20
        assert mg["costs"] == {"ess": 0.2, "gen": 0.5, "grid": 0.3, "load": 1.5}
        assert mg["slot_hours"] == 0.25
        assert cfg["train"]["lr_actor"] == 0.00025
        assert cfg["train"]["warmup_steps"] == 8000

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            resolve_dict(None, {"train": {"gamma": -1, "batch_size": 0},
                                "outage": {"peak_prob": 2.0},
                                "bogus": 1})
        text = str(err.value)
        assert "gamma" in text
        assert "batch_size" in text
        assert "peak_prob" in text
        assert "bogus" in text

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("train:\n  episodes: 7\n  warmup_steps: 100\n"
                        "outage:\n  peak_prob: 0.1\n")
        cfg = resolve_dict(str(path))
        assert cfg["train"]["episodes"] == 7
        assert cfg["outage"]["peak_prob"] == 0.1
        assert cfg["train"]["gamma"] == 0.99  # untouched default


class TestSeedStreams:
    def test_streams_differ_and_reproduce(self):
        a = seed_stream(7, "env").random(4)
        b = seed_stream(7, "noise").random(4)
        c = seed_stream(7, "env").random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError):
            seed_stream(7, "mystery")


class TestTrainRun:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = small_cfg()
        out = tmp_path / "run"
        metrics = train_run(cfg, 3, out)
        assert (out / "checkpoint.npz").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "timing.csv").exists()
        assert len(metrics) == 4
        manifest = read_manifest(out)
        assert manifest["seed"] == 3
        assert manifest["method"] == "maddpg"
        assert len(manifest["dataset_checksum"]) == 64
        assert manifest["outcome"]["status"] == "ok"
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "episode,cost_usd,shed_mwh,critic_loss,actor_objective,reward"

    def test_metric_log_byte_identical_across_reruns(self, tmp_path):
        cfg = small_cfg()
        train_run(cfg, 11, tmp_path / "a")
        train_run(cfg, 11, tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_different_seed_changes_log(self, tmp_path):
        cfg = small_cfg()
        train_run(cfg, 1, tmp_path / "a")
        train_run(cfg, 2, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != \
            (tmp_path / "b" / "metrics.csv").read_bytes()


class TestEvalRun:
    def test_eval_twice_identical(self, tmp_path):
        cfg = small_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        eval_run(run, tmp_path / "e1", None)
        eval_run(run, tmp_path / "e2", None)
        assert (tmp_path / "e1" / "report.csv").read_bytes() == \
            (tmp_path / "e2" / "report.csv").read_bytes()
        assert (tmp_path / "e1" / "days.csv").read_bytes() == \
            (tmp_path / "e2" / "days.csv").read_bytes()

    def test_manifest_with_removed_train_key_still_loads(self, tmp_path):
        cfg = small_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        eval_run(run, tmp_path / "e1", None)
        # Earlier versions wrote train.gru_shared into every manifest.
        manifest = read_manifest(run)
        manifest["config"]["train"]["gru_shared"] = True
        (run / "manifest.json").write_text(json.dumps(manifest))
        eval_run(run, tmp_path / "e2", None)
        assert (tmp_path / "e1" / "days.csv").read_bytes() == \
            (tmp_path / "e2" / "days.csv").read_bytes()

    def test_rule_eval_without_checkpoint(self, tmp_path):
        cfg = small_cfg()
        row = eval_run(None, tmp_path / "rule", 5, method="rule", cfg=cfg)
        assert row.method == "rule"
        assert row.avg_cost_usd > 0

    def test_zero_failures_equals_plain_eval(self, tmp_path):
        cfg = small_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        a = eval_run(run, tmp_path / "a", None, fail_agents=0)
        b = eval_run(run, tmp_path / "b", None)
        assert a.avg_cost_usd == b.avg_cost_usd

    def test_aggregates_match_recomputation(self, tmp_path):
        cfg = small_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        row = eval_run(run, tmp_path / "e", None)
        lines = (tmp_path / "e" / "days.csv").read_text().splitlines()[1:]
        costs = [float(l.split(",")[1]) for l in lines]
        sheds = [float(l.split(",")[2]) for l in lines]
        assert row.avg_cost_usd == pytest.approx(float(np.mean(costs)))
        assert row.highest_cost_usd == pytest.approx(max(costs))
        assert row.lowest_cost_usd == pytest.approx(min(costs))
        assert row.avg_shed_mwh == pytest.approx(float(np.mean(sheds)))

    def test_stress_override_scales_actuals(self, tmp_path):
        cfg = small_cfg()
        base = build_dataset(cfg, seed_stream(5, "data"))
        stressed_cfg = small_cfg({"data": {"stress_pv": 0.85,
                                           "stress_load": 1.15}})
        stressed = build_dataset(stressed_cfg, seed_stream(5, "data"))
        assert np.allclose(stressed.series.pv, 0.85 * base.series.pv)
        # Forecast tables track the unstressed truth.
        assert np.array_equal(stressed.forecasts.pv, base.forecasts.pv)


class TestRunDays:
    def test_failed_agents_never_move(self, tmp_path):
        cfg = small_cfg()
        dataset = build_dataset(cfg, seed_stream(9, "data"))
        env = build_env(cfg, dataset)
        from gridres.baselines import RulePolicy
        from gridres.config import build_microgrid
        policy = RulePolicy(build_microgrid(cfg))
        _, episodes = run_days(env, policy, dataset.test_days[:2],
                               seed_stream(9, "env"), fail_agents=2)
        for rec in episodes:
            for result in rec.results:
                assert result.p_ess[0] == 0.0
                assert result.p_ess[1] == 0.0


class TestCli:
    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("train:\n  gamma: -3\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("yaml_text, problem", [
        ("outage:\n  duration_range: [12]\n",
         "outage.duration_range: must be a list of 2 integers"),
        ("train:\n  warmup_steps: a\n", "train.warmup_steps: must be an integer"),
        ("train:\n  episodes: a\n", "train.episodes: must be an integer"),
    ])
    def test_mistyped_leaf_exits_1(self, tmp_path, capsys, yaml_text, problem):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml_text)
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert problem in capsys.readouterr().err

    def test_type_and_range_problems_reported_together(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("train:\n  warmup_steps: a\n  gamma: -1\n"
                       "outage:\n  duration_range: [12]\n"
                       "microgrid:\n  ess: [{id: E1, p_min: x}]\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        for problem in ("train.warmup_steps: must be an integer",
                        "train.gamma: must be positive",
                        "outage.duration_range: must be a list of 2 integers",
                        "microgrid.ess[0].p_min: must be a number"):
            assert problem in err

    @pytest.mark.parametrize("argv, problem", [
        (["train", "--episodes", "0"], "train.episodes: must be positive"),
        (["train", "--days", "0"], "data.days: need at least 4 days"),
        (["eval", "--method", "rule", "--fail-agents", "-1"],
         "--fail-agents: must be >= 0"),
        (["eval", "--method", "rule", "--eval-days", "0"],
         "--eval-days: must be >= 1"),
        (["eval", "--method", "rule", "--fail-agents", "9"],
         "--fail-agents: 9 exceeds the 5 ESS units"),
        (["eval"], "eval: give --checkpoint, or --method rule"),
        (["eval", "--method", "maddpg"], "eval: give --checkpoint, or --method rule"),
        (["compare", "--methods", "rule,bogus"], "--methods: unknown method 'bogus'"),
        (["compare", "--lambda-sweep", "a,b"],
         "--lambda-sweep: expected a comma list of numbers"),
    ])
    def test_out_of_range_count_flag_exits_1(self, tmp_path, capsys, argv, problem):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_train_then_eval_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(
            "train:\n  episodes: 3\n  warmup_steps: 48\n  update_every: 24\n"
            "  batch_size: 16\n  hidden: 16\ndata:\n  days: 8\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--seed", "2",
                     "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run),
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["eval", "--checkpoint", str(run), "--fail-agents", "1",
                     "--out", str(tmp_path / "eval-fail")]) == 0
        out = capsys.readouterr().out
        assert "avg $" in out

    def test_synth_data_round_trips_through_loader(self, tmp_path):
        path = tmp_path / "series.csv"
        assert main(["synth-data", "--days", "4", "--seed", "1",
                     "--out", str(path)]) == 0
        from gridres.dataio import load_csv
        from test_harness_helpers import table_config
        mg = table_config()
        series = load_csv(str(path), list(mg.pv), list(mg.loads))
        assert series.n_days == 4

    def test_diverged_training_exit_code(self, monkeypatch, tmp_path):
        from gridres import cli
        from gridres.maddpg import TrainingDiverged

        def boom(*a, **k):
            raise TrainingDiverged("critic loss non-finite")

        import gridres.harness as harness
        monkeypatch.setattr(harness, "train_run", boom)
        code = main(["train", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_stress_flag_parsing(self):
        from gridres.cli import _parse_stress
        assert _parse_stress("pv=0.85,load=1.15") == {"pv": 0.85, "load": 1.15}
        with pytest.raises(ConfigError):
            _parse_stress("wind=2")
