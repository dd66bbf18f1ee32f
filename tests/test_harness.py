import json
import resource
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridres import config
from gridres.baselines import RulePolicy, TrainedPolicy, build_trainer
from gridres.cli import _resolve, build_parser, main
from gridres.config import ConfigError, default_dict, resolve_dict
from gridres.harness import (
    aggregate,
    audit_run,
    build_dataset,
    build_env,
    DayRecord,
    compare_run,
    eval_run,
    read_manifest,
    run_days,
    seed_stream,
    train_run,
)
from gridres.maddpg import TrainSettings

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

    def test_every_bad_fleet_entry_reported_by_path(self, tmp_path, capsys):
        mg = default_dict()["microgrid"]
        mg["ess"][0]["p_min"] = 1.0
        mg["ess"][1]["soc_min"] = 0.95
        mg["ess"][3]["soc_min"] = 0.6
        mg["ess"][4]["soc_max"] = 0.4
        del mg["ess"][2]["bus"]
        mg["pv"][0]["p_max"] = -1
        del mg["loads"][2]["p_max"]
        mg["loads"][5]["bus"] = 99
        overrides = {"microgrid": {k: mg[k] for k in ("ess", "pv", "loads")}}
        expected = [
            "microgrid.ess[0]: ESS1: need p_min < 0 < p_max, got [1.0, 2.0]",
            "microgrid.ess[1]: ESS2: bad SoC window [0.95, 0.9]",
            "microgrid.ess[2]: ESS3: bus must be a feeder bus 1..33, got 0",
            "microgrid.pv[0]: PV1: p_max must be positive",
            "microgrid.loads[2]: LoadSpec.__init__() missing 1 required "
            "positional argument: 'p_max'",
            "microgrid.loads[5]: Load6: bus must be a feeder bus 1..33, got 99",
            "microgrid: initial_soc 0.5 outside the SoC window of ESS4, ESS5",
        ]
        with pytest.raises(ConfigError) as err:
            resolve_dict(None, overrides)
        assert err.value.problems == expected
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(overrides))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err_text = capsys.readouterr().err
        for problem in expected:
            assert problem in err_text

    @pytest.mark.parametrize("kind, problem", [
        ("ess", "microgrid: at least one ESS is required"),
        ("loads", "microgrid: at least one load is required"),
    ])
    def test_empty_fleet_list_reported(self, kind, problem):
        with pytest.raises(ConfigError) as err:
            resolve_dict(None, {"microgrid": {kind: []}})
        assert err.value.problems == [problem]

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("train:\n  episodes: 7\n  warmup_steps: 100\n"
                        "outage:\n  peak_prob: 0.1\n")
        cfg = resolve_dict(str(path))
        assert cfg["train"]["episodes"] == 7
        assert cfg["outage"]["peak_prob"] == 0.1
        assert cfg["train"]["gamma"] == 0.99  # untouched default

    def test_docstring_schema_matches_defaults(self):
        def shape(x):
            """Keys and scalar leaves; a fleet list by its entries' keys."""
            if isinstance(x, dict):
                return {k: shape(v) for k, v in x.items()}
            if isinstance(x, list) and isinstance(x[0], dict):
                return sorted(x[0])
            return list(x) if isinstance(x, tuple) else x

        doc = config.__doc__
        schema = textwrap.dedent(doc[doc.index("    microgrid:"):doc.index("Every leaf")])
        assert shape(yaml.safe_load(schema)) == shape(default_dict())

    def test_flags_beat_scenario_beat_config_beat_defaults(self, tmp_path):
        base, scenario = tmp_path / "c.yaml", tmp_path / "s.yaml"
        base.write_text("train: {episodes: 300, gamma: 0.9, tau: 0.01}\n")
        scenario.write_text("train: {episodes: 400, gamma: 0.95}\n")
        args = build_parser().parse_args(
            ["train", "--config", str(base), "--scenario", str(scenario),
             "--episodes", "85", "--out", str(tmp_path / "o")])
        train = _resolve(args)["train"]
        assert (train["episodes"], train["gamma"], train["tau"]) == (85, 0.95, 0.01)
        assert train["hidden"] == 64


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
        # The peak before the run, from the counter the manifest reads: an
        # exact resident count (statm) can run ahead of it.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
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
        # The process's peak so far, so at least what it held before the run.
        assert manifest["outcome"]["peak_rss_mb"] >= peak_mb > 0
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

    def test_manifest_with_a_legacy_key_exits_1_naming_it(self, tmp_path, capsys):
        """Earlier versions wrote train.gru_shared, train.updates_per,
        microgrid.slot_hours and each generator's p_min; a manifest is
        checked as a --config file is, so each is an unknown key."""
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        good = read_manifest(run)
        cases = {"gru_shared": (("train", "gru_shared"), True,
                                "train.gru_shared: unknown key"),
                 "updates_per": (("train", "updates_per"), 1,
                                 "train.updates_per: unknown key"),
                 "slot_hours": (("microgrid", "slot_hours"), 0.25,
                                "microgrid.slot_hours: unknown key"),
                 "p_min": (("microgrid", "generators", 0, "p_min"), 0.0,
                           "microgrid.generators[0]: GeneratorSpec.__init__() "
                           "got an unexpected keyword argument 'p_min'")}
        for case, (path, value, problem) in cases.items():
            manifest = json.loads(json.dumps(good))
            node = manifest["config"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            (run / "manifest.json").write_text(json.dumps(manifest))
            for command in ("eval", "audit"):
                out = tmp_path / f"{command}-{case}"
                assert main([command, "--checkpoint", str(run),
                             "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert f"{run}: {problem}" in err
                assert not out.exists()

    def test_manifest_with_another_slot_length_is_refused(self, tmp_path):
        run = tmp_path / "run"
        train_run(small_cfg(), 5, run)
        manifest = read_manifest(run)
        manifest["config"]["microgrid"]["slot_hours"] = 0.5
        (run / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="microgrid.slot_hours: unknown key"):
            eval_run(run, tmp_path / "e", None)
        assert not (tmp_path / "e").exists()

    def test_counts_out_of_range_refused_before_output(self, tmp_path):
        """The count limits hold for a Python caller as for the CLI: a
        negative failure count, or fewer than one day, raises before the
        output dir exists."""
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        cases = {
            "days-neg": (lambda out: eval_run(run, out, None, days=-1),
                         "--eval-days: must be >= 1"),
            "days-zero": (lambda out: eval_run(run, out, None, days=0),
                          "--eval-days: must be >= 1"),
            "fail-neg": (lambda out: eval_run(run, out, None, fail_agents=-1),
                         "--fail-agents: must be >= 0"),
            "rule-days": (lambda out: eval_run(None, out, 5, method="rule",
                                               cfg=tiny_cfg(), days=0),
                          "--eval-days: must be >= 1"),
            "audit-days": (lambda out: audit_run(run, out, days=0),
                           "--eval-days: must be >= 1"),
        }
        for case, (command, problem) in cases.items():
            out = tmp_path / case
            with pytest.raises(ConfigError) as exc:
                command(out)
            assert exc.value.problems == [problem], case
            assert not out.exists(), case

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
        # Column 0 serves the stressed actuals; the forecasts track the
        # unstressed truth, and the final slot holds its served actual.
        windows, n_pv = stressed.forecasts.windows, len(stressed.series.pv)
        assert np.array_equal(windows[:, :, :n_pv, 0],
                              stressed.series.pv.transpose(1, 2, 0))
        assert np.array_equal(windows[:, :, n_pv:, 0],
                              stressed.series.load.transpose(1, 2, 0))
        assert np.array_equal(windows[:, :-1, :, 1:],
                              base.forecasts.windows[:, :-1, :, 1:])
        assert np.array_equal(windows[:, -1, :, 1:],
                              np.repeat(windows[:, -1, :, :1], 7, axis=2))


def tiny_cfg():
    return small_cfg({"train": {"episodes": 3, "warmup_steps": 96}})


def csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestCompareRun:
    def test_outputs_line_up(self, tmp_path):
        cfg = tiny_cfg()
        out = tmp_path / "cmp"
        rows = compare_run(cfg, 4, out, methods=("maddpg", "rule"),
                           lambda_sweep=[0.5, 30.0])
        assert [r.method for r in rows] == ["maddpg", "rule"]
        n_days = len(build_dataset(cfg, seed_stream(4, "data")).test_days)
        _, report = csv_rows(out / "report.csv")
        header, comparison = csv_rows(out / "comparison.csv")
        assert [r[0] for r in report] == [r[0] for r in comparison] == \
            ["maddpg", "rule"]
        assert header.endswith(",computation_time_s")
        for row, cells in zip(rows, report):
            _, days = csv_rows(out / f"days-{row.method}.csv")
            assert len(days) == n_days
            assert float(cells[1]) == row.avg_cost_usd == pytest.approx(
                float(np.mean([float(d[1]) for d in days])))
        header, curves = csv_rows(out / "learning_curves.csv")
        assert header == "method,episode,cost_usd,shed_mwh,reward"
        assert [(c[0], c[1]) for c in curves] == [("maddpg", str(e))
                                                  for e in range(3)]
        _, trajectories = csv_rows(out / "trajectories.csv")
        assert [t[0] for t in trajectories] == ["maddpg"] * 96 + ["rule"] * 96
        assert [t[1] for t in trajectories[:96]] == [str(s) for s in range(96)]
        header, sweep = csv_rows(out / "lambda_sweep.csv")
        assert header == "lambda_load,avg_shed_mwh"
        assert [s[0] for s in sweep] == ["0.5", "30.0"]
        assert all(float(s[1]) >= 0.0 for s in sweep)
        for run in ("train-maddpg", "lambda-0.5", "lambda-30.0"):
            assert (out / run / "checkpoint.npz").exists()
        assert not (out / "train-rule").exists()


class TestAuditRun:
    def test_summary_totals_equal_csv_sums(self, tmp_path):
        cfg = tiny_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        out = tmp_path / "audit"
        summary = audit_run(run, out)
        header, rows = csv_rows(out / "audit.csv")
        assert header == "day,slot,converged,violations,v_min,v_max,loss_mw"
        n_days = len(build_dataset(cfg, seed_stream(5, "data")).test_days)
        assert summary["slots"] == len(rows) == 96 * n_days
        assert summary["violations"] == sum(int(r[3]) for r in rows)
        assert summary["nonconverged"] == sum(r[2] == "0" for r in rows)
        assert json.loads((out / "audit_summary.json").read_text()) == summary
        for r in rows:
            assert 0.0 < float(r[4]) <= float(r[5])
            assert float(r[6]) >= 0.0


class TestBuildsOnce:
    def test_each_command_builds_its_dataset_once(self, tmp_path, monkeypatch):
        import gridres.harness as harness
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        cfg = tiny_cfg()
        run = tmp_path / "run"
        train_run(cfg, 5, run)
        for name in ("build_dataset", "run_days", "read_manifest"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        counts = []
        for command in (
                lambda: eval_run(run, tmp_path / "eval", None),
                lambda: audit_run(run, tmp_path / "audit", days=1),
                lambda: compare_run(cfg, 5, tmp_path / "cmp",
                                    methods=("maddpg", "ddpg", "rule"),
                                    lambda_sweep=[0.5, 30.0])):
            calls.clear()
            command()
            counts.append(tuple(map(calls.count,
                                    ("build_dataset", "run_days", "read_manifest"))))
        # One dataset per command, which compare's trainings share; one
        # rollout for eval and audit, and for compare one per method and
        # one per swept penalty. eval and audit read the run's manifest
        # once; compare hands its own config to each policy and reads none.
        assert counts == [(1, 1, 1), (1, 1, 1), (1, 5, 0)]
        # compare's MADDPG run is the standalone run at the same seed.
        for name in ("metrics.csv", "checkpoint.npz"):
            assert (tmp_path / "cmp" / "train-maddpg" / name).read_bytes() == \
                (run / name).read_bytes()
        assert read_manifest(tmp_path / "cmp" / "train-maddpg")["dataset_checksum"] \
            == read_manifest(run)["dataset_checksum"]
        # compare's own manifest names that one dataset.
        assert read_manifest(tmp_path / "cmp")["dataset_checksum"] == \
            read_manifest(tmp_path / "cmp" / "train-maddpg")["dataset_checksum"]


def reference_run_days(env, policy, days, env_rng, fail_agents):
    """The rollout as it was written before commands travelled as lists: each
    policy output copied into a float array, the failed units zeroed there."""
    records, episodes = [], []
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
            day=int(day), cost_usd=rec.cost, shed_mwh=rec.shed_mwh,
            outage_onset=rec.outage.onset_slot if rec.outage else None,
            outage_duration=rec.outage.duration_slots if rec.outage else None))
        episodes.append(rec)
    return records, episodes


class TestRunDays:
    @pytest.mark.parametrize("kind", ["rule", "trained"])
    @pytest.mark.parametrize("fail_agents", [1, 3])
    def test_failed_agents_match_the_array_path(self, kind, fail_agents):
        """With k failed agents the first k units dispatch exactly 0.0 MW, and
        every day record, result and SoC trace is, by repr, the one of the
        array-copy rollout, for the rule's lists and a greedy policy's arrays."""
        cfg = small_cfg({"outage": {"peak_prob": 0.9}})
        dataset = build_dataset(cfg, seed_stream(9, "data"))

        def rollout(run):
            env = build_env(cfg, dataset)
            if kind == "rule":
                policy = RulePolicy(env.config)
            else:
                policy = TrainedPolicy(build_trainer(
                    env, TrainSettings.from_dict(cfg["train"]), "maddpg",
                    seed_stream(9, "init")))
            return run(env, policy, dataset.test_days, seed_stream(9, "env"),
                       fail_agents=fail_agents)

        records, episodes = rollout(run_days)
        want_records, want_episodes = rollout(reference_run_days)
        assert repr(records) == repr(want_records)
        islanded = 0
        for rec, want in zip(episodes, want_episodes, strict=True):
            assert repr(rec.results) == repr(want.results)
            assert repr(rec.soc_trace) == repr(want.soc_trace)
            for result in rec.results:
                assert repr(result.p_ess[:fail_agents]) == repr((0.0,) * fail_agents)
                assert all(type(p) is float for p in result.p_ess)
                islanded += not result.connected
        assert islanded > 0

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
        ("train:\n  gamma: .inf\n", "train.gamma: must be a finite number"),
        ("microgrid:\n  ess: [{id: E1, p_max: .nan}]\n",
         "microgrid.ess[0].p_max: must be a finite number"),
        ("train:\n  batch_size: 256\n  replay_capacity: 200\n",
         "train.batch_size: must not exceed train.replay_capacity"),
        ("train:\n  tau: 1.5\n", "train.tau: must be at most 1"),
        ("train:\n  gamma: 3.0\n", "train.gamma: must be at most 1"),
        # A fleet whose only ESS or only load is bad is not also called empty.
        ("microgrid:\n  ess: [{id: ESS1, p_min: 1.0, p_max: 2.0, energy_cap: 6.0, "
         "soc_min: 0.1, soc_max: 0.9, bus: 6}]\n",
         "microgrid.ess[0]: ESS1: need p_min < 0 < p_max"),
        ("microgrid:\n  loads: [{id: Load1, p_max: -1.0, bus: 2}]\n",
         "microgrid.loads[0]: Load1: p_max must be positive"),
    ])
    def test_mistyped_leaf_exits_1(self, tmp_path, capsys, yaml_text, problem):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml_text)
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert problem in err
        assert "is required" not in err

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
        (["eval", "--method", "rule", "--stress", "pv=abc"],
         "--stress: expected pv=<f>,load=<f>, got 'pv=abc'"),
        (["compare", "--lambda-sweep", "-5"],
         "lambda_sweep -5.0: microgrid: lambda_load must be >= 0"),
        (["audit", "--checkpoint", "run", "--scenario", "nonexist.yaml"],
         "unrecognized arguments: --scenario nonexist.yaml"),
        (["eval", "--checkpoint", "run", "--config", "nonexist.yaml"],
         "eval: --config and --scenario do not apply to --checkpoint"),
        (["train", "--episodes", "abc"],
         "argument --episodes: invalid int value: 'abc'"),
        (["train", "--bogus"], "unrecognized arguments: --bogus"),
        (["eval", "--checkpoint", "run", "--method", "rule"],
         "eval: --method does not apply to --checkpoint"),
        (["train", "--scenario", "malformed.yaml"], "malformed.yaml: while parsing"),
        (["train", "--scenario", "list.yaml"], "list.yaml: top level must be a mapping"),
        (["train", "--scenario", "nonexist.yaml"],
         "nonexist.yaml: [Errno 2] No such file or directory"),
        (["eval", "--method", "rule", "--lambda-load", "nan"],
         "microgrid.costs.load: must be a finite number"),
        (["eval", "--method", "rule", "--stress", "pv=inf"],
         "data.stress_pv: must be a finite number"),
        (["compare", "--methods", "rule,rule"], "--methods: 'rule' listed twice"),
        (["train", "--days", "3"], "data.days: need at least 4 days"),
        (["eval", "--method", "rule", "--config", "days3.yaml"],
         "data.days: need at least 4 days"),
        (["synth-data", "--days", "0"], "data.days: must be positive"),
        (["train", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["eval", "--method", "rule", "--seed", "-1"], "argument --seed"),
        (["compare", "--seed", "-2"], "argument --seed"),
        (["audit", "--checkpoint", "run", "--seed", "-1"], "argument --seed"),
        (["synth-data", "--seed", "x"],
         "argument --seed: expected a non-negative integer, got 'x'"),
        (["train", "--config", "updates.yaml"], "train.updates_per: unknown key"),
        (["eval", "--method", "rule", "--stress", "pv=0.9,pv=1.2"],
         "--stress: 'pv' listed twice"),
    ])
    def test_out_of_range_count_flag_exits_1(self, tmp_path, capsys, monkeypatch,
                                             argv, problem):
        monkeypatch.chdir(tmp_path)
        Path("malformed.yaml").write_text("train: [1,\n")
        Path("list.yaml").write_text("- train\n")
        Path("days3.yaml").write_text("data:\n  days: 3\n")
        Path("updates.yaml").write_text("train:\n  updates_per: 1\n")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_exits_2_without_output(self, tmp_path, capsys):
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        (run / "checkpoint.npz").unlink()
        for command in ("eval", "audit"):
            for checkpoint in (run, tmp_path / "nonexist"):
                out = tmp_path / f"{command}-{checkpoint.name}"
                assert main([command, "--checkpoint", str(checkpoint),
                             "--out", str(out)]) == 2
                assert "No such file or directory" in capsys.readouterr().err
                assert not out.exists()

    def test_corrupt_checkpoint_exits_2_without_output(self, tmp_path, capsys):
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        path = run / "checkpoint.npz"
        good = path.read_bytes()
        with np.load(path) as data:
            tensors = {k: data[k] for k in data.files if k != "gru/emb/W"}
        tensors["__order__"] = np.array(
            [n for n in tensors["__order__"] if n != "gru/emb/W"] + ["extra"])
        tensors["extra"] = np.zeros(1)
        np.savez(tmp_path / "missing.npz", **tensors)
        with np.load(path) as data:
            tensors = {k: data[k] for k in data.files}
        groups = tensors["actor/W1"]  # one more group than the fleet has units
        tensors["actor/W1"] = np.concatenate([groups, groups[:1]])
        np.savez(tmp_path / "groups.npz", **tensors)
        with np.load(path) as data:
            tensors = {k: data[k] for k in data.files}
        tensors["__version__"] = np.array("gridres-params-1")
        np.savez(tmp_path / "v1.npz", **tensors)
        np.save(tmp_path / "array.npy", np.zeros(3))
        cases = {"truncated": (good[: len(good) // 2], "unreadable checkpoint"),
                 "npy": ((tmp_path / "array.npy").read_bytes(), "unreadable checkpoint"),
                 "missing": ((tmp_path / "missing.npz").read_bytes(),
                             "missing ['gru/emb/W'], unexpected ['extra']"),
                 "groups": ((tmp_path / "groups.npz").read_bytes(),
                            f"actor/W1: checkpoint {(len(groups) + 1,) + groups.shape[1:]}"),
                 "v1": ((tmp_path / "v1.npz").read_bytes(),
                        "unsupported checkpoint version 'gridres-params-1'")}
        for case, (blob, problem) in cases.items():
            path.write_bytes(blob)
            for command in ("eval", "audit"):
                out = tmp_path / f"{command}-{case}"
                assert main([command, "--checkpoint", str(run),
                             "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and problem in err
                assert "Traceback" not in err
                assert not out.exists()

    def test_malformed_manifest_exits_2_naming_every_missing_key(self, tmp_path,
                                                                   capsys):
        train = asdict(TrainSettings())
        train_keys = [f"config.train.{key}" for key in train]
        no_fleet = {"train": train, "microgrid": {"generators": []}}
        cases = {"no-train": ({"config": {"train": {}}, "seed": 1, "method": "maddpg"},
                              ["config.microgrid", "config.outage", "config.data",
                               *train_keys]),
                 "seed-only": ({"seed": 1}, ["config", "method"]),
                 "no-ess": ({"config": no_fleet, "seed": 1, "method": "maddpg"},
                            [f"config.microgrid.{key}" for key in
                             ("initial_soc", "costs", "ess", "pv", "loads")]
                            + ["config.outage", "config.data"])}
        for case, (manifest, missing) in cases.items():
            run = tmp_path / case
            run.mkdir()
            (run / "manifest.json").write_text(json.dumps(manifest))
            for command in ("eval", "audit"):
                out = tmp_path / f"{command}-{case}"
                assert main([command, "--checkpoint", str(run),
                             "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert err.rstrip().endswith("manifest.json lacks " + ", ".join(missing))
                assert not out.exists()

    def test_unreadable_manifest_exits_2_naming_the_file(self, tmp_path, capsys):
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        path = run / "manifest.json"
        good = path.read_bytes()
        for case, blob in (("truncated", good[: len(good) // 2]), ("empty", b""),
                           ("not-utf8", b"\xff" + good)):
            path.write_bytes(blob)
            for command in ("eval", "audit"):
                out = tmp_path / f"{command}-{case}"
                assert main([command, "--checkpoint", str(run),
                             "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}: unreadable manifest: ")
                assert "Traceback" not in err
                assert not out.exists()

    def test_mistyped_manifest_value_exits_1_naming_it(self, tmp_path, capsys):
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        manifest = read_manifest(run)
        manifest["config"]["outage"]["peak_prob"] = "high"
        manifest["config"]["train"]["gamma"] = 3.0
        (run / "manifest.json").write_text(json.dumps(manifest))
        for command in ("eval", "audit"):
            out = tmp_path / command
            assert main([command, "--checkpoint", str(run), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            for problem in ("outage.peak_prob: must be a number",
                            "train.gamma: must be at most 1"):
                assert f"{run}: {problem}" in err
            assert not out.exists()

    def test_manifest_seed_not_a_count_exits_1_naming_it(self, tmp_path, capsys):
        run = tmp_path / "run"
        train_run(tiny_cfg(), 5, run)
        manifest = read_manifest(run)
        for case, seed in (("float", 1.5), ("null", None), ("string", "7"),
                           ("negative", -1), ("bool", True)):
            manifest["seed"] = seed
            (run / "manifest.json").write_text(json.dumps(manifest))
            for command in ("eval", "audit"):
                out = tmp_path / f"{command}-{case}"
                assert main([command, "--checkpoint", str(run),
                             "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert f"{run}: seed: must be a non-negative integer, got {seed!r}" in err
                assert not out.exists()

    def test_missing_data_source_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"data:\n  source: {tmp_path / 'nonexist.csv'}\n")
        for command in ("train", "compare"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert "No such file or directory" in capsys.readouterr().err
            assert not out.exists()

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
        from gridres.dataio import load_csv
        from test_harness_helpers import table_config
        mg = table_config()
        # Fewer days than a train/test split needs: synth-data splits nothing.
        for days in (4, 2, 1):
            path = tmp_path / f"series-{days}.csv"
            assert main(["synth-data", "--days", str(days), "--seed", "1",
                         "--out", str(path)]) == 0
            series = load_csv(str(path), list(mg.pv), list(mg.loads))
            assert series.n_days == days

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
        with pytest.raises(ConfigError, match="'load' listed twice"):
            _parse_stress("load=1.1,pv=0.9,load=1.2")
