"""Golden SHA-256 digests of a short fixed-seed pipeline.

    PYTHONPATH=src python tests/make_golden.py     # rewrites tests/golden.json

The pipeline runs ``train``, ``eval`` (a checkpoint and the rule policy,
each plain and stressed), ``audit``, ``compare`` with a lambda sweep and
``synth-data`` through ``cli.main`` on a small config in which updates do
run, plus two ``dp_oracle`` days: one ESS, and two ESS whose 25-point
refinement pass spans several row blocks. ``tests/test_golden.py`` reruns
it and compares every digest with the committed file. Rewrite the file only
in a change that alters run outputs on purpose, and name each digest that
moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from gridres.baselines import dp_oracle
from gridres.cli import main as cli_main
from gridres.dataio import synth_generator
from gridres.grid import (CostParams, EssSpec, GeneratorSpec, LoadSpec,
                         MicrogridConfig, PvSpec)

GOLDEN = Path(__file__).with_name("golden.json")
SMALL_YAML = ("train: {episodes: 4, warmup_steps: 64, update_every: 24, "
              "batch_size: 32, hidden: 32}\ndata: {days: 8}\n")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Wall-clock lives in these files; everything else a command writes is digested.
TIMED = {"manifest.json", "timing.csv", "comparison.csv"}


def environment() -> dict:
    """What the digests depend on besides the code: numpy, its BLAS and the
    thread variables set for it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> None:
    code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"gridres {' '.join(argv)} exited {code}")


def _dp_digests() -> dict[str, str]:
    """Perfect-foresight days with a fixed outage: one ESS at the default 21
    points, and two ESS at 13 points, whose 25-point refinement pass (625
    states) the DP sweeps in several row blocks, the last one partial."""
    one = EssSpec(id="E1", p_min=-1.5, p_max=1.5, energy_cap=4.0,
                  soc_min=0.1, soc_max=0.9)
    two = EssSpec(id="E2", p_min=-1.0, p_max=1.0, energy_cap=2.5,
                  soc_min=0.2, soc_max=0.95)
    digests = {}
    for name, ess, grid_points in (("dp", (one,), 21), ("dp2", (one, two), 13)):
        config = MicrogridConfig(
            ess=ess,
            generators=(GeneratorSpec(id="G1", p_max=1.0),),
            pv=(PvSpec(id="PV1", p_max=2.0),),
            loads=(LoadSpec(id="L1", p_max=2.0), LoadSpec(id="L2", p_max=1.0)),
            costs=CostParams(),
        )
        series = synth_generator(np.random.default_rng(5), 1, list(config.pv),
                                 list(config.loads))
        res = dp_oracle(config, series.pv[:, 0, :], series.load[:, 0, :],
                        (70, 13), grid_points=grid_points)
        commands = np.ascontiguousarray(res.commands).tobytes()
        digests |= {f"{name}/cost": repr(res.cost),
                    f"{name}/delta_grid": repr(res.delta_grid),
                    f"{name}/commands": _sha(commands)}
    return digests


def pipeline(work: Path) -> dict[str, str]:
    """Run every command into ``work`` and digest its deterministic files."""
    cfg = work / "small.yaml"
    cfg.write_text(SMALL_YAML)
    run = work / "train"
    _run("train", "--config", str(cfg), "--seed", "1", "--out", str(run))
    _run("eval", "--checkpoint", str(run), "--out", str(work / "eval"))
    _run("eval", "--checkpoint", str(run), "--stress", "pv=0.85,load=1.15",
         "--fail-agents", "2", "--out", str(work / "eval-stress"))
    _run("eval", "--method", "rule", "--config", str(cfg), "--seed", "1",
         "--out", str(work / "eval-rule"))
    _run("eval", "--method", "rule", "--config", str(cfg), "--seed", "1",
         "--stress", "pv=0.85,load=1.15", "--out", str(work / "eval-rule-stress"))
    _run("audit", "--checkpoint", str(run), "--eval-days", "2",
         "--out", str(work / "audit"))
    _run("compare", "--methods", "maddpg,ddpg,rule", "--lambda-sweep", "0.15,30",
         "--config", str(cfg), "--seed", "1", "--out", str(work / "compare"))
    _run("synth-data", "--days", "4", "--seed", "1",
         "--out", str(work / "synth.csv"))
    digests = {path.relative_to(work).as_posix(): _sha(path.read_bytes())
               for path in sorted(work.rglob("*"))
               if path.is_file() and path.name not in TIMED and path != cfg}
    digests.update(_dp_digests())
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": pipeline(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
