"""Run configuration: defaults, YAML loading and validation.

The default microgrid is the 33-bus study fleet: five storage units, five
diesel generators, six PV plants and twenty loads, priced at 0.2 / 0.5 /
0.3 / 1.5 $/MWh with 15-minute slots. Bus placements spread the devices
over the feeder; they are a documented choice of this toolkit, not part of
the published feeder data.

YAML schema (all sections optional, defaults apply):

    microgrid:
      slot_hours: 0.25
      initial_soc: 0.5
      costs: {ess: 0.2, gen: 0.5, grid: 0.3, load: 1.5}
      ess:        [{id, p_min, p_max, energy_cap, soc_min, soc_max,
                    eff_charge, eff_discharge, bus}, ...]
      generators: [{id, p_min, p_max, bus}, ...]
      pv:         [{id, p_max, bus}, ...]
      loads:      [{id, p_max, bus}, ...]
    outage:
      peak_prob: 0.3
      width_slots: 4.0
      breakpoints: 4
      shift_range: 3
      duration_range: [12, 15]
      forced_onset: null      # slot index for deterministic scenarios
      forced_duration: null
      forced_peak_slot: null
    data:
      source: synth           # or a CSV path
      days: 64
      window: 8
      forecast_std_pv: 0.05
      forecast_std_load: 0.03
      stress_pv: 1.0
      stress_load: 1.0
    train:
      episodes: 400
      gamma: 0.99
      tau: 0.001
      lr_actor: 0.00025
      lr_critic: 0.00025
      lr_gru: 0.00025
      batch_size: 128
      update_every: 24
      updates_per: 1
      warmup_steps: 8000
      replay_capacity: 100000
      noise_sigma_start: 0.2
      noise_sigma_end: 0.02
      grad_clip: 1.0
      hidden: 64

Every leaf must have the type of its default (a float leaf also takes an
integer; the forced_* keys take an integer or null), and every problem is
reported at once.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import asdict, fields
from typing import Any

import yaml

from .env import OutageSettings
from .grid import (
    SLOTS_PER_DAY,
    CostParams,
    EssSpec,
    GeneratorSpec,
    LoadSpec,
    MicrogridConfig,
    PvSpec,
)
from .maddpg import TrainSettings


class ConfigError(ValueError):
    """Invalid configuration; carries every problem found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid config:\n  - " + "\n  - ".join(problems))


ESS_TABLE = [
    ("ESS1", -2.0, 2.0, 6.0, 6),
    ("ESS2", -1.5, 1.5, 4.0, 10),
    ("ESS3", -2.0, 2.0, 6.0, 16),
    ("ESS4", -1.0, 1.0, 3.0, 25),
    ("ESS5", -1.0, 1.0, 3.0, 30),
]
GEN_TABLE = [
    ("Gen1", 2.0, 3), ("Gen2", 1.0, 8), ("Gen3", 1.0, 21),
    ("Gen4", 1.0, 27), ("Gen5", 1.0, 33),
]
PV_TABLE = [
    ("PV1", 1.0, 7), ("PV2", 2.0, 13), ("PV3", 2.0, 20),
    ("PV4", 1.0, 24), ("PV5", 1.0, 29), ("PV6", 2.0, 32),
]
LOAD_TABLE = [
    ("Load1", 0.23, 2), ("Load2", 0.51, 4), ("Load3", 0.32, 5),
    ("Load4", 0.46, 7), ("Load5", 0.23, 9), ("Load6", 1.14, 11),
    ("Load7", 0.51, 12), ("Load8", 0.46, 14), ("Load9", 0.23, 15),
    ("Load10", 0.51, 17), ("Load11", 0.46, 18), ("Load12", 0.32, 19),
    ("Load13", 0.51, 22), ("Load14", 0.46, 23), ("Load15", 1.14, 24),
    ("Load16", 0.23, 26), ("Load17", 0.51, 28), ("Load18", 0.23, 29),
    ("Load19", 0.51, 31), ("Load20", 0.46, 32),
]


def default_dict() -> dict[str, Any]:
    """The fully resolved default configuration as plain data."""
    return {
        "microgrid": {
            "slot_hours": 0.25,
            "initial_soc": 0.5,
            "costs": {"ess": 0.2, "gen": 0.5, "grid": 0.3, "load": 1.5},
            "ess": [
                {"id": i, "p_min": lo, "p_max": hi, "energy_cap": cap,
                 "soc_min": 0.1, "soc_max": 0.9, "eff_charge": 0.999,
                 "eff_discharge": 1.001, "bus": bus}
                for i, lo, hi, cap, bus in ESS_TABLE
            ],
            "generators": [
                {"id": i, "p_min": 0.0, "p_max": p, "bus": bus}
                for i, p, bus in GEN_TABLE
            ],
            "pv": [{"id": i, "p_max": p, "bus": bus} for i, p, bus in PV_TABLE],
            "loads": [{"id": i, "p_max": p, "bus": bus} for i, p, bus in LOAD_TABLE],
        },
        "outage": asdict(OutageSettings()),
        "data": {
            "source": "synth",
            "days": 64,
            "window": 8,
            "forecast_std_pv": 0.05,
            "forecast_std_load": 0.03,
            "stress_pv": 1.0,
            "stress_load": 1.0,
        },
        "train": asdict(TrainSettings()),
    }


def _merge(base: dict, override: dict, path: str, problems: list[str]) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            problems.append(f"{path}{key}: unknown key")
        elif not isinstance(base[key], dict):
            out[key] = copy.deepcopy(value)
        elif isinstance(value, dict):
            out[key] = _merge(base[key], value, f"{path}{key}.", problems)
        else:
            problems.append(f"{path}{key}: must be a mapping")
    return out


def merge_config(base: dict[str, Any], *overlays: dict[str, Any]) -> dict[str, Any]:
    """``base`` with each overlay merged over it in turn, then validated.

    Collects every problem before raising ConfigError, so a bad file is
    fixed in one round trip.
    """
    problems: list[str] = []
    resolved = base
    for overlay in overlays:
        resolved = _merge(resolved, overlay, "", problems)
    _validate(resolved, problems)
    if problems:
        raise ConfigError(problems)
    return resolved


def resolve_dict(path: str | None = None,
                 overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Defaults merged with an optional YAML file and programmatic overrides."""
    loaded: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError([f"{path}: {exc}"]) from None
        if not isinstance(loaded, dict):
            raise ConfigError([f"{path}: top level must be a mapping"])
    return merge_config(default_dict(), loaded, overrides or {})


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _type_problems(default: Any, value: Any, path: str, bad: dict[str, str]) -> None:
    """Record in ``bad`` every leaf of ``value`` whose type differs from the
    default at the same path. A fleet list types each entry like its first
    default entry, a tuple default is a fixed-length list of integers and a
    ``None`` default marks an optional integer."""
    if isinstance(default, dict):
        for key in default:
            if key in value:
                _type_problems(default[key], value[key],
                               f"{path}.{key}" if path else key, bad)
    elif isinstance(default, list):
        if not isinstance(value, list):
            bad[path] = "must be a list"
            return
        for i, entry in enumerate(value):
            if isinstance(entry, dict):
                _type_problems(default[0], entry, f"{path}[{i}]", bad)
            else:
                bad[f"{path}[{i}]"] = "must be a mapping"
    elif isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(_is_int(x) for x in value)):
            bad[path] = f"must be a list of {len(default)} integers"
    elif default is None:
        if value is not None and not _is_int(value):
            bad[path] = "must be an integer or null"
    elif isinstance(default, int):
        if not _is_int(value):
            bad[path] = "must be an integer"
    elif isinstance(default, float):
        if not _is_number(value):
            bad[path] = "must be a number"
    elif not isinstance(value, str):
        bad[path] = "must be a string"


POSITIVE = (lambda x: x > 0, "must be positive")
NON_NEGATIVE = (lambda x: x >= 0, "must be >= 0")
SLOT = (lambda x: x is None or 0 <= x < SLOTS_PER_DAY,
        f"must be null or a slot in [0, {SLOTS_PER_DAY})")
RANGES = [
    *((f"train.{f.name}", *(NON_NEGATIVE if f.name == "warmup_steps" else POSITIVE))
      for f in fields(TrainSettings)),
    ("outage.peak_prob", lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]"),
    ("outage.width_slots", *POSITIVE),
    ("outage.breakpoints", *POSITIVE),
    ("outage.shift_range", *NON_NEGATIVE),
    ("outage.duration_range", lambda r: 0 < r[0] <= r[1], "need integers 0 < lo <= hi"),
    ("outage.forced_onset", *SLOT),
    ("outage.forced_duration", lambda x: x is None or x > 0, "must be null or positive"),
    ("outage.forced_peak_slot", *SLOT),
    ("data.days", lambda x: x >= 4, "need at least 4 days for a split"),
    ("data.window", *POSITIVE),
    ("data.forecast_std_pv", *NON_NEGATIVE),
    ("data.forecast_std_load", *NON_NEGATIVE),
    ("data.stress_pv", *POSITIVE),
    ("data.stress_load", *POSITIVE),
]


def _validate(cfg: dict[str, Any], problems: list[str]) -> None:
    """Type-check every leaf first, then range-check the well-typed ones."""
    bad: dict[str, str] = {}
    _type_problems(default_dict(), cfg, "", bad)
    problems.extend(f"{path}: {message}" for path, message in bad.items())
    for path, ok, message in RANGES:
        value = functools.reduce(dict.__getitem__, path.split("."), cfg)
        if path not in bad and not ok(value):
            problems.append(f"{path}: {message}")
    train = cfg["train"]
    if not bad.keys() & {"train.episodes", "train.warmup_steps"} \
            and train["warmup_steps"] >= train["episodes"] * SLOTS_PER_DAY:
        problems.append("train.warmup_steps: must be below total environment steps")
    if not any(path.startswith("microgrid.") for path in bad):
        try:
            build_microgrid(cfg)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"microgrid: {exc}")


def build_microgrid(cfg: dict[str, Any]) -> MicrogridConfig:
    """Instantiate the validated fleet objects from a resolved config dict."""
    mg = cfg["microgrid"]
    costs = CostParams(
        lambda_ess=mg["costs"]["ess"],
        lambda_gen=mg["costs"]["gen"],
        lambda_grid=mg["costs"]["grid"],
        lambda_load=mg["costs"]["load"],
        slot_hours=mg["slot_hours"],
    )
    return MicrogridConfig(
        ess=tuple(EssSpec(**e) for e in mg["ess"]),
        generators=tuple(GeneratorSpec(**g) for g in mg["generators"]),
        pv=tuple(PvSpec(**p) for p in mg["pv"]),
        loads=tuple(LoadSpec(**l) for l in mg["loads"]),
        costs=costs,
        initial_soc=mg["initial_soc"],
    )
