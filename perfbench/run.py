"""Benchmark entry point for gridres.

    python3 perfbench/run.py --workload train-maddpg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) against the
package in ``src/`` of the checkout that holds this file, checks its
outputs, and prints a table, one JSON line with every figure under the
names used in the docs, and as the last line the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. ``--workload all`` runs every workload, each in a
fresh process. ``--tiny`` shrinks every workload for the schema smoke test.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os

# One BLAS/OpenMP thread, fixed before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-maddpg", "train-ddpg", "evaluate")
SETUP_PROBES = 5
SETUP_PROBES_TRACED = 3
CHILD_TIMEOUT_S = 170
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def import_gridres() -> None:
    """Import the package from this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridres
    except ImportError as exc:
        raise BenchError(f"cannot import gridres from {src}: {exc}") from None
    if src not in Path(gridres.__file__).resolve().parents:
        raise BenchError(f"gridres resolved outside {src}: {gridres.__file__}")


def fix_mmap_threshold() -> bool:
    """Pin glibc's mmap threshold at its 128 KiB default.

    Left dynamic, the threshold rises when the first ``train_run`` frees its
    replay arrays, so the next repeat's replay comes from the heap and stays
    resident: peak RSS then grew from 107 to 140 MiB over three DDPG repeats
    in one process, while a ``gridres train`` process runs one. Pinned, every
    repeat maps its replay afresh, as the first one does."""
    try:
        return bool(ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, 128 * 1024))
    except (OSError, AttributeError):
        return False


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(mmap_pinned: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "mmap_threshold_pinned": mmap_pinned,
    }


def child(args: list[str]) -> list[str]:
    """Run this script in a fresh process; returns its stdout lines."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def setup_probes(opts, traced: bool, n: int) -> list[float]:
    """Fresh-process set-up times, one child process each."""
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--setup-probe", "--trace", "1" if traced else "0"]
    if opts.tiny:
        args.append("--tiny")
    return [json.loads(child(args)[-1])["setup_s"] for _ in range(n)]


def run_workload(opts, mmap_pinned: bool) -> dict:
    import numpy as np
    import workloads as wl
    from tracer import Tracer

    tracer = Tracer()
    counters = {"bfs_iterations": 0}
    if opts.setup_probe:
        if opts.trace:
            wl.install(tracer, counters)
        wl.setup(opts.workload, opts.seed, opts.tiny)
        tracer.unwrap_all()
        return {"setup_s": time.perf_counter() - _T0}
    definition = load_definition()

    n_probes = 1 if opts.tiny else SETUP_PROBES
    setup_plain = setup_probes(opts, False, n_probes)
    setup_traced = (setup_probes(opts, True, 1 if opts.tiny else SETUP_PROBES_TRACED)
                    if opts.trace else [])

    if opts.trace:
        wl.install(tracer, counters)
    t_setup = time.perf_counter()
    sc = wl.setup(opts.workload, opts.seed, opts.tiny)
    own_setup_s = time.perf_counter() - t_setup
    tracer.unwrap_all()

    base = ROOT / ".bench_build" / "perfbench"
    work_dir = base / f"run-{opts.workload}-{opts.seed}-{os.getpid()}"
    try:
        res = wl.run(sc, opts.seconds, bool(opts.trace), work_dir, tracer, counters)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    plain, traced, outcome = res["plain"], res["traced"], res["outcome"]
    if not plain or (opts.trace and not traced):
        raise BenchError(f"no complete repeat; failures {outcome.failed}")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = wl.summarize(opts.workload, plain)
    named["setup_s"] = (float(np.median(setup_plain)), "s", len(setup_plain))
    named["peak_rss_mb"] = (rss_mb, "MiB", 1)
    named["failed_ratio"] = (outcome.n_failed / max(outcome.attempted, 1),
                             "fraction", outcome.attempted)
    reserved, filled = wl.replay_bytes(sc)
    last = plain[-1]
    counts = {
        "maddpg.ReplayBuffer.bytes_reserved": (reserved, "B"),
        "maddpg.ReplayBuffer.bytes_filled": (filled, "B"),
        "powerflow.nonconverged": (last.get("nonconverged", 0), "count"),
        "powerflow.violation_slots": (last.get("violation_slots", 0), "count"),
    }
    generic = wl.generic(opts.workload, named)
    generic["setup_s"] = named["setup_s"]
    generic["peak_rss_mb"] = named["peak_rss_mb"]

    report = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "tiny": opts.tiny,
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "measured_s": res["measured_s"], "own_setup_s": own_setup_s,
        "samples": {"setup_s": setup_plain, "untraced": plain, "traced": traced},
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "tail_percentiles": wl.tail_percentiles(plain),
        "attempted": outcome.attempted, "failed": outcome.n_failed,
        "failed_by_kind": outcome.failed,
        "counts": {k: {"value": v, "unit": u} for k, (v, u) in counts.items()},
        "environment": environment(mmap_pinned),
    }

    if opts.trace:
        traced_named = wl.summarize(opts.workload, traced)
        traced_generic = wl.generic(opts.workload, traced_named)
        layer = layer_metrics(wl, tracer, counters, len(traced), traced)
        layer.update(counts)
        for g, (value, unit, _) in traced_generic.items():
            layer[f"trace.overhead.{g}"] = (value - generic[g][0], unit)
        layer["trace.overhead.setup_s"] = (
            float(np.median(setup_traced)) - named["setup_s"][0], "s")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["spans"] = {"kept": len(tracer.spans), "dropped": tracer.spans_dropped}
        base.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(base / f"spans-{opts.workload}-seed{opts.seed}.csv")
        wanted, available = definition["per_layer"], layer
    else:
        wanted, available = definition["end_to_end"], {
            k: (v, u) for k, (v, u, _) in generic.items()}

    metrics = {}
    for m in wanted:
        if m["name"] not in available:
            raise BenchError(f"metric {m['name']} is not measured")
        value, unit = available[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    print_table(opts.workload, named, report.get("per_layer", {}))
    print(f"{opts.workload:14s} attempted={outcome.attempted} "
          f"failed={outcome.n_failed} {outcome.failed}")
    print(json.dumps({"report": report}, sort_keys=True))
    non_program = {k for k in outcome.failed if k != "powerflow_nonconverged"}
    return {"correct": not non_program, "attempted": outcome.attempted,
            "failed": outcome.n_failed, "metrics": metrics}


def layer_metrics(wl, tracer, counters, n_traced, traced) -> dict:
    """Per traced repeat call counts and mean self time of every layer."""
    out = {}
    for name in wl.layer_names():
        st = tracer.stats.get(name)
        calls = st.timed_calls / n_traced if st else 0
        out[f"{name}.calls"] = (int(calls) if calls == int(calls) else calls, "count")
        out[f"{name}.self_us"] = (st.self_s / st.calls * 1e6 if st else 0.0, "us")
    bfs = tracer.stats.get("powerflow.solve_bfs")
    out["powerflow.solve_bfs.iterations_mean"] = (
        counters["bfs_iterations"] / bfs.calls if bfs else 0.0, "iterations")
    wall = sum(r["wall_s"] for r in traced)
    out["trace.coverage"] = (tracer.covered_s / wall, "fraction")
    return out


def print_table(workload: str, named: dict, layer: dict) -> None:
    for name, (value, unit, n) in sorted(named.items()):
        print(f"{workload:14s} {name:28s} {value:14.6g} {unit:9s} n={n}")
    for name, entry in sorted(layer.items()):
        print(f"{workload:14s} {name:52s} {entry['value']:14.6g} {entry['unit']}")


def run_all(opts) -> dict:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        args = ["--workload", name, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
        if opts.tiny:
            args.append("--tiny")
        lines = child(args)
        print("\n".join(lines[:-1]))
        results[name] = {"result": json.loads(lines[-1]),
                         "report": json.loads(lines[-2])["report"]}
    return {"workloads": results}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload; for the schema smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    opts = parse(argv)
    mmap_pinned = fix_mmap_threshold()
    try:
        if opts.workload == "all":
            result = run_all(opts)
        else:
            import_gridres()
            result = run_workload(opts, mmap_pinned)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
