#!/usr/bin/env python3
"""peergraph benchmark: seeded PeeringDB-scale workloads through the CLI.

    python3 bench/run.py                      # both workloads, seed 1
    python3 bench/run.py --workload reduce-diff --seed 7 --seconds 45 --trace 1
    python3 bench/run.py --smoke              # fixture scale, a few seconds

For each workload the harness generates the inputs from the seed, times
``import peergraph.cli`` in fresh interpreters (``setup_s``), then starts one
child process (``child.py``) that drives ``peergraph.cli.main`` through the
workload's command sequence until ``--seconds`` are used, at least twice.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end ones, or with
``--trace 1`` the per-layer ones.  Everything else (run metadata, input
sizes, per-pass and per-command times, output digests) goes to
``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import CLI_COMMANDS, LAYERS, TIME_METRICS  # noqa: E402

WORKLOAD_NAMES = ("pipeline", "reduce-diff")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

COUNT_METRICS = (
    "ingest.memberships", "ingest.dropped", "ingest.outliers", "graph.build_calls",
    "graph.node_metrics_calls", "graph.nodes", "graph.nnz", "graphio.load_calls",
    "spectral.pagerank_calls", "spectral.pagerank_iters", "spectral.reduce_calls",
    "analysis.sweep_points", "clustering.levels", "clustering.communities",
)
PER_LAYER = {
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "graphio.graph_bytes": "bytes",
    "clustering.modularity": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import peergraph.cli; "
    "print(repr(time.perf_counter() - t))"
)


# One BLAS thread: on a small shared host, a second BLAS thread mostly waits for
# a core, and its spinning makes pass times follow the neighbours' load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _steal_ticks() -> int | None:
    """Cumulative CPU steal of the host, in clock ticks (None where unreadable)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def measure_setup(env: dict[str, str], count: int) -> list[float]:
    """Import time of ``peergraph.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import peergraph.cli failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Generate, measure set-up, run the child; returns the full result record."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal_before = _steal_ticks()
    scale = gen.SMOKE if smoke else gen.FULL

    t0 = time.perf_counter()
    inputs = gen.generate(work / "inputs", seed, scale)
    gen_s = time.perf_counter() - t0

    # The first import may compile bytecode and is discarded.  Host speed drifts
    # over tens of seconds, so half the samples are taken before the child runs
    # and half after it.
    env = _child_env()
    measure_setup(env, 1)
    setup = measure_setup(env, 1 if smoke else SETUP_SAMPLES // 2)

    config = {
        "workload": name,
        "work": str(work),
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs.as_dict(),
        "scale": scale.__dict__,
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(config_path)],
                              env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise RuntimeError(f"{name}: child exited with {proc.returncode}:\n" + "\n".join(tail))
    child = json.loads((work / "result.json").read_text(encoding="utf-8"))
    setup += measure_setup(env, 0 if smoke else SETUP_SAMPLES - SETUP_SAMPLES // 2)
    steal_after = _steal_ticks()

    if trace:
        metrics = {k: {"value": child["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": child["wall_s"],
                  "cpu_s": child["cpu_s"], "peak_rss_mb": child["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "meta": {
            "commit": _git_commit(),
            "versions": child["versions"],
            "nproc": child["nproc"],
            "blas_threads": child["blas_threads"],
            "steal_ticks": {"before": steal_before, "after": steal_after,
                            "delta": None if steal_before is None or steal_after is None
                            else steal_after - steal_before},
        },
        "generation_s": gen_s,
        "sizes": inputs.sizes,
        "setup_samples_s": setup,
        "child_import_s": child["import_s"],
        "failures": child["failures"],
        "passes": child["passes"],
        "digests": child["digests"],
        "top_self_s": child.get("top_self_s"),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def summary(record: dict) -> str:
    lines = [
        f"{record['workload']}: seed {record['seed']}, {len(record['passes'])} passes, "
        f"generation {record['generation_s']:.2f} s, {record['sizes']['graph_as']} ASes / "
        f"{record['sizes']['graph_ixp']} IXPs / {record['sizes']['ports_date_1']} ports"
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'failed_ops':<28} {record['failed'] / record['attempted']:>14.6g} "
                 f"({record['failed']}/{record['attempted']} commands)")
    lines.extend(f"  FAILED {f}" for f in record["failures"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per workload (default {DEFAULT_SECONDS}; "
                             "0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass after each untraced one; report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true", help="fixture-scale inputs")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0 if args.smoke else DEFAULT_SECONDS)

    if not (SRC / "peergraph" / "cli.py").is_file():
        print(f"bench: no peergraph sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, seconds, bool(args.trace), args.smoke))
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(summary(records[-1]), flush=True)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
