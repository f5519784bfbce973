"""One workload in a fresh process: timed passes through ``peergraph.cli.main``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; reads the config file named on the command line and writes
``result.json`` (and ``trace.json`` when traced) next to it.  The load is a
closed loop: each command starts when the previous one has returned.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _blas_threads() -> dict[str, int | str]:
    """Thread count of every OpenBLAS the process loaded, or the variable that pins it."""
    found: dict[str, int | str] = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            found[var] = os.environ[var]
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def _run_pass(cli, commands, pass_dir: Path, spans_to: tracer.Tracer | None) -> dict:
    pass_dir.mkdir()
    home = Path.cwd()
    os.chdir(pass_dir)
    gc.collect()
    results = []
    try:
        if spans_to is not None:
            spans_to.install()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for i, cmd in enumerate(commands):
            c0 = time.perf_counter()
            error = None
            try:
                with spans_to.command(i, cmd.name) if spans_to is not None else nullcontext():
                    rc = cli.main(list(cmd.argv))
                if rc != 0:
                    error = f"exit code {rc}"
            except SystemExit as exc:  # argparse rejects an argument
                error = f"exit code {exc.code}"
            except Exception:  # a raising command counts as failed; the loop goes on
                error = traceback.format_exc(limit=-3).strip().splitlines()[-1]
            results.append({"name": cmd.name, "wall_s": time.perf_counter() - c0,
                            "error": error})
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    finally:
        if spans_to is not None:
            spans_to.uninstall()
        os.chdir(home)
    return {"dir": pass_dir.name, "traced": spans_to is not None, "wall_s": wall,
            "cpu_s": cpu, "commands": results}


def _check_pass(commands, record: dict, pass_dir: Path, reference: dict[str, str] | None
                ) -> dict[str, str]:
    """Check every command's outputs in place; returns the digest of every output file.

    Against ``reference`` (the first pass's digests) a changed byte is a failure.
    """
    digests: dict[str, str] = {}
    for cmd, result in zip(commands, record["commands"]):
        if result["error"] is not None:
            continue
        try:
            cmd.check(pass_dir)
            for out in cmd.outputs:
                checks.manifest(pass_dir / out)
                for name in (out, out + ".manifest.json"):
                    digests[name] = checks.sha256(pass_dir / name)
                    if reference is not None and reference.get(name) != digests[name]:
                        raise checks.CheckFailed(f"{name} differs from the first pass")
        except Exception as exc:  # a malformed output fails its command, not the run
            result["error"] = f"check: {type(exc).__name__}: {exc}"
    return digests


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    work = Path(config["work"])
    seconds, traced_mode = config["seconds"], config["trace"]

    t0 = time.perf_counter()
    import peergraph.cli as cli
    import_s = time.perf_counter() - t0
    import networkx
    import numpy
    import scipy

    workload = WORKLOADS[config["workload"]](config, work)
    workload.prepare(cli)
    commands = workload.commands(cli)

    # At least two passes, so that their outputs can be compared byte for byte;
    # in trace mode untraced and traced passes alternate.
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        traced = traced_mode and len(passes) % 2 == 1
        recorder = tracer.Tracer() if traced else None
        passes.append(_run_pass(cli, commands, work / f"pass-{len(passes) + 1}", recorder))
        if recorder is not None:
            spans.append(recorder.spans)
        step = 2 if traced_mode else 1
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and len(passes) % step == 0 and (
                elapsed + step * elapsed / len(passes) > seconds):
            break
    peak_rss_mb = _peak_rss_mb()

    reference = None
    for record in passes:
        digests = _check_pass(commands, record, work / record["dir"], reference)
        reference = reference or digests

    outcomes = [c for p in passes for c in p["commands"]]
    untraced = [p for p in passes if not p["traced"]]
    result = {
        "import_s": import_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "networkx": networkx.__version__},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "attempted": len(outcomes),
        "failed": sum(1 for c in outcomes if c["error"] is not None),
        "failures": sorted({f"{c['name']}: {c['error']}" for c in outcomes if c["error"]}),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "digests": reference,
    }
    if spans:
        per_pass = [tracer.layer_metrics(s) for s in spans]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes if p["traced"]) - result["wall_s"])
        result["layers"] = layers
        result["top_self_s"] = tracer.top_self_times(spans[-1])
        # Times relative to each traced pass's first span; "parent" indexes that pass's list.
        trace = [[dict(span, start=span["start"] - s[0]["start"], end=span["end"] - s[0]["start"])
                  for span in s] for s in spans if s]
        (work / "trace.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
