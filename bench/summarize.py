#!/usr/bin/env python3
"""Median and spread of each metric over the result files of several runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do python3 bench/run.py --workload pipeline --seed $s; done
    python3 bench/summarize.py                  # every file in .bench_work/results
    python3 bench/summarize.py --out bench/baseline.json

The spread is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
the figure the bounds in ``BENCHMARK.json`` are set against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_work" / "results"


def summarize(paths: list[Path]) -> dict:
    groups: dict[tuple[str, bool], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record["smoke"]:
            groups[(record["workload"], record["trace"])].append(record)
    table: dict = {}
    for (workload, trace), records in sorted(groups.items()):
        key = f"{workload}{' (traced)' if trace else ''}"
        entry = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "commit": sorted({r["meta"]["commit"] or "-" for r in records}),
            "metrics": {},
        }
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            entry["metrics"][name] = {
                "unit": records[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        table[key] = entry
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, help="also write the table as JSON")
    args = parser.parse_args(argv)
    paths = args.files or sorted(RESULTS.glob("*.json"))
    if not paths:
        print("summarize: no result files", file=sys.stderr)
        return 1
    table = summarize(paths)
    for key, entry in table.items():
        print(f"{key}: {entry['runs']} runs, seeds {entry['seeds']}, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for name, m in entry["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:<28} median {m['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:>12.6g}  q3 {m['q3']:>12.6g}  spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
