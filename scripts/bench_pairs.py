"""Alternate benchmark runs of a base checkout and this one, and compare them.

    python3 scripts/bench_pairs.py --base /path/to/parent --workload curvature_mlp \
        --workload oracle_quad --seed 41 --pairs 10 > pairs.json

Each pair runs ``bench/run.py --workload W --seed S --trace 0`` once in the
base checkout and once in this one, one process at a time, at the
``run_seconds`` of BENCHMARK.json; the base runs first in even-numbered
pairs and second in odd ones.  Each run imports the program from its
own checkout's ``src/``.  ``--workload`` may be given more than once; the
workloads' pairs run one workload after another.  Prints one JSON object
with one table per workload: every run's end-to-end metrics, and per metric
the base's and this checkout's median and quartiles, the number of pairs
this checkout wins (better in the metric's direction) and the number of
ties (equal values, which neither side wins).  A gain is clear when this
checkout wins nine of ten pairs and the gap between the medians exceeds the
base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _table(spec: dict, runs: dict) -> dict:
    """Per end-to-end metric: both sides' quartiles, and this side's wins and ties."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": _summary(base),
            "change": _summary(change),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "ties": sum(c == b for b, c in zip(base, change)),
        }
    return {"metrics": metrics, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to pair; give it once per workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [("base", args.base.resolve()), ("change", ROOT)]
    tables = {}
    for workload in dict.fromkeys(args.workload):
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(_run(checkout, workload, args.seed, spec["run_seconds"]))
                print(workload, side, runs[side][-1], file=sys.stderr)
        tables[workload] = _table(spec, runs)
    print(json.dumps({"seed": args.seed, "pairs": args.pairs, "workloads": tables}, indent=1))


if __name__ == "__main__":
    main()
