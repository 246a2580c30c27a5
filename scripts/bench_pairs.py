"""Alternate benchmark runs of a base revision and HEAD, and compare them.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload curvature_mlp \
        --workload oracle_quad --seed 41 --pairs 10 > pairs.json

``--base`` is a git revision of this repository.  The script ``git clone``s
the repository into a temporary directory twice, checks out the base
revision in one clone and HEAD in the other, and pairs the two clones, so no
run reads the working checkout: uncommitted edits are not measured, and both
sides run from directories of the same shape (``peak_rss_mb`` was seen to
differ between a working checkout and a fresh clone of the same commit).
The clones are removed at the end.

The size of a process's environment moves its memory layout, and with it
the metrics: on a 2-core Xeon, two runs of one commit's ``curvature_mlp``
read a peak RSS of 37.25-37.31 MiB and 820-908 items/s with no extra
variable, and 37.78-37.79 MiB and 951-967 items/s with a 1,000-byte one.
So each pair runs both sides with one
padding variable (``BENCH_PAIRS_PAD``) of the same length, drawn per pair
from ``--seed`` between 0 and 4095 bytes: the sides of a pair see
environments of one size, and the medians average over layouts instead of
reporting one.

Each pair runs ``bench/run.py --workload W --seed S --trace 0`` once in the
base clone and once in the HEAD clone, one process at a time, at the
``run_seconds`` of BENCHMARK.json; the base runs first in even-numbered
pairs and second in odd ones.  Each run imports the program from its own
clone's ``src/``.  ``--workload`` may be given more than once; the
workloads' pairs run one workload after another.  Prints one JSON object
with both revisions and one table per workload: every run's end-to-end
metrics with its padding length, and per metric the base's and HEAD's
median and quartiles, the number of pairs HEAD wins (better in the metric's
direction) and the number of ties (equal values, which neither side wins).
A gain is clear when HEAD wins nine of ten pairs and the gap between the
medians exceeds the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str, cwd: Path = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def _clone(rev: str, dest: Path) -> Path:
    """A fresh clone of this repository at commit ``rev``, in ``dest``."""
    _git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    _git("checkout", "--quiet", "--detach", rev, cwd=dest)
    return dest


def _run(checkout: Path, workload: str, seed: int, seconds: int, pad: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "BENCH_PAIRS_PAD": "x" * pad}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
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
    parser.add_argument("--base", required=True, help="the git revision to compare HEAD against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to pair; give it once per workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    revs = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "change": _git("rev-parse", "--verify", "HEAD^{commit}")}
    tables = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # equal-length directory names, so the two sides differ only in the code
        sides = [("base", _clone(revs["base"], Path(tmp, "base"))),
                 ("change", _clone(revs["change"], Path(tmp, "head")))]
        spec = json.loads((sides[1][1] / "BENCHMARK.json").read_text(encoding="utf-8"))
        pads = random.Random(args.seed)
        for workload in dict.fromkeys(args.workload):
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                pad = pads.randrange(4096)
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    runs[side].append(
                        {"pad": pad, **_run(checkout, workload, args.seed,
                                            spec["run_seconds"], pad)})
                    print(workload, side, pad, runs[side][-1], file=sys.stderr)
            tables[workload] = _table(spec, runs)
    print(json.dumps({"base_rev": revs["base"], "change_rev": revs["change"],
                      "seed": args.seed, "pairs": args.pairs, "workloads": tables}, indent=1))


if __name__ == "__main__":
    main()
