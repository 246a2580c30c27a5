"""Run the benchmark over several seeds, summarise it, and record a baseline.

    python3 bench/report.py --runs 10 --out bench/baseline.json

For each workload this makes ``--runs`` untraced runs (seeds 1..runs) and one
traced run (seed 1) of ``run.py`` at the ``run_seconds`` of BENCHMARK.json.
It prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound, and per
workload ``failed_frac``, the failed share of all attempted runs.  Then it
runs every bundled ``configs/*.json`` once from a cold process and prints its
exit code and wall time; these rows are information, not metrics.  With
``--out`` it writes all of this, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SMOKE_TIMEOUT_S = 600

import run  # noqa: E402  (pins the BLAS threads before numpy loads)


def _run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _command_of(config: Path) -> str | None:
    """The one subcommand whose schema the config satisfies."""
    import jsonschema
    from dplens.cli import CONFIG_SCHEMAS

    cfg = json.loads(config.read_text(encoding="utf-8"))
    fits = [c for c, schema in CONFIG_SCHEMAS.items()
            if jsonschema.Draft202012Validator(schema).is_valid(cfg)]
    return fits[0] if len(fits) == 1 else None


def smoke_table(workdir: Path) -> list[dict]:
    """Each bundled config once, from a cold process: exit code and wall time."""
    rows = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for config in sorted((ROOT / "configs").glob("*.json")):
        command = _command_of(config)
        out = workdir / config.stem
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dplens.cli", command or "unknown", "--config",
             str(config), "--out", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S,
        )
        rows.append({
            "config": f"configs/{config.name}",
            "command": command,
            "exit_code": proc.returncode,
            "wall_s": round(time.perf_counter() - start, 3),
            "stderr": proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "",
        })
    return rows


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": run.BLAS_THREADS,
        "reference_kernel_s": statistics.median(run.reference_kernel() for _ in range(20)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"machine": machine(), "run_seconds": seconds,
              "why": {w["name"]: w["why"] for w in spec["workloads"]}, "workloads": {}}
    for name in args.workloads:
        results = [_run_bench(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "metrics": {
                m: {"unit": results[0]["metrics"][m]["unit"],
                    **_summary([r["metrics"][m]["value"] for r in results])}
                for m in bounds
            },
        }
        print(f"{name}: failed_frac {entry['failed_frac']:.4g} ({failed}/{attempted})")
        for m, s in entry["metrics"].items():
            steady = "ok" if s["spread"] < bounds[m] / 3 else "NOT STEADY"
            print(f"  {m:<12} {s['median']:12.6g} {s['unit']:<8} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f} bound {bounds[m]} {steady}")
        traced = _run_bench(name, 1, seconds, 1)
        entry["trace"] = {m: v["value"] for m, v in traced["metrics"].items()}
        entry["trace_correct"] = traced["correct"]
        for m, v in traced["metrics"].items():
            print(f"    {m:<42} {v['value']:12.6g} {v['unit']}")
        record["workloads"][name] = entry
        sys.stdout.flush()
    workdir = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    try:
        record["bundled_configs"] = smoke_table(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for row in record["bundled_configs"]:
        print(f"  {row['config']:<30} {row['command'] or '?':<14} exit {row['exit_code']} "
              f"{row['wall_s']:8.3f} s {row['stderr']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
