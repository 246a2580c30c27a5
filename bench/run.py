"""dplens benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload dp_train_mlp --seed 1 --seconds 12 --trace 0

Run from the root of a dplens checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; progress and failures go to standard error.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over cold processes of the wall time to spawn python,
  ``import dplens.cli`` and ``load_config`` the workload's config;
* ``items_per_s``: median over repetitions of items per second of wall time
  of ``run_subcommand``, in this already warmed-up process;
* ``peak_rss_mb``: median peak resident memory (MiB) of a cold process that
  runs the workload once.

``items_per_s`` is taken at reference machine speed: a fixed reference kernel
is timed before and after every repetition, and the repetition's wall time is
scaled by ``REFERENCE_S`` / (mean reference time around it).  On a shared
machine whose speed drifts by 15-25% over tens of seconds this removes about
half of the run-to-run spread of raw wall time; the raw median goes to
standard error.  Set-up time does not track the kernel (their correlation
measured near 0), so ``setup_s`` is raw wall time.

With ``--trace 1`` it reports per-layer metrics from ``tracer.py``: each
repetition runs untraced with ``--jobs`` N, untraced with ``--jobs`` 1 and
traced with ``--jobs`` 1, and all three must write the same bytes.

BLAS runs single-threaded (``BLAS_THREADS``) in this process and in every
process it starts: on a 2-core machine a second BLAS thread mostly adds
run-to-run noise, and it would compete with the ``--jobs`` pool.

Every run of the workload counts as attempted; it fails when its exit code is
not 0, a check in ``workloads.py`` fails, or its bytes differ from the first
run of the same config (the determinism check).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is first imported

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from tracer import Tracer, dplens_targets, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check, config_for, read_outputs  # noqa: E402

COLD_PROCESSES = 4  # set-up samples per run
RSS_PROCESSES = 2  # of those, the ones that also run the workload
IMPORT_PROCESSES = 3  # import-time samples per traced run
CHILD_TIMEOUT_S = 100
JOBS = min(2, os.cpu_count() or 1)
REFERENCE_S = 0.05  # about the reference kernel's time on the baseline machine


class Gauge:
    """Scales repetition times to reference machine speed (see the module docstring)."""

    def __init__(self) -> None:
        self.last = reference_kernel()

    def scaled(self, seconds: float) -> float:
        """``seconds`` of a sample that just ended, at reference speed."""
        before, self.last = self.last, reference_kernel()
        return seconds * 2.0 * REFERENCE_S / (before + self.last)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small matmuls, ufuncs and interpreted
    loops, the kinds of work the workloads do; a gauge of machine speed."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((256, 16)), rng.standard_normal((16, 64))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(500):
        hidden = np.tanh(x @ y)
        acc += float(np.einsum("mh,mi->mhi", hidden[:, :8], x[:, :8]).sum())
        acc += sum(range(200))
    return time.perf_counter() - start


def _digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, text in outputs.items():
        h.update(f"{name}\0{text}\0".encode())
    return h.hexdigest()


def cold_process(workload: Workload, config: Path, outdir: Path | None) -> tuple[float, dict]:
    """Spawn a fresh interpreter; returns (set-up seconds, its JSON report)."""
    args = [sys.executable, str(BENCH / "child.py"), workload.command, str(config)]
    if outdir is not None:
        args += [str(outdir), str(JOBS)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = config.with_suffix(".stderr")
    with open(log, "w") as err:
        start = time.perf_counter()
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, text=True,
                              env=env, cwd=ROOT) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline()
                setup = time.perf_counter() - start
                lines = proc.stdout.read().splitlines()
            finally:
                watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        tail = log.read_text(errors="replace").strip()[-2000:]
        raise RuntimeError(f"cold process failed ({proc.returncode}): {tail}")
    return setup, json.loads(lines[-1])


def run_in_process(cli, workload: Workload, config: Path, outdir: Path, jobs: int):
    """One ``run_subcommand`` call; returns (exit code, wall seconds)."""
    argv = [workload.command, "--config", str(config), "--out", str(outdir),
            "--jobs", str(jobs)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            rc = cli.run_subcommand(argv)
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc()
            rc = "uncaught exception"
        return rc, time.perf_counter() - start


class Run:
    """One benchmark run: its workload, seed, work directory and tally of
    attempted and failed workload runs."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0

    def config(self, rep: int) -> tuple[dict, Path]:
        cfg = config_for(self.workload, self.seed, rep)
        path = self.work / f"rep{rep}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return cfg, path

    def outdir(self, tag: str) -> Path:
        path = self.work / tag
        path.mkdir()
        return path

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def judge(self, what: str, cfg: dict, rc, outdir: Path,
              reference: str | None = None) -> str:
        """Check one workload run's outputs and record it; returns their digest."""
        outputs = read_outputs(outdir)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            problems += check(self.workload, cfg, outputs)
        digest = _digest(outputs)
        if reference is not None and digest != reference:
            problems.append("output bytes differ from the first run of the same config")
        self.record(what, problems)
        shutil.rmtree(outdir, ignore_errors=True)
        return digest


def end_to_end(run: Run, cli, seconds: float) -> dict[str, tuple[float, str]]:
    w = run.workload
    cfg, path = run.config(0)
    out = run.outdir("warmup")
    rc, _ = run_in_process(cli, w, path, out, JOBS)
    reference = run.judge("warm-up", cfg, rc, out)

    setups, peaks = [], []
    for i in range(COLD_PROCESSES):
        out = run.outdir(f"cold{i}") if i < RSS_PROCESSES else None
        try:
            setup, report = cold_process(w, path, out)
        except RuntimeError as exc:
            run.record(f"cold process {i}", [str(exc)])
            continue
        setups.append(setup)
        if out is not None:
            run.judge(f"cold process {i}", cfg, report["rc"], out, reference)
            peaks.append(report["maxrss_kib"] / 1024.0)

    rates, raw_rates = [], []
    gauge = Gauge()
    deadline = time.perf_counter() + seconds
    rep = 1
    while rep == 1 or time.perf_counter() < deadline:
        cfg, path = run.config(rep)
        out = run.outdir(f"rep{rep}")
        rc, elapsed = run_in_process(cli, w, path, out, JOBS)
        raw_rates.append(w.items(cfg) / elapsed)
        rates.append(w.items(cfg) / gauge.scaled(elapsed))
        run.judge(f"repetition {rep}", cfg, rc, out)
        rep += 1
    print(f"{w.name}: {len(rates)} timed repetitions; raw median "
          f"{statistics.median(raw_rates):.6g} items/s", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (statistics.median(rates), "items/s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }


def traced(run: Run, cli, seconds: float) -> dict[str, tuple[float, str]]:
    w = run.workload
    cfg, path = run.config(0)
    imports = [cold_process(w, path, None)[1]["import_s"] for _ in range(IMPORT_PROCESSES)]
    out = run.outdir("warmup")
    rc, _ = run_in_process(cli, w, path, out, JOBS)
    run.judge("warm-up", cfg, rc, out)

    tracer = Tracer()
    targets = dplens_targets()
    speedups, overheads = [], []
    deadline = time.perf_counter() + seconds
    rep = 1
    while rep == 1 or time.perf_counter() < deadline:
        cfg, path = run.config(rep)
        out = run.outdir(f"rep{rep}-jobs{JOBS}")
        rc, t_jobs = run_in_process(cli, w, path, out, JOBS)
        reference = run.judge(f"repetition {rep}", cfg, rc, out)
        out = run.outdir(f"rep{rep}-jobs1")
        rc, t_serial = run_in_process(cli, w, path, out, 1)
        run.judge(f"repetition {rep} at --jobs 1", cfg, rc, out, reference)
        out = run.outdir(f"rep{rep}-traced")
        with tracer.install(targets):
            rc, t_traced = run_in_process(cli, w, path, out, 1)
        run.judge(f"repetition {rep} traced", cfg, rc, out, reference)
        speedups.append(t_serial / t_jobs)
        overheads.append(t_traced / t_serial - 1.0)
        rep += 1
    print(f"{w.name}: {rep - 1} traced repetitions", file=sys.stderr)
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.jobs_speedup": (statistics.median(speedups), "ratio"),
        "trace.overhead_frac": (statistics.median(overheads), "ratio"),
    }
    metrics.update(layer_metrics(tracer, runs=rep - 1))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dplens" / "cli.py").is_file():
        print(f"no dplens sources under {SRC}; run from a dplens checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dplens.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"dplens was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        measure = traced if args.trace else end_to_end
        metrics = measure(run, cli, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{args.workload}: failed_frac {run.failed / max(run.attempted, 1):.4g} "
          f"({run.failed} of {run.attempted} runs)", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
