"""SHA-256 of every file each shipped and benchmark config writes.

Runs every ``configs/*.json``, two of them again with a ``plot`` of their
training table added, and, for each workload in ``bench/workloads.py``, the
configs of workload seed 1, repetitions 0 to 2, through
``dplens.cli.run_subcommand``, each into its own temporary directory.  Prints
one ``<config>/<file> <sha256>`` line per output file.  BLAS runs on one
thread, as in ``bench/run.py``, so the bytes do not depend on the thread count.

``scripts/config_digests.txt`` holds the committed output; this checks that
no output byte moved (no diff output, exit 0):

    python3 scripts/config_digests.py | diff scripts/config_digests.txt -

A change that moves output bytes on purpose commits the new output with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from dplens.cli import run_subcommand  # noqa: E402
from test_cli import SHIPPED_CONFIGS  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402

# plots of training tables: most continual rows have empty val_loss and tr_H
# cells, and the fourway table holds five seeds on a log y axis
PLOTS = {
    "continual_demo.json": {"columns": ["iter", "val_loss", "tr_H"]},
    "fourway_mlp.json": {"columns": ["iter", "train_loss"], "y_scale": "log"},
}
BENCH_SEED = 1
BENCH_REPS = range(3)


def _runs(scratch: Path):
    """(label, subcommand, config path) of every config to digest."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"configs/{path.name}", SHIPPED_CONFIGS[path.name], path
    for name, plot in sorted(PLOTS.items()):
        path = scratch / f"plot-{name}"
        cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
        path.write_text(json.dumps({**cfg, "plot": plot}), encoding="utf-8")
        yield f"configs/{name}+plot", SHIPPED_CONFIGS[name], path
    for name, workload in sorted(WORKLOADS.items()):
        for rep in BENCH_REPS:
            label = f"bench/{name}-{BENCH_SEED}-{rep}"
            path = scratch / f"{name}-{rep}.json"
            path.write_text(json.dumps(config_for(workload, BENCH_SEED, rep)), encoding="utf-8")
            yield label, workload.command, path


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for label, command, config in _runs(scratch):
            outdir = scratch / label.replace("/", "_")
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_subcommand([command, "--config", str(config), "--out", str(outdir)])
            if code != 0:
                print(f"{label} exit {code}")
                failed += 1
                continue
            for out in sorted(p for p in outdir.rglob("*") if p.is_file()):
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{label}/{out.relative_to(outdir)} {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
