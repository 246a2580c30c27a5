"""SHA-256 of every file each shipped and benchmark config writes.

Runs every ``configs/*.json``, three of them again with some keys replaced
or dropped (``VARIANTS``), and, for each workload in ``bench/workloads.py``,
the configs of workload seed 1, repetitions 0 to 2, through
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

# (config, label suffix) -> the keys that replace the config's; a None value
# drops the key.  Plots of training tables: most continual rows have empty
# val_loss and tr_H cells, a log y axis leaves out the continual sigma's
# zeros on the public steps, a public-only run leaves a log sigma axis no
# point, so each of its seeds writes a CSV and no SVG, and the fourway
# table holds five seeds on a log y axis.  The oracle on a
# general diagonal quadratic: with A no power of two times I and a nonzero
# mean, a change in how a per-sample gradient rounds moves a byte, which it
# does not on oracle_small's A = 0.5 I and zero mean
VARIANTS = {
    ("continual_demo.json", "logplot"): {
        "plot": {"columns": ["iter", "train_loss", "sigma"], "y_scale": "log"}},
    ("continual_demo.json", "nopoints"): {
        "schedule": {"kind": "only_public"}, "privacy": None, "clipping": None,
        "patience": None, "seeds": [0, 1],
        "plot": {"columns": ["iter", "sigma"], "y_scale": "log"}},
    ("continual_demo.json", "plot"): {"plot": {"columns": ["iter", "val_loss", "tr_H"]}},
    ("fourway_mlp.json", "plot"): {
        "plot": {"columns": ["iter", "train_loss"], "y_scale": "log"}},
    ("oracle_small.json", "general"): {"task": {
        "kind": "quadratic", "dimension": 8,
        "hessian_diag": [0.3, 0.45, 0.6, 0.75, 0.9, 1.1, 1.3, 1.7],
        "covariance_scale": 0.001,
        "x_mean": [0.5, -1.0, 0.25, 2.0, -0.75, 1.5, 0.1, -2.5]}},
}
BENCH_SEED = 1
BENCH_REPS = range(3)


def _runs(scratch: Path):
    """(label, subcommand, config path) of every config to digest."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"configs/{path.name}", SHIPPED_CONFIGS[path.name], path
    for (name, suffix), keys in sorted(VARIANTS.items()):
        path = scratch / f"{suffix}-{name}"
        cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
        cfg = {key: value for key, value in {**cfg, **keys}.items() if value is not None}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        yield f"configs/{name}+{suffix}", SHIPPED_CONFIGS[name], path
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
