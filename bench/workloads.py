"""The four benchmark workloads: generated configs, item counts and output checks.

Each workload is one ``dplens`` subcommand on a config the benchmark writes.
A config is a pure function of (workload seed, repetition index): every
repetition of a run gets fresh run seeds (and, for ``dp_train_mlp``, a fresh
privacy target), so a cache keyed on the inputs cannot turn repeated work into
free work, while the same seed always reproduces the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# |z| of a Monte-Carlo cell against the closed form.  Per-sample norms stay
# below the clip threshold, so the closed form is exact and z is N(0, 1) up to
# sampling; 6 leaves room for the thousands of cells a campaign evaluates.
ORACLE_Z_BOUND = 6.0

_MLP = {"kind": "tinymlp", "n_in": 16, "hidden": 64, "n_out": 4, "noise_std": 0.05}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[random.Random], dict]
    items: Callable[[dict], int]
    check: Callable[[dict, dict[str, str]], list[str]]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# --------------------------------------------------------------------------
# output parsing
# --------------------------------------------------------------------------


def _rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _single(outputs: dict[str, str], name: str) -> list[dict[str, str]]:
    if name not in outputs:
        raise KeyError(f"missing output {name}; got {sorted(outputs)}")
    return _rows(outputs[name])


def _finite(value: str) -> bool:
    return value != "" and math.isfinite(float(value))


# --------------------------------------------------------------------------
# dp_train_mlp: private training steps, no curvature probes
# --------------------------------------------------------------------------


def _dp_train_config(rng: random.Random) -> dict:
    n = rng.randrange(50_000, 100_000)
    return {
        "schema": 1,
        "task": {**_MLP, "teacher_seed": _seed(rng)},
        "optimizer": {"kind": "adam", "eta": 0.01},
        "clipping": {"kind": "reparam", "r": 1.0},
        "mode": "dp",
        "privacy": {"epsilon": 8.0, "delta": 1e-5, "n": n, "sample_budget": 10 * n},
        "steps": 200,
        "batch_size": 256,
        "hessian_probes": 0,
        "seeds": [_seed(rng)],
    }


def _check_dp_train(cfg: dict, outputs: dict[str, str]) -> list[str]:
    rows = _single(outputs, "train.csv")
    if len(rows) != cfg["steps"]:
        return [f"run aborted after {len(rows)} of {cfg['steps']} steps"]
    if not all(_finite(r["train_loss"]) for r in rows):
        return ["non-finite train loss"]
    first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
    if not last < first:
        return [f"final train loss {last} is not below the first {first}"]
    return []


# --------------------------------------------------------------------------
# curvature_mlp: public-then-private training with a snapshot every step
# --------------------------------------------------------------------------


def _curvature_config(rng: random.Random) -> dict:
    epochs, steps_per_epoch = 2, 10
    return {
        "schema": 1,
        "task_public": {**_MLP, "teacher_seed": _seed(rng)},
        "optimizer": {"kind": "adam", "eta": 0.01},
        "clipping": {"kind": "auto"},
        "sigma": 1.0,
        "epochs": epochs,
        "steps_per_epoch": steps_per_epoch,
        "batch_size": 64,
        "schedule": {"kind": "indicator", "s": 0.5, "total": epochs * steps_per_epoch},
        "hessian_probes": 16,
        "seeds": [_seed(rng)],
    }


def _check_curvature(cfg: dict, outputs: dict[str, str]) -> list[str]:
    rows = _single(outputs, "continual.csv")
    total = cfg["epochs"] * cfg["steps_per_epoch"]
    if len(rows) != total:
        return [f"run aborted after {len(rows)} of {total} steps"]
    if not all(_finite(r.get("tr_H", "")) for r in rows):
        return ["a record carries no Hessian stats"]
    phases = [r["phase"] for r in rows]
    # audit_phase_order(): never back from private to public, and the
    # indicator schedule must actually have switched
    switch = phases.index("private") if "private" in phases else len(phases)
    if switch in (0, len(phases)) or "public" in phases[switch:]:
        return [f"phase order violated: {phases}"]
    return []


# --------------------------------------------------------------------------
# oracle_quad: batched Monte-Carlo improvement oracle on a quadratic
# --------------------------------------------------------------------------


def _oracle_config(rng: random.Random) -> dict:
    return {
        "schema": 1,
        "task": {"kind": "quadratic", "dimension": 64, "covariance_scale": 0.001},
        "clipping": {"kind": "reparam", "r": 1.0},
        "offset_scale": 0.3,
        "eta_grid": [0.05, 0.2],
        "batch_grid": [16, 256],
        "sigma_grid": [0.0, 0.5],
        "trials": 250,
        "seeds": [_seed(rng)],
    }


def _oracle_items(cfg: dict) -> int:
    cells = len(cfg["eta_grid"]) * len(cfg["batch_grid"]) * len(cfg["sigma_grid"])
    return cells * cfg["trials"]


def _check_oracle(cfg: dict, outputs: dict[str, str]) -> list[str]:
    rows = _single(outputs, "oracle.csv")
    cells = _oracle_items(cfg) // cfg["trials"]
    if len(rows) != cells:
        return [f"{len(rows)} oracle cells, expected {cells}"]
    bad = [r for r in rows if not (_finite(r["z_score"])
                                   and abs(float(r["z_score"])) <= ORACLE_Z_BOUND)]
    return [f"|z| above {ORACLE_Z_BOUND} in cell {r}" for r in bad]


# --------------------------------------------------------------------------
# mia_audit: membership-inference audit, several seeds on the --jobs pool
# --------------------------------------------------------------------------


def _mia_config(rng: random.Random) -> dict:
    return {
        "schema": 1,
        "n_members": 200,
        "n_nonmembers": 1000,
        "dim": 32,
        "epochs": 400,
        "lr": 0.5,
        "epsilon": 8.0,
        "delta": 1e-3,
        "split_fraction": 0.1,
        "seeds": rng.sample(range(2**31), 4),
    }


def _check_mia(cfg: dict, outputs: dict[str, str]) -> list[str]:
    problems = []
    for seed in cfg["seeds"]:
        rows = _single(outputs, f"mia_seed{seed}.csv")
        if [r["model_id"] for r in rows] != ["nondp", "dp"]:
            problems.append(f"seed {seed}: expected rows nondp, dp")
        elif not all(_finite(r["auc"]) and 0.0 <= float(r["auc"]) <= 1.0 for r in rows):
            problems.append(f"seed {seed}: AUC outside [0, 1]")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dp_train_mlp", "train", _dp_train_config,
                 lambda cfg: cfg["steps"], _check_dp_train),
        Workload("curvature_mlp", "continual", _curvature_config,
                 lambda cfg: cfg["epochs"] * cfg["steps_per_epoch"], _check_curvature),
        Workload("oracle_quad", "oracle", _oracle_config, _oracle_items, _check_oracle),
        Workload("mia_audit", "mia", _mia_config,
                 lambda cfg: 2 * len(cfg["seeds"]), _check_mia),
    )
}


def config_for(workload: Workload, seed: int, rep: int) -> dict:
    """The config of repetition ``rep`` of a run with workload seed ``seed``."""
    return workload.make_config(random.Random(f"{workload.name}:{seed}:{rep}"))


def read_outputs(outdir: Path) -> dict[str, str]:
    """Every CSV a run wrote, by file name."""
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(outdir.glob("*.csv"))}


def check(workload: Workload, cfg: dict, outputs: dict[str, str]) -> list[str]:
    """Correctness problems of one run's outputs; empty when it passed."""
    try:
        return workload.check(cfg, outputs)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
