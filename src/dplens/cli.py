"""Experiment driver: JSON configs in, CSV tables and SVG line plots out.

Every subcommand is a pure function of (config, seed): its runner in
``_RUNNERS`` takes the config and one seed and returns a :class:`Table`, the
columns, rows and abort reason of its output, and touches no file.  Rerunning
with the same inputs reproduces the table.  The columns are a tuple of names
that :func:`table_columns` gives from the subcommand and config alone, so a
``plot`` column the table lacks is a config error before the first seed runs.
A ``None`` cell is an empty cell.  Only :func:`run_subcommand` writes files:
per seed it names the CSV (``_seed_name``), writes it with the standard
library's ``csv`` writer (``_write_csv``), which quotes a cell holding a
comma, a double quote or a newline, and, when the config asks for a ``plot``,
draws the SVG from the same in-memory table (:func:`emit_svg_lineplot`).
A multi-seed run shares its seeds among forked workers, one per usable core
(``trainer.usable_cores``; ``taskset -c 0`` gives one), and writes their
files in seed order, as a serial loop would (:func:`_seed_tables`).
``--jobs`` stays accepted and ignored until ROADMAP item 1 deletes it.
Exit codes: 0 success; 1 config error, or an ``OSError`` while making the
``--out`` directory or writing a CSV or SVG, reported on one line that
names the path; 2 numerical error, including a training run aborted on a
non-finite loss or curvature statistic, whose partial CSV is kept and gets
no plot.

Each config block goes straight to its constructor as keyword arguments, and
a run option the config leaves out is left out of the call, so each default
is written once, in the signature of the function that receives it.  A key
that the run would not read is a config error, not a silent no-op.

:func:`load_config` checks a config before any seed runs, against
``CONFIG_SCHEMAS``, plain JSON Schema, then against ``_BLOCK_KEYS``, the
keys that each kind of task, optimizer, clipping or schedule block reads,
and then against the rules that tie keys together (:func:`_rule_message`).
It is the one place that checks a rule reading the config alone, and the
only raiser of :class:`ConfigError`: the runners only build and run.  The
schemas' validator (:func:`validation_message`) reports the error that
jsonschema's ``best_match`` would, with an integer type that admits only a
Python int, but needs no jsonschema: a run imports numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import attacks, clipping, predictor, privacy, trainer
from .model import LogisticTask, QuadraticTask, TinyMlpTask, population_stats

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or out of contract."""


# --------------------------------------------------------------------------
# config schemas
# --------------------------------------------------------------------------

_NUM = {"type": "number"}
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_NUM_GRID = {"type": "array", "items": _NUM, "minItems": 1}
_POS_NUM_GRID = {"type": "array", "items": _POS_NUM, "minItems": 1}
_INT_GRID = {"type": "array", "items": _POS_INT, "minItems": 1}

# what each kind of each config block reads besides "kind": (the keys it
# needs, the keys it may take); the block's schema takes every key some kind reads
_BLOCK_KEYS = {
    "task": {
        "quadratic": (("dimension",), ("hessian_diag", "hessian_scale", "covariance_diag",
                                       "covariance_scale", "x_mean")),
        "logistic": (("dimension", "n_examples"), ("separation",)),
        "tinymlp": (("n_in", "hidden", "n_out"), ("teacher_seed", "noise_std", "target_scale")),
    },
    "optimizer": {"sgd": ((), ("eta",)),
                  "adam": ((), ("eta", "beta1", "beta2", "epsilon_stabilizer"))},
    "clipping": {"auto": ((), ()), "reparam": ((), ("r",)), "none": ((), ())},
    # the two-phase loop runs only the binary schedules
    "schedule": {"indicator": (("s", "total"), ()), "only_public": ((), ()),
                 "only_private": ((), ())},
}
# the config keys that hold a block, and the block each holds
_BLOCK_OF = {"task": "task", "task_public": "task", "task_private": "task",
             "optimizer": "optimizer", "clipping": "clipping", "schedule": "schedule"}

_TASK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_BLOCK_KEYS["task"])},
        "dimension": _POS_INT,
        "hessian_diag": _NUM_GRID,
        "hessian_scale": _NUM,
        "covariance_diag": _NUM_GRID,
        "covariance_scale": _NUM,
        "x_mean": _NUM_GRID,
        "n_examples": _POS_INT,
        "separation": _NUM,
        "n_in": _POS_INT,
        "hidden": _POS_INT,
        "n_out": _POS_INT,
        "teacher_seed": {"type": "integer"},
        "noise_std": _NUM,
        "target_scale": _NUM,
    },
}

_OPTIMIZER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(_BLOCK_KEYS["optimizer"])},
        "eta": _NUM,
        "beta1": _NUM,
        "beta2": _NUM,
        "epsilon_stabilizer": _NUM,
    },
}

_CLIPPING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_BLOCK_KEYS["clipping"])},
        "r": _NUM,
    },
}

_PRIVACY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["epsilon", "delta", "n", "sample_budget"],
    "properties": {
        "epsilon": _NUM,
        "delta": _NUM,
        "n": _POS_INT,
        "sample_budget": _POS_INT,
    },
}

_INPUTS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["g_norm_sq", "g_h_g", "tr_h", "tr_h_sigma", "sigma"],
    "properties": {
        "g_norm_sq": _NUM,
        "g_h_g": _NUM,
        "tr_h": _NUM,
        "tr_h_sigma": _NUM,
        "sigma": _NUM,
        "c": _NUM,
    },
}

_PLOT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["columns"],
    "properties": {
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 2},
        "x_scale": {"enum": ["linear", "log"]},
        "y_scale": {"enum": ["linear", "log"]},
    },
}

_SCHEDULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_BLOCK_KEYS["schedule"])},
        "s": _NUM,
        "total": _POS_INT,
    },
}

_SEEDED = {
    "schema": {"const": SCHEMA_VERSION},
    "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
}
# every subcommand but mia writes a numeric table that can be plotted
_COMMON = {**_SEEDED, "plot": _PLOT_SCHEMA}

CONFIG_SCHEMAS = {
    "calibrate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "n", "epsilon", "delta", "sample_budget", "batch_grid"],
        "properties": {
            **_COMMON,
            "n": _POS_INT,
            "epsilon": _NUM,
            "delta": _NUM,
            "sample_budget": _POS_INT,
            "batch_grid": _INT_GRID,
        },
    },
    "sweep-batch": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "cases", "batch_grid"],
        "properties": {
            **_COMMON,
            "cases": {
                "type": "object",
                "minProperties": 1,
                "additionalProperties": _INPUTS_SCHEMA,
            },
            "batch_grid": _POS_NUM_GRID,
            "b_public": _POS_NUM,
            "b_private": _POS_NUM,
        },
    },
    "oracle": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "eta_grid", "batch_grid", "sigma_grid", "trials"],
        "properties": {
            **_COMMON,
            # the oracle's closed-form population loss needs a quadratic task
            "task": {**_TASK_SCHEMA, "properties": {**_TASK_SCHEMA["properties"],
                                                    "kind": {"enum": ["quadratic"]}}},
            "clipping": _CLIPPING_SCHEMA,
            "eta_grid": _POS_NUM_GRID,
            "batch_grid": _INT_GRID,
            "sigma_grid": {"type": "array", "items": {"type": "number", "minimum": 0},
                           "minItems": 1},
            "trials": _POS_INT,
            "offset_scale": _NUM,
        },
    },
    "train": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "optimizer", "steps", "batch_size", "mode"],
        "properties": {
            **_COMMON,
            "task": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "mode": {"enum": ["public", "dp"]},
            "sigma": _NUM,
            "privacy": _PRIVACY_SCHEMA,
            "steps": _POS_INT,
            "batch_size": _POS_INT,
            "hessian_probes": {"type": "integer", "minimum": 0},
        },
    },
    "continual": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task_public", "optimizer", "epochs", "steps_per_epoch",
                     "batch_size"],
        "properties": {
            **_COMMON,
            "task_public": _TASK_SCHEMA,
            "task_private": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "sigma": _NUM,
            "privacy": _PRIVACY_SCHEMA,
            "epochs": _POS_INT,
            "steps_per_epoch": _POS_INT,
            "batch_size": _POS_INT,
            "patience": _POS_INT,
            "schedule": _SCHEDULE_SCHEMA,
            "val_size": _POS_INT,
            "hessian_probes": {"type": "integer", "minimum": 0},
        },
    },
    "fourway": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "optimizer", "sigma", "steps", "batch_size"],
        "properties": {
            **_COMMON,
            "task": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "sigma": _NUM,
            "steps": _POS_INT,
            "batch_size": _POS_INT,
            "eval_size": _POS_INT,
        },
    },
    "mia": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "n_members", "n_nonmembers", "dim", "epochs", "lr",
                     "epsilon", "delta"],
        "properties": {
            **_SEEDED,
            "n_members": _POS_INT,
            "n_nonmembers": _POS_INT,
            "dim": _POS_INT,
            "separation": _NUM,
            "label_flip": _NUM,
            "epochs": _POS_INT,
            "lr": _NUM,
            "epsilon": _NUM,
            "delta": _NUM,
            "split_fraction": _NUM,
            "member_train_fraction": _NUM,
        },
    },
}


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------

# JSON Schema's "integer" admits 5.0; the runners pass integer fields on to
# range() and array shapes, so only a Python int (not a bool) is one here
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _is_type(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and (name == "boolean" or not isinstance(value, bool))


def _equal(a, b) -> bool:
    """JSON equality, as ``enum`` and ``const`` use it: True is not 1, False is not 0."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield ``(rank, message)`` for each way ``value`` breaks ``schema``.

    Implements the JSON Schema keywords that ``CONFIG_SCHEMAS`` uses, and no
    other: ``type``, ``enum``, ``const``, ``minimum``, ``exclusiveMinimum``,
    ``minItems``, ``minProperties``, ``required``, ``properties``,
    ``additionalProperties`` and ``items``; any other raises
    NotImplementedError.  Errors come in schema-keyword order with
    jsonschema's messages.  No keyword applies two schemas at one path, so
    ``rank``, (-depth, instance path), orders them as the key of
    ``jsonschema.exceptions.relevance`` does, and the first error of maximal
    rank is the one ``jsonschema.exceptions.best_match`` picks.
    """
    rank = (-len(path), path)
    for keyword, arg in schema.items():
        message = None
        if keyword == "type":
            if not _is_type(value, arg):
                message = f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if not any(_equal(each, value) for each in arg):
                message = f"{value!r} is not one of {arg!r}"
        elif keyword == "const":
            if not _equal(value, arg):
                message = f"{arg!r} was expected"
        elif keyword == "minimum":
            if _is_type(value, "number") and value < arg:
                message = f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if _is_type(value, "number") and value <= arg:
                message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                message = f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif keyword == "minProperties":
            if isinstance(value, dict) and len(value) < arg:
                message = f"{value!r} " + (
                    "should be non-empty" if arg == 1 else "does not have enough properties"
                )
        elif keyword == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield rank, f"{name!r} is a required property"
        elif keyword == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, path + (name,))
        elif keyword == "additionalProperties":
            if isinstance(value, dict):
                extras = [name for name in value if name not in schema.get("properties", {})]
                if isinstance(arg, dict):
                    for name in extras:
                        yield from _schema_errors(value[name], arg, path + (name,))
                elif arg is False and extras:
                    names = ", ".join(repr(name) for name in sorted(extras))
                    verb = "was" if len(extras) == 1 else "were"
                    message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (index,))
        else:
            raise NotImplementedError(f"config schemas may not use the keyword {keyword!r}")
        if message is not None:
            yield rank, message


def validation_message(value, schema: dict) -> str | None:
    """The message of the error ``jsonschema.exceptions.best_match`` picks
    when ``value`` breaks ``schema``, or None when it satisfies it."""
    error = max(_schema_errors(value, schema), key=lambda e: e[0], default=None)
    return None if error is None else error[1]


def _quadratic_message(block: dict) -> str | None:
    """What is wrong with the values of a quadratic task block, or None: a
    ``<name>_scale`` beside its ``<name>_diag`` would go unread, a diagonal
    or ``x_mean`` has ``dimension`` entries, and a diagonal or scale is
    finite and nonnegative."""
    d = block["dimension"]
    for name in ("hessian", "covariance"):
        diag, scale = f"{name}_diag", f"{name}_scale"
        if diag in block and scale in block:
            return f"quadratic task does not read {scale} beside {diag}"
        if diag in block and len(block[diag]) != d:
            return f"{diag} length must match dimension"
        values = block[diag] if diag in block else [block[scale]] if scale in block else []
        # NaN fails both comparisons
        if not all(0.0 <= value < math.inf for value in values):
            return f"{diag if diag in block else scale} must be finite and nonnegative"
    if "x_mean" in block and len(block["x_mean"]) != d:
        return "x_mean length must match dimension"
    return None


def _block_message(cfg: dict) -> str | None:
    """What is wrong with the first block of ``cfg`` whose kind needs a key
    it lacks or does not read a key it holds, or whose quadratic task breaks
    :func:`_quadratic_message`, or None."""
    for name, block in _BLOCK_OF.items():
        if name in cfg:
            # only an optimizer block may leave its kind out
            kind = cfg[name].get("kind", trainer.OptimizerConfig.kind)
            required, optional = _BLOCK_KEYS[block][kind]
            missing = [key for key in required if key not in cfg[name]]
            unread = sorted(set(cfg[name]) - {"kind", *required, *optional})
            for verb, keys in (("needs", missing), ("does not read", unread)):
                if keys:
                    return f"{kind} {block} {verb} {', '.join(keys)}"
            if kind == "quadratic" and (message := _quadratic_message(cfg[name])):
                return message
    return None


def _refusal(constructor, *args, **kwargs) -> str | None:
    """The message of the ValueError that ``constructor(*args, **kwargs)``
    raises, or None, so that a constructor's own value rule is checked at load."""
    try:
        constructor(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


def _one_phase(cfg: dict) -> dict:
    """The ``continual`` config that a ``train`` config runs as: one epoch of
    ``steps`` steps on ``task``, under the one-sided schedule of its mode."""
    return {**cfg, "task_public": cfg["task"], "epochs": 1, "steps_per_epoch": cfg["steps"],
            "schedule": {"kind": "only_public" if cfg["mode"] == "public" else "only_private"}}


# the keys a schedule of each kind leaves unread: a schedule fixes the
# switch, so no early-stopping policy is read, and only_public takes no
# private step, so it reads neither the private task nor the noise and
# clipping of one
_UNREAD_BESIDE_SCHEDULE = {
    "indicator": ("patience",),
    "only_private": ("patience",),
    "only_public": ("patience", "task_private", "sigma", "privacy", "clipping"),
}


def _rule_message(cfg: dict, command: str) -> str | None:
    """What breaks the first rule that ties keys of a ``command`` config
    together, or None.

    A positive ``hessian_probes`` turns on a curvature snapshot per step,
    whose tr(H Sigma) estimate needs two or more gradients.  A ``plot``
    names columns of the table.  No ``sweep-batch`` case name holds a
    carriage return, which Python 3.11's csv writer leaves bare under a
    newline line terminator, so that a reader ends the row there.  Each
    ``calibrate`` batch is at most n, and a ``mia`` delta lies below
    1/n_members, beside each budget's own rules.  A ``train`` config is
    checked as the ``continual`` config it runs as (:func:`_one_phase`): a
    schedule leaves its ``_UNREAD_BESIDE_SCHEDULE`` keys unread, and an
    indicator spans the run.  A run with private steps gives ``sigma`` or a
    ``privacy`` block, not both.  The block calibrates sigma for T =
    ceil(sample_budget / batch_size) steps of batch_size out of n samples,
    so it needs clipping, which bounds the sensitivity, batch_size <= n, a
    valid budget, and a run that can take no more than T private steps:
    those from ceil(s total) on under an indicator, else all, since the
    switch may fire at once.
    """
    if cfg.get("hessian_probes") and cfg["batch_size"] == 1:
        return "hessian_probes needs batch_size of at least 2"
    columns = table_columns(command, cfg)
    missing = [name for name in cfg.get("plot", {}).get("columns", ()) if name not in columns]
    if missing:
        return (f"plot names {', '.join(map(repr, missing))}, not in the "
                f"{command} table's columns {', '.join(columns)}")
    if command == "sweep-batch":
        return next((f"sweep-batch case name {name!r} holds a carriage return"
                     for name in cfg["cases"] if "\r" in name), None)
    if command == "calibrate":
        too_large = [b for b in cfg["batch_grid"] if b > cfg["n"]]
        if too_large:
            return f"batch_grid entry {too_large[0]} exceeds n {cfg['n']}"
        return _refusal(privacy.PrivacyBudget, cfg["epsilon"], cfg["delta"])
    if command == "mia":
        return _refusal(privacy.PrivacyBudget, cfg["epsilon"], cfg["delta"], cfg["n_members"])
    if command not in ("train", "continual"):
        return None
    cfg = _one_phase(cfg) if command == "train" else cfg
    schedule = cfg.get("schedule", {})
    kind = schedule.get("kind")
    unread = sorted(key for key in _UNREAD_BESIDE_SCHEDULE.get(kind, ()) if key in cfg)
    if unread:
        return f"the {kind} schedule leaves {', '.join(unread)} unread"
    steps = cfg["epochs"] * cfg["steps_per_epoch"]
    if kind == "indicator":
        if message := _refusal(predictor.AlphaSchedule, **schedule):
            return message
        if schedule["total"] != steps:
            return f"indicator schedule spans {schedule['total']} steps, but the run takes {steps}"
        steps -= math.ceil(schedule["s"] * steps)
    if kind == "only_public":
        return None
    if "sigma" in cfg and "privacy" in cfg:
        return "give sigma or a privacy block, not both"
    if "sigma" in cfg:
        return None
    if "privacy" not in cfg:
        return "need either an explicit sigma or a privacy block"
    p, b = cfg["privacy"], cfg["batch_size"]
    if cfg.get("clipping", {}).get("kind") == "none":
        return "a privacy block needs clipping, and the clipping kind is none"
    if b > p["n"]:
        return f"batch_size {b} exceeds the privacy block's n {p['n']}"
    horizon = math.ceil(p["sample_budget"] / b)
    if steps > horizon:
        return (f"the run can take {steps} private steps, but the privacy block "
                f"calibrates sigma for {horizon} (sample_budget / batch_size)")
    # n parameterises the mechanism here, not the budget annotation, so
    # benchmark settings with delta == 1/n remain expressible
    return _refusal(privacy.PrivacyBudget, p["epsilon"], p["delta"])


def load_config(path: str | Path, command: str) -> dict:
    """Read a JSON config for one subcommand and check every rule that reads
    the config alone: its schema, then ``_BLOCK_KEYS`` and the values of a
    quadratic task (:func:`_block_message`), then the rules that tie its keys
    together (:func:`_rule_message`)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    message = (validation_message(cfg, CONFIG_SCHEMAS[command]) or _block_message(cfg)
               or _rule_message(cfg, command))
    if message is not None:
        raise ConfigError(f"config {path} fails validation: {message}")
    return cfg


def canonical_config(cfg: dict) -> str:
    """Stable serialised form: sorted keys, no whitespace drift."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _quadratic_diagonal(cfg: dict, name: str, d: int) -> np.ndarray:
    """The ``(d,)`` diagonal from ``<name>_diag``, else ``<name>_scale`` (default 1) times I."""
    if f"{name}_diag" in cfg:
        return np.asarray(cfg[f"{name}_diag"], dtype=float)
    return np.full(d, float(cfg.get(f"{name}_scale", 1.0)))


def task_from_config(cfg: dict, rng: np.random.Generator):
    """The task of a block that ``load_config`` has checked."""
    kind = cfg["kind"]
    if kind == "tinymlp":
        return TinyMlpTask(**{key: value for key, value in cfg.items() if key != "kind"})
    d = cfg["dimension"]
    if kind == "logistic":
        features, labels = attacks.two_blob_data(
            cfg["n_examples"], d, rng, **_given(cfg, "separation")
        )
        return LogisticTask(features, labels)
    return QuadraticTask(_quadratic_diagonal(cfg, "hessian", d), cfg.get("x_mean", np.zeros(d)),
                         _quadratic_diagonal(cfg, "covariance", d))


def _given(cfg: dict, *keys: str) -> dict:
    """The ``keys`` that ``cfg`` sets, so the callee's signature owns each default."""
    return {key: cfg[key] for key in keys if key in cfg}


def clipping_from_config(block: dict) -> clipping.ClippingRule | None:
    """``None`` for ``"kind": "none"``, else the block's rule; ``{}`` is the default rule."""
    return None if block.get("kind") == "none" else clipping.ClippingRule(**block)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """One subcommand's output for one seed, before anything is written.

    ``columns`` names the cells of each row, ``rows`` holds the cell values
    (``None`` is an empty cell, and the writer quotes any cell that a CSV
    cannot hold bare), and ``abort_reason`` says why a training or oracle run
    stopped early, or is None for a complete table.
    """

    columns: tuple[str, ...]
    rows: list[list]
    abort_reason: str | None = None


def _write_csv(path: Path, table: Table) -> Path:
    """Write one table; every CSV the subcommands produce goes through here."""
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(table.rows)
    return path


TRAIN_COLUMNS = ("iter", "phase", "alpha", "train_loss", "val_loss", "sigma")
HESSIAN_COLUMNS = ("tr_H", "tr_H_Sigma", "gHg", "g_norm_sq", "decelerator")
_COLUMNS = {
    "calibrate": ("B", "T", "sigma", "mu", "epsilon", "delta"),
    "sweep-batch": ("case", "B", "b_ghg", "tr_h_sigma", "decelerator", "denominator_priv",
                    "denominator_pub", "delta_priv_star", "delta_pub_star", "B_star",
                    "alpha_star"),
    "oracle": ("eta", "B", "sigma", "mc_mean", "mc_se", "closed_form", "z_score"),
    "train": TRAIN_COLUMNS,
    "continual": TRAIN_COLUMNS,
    "fourway": ("arm", *TRAIN_COLUMNS),
    "mia": ("model_id", "epsilon", "accuracy", "precision", "recall", "f1", "auc"),
}


def table_columns(command: str, cfg: dict) -> tuple[str, ...]:
    """The columns of every table ``command``'s runner returns for ``cfg``:
    a positive ``hessian_probes`` adds the curvature columns."""
    return _COLUMNS[command] + (HESSIAN_COLUMNS if cfg.get("hessian_probes") else ())


def _record_row(r: trainer.IterationRecord) -> list:
    return [r.iteration, r.phase, r.alpha, r.train_loss, r.val_loss, r.sigma]


def _run_table(run: trainer.TrainRun, batch_size: int, columns: tuple[str, ...]) -> Table:
    """The per-iteration log of one run under ``columns``, with its abort reason.

    A record with curvature stats gets the Hessian cells; a run records them
    on every step or on none.  The decelerator column is
    :func:`predictor.decelerator` at c = 1, sigma^2 tr(H) / B: the paper's
    form divides by c^2, and no run records c yet.
    """
    rows = [_record_row(r) for r in run.records]
    for row, r in zip(rows, run.records):
        h = r.hessian
        if h is not None:
            decel = 0.0 if r.sigma == 0.0 else predictor.decelerator(
                batch_size, predictor.ImprovementInputs.from_stats(h, r.sigma)
            )
            row += [h.tr_h, h.tr_h_sigma, h.g_h_g, h.g_norm_sq, decel]
    return Table(columns, rows, run.abort_reason)


def _mia_row(model_id: str, epsilon: float, report: attacks.MiaReport) -> list:
    return [model_id, epsilon, report.accuracy, report.precision, report.recall,
            report.f1, report.auc]


# --------------------------------------------------------------------------
# subcommand runners: each a pure function (config, seed) -> Table
# --------------------------------------------------------------------------


def _run_calibrate(cfg: dict, seed: int) -> Table:
    budget = privacy.PrivacyBudget(cfg["epsilon"], cfg["delta"])
    n, s = cfg["n"], cfg["sample_budget"]
    rows = []
    for b in cfg["batch_grid"]:
        sigma = privacy.calibrate_sigma(b, n, s, budget)
        t = math.ceil(s / b)
        mu = privacy.mu_of_noisy_sgd(b, n, t, sigma)
        delta = privacy.mu_to_delta(mu, budget.epsilon)
        rows.append([b, t, sigma, mu, budget.epsilon, delta])
    return Table(table_columns("calibrate", cfg), rows)


def _run_sweep_batch(cfg: dict, seed: int) -> Table:
    """One row per (case, B) pair: the cases in sorted order, each over
    ``batch_grid``.  ``b_public`` and ``b_private`` default to the row's B.
    ``B_star`` is empty when sigma is 0, and ``alpha_star`` when the mixed
    quadratic has no interior maximum."""
    rows = []
    for name in sorted(cfg["cases"]):
        inputs = predictor.ImprovementInputs(**cfg["cases"][name])
        try:
            b_star = predictor.optimal_batch_dp(inputs)
        except predictor.NoInteriorOptimumError:
            b_star = None
        for b in cfg["batch_grid"]:
            try:
                alpha = predictor.optimal_mix_alpha(
                    inputs, cfg.get("b_public", b), cfg.get("b_private", b)
                )
            except predictor.SaddleOrDegenerateError:
                alpha = None
            rows.append(
                [
                    name,
                    b,
                    b * inputs.g_h_g,
                    inputs.tr_h_sigma,
                    predictor.decelerator(b, inputs),
                    predictor.denominator(b, inputs),
                    predictor.denominator_pub(b, inputs),
                    predictor.delta_l_priv_star(b, inputs),
                    predictor.delta_l_pub_star(b, inputs),
                    b_star,
                    alpha,
                ]
            )
    return Table(table_columns("sweep-batch", cfg), rows)


@np.errstate(over="ignore", invalid="ignore")
def _run_oracle(cfg: dict, seed: int) -> Table:
    """One row per (eta, B, sigma) cell, in that order.

    One oracle call per B covers its whole (sigma, eta) grid, so the cells of
    one B share their sample batches and the cells of one (B, sigma) their
    noise: each cell's z-score is N(0, 1) up to sampling, but the z-scores of
    cells with the same B are correlated, most strongly across eta at one
    sigma.  An overflow shows as the first cell, in row order, whose
    mc_mean, mc_se or closed_form is not finite: the table ends before it,
    with ``abort_reason`` set, and no RuntimeWarning is printed."""
    columns = table_columns("oracle", cfg)
    rng = np.random.default_rng(seed)
    task = task_from_config(cfg["task"], rng)
    rule = clipping_from_config(cfg.get("clipping", {}))
    offset = cfg.get("offset_scale", 1.0)
    w = task.x_mean + offset * np.ones(task.dimension) / math.sqrt(task.dimension)
    stats = population_stats(task, w)
    etas, sigmas = cfg["eta_grid"], cfg["sigma_grid"]
    grids = [
        trainer.empirical_improvement_oracle(task, w, etas, b, rule, sigmas, cfg["trials"], rng)
        for b in cfg["batch_grid"]
    ]
    rows = []
    for j, eta in enumerate(etas):
        for b, grid in zip(cfg["batch_grid"], grids):
            for sigma, cells in zip(sigmas, grid):
                inputs = predictor.ImprovementInputs.from_stats(stats, sigma)
                closed = predictor.delta_l_priv(eta, b, inputs)
                mc = cells[j]
                if not all(map(math.isfinite, (mc.estimate, mc.standard_error, closed))):
                    reason = f"non-finite oracle cell at eta={eta}, B={b}, sigma={sigma}"
                    return Table(columns, rows, reason)
                z = (mc.estimate - closed) / mc.standard_error
                rows.append([eta, b, sigma, mc.estimate, mc.standard_error, closed, z])
    return Table(columns, rows)


def _run_train(cfg: dict, seed: int) -> Table:
    """A ``train`` run is the one-phase ``continual`` run :func:`_one_phase` maps it to."""
    return _run_continual(_one_phase(cfg), seed)


def _run_continual(cfg: dict, seed: int) -> Table:
    """The private steps take ``sigma``, or the sigma that the ``privacy``
    block calibrates for T = ceil(sample_budget / batch_size) steps; an
    ``only_public`` run, which gives neither, takes sigma 0."""
    schedule = cfg.get("schedule")
    schedule = None if schedule is None else predictor.AlphaSchedule(**schedule)
    sigma = float(cfg.get("sigma", 0.0))
    if "privacy" in cfg:
        p = cfg["privacy"]
        budget = privacy.PrivacyBudget(p["epsilon"], p["delta"])
        sigma = privacy.calibrate_sigma(cfg["batch_size"], p["n"], p["sample_budget"], budget)
    rng = np.random.default_rng(seed)
    task_pub = task_from_config(cfg["task_public"], rng)
    task_priv = (
        task_from_config(cfg["task_private"], rng) if "task_private" in cfg else task_pub
    )
    run = trainer.continual_pretrain(
        task_pub,
        task_priv,
        trainer.OptimizerConfig(**cfg["optimizer"]),
        trainer.SwitchPolicy(**_given(cfg, "patience")),
        sigma,
        epochs=cfg["epochs"],
        rng=rng,
        batch_size=cfg["batch_size"],
        steps_per_epoch=cfg["steps_per_epoch"],
        rule=clipping_from_config(cfg.get("clipping", {})),
        schedule=schedule,
        curvature=bool(cfg.get("hessian_probes")),
        **_given(cfg, "val_size"),
    )
    return _run_table(run, cfg["batch_size"], table_columns("continual", cfg))


def _run_fourway(cfg: dict, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    task = task_from_config(cfg["task"], rng)
    runs = trainer.four_way_comparison(
        task,
        trainer.OptimizerConfig(**cfg["optimizer"]),
        cfg["sigma"],
        clipping_from_config(cfg.get("clipping", {})),
        cfg["steps"],
        rng,
        batch_size=cfg["batch_size"],
        **_given(cfg, "eval_size"),
    )
    rows = [
        [arm] + _record_row(r) for arm in trainer.FOUR_WAY_ARMS for r in runs[arm].records
    ]
    reasons = (runs[arm].abort_reason for arm in trainer.FOUR_WAY_ARMS)
    return Table(table_columns("fourway", cfg), rows, next(filter(None, reasons), None))


def _fit_target(
    task: attacks.SoftmaxTask, epochs: int, lr: float,
    rule: clipping.ClippingRule | None, sigma: float, rng: np.random.Generator | None,
) -> np.ndarray:
    """``epochs`` full-batch SGD steps from zero.

    A non-finite loss, or non-finite weights after the last step, is a
    FloatingPointError.
    """
    config = trainer.OptimizerConfig(eta=lr)
    w, state = np.zeros(task.dimension), trainer.OptimizerState.zeros(task.dimension)
    b = task.xs.shape[0]  # every batch is the whole set
    for epoch in range(epochs):
        loss, w, state = trainer.dp_step(task, w, None, b, rule, sigma, config, state, rng)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("non-finite target weights after training")
    return w


def _run_mia(cfg: dict, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    n_mem, n_non, dim = cfg["n_members"], cfg["n_nonmembers"], cfg["dim"]
    # two_blob_data draws clean labels by default; the audit flips some, since
    # only memorisable labels give the overfit model a membership signal
    blobs = {**_given(cfg, "separation"), "label_flip": cfg.get("label_flip", 0.15)}
    x_mem, y_mem = attacks.two_blob_data(n_mem, dim, rng, **blobs)
    x_non, y_non = attacks.two_blob_data(n_non, dim, rng, **blobs)

    budget = privacy.PrivacyBudget(cfg["epsilon"], cfg["delta"], dataset_size=n_mem)
    sigma = privacy.calibrate_sigma(n_mem, n_mem, n_mem * cfg["epochs"], budget)
    target = attacks.SoftmaxTask(x_mem, y_mem, 2)
    epochs, lr = cfg["epochs"], cfg["lr"]
    weights = {
        "nondp": _fit_target(target, epochs, lr, None, 0.0, None),
        "dp": _fit_target(target, epochs, lr, clipping.ClippingRule.auto(), sigma, rng),
    }
    rows = []
    for model_id, w in weights.items():
        dataset = attacks.build_mia_dataset(
            target, w, (x_mem, y_mem), (x_non, y_non), rng,
            **_given(cfg, "split_fraction", "member_train_fraction"),
        )
        report = attacks.evaluate_mia(attacks.fit_mia_classifier(dataset), dataset)
        eps = cfg["epsilon"] if model_id == "dp" else float("inf")
        rows.append(_mia_row(model_id, eps, report))
    return Table(table_columns("mia", cfg), rows)


_RUNNERS = {
    "calibrate": _run_calibrate,
    "sweep-batch": _run_sweep_batch,
    "oracle": _run_oracle,
    "train": _run_train,
    "continual": _run_continual,
    "fourway": _run_fourway,
    "mia": _run_mia,
}


def _seed_name(command: str, seed: int, multi: bool) -> str:
    stem = command.replace("-", "_")
    return f"{stem}_seed{seed}.csv" if multi else f"{stem}.csv"


def _seed_tables(runner, cfg: dict, seeds: list[int]):
    """Yield ``runner(cfg, seed)`` for each seed, in seed order.

    W = min(len(seeds), usable cores) workers share the seeds: this process
    runs ``seeds[0::W]`` itself, and W - 1 children forked at the start run
    ``seeds[k::W]``.  After each seed child k sends one pickled ``(table,
    exception)`` message down its own pipe, and it stops after its first
    exception or its first table with an ``abort_reason``.  A seed's
    exception is raised when its turn comes, and a child that dies without
    sending a seed's message is a ChildProcessError naming the seed.  When
    the generator ends, fails or is closed, the pipes are closed and every
    child still alive is killed and reaped.  With one seed or one core
    nothing is forked, and this is a serial loop.
    """
    workers = min(len(seeds), trainer.usable_cores())
    children = {}  # worker k -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # keep only this pipe's write end, so that a write to a
                    # pipe whose reader is gone fails rather than blocks
                    os.close(read_fd)
                    for _, reader in children.values():
                        reader.close()
                    with open(write_fd, "wb") as out:
                        for seed in seeds[k::workers]:
                            try:
                                table, error = runner(cfg, seed), None
                            except Exception as exc:
                                table, error = None, exc
                            pickle.dump((table, error), out)
                            out.flush()
                            if error is not None or table.abort_reason is not None:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[k] = (pid, open(read_fd, "rb"))
        for i, seed in enumerate(seeds):
            if i % workers == 0:
                yield runner(cfg, seed)
                continue
            pid, reader = children[i % workers]
            try:
                table, error = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                reader.close()
                del children[i % workers]
                _, status = os.waitpid(pid, 0)
                raise ChildProcessError(
                    f"the worker for seed {seed} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before sending its table"
                ) from None
            if error is not None:
                raise error
            yield table
    finally:
        for _, reader in children.values():
            reader.close()
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# --------------------------------------------------------------------------
# SVG line plots
# --------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H, _MARGIN = 640, 480, 60


def _plot_series(table: Table, wanted: list[str]) -> list[tuple[str, list]]:
    """The legend label and (x, y) points of each series: each later
    ``wanted`` column against the first, over the rows where neither cell is
    empty (None).  When the table's first column holds two or more names, as
    ``fourway``'s ``arm`` does, each name's rows make their own series per
    column, labelled with the name (and the column, if there are several)."""
    for name in wanted:
        if name not in table.columns:
            raise ValueError(f"table has no column {name!r}")
    ix, *iys = [table.columns.index(name) for name in wanted]
    groups = list(dict.fromkeys(row[0] for row in table.rows))
    if len(groups) < 2 or not all(isinstance(group, str) for group in groups):
        groups = [None]
    series = []
    for group in groups:
        rows = [row for row in table.rows if group is None or row[0] == group]
        for name, iy in zip(wanted[1:], iys):
            label = name if group is None else group if len(iys) == 1 else f"{group} {name}"
            points = [(float(row[ix]), float(row[iy])) for row in rows
                      if row[ix] is not None and row[iy] is not None]
            series.append((label, points))
    if not any(points for _, points in series):
        raise ValueError("table has no plottable rows")
    return series


def _segments(points: list[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    """Split a series into runs in which x never decreases."""
    runs: list[list[tuple[float, float]]] = []
    for point in points:
        if not runs or point[0] < runs[-1][-1][0]:
            runs.append([])
        runs[-1].append(point)
    return runs


def _scaled(values: list[float], scale: str, lo: float, hi: float, out_lo, out_hi):
    if scale == "log":
        if lo <= 0:
            raise ValueError("log scale requires positive values")
        lo, hi = math.log10(lo), math.log10(hi)
        values = [math.log10(v) for v in values]
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def emit_svg_lineplot(
    table: Table,
    columns: list[str],
    out_path: str | Path,
    scales: tuple[str, str] = ("linear", "linear"),
) -> Path:
    """Plot each y-column against the first (x) column into ``out_path``.

    Each series (see :func:`_plot_series`) is drawn in its own colour over
    the rows where both its column and x are non-empty, one polyline per run
    of rows in which x never decreases, and named in the legend: a table
    whose first column names groups, as ``fourway``'s arms, gets a colour
    and a legend entry per group.  The output bytes are a pure function of
    the table and arguments: fixed canvas, fixed palette, fixed float
    formatting, no timestamps.
    """
    if len(columns) < 2:
        raise ValueError("need an x column and at least one y column")
    x_scale, y_scale = scales
    series = _plot_series(table, list(columns))
    all_x = [x for _, points in series for x, _ in points]
    all_y = [y for _, points in series for _, y in points]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
    ]
    for i, (label, points) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        for run in _segments(points):
            xs, ys = zip(*run)
            px = _scaled(xs, x_scale, x_lo, x_hi, _MARGIN, _W - _MARGIN)
            py = _scaled(ys, y_scale, y_lo, y_hi, _H - _MARGIN, _MARGIN)
            coords = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(px, py))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
        text = label.replace("&", "&amp;").replace("<", "&lt;")  # a case name is free text
        parts.append(
            f'<text x="{_W - _MARGIN + 5}" y="{_MARGIN + 14 * i + 10}" '
            f'font-size="10" fill="{color}">{text}</text>'
        )
    labels = [
        (x_lo, _MARGIN, _H - _MARGIN + 15, "start"),
        (x_hi, _W - _MARGIN, _H - _MARGIN + 15, "end"),
    ]
    for value, x, y, anchor in labels:
        parts.append(
            f'<text x="{x}" y="{y}" font-size="10" text-anchor="{anchor}">'
            f"{value:.6g}</text>"
        )
    parts.append(
        f'<text x="{_MARGIN - 5}" y="{_H - _MARGIN}" font-size="10" '
        f'text-anchor="end">{y_lo:.6g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 5}" y="{_MARGIN + 4}" font-size="10" '
        f'text-anchor="end">{y_hi:.6g}</text>'
    )
    parts.append("</svg>")
    out = Path(out_path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dplens", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="accepted and ignored until ROADMAP item 1 deletes it: seeds run on forked "
                 "workers, one per usable core (taskset -c 0 gives one), and are written "
                 "in seed order",
        )
    return parser


def run_subcommand(argv: list[str]) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, args.command)
        plot = cfg.get("plot")
        outdir = Path(
            args.out or os.environ.get("DPLENS_OUT") or os.getcwd()
        )
        seeds = [args.seed] if args.seed is not None else cfg.get("seeds", [0])
        paths = []
        tables = _seed_tables(_RUNNERS[args.command], cfg, seeds)
        try:
            for seed, table in zip(seeds, tables):
                log = outdir / _seed_name(args.command, seed, len(seeds) > 1)
                try:
                    if not paths:  # so a run that fails before its first table leaves none
                        outdir.mkdir(parents=True, exist_ok=True)
                    paths.append(_write_csv(log, table))
                    if table.abort_reason is None and plot is not None:
                        scales = (plot.get("x_scale", "linear"), plot.get("y_scale", "linear"))
                        paths.append(emit_svg_lineplot(
                            table, plot["columns"], log.with_suffix(".svg"), scales
                        ))
                except OSError as exc:
                    print(f"output error: cannot write to {outdir}: {exc}", file=sys.stderr)
                    return 1
                if table.abort_reason is not None:
                    raise FloatingPointError(f"{table.abort_reason}; partial log kept in {log}")
        finally:
            tables.close()
        for path in paths:
            print(path)
        return 0
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
