"""Experiment driver: JSON configs in, CSV tables and SVG line plots out.

Every subcommand is a pure function of (config, seed): its runner in
``_RUNNERS`` takes the config and one seed and returns a :class:`Table`, the
columns, rows and abort reason of its output, and touches no file.  Rerunning
with the same inputs reproduces the table.  A ``continual`` or ``train``
run is one ``trainer.continual_pretrain`` call: a ``train`` config runs as
the one-phase ``continual`` config :func:`_one_phase` maps it to.  A
``fourway`` seed is four ``train`` runs of that seed, one per arm
(``_FOURWAY_ARMS``).  The columns are a tuple of names that
:func:`table_columns` gives from the subcommand and config alone, so a
``plot`` column the table lacks, or holds as text, is a config error before
the first seed runs.  A ``None`` cell is an empty cell.  Only
:func:`run_subcommand` writes files: per seed it names the CSV
(``_seed_name``), writes it with the standard library's ``csv`` writer
(``_write_csv``), which quotes a cell holding a comma, a double quote or a
newline, and, when the config asks for a ``plot``, draws the SVG from the
same in-memory table (:func:`emit_svg_lineplot`).  Whether a table leaves a
point on the plot's axes depends on its values, so a table that leaves
none gets no SVG and a line on stderr naming its CSV, and the run goes on.
A multi-seed run shares its seeds among forked workers, one per usable core
(``trainer.usable_cores``; ``taskset -c 0`` gives one), and writes their
files in seed order, as a serial loop would (``trainer._run_striped``, which
runs the oracle's chunks too).
``--jobs`` stays accepted and ignored until ROADMAP item 1 deletes it.
Exit codes: 0 success; 1 config error, or an ``OSError`` while making the
``--out`` directory or writing a CSV or SVG, reported on one line that
names the path; 2 numerical error, including a training run aborted on a
non-finite training or held-out loss or curvature statistic, whose partial
CSV is kept and gets no plot.

Each config block goes straight to its constructor as keyword arguments, and
a run option the config leaves out is left out of the call, so each default
is written once, in the signature of the function that receives it.  A key
that the run would not read is a config error, not a silent no-op.

``_BLOCK_KEYS`` is the one table of config blocks: for each kind of task,
optimizer, clipping or schedule block, the keys it needs and may take, each
with its schema.  The blocks' schemas in ``CONFIG_SCHEMAS``, plain JSON
Schema, are built from it.  :func:`load_config` parses a config with every
number finite: NaN, Infinity, -Infinity and a number that overflows a
float, such as 1e309, are config errors (:func:`_finite`), so no later rule
checks finiteness.  It checks the config before any seed runs, against its
schema, then against the table, then each block's values, and then the
rules that tie keys together (:func:`_rule_message`).  An optimizer or
clipping block is built once at load, by the constructor its runner calls,
so each value rule is written once, in that constructor.  A task block is
not built, since a task draws data: a quadratic task's values are checked
by :func:`_quadratic_message`, the others' by schema bounds, as are a
schedule's, which :func:`_switch_step` turns into the first private step.
:func:`load_config` is the one place that checks a rule reading the config alone, and the
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
_NONNEG_NUM = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_NUM_GRID = {"type": "array", "items": _NUM, "minItems": 1}
_POS_NUM_GRID = {"type": "array", "items": _POS_NUM, "minItems": 1}
_INT_GRID = {"type": "array", "items": _POS_INT, "minItems": 1}

# what each kind of each config block reads besides "kind": the keys it
# needs and the keys it may take, each with its schema
_BLOCK_KEYS = {
    "task": {
        "quadratic": ({"dimension": _POS_INT},
                      {"hessian_diag": _NUM_GRID, "hessian_scale": _NUM,
                       "covariance_diag": _NUM_GRID, "covariance_scale": _NUM,
                       "x_mean": _NUM_GRID}),
        "logistic": ({"dimension": _POS_INT, "n_examples": _POS_INT}, {"separation": _NUM}),
        "tinymlp": ({"n_in": _POS_INT, "hidden": _POS_INT, "n_out": _POS_INT},
                    {"teacher_seed": {"type": "integer"}, "noise_std": _NONNEG_NUM,
                     "target_scale": _NUM}),
    },
    "optimizer": {"sgd": ({"eta": _NUM}, {}), "adam": ({"eta": _NUM}, {})},
    "clipping": {"auto": ({}, {}), "reparam": ({}, {"r": _NUM}), "none": ({}, {})},
    # each fixes the first private step (_switch_step): the indicator's at
    # ceil(s total), inside a run of total steps
    "schedule": {
        "indicator": ({"s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                       "total": _POS_INT}, {}),
        "only_public": ({}, {}),
        "only_private": ({}, {}),
    },
}
# the config keys that hold a block, and the block each holds
_BLOCK_OF = {"task": "task", "task_public": "task", "optimizer": "optimizer",
             "clipping": "clipping", "schedule": "schedule"}


def _blocks(*names: str) -> dict:
    """The schema of each config key in ``names`` that holds a block: an
    object whose ``kind`` names a row of the block's ``_BLOCK_KEYS``, that
    has ``kind`` and each key every kind needs, and that takes each key some
    kind reads."""
    schemas = {}
    for name in names:
        kinds = _BLOCK_KEYS[_BLOCK_OF[name]]
        needed_by_all = set.intersection(*(set(needed) for needed, _ in kinds.values()))
        properties = {"kind": {"enum": list(kinds)}}
        for needed, optional in kinds.values():
            properties.update(needed, **optional)
        schemas[name] = {"type": "object", "additionalProperties": False,
                         "required": ["kind", *sorted(needed_by_all)], "properties": properties}
    return schemas


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

_SEEDED = {
    "schema": {"const": SCHEMA_VERSION},
    # a repeated seed would run twice and write its files twice
    "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1,
              "uniqueItems": True},
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
            **_blocks("task", "clipping"),
            "eta_grid": _POS_NUM_GRID,
            "batch_grid": _INT_GRID,
            "sigma_grid": {"type": "array", "items": _NONNEG_NUM, "minItems": 1},
            "trials": {"type": "integer", "minimum": 100},
            "offset_scale": _NUM,
        },
    },
    "train": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "optimizer", "steps", "batch_size", "mode"],
        "properties": {
            **_COMMON,
            **_blocks("task", "optimizer", "clipping"),
            "mode": {"enum": ["public", "dp"]},
            "sigma": _NONNEG_NUM,
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
            **_blocks("task_public", "optimizer", "clipping", "schedule"),
            "sigma": _NONNEG_NUM,
            "privacy": _PRIVACY_SCHEMA,
            "epochs": _POS_INT,
            "steps_per_epoch": _POS_INT,
            "batch_size": _POS_INT,
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
            **_blocks("task", "optimizer", "clipping"),
            "sigma": _POS_NUM,
            "steps": _POS_INT,
            "batch_size": _POS_INT,
            "val_size": _POS_INT,
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
            "label_flip": {"type": "number", "minimum": 0, "maximum": 1},
            "epochs": _POS_INT,
            "lr": _POS_NUM,
            "epsilon": _NUM,
            "delta": _NUM,
            "split_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "member_train_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
    },
}
# the oracle's closed-form population loss needs a quadratic task
CONFIG_SCHEMAS["oracle"]["properties"]["task"]["properties"]["kind"] = {"enum": ["quadratic"]}


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
    ``maximum``, ``exclusiveMaximum``, ``minItems``, ``uniqueItems``,
    ``minProperties``, ``required``, ``properties``, ``additionalProperties``
    and ``items``; any other raises NotImplementedError.  Errors come in
    schema-keyword order with jsonschema's messages.  No keyword applies two
    schemas at one path, so ``rank``, (-depth, instance path), orders them as
    the key of ``jsonschema.exceptions.relevance`` does, and the first error
    of maximal rank is the one ``jsonschema.exceptions.best_match`` picks.
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
        elif keyword == "maximum":
            if _is_type(value, "number") and value > arg:
                message = f"{value!r} is greater than the maximum of {arg!r}"
        elif keyword == "exclusiveMaximum":
            if _is_type(value, "number") and value >= arg:
                message = f"{value!r} is greater than or equal to the maximum of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                message = f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif keyword == "uniqueItems":
            if arg and isinstance(value, list) and any(
                _equal(a, b) for i, a in enumerate(value) for b in value[i + 1:]
            ):
                message = f"{value!r} has non-unique elements"
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
    nonnegative (every number of a config is finite, :func:`_finite`)."""
    d = block["dimension"]
    for name in ("hessian", "covariance"):
        diag, scale = f"{name}_diag", f"{name}_scale"
        if diag in block and scale in block:
            return f"quadratic task does not read {scale} beside {diag}"
        if diag in block and len(block[diag]) != d:
            return f"{diag} length must match dimension"
        values = block[diag] if diag in block else [block[scale]] if scale in block else []
        if any(value < 0 for value in values):
            return f"{diag if diag in block else scale} must be finite and nonnegative"
    if "x_mean" in block and len(block["x_mean"]) != d:
        return "x_mean length must match dimension"
    return None


def _block_message(cfg: dict) -> str | None:
    """What is wrong with the first block of ``cfg`` whose kind needs a key
    it lacks or does not read a key it holds, or whose values break a rule,
    or None.  An optimizer or clipping block is built once, by the
    constructor that its runner calls, so each value rule is the
    constructor's own; a task draws data when built, so only a quadratic
    task's values are checked, by :func:`_quadratic_message`, and a
    schedule is no object, so its schema bounds its values."""
    builders = {"optimizer": trainer.OptimizerConfig, "clipping": clipping_from_config}
    for name, block in _BLOCK_OF.items():
        if name in cfg:
            kind = cfg[name]["kind"]
            required, optional = _BLOCK_KEYS[block][kind]
            missing = [key for key in required if key not in cfg[name]]
            unread = sorted(set(cfg[name]) - {"kind", *required, *optional})
            for verb, keys in (("needs", missing), ("does not read", unread)):
                if keys:
                    return f"{kind} {block} {verb} {', '.join(keys)}"
            if block in builders:
                message = _refusal(builders[block], **cfg[name])
            else:
                message = _quadratic_message(cfg[name]) if kind == "quadratic" else None
            if message is not None:
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


def _switch_step(cfg: dict) -> int | None:
    """The index of the first private step that the ``schedule`` of a
    ``continual`` config fixes: 0 under only_private, ceil(s total) under an
    indicator, and the run's step count under only_public; None with no
    schedule, when early stopping picks it."""
    kind = cfg.get("schedule", {}).get("kind")
    if kind == "indicator":
        return math.ceil(cfg["schedule"]["s"] * cfg["schedule"]["total"])
    steps = cfg["epochs"] * cfg["steps_per_epoch"]
    return {"only_private": 0, "only_public": steps}.get(kind)


def _rule_message(cfg: dict, command: str) -> str | None:
    """What breaks the first rule that ties keys of a ``command`` config
    together, or None.

    A positive ``hessian_probes`` turns on a curvature snapshot per step,
    whose tr(H Sigma) estimate needs two or more gradients.  A ``plot``
    names numeric columns of the table.  No ``sweep-batch`` case name holds
    a carriage return, which Python 3.11's csv writer leaves bare under a
    newline line terminator, so that a reader ends the row there, and each
    case's inputs pass :class:`predictor.ImprovementInputs`' own rules.  Each
    ``calibrate`` batch is at most n, and a ``mia`` delta lies below
    1/n_members, beside each budget's own rules, and a ``mia`` split leaves
    enough members for the attack's training split
    (:func:`attacks.mia_split_sizes`).  A ``train`` config is checked as the
    ``continual`` config it runs as (:func:`_one_phase`): an indicator spans
    the run, and a run that can take no private step leaves ``sigma``,
    ``privacy`` and ``clipping`` unread.  Its earliest first private step is
    the schedule's (:func:`_switch_step`), or with none the step after the
    second epoch, whose held-out reading is the first that can rise above
    the one before it.  A run with private steps gives ``sigma`` or a
    ``privacy`` block, not both.  The block calibrates sigma for
    T = ceil(sample_budget / batch_size) steps of batch_size out of n
    samples, so it needs clipping, which bounds the sensitivity,
    batch_size <= n, a valid budget, and a run that can take no more than T
    private steps: those from its earliest first private step on.
    """
    if cfg.get("hessian_probes") and cfg["batch_size"] == 1:
        return "hessian_probes needs batch_size of at least 2"
    columns = table_columns(command, cfg)
    missing = [name for name in cfg.get("plot", {}).get("columns", ()) if name not in columns]
    if missing:
        return (f"plot names {', '.join(map(repr, missing))}, not in the "
                f"{command} table's columns {', '.join(columns)}")
    text = [name for name in cfg.get("plot", {}).get("columns", ()) if name in _TEXT_COLUMNS]
    if text:
        return f"plot names {', '.join(map(repr, text))}, which the {command} table holds as text"
    if command == "sweep-batch":
        for name, case in cfg["cases"].items():
            if "\r" in name:
                return f"sweep-batch case name {name!r} holds a carriage return"
            if message := _refusal(predictor.ImprovementInputs, **case):
                return f"sweep-batch case {name!r}: {message}"
        return None
    if command == "calibrate":
        too_large = [b for b in cfg["batch_grid"] if b > cfg["n"]]
        if too_large:
            return f"batch_grid entry {too_large[0]} exceeds n {cfg['n']}"
        return _refusal(privacy.PrivacyBudget, cfg["epsilon"], cfg["delta"])
    if command == "mia":
        return (_refusal(privacy.PrivacyBudget, cfg["epsilon"], cfg["delta"], cfg["n_members"])
                or _refusal(attacks.mia_split_sizes, cfg["n_members"], cfg["n_nonmembers"],
                            **_given(cfg, "split_fraction", "member_train_fraction")))
    if command not in ("train", "continual"):
        return None
    mode = cfg["mode"] if command == "train" else None
    cfg = _one_phase(cfg) if mode else cfg
    schedule = cfg.get("schedule", {})
    kind = schedule.get("kind")
    steps = cfg["epochs"] * cfg["steps_per_epoch"]
    if kind == "indicator" and schedule["total"] != steps:
        return f"indicator schedule spans {schedule['total']} steps, but the run takes {steps}"
    # early stopping reads the held-out loss once per epoch, so the loss can
    # first rise at the second reading
    earliest = _switch_step(cfg) if kind else 2 * cfg["steps_per_epoch"]
    if earliest >= steps:
        unread = [key for key in ("clipping", "privacy", "sigma") if key in cfg]
        if not unread:
            return None
        # a train config names its mode, not the schedule that _one_phase maps it to
        if mode or kind == "only_public":
            what = f"a {mode}-mode train run" if mode else f"the {kind} schedule"
        else:
            how = "indicator schedule switches" if kind else "early stopping can switch"
            what = f"a {steps}-step run whose {how} at step {earliest}"
        return f"{what} leaves {', '.join(unread)} unread"
    private_steps = steps - earliest
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
    if private_steps > horizon:
        return (f"the run can take {private_steps} private steps, but the privacy block "
                f"calibrates sigma for {horizon} (sample_budget / batch_size)")
    # n parameterises the mechanism here, not the budget annotation, so
    # benchmark settings with delta == 1/n remain expressible
    return _refusal(privacy.PrivacyBudget, p["epsilon"], p["delta"])


def _finite(token: str) -> float:
    """The float of a JSON number token; NaN, Infinity, -Infinity and a
    number that overflows a float, such as 1e309, are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def load_config(path: str | Path, command: str) -> dict:
    """Read a JSON config for one subcommand and check every rule that reads
    the config alone: its schema, then ``_BLOCK_KEYS`` and each block's
    values (:func:`_block_message`), then the rules that tie its keys
    together (:func:`_rule_message`)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except ValueError as exc:  # a JSONDecodeError, or a number _finite refuses
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


def clipping_from_config(**block) -> clipping.ClippingRule | None:
    """``None`` for ``"kind": "none"``, else the block's rule; no keys give the default rule."""
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
_TEXT_COLUMNS = ("case", "phase", "arm")  # names, which no plot axis can place


def table_columns(command: str, cfg: dict) -> tuple[str, ...]:
    """The columns of every table ``command``'s runner returns for ``cfg``:
    a positive ``hessian_probes`` adds the curvature columns."""
    return _COLUMNS[command] + (HESSIAN_COLUMNS if cfg.get("hessian_probes") else ())


def _run_table(run: trainer.TrainRun, batch_size: int, columns: tuple[str, ...]) -> Table:
    """The per-iteration log of one run under ``columns``, with its abort reason.

    A record with curvature stats gets the Hessian cells; a run records them
    on every step or on none.  The decelerator column is
    :func:`predictor.decelerator` at c = 1, sigma^2 tr(H) / B: the paper's
    form divides by c^2, and no run records c yet.
    """
    rows = [[r.iteration, r.phase, 1.0 if r.phase == "public" else 0.0, r.train_loss,
             r.val_loss, r.sigma] for r in run.records]
    for row, r in zip(rows, run.records):
        h = r.hessian
        if h is not None:
            decel = 0.0 if r.sigma == 0.0 else predictor.decelerator(
                batch_size, predictor.ImprovementInputs.from_stats(h, r.sigma)
            )
            row += [h.tr_h, h.tr_h_sigma, h.g_h_g, h.g_norm_sq, decel]
    return Table(columns, rows, run.abort_reason)


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
    rule = clipping_from_config(**cfg.get("clipping", {}))
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
    block calibrates for T = ceil(sample_budget / batch_size) steps; a run
    that takes no private step, which gives neither, takes sigma 0."""
    sigma = float(cfg.get("sigma", 0.0))
    if "privacy" in cfg:
        p = cfg["privacy"]
        budget = privacy.PrivacyBudget(p["epsilon"], p["delta"])
        sigma = privacy.calibrate_sigma(cfg["batch_size"], p["n"], p["sample_budget"], budget)
    rng = np.random.default_rng(seed)
    run = trainer.continual_pretrain(
        task_from_config(cfg["task_public"], rng),
        trainer.OptimizerConfig(**cfg["optimizer"]),
        sigma,
        epochs=cfg["epochs"],
        rng=rng,
        batch_size=cfg["batch_size"],
        steps_per_epoch=cfg["steps_per_epoch"],
        rule=clipping_from_config(**cfg.get("clipping", {})),
        switch_at=_switch_step(cfg),
        curvature=bool(cfg.get("hessian_probes")),
        **_given(cfg, "val_size"),
    )
    return _run_table(run, cfg["batch_size"], table_columns("continual", cfg))


# each fourway arm's keys over its config, which make the one-phase train
# config the arm runs as; a None value drops the key
_FOURWAY_ARMS = {
    "sgd": {"mode": "public", "sigma": None, "clipping": None},
    "sgd_clip": {"mode": "dp", "sigma": 0.0},
    "sgd_noise": {"mode": "dp", "clipping": {"kind": "none"}},
    "dp_sgd": {"mode": "dp"},
}


def _run_fourway(cfg: dict, seed: int) -> Table:
    """The four arms in turn, each a ``train`` run at this seed, so all
    share the initial point, the held-out set, the data and the noise; each
    row starts with its arm, and the first arm that aborted gives the reason."""
    rows, reasons = [], []
    for arm, keys in _FOURWAY_ARMS.items():
        arm_cfg = {key: value for key, value in {**cfg, **keys}.items() if value is not None}
        table = _run_train(arm_cfg, seed)
        rows += [[arm, *row] for row in table.rows]
        reasons.append(table.abort_reason)
    return Table(table_columns("fourway", cfg), rows, next(filter(None, reasons), None))


def _fit_target(
    task: attacks.SoftmaxTask, epochs: int, lr: float,
    rule: clipping.ClippingRule | None, sigma: float, rng: np.random.Generator | None,
) -> np.ndarray:
    """``epochs`` full-batch SGD steps from zero.

    A non-finite loss, or non-finite weights after the last step, is a
    FloatingPointError.
    """
    config = trainer.OptimizerConfig("sgd", lr)
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
        "dp": _fit_target(target, epochs, lr, clipping.ClippingRule("auto"), sigma, rng),
    }
    rows = []
    for model_id, w in weights.items():
        train, test = attacks.build_mia_dataset(
            target, w, (x_mem, y_mem), (x_non, y_non), rng,
            **_given(cfg, "split_fraction", "member_train_fraction"),
        )
        eps = cfg["epsilon"] if model_id == "dp" else float("inf")
        rows.append([model_id, eps,
                     *attacks.evaluate_mia(attacks.fit_mia_classifier(*train), *test)])
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


# --------------------------------------------------------------------------
# SVG line plots
# --------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H, _MARGIN = 640, 480, 60


class EmptyPlotError(ValueError):
    """A table leaves no point on the plot's axes."""


def _on_axis(value, scale: str) -> bool:
    """Whether a cell has a place on an axis: not empty (None), and positive on a log one."""
    return value is not None and (scale != "log" or value > 0)


def _plot_series(table: Table, wanted: list[str], scales: tuple) -> list[tuple[str, list]]:
    """The legend label and (x, y) points of each series: each later
    ``wanted`` column against the first, over the rows where both cells have
    a place on their axes of ``scales`` (:func:`_on_axis`).  When the
    table's first column holds two or more names, as ``fourway``'s ``arm``
    does, each name's rows make their own series per column, labelled with
    the name (and the column, if there are several)."""
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
                      if _on_axis(row[ix], scales[0]) and _on_axis(row[iy], scales[1])]
            series.append((label, points))
    if not any(points for _, points in series):
        raise EmptyPlotError("table has no plottable rows")
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

    Each series (see :func:`_plot_series`) is drawn in its own colour, one
    polyline per run of rows in which x never decreases, and named in the
    legend.  It leaves out each row whose x or y cell is empty, or is at or
    below 0 on a log axis, and a table that leaves no point raises
    :class:`EmptyPlotError`.  A table whose first column names groups, as
    ``fourway``'s arms, gets a colour and a legend entry per group.  The
    output bytes are a pure function of the table and arguments: fixed
    canvas, fixed palette, fixed float formatting, no timestamps.
    """
    if len(columns) < 2:
        raise ValueError("need an x column and at least one y column")
    x_scale, y_scale = scales
    series = _plot_series(table, list(columns), scales)
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


def _seed(text: str) -> int:
    """The value of ``--seed``: a nonnegative integer, as each of a config's ``seeds`` is."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dplens", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_seed, default=None)
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
        outdir = Path(args.out or os.getcwd())
        seeds = [args.seed] if args.seed is not None else cfg.get("seeds", [0])
        paths = []
        tables = trainer._run_striped(functools.partial(_RUNNERS[args.command], cfg), seeds)
        try:
            for seed, table in zip(seeds, tables):
                log = outdir / _seed_name(args.command, seed, len(seeds) > 1)
                try:
                    if not paths:  # so a run that fails before its first table leaves none
                        outdir.mkdir(parents=True, exist_ok=True)
                    paths.append(_write_csv(log, table))
                    if table.abort_reason is None and plot is not None:
                        scales = (plot.get("x_scale", "linear"), plot.get("y_scale", "linear"))
                        try:
                            paths.append(emit_svg_lineplot(
                                table, plot["columns"], log.with_suffix(".svg"), scales
                            ))
                        except EmptyPlotError:
                            print(f"no plot: {log} has no point on the plot's axes",
                                  file=sys.stderr)
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
