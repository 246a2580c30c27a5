"""``cli.validation_message`` gives jsonschema's verdict and message without jsonschema.

jsonschema is a test dependency only: it is the reference here, and no run
of the package imports it.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from dplens.cli import CONFIG_SCHEMAS, _schema_errors, run_subcommand, validation_message

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))
from workloads import WORKLOADS, config_for  # noqa: E402

from test_cli import SHIPPED_CONFIGS  # noqa: E402

# the package's integer type: a Python int that is not a bool (5.0 is none)
STRICT_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)
# keywords whose value is a subschema ("properties" maps names to subschemas)
SUBSCHEMA = ("items", "additionalProperties")
MUTATIONS_PER_CONFIG = 400


def reference_message(value, schema):
    error = jsonschema.exceptions.best_match(STRICT_VALIDATOR(schema).iter_errors(value))
    return None if error is None else error.message


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for keyword in SUBSCHEMA:
        if isinstance(schema.get(keyword), dict):
            yield from subschemas(schema[keyword])
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)


def base_configs():
    """(subcommand, config) of every shipped config and of three benchmark
    repetitions of each workload."""
    for name, command in SHIPPED_CONFIGS.items():
        yield command, json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for rep in range(3):
            yield workload.command, config_for(workload, 1, rep)


PROPERTY_NAMES = sorted({
    name for schema in CONFIG_SCHEMAS.values() for sub in subschemas(schema)
    for name in sub.get("properties", {})
}) + ["surprise"]
# every JSON type, the values next to each bound, and the enum and const
# values that are valid somewhere but not everywhere
VALUES = [
    None, True, False, 0, 1, 2, -1, 0.0, 1.0, 0.5, -0.5, 5.0, 10**30, float("inf"),
    float("nan"), "", "x", "one", "indicator", "only_public", "dpmd", "reparam", "auto",
    "tinymlp", "quadratic", "log", [], [1], [0.0, 2], [True], ["iter", "train_loss"],
    ["a"], {}, {"kind": "auto"}, {"kind": "quadratic", "dimension": 2},
    {"kind": "indicator", "s": 0.5, "total": 4}, {"g_norm_sq": 1.0},
]


BOUND_KEYWORDS = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum")
BOUNDS = sorted({
    sub[keyword] for schema in CONFIG_SCHEMAS.values() for sub in subschemas(schema)
    for keyword in BOUND_KEYWORDS if keyword in sub
})
# each bound of a config schema, and one either side of it, as an int and as a float
BOUNDARY_VALUES = [kind(bound + step) for bound in BOUNDS for step in (-1, 0, 1)
                   for kind in (int, float)]


def nodes(value, path=()):
    """(path, node) of ``value`` and of every container or leaf inside it."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


def mutate(cfg, rng):
    """A copy of ``cfg`` with one to three random edits."""
    cfg = json.loads(json.dumps(cfg))
    for _ in range(rng.randint(1, 3)):
        path, node = rng.choice(list(nodes(cfg)))
        parent = cfg
        for step in path[:-1]:
            parent = parent[step]
        edit = rng.randrange(5)
        if edit == 0 and path:  # replace a value
            parent[path[-1]] = json.loads(json.dumps(rng.choice(VALUES)))
        elif edit == 4 and path and type(node) in (int, float):  # move a number to a bound
            parent[path[-1]] = rng.choice(BOUNDARY_VALUES)
        elif edit == 1 and isinstance(node, dict) and node:  # drop a key
            del node[rng.choice(list(node))]
        elif edit == 2 and isinstance(node, dict):  # add or overwrite a key
            node[rng.choice(PROPERTY_NAMES)] = json.loads(json.dumps(rng.choice(VALUES)))
        elif isinstance(node, list):  # empty a list or grow it
            if node and rng.random() < 0.5:
                node.clear()
            else:
                node.append(json.loads(json.dumps(rng.choice(VALUES))))
    return cfg


def test_verdict_and_message_are_jsonschemas_best_match():
    rng = random.Random(20240229)
    verdicts = {True: 0, False: 0}
    # how often jsonschema's chosen error is each bound keyword's
    phrases = {"is less than the minimum": 0, "is less than or equal to the minimum": 0,
               "is greater than the maximum": 0, "is greater than or equal to the maximum": 0}
    for command, base in base_configs():
        # each config also against every other subcommand's schema
        for schema in CONFIG_SCHEMAS.values():
            assert validation_message(base, schema) == reference_message(base, schema)
        for _ in range(MUTATIONS_PER_CONFIG):
            cfg = mutate(base, rng)
            schema = CONFIG_SCHEMAS[command]
            expected = reference_message(cfg, schema)
            assert validation_message(cfg, schema) == expected, (command, cfg)
            verdicts[expected is None] += 1
            for phrase in phrases:
                phrases[phrase] += phrase in (expected or "")
    assert min(verdicts.values()) > 2000, verdicts
    assert min(phrases.values()) >= 5, phrases


@pytest.mark.parametrize(
    "value, schema",
    [
        ({"a": 1}, {"minProperties": 2}),
        (True, {"enum": [1, 2]}),
        ([True], {"const": [1]}),
        ({"a": False}, {"const": {"a": 0}}),
    ],
    ids=["min-properties-2", "enum-bool", "const-list", "const-dict"],
)
def test_cases_no_config_schema_reaches(value, schema):
    # no config schema needs two properties where one is missing, or lists a non-string in an enum
    expected = reference_message(value, schema)
    assert expected is not None
    assert validation_message(value, schema) == expected


@pytest.mark.parametrize(
    "key, grid, message",
    [
        ("eta_grid", [0.1, -0.1], "-0.1 is less than or equal to the minimum of 0"),
        ("eta_grid", [0.0], "0.0 is less than or equal to the minimum of 0"),
        ("sigma_grid", [0.0, -0.5], "-0.5 is less than the minimum of 0"),
    ],
    ids=["negative-eta", "zero-eta", "negative-sigma"],
)
def test_a_bad_oracle_grid_fails_before_any_cell_runs(key, grid, message, tmp_path, capsys):
    # one oracle call per B runs every (sigma, eta) cell, so a bad grid value
    # must stop the run at the schema, not after the Monte-Carlo work
    cfg = json.loads((ROOT / "configs" / "oracle_small.json").read_text(encoding="utf-8"))
    cfg[key] = grid
    schema = CONFIG_SCHEMAS["oracle"]
    assert validation_message(cfg, schema) == reference_message(cfg, schema) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_subcommand(["oracle", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "oracle.csv").exists()


def test_every_schema_keyword_is_implemented():
    # _schema_errors reads each keyword of a schema whatever the value, so a
    # keyword it does not implement raises on any probe
    for schema in CONFIG_SCHEMAS.values():
        for sub in subschemas(schema):
            for probe in (None, {}, [], 0, "x"):
                list(_schema_errors(probe, sub))


@pytest.mark.parametrize(
    "schema",
    [{"maxLength": 3}, {"type": "object", "properties": {"n": {"multipleOf": 2}}},
     {"if": {}, "then": {}}],
    ids=["top", "nested", "if"],
)
def test_an_unknown_keyword_raises(schema):
    with pytest.raises(NotImplementedError, match="keyword"):
        validation_message({"n": 4}, schema)


def test_runs_load_only_the_standard_library_numpy_and_dplens(tmp_path):
    # a fresh interpreter imports dplens.cli and runs every shipped config;
    # the modules it loads on top of interpreter start-up must come from the
    # standard library, numpy or dplens (no jsonschema, no scipy)
    script = f"""
import contextlib, io, json, sys
before = set(sys.modules)
import dplens.cli
runs = {json.dumps(SHIPPED_CONFIGS)}
for name, command in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = dplens.cli.run_subcommand(
            [command, "--config", {str(ROOT / "configs")!r} + "/" + name,
             "--out", {str(tmp_path)!r} + "/" + name])
    assert code == 0, (name, code)
allowed = set(sys.stdlib_module_names) | {{"numpy", "dplens"}}
print(json.dumps(sorted(
    name for name in set(sys.modules) - before if name.split(".")[0] not in allowed
    # the shared runtime that numpy's Cython-built extensions register
    and name != "cython_runtime" and not name.startswith("_cython_")
)))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
