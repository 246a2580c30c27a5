"""``ConfigError`` is raised only while a config loads.

``cli.load_config`` is the one place that checks a rule reading the config
alone, before any seed runs or any seed worker is forked.  So every
``ConfigError(...)`` in ``src/dplens`` sits in ``load_config`` or in a
function that it reaches: a top-level ``cli`` function whose name a reached
function's body holds.  A rule checked in a runner fails this test.  A
repeated seed is refused there too, with exit 1 and before any fork.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from dplens.cli import run_subcommand
from test_cli import SHIPPED_CONFIGS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dplens"


def package_sources() -> dict[str, str]:
    """Module name -> source text of every module of the package."""
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _builds_config_error(node: ast.AST) -> bool:
    return any(
        isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == "ConfigError"
             or getattr(call.func, "attr", None) == "ConfigError")
        for call in ast.walk(node)
    )


def unreached_config_errors(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level statement that builds a ConfigError
    and that ``cli.load_config`` does not reach."""
    functions = {
        stmt.name: stmt for stmt in ast.parse(sources["cli"]).body
        if isinstance(stmt, ast.FunctionDef)
    }
    reached, todo = set(), {"load_config"}
    while todo:
        name = todo.pop()
        reached.add(name)
        names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        todo |= (names & functions.keys()) - reached
    sites = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            name = getattr(stmt, "name", "<module>")
            if _builds_config_error(stmt) and not (module == "cli" and name in reached):
                sites.append(f"{module}.{name}")
    return sites


def test_config_errors_are_raised_only_at_load():
    assert unreached_config_errors(package_sources()) == []


def test_a_rule_checked_in_a_runner_is_flagged():
    # a rule of the runner's own, or of a helper only runners call, runs
    # once per seed, after the workers are forked
    sources = package_sources()
    anchor = "def _run_continual(cfg: dict, seed: int) -> Table:\n"
    assert anchor in sources["cli"]
    sources["cli"] = sources["cli"].replace(
        anchor, anchor + '    if "val_size" in cfg:\n        raise ConfigError("val_size")\n'
    ) + '\n\ndef _runner_rule(cfg):\n    raise ConfigError("rule")\n'
    sources["trainer"] += '\n\ndef check(cfg):\n    raise cli.ConfigError("rule")\n'
    assert unreached_config_errors(sources) == [
        "cli._run_continual", "cli._runner_rule", "trainer.check",
    ]


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_a_repeated_seed_is_refused_before_any_fork(name, tmp_path, monkeypatch, capsys):
    # a repeated seed would run twice, print its files' paths twice, and
    # leave the second run's files over the first's
    cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    path = tmp_path / name
    path.write_text(json.dumps({**cfg, "seeds": [3, 5, 3]}), encoding="utf-8")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a seed worker"))
    out = tmp_path / "out"
    command = SHIPPED_CONFIGS[name]
    assert run_subcommand([command, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: config {path} fails validation: [3, 5, 3] has non-unique elements\n"
    )
    assert not out.exists()
