"""Every public top-level name in ``src/dplens`` is reachable from the CLI.

The walk starts at ``cli.main`` and at the names that ``cli``'s module-level
statements other than definitions refer to (the config schemas, the runner
table, the ``__main__`` block).  A reached name reaches every name that its
top-level definition refers to, as a bare name or as an attribute
(``module.name``), so a class brings in all of its methods.  Names are
matched by spelling across the package; ``import`` statements and
``__init__.py`` re-exports reach nothing.  A public name the walk never
reaches fails the test unless the allowlist maps it to the open ROADMAP item
that will call it; allowlisted names are walked as extra roots, so what only
they use passes too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dplens"

# exempt name -> the open ROADMAP item that gives it a caller
AWAITING_CALLER = {
    "mixed_improvement": "item 4: oracle check of the mixed public/private step",
    "optimal_mixed_improvement": "item 4: oracle check of the mixed public/private step",
    "only_public_optimum": "item 4: oracle check of the mixed public/private step",
    "only_private_optimum": "item 4: oracle check of the mixed public/private step",
    "schedule_cumulative": "item 5: switch-point prediction from recorded stats",
    "canonical_config": "item 5: config hash in the run manifest",
    "sigma_sq_over_b": "item 2: how B* moves under the tight accountant",
    "sigma_sq_over_b_expansion": "item 2: how B* moves under the tight accountant",
}


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def package_sources() -> dict[str, str]:
    """Module name -> source text of every module but ``__init__``."""
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def unreachable(sources: dict[str, str], extra_roots=()) -> list[str]:
    """``module.name`` of every public top-level name the walk from ``cli`` misses."""
    definitions: dict[str, list[ast.stmt]] = {}
    public: dict[str, str] = {}
    todo = {"main", *extra_roots}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            defined = _defined_names(stmt)
            for name in defined:
                definitions.setdefault(name, []).append(stmt)
                if not name.startswith("_"):
                    public[name] = module
            if module == "cli" and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                todo |= _referenced_names(stmt)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for stmt in definitions.get(name, []):
            todo |= _referenced_names(stmt) - reached
    return sorted(f"{module}.{name}" for name, module in public.items() if name not in reached)


def test_every_public_name_has_a_caller_in_src():
    assert unreachable(package_sources(), AWAITING_CALLER) == []


def test_allowlist_names_exist_and_still_lack_a_caller():
    # an exempt name that the CLI came to reach, or that was deleted, leaves
    # the allowlist
    unreached = {ref.split(".")[1] for ref in unreachable(package_sources())}
    assert sorted(name for name in AWAITING_CALLER if name not in unreached) == []


def test_a_public_name_used_only_by_dead_code_is_flagged():
    # one level of reference would pass dead_helper: dead_caller refers to it
    sources = package_sources()
    sources["predictor"] += (
        "\n\ndef dead_helper():\n    return 1\n"
        "\n\ndef dead_caller():\n    return dead_helper()\n"
    )
    assert unreachable(sources, AWAITING_CALLER) == [
        "predictor.dead_caller", "predictor.dead_helper",
    ]
