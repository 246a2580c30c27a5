"""Every public top-level name in ``src/dplens`` has a caller in ``src/``.

A name counts as called when some other top-level statement of a module
under ``src/dplens`` refers to it, as a bare name or as an attribute
(``module.name``).  References inside the name's own definition do not count,
and neither do ``__init__.py`` re-exports or ``import`` statements.  Names are
matched by spelling across the package.  A public name with no caller fails
the test unless the allowlist maps it to the open ROADMAP item that will
call it.
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


def surface() -> tuple[dict[str, str], set[str]]:
    """(public name -> defining module, names referenced outside their definition)."""
    public: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined_names(stmt)
            public.update({n: path.stem for n in defined if not n.startswith("_")})
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                referenced |= _referenced_names(stmt) - defined
    return public, referenced


def test_every_public_name_has_a_caller_in_src():
    public, referenced = surface()
    uncalled = sorted(
        f"{module}.{name}"
        for name, module in public.items()
        if name not in referenced and name not in AWAITING_CALLER
    )
    assert uncalled == []


def test_allowlist_names_exist_and_still_lack_a_caller():
    # an exempt name that gained a caller, or was deleted, leaves the allowlist
    public, referenced = surface()
    assert sorted(n for n in AWAITING_CALLER if n not in public) == []
    assert sorted(n for n in AWAITING_CALLER if n in referenced) == []
