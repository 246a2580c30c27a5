"""Every public top-level name and method in ``src/dplens`` is reachable from the CLI.

The walk starts at ``cli.main`` and at the names that ``cli``'s module-level
statements other than definitions refer to (the config schemas, the runner
table, the ``__main__`` block).  A reached name reaches every name that its
definition refers to, as a bare name, as an attribute (``module.name``,
``obj.name``) or as the constant name of a ``getattr(obj, "name", ...)``.  A
reached class brings in its bases, decorators, class-level statements and
dunder methods, which Python calls for it; its other methods are reached
only when reached code reads an attribute of that name.  Names are matched
by spelling across the package; ``import`` statements reach nothing, and
``__init__.py`` imports nothing: each caller imports the module it uses.  A
public name or method the walk never reaches fails the test unless the
allowlist maps its name to the open ROADMAP item that will call it;
allowlisted names are walked as extra roots, so what only they use passes
too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dplens"

# exempt name -> the open ROADMAP item that gives it a caller
AWAITING_CALLER = {
    "mixed_improvement": "item 4: oracle check of the mixed public/private step",
    "optimal_mixed_improvement": "item 4: oracle check of the mixed public/private step",
    "schedule_cumulative": "item 5: switch-point prediction from recorded stats",
    "canonical_config": "item 5: config hash in the run manifest",
    "sigma_sq_over_b": "item 2: how B* moves under the tight accountant",
    "sigma_sq_over_b_expansion": "item 2: how B* moves under the tight accountant",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _methods(cls: ast.ClassDef) -> list[ast.stmt]:
    """The methods of a class that an attribute read reaches: all but the dunders."""
    return [
        stmt for stmt in cls.body
        if isinstance(stmt, FUNCTIONS)
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]


def _referenced_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, ast.ClassDef):
        methods = _methods(stmt)
        parts = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
        parts += [s for s in stmt.body if s not in methods]
    else:
        parts = [stmt]
    names = set()
    for node in (node for part in parts for node in ast.walk(part)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def package_sources() -> dict[str, str]:
    """Module name -> source text of every module but ``__init__``."""
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def unreachable(sources: dict[str, str], extra_roots=()) -> list[str]:
    """``module.name`` of every public top-level name, and ``module.Class.name``
    of every public method, that the walk from ``cli`` misses."""
    definitions: dict[str, list[ast.stmt]] = {}
    public: dict[str, str] = {}  # module.name or module.Class.name -> name
    todo = {"main", *extra_roots}

    def define(name, stmt, ref):
        definitions.setdefault(name, []).append(stmt)
        if not name.startswith("_"):
            public[ref] = name

    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            for name in _defined_names(stmt):
                define(name, stmt, f"{module}.{name}")
            if isinstance(stmt, ast.ClassDef):
                for method in _methods(stmt):
                    define(method.name, method, f"{module}.{stmt.name}.{method.name}")
            if module == "cli" and not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                todo |= _referenced_names(stmt)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for stmt in definitions.get(name, []):
            todo |= _referenced_names(stmt) - reached
    return sorted(ref for ref, name in public.items() if name not in reached)


def test_every_public_name_has_a_caller_in_src():
    assert unreachable(package_sources(), AWAITING_CALLER) == []


def test_the_package_root_imports_nothing():
    # ``from dplens import X`` names a module, so the root re-exports no name
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_allowlist_names_exist_and_still_lack_a_caller():
    # an exempt name that the CLI came to reach, or that was deleted, leaves
    # the allowlist
    unreached = {ref.split(".")[-1] for ref in unreachable(package_sources())}
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


def test_a_method_only_tests_call_is_flagged():
    # ClippingRule is reached, but nothing in src reads .scaled, and the
    # private helper that only scaled uses goes unwalked with it
    sources = package_sources()
    anchor = "    def __post_init__(self):"
    assert anchor in sources["clipping"]
    method = "    def scaled(self, factor):\n        return _scaled_rule(self, factor)\n\n"
    helpers = (
        "\n\ndef _scaled_rule(rule, factor):\n    return public_scaled_helper(rule, factor)\n"
        "\n\ndef public_scaled_helper(rule, factor):\n    return ClippingRule(r=rule.r * factor)\n"
    )
    sources["clipping"] = sources["clipping"].replace(anchor, method + anchor) + helpers
    assert unreachable(sources, AWAITING_CALLER) == [
        "clipping.ClippingRule.scaled", "clipping.public_scaled_helper",
    ]


def test_a_constant_getattr_reaches_a_method():
    # the oracle's one read of QuadraticTask.draw_gradients, rewritten as a
    # getattr with a constant name, still reaches it; without the read,
    # nothing does
    sources = package_sources()
    read = "task.draw_gradients(stream, w, grads[:k].reshape(k * b, d))"
    assert sources["trainer"].count(read) == 1
    rewritten = 'getattr(task, "draw_gradients")(stream, w, grads[:k].reshape(k * b, d))'
    sources["trainer"] = sources["trainer"].replace(read, rewritten)
    assert unreachable(sources, AWAITING_CALLER) == []
    sources["trainer"] = sources["trainer"].replace(rewritten, "None")
    assert unreachable(sources, AWAITING_CALLER) == ["model.QuadraticTask.draw_gradients"]
