"""Each module-level constant of the package is assigned in one module, so a
tolerance has one home and a second copy of it cannot drift."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qwscatter"


def constant_names(source: str) -> set:
    """The upper-case names (a leading underscore allowed) assigned at module level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            targets = []
        for target in targets:
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name) and n.id.lstrip("_").isupper()}
    return names


def second_homes(sources: dict) -> dict:
    """Each constant name assigned in more than one of ``sources`` (module name -> source), with its modules."""
    homes = {}
    for module, source in sorted(sources.items()):
        for name in constant_names(source):
            homes.setdefault(name, []).append(module)
    return {name: modules for name, modules in homes.items() if len(modules) > 1}


def test_a_constant_assigned_in_two_modules_is_found():
    sources = {"a.py": "X_TOL = 1e-12\n_Y = 2\n", "b.py": "X_TOL: float = 1e-9\nZ = 3\n", "c.py": "_Y = 2\n"}
    assert second_homes(sources) == {"X_TOL": ["a.py", "b.py"], "_Y": ["a.py", "c.py"]}


def test_each_module_constant_has_one_home():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert {"EIGENVALUE_HIT_TOL", "ZERO_VALUE_TOL", "PEAK_FLOOR", "SUPPORT_TOL"} <= set().union(
        *map(constant_names, sources.values()))
    assert second_homes(sources) == {}
