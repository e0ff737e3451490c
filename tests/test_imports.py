"""Import rules of the package, checked by a stdlib ``ast`` pass.

Every name a package module imports is used in that module: the pass
stands in for a linter's unused-import rule (F401); an import statement
carrying ``# noqa: F401`` is exempt, and a package ``__init__`` uses the
names its ``__all__`` lists.  The exact-moment oracle stays independent of
the simulator: it reaches no package module but ``model`` and ``ou``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "branching_ou"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The package modules a module's source imports, relatively or by the
    package name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level:
                base = ["branching_ou", *base]
            paths = [[*base, alias.name] for alias in node.names]
        else:
            continue
        # the bare package name stands for its __init__
        out.update((path[1:] or ["__init__"])[0] for path in paths
                   if path[0] == "branching_ou")
    return out


def test_oracle_imports_only_model_and_ou():
    imports = {name: package_imports((PACKAGE / f"{name}.py").read_text())
               for name in ("tree_oracle", "ou", "model")}
    assert imports == {"tree_oracle": {"model", "ou"}, "ou": {"model"}, "model": set()}
    assert package_imports(
        "from .model import a\nfrom . import ou, simulator\nimport numpy\n"
        "import branching_ou.ustats\nfrom branching_ou.kernels import b\n"
        "import branching_ou\n"
    ) == {"model", "ou", "simulator", "ustats", "kernels", "__init__"}


def test_detector_flags_and_exempts():
    source = ("import math\nimport os  # noqa: F401\n"
              "from .a import (  # noqa: F401\n    b,\n)\n"
              "from .c import d, e\nprint(d)\n")
    assert unused_imports(source) == ["line 1: math", "line 6: e"]
