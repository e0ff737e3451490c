"""Import rules of the package, checked by a stdlib ``ast`` pass.

Every name a package module imports is used in that module: the pass
stands in for a linter's unused-import rule (F401); an import statement
carrying ``# noqa: F401`` is exempt, and a package ``__init__`` uses the
names its ``__all__`` lists.  The exact-moment oracle stays independent of
the simulator: it reaches no package module but ``model`` and ``ou``.
The package loads no scipy module at all, not on import and not in a
``wlaw`` or ``clt`` run, whose KS checks are computed in numpy: importing
``scipy.stats`` takes over a second.  Every top-level function and class
of the package has a caller outside its own unit tests: some package
module, the package ``__all__`` or a benchmark script names it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "branching_ou"
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"


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


def test_package_and_cli_import_no_scipy(tmp_path):
    # a size-law run and a slow CLT run, which go through every KS check
    params = {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0}
    wlaw = {"params": params, "t_grid": [7.0], "replicas": 100, "seed": 3}
    clt = {"params": params, "t_grid": [4.0], "replicas": 100, "seed": 3,
           "kernel": {"arity": 1, "dim": 1, "symmetric": True,
                      "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]]]}]},
           "g1": {"replicas": 100, "t": 3.0, "t_max": 6.0}}
    runs = []
    for test, raw in (("wlaw", wlaw), ("clt", clt)):
        path = tmp_path / f"{test}.json"
        path.write_text(json.dumps(raw))
        runs.append([test, "--config", str(path), "--out", str(tmp_path / test)])
    code = ("import json, sys, branching_ou, branching_ou.cli\n"
            f"codes = [branching_ou.cli.main(args) for args in {runs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, loaded = json.loads(out.splitlines()[-1])
    assert set(codes) <= {0, 1}
    assert loaded == []


def named(nodes) -> set[str]:
    """Every name the ``nodes`` mention: a variable, an attribute, an
    imported name or a string constant such as an ``__all__`` entry."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_has_a_caller():
    statements = [(path.name, node, named([node])) for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body]
    # how many top-level statements of the package name each identifier; a
    # definition that names itself (a recursion) does not count as a caller
    naming = Counter(name for _, _, names in statements for name in names)
    benchmarks = named(ast.parse(path.read_text()) for path in BENCHMARKS.glob("*.py"))
    orphans = [f"{module}: {node.name}" for module, node, names in sorted(
                   statements, key=lambda s: (s[0], s[1].lineno))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name not in benchmarks
               and naming[node.name] == int(node.name in names)]
    assert orphans == []
