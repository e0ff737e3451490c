"""Import rules of the package, checked by a stdlib ``ast`` pass.

Every name a package module imports is used in that module: the pass
stands in for a linter's unused-import rule (F401); an import statement
carrying ``# noqa: F401`` is exempt, and a package ``__init__`` uses the
names its ``__all__`` lists.  The exact-moment oracle stays independent of
the simulator: it reaches no package module but ``model`` and ``ou``.
The package loads no scipy module at all, not on import and not in a
``wlaw`` or ``clt`` run, whose KS checks are computed in numpy: importing
``scipy.stats`` takes over a second.  Each refusal has one owner: only
``kernels.index_chunks`` reads ``BLACKBOX_BUDGET``, and only
``ExperimentConfig.__post_init__`` calls ``parse_kernel_spec``.  Only
``model`` reads the branching parameters ``lam`` and ``p``: the other
layers take the population law from it.  A cache without a bound takes no
argument or only an arity ``n``, and no cache holds a single entry, whose
hits would depend on the call order.  The oracle's plan cache takes the
factor tuple alone, so it cannot hold results at repeated (t, params).  Every
top-level function, class and non-dunder assignment of the package has a
caller outside its own unit tests: some package module, the package
``__all__`` or a benchmark script names it.  An import kept only for the
benchmark (``# noqa: F401``) binds a name its module uses or the benchmark
tracer patches.  Stationary integrals of a slot take one route, its Hermite
array: only ``ou`` may import ``numpy.polynomial.hermite_e``, no module
calls ``np.apply_along_axis`` or ``np.vectorize``, and the oracle, which
keeps its own Isserlis path, names neither the array nor ``phi_mean``.  The
farm places its particles by replica without a sort: ``simulator`` calls no
``argsort`` or ``sort``.  It takes its motion only from ``ou``: it imports
``clock`` and ``stationary_std`` from there and nothing else, and its batch
calls the clock.  The statistics merge no slots by a product polynomial:
``ustats`` calls neither ``substitute_partition``, ``Factor.times`` nor
``poly_times``.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import load_tracer

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


def owners(source: str, name: str, calls: bool = False) -> list[str]:
    """The dotted scopes (function or class names, ``<module>`` at the top)
    in which ``source`` reads ``name``, importing it included, or with
    ``calls`` calls it."""
    def hit(node) -> bool:
        if calls:
            func = node.func if isinstance(node, ast.Call) else None
            return (isinstance(func, ast.Name) and func.id == name
                    or isinstance(func, ast.Attribute) and func.attr == name)
        return (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name)

    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif hit(child):
                out.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def test_one_owner_per_refusal():
    # one place refuses a black-box enumeration past its budget, and one
    # place parses a config's kernel, where the config checks everything else
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}

    def where(name, calls=False):
        return {f"{module}.{scope}" for module, source in sources.items()
                for scope in owners(source, name, calls)}

    assert where("BLACKBOX_BUDGET") == {"kernels.index_chunks"}
    assert where("parse_kernel_spec", calls=True) == \
        {"harness.ExperimentConfig.__post_init__"}
    source = ("from .k import B\nB = 2\ndef f():\n    return B\n"
              "class C:\n    def g(self):\n        return k.B(B)\n")
    assert owners(source, "B") == ["<module>", "f", "C.g", "C.g"]
    assert owners(source, "B", calls=True) == ["C.g"]


def law_reads(source: str) -> list[str]:
    """``line: .name`` for each attribute named ``lam`` or ``p`` that
    ``source`` reads, in ``ast.walk`` order."""
    return [f"line {node.lineno}: .{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("lam", "p")]


def test_only_model_reads_the_branching_parameters():
    # the rates and Kendall's closed forms have one home, so a module that
    # needs them reads ``model``, never ``params.lam`` or ``params.p``
    found = {path.stem: law_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "model"}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert law_reads("def f(params):\n    return params.lam * params.p\n") == \
        ["line 2: .lam", "line 2: .p"]
    assert law_reads("x = ModelParams(lam=1.0, p=0.75)\nlam, p = 1.0, 0.75\n"
                     "print(p, lam)\n") == []


def unbounded_caches(source: str) -> dict[str, list[str]]:
    """{function: its argument names} for each function of ``source`` whose
    cache has no bound: ``functools.cache`` or ``lru_cache(maxsize=None)``."""
    def unbounded(decorator) -> bool:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            sizes = decorator.args[:1] + [k.value for k in decorator.keywords
                                          if k.arg == "maxsize"]
            return name == "lru_cache" and any(
                isinstance(v, ast.Constant) and v.value is None for v in sizes)
        name = decorator.attr if isinstance(decorator, ast.Attribute) else \
            getattr(decorator, "id", "")
        return name == "cache"

    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(map(unbounded, node.decorator_list)):
            a = node.args
            out[node.name] = [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg,
                                                  *a.kwonlyargs, a.kwarg) if arg]
    return out


def test_unbounded_caches_take_only_an_arity():
    # a cache without a bound may grow with the arities (at most
    # MAX_ARITY entries), never with user data such as factors or kernels
    found = {f"{path.stem}.{name}": args for path in sorted(PACKAGE.glob("*.py"))
             for name, args in unbounded_caches(path.read_text()).items()}
    assert {name: args for name, args in found.items() if args not in ([], ["n"])} == {}
    assert {"cli._build_parser", "ustats.partition_coefficients",
            "tree_oracle._trees"} <= set(found)
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef a(n): pass\n@cache\ndef b(): pass\n"
              "@lru_cache(None)\ndef c(x, *y, z): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef d(**w): pass\n"
              "@functools.lru_cache(maxsize=8)\ndef e(f): pass\n"
              "@lru_cache\ndef g(f): pass\n")
    assert unbounded_caches(source) == {"a": ["n"], "b": [], "c": ["x", "y", "z"],
                                        "d": ["w"]}


def test_oracle_plan_is_keyed_on_the_factors_alone():
    # the plan serves every (t, params); a horizon or a parameter in its key
    # would turn it into a cache of results at repeated inputs
    from branching_ou import tree_oracle

    arguments = inspect.signature(tree_oracle._plan).parameters.values()
    assert [(a.name, a.kind, a.default) for a in arguments] == \
        [("factors", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)]
    assert tree_oracle._plan.cache_info().maxsize == 8


def single_entry_caches(source: str) -> list[str]:
    """The functions of ``source`` cached with ``lru_cache(maxsize=1)``."""
    def single(decorator) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords
                                      if k.arg == "maxsize"]
        return name == "lru_cache" and any(
            isinstance(v, ast.Constant) and v.value == 1 for v in sizes)

    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and any(map(single, node.decorator_list))]


def test_no_cache_holds_one_entry():
    # a one-entry cache hits only while its callers keep equal arguments
    # together, so its use depends on the order of calls elsewhere
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in single_entry_caches(path.read_text())]
    assert found == []
    source = ("import functools\nfrom functools import lru_cache\n"
              "@functools.lru_cache(maxsize=1)\ndef a(x): pass\n"
              "@lru_cache(1)\ndef b(x): pass\n"
              "@functools.lru_cache(maxsize=8)\ndef c(x): pass\n"
              "@functools.cache\ndef d(n): pass\n@lru_cache\ndef e(x): pass\n")
    assert single_entry_caches(source) == ["a", "b"]


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


def defined(node) -> list[str]:
    """The names a top-level statement defines: a function, a class or the
    non-dunder names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def orphans(sources: dict[str, str], benchmarks: set[str]) -> list[str]:
    """``module: name`` for each definition of ``sources`` that no other
    top-level statement and no benchmark name mentions."""
    statements = [(module, node, named([node])) for module, source in sources.items()
                  for node in ast.parse(source).body]
    # how many top-level statements of the package name each identifier; a
    # definition that names itself (a recursion) does not count as a caller
    naming = Counter(name for _, _, names in statements for name in names)
    return [f"{module}: {name}" for module, node, names in sorted(
                statements, key=lambda s: (s[0], s[1].lineno))
            for name in defined(node)
            if name not in benchmarks and naming[name] == int(name in names)]


def benchmark_names() -> set[str]:
    return named(ast.parse(path.read_text()) for path in BENCHMARKS.glob("*.py"))


def test_every_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert orphans(sources, benchmark_names()) == []


def test_orphan_detector_flags_assignments():
    sources = {"a.py": "X = 1\nY: int = 2\n__all__ = []\nZ = X\n"
                       "def f():\n    return f()\n",
               "b.py": "from .a import Y\nW = 3\n"}
    assert orphans(sources, {"W"}) == ["a.py: Z", "a.py: f"]


def benchmark_shims(source: str) -> list[str]:
    """The names a ``# noqa: F401`` import of ``source`` binds."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any("# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names]


def tracer_patched() -> set[str]:
    """The names an installed benchmark ``Tracer`` patches: module
    attributes and dictionary keys alike."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        return ({attr for _, attr, _ in tracer._patches}
                | {key for _, key, _ in tracer._dict_patches})
    finally:
        tracer.uninstall()


def test_benchmark_shims_are_used():
    # an import kept past its last use, for the tracer to patch, must be
    # used by its module or patched by the tracer; a benchmark script that
    # merely mentions the name (a subcommand string) does not keep it
    patched = tracer_patched()
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        used = {node.id for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Name)}
        stale += [f"{path.name}: {name}" for name in benchmark_shims(source)
                  if name not in used and name not in patched]
    assert benchmark_shims("from .a import (  # noqa: F401\n    b,\n)\n"
                           "from .c import d\n") == ["b"]
    assert stale == []


def identifiers(source: str) -> set[str]:
    """Every identifier ``source`` names: a variable, an attribute, a
    function, class or argument name, and each dotted part of an imported
    module or name.  String constants, docstrings among them, are not
    identifiers."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
    return out


def package_identifiers() -> dict[str, set[str]]:
    return {path.stem: identifiers(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_only_ou_imports_hermite_e():
    # the basis change to the Hermite polynomials of the stationary law
    # lives in ``ou.Factor.hermite``; another module converting on its own
    # would be a second integration route
    found = package_identifiers()
    assert {module for module, names in found.items() if "hermite_e" in names} <= {"ou"}
    for source in ("import numpy.polynomial.hermite_e\n",
                   "from numpy.polynomial import hermite_e as H\n",
                   "from numpy.polynomial.hermite_e import poly2herme\n",
                   "x = np.polynomial.hermite_e.poly2herme(c)\n"):
        assert "hermite_e" in identifiers(source)
    assert "hermite_e" not in identifiers('"""hermite_e"""\nx = "hermite_e"\n')


def test_no_module_loops_through_numpy_wrappers():
    # ``np.apply_along_axis`` and ``np.vectorize`` run a Python call per
    # row or entry; the Hermite arrays are built by one matrix per axis
    found = package_identifiers()
    banned = {"apply_along_axis", "vectorize"}
    assert {module: names & banned for module, names in found.items()
            if names & banned} == {}
    assert identifiers("np.apply_along_axis(f, 0, a)\n") == \
        {"np", "apply_along_axis", "f", "a"}
    assert identifiers("from numpy import vectorize\n@vectorize\ndef g(x): pass\n") \
        == {"numpy", "vectorize", "g", "x"}


def test_oracle_takes_no_hermite_route():
    # the oracle checks the limit laws, which read the Hermite arrays, so it
    # integrates by its own Isserlis recursion and names neither
    found = package_identifiers()["tree_oracle"]
    assert {name for name in found if "hermite" in name or name == "phi_mean"} == set()
    assert identifiers("def f(F, p):\n    return F.hermite(p)[0] + F.phi_mean(p)\n") \
        == {"f", "F", "p", "hermite", "phi_mean"}
    assert identifiers("from .ou import hermite_norms\n") == {"ou", "hermite_norms"}


def imported_from(source: str, module: str) -> set[str]:
    """The names ``source`` imports from the package module ``module``,
    relatively or by the package name."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module is not None
            and (node.level and node.module == module
                 or node.module == f"branching_ou.{module}")
            for alias in node.names}


def test_farm_sorts_nothing_and_moves_by_the_ou_clock():
    # each step's leaves come in replica order per generation, so their
    # rows follow from counts; the OU motion has one home, ``ou.clock``
    source = (PACKAGE / "simulator.py").read_text()
    assert owners(source, "argsort", calls=True) + owners(source, "sort", calls=True) == []
    assert imported_from(source, "ou") == {"clock", "stationary_std"}
    assert set(owners(source, "clock", calls=True)) == {"_run_batch"}
    toy = ("from .ou import a\nfrom branching_ou.ou import b\nfrom .model import c\n"
           "def f(x):\n    return np.argsort(x), x.sort(), sorted(x)\n")
    assert imported_from(toy, "ou") == {"a", "b"}
    assert owners(toy, "argsort", calls=True) == owners(toy, "sort", calls=True) == ["f"]


def test_statistics_merge_no_slots():
    # a statistic multiplies slot values per particle; a product polynomial
    # of merged slots cancels in float64 and grows with the merged degree
    source = (PACKAGE / "ustats.py").read_text()
    merging = ("substitute_partition", "times", "poly_times")
    assert [owners(source, name, calls=True) for name in merging] == [[], [], []]
    toy = ("from .kernels import substitute_partition  # noqa: F401\n"
           "def f(g, h, J):\n    return kernels.substitute_partition(g, J)\n"
           "class P:\n    def v(self, a, b):\n        return a.times(b), poly_times(a, b)\n")
    assert [owners(toy, name, calls=True) for name in merging] == [["f"], ["P.v"], ["P.v"]]
