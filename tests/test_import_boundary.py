"""The package's public names, its imports, and the closed form never reaching the oracle.

A fence keeps test-only code out of the package: every definition in it
has a caller there, bar a short list of planned production routes.

The boundary is checked twice.  Statically, on the ``from .X import``
statements (at any depth) of each module's source; the same walk pins
the empty runtime dependency list: every absolute import names a module
of the standard library.  At run time, in child processes: ``orbitcoh``
loads its public names on first use and each CLI command imports only
the modules it runs, so the modules a child has loaded show what its
command reaches.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbitcoh
from conftest import subprocess_env

PACKAGE = Path(orbitcoh.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The sibling modules that one source file imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def absolute_imports(path: Path) -> set[str]:
    """The top-level modules that one source file imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def import_closure(roots, graph) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def module_graph() -> dict[str, set[str]]:
    """Each package module with the sibling modules it imports from."""
    return {p.stem: package_imports(p) for p in PACKAGE.glob("*.py")}


def test_closed_form_does_not_import_the_oracle():
    graph = module_graph()
    assert {"orbit", "ring", "oracle", "verify"} <= set(graph)
    closure = import_closure(["orbit", "ring"], graph)
    assert not closure & {"oracle", "verify"}, sorted(closure)
    # the check reads what it should: verify does reach the oracle
    assert "oracle" in import_closure(["verify"], graph)


def test_oracle_does_not_import_the_closed_form():
    # verify is the only bridge: the oracle knows posets and sheaves, not
    # the orbit lattice, the ring or the cellular route it checks
    graph = module_graph()
    closure = import_closure(["oracle"], graph)
    assert {"posets", "sheaves", "intlinalg"} <= closure
    assert not closure & {"orbit", "ring", "osalg", "cellular", "morphisms", "verify"}, \
        sorted(closure)


def test_closed_form_does_not_import_the_cellular_route():
    # betti and ring compile only what the closed form runs: no import of
    # orbit, osalg or ring, at any depth and under TYPE_CHECKING too,
    # reaches the cellular code, the sheaves, the matrix code or the oracle
    graph = module_graph()
    closure = import_closure(["orbit", "osalg", "ring"], graph)
    assert {"orbit", "osalg", "ring", "posets"} <= closure
    excluded = {"cellular", "sheaves", "intlinalg", "morphisms", "oracle", "verify"}
    assert not closure & excluded, sorted(closure)
    # the product route compares against the nbc basis, not the oracle
    route = import_closure(["morphisms"], graph)
    assert {"cellular", "osalg", "sheaves"} <= route
    assert not route & {"oracle", "verify"}, sorted(route)


def loaded_modules(code: str, *argv: str, cwd=None) -> set[str]:
    """The ``orbitcoh`` submodules a child process has loaded after ``code``."""
    probe = (f"import sys\n{code}\n"
             "print(*sorted(m for m in sys.modules if m.startswith('orbitcoh.')))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=subprocess_env(), cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("orbitcoh.") for m in proc.stdout.splitlines()[-1].split()}


CLOSED_FORM = ["--complete", "2", "--k", "2", "--m", "2"]
RUN_CLI = "from orbitcoh.cli import main\nassert main(sys.argv[1:]) == 0"
CLOSED_FORM_RUNS = {"orbit", "osalg", "posets", "ring"}


@pytest.mark.parametrize("argv, runs, unloaded", [
    (["betti", *CLOSED_FORM], CLOSED_FORM_RUNS,
     {"oracle", "verify", "intlinalg", "sheaves", "cellular", "morphisms"}),
    (["ring", *CLOSED_FORM], CLOSED_FORM_RUNS,
     {"oracle", "verify", "intlinalg", "sheaves", "cellular", "morphisms"}),
    (["verify", *CLOSED_FORM],
     CLOSED_FORM_RUNS | {"oracle", "verify", "intlinalg", "sheaves"},
     {"cellular", "morphisms"}),
    (["cellular", "--poset", "p.json", "--copresheaf", "g.json"],
     {"cellular", "intlinalg", "posets", "sheaves"},
     {"orbit", "ring", "osalg", "oracle", "verify", "morphisms"}),
], ids=["betti", "ring", "verify", "cellular"])
def test_command_loads_only_what_it_runs(tmp_path, argv, runs, unloaded):
    (tmp_path / "p.json").write_text(json.dumps(
        {"elements": ["a", "b"], "covers": [["a", "b"]], "rank": [0, 1]}))
    (tmp_path / "g.json").write_text(json.dumps({"ranks": [1, 1],
                                                 "extensions": {"a->b": [[1]]}}))
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    code = RUN_CLI + "\nassert 'dataclasses' not in sys.modules, 'dataclasses loaded'"
    loaded = loaded_modules(code, *argv, cwd=tmp_path)
    assert {"cli", "jsonio"} | runs <= loaded, sorted(loaded)
    assert not loaded & unloaded, sorted(loaded)


def test_runtime_closed_form_does_not_load_the_oracle():
    loaded = loaded_modules("import orbitcoh.orbit, orbitcoh.ring")
    assert {"orbit", "ring"} <= loaded
    assert not loaded & {"oracle", "verify"}, sorted(loaded)
    # the probe sees what it should: verify does load the oracle
    loaded = loaded_modules(RUN_CLI, "verify", *CLOSED_FORM)
    assert {"oracle", "verify"} <= loaded


def test_runtime_imports_are_stdlib_only():
    imported = {p.name: absolute_imports(p) for p in PACKAGE.glob("*.py")}
    outside = {name: sorted(mods - sys.stdlib_module_names)
               for name, mods in imported.items() if mods - sys.stdlib_module_names}
    assert not outside, outside
    # the walk sees absolute imports at all
    assert {"heapq", "__future__"} <= imported["intlinalg.py"]


def test_orbit_imports_only_posets():
    # the closed-form lattice code loads no cellular, sheaf or matrix code,
    # at module level or inside a function
    orbit = PACKAGE / "orbit.py"
    assert package_imports(orbit) == {"posets"}
    assert "orbitcoh" not in absolute_imports(orbit)


# Definitions with no caller in the package yet, each a planned production route.
UNCALLED = {
    "os_vs_cellular": "the product route in morphisms, for the ring at m = 1 (ROADMAP item 11)",
    "check_commutes": "its form-morphism check in morphisms, also for products on a "
                      "resolution (item 20)",
    "cohomology": "the assembled Goresky-MacPherson sum, for a real-mode verify (item 8)",
    "cup": "GMOracle.cup, which perfbench/layers.py wraps for the oracle.cup_* counts",
}


def name_uses(tree, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often each name occurs as a node of the given kinds in a tree."""
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                   for node in ast.walk(tree) if isinstance(node, kinds))


def test_every_definition_has_a_caller_in_the_package():
    # a use inside the definition's own body (recursion) does not count,
    # and special methods are called by the language, not by name; a
    # method counts only as an attribute, so a local or a parameter of
    # the same name does not stand in for a call to it
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {id(item) for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, defs)}
    uses = {kinds: sum((name_uses(tree, kinds) for tree in trees), Counter())
            for kinds in [(ast.Name, ast.Attribute), (ast.Attribute,)]}
    uncalled = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, defs) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            kinds = (ast.Attribute,) if id(node) in methods else (ast.Name, ast.Attribute)
            if uses[kinds][node.name] <= name_uses(node, kinds)[node.name]:
                uncalled.add(node.name)
    assert uncalled == set(UNCALLED)


PUBLIC = [
    "CellularForm", "ChainComplex", "Copresheaf", "FHom", "GMOracle",
    "GradedPoset", "Graph", "HomologySummary", "NotCellular",
    "OSAlgebra", "PartialMatrix", "Presheaf", "RingPresentation",
    "TorComplex", "bond_lattice", "cellular",
    "construct_cellular_form", "delta_sheaf",
    "form_morphism", "homology", "intlinalg", "join",
    "join_theta", "morphisms", "oracle", "orbit",
    "os_vs_cellular", "osalg", "phi_product", "posets",
    "product_form", "product_poset", "ring", "sheaves",
    "smith_normal_form", "star_fhom", "verify", "verify_cellular_form",
    "verify_full",
]


def test_public_names_are_pinned():
    # one name per object: no alias or wrapper re-exports what another
    # public name already builds
    assert sorted(orbitcoh.__all__) == PUBLIC
    assert len(PUBLIC) == 39


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from orbitcoh import *", namespace)
    assert all(name in namespace for name in PUBLIC)
    assert namespace["Graph"] is orbitcoh.orbit.Graph
    assert namespace["verify"] is orbitcoh.verify
