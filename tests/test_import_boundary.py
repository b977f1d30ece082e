"""The package's public names, its imports, and the closed form never reaching the oracle.

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
    assert not closure & {"orbit", "ring", "osalg", "cellular", "verify"}, sorted(closure)


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
     {"oracle", "verify", "intlinalg", "sheaves", "cellular"}),
    (["ring", *CLOSED_FORM], CLOSED_FORM_RUNS,
     {"oracle", "verify", "intlinalg", "sheaves", "cellular"}),
    (["verify", *CLOSED_FORM],
     CLOSED_FORM_RUNS | {"oracle", "verify", "intlinalg", "sheaves"}, {"cellular"}),
    (["cellular", "--poset", "p.json", "--copresheaf", "g.json"],
     {"cellular", "intlinalg", "posets", "sheaves"},
     {"orbit", "ring", "osalg", "oracle", "verify"}),
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


PUBLIC = [
    "CellularForm", "ChainComplex", "Copresheaf", "FHom", "GMOracle",
    "GradedPoset", "Graph", "HomologySummary", "IntMatrix", "NotCellular",
    "OSAlgebra", "PartialMatrix", "Presheaf", "RingPresentation",
    "TorComplex", "bond_lattice", "build_lkm", "build_poset", "cellular",
    "cellular_chain", "construct_cellular_form", "delta_sheaf",
    "form_morphism", "homology", "independence", "intlinalg", "join",
    "join_theta", "moebius", "oracle", "orbit",
    "os_vs_cellular", "osalg", "perm_sign", "phi_product", "posets",
    "product_form", "product_poset", "pullback", "ring", "sheaves",
    "smith_normal_form", "star_fhom", "verify", "verify_cellular_form",
    "verify_full",
]


def test_public_names_are_pinned():
    # one name per object: no alias or wrapper re-exports what another
    # public name already builds
    assert sorted(orbitcoh.__all__) == PUBLIC
    assert len(PUBLIC) == 46


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from orbitcoh import *", namespace)
    assert all(name in namespace for name in PUBLIC)
    assert namespace["Graph"] is orbitcoh.orbit.Graph
    assert namespace["verify"] is orbitcoh.verify
