"""The package's public names, its imports, and the closed form never reaching the oracle.

``orbitcoh/__init__.py`` imports every module, so importing ``orbit``
loads ``oracle`` anyway; the boundary is checked statically instead, on
the ``from .X import`` statements (at any depth) of each module's source.
The same walk pins the empty runtime dependency list: every absolute
import names a module of the standard library.
"""

import ast
import sys
from pathlib import Path

import orbitcoh

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


def test_closed_form_does_not_import_the_oracle():
    graph = {p.stem: package_imports(p) for p in PACKAGE.glob("*.py")}
    assert {"orbit", "ring", "oracle", "verify"} <= set(graph)
    closure = import_closure(["orbit", "ring"], graph)
    assert not closure & {"oracle", "verify"}, sorted(closure)
    # the check reads what it should: verify does reach the oracle
    assert "oracle" in import_closure(["verify"], graph)


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
