"""Cellular methods on graded posets and cohomology of orbit configuration spaces.

The public names are loaded on first use (a module ``__getattr__``), so
``import orbitcoh`` or ``import orbitcoh.cli`` does not load every module.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cellular": ["CellularForm", "NotCellular", "construct_cellular_form",
                 "verify_cellular_form"],
    "intlinalg": ["ChainComplex", "HomologySummary", "homology", "smith_normal_form"],
    "morphisms": ["FHom", "form_morphism", "os_vs_cellular", "product_form",
                  "product_poset", "star_fhom"],
    "oracle": ["GMOracle", "TorComplex"],
    "orbit": ["Graph", "PartialMatrix", "bond_lattice", "join_theta", "phi_product"],
    "osalg": ["OSAlgebra"],
    "posets": ["GradedPoset", "join"],
    "ring": ["RingPresentation"],
    "sheaves": ["Copresheaf", "Presheaf", "delta_sheaf"],
    "verify": ["verify_full"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
