"""Cellular methods on graded posets and cohomology of orbit configuration spaces."""

from .cellular import (
    CellularForm,
    NotCellular,
    cellular_chain,
    construct_cellular_form,
    form_morphism,
    product_form,
    verify_cellular_form,
)
from .intlinalg import (
    ChainComplex,
    HomologySummary,
    IntMatrix,
    homology,
    smith_normal_form,
)
from .oracle import GMOracle, TorComplex
from .orbit import (
    Graph,
    PartialMatrix,
    bond_lattice,
    build_lkm,
    independence,
    join_theta,
    perm_sign,
    phi_product,
)
from .osalg import OSAlgebra, os_vs_cellular
from .posets import GradedPoset, build_poset, join, moebius, product_poset
from .ring import RingPresentation
from .sheaves import Copresheaf, FHom, Presheaf, delta_sheaf, pullback, star_fhom
from .verify import verify_full

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
