"""What the traced run wraps, and the per-layer metrics it reports.

A layer is an ``orbitcoh`` module.  ``TARGETS`` lists the public
callables wrapped in each, as ``(module, qualname, group, count)``:
spans of one group add up to one ``<group>_s`` self time and one
``<group>_calls`` count.  ``count(counters, args, result)`` records the
sizes and outcomes that ratios are built from.

``PER_LAYER`` gives each reported metric its unit, how it is computed
from the traced spans and counters, and which end-to-end metric on which
workload it should move.
"""

from __future__ import annotations


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _lkm_elements(c, args, result):
    _add(c, "lkm_elements", args[0].poset.n)


def _independent(c, args, result):
    _add(c, "independent", int(bool(result)))


def _nbc_monomials(c, args, result):
    _add(c, "nbc_monomials", sum(len(v) for v in args[0].nbc.values()))


def _ring_basis(c, args, result):
    _add(c, "basis_size", len(args[0].basis))
    _add(c, "gradings", len(args[0].matrices))


def _nonzero_product(c, args, result):
    _add(c, "nonzero_products", int(bool(result)))


def _axiom_triples(c, args, result):
    _add(c, "axiom_triples", result["triples"])


def _chains(c, args, result):
    _add(c, "chains", sum(len(chs) for chs in args[0].chains))


def _piece_rank(c, args, result):
    _add(c, "total_piece_rank", sum(getattr(result, "piece_ranks", ())))


def _out_bytes(c, args, result):
    _add(c, "out_bytes", len(result.encode()))


O, I = "orbitcoh.orbit", "orbitcoh.intlinalg"
TARGETS = [
    (O, "bond_lattice", "orbit.lattice", None),
    (O, "build_lkm", "orbit.lattice", None),
    (O, "OrbitLattice.__init__", "orbit.lattice", _lkm_elements),
    (O, "IntersectionLattice.__init__", "orbit.lattice", None),
    (O, "fiber_matrices", "orbit.fiber", None),
    (O, "bcp_assignments", "orbit.fiber", None),
    (O, "bcp_basis_element", "orbit.fiber", None),
    (O, "join_theta", "orbit.join_theta", None),
    (O, "independence", "orbit.independence", _independent),
    (O, "phi_product", "orbit.phi_product", None),
    ("orbitcoh.osalg", "OSAlgebra.__init__", "osalg.build", _nbc_monomials),
    ("orbitcoh.osalg", "OSAlgebra.multiply_monomials", "osalg.multiply", None),
    ("orbitcoh.ring", "RingPresentation.__init__", "ring.basis", _ring_basis),
    ("orbitcoh.ring", "RingPresentation.cup_basis", "ring.products", _nonzero_product),
    ("orbitcoh.ring", "check_ring_axioms", "ring.axioms", _axiom_triples),
    ("orbitcoh.oracle", "TorComplex.__init__", "oracle.complex", _chains),
    ("orbitcoh.oracle", "TorComplex.homology", "oracle.homology", None),
    ("orbitcoh.oracle", "TorComplex.is_cycle", "oracle.is_cycle", None),
    ("orbitcoh.oracle", "TorDegree.__init__", "oracle.tor", None),
    ("orbitcoh.oracle", "TorDegree.class_coords", "oracle.class_coords", None),
    ("orbitcoh.oracle", "GMOracle.cup", "oracle.cup", None),
    ("orbitcoh.verify", "theta_cycle", "verify.theta_cycle", None),
    ("orbitcoh.verify", "verify_full", "verify.self", None),
    (I, "IntMatrix.apply", "intlinalg.apply", None),
    (I, "SNFSolver.__init__", "intlinalg.solve", None),
    (I, "SNFSolver.solve", "intlinalg.solve", None),
    (I, "smith_normal_form", "intlinalg.snf", None),
    (I, "kernel_basis", "intlinalg.kernel", None),
    (I, "elementary_divisors", "intlinalg.divisors", None),
    (I, "homology", "intlinalg.divisors", None),
    ("orbitcoh.cellular", "construct_cellular_form", "cellular.construct", _piece_rank),
    ("orbitcoh.posets", "GradedPoset.__init__", "posets.build", None),
    ("orbitcoh.posets", "moebius", "posets.moebius", None),
    ("orbitcoh.sheaves", "_SheafBase.__init__", "sheaves.build", None),
    ("orbitcoh.jsonio", "load_json", "jsonio.parse", None),
    ("orbitcoh.jsonio", "parse_graph", "jsonio.parse", None),
    ("orbitcoh.jsonio", "parse_poset", "jsonio.parse", None),
    ("orbitcoh.jsonio", "parse_copresheaf", "jsonio.parse", None),
    ("orbitcoh.jsonio", "dumps", "jsonio.dumps", _out_bytes),
    ("orbitcoh.cli", "main", "cli.self", None),
]


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{qualname}"


GROUP_OF = {span_name(module, qualname): group for module, qualname, group, _ in TARGETS}


def tracer_targets():
    """``TARGETS`` in the form ``Tracer.installed`` takes: spans named per callable."""
    return [(module, qualname, span_name(module, qualname), count)
            for module, qualname, _, count in TARGETS]


def _self(group):
    return lambda t: t["self_s"].get(group, 0.0)


def _calls(group):
    return lambda t: t["calls"].get(group, 0)


def _counter(key):
    return lambda t: t["counters"].get(key, 0)


def _ratio(key, group):
    def ratio(t):
        base = t["calls"].get(group, 0)
        return t["counters"].get(key, 0) / base if base else 0.0
    return ratio


RV, BC = "ring-verify", "betti-cellular"

# (metric, unit, value from the aggregated trace, what it should move)
PER_LAYER = [
    ("orbit.lattice_s", "s", _self("orbit.lattice"), f"wall_s@{RV}"),
    ("orbit.lkm_elements", "count", _counter("lkm_elements"), f"wall_s@{RV}"),
    ("orbit.fiber_s", "s", _self("orbit.fiber"), f"wall_s,peak_rss_mb@{BC}"),
    ("orbit.join_theta_calls", "count", _calls("orbit.join_theta"), f"wall_s@{RV}"),
    ("orbit.join_theta_s", "s", _self("orbit.join_theta"), f"wall_s@{RV}"),
    ("orbit.independence_calls", "count", _calls("orbit.independence"), f"wall_s@{RV}"),
    ("orbit.independent_ratio", "ratio", _ratio("independent", "orbit.independence"),
     f"wall_s@{RV}"),
    ("orbit.phi_product_calls", "count", _calls("orbit.phi_product"), f"wall_s@{RV}"),
    ("orbit.phi_product_s", "s", _self("orbit.phi_product"), f"wall_s@{RV}"),
    ("osalg.build_s", "s", _self("osalg.build"), f"wall_s@{BC}"),
    ("osalg.nbc_monomials", "count", _counter("nbc_monomials"), f"wall_s@{BC}"),
    ("osalg.multiply_calls", "count", _calls("osalg.multiply"), f"wall_s@{RV}"),
    ("osalg.multiply_s", "s", _self("osalg.multiply"), f"wall_s@{RV}"),
    ("ring.basis_s", "s", _self("ring.basis"), f"wall_s,peak_rss_mb@{BC}"),
    ("ring.basis_size", "count", _counter("basis_size"), f"wall_s,peak_rss_mb@{BC}"),
    ("ring.gradings", "count", _counter("gradings"), f"wall_s,peak_rss_mb@{BC}"),
    ("ring.products_s", "s", _self("ring.products"), f"wall_s@{RV}"),
    ("ring.pairs", "count", _calls("ring.products"), f"wall_s@{RV}"),
    ("ring.nonzero_ratio", "ratio", _ratio("nonzero_products", "ring.products"),
     f"wall_s@{RV}"),
    ("ring.axioms_s", "s", _self("ring.axioms"), f"wall_s@{RV}"),
    ("ring.axiom_triples", "count", _counter("axiom_triples"), f"wall_s@{RV}"),
    ("oracle.complex_s", "s", _self("oracle.complex"), f"wall_s@{RV}"),
    ("oracle.chains", "count", _counter("chains"), f"wall_s@{RV}"),
    ("oracle.homology_s", "s", _self("oracle.homology"), f"wall_s@{RV}"),
    ("oracle.tor_s", "s", _self("oracle.tor"), f"wall_s@{RV}"),
    ("oracle.class_coords_calls", "count", _calls("oracle.class_coords"), f"wall_s@{RV}"),
    ("oracle.class_coords_s", "s", _self("oracle.class_coords"), f"wall_s@{RV}"),
    ("oracle.cup_calls", "count", _calls("oracle.cup"), f"wall_s@{RV}"),
    ("oracle.cup_s", "s", _self("oracle.cup"), f"wall_s@{RV}"),
    ("oracle.is_cycle_calls", "count", _calls("oracle.is_cycle"), f"wall_s@{RV}"),
    ("verify.theta_cycle_calls", "count", _calls("verify.theta_cycle"), f"wall_s@{RV}"),
    ("verify.theta_cycle_s", "s", _self("verify.theta_cycle"), f"wall_s@{RV}"),
    ("verify.self_s", "s", _self("verify.self"), f"wall_s@{RV}"),
    ("intlinalg.apply_calls", "count", _calls("intlinalg.apply"), f"wall_s@{RV}"),
    ("intlinalg.apply_s", "s", _self("intlinalg.apply"), f"wall_s@{RV}"),
    ("intlinalg.solve_s", "s", _self("intlinalg.solve"), f"wall_s@{RV}"),
    ("intlinalg.snf_calls", "count", _calls("intlinalg.snf"), f"wall_s@{BC},{RV}"),
    ("intlinalg.snf_s", "s", _self("intlinalg.snf"), f"wall_s@{BC},{RV}"),
    ("intlinalg.kernel_s", "s", _self("intlinalg.kernel"), f"wall_s@{BC},{RV}"),
    ("intlinalg.divisors_s", "s", _self("intlinalg.divisors"), f"wall_s@{BC},{RV}"),
    ("cellular.construct_s", "s", _self("cellular.construct"), f"wall_s@{BC}"),
    ("cellular.total_piece_rank", "count", _counter("total_piece_rank"), f"wall_s@{BC}"),
    ("posets.build_s", "s", _self("posets.build"), f"setup_s@{BC}"),
    ("posets.moebius_calls", "count", _calls("posets.moebius"), f"wall_s@{RV}"),
    ("sheaves.build_s", "s", _self("sheaves.build"), f"setup_s@{BC};wall_s@{RV}"),
    ("jsonio.parse_s", "s", _self("jsonio.parse"), "setup_s@all"),
    ("jsonio.dumps_s", "s", _self("jsonio.dumps"), "wall_s@all"),
    ("jsonio.out_bytes", "bytes", _counter("out_bytes"), "wall_s@all"),
    ("cli.self_s", "s", _self("cli.self"), "wall_s@all"),
]


def aggregate(summaries) -> dict:
    """Sum per-span-name summaries and counters into per-group totals."""
    out = {"self_s": {}, "calls": {}, "counters": {}}
    for spans, counters in summaries:
        for name, entry in spans.items():
            group = GROUP_OF[name]
            out["self_s"][group] = out["self_s"].get(group, 0.0) + entry["self_s"]
            out["calls"][group] = out["calls"].get(group, 0) + entry["calls"]
        for key, value in counters.items():
            out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def layer_metrics(traced) -> dict[str, float]:
    return {name: value(traced) for name, _, value, _ in PER_LAYER}
