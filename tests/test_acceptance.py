"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one PASS line on success; run with -s (or -v) to see
the per-criterion report.
"""

import math
import random
import subprocess
import sys
import time

from conftest import (
    Dense,
    below,
    build_poset,
    cellular_chain,
    columns,
    constant_sheaf,
    path_graph,
    subprocess_env,
)
from orbitcoh.cellular import CellularForm, construct_cellular_form
from orbitcoh.intlinalg import homology
from orbitcoh.morphisms import os_vs_cellular
from orbitcoh.oracle import GMOracle, TorComplex
from orbitcoh.orbit import (
    Graph,
    IntersectionLattice,
    bond_lattice,
    edge_atom_order,
)
from orbitcoh.osalg import OSAlgebra
from orbitcoh.ring import RingPresentation, check_ring_axioms
from orbitcoh.sheaves import Copresheaf, delta_sheaf
from reference_impl import moebius
from orbitcoh.verify import verify_full


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


GRAPHS_C1 = [("K2", Graph.complete(2)), ("K3", Graph.complete(3)),
             ("path3", path_graph(3))]


def test_criterion_1_rank_formula():
    """Closed-form ranks equal brute-force Tor ranks, exactly, under 5 minutes."""
    t0 = time.time()
    checks = 0
    for name, graph in GRAPHS_C1:
        for k in (2, 3):
            rep = verify_full(graph, k, 2, oracle_limit=200)
            assert rep.ok, f"{name} k={k}:\n" + "\n".join(
                l for l in rep.lines if l.startswith("FAIL"))
            checks += rep.rank_checks
    elapsed = time.time() - t0
    assert elapsed < 300, f"rank verification took {elapsed:.0f}s"
    report(1, f"rank formula matches brute force on {checks} gradings "
              f"in {elapsed:.1f}s")


def test_criterion_2_cup_products():
    """Closed-form products equal the cross-then-star oracle on every basis pair."""
    pairs = 0
    for name, graph in [("K2", Graph.complete(2)), ("path3", path_graph(3))]:
        rep = verify_full(graph, 2, 2, oracle_limit=200)
        assert rep.ok, f"{name}:\n" + "\n".join(
            l for l in rep.lines if l.startswith("FAIL"))
        pairs += rep.product_checks
    report(2, f"cup products match the oracle on {pairs} basis pairs")


def config_space_poincare(n, m):
    coeffs = [1]
    for i in range(1, n):
        new = [0] * (len(coeffs) + 2 * m - 1)
        for d, c in enumerate(coeffs):
            new[d] += c
            new[d + 2 * m - 1] += i * c
        coeffs = new
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_criterion_3_k1_reduction():
    """k = 1 gives the classical configuration space Poincare polynomial."""
    for n in (2, 3, 4):
        for m in (2, 3):
            pres = RingPresentation(Graph.complete(n), 1, m)
            assert pres.poincare_polynomial() == config_space_poincare(n, m)
    report(3, "k = 1 reduces to prod (1 + i t^(2m-1)) for n <= 4, m in {2, 3}")


def test_criterion_4_os_cross_check():
    """The generic construction reproduces nbc ranks (n <= 5) and products (n <= 4)."""
    for n in (3, 4, 5):
        graph = Graph.complete(n)
        lat = bond_lattice(graph)
        bot = lat.labels[lat.minimum()]
        form = construct_cellular_form(lat, delta_sheaf(lat, [bot], 1, "co"))
        assert isinstance(form, CellularForm)
        alg = OSAlgebra(lat, edge_atom_order(graph))
        for lab in lat.labels:
            assert form.rank_of(lab) == alg.piece_rank(lab)
        assert sum(form.piece_ranks) == math.factorial(n)
    pairs = 0
    for n in (3, 4):
        graph = Graph.complete(n)
        rep = os_vs_cellular(bond_lattice(graph),
                             atom_order=edge_atom_order(graph))
        pairs += rep.product_pairs
    report(4, f"nbc piece ranks (n <= 5) and {pairs} structure constants "
              f"(n <= 4) reproduced")


# -- criterion 5: randomized equivalence --------------------------------------


def random_layered_poset(rng, max_rank=3, max_width=3):
    widths = [rng.randrange(1, max_width + 1)
              for _ in range(rng.randrange(2, max_rank + 1))]
    labels = []
    rank = {}
    covers = []
    for r, w in enumerate(widths):
        for i in range(w):
            lab = f"r{r}n{i}"
            labels.append(lab)
            rank[lab] = r
            if r:
                lows = [f"r{r - 1}n{j}" for j in range(widths[r - 1])]
                picked = rng.sample(lows, rng.randrange(1, len(lows) + 1))
                covers.extend((lo, lab) for lo in picked)
    return build_poset(labels, covers, rank)


def rank_pullback_copresheaf(rng, poset, max_value_rank=2):
    """Pull a random chain copresheaf back along the rank map.

    Chains have a unique path between comparable elements, so arbitrary
    matrices are functorial, and so is their pullback.
    """
    top = max(poset.rank)
    values = [rng.randrange(1, max_value_rank + 1) for _ in range(top + 1)]
    steps = []
    for r in range(top):
        rows = [[rng.randrange(-2, 3) for _ in range(values[r])]
                for _ in range(values[r + 1])]
        steps.append(columns(Dense(values[r + 1], values[r], rows)))
    maps = {}
    for lo, hi in poset.covers:
        maps[(lo, hi)] = steps[poset.rank[lo]]
    return Copresheaf(poset, [values[poset.rank[i]] for i in range(poset.n)],
                      maps)


def random_presheaf(rng, poset):
    choice = rng.randrange(3)
    if choice == 0:
        return constant_sheaf(poset, rng.randrange(1, 3), "pre")
    if choice == 1:
        x = poset.labels[rng.randrange(poset.n)]
        return delta_sheaf(poset, [x], 1, "pre")
    x = poset.labels[rng.randrange(poset.n)]
    return delta_sheaf(poset, below(poset, x), rng.randrange(1, 3), "pre")


def random_instances(rng, count):
    """Mix of random pairs; some cellular, some not, by construction."""
    out = []
    while len(out) < count:
        style = rng.randrange(4)
        poset = random_layered_poset(rng)
        if poset.n > 60:
            continue
        if style == 0:
            g = constant_sheaf(poset, 1, "co")
        elif style == 1:
            g = rank_pullback_copresheaf(rng, poset)
        elif style == 2:
            x = poset.labels[rng.randrange(poset.n)]
            g = delta_sheaf(poset, [lab for lab in poset.labels
                                    if poset.leq(poset.index[x],
                                                 poset.index[lab])],
                            1, "co")
        else:
            mins = [lab for i, lab in enumerate(poset.labels)
                    if poset.rank[i] == 0]
            g = delta_sheaf(poset, mins[:1], 1, "co")
        out.append((poset, g, random_presheaf(rng, poset)))
    return out


def test_criterion_5_randomized_equivalence():
    """Cellular chain homology equals K-homology; verdicts agree with Tor."""
    rng = random.Random(20260810)
    instances = random_instances(rng, 26)
    succeeded = failed = 0
    for poset, g, f in instances:
        assert poset.n <= 60
        verdict = construct_cellular_form(poset, g)
        if isinstance(verdict, CellularForm):
            succeeded += 1
            h_cell = homology(cellular_chain(verdict, f))
            h_k = TorComplex(poset, g, f).homology()
            top = max(len(h_cell.groups), len(h_k.groups))
            for n in range(top):
                assert h_cell.betti(n) == h_k.betti(n), (poset.labels, n)
                assert h_cell.torsion(n) == h_k.torsion(n)
        else:
            failed += 1
            off_rank = False
            for i, lab in enumerate(poset.labels):
                dx = delta_sheaf(poset, [lab], 1, "pre")
                h = TorComplex(poset, g, dx).homology()
                for n, (b, tors) in enumerate(h.groups):
                    if (b or tors) and n != poset.rank[i]:
                        off_rank = True
                if off_rank:
                    break
            assert off_rank, f"false negative at {verdict}"
    assert succeeded >= 5 and failed >= 5, (succeeded, failed)
    report(5, f"{succeeded} cellular and {failed} non-cellular verdicts, "
              f"all matching the brute force")


def test_criterion_6_ring_axioms():
    """Graded commutativity and associativity for n = 2, 3 complete graphs."""
    for n in (2, 3):
        pres = RingPresentation(Graph.complete(n), 2, 2)
        stats = check_ring_axioms(pres)
        assert stats["pairs"] == len(pres.basis) ** 2
    report(6, "graded commutativity and associativity on all pairs/triples")


def test_criterion_7_real_case():
    """Gr Poincare 1 + 9t over Z/2 equals real-mode oracle dimensions."""
    pres = RingPresentation(Graph.complete(2), 2, 2, "real")
    assert pres.poincare_polynomial() == [1, 9]
    il = IntersectionLattice(Graph.complete(2), 2, 2)
    dims = GMOracle(il.poset, il.codim, mode="real").cohomology()
    top = max(dims)
    vec = [dims.get(d, 0) for d in range(top + 1)]
    assert vec == [1, 9]
    report(7, "real associated graded Poincare 1 + 9t matches the Z/2 oracle")


def test_criterion_8_moebius():
    """mu(bottom, top) of the partition lattice is (-1)^(n-1) (n-1)!."""
    for n in range(2, 7):
        lat = bond_lattice(Graph.complete(n))
        bot = lat.labels[lat.minimum()]
        top = tuple([tuple(range(1, n + 1))])
        assert moebius(lat, bot, top) == (-1) ** (n - 1) * math.factorial(n - 1)
    report(8, "mu(0, 1) = (-1)^(n-1) (n-1)! for n <= 6")


def test_criterion_9_determinism(tmp_path):
    """Two CLI runs produce byte-identical output, across hash seeds."""
    for command in (["betti", "--complete", "2", "--k", "2", "--m", "2"],
                    ["ring", "--complete", "2", "--k", "2", "--m", "2",
                     "--mode", "real"]):
        blobs = []
        for seed in ("7", "31337"):
            proc = subprocess.run([sys.executable, "-m", "orbitcoh.cli"]
                                  + command, capture_output=True,
                                  env=subprocess_env(PYTHONHASHSEED=seed))
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append(proc.stdout)
        assert blobs[0] == blobs[1]
    report(9, "CLI output is byte-identical across runs and hash seeds")
