"""Shared helpers: an independent partition-lattice builder used as an oracle.

Built directly from set partitions and refinement, with no imports from
the package's lattice code, so cross-checks against it are meaningful.
Also the environment for tests that run the CLI in a subprocess, a
reference shuffle cross product of formal K-chains, and the conversions
between dense matrices (``Dense``, a shape and row lists) or vectors and
the sparse columns, vectors and rows that the package takes and returns.

The rest are test constructors and references built on the package,
which the program itself never needs: posets from rank lists, chains,
down-sets and constant sheaves, pullbacks and canonical f-homomorphisms,
path graphs, cellular chains of a form, formal chains, class
coordinates, free generators and induced maps of Tor, validated partial
matrices and their defining order, the whole orbit lattice as a poset,
the explicit BCp cellular form of one fiber, and the canonical JSON text
of a document as one string (``dumps``).
"""

import io
import os
from pathlib import Path
from typing import NamedTuple

import orbitcoh
from orbitcoh.cellular import CellularForm, stack_blocks
from orbitcoh.intlinalg import ChainComplex, ColumnSolver, identity, kron, sparse_apply
from orbitcoh.jsonio import dump
from orbitcoh.morphisms import FHom
from orbitcoh.oracle import shuffle_tensor
from orbitcoh.orbit import (
    Graph,
    PartialMatrix,
    bcp_assignments,
    block_classes,
    bond_lattice,
    fiber_matrices,
    fill_entry,
    normalize_class,
    orbit_covers,
    restrict_matrix,
    zero_class,
)
from orbitcoh.posets import GradedPoset
from orbitcoh.sheaves import delta_sheaf
from reference_impl import induced_chain_map


def subprocess_env(**extra):
    """A copy of os.environ for a child that runs ``python -m orbitcoh.cli``.

    ``extra`` is applied on top. The absolute directory holding the imported
    orbitcoh package (``src`` in a checkout) goes first on PYTHONPATH, so the
    child imports the same orbitcoh as the tests whatever its working
    directory and however relative the inherited PYTHONPATH is.
    """
    env = dict(os.environ, **extra)
    root = str(Path(orbitcoh.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def dumps(data) -> str:
    """The text ``jsonio.dump`` writes for ``data``, as one string."""
    buf = io.StringIO()
    dump(data, buf)
    return buf.getvalue()


def set_partitions(n: int):
    """All partitions of {1..n} as sorted tuples of sorted tuples."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        yield tuple(sorted(rest + ((n,),)))
        for i, block in enumerate(rest):
            merged = rest[:i] + (tuple(sorted(block + (n,))),) + rest[i + 1:]
            yield tuple(sorted(merged))


def refines(p, q) -> bool:
    """True when every block of p is contained in a block of q."""
    lookup = {}
    for block in q:
        for v in block:
            lookup[v] = block
    return all(set(b) <= set(lookup[b[0]]) for b in p)


def partition_lattice(n: int) -> GradedPoset:
    """The partition lattice Pi_n ordered by refinement."""
    parts = sorted(set(set_partitions(n)))
    rank = {p: n - len(p) for p in parts}
    covers = []
    for p in parts:
        for q in parts:
            if rank[q] == rank[p] + 1 and refines(p, q):
                covers.append((p, q))
    return GradedPoset(parts, covers, rank)


def bottom(n: int):
    return tuple((i,) for i in range(1, n + 1))


def top(n: int):
    return (tuple(range(1, n + 1)),)


def cross_formal(x: dict, y: dict, g2, f2) -> dict:
    """Shuffle cross product of formal K-chains over the product poset.

    ``g2`` and ``f2`` are the sheaves of the second factor, needed to
    flatten tensor-basis indices and element pairs row-major (first factor
    major), as ``product_poset`` and ``product_sheaf`` order them.
    """
    n2 = g2.base.n
    out: dict = {}
    for (ch1, g1i, f1i), c1 in x.items():
        for (ch2, g2i, f2i), c2 in y.items():
            gflat = g1i * g2.ranks[ch2[0]] + g2i
            fflat = f1i * f2.ranks[ch2[-1]] + f2i
            pushed = shuffle_tensor([ch1], [ch2], lambda a, b: a * n2 + b)
            for chain, c in pushed.get((ch1, ch2), {}).items():
                key = (chain, gflat, fflat)
                out[key] = out.get(key, 0) + c * c1 * c2
    return {k: v for k, v in out.items() if v}


class Dense(NamedTuple):
    """A dense integer matrix for references: its shape and its rows of ints."""

    rows: int
    cols: int
    data: list


def columns(m: Dense) -> list[dict]:
    """The sparse columns {row: entry} of a dense matrix."""
    return [{i: row[j] for i, row in enumerate(m.data) if row[j]} for j in range(m.cols)]


def dense_apply(m: Dense, vec: list[int]) -> list[int]:
    """The dense product m·vec."""
    return [sum(a * v for a, v in zip(row, vec)) for row in m.data]


def sparse(vec) -> dict:
    """A dense vector as {position: entry}."""
    return {i: x for i, x in enumerate(vec) if x}


def dense(rows, ncols: int) -> list[list[int]]:
    """Sparse rows {position: entry} written out as dense lists of length `ncols`."""
    out = []
    for row in rows:
        vec = [0] * ncols
        for i, x in row.items():
            vec[i] = x
        out.append(vec)
    return out


# -- posets and sheaves ---------------------------------------------------------


def build_poset(elements, covers, rank) -> GradedPoset:
    """A poset from labels, cover pairs and a rank map or a rank list parallel to labels."""
    if not isinstance(rank, dict):
        rank = dict(zip(elements, rank))
    return GradedPoset(elements, covers, rank)


# Two squares over the same two minima, a and b, each capped at rank 2,
# and U over both caps: with the constant sheaf Z every element below U
# passes, and the complex below U has homology in degree 1 (ranks parallel
# the elements, as in a poset file).
STACKED_SQUARES = {
    "elements": ["a", "b", "c", "d", "e", "f", "T1", "T2", "U"],
    "covers": [[lo, hi] for hi in "cdef" for lo in "ab"]
    + [["c", "T1"], ["d", "T1"], ["e", "T2"], ["f", "T2"], ["T1", "U"], ["T2", "U"]],
    "rank": [0, 0, 1, 1, 1, 1, 2, 2, 3],
}


def chain_poset(length: int) -> GradedPoset:
    """The chain x0 < x1 < ... < x_length."""
    labels = [f"x{i}" for i in range(length + 1)]
    covers = [(labels[i], labels[i + 1]) for i in range(length)]
    return GradedPoset(labels, covers, {lab: i for i, lab in enumerate(labels)})


def below(poset: GradedPoset, label) -> list:
    """The labels at or below ``label``, in index order."""
    return [poset.labels[j] for j in poset.mask_elements(poset.down[poset.index[label]])]


def constant_sheaf(base: GradedPoset, rank: int, kind: str):
    return delta_sheaf(base, base.labels, rank, kind)


def pullback(f, sheaf):
    """f^*S, the composition of S with f; value at x is S(f(x))."""
    base = f.source
    ranks = [sheaf.ranks[f.image[i]] for i in range(base.n)]
    maps = {(lo, hi): sheaf.map_index(f.image[lo], f.image[hi])
            for lo, hi in base.covers}
    return type(sheaf)(base, ranks, maps)


def canonical_fhom(f, sheaf) -> FHom:
    """The identity-component f-homomorphism f^*S -> S."""
    pulled = pullback(f, sheaf)
    comps = {i: identity(pulled.ranks[i]) for i in range(f.source.n)}
    return FHom(f, pulled, sheaf, comps)


def cellular_chain(form: CellularForm, f) -> ChainComplex:
    """The cellular chain complex of the form with presheaf coefficients."""
    poset = form.poset
    if f.base is not poset:
        raise ValueError("presheaf lives on a different poset")
    top = max(poset.rank) if poset.n else 0
    by_rank: dict[int, list[int]] = {}
    for i in range(poset.n):
        by_rank.setdefault(poset.rank[i], []).append(i)
    sizes = [form.piece_ranks[i] * f.ranks[i] for i in range(poset.n)]
    ranks = [sum(sizes[x] for x in by_rank.get(r, [])) for r in range(top + 1)]
    bounds = {}
    for r in range(1, top + 1):
        offset, total = {}, 0
        for y in by_rank.get(r - 1, []):
            offset[y], total = total, total + sizes[y]
        cols = bounds[r] = []
        for x in by_rank.get(r, []):
            piece = [{} for _ in range(sizes[x])]
            for y in poset.lower[x]:
                block = kron(form.block(y, x), f.map_index(y, x), f.ranks[y])
                for col, part in zip(piece, block):
                    col.update((offset[y] + i, v) for i, v in part.items())
            cols += piece
    complex_ = ChainComplex(ranks, bounds)
    check_composites(complex_)
    return complex_


def check_composites(complex_: ChainComplex):
    """Check del o del = 0, one sparse column at a time."""
    for i in range(2, len(complex_.ranks)):
        lo = complex_.boundary(i - 1)
        for col in complex_.boundary(i):
            assert not sparse_apply(lo, col), f"boundary composite nonzero in degree {i}"


# -- Tor: formal chains, free generators and induced maps -------------------------


def formal(tor_complex, vec: dict[int, int], n: int) -> dict:
    """A sparse vector of degree n of a TorComplex as a formal chain {key: coefficient}."""
    keys = tor_complex.keys[n]
    return {keys[p]: c for p, c in vec.items()}


def class_coords(oracle, x, n: int, vec: dict[int, int]) -> tuple[int, ...]:
    """Canonical class coordinates of one sparse cycle at x in degree n of a GMOracle."""
    return oracle.complex_at(x).tor(n).class_coords([vec])[0]


def free_generators(tor) -> list[dict[int, int]]:
    """Sparse cycle representatives of a basis of the free part of a TorDegree."""
    z = len(tor.kernel)
    if z == 0:
        return []
    # column j of U^-1 solves U·x = e_j
    u = ColumnSolver(columns(Dense(z, z, tor._u)), z)
    return [sparse_apply(tor.kernel, u.solve({j: 1}))
            for j in range(len(tor.invariants), z)]


def induced_homology_matrix(src, dst, k: FHom, t: FHom, n: int) -> list[dict]:
    """Sparse columns of Tor^f_n(k, t) on free-part generators (torsion-free use)."""
    push = induced_chain_map(k, t)
    images = [dst.vector(push(formal(src, gen, n)), n)
              for gen in free_generators(src.tor(n))]
    return [sparse(c) for c in dst.tor(n).class_coords(images)]


# -- partial matrices and the fiber cellular form BCp ------------------------------


def path_graph(n: int) -> Graph:
    """The path 1 - 2 - ... - n."""
    return Graph.make(n, [(i, i + 1) for i in range(1, n)])


def make_matrix(graph, k: int, m: int, partition, entries) -> PartialMatrix:
    """A partial matrix from its blocks and entry grid, both checked."""
    partition = tuple(sorted(tuple(sorted(b)) for b in partition))
    if sorted(v for b in partition for v in b) != list(range(1, graph.n + 1)):
        raise ValueError("partition must cover the vertex set exactly once")
    rows = tuple(b for b in partition if len(b) >= 2)
    entries = tuple(tuple(row) for row in entries)
    if len(entries) != len(rows) or any(len(r) != m for r in entries):
        raise ValueError("entry grid does not match the partition rows")
    for block, row in zip(rows, entries):
        for e in row:
            if e is not None:
                if len(e) != len(block) or normalize_class(e, k) != tuple(e):
                    raise ValueError(f"bad coloring {e} on block {block}")
    return PartialMatrix(graph.n, k, m, partition, entries)


def matrix_leq(a: PartialMatrix, b: PartialMatrix) -> bool:
    """The fibration order: a <= b iff pi(a) <= pi(b) and a <= b|_{pi(a)}.

    The defining reference that ``orbit_covers`` is tested against.
    """
    if not refines(a.partition, b.partition):
        return False
    lift = restrict_matrix(b, a.partition)
    return all(e_b is None or e_a == e_b for row_a, row_b in zip(a.entries, lift.entries)
               for e_a, e_b in zip(row_a, row_b))


class OrbitLattice:
    """The whole orbit lattice as a poset on every partial matrix, from ``orbit_covers``.

    The rank r_b + r_f is bookkeeping, graded only for n <= 3.
    """

    def __init__(self, graph, k: int, m: int):
        self.graph = graph
        bond = bond_lattice(graph)
        fibers, self.by_label = {}, {}
        for part in bond.labels:
            fiber = fibers[part] = []
            for entries, lab, *_ in fiber_matrices(part, k, m):
                mat = PartialMatrix(graph.n, k, m, part, entries)
                fiber.append(mat)
                self.by_label[lab] = mat
        label_of = {mat: lab for lab, mat in self.by_label.items()}
        covers = [(label_of[lo], label_of[hi]) for lo, hi in orbit_covers(bond, fibers, k)]
        rank = {lab: mat.r_b + mat.r_f for lab, mat in self.by_label.items()}
        self.poset = GradedPoset(list(self.by_label), covers, rank)


class Fiber(NamedTuple):
    """A fiber poset C_I^m with its label-to-matrix dictionary."""

    poset: GradedPoset
    by_label: dict


def fiber_poset(graph, partition, k: int, m: int) -> Fiber:
    """All partial matrices over one partition, ranked by undefined count."""
    items = list(fiber_matrices(partition, k, m))
    label_of = {PartialMatrix(graph.n, k, m, partition, entries): lab
                for entries, lab, _, _ in items}
    covers = [(label_of[fill_entry(mat, block, t, vals)], lab)
              for mat, lab in label_of.items() for block, t in mat.undefined()
              for vals in block_classes(len(block), k)]
    poset = GradedPoset(list(label_of.values()), covers,
                        {lab: r_f for _, lab, r_f, _ in items})
    return Fiber(poset, {lab: mat for mat, lab in label_of.items()})


def bcp_boundary(theta: PartialMatrix, coords: dict):
    """Signed projections onto the one-step completions of theta.

    ``coords`` is a coordinate dict {assignment: coeff} over
    ``bcp_assignments(theta)``.  Returns a list of (psi, sign,
    coordinates over psi) with the sign (-1)^(position of the filled
    entry in the sorted undefined list).  Filling entry i with class v
    sends the basis tensor alpha to +alpha without i when v = alpha_i, to
    -alpha without i when v is the zero class, and to nothing otherwise.
    """
    out = []
    for i, (block, t) in enumerate(theta.undefined()):
        sign = -1 if i % 2 else 1
        zero = zero_class(len(block))
        for vals in block_classes(len(block), theta.k):
            proj: dict[tuple, int] = {}
            for alpha, c in coords.items():
                if vals == zero or alpha[i] == vals:
                    rest = alpha[:i] + alpha[i + 1:]
                    proj[rest] = proj.get(rest, 0) + (-c if vals == zero else c)
            proj = {key: v for key, v in proj.items() if v}
            if proj:
                out.append((fill_entry(theta, block, t, vals), sign, proj))
    return out


def bcp_form(fiber: Fiber) -> CellularForm:
    """The explicit cellular form (sum of BCp pieces) on a fiber poset.

    Pieces are the bcp bases; differential blocks hold the coordinates of
    the signed projections of basis tensors one completion down.
    """
    poset = fiber.poset
    g = constant_sheaf(poset, 1, "co")
    ranks = []
    position_of = {}
    for lab in poset.labels:
        assignments = bcp_assignments(fiber.by_label[lab])
        position_of[lab] = {alpha: i for i, alpha in enumerate(assignments)}
        ranks.append(len(assignments))
    diff = []
    for xi, lab in enumerate(poset.labels):
        blocks: dict[int, list[dict]] = {}
        for alpha, col in position_of[lab].items():
            for psi, sign, coords in bcp_boundary(fiber.by_label[lab], {alpha: 1}):
                plab = psi.label()
                block = blocks.setdefault(poset.index[plab], [{} for _ in range(ranks[xi])])
                entries = block[col]
                for key, c in coords.items():
                    row = position_of[plab][key]
                    entries[row] = entries.get(row, 0) + sign * c
        diff.append(stack_blocks(poset, ranks, xi, blocks, ranks[xi]))
    return CellularForm(poset, g, ranks, diff)
