"""Bond lattices, Z_k-colorings, partial matrices, and the orbit lattice's covers.

A partial matrix assigns to each (block, coordinate) pair either a
Z_k-coloring class of the block or an undefined marker; the disjoint
union of these fiber posets over the bond lattice of the graph carries
the join semilattice structure whose gradings index the cohomology of
the chromatic orbit configuration space.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import NamedTuple

from .posets import GradedPoset


class Graph(NamedTuple):
    """Simple graph on vertices 1..n with sorted edge pairs."""

    n: int
    edges: frozenset

    @classmethod
    def make(cls, n: int, edges) -> "Graph":
        norm = set()
        for i, j in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge ({i}, {j})")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.make(n, [(i, j) for i in range(1, n + 1)
                            for j in range(i + 1, n + 1)])

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


# -- partitions and the bond lattice ------------------------------------------


def partition_rank(part) -> int:
    n = sum(len(b) for b in part)
    return n - len(part)


def bond_lattice(graph: Graph) -> GradedPoset:
    """Partitions induced by spanning subgraphs, ordered by refinement.

    Built up from the partition into singletons: merging the two blocks
    at the ends of an edge is a cover, one rank up, and every partition
    with connected blocks is reached that way.
    """
    bottom = tuple((v,) for v in range(1, graph.n + 1))
    rank = {bottom: 0}
    covers = set()
    todo = [bottom]
    for part in todo:
        block_of = {v: block for block in part for v in block}
        for i, j in graph.edges:
            a, b = block_of[i], block_of[j]
            if a == b:
                continue
            merged = [blk for blk in part if blk is not a and blk is not b]
            up = tuple(sorted(merged + [tuple(sorted(a + b))]))
            covers.add((part, up))
            if up not in rank:
                rank[up] = rank[part] + 1
                todo.append(up)
    return GradedPoset(rank, covers, rank)


def edge_atom_order(graph: Graph):
    """Bond-lattice atoms sorted by their two-element block."""
    out = []
    for i, j in sorted(graph.edges):
        blocks = [(i, j)] + [(v,) for v in range(1, graph.n + 1)
                             if v not in (i, j)]
        out.append(tuple(sorted(blocks)))
    return out


def components(vertices, linked):
    """Classes of ``vertices`` under the transitive closure of ``linked``.

    Each class is a sorted tuple; the classes come in order of their least
    vertex, so a partition comes out sorted.
    """
    rest = sorted(vertices)
    out = []
    while rest:
        comp = [rest.pop(0)]
        for u in comp:
            near = [v for v in rest if linked(u, v)]
            comp.extend(near)
            rest = [v for v in rest if v not in near]
        out.append(tuple(sorted(comp)))
    return out


def join_partitions(a, b):
    """Transitive-closure join of two partitions of the same set."""
    block_a = {v: block for block in a for v in block}
    block_b = {v: block for block in b for v in block}
    return tuple(components(block_a, lambda u, v: v in block_a[u] or v in block_b[u]))


# -- coloring classes ----------------------------------------------------------


@lru_cache(maxsize=None)
def block_classes(size: int, k: int):
    """All Z_k-coloring classes of a block, as value tuples with first 0."""
    return tuple((0,) + rest for rest in product(range(k), repeat=size - 1))


def zero_class(size: int):
    return (0,) * size


def normalize_class(values, k: int):
    base = values[0]
    return tuple((v - base) % k for v in values)


def restrict_class(block, values, sub, k: int):
    """Restriction of a coloring of ``block`` to a sub-block."""
    pos = {v: i for i, v in enumerate(block)}
    return normalize_class(tuple(values[pos[v]] for v in sub), k)


# -- partial matrices ----------------------------------------------------------


class PartialMatrix(NamedTuple):
    """Z_k-coloring classes (or None) on blocks x coordinates.

    ``partition`` lists every block (including singletons), sorted;
    ``entries[r][t]`` is the class tuple or None for the r-th block of
    size >= 2 and coordinate t.
    """

    n: int
    k: int
    m: int
    partition: tuple
    entries: tuple

    def rows(self) -> tuple:
        return tuple(b for b in self.partition if len(b) >= 2)

    @property
    def r_f(self) -> int:
        return sum(1 for row in self.entries for e in row if e is None)

    @property
    def r_b(self) -> int:
        return self.n - len(self.partition)

    def codim(self) -> int:
        return self.m * self.r_b + self.r_f

    def undefined(self) -> list:
        """Ud as the sorted list of (block, coordinate) index pairs."""
        out = []
        for block, row in zip(self.rows(), self.entries):
            for t, e in enumerate(row):
                if e is None:
                    out.append((block, t))
        return out

    def label(self) -> str:
        part = "|".join("-".join(str(v) for v in b) for b in self.partition)
        rows = []
        for block, row in zip(self.rows(), self.entries):
            cells = ",".join("?" if e is None else ".".join(str(x) for x in e)
                             for e in row)
            rows.append("-".join(str(v) for v in block) + "=" + cells)
        body = f" {';'.join(rows)}" if rows else ""
        return f"[{part}]{body}"

    def to_json_dict(self) -> dict:
        entries = {}
        for block, row in zip(self.rows(), self.entries):
            key = "-".join(str(v) for v in block)
            for t, e in enumerate(row):
                entries[f"{key},{t}"] = "?" if e is None else list(e)
        return {"partition": [list(b) for b in self.partition],
                "entries": entries}


def empty_matrix(graph: Graph, k: int, m: int) -> PartialMatrix:
    part = tuple((v,) for v in range(1, graph.n + 1))
    return PartialMatrix(graph.n, k, m, part, ())


def fill_entry(theta: PartialMatrix, block, t: int, values) -> PartialMatrix:
    rows = theta.rows()
    r = rows.index(block)
    new_rows = [list(row) for row in theta.entries]
    if new_rows[r][t] is not None:
        raise ValueError("entry already defined")
    new_rows[r][t] = tuple(values)
    return PartialMatrix(theta.n, theta.k, theta.m, theta.partition,
                         tuple(tuple(row) for row in new_rows))


def restrict_matrix(theta: PartialMatrix, target_partition) -> PartialMatrix:
    """Restriction to a refinement of theta's partition."""
    k = theta.k
    row_of = {b: i for i, b in enumerate(theta.rows())}
    parent = {}
    for b in target_partition:
        for big in theta.partition:
            if set(b) <= set(big):
                parent[b] = big
                break
        else:
            raise ValueError("target partition does not refine the source")
    entries = []
    for b in target_partition:
        if len(b) < 2:
            continue
        big = parent[b]
        row = theta.entries[row_of[big]]
        entries.append(tuple(
            None if e is None else restrict_class(big, e, b, k) for e in row))
    return PartialMatrix(theta.n, k, theta.m,
                         tuple(sorted(tuple(sorted(b)) for b in target_partition)),
                         tuple(entries))


def _glue(p, pieces, k: int):
    """The class on block p that restricts to class c on q for each piece (q, c).

    None when the pieces conflict.  The value 0 at p[0] spreads through
    every piece that touches a valued vertex; the pieces must connect p.
    """
    val = {p[0]: 0}
    while pieces or len(val) < len(p):
        rest = []
        for q, c in pieces:
            i = next((i for i, v in enumerate(q) if v in val), None)
            if i is None:
                rest.append((q, c))
                continue
            shift = val[q[i]] - c[i]
            for v, x in zip(q, c):
                if val.setdefault(v, (x + shift) % k) != (x + shift) % k:
                    return None
        if len(rest) == len(pieces):
            raise AssertionError("join block not connected")
        pieces = rest
    return tuple(val[v] for v in p)


def join_theta(a: PartialMatrix, b: PartialMatrix) -> PartialMatrix:
    """Join in the orbit lattice: each entry glues the classes inside its block."""
    if (a.n, a.k, a.m) != (b.n, b.k, b.m):
        raise ValueError("matrices live over different parameters")
    part = join_partitions(a.partition, b.partition)
    sources = [(q, row) for src in (a, b) for q, row in zip(src.rows(), src.entries)]
    entries = []
    for p in part:
        if len(p) < 2:
            continue
        inside = [(q, row) for q, row in sources if set(q) <= set(p)]
        entries.append(tuple(
            None if any(row[t] is None for _, row in inside)
            else _glue(p, [(q, row[t]) for q, row in inside], a.k)
            for t in range(a.m)))
    return PartialMatrix(a.n, a.k, a.m, part, tuple(entries))


# -- fibers and orbit covers ----------------------------------------------------


def fiber_matrices(partition, k: int, m: int):
    """Every partial matrix over one partition, as (entries, label, r_f, BCp rank).

    ``partition`` is sorted, with sorted blocks, as bond-lattice labels
    are.  Yields in row-major order over the cells, each running through
    ``block_classes`` and then None, and builds no ``PartialMatrix``: a
    caller that needs one builds it from the entries.  Each row's
    m-tuples of choices are rendered once, with their undefined count u
    and their rank factor (k^(|b|-1) - 1)^u.
    """
    items = [((), "[" + "|".join("-".join(map(str, b)) for b in partition) + "]", 0, 1)]
    for b in (b for b in partition if len(b) >= 2):
        cells = [(c, "?" if c is None else ".".join(map(str, c)))
                 for c in block_classes(len(b), k) + (None,)]
        name = (";" if items[0][0] else " ") + "-".join(map(str, b)) + "="
        table = []
        for row in product(cells, repeat=m):
            v = sum(c is None for c, _ in row)
            table.append((tuple(c for c, _ in row), name + ",".join(t for _, t in row),
                          v, (k ** (len(b) - 1) - 1) ** v))
        items = [(es + (e,), lab + text, u + v, r * f) for es, lab, u, r in items
                 for e, text, v, f in table]
    yield from items


def orbit_covers(bond: GradedPoset, fibers: dict, k: int):
    """Every cover (lo, hi) of the orbit lattice, as a pair of partial matrices.

    ``fibers`` maps each bond-lattice label to the matrices of its fiber,
    and each ``hi`` is one of those objects.  The order is the fibration
    order: a <= b iff pi(a) refines pi(b) and a agrees with b|_{pi(a)}
    wherever that is defined.  Its covers come from the fibration onto
    the bond lattice.  A cover inside a fiber fills one undefined entry.
    Over a bond cover pi < pi(theta') the only candidate is the cartesian
    lift restrict_matrix(theta', pi) < theta', a cover unless the block B
    that pi splits has two vertices and theta' leaves an entry of row B
    undefined: filling that entry gives an element strictly between.
    """
    for mats in fibers.values():
        for mat in mats:
            for block, t in mat.undefined():
                for vals in block_classes(len(block), k):
                    yield fill_entry(mat, block, t, vals), mat
    for lo, hi in bond.covers:
        part, top = bond.labels[lo], bond.labels[hi]
        split = next(b for b in top if b not in part)
        row = [b for b in top if len(b) >= 2].index(split)
        for mat in fibers[top]:
            if len(split) == 2 and None in mat.entries[row]:
                continue
            yield restrict_matrix(mat, part), mat


# -- the comparison map sigma ----------------------------------------------------


def sigma_canonical(theta: PartialMatrix, graph: Graph) -> PartialMatrix:
    """Greatest element of the sigma fiber: glue undefined rows.

    Undefined rows merge into the connected components of the graph
    induced on their union; partially defined rows are untouched.
    """
    undef_rows = [b for b, row in zip(theta.rows(), theta.entries)
                  if all(e is None for e in row)]
    if len(undef_rows) <= 1:
        return theta
    kept = {b: row for b, row in zip(theta.rows(), theta.entries) if b not in undef_rows}
    new_partition = [b for b in theta.partition if b not in undef_rows]
    new_partition = tuple(sorted(
        new_partition + components([v for b in undef_rows for v in b], graph.adjacent)))
    entries = tuple(kept.get(b, (None,) * theta.m) for b in new_partition if len(b) >= 2)
    return PartialMatrix(theta.n, theta.k, theta.m, new_partition, entries)


class IntersectionLattice:
    """Image of sigma: canonical forms ordered by reverse subspace inclusion.

    By definition a <= b iff sigma(a v b) = b.  Sigma is extensive
    (theta <= sigma(theta)) and idempotent, so for canonical a and b
    that holds exactly when a <= b in the orbit lattice: the order is
    the orbit order restricted to the canonical forms.  ``sigma`` maps
    every orbit-lattice label to the label of its canonical form, so a
    sigma fiber is the preimage of one label.

    For k = 1 no pair of arrangement members can be incompatible, so
    only fully defined matrices are genuine intersections; undefined
    entries are dropped from the lattice in that case.

    The covers come from ``orbit_covers``.  Sigma is also monotone, so
    it is a closure operator, and every canonical b > a lies above
    sigma(c) for some orbit cover c of a.  The images sigma(c) in the
    lattice of two distinct orbit covers c of a are equal or
    incomparable (a sketch, checked by the tests: an image other than c
    merges a fully undefined row with a vertex or empties a row, and
    every other cover below it has the same image).  So the covers of a
    are exactly {sigma(c) : c covers a in the orbit lattice, sigma(c) in
    the lattice}.  At k = 1 that
    membership loses nothing: a fully defined b > a lies above the fully
    defined lift of a to a bond cover of pi(a) below pi(b), which is its
    own canonical form.
    """

    def __init__(self, graph: Graph, k: int, m: int):
        bond = bond_lattice(graph)
        self.sigma = {}
        fibers, image, mats = {}, {}, {}
        for part in bond.labels:
            fibers[part] = fiber = []
            for entries, lab, *_ in fiber_matrices(part, k, m):
                mat = PartialMatrix(graph.n, k, m, part, entries)
                fiber.append(mat)
                can = sigma_canonical(mat, graph)
                can_lab = lab if can is mat else can.label()
                self.sigma[lab] = image[mat] = can_lab
                if k == 1 and can.r_f:
                    continue
                mats[can_lab] = can
        self.by_label = mats
        covers = {(image[lo], image[hi]) for lo, hi in orbit_covers(bond, fibers, k)
                  if mats.get(image[lo]) == lo and image[hi] in mats}
        self.codim = {lab: mats[lab].codim() for lab in sorted(mats)}
        self.poset = GradedPoset(mats, covers, self.codim)


# -- the fiber cellular form BCp -------------------------------------------------
#
# The BCp piece at theta is the tensor product, over the undefined entries
# of theta, of the vanishing-sum group of each entry's block classes, with
# basis eta_c - eta_zero for c away from the zero class.  A basis element
# is an assignment alpha in ``bcp_assignments(theta)``: the tensor of
# (eta_{alpha_e} - eta_zero) over the entries e, in sorted undefined order.


def bcp_assignments(theta: PartialMatrix):
    """Basis index tuples: a nonzero class for each undefined entry."""
    ud = theta.undefined()
    choices = []
    for block, _ in ud:
        zero = zero_class(len(block))
        choices.append(tuple(c for c in block_classes(len(block), theta.k)
                             if c != zero))
    return list(product(*choices)) if ud else [()]


@lru_cache(maxsize=None)
def _join_rows(pa, pb):
    """The join of two partitions and, per join block p of size >= 2, the
    (index, block) of each row of pa ++ pb inside p; None unless the bond
    ranks add.  When they add, the blocks inside p form a tree (|p|
    vertices link them into one component), so classes on them always glue.
    """
    part = join_partitions(pa, pb)
    if partition_rank(part) != partition_rank(pa) + partition_rank(pb):
        return None
    rows = list(enumerate(q for q in pa + pb if len(q) >= 2))
    return part, tuple((p, tuple((r, q) for r, q in rows if q[0] in p))
                       for p in part if len(p) >= 2)


@lru_cache(maxsize=None)
def _coordinate(p, q, pieces, k: int):
    """One coordinate of join block p, from the defined pieces there.

    With q None, the glued class; with q the block of the one undefined
    source entry, the factor map {c: terms of eta_{J(c)} - eta_{J(0)}}
    over the nonzero classes c of q, where J(c) glues c with the pieces.
    """
    if q is None:
        return _glue(p, pieces, k)
    classes = block_classes(len(q), k)  # the zero class first
    glued = [_glue(p, pieces + ((q, c),), k) for c in classes]
    zero = zero_class(len(p))
    return {c: [(cls, s) for cls, s in ((w, 1), (glued[0], -1)) if cls != zero]
            for c, w in zip(classes[1:], glued[1:])}


def phi_product(a: PartialMatrix, b: PartialMatrix):
    """The form-morphism product of the BCp pieces at a and b, entry by entry.

    None on a dependent pair: the bond ranks do not add, or some (join
    block p, coordinate t) holds two undefined source entries.  Otherwise
    (j, sign, factors): the join j, the sign of the alignment of
    Ud(a) ++ Ud(b) with Ud(j), read off the positions the undefined
    entries take in Ud(j), and one factor per undefined entry (p, t) of j,
    in order.  Its one source entry e = (q, t) has the completion-wise
    join send class c at e to the class J_e(c) glued from c and the
    defined classes at t inside p.  A factor is (position of e,
    {c: coordinates of eta_{J_e(c)} - eta_{J_e(0)}}) over the nonzero
    classes c; ``phi_coords`` multiplies them out.  Glued classes and
    factor maps are memoized per coordinate, keyed by (p, q, the pieces).
    """
    split = _join_rows(a.partition, b.partition)
    if split is None:
        return None
    part, inside = split
    rows, m = a.entries + b.entries, a.m
    cells = [(p, t, srcs, [(r, q) for r, q in srcs if rows[r][t] is None])
             for p, srcs in inside for t in range(m)]
    if any(len(undef) > 1 for *_, undef in cells):
        return None
    before = list(accumulate((row.count(None) for row in rows), initial=0))
    flat, factors = [], []
    for p, t, srcs, undef in cells:
        pieces = tuple((q, rows[r][t]) for r, q in srcs if rows[r][t] is not None)
        for r, q in undef:
            factors.append((before[r] + rows[r][:t].count(None),
                            _coordinate(p, q, pieces, a.k)))
        flat.append(None if undef else _coordinate(p, None, pieces, a.k))
    sign = (-1) ** sum(x[0] > y[0] for i, x in enumerate(factors) for y in factors[i + 1:])
    entries = tuple(tuple(flat[i:i + m]) for i in range(0, len(flat), m))
    return PartialMatrix(a.n, a.k, m, part, entries), sign, factors


def phi_coords(pair, alpha: tuple, beta: tuple) -> dict:
    """Coordinates of the product of basis tensors alpha (at a) and beta (at b).

    ``pair`` is a result of ``phi_product(a, b)`` other than None.  The
    product is the sign times the tensor, over the entries of the join,
    of each factor's two terms at the class its source entry carries.
    """
    _, sign, factors = pair
    picks = alpha + beta
    coords = {(): sign}
    for src, terms in factors:
        coords = {key + (cls,): c * s for key, c in coords.items()
                  for cls, s in terms[picks[src]]}
    return coords
