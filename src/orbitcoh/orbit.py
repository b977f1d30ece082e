"""Bond lattices, Z_k-colorings, partial matrices, and the orbit lattice.

A partial matrix assigns to each (block, coordinate) pair either a
Z_k-coloring class of the block or an undefined marker; the disjoint
union of these fiber posets over the bond lattice of the graph carries
the join semilattice structure whose gradings index the cohomology of
the chromatic orbit configuration space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .posets import GradedPoset


class NotIndependent(Exception):
    """The two partial matrices fail rank additivity under join."""


class FiberTooLarge(Exception):
    """An undefined row is too big to enumerate its splits."""


MAX_SPLIT_ROW = 12


@dataclass(frozen=True)
class Graph:
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

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.make(n, [(i, i + 1) for i in range(1, n)])

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def connected_subset(self, vertices) -> bool:
        verts = list(vertices)
        if not verts:
            return False
        seen = {verts[0]}
        stack = [verts[0]]
        vset = set(verts)
        while stack:
            v = stack.pop()
            for u in vset:
                if u not in seen and self.adjacent(u, v):
                    seen.add(u)
                    stack.append(u)
        return seen == vset


# -- partitions and the bond lattice ------------------------------------------


def _set_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield tuple(sorted(((first,),) + sub))
        for i, block in enumerate(sub):
            merged = sub[:i] + (tuple(sorted(block + (first,))),) + sub[i + 1:]
            yield tuple(sorted(merged))


def graph_partitions(graph: Graph):
    """Partitions of the vertex set into graph-connected blocks."""
    out = []
    for part in sorted(set(_set_partitions(range(1, graph.n + 1)))):
        if all(len(b) == 1 or graph.connected_subset(b) for b in part):
            out.append(part)
    return out


def partition_rank(part) -> int:
    n = sum(len(b) for b in part)
    return n - len(part)


def refines(p, q) -> bool:
    lookup = {}
    for block in q:
        for v in block:
            lookup[v] = block
    return all(set(b) <= set(lookup[b[0]]) for b in p)


def bond_lattice(graph: Graph) -> GradedPoset:
    """Partitions induced by spanning subgraphs, ordered by refinement."""
    parts = graph_partitions(graph)
    covers = []
    by_rank: dict[int, list] = {}
    for p in parts:
        by_rank.setdefault(partition_rank(p), []).append(p)
    for r, level in by_rank.items():
        for p in level:
            for q in by_rank.get(r + 1, []):
                if refines(p, q):
                    covers.append((p, q))
    return GradedPoset(parts, covers, {p: partition_rank(p) for p in parts})


def edge_atom_order(graph: Graph):
    """Bond-lattice atoms sorted by their two-element block."""
    out = []
    for i, j in sorted(graph.edges):
        blocks = [(i, j)] + [(v,) for v in range(1, graph.n + 1)
                             if v not in (i, j)]
        out.append(tuple(sorted(blocks)))
    return out


def join_partitions(a, b):
    """Transitive-closure join of two partitions of the same set."""
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for part in (a, b):
        for block in part:
            for v in block:
                parent.setdefault(v, v)
            root = find(block[0])
            for v in block[1:]:
                parent[find(v)] = root
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


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


@dataclass(frozen=True)
class PartialMatrix:
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

    def leq_same_support(self, other: "PartialMatrix") -> bool:
        """Completion order within one fiber (same partition)."""
        for row_s, row_o in zip(self.entries, other.entries):
            for e_s, e_o in zip(row_s, row_o):
                if e_o is not None and e_s != e_o:
                    return False
        return True

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


def make_matrix(graph: Graph, k: int, m: int, partition, entries) -> PartialMatrix:
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


def fill_entry(theta: PartialMatrix, block, t: int, values) -> PartialMatrix:
    rows = theta.rows()
    r = rows.index(block)
    new_rows = [list(row) for row in theta.entries]
    if new_rows[r][t] is not None:
        raise ValueError("entry already defined")
    new_rows[r][t] = tuple(values)
    return PartialMatrix(theta.n, theta.k, theta.m, theta.partition,
                         tuple(tuple(row) for row in new_rows))


def completions(theta: PartialMatrix):
    """All completions of theta, in lexicographic entry order."""
    ud = theta.undefined()
    if not ud:
        return [theta]
    choices = [block_classes(len(b), theta.k) for b, _ in ud]
    out = []
    for combo in product(*choices):
        cur = theta
        for (block, t), vals in zip(ud, combo):
            cur = fill_entry(cur, block, t, vals)
        out.append(cur)
    return out


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


def matrix_leq(a: PartialMatrix, b: PartialMatrix) -> bool:
    """The fibration order: a <= b iff pi(a) <= pi(b) and a <= b|_{pi(a)}."""
    if not refines(a.partition, b.partition):
        return False
    return a.leq_same_support(restrict_matrix(b, a.partition))


def join_theta(a: PartialMatrix, b: PartialMatrix) -> PartialMatrix:
    """Join in the orbit lattice: propagate colorings by labeled union-find."""
    if (a.n, a.k, a.m) != (b.n, b.k, b.m):
        raise ValueError("matrices live over different parameters")
    k, m = a.k, a.m
    part = join_partitions(a.partition, b.partition)
    sources = []
    for src in (a, b):
        for block, row in zip(src.rows(), src.entries):
            sources.append((block, row))
    entries = []
    for p in part:
        if len(p) < 2:
            continue
        row_out = []
        for t in range(m):
            pieces = [(q, row[t]) for q, row in sources if set(q) <= set(p)]
            if any(vals is None for _, vals in pieces):
                row_out.append(None)
                continue
            parent = {v: v for v in p}
            offset = {v: 0 for v in p}  # value relative to the parent chain

            def find(v):
                path = []
                while parent[v] != v:
                    path.append(v)
                    v = parent[v]
                total = 0
                for u in reversed(path):
                    total = (total + offset[u]) % k
                    offset[u] = total
                    parent[u] = v
                return v

            consistent = True
            for q, vals in pieces:
                base = q[0]
                for v, val in zip(q, vals):
                    rv, rb = find(v), find(base)
                    # want f(v) - f(base) = val
                    dv = offset[v] if parent[v] != v else 0
                    db = offset[base] if parent[base] != base else 0
                    if rv == rb:
                        if (dv - db) % k != val % k:
                            consistent = False
                            break
                    else:
                        # attach rv under rb: f(rv) = f(v) - dv
                        parent[rv] = rb
                        offset[rv] = (val + db - dv) % k
                if not consistent:
                    break
            if not consistent:
                row_out.append(None)
                continue
            root = find(p[0])
            vals = []
            for v in p:
                find(v)
                if find(v) != root:
                    raise AssertionError("join block not connected")
                vals.append(offset[v] if parent[v] != v else 0)
            row_out.append(normalize_class(tuple(vals), k))
        entries.append(tuple(row_out))
    return PartialMatrix(a.n, k, m, part, tuple(entries))


# -- posets ---------------------------------------------------------------------


def fiber_matrices(graph: Graph, partition, k: int, m: int):
    """Every partial matrix over one partition, in deterministic order."""
    partition = tuple(sorted(tuple(sorted(b)) for b in partition))
    rows = tuple(b for b in partition if len(b) >= 2)
    cells = []
    for b in rows:
        for _ in range(m):
            cells.append(tuple(block_classes(len(b), k)) + (None,))
    out = []
    for combo in product(*cells) if cells else [()]:
        entries = tuple(tuple(combo[r * m:(r + 1) * m]) for r in range(len(rows)))
        out.append(PartialMatrix(graph.n, k, m, partition, entries))
    return out


def _covers_from_up(up: list[int]) -> list[tuple[int, int]]:
    """Cover pairs of a relation given as up-set bitmasks."""
    n = len(up)
    down = [0] * n
    for i in range(n):
        mask = up[i]
        j = 0
        while mask:
            if mask & 1:
                down[j] |= 1 << i
            mask >>= 1
            j += 1
    out = []
    for i in range(n):
        mask = up[i] & ~(1 << i)
        j = 0
        while mask:
            if mask & 1:
                between = up[i] & down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((i, j))
            mask >>= 1
            j += 1
    return out


class FiberData:
    """A fiber poset C_I^m with its label-to-matrix dictionary."""

    def __init__(self, poset: GradedPoset, by_label: dict):
        self.poset = poset
        self.by_label = by_label


def fiber_poset(graph: Graph, partition, k: int, m: int) -> FiberData:
    """All partial matrices over one partition, ranked by undefined count."""
    mats = fiber_matrices(graph, partition, k, m)
    by_label = {mat.label(): mat for mat in mats}
    covers = []
    for mat in mats:
        for block, t in mat.undefined():
            for vals in block_classes(len(block), k):
                covers.append((fill_entry(mat, block, t, vals).label(),
                               mat.label()))
    poset = GradedPoset(list(by_label), covers,
                        {lab: by_label[lab].r_f for lab in by_label})
    return FiberData(poset, by_label)


class OrbitLattice:
    """The total poset of fibers over the bond lattice, with its join.

    The stored rank is r_b + r_f, which is a genuine grading only when
    no block can split into two blocks of size >= 2 (n <= 3); the poset
    is built non-strictly and the flag ``poset.graded`` records whether
    the grading is genuine.
    """

    def __init__(self, graph: Graph, k: int, m: int):
        self.graph = graph
        self.k = k
        self.m = m
        self.bond = bond_lattice(graph)
        mats = []
        for part in self.bond.labels:
            mats.extend(fiber_matrices(graph, part, k, m))
        self.by_label = {mat.label(): mat for mat in mats}
        labels = sorted(self.by_label)
        n = len(labels)
        up = [0] * n
        for i, la in enumerate(labels):
            for j, lb in enumerate(labels):
                if matrix_leq(self.by_label[la], self.by_label[lb]):
                    up[i] |= 1 << j
        covers = [(labels[i], labels[j]) for i, j in _covers_from_up(up)]
        rank = {lab: self.by_label[lab].r_b + self.by_label[lab].r_f
                for lab in labels}
        self.poset = GradedPoset(labels, covers, rank, strict=False)

    def matrix(self, label) -> PartialMatrix:
        return self.by_label[label]

    def pi(self, label):
        return self.by_label[label].partition

    def join(self, la, lb) -> str:
        return join_theta(self.by_label[la], self.by_label[lb]).label()

    def bottom_label(self) -> str:
        return empty_matrix(self.graph, self.k, self.m).label()


def build_lkm(graph: Graph, k: int, m: int) -> OrbitLattice:
    return OrbitLattice(graph, k, m)


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
    w = sorted(v for b in undef_rows for v in b)
    components = []
    remaining = set(w)
    while remaining:
        v = min(remaining)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for x in remaining - comp:
                if graph.adjacent(u, x):
                    comp.add(x)
                    stack.append(x)
        components.append(tuple(sorted(comp)))
        remaining -= comp
    new_partition = [b for b in theta.partition
                     if b not in undef_rows] + components
    new_partition = tuple(sorted(tuple(sorted(b)) for b in new_partition))
    entries = []
    kept = {b: row for b, row in zip(theta.rows(), theta.entries)
            if b not in undef_rows}
    for b in new_partition:
        if len(b) < 2:
            continue
        if b in kept:
            entries.append(kept[b])
        else:
            entries.append((None,) * theta.m)
    return PartialMatrix(theta.n, theta.k, theta.m, new_partition,
                         tuple(entries))


def _connected_partitions(graph: Graph, vertices):
    """Set partitions of ``vertices`` into graph-connected parts of size >= 2."""
    verts = tuple(sorted(vertices))
    if len(verts) > MAX_SPLIT_ROW:
        raise FiberTooLarge(f"undefined row {verts} too large to split")
    out = []
    for part in set(_set_partitions(verts)):
        if all(len(b) >= 2 and graph.connected_subset(b) for b in part):
            out.append(part)
    return sorted(out)


def fiber_of(alpha: PartialMatrix, graph: Graph):
    """All sigma-preimages: splits of the undefined rows of the canonical form."""
    if sigma_canonical(alpha, graph) != alpha:
        raise ValueError("fiber_of expects a canonical form")
    undef_rows = [b for b, row in zip(alpha.rows(), alpha.entries)
                  if all(e is None for e in row)]
    kept_blocks = [b for b in alpha.partition if b not in undef_rows]
    kept_entries = {b: row for b, row in zip(alpha.rows(), alpha.entries)
                    if b not in undef_rows}
    split_choices = [_connected_partitions(graph, b) for b in undef_rows]
    out = []
    for combo in product(*split_choices) if split_choices else [()]:
        blocks = list(kept_blocks)
        for split in combo:
            blocks.extend(split)
        partition = tuple(sorted(tuple(sorted(b)) for b in blocks))
        entries = []
        for b in partition:
            if len(b) < 2:
                continue
            entries.append(kept_entries.get(b, (None,) * alpha.m))
        out.append(PartialMatrix(alpha.n, alpha.k, alpha.m, partition,
                                 tuple(entries)))
    return sorted(out, key=lambda mat: mat.label())


class IntersectionLattice:
    """Image of sigma: canonical forms ordered by reverse subspace inclusion.

    For k = 1 no pair of arrangement members can be incompatible, so
    only fully defined matrices are genuine intersections; undefined
    entries are dropped from the lattice in that case.
    """

    def __init__(self, lattice: OrbitLattice):
        self.graph = lattice.graph
        self.k, self.m = lattice.k, lattice.m
        self.sigma = {}
        mats = {}
        for lab, mat in lattice.by_label.items():
            can = sigma_canonical(mat, lattice.graph)
            self.sigma[lab] = can.label()
            if self.k == 1 and can.r_f:
                continue
            mats[can.label()] = can
        self.by_label = mats
        labels = sorted(mats)
        n = len(labels)
        joins = {}

        def join_lab(la, lb):
            key = (la, lb) if la <= lb else (lb, la)
            if key not in joins:
                j = join_theta(mats[la], mats[lb])
                joins[key] = sigma_canonical(j, self.graph).label()
            return joins[key]

        up = [0] * n
        for i, la in enumerate(labels):
            for j, lb in enumerate(labels):
                if join_lab(la, lb) == lb:
                    up[i] |= 1 << j
        covers = [(labels[i], labels[j]) for i, j in _covers_from_up(up)]
        codim = {lab: mats[lab].codim() for lab in labels}
        self.codim = codim
        self.poset = GradedPoset(labels, covers, codim, strict=False)
        self._join_lab = join_lab

    def join(self, la, lb) -> str:
        return self._join_lab(la, lb)

    def ambient(self) -> str:
        return empty_matrix(self.graph, self.k, self.m).label()


def build_intersection_lattice(graph: Graph, k: int, m: int) -> IntersectionLattice:
    return IntersectionLattice(OrbitLattice(graph, k, m))


# -- independence and the sign permutation ---------------------------------------


def independence(a: PartialMatrix, b: PartialMatrix) -> bool:
    """Additivity of both the base rank and the fiber rank under join."""
    return _additive(a, b, join_theta(a, b))


def _additive(a: PartialMatrix, b: PartialMatrix, j: PartialMatrix) -> bool:
    return a.r_b + b.r_b == j.r_b and a.r_f + b.r_f == j.r_f


def _image_entry(entry, join_partition):
    block, t = entry
    for p in join_partition:
        if set(block) <= set(p):
            return (p, t)
    raise ValueError("block lost in join")


def perm_sign(a: PartialMatrix, b: PartialMatrix) -> int:
    """Sign of the permutation aligning Ud(a) ++ Ud(b) with Ud(a v b)."""
    j = join_theta(a, b)
    if not _additive(a, b, j):
        raise NotIndependent("sign defined only for independent pairs")
    return _aligned_sign(a, b, j)


def _aligned_sign(a: PartialMatrix, b: PartialMatrix, j: PartialMatrix) -> int:
    target = j.undefined()
    pos = {e: i for i, e in enumerate(target)}
    seq = []
    for src in (a, b):
        for e in src.undefined():
            seq.append(pos[_image_entry(e, j.partition)])
    if sorted(seq) != list(range(len(target))):
        raise NotIndependent("undefined entries do not biject under join")
    sign = 1
    for i in range(len(seq)):
        for jdx in range(i + 1, len(seq)):
            if seq[i] > seq[jdx]:
                sign = -sign
    return sign


# -- the fiber cellular form BCp -------------------------------------------------


@dataclass
class BCpElement:
    """Formal sum of completions subject to the vanishing-sum condition."""

    theta: PartialMatrix
    coeffs: dict

    def is_zero(self) -> bool:
        return not any(self.coeffs.values())


def bcp_rank(theta: PartialMatrix) -> int:
    out = 1
    for block, _ in theta.undefined():
        out *= theta.k ** (len(block) - 1) - 1
    return out


def bcp_assignments(theta: PartialMatrix):
    """Basis index tuples: a nonzero class for each undefined entry."""
    ud = theta.undefined()
    choices = []
    for block, _ in ud:
        zero = zero_class(len(block))
        choices.append(tuple(c for c in block_classes(len(block), theta.k)
                             if c != zero))
    return list(product(*choices)) if ud else [()]


def bcp_basis_element(theta: PartialMatrix, assignment) -> BCpElement:
    """Expansion of the tensor of (eta_c - eta_zero) over undefined entries."""
    ud = theta.undefined()
    coeffs: dict[PartialMatrix, int] = {}
    for picks in product((0, 1), repeat=len(ud)):
        cur = theta
        for (block, t), choice, vals in zip(ud, picks, assignment):
            fill = vals if choice else zero_class(len(block))
            cur = fill_entry(cur, block, t, fill)
        sign = (-1) ** (len(ud) - sum(picks))
        coeffs[cur] = coeffs.get(cur, 0) + sign
    return BCpElement(theta, coeffs)


def bcp_basis(theta: PartialMatrix):
    return [bcp_basis_element(theta, a) for a in bcp_assignments(theta)]


def bcp_coords(theta: PartialMatrix, coeffs: dict) -> list[int]:
    """Coordinates in the bcp basis; raises if not a member.

    The completion with every entry away from the zero class appears in
    exactly one basis element, so extraction is triangular.
    """
    ud = theta.undefined()
    assignments = bcp_assignments(theta)
    coords = []
    for assignment in assignments:
        cur = theta
        for (block, t), vals in zip(ud, assignment):
            cur = fill_entry(cur, block, t, vals)
        coords.append(coeffs.get(cur, 0))
    residual = dict(coeffs)
    for coord, assignment in zip(coords, assignments):
        if not coord:
            continue
        elem = bcp_basis_element(theta, assignment)
        for key, v in elem.coeffs.items():
            residual[key] = residual.get(key, 0) - coord * v
    if any(residual.values()):
        raise ValueError("element is not in BCp (vanishing sums violated)")
    return coords


def bcp_boundary(u: BCpElement):
    """Signed projections onto the one-step completions of theta.

    Returns a list of (psi, sign, BCpElement over psi) with the sign
    (-1)^(position of the filled entry in the sorted undefined list).
    """
    theta = u.theta
    out = []
    for i, (block, t) in enumerate(theta.undefined()):
        sign = -1 if i % 2 else 1
        for vals in block_classes(len(block), theta.k):
            psi = fill_entry(theta, block, t, vals)
            proj: dict[PartialMatrix, int] = {}
            for eta, c in u.coeffs.items():
                if eta.leq_same_support(psi):
                    proj[eta] = proj.get(eta, 0) + c
            proj = {k2: v for k2, v in proj.items() if v}
            if proj:
                out.append((psi, sign, BCpElement(psi, proj)))
    return out


def bcp_form(fiber: FiberData):
    """The explicit cellular form (sum of BCp pieces) on a fiber poset.

    Pieces are the bcp bases; differential blocks re-express the signed
    projections of basis elements in the bases one completion down.
    """
    from .cellular import CellularForm
    from .intlinalg import IntMatrix
    from .sheaves import constant_sheaf
    poset = fiber.poset
    g = constant_sheaf(poset, 1, "co")
    ranks = []
    basis_of = {}
    for lab in poset.labels:
        mat = fiber.by_label[lab]
        basis_of[lab] = bcp_basis(mat)
        ranks.append(len(basis_of[lab]))
    diff: dict[tuple[int, int], IntMatrix] = {}
    for lab in poset.labels:
        xi = poset.index[lab]
        for col, elem in enumerate(basis_of[lab]):
            for psi, sign, piece in bcp_boundary(elem):
                plab = psi.label()
                yi = poset.index[plab]
                coords = bcp_coords(psi, piece.coeffs)
                block = diff.get((yi, xi))
                if block is None:
                    block = IntMatrix(ranks[yi], ranks[xi])
                    diff[(yi, xi)] = block
                for row, c in enumerate(coords):
                    if c:
                        block.data[row][col] += sign * c
    return CellularForm(poset, g, ranks, diff)


def phi_product(u: BCpElement, v: BCpElement) -> BCpElement:
    """The form-morphism product: signed completion-wise join.

    Zero on dependent pairs; on independent pairs the result is checked
    to satisfy the BCp membership condition.
    """
    a, b = u.theta, v.theta
    j = join_theta(a, b)
    if not _additive(a, b, j):
        return BCpElement(j, {})
    sign = _aligned_sign(a, b, j)
    out: dict[PartialMatrix, int] = {}
    for eta, cu in u.coeffs.items():
        for nu, cv in v.coeffs.items():
            w = join_theta(eta, nu)
            if w.r_f != 0:
                raise AssertionError("join of completions is not complete")
            out[w] = out.get(w, 0) + sign * cu * cv
    out = {k2: val for k2, val in out.items() if val}
    result = BCpElement(j, out)
    bcp_coords(j, out)  # membership check
    return result
