"""Plain implementations that the indexed and sparse ones must match exactly.

Each is the straightforward version of a routine the package now does
faster: the last-column-first unit-pivot eliminator that rescans every
row for each column, the row Hermite form and coordinates over it on
dense rows, the bit walk that shifts a mask once per position, the
join-semilattice test that joins every pair, the intersection-lattice
covers from an all-pairs up-set scan, the ring-axiom check that walks
every triple (i, j, l) with i*j nonzero, the BCp product read off the
whole join of a pair, the fiber enumeration that takes one cell at a
time, the Orlik-Solomon nbc basis and straightening from an explicit
circuit list, the canonical JSON text from the standard library's
pure-Python encoder, the star check that joins every pair below (x, y),
the K-chain boundary that applies both end maps to every chain, the
fiber chain of a completion tensor folded in one entry at a time, and
the braid chain of an nbc monomial folded in one atom at a time.
Beside them sit definitions that the program never needs, only its
tests: the Möbius function by its recursive defining sum, the BCp rank
as a product over undefined entries, and the chain map that a pair of
f-homomorphisms induces on Tor chains.  None imports from
the package, so a test comparing against them checks the package's
routine, not a copy of it.
"""

import bisect
import json
from itertools import combinations, product


def scanning_unit_eliminate(rows: dict[int, dict[int, int]]):
    """Eliminate +-1 pivots in place, last column first, rescanning every row.

    Column j, from the last to the first, is pivoted on a +-1 entry of a
    row not yet used: the row with fewest entries, then the lowest row
    index.  The column is then cleared from every other row, pivot rows
    included; a column with no +-1 entry in an unused row is skipped.
    ``rows`` is left holding the unused rows that are not zero.  Returns
    the pivots as (column, value, row).
    """
    used: dict[int, dict[int, int]] = {}
    pivots = []
    for pj in sorted({j for row in rows.values() for j in row}, reverse=True):
        units = [(len(row), i) for i, row in rows.items() if row.get(pj) in (1, -1)]
        if not units:
            continue
        pi = min(units)[1]
        prow = rows.pop(pi)
        pval = prow[pj]
        for table in (rows, used):
            for i, row in list(table.items()):
                q = row.get(pj, 0) * pval
                if q:
                    for j, x in prow.items():
                        cur = row.get(j, 0) - q * x
                        if cur:
                            row[j] = cur
                        else:
                            row.pop(j, None)
                    if not row:
                        del table[i]
        used[pi] = prow
        pivots.append((pj, pval, prow))
    return pivots


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def dense_row_hermite(vectors, ncols: int) -> list[list[int]]:
    """Row Hermite form of the lattice spanned by dense `vectors`, on dense rows."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = list(vec)
        if len(v) != ncols:
            raise ValueError("vector length mismatch")
        j = 0
        while True:
            j = next((jj for jj in range(j, ncols) if v[jj]), None)
            if j is None:
                break
            pos = bisect.bisect_left(pivots, j)
            if pos < len(pivots) and pivots[pos] == j:
                row = basis[pos]
                aa, bb = row[j], v[j]
                if bb % aa == 0:
                    q = bb // aa
                    for jj in range(j, ncols):
                        v[jj] -= q * row[jj]
                else:
                    x, y, g = _xgcd(aa, bb)
                    new_row = [x * a + y * b for a, b in zip(row, v)]
                    coef_a, coef_b = aa // g, bb // g
                    v = [coef_a * b - coef_b * a for a, b in zip(row, v)]
                    basis[pos] = new_row
            else:
                if v[j] < 0:
                    v = [-x for x in v]
                basis.insert(pos, v)
                pivots.insert(pos, j)
                break
    for idx, j in enumerate(pivots):
        prow = basis[idx]
        p = prow[j]
        for row in basis[:idx]:
            q = row[j] // p
            if q:
                for jj in range(j, ncols):
                    row[jj] -= q * prow[jj]
    return basis


def dense_hermite_coords(basis: list[list[int]], vec) -> list[int] | None:
    """Coordinates of dense `vec` over a dense echelon basis, or None outside its lattice.

    One pass down the rows: each pivot fixes its coordinate, and an entry
    of `vec` that no remaining row can clear puts it outside the lattice.
    """
    v = list(vec)
    n = len(v)
    coords = []
    j = 0
    for row in basis:
        if len(row) != n:
            raise ValueError("vector length mismatch")
        while not row[j]:
            if v[j]:
                return None
            j += 1
        q, r = divmod(v[j], row[j])
        if r:
            return None
        if q:
            for jj in range(j, n):
                v[jj] -= q * row[jj]
        coords.append(q)
        j += 1
    return None if any(v[j:]) else coords


def shifting_mask_elements(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending, shifting once per position."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def all_pairs_semilattice(up: list[int]) -> bool:
    """Whether every pair of elements has a least upper bound, by definition.

    ``up[i]`` is the bitmask of the elements at or above element i.
    """
    for i, j in combinations(range(len(up)), 2):
        mask = up[i] & up[j]
        if not any(mask >> z & 1 and up[z] & mask == mask for z in range(len(up))):
            return False
    return True


def all_pairs_covers(up: list[int], pos: list[int]) -> list[tuple[int, int]]:
    """Covers of the order ``up`` restricted to the elements at ``pos``.

    ``up[p]`` is the bitmask of the elements at or above element p.  Each
    element of ``pos`` is tested against every other one to get the
    restricted up-sets, and (i, j), indices into ``pos``, is a cover when
    no restricted element lies strictly between.
    """
    sub = [sum(1 << j for j, q in enumerate(pos) if up[p] >> q & 1) for p in pos]
    down = [0] * len(sub)
    for i, mask in enumerate(sub):
        for j in shifting_mask_elements(mask):
            down[j] |= 1 << i
    return [(i, j) for i, mask in enumerate(sub)
            for j in shifting_mask_elements(mask & ~(1 << i))
            if not mask & down[j] & ~(1 << i) & ~(1 << j)]


class AxiomViolation(Exception):
    """The structure constants break a ring axiom."""


def walking_ring_axioms(pres, join_theta):
    """Ring axioms of a presentation, one triple (i, j, l) at a time.

    Every nonzero pair (i, j) is joined and checked on its own, and
    associativity compares (i*j)*l with i*(j*l) for every basis element
    l, each side built from scratch.  ``join_theta`` joins two gradings;
    the messages are those of ``check_ring_axioms``.
    """
    table = pres.products
    n = len(pres.basis)
    nonzero = [ij for ij, entry in table.items() if entry]
    stats = {"pairs": n * n, "nonzero": len(nonzero), "triples": 0}

    def cup(i, j):
        return table.get((i, j), {})

    unit = pres.unit_index()
    for i in range(n):
        if cup(unit, i) != {i: 1} or cup(i, unit) != {i: 1}:
            raise AxiomViolation(f"the unit does not act as 1 on basis element {i}")
    for i, j in nonzero:
        ei, ej = pres.basis[i], pres.basis[j]
        target = join_theta(pres.matrices[ei.grading], pres.matrices[ej.grading])
        for idx in cup(i, j):
            e = pres.basis[idx]
            if e.degree != ei.degree + ej.degree or pres.matrices[e.grading] != target:
                raise AxiomViolation(
                    f"product {i}*{j} has term {idx} outside degree "
                    f"{ei.degree + ej.degree} and grading {target.label()}")
        sign = -1 if pres.mode != "real" and (ei.degree * ej.degree) % 2 else 1
        if cup(i, j) != {idx: sign * c for idx, c in cup(j, i).items()}:
            raise AxiomViolation(
                f"products {i}*{j} and {j}*{i} are not graded commutative")
    def times(terms, factor):
        out: dict[int, int] = {}
        for idx, c in terms.items():
            for t, c2 in factor(idx).items():
                out[t] = out.get(t, 0) + c * c2
        if pres.mode == "real":
            out = {t: c % 2 for t, c in out.items()}
        return {t: c for t, c in out.items() if c}

    for (i, j), l in product(nonzero, range(n)):
        stats["triples"] += 1
        left = times(cup(i, j), lambda idx: cup(idx, l))
        right = times(cup(j, l), lambda idx: cup(i, idx))
        if left != right:
            raise AxiomViolation(
                f"({i}*{j})*{l} differs from {i}*({j}*{l})")
    return stats


def cellwise_fiber_matrices(graph, partition, k: int, m: int, PartialMatrix, block_classes):
    """Every partial matrix over one partition, one cell of the product at a time.

    The body of the package's fiber enumeration before it went row by
    row; the matrix class and ``block_classes`` are passed in.
    """
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


def _additive(a, b, j) -> bool:
    return a.r_b + b.r_b == j.r_b and a.r_f + b.r_f == j.r_f


def _image_entry(entry, join_partition):
    block, t = entry
    for p in join_partition:
        if set(block) <= set(p):
            return (p, t)
    raise ValueError("block lost in join")


def _aligned_sign(a, b, j):
    """The sign of the alignment of Ud(a) ++ Ud(b) with Ud(j), and the alignment.

    The alignment lists, for each entry of Ud(a) ++ Ud(b), the position
    of its image in Ud(j).
    """
    target = j.undefined()
    pos = {e: i for i, e in enumerate(target)}
    seq = []
    for src in (a, b):
        for e in src.undefined():
            seq.append(pos[_image_entry(e, j.partition)])
    if sorted(seq) != list(range(len(target))):
        raise ValueError("undefined entries do not biject under join")
    sign = 1
    for i in range(len(seq)):
        for jdx in range(i + 1, len(seq)):
            if seq[i] > seq[jdx]:
                sign = -sign
    return sign, seq


def _defining_glue(p, pieces, k: int):
    """The class on block p that restricts to class c on q for each piece
    (q, c), found by trying every class on p; None when there is none."""
    for rest in product(range(k), repeat=len(p) - 1):
        w = dict(zip(p, (0,) + rest))
        if all(tuple((w[v] - w[q[0]]) % k for v in q) == c for q, c in pieces):
            return tuple(w[v] for v in p)
    return None


def joining_phi_product(a, b, join_theta):
    """The BCp product of the pieces at a and b, read off the join of the pair.

    The package's ``phi_product`` before it worked per join block: the
    whole join ``join_theta(a, b)`` decides independence by rank
    additivity, the alignment of the undefined entries gives the sign,
    and each factor map glues, entry by entry, every class of the source
    entry with the defined classes at that coordinate inside its block.
    Returns None on a dependent pair, else (join, sign, factors).
    """
    j = join_theta(a, b)
    if not _additive(a, b, j):
        return None
    sign, seq = _aligned_sign(a, b, j)
    target = j.undefined()
    sources = [(q, row) for src in (a, b) for q, row in zip(src.rows(), src.entries)]
    factors = [None] * len(seq)
    for src, ((q, t), pos) in enumerate(zip(a.undefined() + b.undefined(), seq)):
        p = target[pos][0]
        zero = (0,) * len(p)
        defined = [(block, row[t]) for block, row in sources
                   if row[t] is not None and set(block) <= set(p)]
        classes = [(0,) + rest for rest in product(range(a.k), repeat=len(q) - 1)]
        glued = [_defining_glue(p, defined + [(q, c)], a.k) for c in classes]
        if None in glued:
            raise ValueError("join of completions is not complete")
        factors[pos] = (src, {c: [(cls, s) for cls, s in ((w, 1), (glued[0], -1))
                                  if cls != zero]
                              for c, w in zip(classes[1:], glued[1:])})
    return j, sign, factors


def library_dumps(data) -> str:
    """Canonical JSON text as the standard library writes it: sorted keys,
    two-space indent, ASCII escapes and a trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _merge_sign(left: tuple, right: tuple):
    """Sorted concatenation of two increasing tuples with its sign, or None."""
    if set(left) & set(right):
        return None
    items = list(left + right)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


class CircuitListOS:
    """nbc basis and straightening of an OS algebra from its circuit list.

    ``atoms`` lists the lattice indices of the atoms in the algebra's
    order; monomials are increasing tuples of positions in it.  The
    circuits are the minimal dependent atom subsets, found by testing
    every subset up to size rank + 1; a broken circuit is a circuit
    without its least atom, and the nbc monomials are the independent
    ones containing no broken circuit.  ``nbc`` maps each lattice label
    to its sorted nbc monomials.
    """

    def __init__(self, lattice, atoms):
        self.lattice = lattice
        self.atoms = tuple(atoms)
        self.bottom = next(i for i in range(lattice.n) if lattice.rank[i] == 0)
        self.circuits = []
        for size in range(2, max(lattice.rank) + 2):
            for comb in combinations(range(len(self.atoms)), size):
                if (not any(set(c) <= set(comb) for c in self.circuits)
                        and not self.independent(comb)):
                    self.circuits.append(comb)
        self.broken = sorted({c[1:] for c in self.circuits})
        self.nbc = {x: [] for x in lattice.labels}
        for size in range(max(lattice.rank) + 1):
            for comb in combinations(range(len(self.atoms)), size):
                if self.independent(comb) and not self._contains_broken(comb):
                    self.nbc[lattice.labels[self.join_of(comb)]].append(comb)

    def join_of(self, positions) -> int:
        acc = self.bottom
        for p in positions:
            acc = self.lattice.join_index(acc, self.atoms[p])
        return acc

    def independent(self, subset) -> bool:
        return self.lattice.rank[self.join_of(subset)] == len(subset)

    def _contains_broken(self, subset) -> bool:
        return any(set(b) <= set(subset) for b in self.broken)

    def straighten(self, mono: tuple) -> dict:
        """An increasing independent monomial in the nbc basis.

        Rewrites the first broken circuit it contains with the relation
        of the first circuit that breaks to it, and recurses.
        """
        if not self._contains_broken(mono):
            return {mono: 1}
        broken = next(b for b in self.broken if set(b) <= set(mono))
        circuit = next(c for c in self.circuits if c[1:] == broken)
        rest = tuple(a for a in mono if a not in broken)
        _, unshuffle = _merge_sign(rest, broken)
        out = {}
        # e_{C minus c_0} = sum_{l >= 1} (-1)^(l+1) e_{C minus c_l}
        for l in range(1, len(circuit)):
            merged = _merge_sign(rest, circuit[:l] + circuit[l + 1:])
            if merged is None or not self.independent(merged[0]):
                continue
            sign = (-1) ** (l + 1) * merged[1] * unshuffle
            for k, v in self.straighten(merged[0]).items():
                out[k] = out.get(k, 0) + sign * v
        return {k: v for k, v in out.items() if v}


def moebius(poset, x, y) -> int:
    """Möbius function mu(x, y) of a poset, by the recursive defining sum.

    mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y, the z
    taken in the poset's topological order.  ValueError unless x <= y.
    """
    i, j = poset.index[x], poset.index[y]
    if not poset.leq(i, j):
        raise ValueError(f"{x} is not below {y}")
    interval = [z for z in poset.topo if poset.leq(i, z) and poset.leq(z, j)]
    mu = {}
    for z in interval:
        mu[z] = 1 if z == i else -sum(mu[w] for w in mu if poset.leq(w, z))
    return mu[j]


def bcp_rank(theta) -> int:
    """Rank of the BCp piece at a partial matrix: k^(|b|-1) - 1 per undefined entry."""
    out = 1
    for block, _ in theta.undefined():
        out *= theta.k ** (len(block) - 1) - 1
    return out


def induced_chain_map(k, t):
    """The chain map (k, t)_# of Tor: kills chains with repeated images.

    ``k`` is the presheaf f-homomorphism, ``t`` the copresheaf one, both
    over the same poset morphism.  Returns a function mapping a formal
    chain over its source to one over its target, each index sent to its
    image.
    """
    if k.f.mapping != t.f.mapping:
        raise ValueError("presheaf and copresheaf parts live over different maps")
    fimage = k.f.image

    def push(formal: dict) -> dict:
        out: dict = {}
        for (c, gi, fi), coeff in formal.items():
            image = tuple(fimage[i] for i in c)
            if len(set(image)) != len(image):
                continue
            for gp, tv in t.components[c[0]][gi].items():
                for fp, kv in k.components[c[-1]][fi].items():
                    key = (image, gp, fp)
                    out[key] = out.get(key, 0) + coeff * tv * kv
        return {k2: v for k2, v in out.items() if v}

    return push


def all_pairs_star_defined(lattice, x: int, y: int) -> bool:
    """Whether (x, y) is the only pair below itself that joins to x v y.

    Joins every pair (a, b) with a <= x and b <= y.
    """
    xy = lattice.join_index(x, y)
    return not any((a, b) != (x, y) and lattice.join_index(a, b) == xy
                   for a in lattice.mask_elements(lattice.down[x])
                   for b in lattice.mask_elements(lattice.down[y]))


def both_ends_boundary(kc, n: int) -> list[dict[int, int]]:
    """The boundary of a Tor K-chain complex from degree n, as sparse columns.

    Every chain gets both end maps, the copresheaf's on dropping its first
    element and the presheaf's on dropping its last, whatever the ranks at
    the new ends; a rank-0 value contributes no entries.
    """
    lower = kc.position[n - 1]
    cols = []
    for c, gi, fi in kc.keys[n]:
        col = {}
        for gp, v in kc.g.map_index(c[0], c[1])[gi].items():
            col[lower[(c[1:], gp, fi)]] = v
        for i in range(1, n):
            col[lower[(c[:i] + c[i + 1:], gi, fi)]] = (-1) ** i
        for fp, v in kc.f.map_index(c[-2], c[-1])[fi].items():
            col[lower[(c[:-1], gi, fp)]] = (-1) ** n * v
        cols.append(col)
    return cols


def folding_fiber_chain(entries, assignment, zero) -> dict:
    """The shuffle product of a completion tensor's entry cycles, one entry at a time.

    ``entries`` are the rows of a partial matrix (None where undefined),
    ``assignment`` the classes of its undefined entries in row-major
    order, and ``zero(r)`` the zero class of row r.  A defined entry
    extends every element of every chain.  An undefined entry is the
    one-step chain (class -> None) minus (zero class -> None); shuffling
    it into a chain of p steps puts its step after t of them, t = 0..p,
    with sign (-1)^(p - t).  Keys are chains of row-major value tuples.
    """
    classes = iter(assignment)
    state = {((),): 1}
    for r, row in enumerate(entries):
        for value in row:
            out: dict = {}
            if value is None:
                for start, sign in ((next(classes), 1), (zero(r), -1)):
                    for chain, c in state.items():
                        p = len(chain) - 1
                        for t in range(p + 1):
                            new = (tuple(e + (start,) for e in chain[:t + 1])
                                   + tuple(e + (None,) for e in chain[t:]))
                            out[new] = out.get(new, 0) + c * sign * (-1) ** (p - t)
            else:
                for chain, c in state.items():
                    out[tuple(e + (value,) for e in chain)] = c
            state = {chain: c for chain, c in out.items() if c}
    return state


def folding_braid_chain(bottom, atoms, join) -> dict:
    """The shuffle product of the one-step chains (bottom -> atom), one atom at a time.

    ``join`` is the lattice join on elements.  Shuffling the next atom's
    step into a chain of p steps puts it after t of them, t = 0..p, with
    sign (-1)^(p - t): the chain keeps its first t + 1 elements and joins
    the atom into the rest.  An image that repeats an element is
    degenerate and dropped.  Keys are chains of elements.
    """
    state = {(bottom,): 1}
    for atom in atoms:
        out: dict = {}
        for chain, c in state.items():
            p = len(chain) - 1
            for t in range(p + 1):
                new = chain[:t + 1] + tuple(join(e, atom) for e in chain[t:])
                if len(set(new)) == len(new):
                    out[new] = out.get(new, 0) + c * (-1) ** (p - t)
        state = {chain: c for chain, c in out.items() if c}
    return state
