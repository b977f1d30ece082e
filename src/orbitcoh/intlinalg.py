"""Exact linear algebra over the integers.

Homology of chain complexes of free abelian groups, all in Python ints
(arbitrary precision).  Every vector between the elimination of a
boundary and the read-off of a class is one sparse form: a dict
{index: value} that stores no zero entry, so the pivot of a Hermite row
is its least key.  A boundary is a list of sparse columns {row:
coefficient}, one per basis element of its source.  One sparse
elimination of the +-1 pivots (``UnitReduction``), taking the last
column first and clearing each pivot column from every other row, gives
the invariant factors, with the Smith form of its small core, and the
integer kernel.  When the core is empty and every pivot row lies left
of its pivot, the kernel is read off the pivot rows already in row
Hermite form; otherwise it is lifted from the core's and made canonical
by the one row Hermite reduction (``row_hermite``), which also answers
membership, coordinates and exact solves.  Every other matrix (sheaf
maps, differentials of cellular forms, morphism components) is the same
list of sparse columns, with its row count read from the ranks it maps
between; only ``smith_normal_form`` works on dense row lists, on the
small cores the unit pivots leave.  No floating point anywhere.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd, prod
from typing import NamedTuple


class NoIntegerSolution(Exception):
    """A·x = b has no integer solution."""


class NonUnique(Exception):
    """A has a nontrivial kernel, so A·x = b cannot be solved uniquely."""


class InvalidComplex(Exception):
    """Composite of consecutive boundary maps is nonzero."""


def identity(n: int) -> list[dict[int, int]]:
    """The n x n identity as sparse columns."""
    return [{i: 1} for i in range(n)]


def shape_error(cols: list[dict[int, int]], rows: int, ncols: int) -> str | None:
    """Why sparse columns are not a rows x ncols matrix, or None when they are."""
    if len(cols) != ncols:
        return f"{len(cols)} columns, not {ncols}"
    if any(not 0 <= r < rows for col in cols for r in col):
        return f"a row outside 0..{rows - 1}"
    return None


def sparse_apply(cols: list[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """A·v for A given by sparse columns and a sparse v, without zero entries."""
    acc: dict[int, int] = {}
    for p, c in vec.items():
        for r, x in cols[p].items():
            acc[r] = acc.get(r, 0) + c * x
    return {r: x for r, x in acc.items() if x}


def kron(a: list[dict[int, int]], b: list[dict[int, int]], b_rows: int):
    """Kronecker product of sparse columns, b having ``b_rows`` rows.

    Bases pair row-major, the a-index major: column j * len(b) + q holds
    a[j][i] * b[q][p] at row i * b_rows + p.
    """
    return [{i * b_rows + p: x * y for i, x in acol.items() for p, y in bcol.items()}
            for acol in a for bcol in b]


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


def smith_normal_form(a: list[list[int]], n: int) -> tuple[list, list, list]:
    """Return (U, D, V) with U·A·V = D, U and V unimodular, all as row lists.

    A is given by its rows, each of ``n`` ints.  D is diagonal with
    nonnegative entries satisfying d1 | d2 | ... .
    """
    m = len(a)
    d = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, k, q):
        # row_i -= q * row_k
        di, dk = d[i], d[k]
        for j in range(n):
            if dk[j]:
                di[j] -= q * dk[j]
        ui, uk = u[i], u[k]
        for j in range(m):
            if uk[j]:
                ui[j] -= q * uk[j]

    def col_op(j, k, q):
        # col_j -= q * col_k
        for row in d:
            if row[k]:
                row[j] -= q * row[k]
        for row in v:
            if row[k]:
                row[j] -= q * row[k]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < m and t < n:
        # pick a nonzero pivot of minimal absolute value in the lower block
        piv = None
        best = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    if piv is None or abs(x) < best:
                        piv, best = (i, j), abs(x)
                        if best == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        if piv != (t, t):
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
        while True:
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // p
                    row_op(i, t, q)
                    if d[i][t]:
                        swap_rows(i, t)  # remainder is a smaller pivot
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // p
                    col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot divides its whole row and column, now zeroed; enforce
            # divisibility against the remaining block
            p = d[t][t]
            witness = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_op(t, witness, -1)  # fold the offending row into row t
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            u[i] = [-x for x in u[i]]
            d[i][i] = -d[i][i]
    return u, d, v


def _sparse_unit_eliminate(rows: dict[int, dict[int, int]]):
    """Eliminate +-1 pivots in place, last column first; return them as (column, value, row).

    Column j, from the last to the first, is pivoted on a +-1 entry of a
    row not yet used: the row with fewest entries, then the lowest row
    index.  The pivot column is cleared from every other row, pivot rows
    included, so each pivot row holds no pivot column but its own.  A
    column whose unused entries are all non-units is left to the core:
    ``rows`` keeps the unused rows that are not zero, which hold no
    pivot column.  Only row operations by +-1 pivots are used, so the
    invariant factors of the input are 1^k (k pivots) followed by those
    of the core.
    """
    holders: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    live = dict(rows)  # the rows that are not zero: unused ones and pivot rows
    pivots = []
    for pj in sorted(holders, reverse=True):
        units = [i for i in holders[pj] if i in rows and rows[i][pj] in (1, -1)]
        if not units:
            continue
        pi = min(units, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pi)
        pval = prow[pj]
        rest = [(j, x) for j, x in prow.items() if j != pj]
        for i in holders.pop(pj):
            if i == pi:
                continue
            row = live[i]
            q = row.pop(pj) * pval  # pval in {1,-1}: exact multiplier
            for j, x in rest:
                cur = row.get(j, 0) - q * x
                if cur:
                    row[j] = cur
                    holders[j].add(i)
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
            if not row:
                del rows[i], live[i]
        pivots.append((pj, pval, prow))
    return pivots


class UnitReduction:
    """One ``_sparse_unit_eliminate`` of the sparse columns of A.

    Keeps its pivots and core, and gives the divisors and kernel of A.
    The elimination takes the last column first and clears each pivot
    column from every row, so when the core is empty the kernel comes
    out in row Hermite form: ``row_hermite`` runs only to make a kernel
    lifted from a nonempty core canonical, or when a pivot row reaches
    to the right of its pivot.
    """

    def __init__(self, cols: list[dict[int, int]]):
        self.cols = len(cols)
        rows: dict[int, dict[int, int]] = {}
        for j, col in enumerate(cols):
            for i, x in col.items():
                if x:
                    rows.setdefault(i, {})[j] = x
        self.core = {i: rows[i] for i in sorted(rows)}
        self.pivots = _sparse_unit_eliminate(self.core)

    @cached_property
    def divisors(self) -> list[int]:
        """1 per pivot, then the Smith form of the core's nonzero columns."""
        ones = [1] * len(self.pivots)
        if not self.core:
            return ones
        cindex = sorted({j for row in self.core.values() for j in row})
        _, d, _ = smith_normal_form([[row.get(j, 0) for j in cindex]
                                     for row in self.core.values()], len(cindex))
        return ones + [x for i, row in enumerate(d[:len(cindex)]) if (x := row[i])]

    @cached_property
    def kernel(self) -> list[dict[int, int]]:
        """Hermite basis of ker A as sparse rows, lifted from the core's kernel.

        The core's kernel lives on the free (nonpivot) columns: the
        identity on them when the core is empty, else that of a
        ``ColumnSolver`` of the core.  Each pivot row holds its pivot and
        free columns only, so it fixes its pivot coordinate from the free
        ones: the kernel vector of a free column f is e_f minus, at each
        pivot column, its row's entry at f over the pivot.  With an empty
        core and no pivot row reaching right of its pivot, those vectors
        are already the Hermite basis, pivoted on the free columns with
        zeros above; otherwise ``row_hermite`` makes the lifted basis
        canonical.
        """
        pivot_cols = {pj for pj, _, _ in self.pivots}
        free = [j for j in range(self.cols) if j not in pivot_cols]
        through: dict[int, dict[int, int]] = {f: {} for f in free}  # f -> {pj: x_pj at e_f}
        reaches_right = False
        for pj, pval, prow in self.pivots:
            for f, x in prow.items():
                if f != pj:
                    through[f][pj] = -pval * x
                    if f > pj:
                        reaches_right = True
        if not self.core:
            kernel = [{f: 1, **through[f]} for f in free]
            return row_hermite(kernel) if reaches_right else kernel
        cpos = {j: p for p, j in enumerate(free)}
        core_cols: list[dict[int, int]] = [{} for _ in free]
        for p, row in enumerate(self.core.values()):
            for j, x in row.items():
                core_cols[cpos[j]][p] = x
        lifted = []
        for y in ColumnSolver(core_cols, len(self.core)).kernel:
            v: dict[int, int] = {}
            for p, c in y.items():
                v[free[p]] = c
                for pj, x in through[free[p]].items():
                    v[pj] = v.get(pj, 0) + c * x
            lifted.append({j: x for j, x in v.items() if x})
        return row_hermite(lifted)


def elementary_divisors(cols: list[dict[int, int]]) -> list[int]:
    """Nonzero Smith diagonal of sparse columns: 1 per unit pivot, then the core's."""
    return UnitReduction(cols).divisors


def rank_mod2(cols: list[dict[int, int]]) -> int:
    """Rank over GF(2) of sparse columns, each packed into a Python int bitmask."""
    masks = []
    for col in cols:
        b = 0
        for i, x in col.items():
            if x & 1:
                b |= 1 << i
        if b:
            masks.append(b)
    rank = 0
    while masks:
        piv = masks.pop()
        rank += 1
        low = piv & -piv
        masks = [(m ^ piv) if m & low else m for m in masks]
        masks = [m for m in masks if m]
    return rank


def _axpy(v: dict[int, int], q: int, row: dict[int, int], todo=None):
    """v += q * row in place, dropping zeros; columns new to v go on `todo`."""
    for c, y in row.items():
        x = v.get(c)
        if x is None:
            v[c] = q * y
            if todo is not None:
                heapq.heappush(todo, c)
        else:
            x += q * y
            if x:
                v[c] = x
            else:
                del v[c]


def _combine(a: dict[int, int], p: int, b: dict[int, int], q: int) -> dict[int, int]:
    """p * a + q * b as a new sparse vector without zeros."""
    out = {c: p * x for c, x in a.items()} if p else {}
    for c, y in b.items():
        x = out.get(c, 0) + q * y
        if x:
            out[c] = x
        else:
            out.pop(c, None)
    return out


def row_hermite(vectors: list[dict[int, int]]) -> list[dict[int, int]]:
    """Canonical basis (row Hermite form) of the lattice spanned by sparse vectors.

    Vectors and rows are {column: value} without zero entries, so a
    row's pivot is its least column.  The rows come ordered by pivot,
    each pivot positive and every entry above it reduced into
    [0, pivot); zero vectors add nothing.  Two generating sets span the
    same lattice iff their Hermite bases are equal.  Each vector is
    reduced against the rows kept so far, leftmost nonzero column first,
    with a heap of the columns it may be nonzero in; a column whose row
    does not divide it is merged by the extended gcd.  The vectors are
    used up: each may be changed in place and kept as a row.
    """
    basis: dict[int, dict[int, int]] = {}  # pivot column -> row
    for v in vectors:
        todo = list(v)
        heapq.heapify(todo)
        while todo:
            # every reduction clears v[j] and changes only later columns
            j = heapq.heappop(todo)
            b = v.get(j)
            if not b:
                continue
            row = basis.get(j)
            if row is None:
                basis[j] = v if b > 0 else {c: -x for c, x in v.items()}
                break
            a = row[j]
            if b % a == 0:
                _axpy(v, -(b // a), row, todo)
            else:
                x, y, g = _xgcd(a, b)
                basis[j] = _combine(row, x, v, y)
                v = _combine(v, a // g, row, -(b // g))
                for c in row:
                    heapq.heappush(todo, c)
    rows = [basis[j] for j in sorted(basis)]
    # back-reduce entries above pivots, leftmost pivot first: each step
    # changes only columns from its own pivot on, so it keeps the entries
    # above earlier pivots reduced.  holders[j] holds the rows with an
    # entry at pivot column j that is not their own pivot, kept up to
    # date for the pivots still to come as rows change.
    holders: dict[int, set[int]] = {j: set() for j in basis}
    for t, row in enumerate(rows):
        for c in row:
            if c in holders and row is not basis[c]:
                holders[c].add(t)
    for prow in rows:
        j = min(prow)
        p = prow[j]
        for t in holders.pop(j):
            row = rows[t]
            q = row[j] // p
            if q:
                _axpy(row, -q, prow)
                for c in prow:
                    if c in holders:
                        if c in row:
                            holders[c].add(t)
                        else:
                            holders[c].discard(t)
    return rows


def hermite_coords(basis: list[dict[int, int]], vec: dict[int, int]) -> list[int] | None:
    """Coordinates of sparse `vec` over a Hermite basis, or None outside its lattice.

    `basis` rows must have strictly increasing pivots, as those of
    `row_hermite` do.  One pass down the rows: each pivot fixes its
    coordinate and clears its column.  A row changes no column to the
    left of its pivot, so an entry still left at the end is one that no
    row can clear, and puts `vec` outside the lattice.
    """
    v = dict(vec)
    coords = []
    for row in basis:
        j = min(row)
        q, r = divmod(v.get(j, 0), row[j])
        if r:
            return None
        if q:
            _axpy(v, -q, row)
        coords.append(q)
    return None if v else coords


def echelon_readoff(basis: list[dict[int, int]]) -> tuple[int, dict[int, dict[int, int]]]:
    """Coordinates over a row Hermite basis, read off its pivot columns.

    Returns ``(d, cols)``: a vector v of the basis's lattice has
    coordinates (sum over pivot columns p of v[p] * cols[p]) / d, exactly.
    On the pivot columns the basis is an upper triangular matrix with
    the pivots on its diagonal; when every pivot is 1 the reduction
    above the pivots makes it the identity, so d = 1 and coordinate r is
    v at the r-th pivot.  The map says nothing about membership: check
    that separately.
    """
    pivots = [min(row) for row in basis]
    if all(row[p] == 1 for row, p in zip(basis, pivots)):
        return 1, {p: {r: 1} for r, p in enumerate(pivots)}
    # d times the inverse of the triangular block is its adjugate, so the
    # forward substitution against d * e_r divides exactly
    d = prod(row[p] for row, p in zip(basis, pivots))
    cols = {}
    for r, pr in enumerate(pivots):
        col: list[int] = []
        for s, p in enumerate(pivots):
            acc = d * (s == r) - sum(basis[t].get(p, 0) * col[t] for t in range(s))
            col.append(acc // basis[s][p])
        cols[pr] = col
    g = gcd(d, *(x for col in cols.values() for x in col))
    return d // g, {p: {s: x // g for s, x in enumerate(col) if x}
                    for p, col in cols.items()}


class ColumnSolver:
    """Hermite reduction of the sparse columns of A, for its kernel and exact solves.

    A has ``rows`` rows.  Column j, extended by the unit vector e_j, is
    the row (A·e_j, e_j).  In the row Hermite form of these rows, the
    rows with a nonzero A-part are an echelon basis of the column
    lattice (``image``), each with the combination of columns that
    gives it (``combos``); the rest have a zero A-part, and their unit
    parts are the Hermite basis of ker A (``kernel``).  All three are
    sparse rows, the last two indexed by the columns of A.
    """

    def __init__(self, cols: list[dict[int, int]], rows: int):
        m, n = rows, len(cols)
        self.rows, self.cols = m, n
        extended = []
        for j, col in enumerate(cols):
            if any(not 0 <= i < m for i in col):
                raise ValueError("column entry outside the matrix rows")
            row = {i: x for i, x in col.items() if x}
            row[m + j] = 1
            extended.append(row)
        hermite = row_hermite(extended)
        del extended
        split = sum(1 for row in hermite if min(row) < m)
        self.image = [{i: x for i, x in row.items() if i < m} for row in hermite[:split]]
        self.combos = [{j - m: x for j, x in row.items() if j >= m}
                       for row in hermite[:split]]
        self.kernel = [{j - m: x for j, x in row.items()} for row in hermite[split:]]

    def solve(self, b: dict[int, int]) -> dict[int, int]:
        """The unique x with A·x = b, both sparse, x without zero entries."""
        if any(not 0 <= i < self.rows for i in b):
            raise ValueError("rhs row out of range")
        if self.kernel:
            raise NonUnique("matrix has nontrivial kernel")
        coords = hermite_coords(self.image, b)
        if coords is None:
            raise NoIntegerSolution("rhs outside the column lattice")
        return sparse_apply(self.combos, {r: q for r, q in enumerate(coords) if q})


class ChainComplex:
    """Complex of free abelian groups with integer boundary maps.

    `ranks[i]` is the rank in degree i; `boundaries[i]` maps degree i to
    degree i-1 (for 1 <= i < len(ranks)) as ranks[i] sparse columns
    {row: coefficient}, each row in 0..ranks[i-1]-1.  A missing boundary
    is zero.  The composite of consecutive boundaries must vanish; the
    constructor checks the shapes, and ``validate`` checks the composites.
    """

    __slots__ = ("ranks", "boundaries", "_reductions")

    def __init__(self, ranks: list[int], boundaries: dict[int, list[dict[int, int]]]):
        self.ranks = list(ranks)
        self.boundaries = dict(boundaries)
        self._reductions: dict[int, UnitReduction] = {}
        top = len(self.ranks)
        for i in self.boundaries:
            if not 1 <= i < top:
                raise ValueError(f"boundary index {i} out of range")
        for i in range(1, top):
            if i not in self.boundaries:
                self.boundaries[i] = [{} for _ in range(self.ranks[i])]
            err = shape_error(self.boundaries[i], self.ranks[i - 1], self.ranks[i])
            if err:
                raise ValueError(f"boundary {i} has {err}")

    def boundary(self, i: int) -> list[dict[int, int]]:
        """Boundary i as sparse columns, empty outside 1 <= i < len(ranks)."""
        d = self.boundaries.get(i)
        if d is None:
            d = [{} for _ in range(self.ranks[i] if 0 <= i < len(self.ranks) else 0)]
        return d

    def reduction(self, i: int) -> UnitReduction:
        """The unit-pivot reduction of boundary i, made once and then kept."""
        if i not in self._reductions:
            self._reductions[i] = UnitReduction(self.boundary(i))
        return self._reductions[i]

    def validate(self):
        """Check del o del = 0, one sparse column at a time."""
        for i in range(2, len(self.ranks)):
            lo = self.boundaries[i - 1]
            if any(sparse_apply(lo, col) for col in self.boundaries[i]):
                raise InvalidComplex(f"boundary composite nonzero in degree {i}")


class HomologySummary(NamedTuple):
    """Per-degree integral homology: free rank and invariant factors > 1."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def betti(self, n: int) -> int:
        return self.groups[n][0] if 0 <= n < len(self.groups) else 0

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.groups[n][1] if 0 <= n < len(self.groups) else ()

    def betti_vector(self) -> list[int]:
        return [g[0] for g in self.groups]

    def is_free(self) -> bool:
        return all(not g[1] for g in self.groups)

    def __str__(self) -> str:
        parts = []
        for n, (b, tors) in enumerate(self.groups):
            terms = ([f"Z^{b}"] if b > 1 else ["Z"] if b == 1 else [])
            terms += [f"Z/{t}" for t in tors]
            parts.append(f"H_{n}={'+'.join(terms) if terms else '0'}")
        return " ".join(parts)


def homology(complex_: ChainComplex) -> HomologySummary:
    """Integral homology from the divisors of each kept reduction of a nonempty boundary."""
    top = len(complex_.ranks)
    divisors = {i: complex_.reduction(i).divisors for i in range(1, top)
                if complex_.ranks[i] and complex_.ranks[i - 1]}
    groups = []
    for n in range(top):
        r_out = len(divisors.get(n, []))
        div_in = divisors.get(n + 1, [])
        betti = complex_.ranks[n] - r_out - len(div_in)
        torsion = tuple(t for t in div_in if t > 1)
        groups.append((betti, torsion))
    return HomologySummary(tuple(groups))


def homology_mod2(complex_: ChainComplex) -> list[int]:
    """Dimensions of homology with Z/2 coefficients."""
    top = len(complex_.ranks)
    ranks2 = {i: rank_mod2(complex_.boundary(i)) for i in range(1, top + 1)}
    ranks2[0] = 0
    return [
        complex_.ranks[n] - ranks2.get(n, 0) - ranks2.get(n + 1, 0)
        for n in range(top)
    ]
