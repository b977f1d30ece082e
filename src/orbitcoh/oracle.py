"""Brute-force Tor over a poset and the arrangement-cohomology oracle.

The chain K_*(P, G; F) has degree-n basis (p_0 < ... < p_n, b (x) c)
with b a basis vector of G(p_0) and c one of F(p_n); its homology is
Tor^P_*(F, G).  On top of it sit the Goresky-MacPherson sum over an
intersection lattice and one shuffle-and-push primitive,
``shuffle_tensor``: the shuffle products of chain pairs mapped
elementwise into a poset, kept apart per pair.  ``shuffle_block``
contracts it with the coefficients of two batches of formal chains;
the ``verify`` module builds each grading's basis cycles in one block,
and the cup product (cross-then-star) pushes the chains of two whole
batches of cycles through one block.  Everything here exists to verify
the closed-form ring elsewhere in the package, so it favors
transparency over speed.  ``GMOracle`` refuses an oversized
intersection lattice once, up front; a bare ``TorComplex`` takes any
poset.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter

from .intlinalg import (
    ChainComplex,
    echelon_readoff,
    homology,
    homology_mod2,
    HomologySummary,
    smith_normal_form,
    sparse_apply,
)
from .posets import GradedPoset, join
from .sheaves import Copresheaf, Presheaf, delta_sheaf


class OracleTooLarge(Exception):
    """The poset exceeds the configured brute-force size limit."""


class NotCycle(Exception):
    """A chain offered as a homology class representative is not closed."""


DEFAULT_ORACLE_LIMIT = 100


class TorComplex:
    """K_*(P, G; F) with a deterministic basis keyed by (index chain, gi, fi)."""

    def __init__(self, poset: GradedPoset, g: Copresheaf, f: Presheaf):
        self.poset = poset
        self.g = g
        self.f = f
        self.chains: list[list[tuple[int, ...]]] = []
        self._enumerate_chains()
        self.keys = [[(c, gi, fi) for c in chs for gi in range(g.ranks[c[0]])
                      for fi in range(f.ranks[c[-1]])] for chs in self.chains]
        self.position = [{key: i for i, key in enumerate(keys)} for keys in self.keys]
        self.ranks = [len(k) for k in self.keys]
        self._complex: ChainComplex | None = None
        self._tor: dict[int, TorDegree] = {}
        self._homology: HomologySummary | None = None

    # -- basis -------------------------------------------------------------

    def _enumerate_chains(self):
        poset, g, f = self.poset, self.g, self.f
        reach = 0  # the elements below some point of the F-support
        for i in range(poset.n):
            if f.ranks[i]:
                reach |= poset.down[i]
        chains: list[list[tuple[int, ...]]] = []

        def record(chain):
            n = len(chain) - 1
            while len(chains) <= n:
                chains.append([])
            chains[n].append(tuple(chain))

        def extend(chain):
            last = chain[-1]
            if f.ranks[last]:
                record(chain)
            for j in poset.mask_elements(poset.up[last] & reach & ~(1 << last)):
                chain.append(j)
                extend(chain)
                chain.pop()

        for start in range(poset.n):
            if g.ranks[start]:
                extend([start])
        for lst in chains:
            lst.sort()
        self.chains = chains

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n < len(self.ranks) else 0

    # -- boundary ----------------------------------------------------------

    def boundary(self, n: int) -> list[dict[int, int]]:
        """The map from degree n to degree n-1, as sparse columns (1 <= n < len(ranks)).

        Column j is the boundary of basis chain j.  Its faces are distinct
        chains, so each face writes entries of its own.  An end face whose
        new end carries a zero sheaf value maps to zero and is skipped: on a
        Goresky-MacPherson complex both end faces of every chain are.
        """
        pos_lo = self.position[n - 1]
        g_ranks, f_ranks = self.g.ranks, self.f.ranks
        sign = -1 if n % 2 else 1
        cols = []
        for c, gi, fi in self.keys[n]:
            col = {}
            # face 0: drop p_0, extend the copresheaf part (zero if G(p_1) = 0)
            if g_ranks[c[1]]:
                for gp, v in self.g.map_index(c[0], c[1])[gi].items():
                    col[pos_lo[(c[1:], gp, fi)]] = v
            # interior faces
            for i in range(1, n):
                col[pos_lo[(c[:i] + c[i + 1:], gi, fi)]] = -1 if i % 2 else 1
            # face n: drop p_n, restrict the presheaf part (zero if F(p_n-1) = 0)
            if f_ranks[c[-2]]:
                for fp, v in self.f.map_index(c[-2], c[-1])[fi].items():
                    col[pos_lo[(c[:-1], gi, fp)]] = sign * v
            cols.append(col)
        return cols

    def chain_complex(self) -> ChainComplex:
        """The complex with every boundary, assembled once and kept."""
        if self._complex is None:
            bounds = {n: self.boundary(n) for n in range(1, len(self.ranks))}
            self._complex = ChainComplex(self.ranks or [0], bounds)
        return self._complex

    def homology(self) -> HomologySummary:
        if self._homology is None:
            self._homology = homology(self.chain_complex())
        return self._homology

    def homology_mod2(self) -> list[int]:
        return homology_mod2(self.chain_complex())

    # -- vectors and formal chains ------------------------------------------

    def vector(self, formal: dict, n: int) -> dict[int, int]:
        """A formal chain of degree n as a sparse vector {position: coefficient}."""
        pos = self.position[n] if n < len(self.position) else {}
        return {pos[key]: c for key, c in formal.items() if c}

    def check_cycles(self, n: int, vecs) -> None:
        """Raise NotCycle unless every sparse vector of degree n is closed.

        One pass of the sparse boundary columns over the whole batch.
        """
        cols = self.chain_complex().boundary(n)
        if any(sparse_apply(cols, vec) for vec in vecs):
            raise NotCycle(f"representative in degree {n} is not closed")

    def tor(self, n: int) -> "TorDegree":
        if n not in self._tor:
            self._tor[n] = TorDegree(self, n)
        return self._tor[n]


class TorDegree:
    """Homology of K_* in one degree, with class arithmetic.

    Classes are compared through canonical coordinates: cycle
    coefficients over the Hermite basis of the kernel lattice, normalized
    modulo the boundary image via Smith form.  The kernel is saturated,
    so every cycle has integer coordinates over it, read off its entries
    at the basis's pivot columns.  That read-off composed with the Smith
    transform is one fixed sparse map from chain positions to class
    coordinates.  Rows of the transform whose invariant factor is 1
    always read 0, so the map keeps only the torsion and free rows, and a
    degree without homology needs no kernel basis and no transform.
    """

    def __init__(self, complex_: TorComplex, n: int):
        self.complex = complex_
        self.n = n
        cx = complex_.chain_complex()
        # the image sits in the saturated kernel with the invariant
        # factors of the next boundary
        self.invariants = cx.reduction(n + 1).divisors
        z = complex_.rank(n) - len(cx.reduction(n).divisors)
        self.betti = z - len(self.invariants)
        self.torsion = tuple(t for t in self.invariants if t > 1)
        self._moduli = self.invariants + [0] * self.betti

    @cached_property
    def kernel(self) -> list[dict[int, int]]:
        return self.complex.chain_complex().reduction(self.n).kernel

    @cached_property
    def _readoff(self) -> tuple[int, dict[int, dict[int, int]]]:
        return echelon_readoff(self.kernel)

    @cached_property
    def _u(self) -> list[list[int]]:
        """Left transform of the Smith form of the image in kernel coordinates, as rows."""
        images = [col for col in self.complex.chain_complex().boundary(self.n + 1) if col]
        self.complex.check_cycles(self.n, images)
        coords = [self.kernel_coords(col) for col in images]
        y = [list(row) for row in zip(*coords)] if coords else [[] for _ in self.kernel]
        u, d, _ = smith_normal_form(y, len(images))
        if [x for i, row in enumerate(d[:len(images)]) if (x := row[i])] != self.invariants:
            raise AssertionError("Smith form of the image disagrees with the boundary")
        return u

    @cached_property
    def _map(self) -> dict[int, list[tuple[int, int]]]:
        """Position -> [(class row, coefficient)], on the torsion and free rows."""
        keep = [i for i, t in enumerate(self._moduli) if t != 1]
        if not keep:
            return {}
        rows = self._u
        out = {}
        for p, col in self._readoff[1].items():
            entries = [(i, x) for i in keep
                       if (x := sum(rows[i][r] * c for r, c in col.items()))]
            if entries:
                out[p] = entries
        return out

    def kernel_coords(self, vec: dict[int, int]) -> list[int]:
        """Coordinates over the kernel basis of a sparse cycle.

        The caller has checked that ``vec`` is closed; the read-off is
        meaningless otherwise.
        """
        d, readoff = self._readoff
        acc = [0] * len(self.kernel)
        for p, c in vec.items():
            for r, x in readoff.get(p, {}).items():
                acc[r] += c * x
        return [x // d for x in acc]

    def class_coords(self, vecs) -> list[tuple[int, ...]]:
        """Canonical class coordinates of a batch of sparse cycles.

        One batched boundary product checks that every vector is closed
        (NotCycle otherwise); then the fixed sparse map reads each one.
        The unit rows read 0, so without torsion and with denominator 1
        the read is already canonical.
        """
        self.complex.check_cycles(self.n, vecs)
        cmap = self._map
        d = self._readoff[0] if cmap else 1
        plain = d == 1 and not self.torsion
        out = []
        for vec in vecs:
            acc = [0] * len(self._moduli)
            for p, c in vec.items():
                for i, x in cmap.get(p, ()):
                    acc[i] += c * x
            out.append(tuple(acc) if plain else tuple(
                x // d % t if t else x // d for x, t in zip(acc, self._moduli)))
        return out


# -- shuffles and cross products ---------------------------------------------


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """All (p, q)-shuffles as lattice paths with their signs.

    A shuffle is the strictly increasing map [p+q] -> [p] x [q]; its
    sign counts inversions between first-coordinate and
    second-coordinate steps.
    """
    out = []

    def rec(a, b, path, sign, plus_seen):
        if a == p and b == q:
            out.append((tuple(path), sign))
            return
        if a < p:
            path.append((a + 1, b))
            rec(a + 1, b, path, sign * (-1 if plus_seen % 2 else 1), plus_seen)
            path.pop()
        if b < q:
            path.append((a, b + 1))
            rec(a, b + 1, path, sign, plus_seen + 1)
            path.pop()

    rec(0, 0, [(0, 0)], 1, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _path_getters(p: int, q: int) -> tuple:
    """``shuffles(p, q)`` as getters of the path's cells from a row-major grid."""
    return tuple((itemgetter(*(a * (q + 1) + b for a, b in path)), sign)
                 for path, sign in shuffles(p, q))


def shuffle_tensor(us, vs, pair) -> dict:
    """Shuffle products of chain pairs pushed forward along ``pair``, kept apart.

    For chains (tuples) u in ``us`` and v in ``vs``, each (p, q)-shuffle
    path contributes its sign at the chain ``pair(u[a], v[b])`` over the
    path's steps (a, b); images that repeat an element are degenerate and
    dropped.  ``pair`` is evaluated once per grid cell (a, b).  Returns
    {(u, v): {image: coefficient}}, without the pairs whose push vanishes.
    """
    out: dict = {}
    for u in us:
        for v in vs:
            grid = [pair(a, b) for a in u for b in v]
            if len(grid) == 1:  # one path of one cell, which a getter returns bare
                out[u, v] = {tuple(grid): 1}
                continue
            pushed: dict = {}
            for cells, sign in _path_getters(len(u) - 1, len(v) - 1):
                image = cells(grid)
                if len(set(image)) == len(image):
                    pushed[image] = pushed.get(image, 0) + sign
            if 0 in pushed.values():
                pushed = {k: c for k, c in pushed.items() if c}
            if pushed:
                out[u, v] = pushed
    return out


def shuffle_block(xs: list[dict], ys: list[dict], pair, place,
                  us: dict | None = None, vs: dict | None = None) -> list[list[dict]]:
    """Shuffle products of two batches of formal chains, pushed along ``pair``.

    ``xs`` and ``ys`` map keys to coefficients, and ``us`` and ``vs`` map
    each chain (a tuple) of their side to its key; by default a chain is
    its own key.  The chains of each side go through ``shuffle_tensor``
    once, and the tensor is contracted with every pair's coefficients:
    products[a][b] is xs[a] * ys[b], keyed by ``place(image)``, without
    zero entries.
    """
    us = {u: u for x in xs for u in x} if us is None else us
    vs = {v: v for y in ys for v in y} if vs is None else vs
    star: dict = {}  # u key -> [(v key, [(image key, coefficient)])]
    for (u, v), pushed in shuffle_tensor(us, vs, pair).items():
        star.setdefault(us[u], []).append(
            (vs[v], [(place(image), c) for image, c in pushed.items()]))
    products = []
    for x in xs:
        row = []
        for y in ys:
            acc: dict = {}
            for u, cu in x.items():
                for v, pushed in star.get(u, ()):
                    if cv := y.get(v):
                        for t, c in pushed:
                            acc[t] = acc.get(t, 0) + c * cu * cv
            row.append({t: c for t, c in acc.items() if c})
        products.append(row)
    return products


# -- Goresky-MacPherson oracle ------------------------------------------------


class GMOracle:
    """Cohomology of an arrangement complement from its intersection poset.

    ``codim`` maps element labels to complex codimension in complex
    mode, or to real codimension in real mode (coefficients Z/2).  The
    minimum element is the ambient space.  The size limit is checked
    here, once: every complex is over this one lattice.
    """

    def __init__(self, lattice: GradedPoset, codim: dict, mode: str = "complex",
                 limit: int | None = DEFAULT_ORACLE_LIMIT):
        if limit is not None and lattice.n > limit:
            raise OracleTooLarge(
                f"intersection poset has {lattice.n} elements, limit {limit}")
        if mode not in ("complex", "real"):
            raise ValueError("mode must be 'complex' or 'real'")
        self.lattice = lattice
        self.codim = dict(codim)
        self.mode = mode
        self.ambient = lattice.labels[lattice.minimum()]
        self.delta_m = delta_sheaf(lattice, [self.ambient], 1, "co")
        self._complexes: dict = {}

    def complex_at(self, x) -> TorComplex:
        if x not in self._complexes:
            f = delta_sheaf(self.lattice, [x], 1, "pre")
            self._complexes[x] = TorComplex(self.lattice, self.delta_m, f)
        return self._complexes[x]

    def cohomology(self):
        """H^* of the complement, assembled over all lattice elements.

        Complex mode returns {degree: (betti, torsion)}; real mode
        returns {degree: dim over Z/2}.
        """
        if self.mode == "real":
            dims: dict[int, int] = {}
            for x in self.lattice.labels:
                kc = self.complex_at(x)
                for n, d in enumerate(kc.homology_mod2()):
                    if d:
                        deg = self.codim[x] - n
                        dims[deg] = dims.get(deg, 0) + d
            return dict(sorted(dims.items()))
        groups: dict[int, tuple[int, list[int]]] = {}
        for x in self.lattice.labels:
            kc = self.complex_at(x)
            summary = kc.homology()
            for n, (betti, torsion) in enumerate(summary.groups):
                if betti or torsion:
                    deg = 2 * self.codim[x] - n
                    b, tors = groups.get(deg, (0, []))
                    groups[deg] = (b + betti, sorted(tors + list(torsion)))
        return {d: (b, tuple(t)) for d, (b, t) in sorted(groups.items())}

    # -- cup product ---------------------------------------------------------

    def _check_star_minimal(self, x, y, xy):
        """(x, y) must be minimal in the join fiber; forced by codimensions.

        Only (a, y) and (x, b) are joined, for lower covers a of x and b of
        y: a smaller pair with join x v y lies below one of them, whose
        join the monotone join then squeezes to x v y.
        """
        lat = self.lattice
        xi, yi, xyi = lat.index[x], lat.index[y], lat.index[xy]
        if (any(lat.join_index(a, yi) == xyi for a in lat.lower[xi])
                or any(lat.join_index(xi, b) == xyi for b in lat.lower[yi])):
            raise ValueError("star homomorphism undefined: join fiber has a "
                             f"smaller element below ({x}, {y})")

    def cup_block(self, x, nx: int, xs: list[dict], y, ny: int, ys: list[dict]):
        """Cross-then-star products of two batches of cycles, in one push.

        ``xs`` and ``ys`` are cycles, as sparse vectors {position:
        coefficient}, in degrees nx and ny of the complexes at x and y; the
        caller has checked that they are closed.  Returns (x v y, degree,
        products) with products[a][b] the sparse vector of xs[a] * ys[b],
        or None when the codimensions of x and y do not add: the product
        is then zero by definition and nothing is pushed.

        The star map is the identity on the rank-1 delta sheaves at ((M, M))
        and ((x, y)), so each shuffle of two index chains goes straight to
        its chain of joins, and degenerate images vanish.  The product is
        bilinear in chain coordinates, so one ``shuffle_block`` gives every
        product, with each side's chains keyed by their positions.  The
        images are not yet checked; ``TorDegree.class_coords`` checks them
        as it reads them.
        """
        xy = join(self.lattice, x, y)
        n = nx + ny
        if self.codim[x] + self.codim[y] != self.codim[xy]:
            return xy, n, None
        self._check_star_minimal(x, y, xy)
        kx, ky, target = self.complex_at(x), self.complex_at(y), self.complex_at(xy)
        pos = target.position[n] if n < len(target.position) else {}
        us = {kx.keys[nx][p][0]: p for vec in xs for p in vec}
        vs = {ky.keys[ny][p][0]: p for vec in ys for p in vec}
        return xy, n, shuffle_block(xs, ys, self.lattice.join_index,
                                    lambda image: pos[(image, 0, 0)], us, vs)

    def cup(self, x, nx: int, vx: dict[int, int], y, ny: int, vy: dict[int, int]):
        """Cup product of two Tor classes: the 1x1 view of ``cup_block``.

        Inputs are sparse cycles {position: coefficient} in the complexes
        at x and y; the result is (x v y, degree, sparse cycle), with the
        cycle ``{}`` when the codimension condition fails.  Both inputs and
        the image are checked; a chain that is not closed raises NotCycle.
        """
        self.complex_at(x).check_cycles(nx, [vx])
        self.complex_at(y).check_cycles(ny, [vy])
        xy, n, products = self.cup_block(x, nx, [vx], y, ny, [vy])
        if products is None:
            return xy, n, {}
        self.complex_at(xy).check_cycles(n, products[0])
        return xy, n, products[0][0]
