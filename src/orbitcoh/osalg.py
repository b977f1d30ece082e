"""Orlik-Solomon algebras of geometric lattices via the nbc basis.

Independent of the cellular machinery, so the structure constants
obtained here serve as a cross-check oracle for the form-morphism route.
One table carries the matroid: ``least[x]``, the first atom below each
lattice element.  An independent monomial s_1 < ... < s_r is nbc exactly
when every suffix join s_i v ... v s_r has s_i as its least atom
(Bjorner, "The homology and shellability of matroids and geometric
lattices", 7.4); a monomial failing that at some suffix is straightened
with the one circuit of that suffix and its least atom.

The comparison with the cellular route, ``nbc_form`` and
``os_vs_cellular``, lives in ``orbitcoh.morphisms``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .posets import GradedPoset


class NotGeometric(Exception):
    """The lattice is not geometric (atomic and semimodular)."""


def _merge_sign(left: tuple, right: tuple):
    """Sort the concatenation of two increasing tuples, tracking the sign.

    Returns (sorted tuple, sign) or None when an atom repeats.
    """
    if set(left) & set(right):
        return None
    merged = left + right
    items = list(merged)
    sign = 1
    # insertion sort; each swap of adjacent entries flips the sign
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


class OSAlgebra:
    """nbc basis and products of the OS-algebra of a geometric lattice.

    ``atom_order`` fixes the total order on atoms (default: label order);
    the nbc basis depends on it.  Monomials are increasing tuples of
    atom positions in that order; elements are dicts from monomials to
    integers, and each graded piece collects the monomials whose join
    is the given lattice element.
    """

    def __init__(self, lattice: GradedPoset, atom_order=None):
        self.lattice = lattice
        self._check_geometric()
        if atom_order is None:
            self.atoms = tuple(i for i in range(lattice.n)
                               if lattice.rank[i] == 1)
        else:
            self.atoms = tuple(lattice.index[a] for a in atom_order)
            if sorted(self.atoms) != [i for i in range(lattice.n)
                                      if lattice.rank[i] == 1]:
                raise ValueError("atom_order must list every atom once")
        # least[x]: first atom position below x (None at the bottom)
        self.least: list[int | None] = [None] * lattice.n
        for p, a in enumerate(self.atoms):
            self.least[a] = p
        for x in lattice.topo:
            if lattice.rank[x] > 1:
                self.least[x] = min(self.least[y] for y in lattice.lower[x])
        self.nbc: dict[object, list[tuple[int, ...]]] = {}
        self.nbc_index: dict[tuple[int, ...], tuple[object, int]] = {}
        self._enumerate_nbc()
        self._straighten_cache: dict[tuple[int, ...], dict] = {}

    # -- lattice structure --------------------------------------------------

    def _check_geometric(self):
        lat = self.lattice
        mins = [i for i in range(lat.n) if lat.rank[i] == 0]
        if len(mins) != 1:
            raise NotGeometric("no unique rank-0 element")
        self.bottom = mins[0]
        lat.require_join_semilattice()
        atoms = [i for i in range(lat.n) if lat.rank[i] == 1]
        for x in range(lat.n):
            below = [a for a in atoms if lat.leq(a, x)]
            acc = self.bottom if not below else below[0]
            for a in below[1:]:
                acc = lat.join_index(acc, a)
            if acc != x and lat.rank[x] > 0:
                raise NotGeometric(
                    f"{lat.labels[x]} is not a join of atoms")
            for a in atoms:
                if not lat.leq(a, x):
                    up = lat.join_index(x, a)
                    if lat.rank[up] != lat.rank[x] + 1:
                        raise NotGeometric(
                            f"semimodularity fails at {lat.labels[x]}")

    def _join_of(self, positions) -> int:
        acc = self.bottom
        for p in positions:
            acc = self.lattice.join_index(acc, self.atoms[p])
        return acc

    def _independent(self, subset) -> bool:
        return self.lattice.rank[self._join_of(subset)] == len(subset)

    def _enumerate_nbc(self):
        # grow leftward: prepending p < cur[0] keeps every suffix join, so
        # only the new join y is checked (rank up by one, least atom p)
        lat, least = self.lattice, self.least
        for x in lat.labels:
            self.nbc[x] = []
        stack = [((), self.bottom)]
        while stack:
            cur, x = stack.pop()
            self.nbc[lat.labels[x]].append(cur)
            for p in range(cur[0] if cur else len(self.atoms)):
                y = lat.join_index(x, self.atoms[p])
                if lat.rank[y] == lat.rank[x] + 1 and least[y] == p:
                    stack.append(((p,) + cur, y))
        for x in self.nbc:
            self.nbc[x].sort()
            for i, mono in enumerate(self.nbc[x]):
                self.nbc_index[mono] = (x, i)

    def piece_rank(self, x) -> int:
        return len(self.nbc[x])

    # -- straightening ------------------------------------------------------

    def straighten(self, mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Rewrite an increasing independent monomial into the nbc basis."""
        if mono in self.nbc_index:
            return {mono: 1}
        cached = self._straighten_cache.get(mono)
        if cached is not None:
            return cached
        lat, atoms, least = self.lattice, self.atoms, self.least
        # the shortest suffix whose least atom a precedes its first atom
        i, join = len(mono) - 1, atoms[mono[-1]]
        while least[join] >= mono[i]:
            i -= 1
            join = lat.join_index(join, atoms[mono[i]])
        a, suffix = least[join], mono[i:]
        # the circuit of a in the suffix: a and each atom whose removal drops a
        broken = tuple(s for s in suffix if not lat.leq(
            atoms[a], self._join_of(t for t in suffix if t != s)))
        circuit = (a,) + broken
        rest = tuple(p for p in mono if p not in broken)
        _, unshuffle = _merge_sign(rest, broken)
        out: dict[tuple[int, ...], int] = {}
        # e_{C minus c_0} = sum_{l >= 2} (-1)^l e_{C minus c_l}
        for l in range(1, len(circuit)):
            sign_l = -1 if (l + 1) % 2 else 1
            repl = circuit[:l] + circuit[l + 1:]
            merged = _merge_sign(rest, repl)
            if merged is None:
                continue
            new_mono, msign = merged
            if not self._independent(new_mono):
                continue
            for k, v in self.straighten(new_mono).items():
                coeff = v * sign_l * msign * unshuffle
                out[k] = out.get(k, 0) + coeff
        out = {k: v for k, v in out.items() if v}
        self._straighten_cache[mono] = out
        return out

    def multiply_monomials(self, a: tuple[int, ...], b: tuple[int, ...]):
        """Product of two nbc monomials, expanded in the nbc basis."""
        merged = _merge_sign(a, b)
        if merged is None:
            return {}
        mono, sign = merged
        if not self._independent(mono):
            return {}
        return {k: sign * v for k, v in self.straighten(mono).items()}
