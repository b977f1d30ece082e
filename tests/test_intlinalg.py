import json
import random
import subprocess
import sys

import pytest

from conftest import Dense, columns, sparse, subprocess_env
from orbitcoh.intlinalg import (
    ChainComplex,
    ColumnSolver,
    HomologySummary,
    InvalidComplex,
    NoIntegerSolution,
    NonUnique,
    UnitReduction,
    elementary_divisors,
    hermite_coords,
    homology,
    homology_mod2,
    identity,
    kron,
    rank_mod2,
    row_hermite,
    smith_normal_form,
    sparse_apply,
)


def det(rows: list[list[int]]) -> int:
    # cofactor expansion; only used on small unimodular factors in tests
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        x = rows[0][j]
        if x:
            minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
            total += (-1) ** j * x * det(minor)
    return total


def mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two matrices given as row lists, b with at least one row."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf(a: Dense):
    u, d, v = smith_normal_form(a.data, a.cols)
    assert (len(u), len(d), len(v)) == (a.rows, a.rows, a.cols)
    assert mul(mul(u, a.data), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(a.rows, a.cols))]
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))
    return diag


def test_snf_hand_example():
    # row/column elimination by hand gives diag(2, 4)
    diag = check_snf(Dense(2, 2, [[2, 4], [6, 8]]))
    assert diag == [2, 4]


def test_snf_identity_and_zero():
    assert check_snf(Dense(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [1, 1, 1]
    assert check_snf(Dense(2, 2, [[0, 0], [0, 0]])) == [0, 0]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        a = Dense(r, c, [[rng.randrange(-8, 9) for _ in range(c)] for _ in range(r)])
        diag = check_snf(a)
        assert elementary_divisors(columns(a)) == [x for x in diag if x]


def test_solve_unique_examples():
    assert ColumnSolver([{0: 2}], 1).solve({0: 4}) == {0: 2}
    # 2x2 elimination: x + y = 2, x - y = 0
    assert ColumnSolver([{0: 1, 1: 1}, {0: 1, 1: -1}], 2).solve({0: 2}) == {0: 1, 1: 1}
    # the solution is sparse: a zero coordinate is left out
    assert ColumnSolver([{0: 1}, {1: 1}], 2).solve({1: 3}) == {1: 3}
    with pytest.raises(NoIntegerSolution):
        ColumnSolver([{0: 2}], 1).solve({0: 3})
    with pytest.raises(NonUnique):
        ColumnSolver([{0: 1}, {0: 1}], 1).solve({0: 2})
    with pytest.raises(NoIntegerSolution):
        ColumnSolver([{0: 1, 1: 1}], 2).solve({0: 1, 1: 2})
    with pytest.raises(ValueError):
        ColumnSolver([{0: 1}], 1).solve({1: 1})
    # a column entry past the last row would land in the unit part
    with pytest.raises(ValueError):
        ColumnSolver([{1: 1}], 1)


SOLVE_UNDER_OPTIMIZE = """
import json, sys
from orbitcoh.intlinalg import ColumnSolver, NoIntegerSolution, NonUnique

raised = []
for cols, b, exc in [([{0: 2}], {0: 3}, NoIntegerSolution),
                     ([{0: 1}, {0: 1}], {0: 2}, NonUnique)]:
    try:
        ColumnSolver(cols, 1).solve(b)
    except exc:
        raised.append(exc.__name__)
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def test_solve_failures_fire_under_optimize():
    # the solver's refusals must not be asserts, which python -O strips
    proc = subprocess.run([sys.executable, "-O", "-c", SOLVE_UNDER_OPTIMIZE],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": 1, "raised": ["NoIntegerSolution", "NonUnique"]}


def test_kernel_basis_examples():
    assert UnitReduction([{0: 1}, {0: 1}]).kernel == [{0: 1, 1: -1}]
    assert UnitReduction([{0: 1}, {1: 1}]).kernel == []
    # gcd reduction: saturated kernel of [[2, 4]] is spanned by (2, -1)
    assert UnitReduction([{0: 2}, {0: 4}]).kernel == [{0: 2, 1: -1}]


def test_kernel_is_saturated():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        a = Dense(r, c, [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)])
        ker = UnitReduction(columns(a)).kernel
        for vec in ker:
            assert sparse_apply(columns(a), vec) == {}
        assert len(ker) == c - len(elementary_divisors(columns(a)))
        if ker:
            # saturation: every invariant factor of the basis is 1 (those of
            # the matrix with the basis as columns, its transpose's)
            assert elementary_divisors(ker) == [1] * len(ker)


def test_homology_point_and_shift():
    point = ChainComplex([1], {})
    assert homology(point).groups == ((1, ()),)
    # Z -> Z with zero map
    two = ChainComplex([1, 1], {1: [{}]})
    assert homology(two).groups == ((1, ()), (1, ()))


def test_homology_square_graph():
    # simplicial chain of a 4-cycle: 4 vertices, 4 edges
    # edge j runs from vertex j to vertex j + 1 (mod 4)
    d1 = [{0: -1, 1: 1}, {1: -1, 2: 1}, {2: -1, 3: 1}, {3: -1, 0: 1}]
    c = ChainComplex([4, 4], {1: d1})
    h = homology(c)
    assert h.betti(0) == 1 and h.betti(1) == 1
    assert h.is_free()


def test_homology_torsion_rp2():
    # cellular chain of RP^2: one cell in degrees 0,1,2
    c = ChainComplex([1, 1, 1], {1: [{}], 2: [{0: 2}]})
    h = homology(c)
    assert h.groups == ((1, ()), (0, (2,)), (0, ()))
    assert homology_mod2(c) == [1, 1, 1]


def test_invalid_complex_rejected():
    with pytest.raises(InvalidComplex):
        ChainComplex([1, 1, 1], {1: [{0: 1}], 2: [{0: 1}]}).validate()


def test_boundary_with_wrong_column_count_rejected():
    # boundary 1 of ranks [2, 3] needs one column per degree-1 generator
    with pytest.raises(ValueError, match="2 columns"):
        ChainComplex([2, 3], {1: [{0: 1}, {1: 1}]})


def test_boundary_row_outside_lower_rank_rejected():
    # rows of boundary 1 index the 2 generators of degree 0
    with pytest.raises(ValueError, match="outside"):
        ChainComplex([2, 1], {1: [{2: 1}]})
    with pytest.raises(ValueError, match="outside"):
        ChainComplex([2, 1], {1: [{-1: 1}]})
    assert ChainComplex([2, 1], {1: [{1: 1}]}).boundary(1) == [{1: 1}]


def test_missing_boundary_is_empty_columns():
    c = ChainComplex([2, 3], {})
    assert c.boundary(1) == [{}, {}, {}]
    assert c.boundary(0) == [{}, {}] and c.boundary(2) == []

def hermite(dense_rows):
    """``row_hermite`` of dense rows, each given to it as a fresh sparse vector."""
    return row_hermite([sparse(r) for r in dense_rows])


def test_hermite_and_lattice_equality():
    h = hermite([[2, 0], [0, 2], [1, 1]])
    assert h == [{0: 1, 1: 1}, {1: 2}]
    assert hermite([[2, 0], [1, 1]]) == hermite([[1, 1], [2, 0], [3, 1]])
    assert hermite([[2, 0]]) != hermite([[1, 0]])
    assert hermite_coords(h, {0: 3, 1: 1}) == [3, -1]
    assert hermite_coords(h, {0: 1}) is None
    # an entry left of the first pivot is outside the lattice too
    assert hermite_coords([{1: 1}], {0: 1, 1: 1}) is None
    # every entry above a pivot lies in [0, pivot), even after later
    # pivots have been used for back-reduction
    assert hermite([[3, 4, 2], [-4, 3, -1], [2, 2, -2]]) == [
        {0: 1, 2: 74}, {1: 1, 2: 45}, {2: 80}]
    # the same lattice from another generating set gives the same basis
    gens = [[-4, 0, -2], [-3, -4, -4], [2, 2, -4]]
    reordered = [gens[2], gens[0], gens[1], [-7, -4, -6]]
    assert hermite(gens) == hermite(reordered) == [
        {0: 1, 2: 38}, {1: 2, 2: 20}, {2: 50}]


def test_unimodular_inverse():
    # column j of the inverse solves m·x = e_j, as os_vs_cellular inverts
    m = columns(Dense(2, 2, [[2, 1], [1, 1]]))
    solver = ColumnSolver(m, 2)
    inv = [solver.solve({j: 1}) for j in range(2)]
    assert inv == [{0: 1, 1: -1}, {0: -1, 1: 2}]
    assert [sparse_apply(m, col) for col in inv] == identity(2)
    # a square matrix of determinant 2 has no integer inverse
    with pytest.raises(NoIntegerSolution):
        ColumnSolver(columns(Dense(2, 2, [[2, 0], [0, 1]])), 2).solve({0: 1})


def test_kron_and_stack():
    a = columns(Dense(1, 2, [[1, 2]]))
    b = columns(Dense(2, 1, [[3], [4]]))
    assert kron(a, b, 2) == columns(Dense(2, 2, [[3, 6], [4, 8]]))
    # against the identity: b twice down the diagonal, or a stretched out
    assert kron(identity(2), b, 2) == [{0: 3, 1: 4}, {2: 3, 3: 4}]
    assert kron(a, identity(2), 2) == columns(Dense(2, 4, [[1, 0, 2, 0], [0, 1, 0, 2]]))


def test_rank_mod2():
    assert rank_mod2([{0: 1}, {1: 3}]) == 2
    assert rank_mod2([{0: 2}, {0: 1, 1: 3}]) == 1
    assert rank_mod2([{0: 2, 1: 6}, {0: 4, 1: 8}]) == 0


def test_summary_str():
    s = HomologySummary(((1, ()), (0, (2,))))
    assert "H_0=Z" in str(s) and "Z/2" in str(s)
