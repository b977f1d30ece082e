"""The Hermite route for kernels and solves, against Smith-form references.

Hypothesis draws small integer matrices; the references are the Smith
normal form of this package (for kernels and column-lattice membership)
and sympy's (for elementary divisors).  The indexed unit-pivot
eliminator, the sparse Hermite form and coordinates over it must also
match the plain versions in ``reference_impl.py`` exactly: the same
pivots in the same order, the same core, the same rows and the same
coordinates.  Sparse rows are written out dense, by ``conftest.dense``,
only to be compared with these references; on their own they must keep
the conventions that reading a pivot as ``min(row)`` relies on.  Runs are derandomized and keep
no example database; the constants cache goes to the system temporary
directory, as in ``test_orbit_properties.py``.
"""

import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import Dense, columns, dense, dense_apply, sparse
from orbitcoh.intlinalg import (
    ColumnSolver,
    NoIntegerSolution,
    UnitReduction,
    _sparse_unit_eliminate,
    echelon_readoff,
    elementary_divisors,
    hermite_coords,
    row_hermite,
    smith_normal_form,
    sparse_apply,
)
from reference_impl import dense_hermite_coords, dense_row_hermite, scanning_unit_eliminate

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "orbitcoh-hypothesis")

laws = settings(derandomize=True, database=None, max_examples=200)
entries = st.integers(-4, 4)


@st.composite
def matrices(draw, min_rows=0, max_rows=5, min_cols=1, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Dense(rows, cols, data)


def snf_rank(d: list[list[int]]) -> int:
    return sum(1 for i, row in enumerate(d) if i < len(row) and row[i])


def in_column_lattice(a: Dense, b: list[int]) -> bool:
    # U·A·V = D, so A·x = b is solvable iff D·y = U·b is
    u, d, _ = smith_normal_form(a.data, a.cols)
    c = dense_apply(Dense(a.rows, a.rows, u), b)
    r = snf_rank(d)
    return (all(c[i] % d[i][i] == 0 for i in range(r))
            and not any(c[r:]))


@laws
@given(matrices())
def test_kernel_basis_matches_smith_reference(a):
    _, d, v = smith_normal_form(a.data, a.cols)
    trailing = [[row[j] for row in v] for j in range(snf_rank(d), a.cols)]
    kernel = UnitReduction(columns(a)).kernel
    assert dense(kernel, a.cols) == dense_row_hermite(trailing, a.cols)


@laws
@given(matrices(min_rows=1), st.data())
def test_solve_inverts_injective_matrices(a, data):
    assume(len(elementary_divisors(columns(a))) == a.cols)
    x = data.draw(st.lists(st.integers(-6, 6), min_size=a.cols, max_size=a.cols))
    assert ColumnSolver(columns(a), a.rows).solve(sparse(dense_apply(a, x))) == sparse(x)


@laws
@given(matrices(min_rows=1), st.data())
def test_no_solution_exactly_outside_column_lattice(a, data):
    assume(len(elementary_divisors(columns(a))) == a.cols)
    x = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    e = data.draw(st.lists(st.integers(-1, 1), min_size=a.rows, max_size=a.rows))
    b = [p + q for p, q in zip(dense_apply(a, x), e)]
    try:
        ColumnSolver(columns(a), a.rows).solve(sparse(b))
        solved = True
    except NoIntegerSolution:
        solved = False
    assert solved == in_column_lattice(a, b)


@laws
@given(matrices(min_rows=1))
def test_elementary_divisors_match_sympy(a):
    d = sympy_snf(Matrix(a.data))
    expected = [abs(d[i, i]) for i in range(min(a.rows, a.cols)) if d[i, i]]
    assert elementary_divisors(columns(a)) == expected


# incidence-like entries: mostly 0 and +-1, so most pivots are units, with
# some +-2 and +-3 that can leave a nonempty core after the unit pivots
sparse_entries = st.sampled_from([0] * 12 + [1, -1] * 3 + [2, -2, 3, -3])
PATH_INCIDENCE = Dense(3, 4, [[1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]])
WITH_CORE = Dense(3, 4, [[1, 1, 0, 0], [2, 0, 2, 0], [0, 3, 0, 3]])
# column 1 holds no unit, so row 0 is the pivot of column 0 and keeps its
# 2 to the right of it: the core is empty, yet the read-off is not canonical
RIGHT_OF_PIVOT = Dense(1, 2, [[1, 2]])


@st.composite
def incidence_like(draw):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 16))
    data = draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Dense(rows, cols, data)


def test_examples_cover_both_lifts():
    assert not UnitReduction(columns(PATH_INCIDENCE)).core
    assert UnitReduction(columns(WITH_CORE)).core
    right = UnitReduction(columns(RIGHT_OF_PIVOT))
    assert not right.core and right.pivots == [(0, 1, {0: 1, 1: 2})]
    assert right.kernel == [{0: 2, 1: -1}]


@laws
@given(incidence_like())
@example(PATH_INCIDENCE)
@example(WITH_CORE)
@example(RIGHT_OF_PIVOT)
def test_unit_kernel_matches_column_solver_and_divisors_match_sympy(a):
    # ColumnSolver reaches the Hermite basis of the kernel by one row
    # Hermite form of the columns extended by unit vectors, with no unit
    # pivots; sympy's Smith form owes nothing to this package
    cols = columns(a)
    assert UnitReduction(cols).kernel == ColumnSolver(cols, a.rows).kernel
    expected = []
    if a.rows and a.cols:
        d = sympy_snf(Matrix(a.data))
        expected = [abs(d[i, i]) for i in range(min(a.rows, a.cols)) if d[i, i]]
    assert UnitReduction(cols).divisors == expected


@laws
@given(incidence_like())
@example(PATH_INCIDENCE)
@example(WITH_CORE)
@example(RIGHT_OF_PIVOT)
def test_sparse_kernel_and_divisors_match_smith_reference(a):
    _, d, v = smith_normal_form(a.data, a.cols)
    rank = snf_rank(d)
    trailing = [[row[j] for row in v] for j in range(rank, a.cols)]
    kernel = UnitReduction(columns(a)).kernel
    assert dense(kernel, a.cols) == dense_row_hermite(trailing, a.cols)
    assert elementary_divisors(columns(a)) == [d[i][i] for i in range(rank)]


def rows_in_order(a: Dense, order: list[int]) -> dict[int, dict[int, int]]:
    """The nonzero rows of `a` as {row: {column: entry}}, keyed in `order`."""
    rows = {i: {j: x for j, x in enumerate(a.data[i]) if x} for i in order}
    return {i: row for i, row in rows.items() if row}


def eliminations_agree(a: Dense, order: list[int]):
    # the rule reads row indices, not the order of the rows, so the rows
    # and the core are compared as dicts
    rows, ref_rows = rows_in_order(a, order), rows_in_order(a, order)
    got = _sparse_unit_eliminate(rows)
    assert (got, rows) == (scanning_unit_eliminate(ref_rows), ref_rows)


@laws
@given(incidence_like(), st.data())
@example(PATH_INCIDENCE, None)
@example(WITH_CORE, None)
@example(Dense(0, 0, []), None)
@example(Dense(3, 0, [[], [], []]), None)
@example(Dense(0, 4, []), None)
def test_indexed_pivots_match_scanning_reference(a, data):
    # the same pivots in the same order, and the same core, whatever the
    # order in which the rows are given
    order = list(range(a.rows))
    if data is not None:
        order = data.draw(st.permutations(order))
    eliminations_agree(a, order)


@laws
@given(matrices(min_rows=0, max_rows=6, min_cols=0, max_cols=6))
def test_indexed_pivots_match_scanning_reference_on_dense(a):
    eliminations_agree(a, list(range(a.rows)))


@laws
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                         max_size=6))))
@example((0, []))
@example((0, [[], []]))
@example((3, []))
@example((3, [[0, 0, 0]]))
def test_sparse_row_hermite_matches_dense_reference(case):
    ncols, gens = case
    rows = row_hermite([sparse(g) for g in gens])
    assert dense(rows, ncols) == dense_row_hermite(gens, ncols)


@laws
@given(incidence_like())
def test_sparse_row_hermite_matches_dense_reference_on_incidence(a):
    rows = row_hermite([sparse(r) for r in a.data])
    assert dense(rows, a.cols) == dense_row_hermite(a.data, a.cols)


def assert_hermite_rows(rows):
    """Sparse Hermite rows: no stored zero, and ``min(row)`` reads each pivot.

    The pivots are positive and strictly increase, and every entry above
    a pivot lies in [0, pivot).
    """
    assert all(row and 0 not in row.values() for row in rows)
    pivots = [min(row) for row in rows]
    assert all(row[p] > 0 for row, p in zip(rows, pivots))
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for s, p in enumerate(pivots):
        assert all(0 <= rows[t].get(p, 0) < rows[s][p] for t in range(s))


def assert_sparse_hermite_and_kernel(a: Dense):
    assert_hermite_rows(row_hermite([sparse(r) for r in a.data]))
    cols = columns(a)
    kernel = UnitReduction(cols).kernel
    assert_hermite_rows(kernel)
    assert all(sparse_apply(cols, row) == {} for row in kernel)


@laws
@given(matrices(min_rows=0, max_rows=6, min_cols=0, max_cols=6))
def test_sparse_hermite_rows_keep_their_conventions(a):
    assert_sparse_hermite_and_kernel(a)


@laws
@given(incidence_like())
@example(PATH_INCIDENCE)
@example(WITH_CORE)
def test_sparse_hermite_rows_keep_their_conventions_on_incidence(a):
    assert_sparse_hermite_and_kernel(a)


@laws
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         max_size=5))), st.data())
@example((3, [[2, 1, 0], [0, 3, 3]]), None)
def test_sparse_hermite_coords_match_dense_reference(case, data):
    # vectors of the lattice, and the same moved by a small step that most
    # often leaves it: both routines must agree on coordinates or None
    ncols, gens = case
    rows = row_hermite([sparse(g) for g in gens])
    basis = dense(rows, ncols)
    if data is None:
        coords, step = [1] * len(basis), [0, 1] + [0] * (ncols - 2)
    else:
        coords = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                                    max_size=len(basis)))
        step = data.draw(st.lists(st.integers(-1, 1), min_size=ncols, max_size=ncols))
    vec = [sum(c * row[j] for c, row in zip(coords, basis)) for j in range(ncols)]
    assert hermite_coords(rows, sparse(vec)) == dense_hermite_coords(basis, vec) == coords
    moved = [x + e for x, e in zip(vec, step)]
    assert hermite_coords(rows, sparse(moved)) == dense_hermite_coords(basis, moved)


def readoff(basis, vec):
    d, cols = echelon_readoff(basis)
    acc = [0] * len(basis)
    for p, col in cols.items():
        for r, x in col.items():
            acc[r] += vec[p] * x
    assert all(x % d == 0 for x in acc)
    return [x // d for x in acc]


def test_readoff_of_non_unit_pivots():
    # the saturated kernel of [1 -2] has Hermite basis (2, 1), pivot 2
    assert echelon_readoff([{0: 2, 1: 1}]) == (2, {0: {0: 1}})
    basis = [{0: 2, 1: 1, 2: 3}, {1: 3, 2: 1}]
    d, cols = echelon_readoff(basis)
    assert d == 6 and set(cols) == {0, 1}
    assert readoff(basis, [2 * 5 + 0, 5 - 3 * 2, 15 - 2]) == [5, -2]


@laws
@given(st.lists(st.lists(entries, min_size=5, max_size=5), max_size=4), st.data())
def test_readoff_matches_hermite_coords(gens, data):
    basis = row_hermite([sparse(g) for g in gens])
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=len(basis),
                                max_size=len(basis)))
    vec = [sum(c * row[j] for c, row in zip(coords, dense(basis, 5))) for j in range(5)]
    assert readoff(basis, vec) == hermite_coords(basis, sparse(vec)) == coords


def test_kernel_of_matrix_without_rows_is_identity():
    assert UnitReduction([{}, {}, {}]).kernel == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_of_matrix_without_columns_is_empty():
    assert UnitReduction([]).kernel == []
