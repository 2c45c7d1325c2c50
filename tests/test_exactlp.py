"""Exact rational linear algebra and Phase-I feasibility."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ci_engine import exactlp, nogo
from ci_engine.errors import CapExceeded, Degenerate, DimensionMismatch
from ci_engine.exactlp import (
    cone_extreme_rays,
    feasible_nonneg,
    nullspace,
    polytope_vertices,
    verify_certificate,
)

from conftest import SEED
from oracles import (
    cone_extreme_rays_exact,
    cone_extreme_rays_subsets,
    feasible_nonneg_fraction,
    feasible_nonneg_fraction_unpresolved,
    lp_feasible_float,
    matrix_rank,
    polytope_vertices_exact,
)

F = Fraction


def _rand_matrix(rng, m, n, den=5):
    return [
        [F(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)]
        for _ in range(m)
    ]


def test_feasible_by_construction():
    rng = random.Random(SEED)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = _rand_matrix(rng, m, n)
        x0 = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        status, x = feasible_nonneg(a, b)
        assert status == "feasible"
        assert all(v >= 0 for v in x)
        for i in range(m):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
        assert lp_feasible_float(a, b)
    # no rows and no columns: the empty point
    assert feasible_nonneg([], []) == ("feasible", [])


def test_infeasible_by_farkas_construction():
    rng = random.Random(SEED + 1)
    found = 0
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(1, 5)
        y = [F(rng.randint(-3, 3)) for _ in range(m)]
        if all(v == 0 for v in y):
            continue
        cols = []
        for _ in range(n):
            col = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            dot = sum(y[i] * col[i] for i in range(m))
            if dot > 0:
                col = [-v for v in col]
            cols.append(col)
        b = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)]
        if sum(y[i] * b[i] for i in range(m)) <= 0:
            continue
        a = [[cols[j][i] for j in range(n)] for i in range(m)]
        status, cert = feasible_nonneg(a, b)
        assert status == "infeasible"
        assert verify_certificate(a, b, cert)
        for j in range(n):
            assert sum(cert[i] * a[i][j] for i in range(m)) <= 0
        assert sum(cert[i] * b[i] for i in range(m)) > 0
        assert not lp_feasible_float(a, b)
        found += 1
    assert found >= 20
    # a row with no columns cannot reach rhs 1: y = (1) separates
    assert feasible_nonneg([[]], [1]) == ("infeasible", [1])


def test_rhs_length_checked():
    with pytest.raises(DimensionMismatch):
        feasible_nonneg([[F(1)]], [F(1), F(2)])


def test_ragged_rows_are_a_dimension_mismatch():
    # ndarray rows as lists, rather than numpy's inhomogeneous-shape ValueError
    for rows in ([[1, 2], [1]], [np.array([1, 2]), np.array([1])]):
        with pytest.raises(DimensionMismatch, match="ragged matrix"):
            feasible_nonneg(rows, [1, 1])
        with pytest.raises(DimensionMismatch, match="ragged matrix"):
            verify_certificate(rows, [1, 1], [1, 1])


def test_solve_and_certificate_check_lengths():
    a = [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(DimensionMismatch):
        feasible_nonneg(a, [F(1)])
    # y = (-1, 0): y . A = (-1, 0) <= 0 and y . b = 1 > 0
    b = [F(-1), F(0)]
    assert verify_certificate(a, b, [F(-1), F(0)])
    assert not verify_certificate(a, b, [F(-1)])
    assert not verify_certificate(a, b, [F(-1), F(0), F(0)])
    assert not verify_certificate([], [], [])


def test_matrix_rank_matches_numpy():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        got = matrix_rank(a)
        want = np.linalg.matrix_rank(np.array(a, dtype=float))
        assert got == want


def test_nullspace_vectors_annihilate():
    rng = random.Random(SEED + 4)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        a = _rand_matrix(rng, m, n)
        basis = nullspace(a)
        assert len(basis) == n - matrix_rank(a)
        for v in basis:
            for i in range(m):
                assert sum(a[i][j] * v[j] for j in range(n)) == 0
    assert nullspace([[F(0), F(0)], [F(0), F(0)]]) == [[1, 0], [0, 1]]


def test_unit_square_vertices():
    ineq = [
        [F(1), F(0)],
        [F(-1), F(0)],
        [F(0), F(1)],
        [F(0), F(-1)],
    ]
    rhs = [F(1), F(0), F(1), F(0)]
    verts = polytope_vertices([], [], ineq, rhs)
    assert sorted(tuple(v) for v in verts) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_probability_simplex_vertices():
    n = 3
    eq = [[F(1)] * n]
    erhs = [F(1)]
    ineq = [
        [F(-1) if j == k else F(0) for j in range(n)] for k in range(n)
    ]
    irhs = [F(0)] * n
    verts = polytope_vertices(eq, erhs, ineq, irhs)
    assert sorted(tuple(v) for v in verts) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_orthant_rays():
    n = 3
    rows = [[F(1) if j == k else F(0) for j in range(n)] for k in range(n)]
    rays = cone_extreme_rays(rows)
    dirs = set()
    for r in rays:
        support = [j for j, v in enumerate(r) if v != 0]
        assert len(support) == 1
        assert r[support[0]] > 0
        dirs.add(support[0])
    assert dirs == {0, 1, 2}


def test_rays_are_python_ints_and_vertices_fractions():
    rows = [[F(1, 2), F(0)], [F(0), F(3)], [F(1), F(-1, 3)]]
    rays = cone_extreme_rays(rows)
    assert rays and all(type(v) is int for ray in rays for v in ray)
    # the unit simplex {x, y >= 0, x + y = 1}: each vertex divides a ray once
    verts = polytope_vertices([[F(1), F(1)]], [F(1)], [[F(-1), F(0)], [F(0), F(-1)]], [F(0), F(0)])
    assert sorted(map(tuple, verts)) == [(0, 1), (1, 0)]
    assert all(type(v) is Fraction for vert in verts for v in vert)


def test_halfplane_cone_rays():
    # x >= 0, y >= 0, x - y >= 0: extreme rays (1, 0) and (1, 1)
    rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(-1)]]
    rays = cone_extreme_rays(rows)
    normed = set()
    for r in rays:
        top = max(v for v in r)
        normed.add(tuple(F(v, top) for v in r))
    assert normed == {(F(1), F(0)), (F(1), F(1))}


# pairwise coprime, each above 2**63, so scaled rows leave int64
_BIG_DENOMINATORS = (3**40, 5**28, 7**23, 11**19)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30), st.booleans(), st.booleans(), st.booleans())
def test_simplex_path_matches_the_fraction_reference(seed, big, by_construction, bell_shaped):
    # the same status and the same x or Farkas y as the Fraction tableau
    # after the same presolve, not only a certificate that checks out: this
    # pins the forcing rows, Bland's entering columns and the ratio-test
    # ties; the unpresolved tableau gives the same status
    rng = random.Random(seed)
    dens = (1, 2, 3) + (_BIG_DENOMINATORS if big else ())

    def entry(lo=-4):
        return F(rng.randint(lo, 4), rng.choice(dens))

    m, n = rng.randint(1, 4), rng.randint(1, 5)
    if bell_shaped:
        # the shape of a Bell LP: 0/1 columns, here each over a
        # denominator of its own, and a right-hand side whose entries
        # each have one of the big denominators
        col_dens = rng.sample((1, 2, 3, 4, 5, 7), n)
        a = [[F(rng.randint(0, 1), den) for den in col_dens] for _ in range(m)]
        dens = _BIG_DENOMINATORS
    else:
        a = [[entry() for _ in range(n)] for _ in range(m)]
    if by_construction:
        x0 = [entry(0) for _ in range(n)]
        b = [sum(r * v for r, v in zip(row, x0)) for row in a]
    else:
        b = [entry() for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        # a redundant row: a combination of two rows, rhs included
        i, j, k = rng.randrange(len(a)), rng.randrange(len(a)), entry()
        a.append([u + k * v for u, v in zip(a[i], a[j])])
        b.append(b[i] + k * b[j])
    got = feasible_nonneg(a, b)
    assert got == feasible_nonneg_fraction(a, b)
    assert got[0] == feasible_nonneg_fraction_unpresolved(a, b)[0]
    if by_construction:
        assert got[0] == "feasible"
    if got[0] == "infeasible":
        assert verify_certificate(a, b, got[1])


def _eager_pivot(rows, r, c, d):
    """The Bareiss step over one global scale: every row holds ``d`` times
    the tableau before the step and the returned ``p`` times it after."""
    pivot = rows[r]
    p = pivot[c]
    if p < 0:
        p = -p
        pivot = rows[r] = [-v for v in pivot]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, pivot)]
        elif i != r and p != d:
            rows[i] = [p * v // d for v in row]
    return p


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from((1, 2**28, 2**40)), st.booleans())
def test_lazy_row_scales_match_the_global_scale_step(seed, size, python_ints):
    # random pivots, negative ones included, on random integer tableaux:
    # the ndarray step equals the eager step row for row, and every list
    # row lifted from its own scale to the current d equals it too, a row
    # with a zero in the pivot column being left as it is by the list
    # step.  With entries near 2^28 or 2^40 the int64 table moves to
    # Python ints on the way.
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    eager = [[rng.choice((0, 0, rng.randint(-9, 9) * size)) for _ in range(n)] for _ in range(m)]
    lazy, ds, d = [list(row) for row in eager], [1] * m, 1
    tab = np.array(eager, dtype=object if python_ints else np.int64).reshape(m, n)
    for _ in range(rng.randint(1, 8)):
        spots = [(r, c) for r in range(m) for c in range(n) if eager[r][c]]
        if not spots:
            break
        r, c = rng.choice(spots)
        untouched = [(i, lazy[i]) for i in range(m) if i != r and not lazy[i][c]]
        d_eager = _eager_pivot(eager, r, c, d)
        tab, d_tab = exactlp._pivot_array(tab, r, c, d)
        d = exactlp._pivot(lazy, ds, r, c, d)
        assert d == d_tab == d_eager > 0
        assert all(lazy[i] is row for i, row in untouched)
        assert all(s > 0 and v * d % s == 0 for row, s in zip(lazy, ds) for v in row)
        assert [[v * d // s for v in row] for row, s in zip(lazy, ds)] == eager
        assert tab.tolist() == eager
        assert tab.dtype == object or all(abs(v) < 2**62 for row in eager for v in row)


def _spy_pivots(monkeypatch):
    """Record the dtype before and after each ndarray pivot step."""
    steps = []
    real = exactlp._pivot_array

    def spy(tab, r, c, d):
        before = tab.dtype
        tab, p = real(tab, r, c, d)
        steps.append((before, tab.dtype))
        return tab, p

    monkeypatch.setattr(exactlp, "_pivot_array", spy)
    return steps


def test_pivot_step_moves_to_python_ints_at_the_bound():
    # pivot (0, 0) with p = 1 and M = last: the bound p * M + M * M is
    # 2^62 - 2^31 at last = 2^31 - 1, and 2^62 + 2^31 at 2^31, the first M
    # to reach 2^62 (no p <= M makes it 2^62 exactly)
    for last, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        tab = np.array([[1, 1], [1, last]], dtype=np.int64)
        tab, p = exactlp._pivot_array(tab, 0, 0, 1)
        assert (p, tab.dtype) == (1, dtype)
        assert tab.tolist() == [[1, 1], [0, last - 1]]
    # with p = M the bound is 2 M^2, below 2^62 up to M = isqrt(2^61)
    edge = math.isqrt(2**61)
    for top, dtype in ((edge, np.int64), (edge + 1, object)):
        tab = np.array([[top, 1], [1, top]], dtype=np.int64)
        tab, p = exactlp._pivot_array(tab, 0, 0, 1)
        assert (p, tab.dtype) == (top, dtype)
        assert tab.tolist() == [[top, 1], [0, top * top - 1]]
    # beyond the bound: 2^31 * 2^33 would wrap int64, and the Python ints
    # hold the exact rows, at scale 1 and divided by a scale d = 2^31
    for d in (1, 2**31):
        tab = np.array([[2**31, 1], [2**31, 2**33]], dtype=np.int64)
        tab, p = exactlp._pivot_array(tab, 0, 0, d)
        assert (p, tab.dtype) == (2**31, object)
        assert tab.tolist() == [[2**31, 1], [0, (2**64 - 2**31) // d]]


def test_bell_4422_lp_stays_on_int64(monkeypatch):
    s = nogo.Bell(4, 4, 2, 2)
    uniform = nogo.Correlation(s, [[F(1, 4)] * 4 for _ in s.contexts()])
    steps = _spy_pivots(monkeypatch)
    assert isinstance(nogo.fs_compatible(uniform, s), nogo.Member)
    int64 = np.dtype(np.int64)
    assert steps and set(steps) == {(int64, int64)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30), st.booleans())
def test_entries_that_cross_the_bound_mid_solve_match_the_fraction_reference(seed, signed):
    # entries of 9 to 13 bits are read as int64, and the minors that the
    # pivots build grow past 2^62 within a few steps: the table must move
    # to Python ints mid-solve and still give the reference's x or y
    rng = random.Random(seed)
    m, n, bits = rng.randint(3, 5), rng.randint(3, 6), rng.randint(9, 13)

    def entry():
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    x0 = [entry() if signed else rng.getrandbits(bits) for _ in range(n)]
    b = [sum(r * v for r, v in zip(row, x0)) for row in a]
    with pytest.MonkeyPatch.context() as mp:
        steps = _spy_pivots(mp)
        got = feasible_nonneg(a, b)
    assume(steps and steps[0][0] == np.int64 and steps[-1][1] == object)
    assert got == feasible_nonneg_fraction(a, b)
    if not signed:
        assert got[0] == "feasible"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_int_and_fraction_entries_give_equal_results(seed):
    # Python ints and Fractions are read as they are; the same rational
    # rows give the same results whichever of the two holds each entry
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 5)

    def vec(k):
        return [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(k)]

    a, b, y = [vec(n) for _ in range(m)], vec(m), vec(m)

    def as_ints(v):
        return int(v) if v.denominator == 1 else v

    def mixed(v):
        return as_ints(v) if rng.random() < 0.5 else v

    forms = [
        (a, b, y),
        *(
            ([[f(v) for v in row] for row in a], [f(v) for v in b], [f(v) for v in y])
            for f in (as_ints, mixed)
        ),
    ]
    want = [feasible_nonneg(a, b), verify_certificate(a, b, y)]
    for fa, fb, fy in forms:
        assert [feasible_nonneg(fa, fb), verify_certificate(fa, fb, fy)] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_an_int_ndarray_is_read_as_it_is(seed):
    # a 2-D integer ndarray is read over 1 without a pass over its entries
    # in Python; a sequence of integer ndarray rows is read as other rows are
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(m)]
    want = feasible_nonneg(rows, b)
    for dtype in (np.int64, np.int32):
        arr = np.array(rows, dtype=dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactlp, "_ints", None)
            assert feasible_nonneg(arr, b) == want
        assert feasible_nonneg(tuple(arr), b) == want


def test_entries_beyond_the_bound_are_read_as_python_ints(monkeypatch):
    # -2^63 fits int64, but its absolute value wraps there
    steps = _spy_pivots(monkeypatch)
    for a in ([[-(2**63), 1]], np.array([[-(2**63), 1]]), [[2**63, 1]], [[2**62, 1]]):
        steps.clear()
        assert feasible_nonneg(a, [1]) == feasible_nonneg_fraction(a, [1])
        assert steps[0][0] == object


def test_bool_float_and_numpy_entries_convert_through_fraction():
    rows, rhs = [[True, 0.5], [False, np.int64(2)]], [0.25, True]
    exact, exact_rhs = [[F(1), F(1, 2)], [F(0), F(2)]], [F(1, 4), F(1)]
    assert feasible_nonneg(rows, rhs) == feasible_nonneg(exact, exact_rhs)
    assert verify_certificate([[True]], [-1.0], [-1.0])
    # a float is read as its binary value, not as the decimal it prints as
    assert feasible_nonneg([[0.1]], [1]) == ("feasible", [1 / F(0.1)])
    assert 1 / F(0.1) != 10


def test_forcing_rows_drop_with_the_columns_they_meet():
    # x0 + 2 x1 = 0 and -x2 = 0 fix x0, x1 and x2; x3 - x4 = 0 has both
    # signs, so it stays and splits x0 + x3 + x4 = 2 evenly (had it fixed
    # x3 and x4 too, no column would be left for the 2)
    a = [[1, 2, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 1, -1], [1, 0, 0, 1, 1]]
    assert feasible_nonneg(a, [0, 0, 0, 2]) == ("feasible", [0, 0, 0, 1, 1])
    # every column fixed: the kept row keeps y = 1, and t = 1 makes both
    # columns pay exactly 0, with -t on the nonnegative dropped row and t
    # on the nonpositive one
    a, b = [[1, 1], [-2, 0], [3, 1]], [0, 0, 1]
    assert feasible_nonneg(a, b) == ("infeasible", [-1, 1, 1])
    assert verify_certificate(a, b, [-1, 1, 1])
    # every row dropped: x = 0, also with no column left
    assert feasible_nonneg([[1, 1], [-1, 0]], [0, 0]) == ("feasible", [0, 0])
    assert feasible_nonneg([[0, 0]], [0]) == ("feasible", [0, 0])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**30),
    st.booleans(),
    st.sampled_from(("random", "solution", "zero", "all fixed")),
)
def test_forcing_rows_keep_the_status_and_certify_the_full_system(seed, binary, rhs):
    # rows of each sign kind, each column over a denominator of its own,
    # and right-hand sides with zeros: the status is the unpresolved
    # reference's, x and y are the presolving reference's, every x solves
    # the full system and every y certifies it
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    dens = [rng.choice((1, 2, 3, 5)) for _ in range(n)]

    def row(kind):
        mags = [rng.randint(0, 1) if binary else rng.randint(0, 3) for _ in range(n)]
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        if kind == "nonnegative":
            signs = [1] * n
        elif kind == "nonpositive":
            signs = [-1] * n
        elif kind == "mixed" and n > 1:
            j, k = rng.sample(range(n), 2)
            mags[j], mags[k], signs[j], signs[k] = 1, 1, 1, -1
        return [F(s * v, den) for s, v, den in zip(signs, mags, dens)]

    kinds = ("nonnegative", "nonpositive", "mixed", "any")
    a = [row(rng.choice(kinds)) for _ in range(m)]
    if rhs == "solution":
        x0 = [F(rng.choice((0, 0, 1, 2)), rng.choice((1, 2))) for _ in range(n)]
        b = [sum(r * v for r, v in zip(r_, x0)) for r_ in a]
    elif rhs == "zero":
        b = [F(0)] * m
    else:
        b = [F(0) if rng.random() < 0.5 else F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m)]
    if rhs == "all fixed":
        a.append([F(1, den) for den in dens])
        b.append(F(0))
    got = feasible_nonneg(a, b)
    assert got[0] == feasible_nonneg_fraction_unpresolved(a, b)[0]
    assert got == feasible_nonneg_fraction(a, b)
    if got[0] == "feasible":
        x = got[1]
        assert len(x) == n and min(x) >= 0
        assert [sum(r * v for r, v in zip(r_, x)) for r_ in a] == b
    else:
        assert verify_certificate(a, b, got[1])
    if rhs in ("solution", "zero"):
        assert got[0] == "feasible"
    if rhs == "zero" or rhs == "all fixed" and got[0] == "feasible":
        assert not any(got[1])
    if rhs == "all fixed":
        assert (got[0] == "feasible") == (not any(b))


def test_the_hexagon_embedding_is_infeasible_without_a_pivot(monkeypatch):
    # every column of the hexagon's LP meets a zero pairing, so the
    # presolve fixes them all and leaves Phase I nothing to enter
    steps = _spy_pivots(monkeypatch)
    assert isinstance(nogo.simplex_embed(nogo.hexagon_fragment()), nogo.Infeasible)
    assert steps == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from(("small", "big rhs", "big matrix")))
def test_the_integer_core_matches_feasible_nonneg_and_the_fraction_reference(seed, size):
    # the integer entry point on integer systems with forcing rows: its x or
    # y over its one denominator is what the Fraction wrapper returns and
    # what the presolving Fraction reference returns.  A right-hand side
    # past 2^62 takes the Python-int tableau; a matrix entry past 2^63 an
    # object matrix from the start
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    big = 2**62 + rng.randint(1, 2**20)

    def row(kind):
        vals = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)]
        if kind == "mixed":
            vals = [v * rng.choice((-1, 1)) for v in vals]
        elif kind == "nonpositive":
            vals = [-v for v in vals]
        if size == "big matrix":
            vals = [v * big * 2 if rng.random() < 0.3 else v for v in vals]
        return vals

    a = [row(rng.choice(("nonnegative", "nonpositive", "mixed"))) for _ in range(m)]
    scale = big if size == "big rhs" else 1
    if rng.random() < 0.5:
        x0 = [rng.choice((0, 0, 1, 2)) * scale for _ in range(n)]
        b = [sum(r * v for r, v in zip(r_, x0)) for r_ in a]
    else:
        b = [0 if rng.random() < 0.4 else rng.randint(-3, 3) * scale for _ in range(m)]
    if size == "big rhs":
        assume(max(map(abs, b)) >= 2**62)
    try:
        arr = np.array(a, dtype=np.int64)
    except OverflowError:
        arr = np.array(a, dtype=object)
    status, v, d = exactlp._solve(arr, b)
    assert d > 0 and len(v) == (n if status == "feasible" else m)
    got = status, [F(vi, d) for vi in v]
    assert got == feasible_nonneg(a, b) == feasible_nonneg_fraction(a, b)
    # the matrix is only read
    assert arr.tolist() == a


def _int_rows(rng, m, n, lo=-3, hi=3):
    return [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)]


def _keys(vectors):
    return {tuple(F(v) for v in vec) for vec in vectors}


def _split(eqs):
    return [row for eq in eqs for row in (eq, [-v for v in eq])]


def _degenerate(rng, rows, rhs):
    """Insert rows that hold wherever ``rows`` hold, at random places: a
    repeat, a double, a zero row, or the sum of two rows."""
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        row, c = rng.choice(
            (
                (rows[i], rhs[i]),
                ([2 * v for v in rows[i]], 2 * rhs[i]),
                ([F(0)] * len(rows[i]), 0),
                ([u + v for u, v in zip(rows[i], rows[j])], rhs[i] + rhs[j]),
            )
        )
        at = rng.randint(0, len(rows))
        rows.insert(at, list(row))
        rhs.insert(at, c)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.booleans(), st.booleans())
def test_vertices_match_the_subset_reference(seed, with_eqs, degenerate):
    # random rows through an integer point x0 plus a box around it: the
    # polytope is bounded and nonempty, often degenerate.  The vertices
    # come in the order of the subset search, not only as a set.
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    x0 = [rng.randint(-1, 1) for _ in range(n)]
    ineq = _int_rows(rng, rng.randint(0, 4), n)
    rhs = [sum(r * v for r, v in zip(row, x0)) + rng.randint(0, 2) for row in ineq]
    for j in range(n):
        for sign in (1, -1):
            row = [F(0)] * n
            row[j] = F(sign)
            ineq.append(row)
            rhs.append(sign * x0[j] + rng.randint(0, 2))
    if degenerate:
        _degenerate(rng, ineq, rhs)
    eq = _int_rows(rng, rng.randint(1, n), n) if with_eqs else []
    eq_rhs = [sum(r * v for r, v in zip(row, x0)) for row in eq]
    got = polytope_vertices(eq, eq_rhs, ineq, rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "cone_extreme_rays", cone_extreme_rays_subsets)
        assert got == polytope_vertices(eq, eq_rhs, ineq, rhs)
    assert len(_keys(got)) == len(got)
    assert _keys(got) == _keys(polytope_vertices_exact(eq, eq_rhs, ineq, rhs))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.booleans(), st.booleans())
def test_rays_match_the_subset_reference(seed, with_eqs, degenerate):
    # every row is oriented to hold at an integer point x0 and every
    # equality is made orthogonal to it, so x0 lies in the cone.  The rays
    # come in the order of the subset search, not only as a set.
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    assume(any(x0))
    norm = sum(v * v for v in x0)
    eqs = []
    for row in _int_rows(rng, rng.randint(1, n - 1) if with_eqs and n > 1 else 0, n):
        along = sum(r * v for r, v in zip(row, x0))
        eqs.append([norm * r - along * v for r, v in zip(row, x0)])
    rows = []
    for row in _int_rows(rng, rng.randint(n, n + 3), n):
        rows.append(row if sum(r * v for r, v in zip(row, x0)) >= 0 else [-r for r in row])
    if degenerate:
        _degenerate(rng, rows, [0] * len(rows))
    assume(matrix_rank(rows + eqs) == n)  # pointed
    got = cone_extreme_rays(rows, eqs)
    assert got
    assert all(all(v.denominator == 1 for v in ray) for ray in got)
    assert got == cone_extreme_rays_subsets(rows, eqs)
    if not eqs:
        assert [tuple(ray) for ray in got] == cone_extreme_rays_exact(rows)
    split = rows + _split(eqs)
    assert _keys(got) == _keys(cone_extreme_rays(split))
    assert _keys(got) == _keys(cone_extreme_rays_exact(split))


@pytest.mark.parametrize(
    "frag",
    [nogo.classical_bit_fragment, nogo.qubit_stabilizer_fragment, nogo.hexagon_fragment],
)
def test_equalities_give_the_rays_of_their_row_pairs(frag):
    # the distribution cone of simplex embedding: nonnegative values on
    # the states that respect every linear dependence among them
    states = frag().states
    ns = len(states)
    eqs = nullspace([[w[k] for w in states] for k in range(len(states[0]))])
    rows = [[F(int(j == k)) for j in range(ns)] for k in range(ns)]
    got = cone_extreme_rays(rows, eqs)
    assert got == cone_extreme_rays_subsets(rows, eqs)
    assert _keys(got) == _keys(cone_extreme_rays(rows + _split(eqs)))


def test_ray_cap_counts_the_pairs_tested_at_one_row(monkeypatch):
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    # inputs that the subset search refused at this cap are answered: 6
    # coordinates tied in 3 pairs, also as 20 split rows in 6 dimensions
    # (C(20, 5) = 15504 subsets), and 20 rows in 4 dimensions (C(20, 3) =
    # 1140 subsets)
    eqs = [[F(0)] * 6 for _ in range(3)]
    for p in range(3):
        eqs[p][2 * p], eqs[p][2 * p + 1] = F(1), F(-1)
    rows = [[F(int(j == k)) for j in range(6)] for k in range(6)]
    rows += [[F(int(j in (k, (k + 3) % 6))) for j in range(6)] for k in range(8)]
    got = cone_extreme_rays(rows, eqs)
    assert len(got) == 3 and got == cone_extreme_rays_subsets(rows, eqs)
    assert _keys(cone_extreme_rays(rows + _split(eqs))) == _keys(got)
    wide = _int_rows(random.Random(SEED + 5), 20, 4)
    assert cone_extreme_rays(wide) == cone_extreme_rays_subsets(wide) == []
    # the same rows turned to hold at (1, 1, 1, 1) leave a cone with rays
    wide = [row if sum(row) >= 0 else [-v for v in row] for row in wide]
    got = cone_extreme_rays(wide)
    assert got and got == cone_extreme_rays_subsets(wide)
    # 64 unit rows start a simplicial cone; the next row is positive on 32
    # of its rays and negative on the other 32, so inserting it would test
    # 32 * 32 = 1024 pairs.  That is refused before any ray is formed:
    # every vector made primitive is a unit vector of the start cone, and
    # a ray formed from a pair would have two nonzero entries.
    cone = [[int(i == j) for j in range(64)] for i in range(64)]
    cone.append([1] * 32 + [-1] * 32)
    formed = []
    real = exactlp._primitive
    monkeypatch.setattr(exactlp, "_primitive", lambda vec: formed.append(vec) or real(vec))
    with pytest.raises(CapExceeded, match="1024 pairs"):
        cone_extreme_rays(cone)
    assert formed and all(sum(map(bool, vec)) == 1 for vec in formed)


def test_a_cone_that_holds_a_line_is_degenerate():
    # x >= 0 and y >= 0 leave the z axis free; with z pinned to 0 by an
    # equality the same rows make a pointed cone
    with pytest.raises(Degenerate):
        cone_extreme_rays([[1, 0, 0], [0, 1, 0]])
    assert _keys(cone_extreme_rays([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]])) == {(1, 0, 0), (0, 1, 0)}
    # x = y with x + y >= 0 also leaves the z axis free, and x = y alone
    # leaves a plane
    with pytest.raises(Degenerate):
        cone_extreme_rays([[1, 1, 0]], [[1, -1, 0]])
    with pytest.raises(Degenerate):
        cone_extreme_rays([], [[1, -1, 0]])
    # a point is pointed and has no rays
    assert cone_extreme_rays([], []) == cone_extreme_rays([[1]], [[1]]) == []
    # a strip 0 <= x <= 1 in the plane holds the line along y
    with pytest.raises(Degenerate):
        polytope_vertices([], [], [[1, 0], [-1, 0]], [1, 0])
