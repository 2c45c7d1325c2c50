"""Exact rational linear programming and small linear algebra.

Each input is read once as Python-int rows over one positive common
denominator (``tensornet.scaled``), which no result depends on.  The
Phase-I simplex, solves, ranks, nullspaces and the ray enumerator behind
``polytope_vertices`` all pivot with one fraction-free step (Bareiss,
Math. Comp. 22, 1968), ``new = (p * row - row[c] * pivot_row) / d``: the
division is exact and ``d > 0``, so the rows always hold ``d`` times the
tableau and Fractions appear only in the results.  The scale is global:
per-row scales would reweight the Phase-I objective (the sum of the rows)
and change Bland's path, while one scalar keeps the entering columns, the
ratio-test ties, ``x`` and the Farkas ``y`` of the rational tableau.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .caps import enumeration_cap
from .errors import CapExceeded, Degenerate, DimensionMismatch
from .tensornet import scaled

_EXACT = (int, Fraction)


def _ints(rows):
    """The rows of numbers as Python-int rows over one positive denominator.

    Python ints and Fractions are read as they are; anything else (bools,
    floats, numpy scalars) goes through ``Fraction(v)`` first.
    """
    rows = [[v if type(v) in _EXACT else Fraction(v) for v in row] for row in rows]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DimensionMismatch("ragged matrix")
    return scaled([v for row in rows for v in row], (len(rows), width)).num.tolist()


def _augmented(a_rows, b):
    if len(b) != len(a_rows):
        raise DimensionMismatch("rhs length must match the row count")
    return _ints([*row, v] for row, v in zip(a_rows, b))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pivot(rows, r, c, d):
    """Pivot rows holding ``d`` times a tableau on ``(r, c)``; returns the
    new scale ``|rows[r][c]|``, which the rows then hold the new tableau times."""
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


def _rref(rows, ncols):
    """Reduce the integer ``rows`` in place to ``d`` times their reduced row
    echelon form over the first ``ncols`` columns; returns the pivot
    columns, pivot rows on top in order, and ``d``."""
    pivots, d = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        d = _pivot(rows, r, c, d)
        pivots.append(c)
    return pivots, d


def feasible_nonneg(a_rows, b):
    """Solve ``A x = b, x >= 0`` exactly.

    Returns ``("feasible", x)`` with a rational solution vector, or
    ``("infeasible", y)`` with a Farkas certificate: ``y . A <= 0``
    entrywise while ``y . b > 0``.
    """
    aug = _augmented(a_rows, b)
    m = len(aug)
    n = len(aug[0]) - 1 if m else 0
    # Columns: n originals, m artificials, the rhs.  The artificial block is
    # the identity, so d starts at 1 and every division stays exact.  Rows
    # with a negative rhs are negated; the last row, the column sums less 1
    # per artificial, is the Phase-I objective for the artificials' sum.
    flip = [-1 if row[n] < 0 else 1 for row in aug]
    tab = [
        [f * v for v in row[:n]] + [int(k == i) for k in range(m)] + [f * row[n]]
        for i, (row, f) in enumerate(zip(aug, flip))
    ]
    tab.append([sum(row[j] for row in tab) - (n <= j < n + m) for j in range(n + m + 1)])
    basis, d = [n + i for i in range(m)], 1

    while True:
        entering = next((j for j in range(n + m) if tab[m][j] > 0), None)
        if entering is None:
            break
        rows = [i for i in range(m) if tab[i][entering] > 0]
        if not rows:
            raise Degenerate("phase-I objective unbounded; invariant broken")
        # ratio test by cross-multiplication, ties to the smallest basic variable
        leaving = rows[0]
        for i in rows[1:]:
            cross = tab[i][-1] * tab[leaving][entering] - tab[leaving][-1] * tab[i][entering]
            if cross < 0 or cross == 0 and basis[i] < basis[leaving]:
                leaving = i
        d = _pivot(tab, leaving, entering, d)
        basis[leaving] = entering

    obj = tab[m]
    if obj[-1] > 0:
        # y = c_B B^{-1}; the artificial block of the objective row is y - 1.
        return "infeasible", [Fraction((obj[n + i] + d) * flip[i], d) for i in range(m)]

    # Artificials still basic sit at zero, so x reads off the basis as is.
    x = dict(zip(basis, (row[-1] for row in tab)))
    return "feasible", [Fraction(x.get(j, 0), d) for j in range(n)]


def verify_certificate(a_rows, b, y):
    """Check a Farkas certificate by direct arithmetic."""
    if not 0 < len(y) == len(b) == len(a_rows):
        return False
    *cols, rhs = zip(*_augmented(a_rows, b))
    (y,) = _ints([y])
    return all(_dot(y, col) <= 0 for col in cols) and _dot(y, rhs) > 0


def solve_linear(a_rows, b):
    """One solution of ``A x = b`` or None when inconsistent.

    Free variables are set to zero.
    """
    aug = _augmented(a_rows, b)
    n = len(aug[0]) - 1 if aug else 0
    pivots, d = _rref(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = dict(zip(pivots, (row[n] for row in aug)))
    return [Fraction(x.get(c, 0), d) for c in range(n)]


def matrix_rank(a_rows):
    rows = _ints(a_rows)
    return len(_rref(rows, len(rows[0]) if rows else 0)[0])


def _kernel(rows):
    """A right-nullspace basis of the nonempty integer ``rows``, as integer
    vectors ``d`` times the rational ones, and ``d``."""
    n = len(rows[0])
    pivots, d = _rref(rows, n)
    at = dict(zip(pivots, rows))
    free = [c for c in range(n) if c not in at]
    return [[-at[c][fc] if c in at else d * (c == fc) for c in range(n)] for fc in free], d


def nullspace(a_rows):
    """A basis of the right nullspace, as rational row vectors."""
    rows = _ints(a_rows)
    if not rows:
        return []
    basis, d = _kernel(rows)
    return [[Fraction(v, d) for v in vec] for vec in basis]


def polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs):
    """Vertices of ``{x : Eq x = b, Ineq x <= c}``.

    Homogenizes to the cone ``{(x, t) : c t - Ineq x >= 0, t >= 0,
    Eq x - b t = 0}`` and keeps its extreme rays with ``t > 0``, divided
    by ``t``.  Exhaustive, so intended for the small polytopes that arise
    from fragments (dimension at most ~6).
    """
    if not (ineq_rows or eq_rows):
        return []
    n = len((ineq_rows or eq_rows)[0])
    cone = [[*(-v for v in row), c] for row, c in zip(ineq_rows, ineq_rhs)]
    cone.append([0] * n + [1])
    eqs = [[*row, -v] for row, v in zip(eq_rows, eq_rhs)]
    rays = cone_extreme_rays(cone, eqs)
    return [[v / ray[n] for v in ray[:n]] for ray in rays if ray[n] > 0]


def cone_extreme_rays(ineq_rows, eq_rows=()):
    """Extreme rays of ``{x : A x >= 0, E x = 0}`` for a pointed cone.

    The equalities are solved first: with a nullspace basis ``B`` of
    ``E``, ``x = y B`` and the search runs over ``y`` in ``k = len(B)``
    dimensions.  Every subset of ``k - 1`` inequalities with a
    one-dimensional kernel gives a candidate direction, kept when it
    satisfies all inequalities.  The number of subsets is checked
    against the enumeration cap before any is tried.  Each ray comes
    back once, as a primitive integer vector, in the order first found.
    """
    a = _ints(ineq_rows)
    if not a:
        return []
    n = len(a[0])
    eqs = _ints(eq_rows)
    basis = _kernel(eqs)[0] if eqs else [[int(i == j) for j in range(n)] for i in range(n)]
    k = len(basis)
    if k == 0:
        return []
    reduced = [[_dot(row, vec) for vec in basis] for row in a]
    tries = comb(len(reduced), k - 1)
    if tries > enumeration_cap():
        raise CapExceeded(f"ray enumeration over {tries} subsets exceeds the cap")
    rays = {}  # primitive ray -> None, in the order first found
    for subset in combinations(range(len(reduced)), k - 1):
        # with no rows picked (k == 1) the kernel is the whole line
        kernel = _kernel([reduced[i] for i in subset])[0] if subset else [[1]]
        if len(kernel) != 1:
            continue
        for y in (kernel[0], [-v for v in kernel[0]]):
            if all(_dot(row, y) >= 0 for row in reduced):
                x = [_dot(y, col) for col in zip(*basis)]
                g = gcd(*x)
                rays[tuple(v // g for v in x)] = None
                break
    return [[Fraction(v) for v in key] for key in rays]
