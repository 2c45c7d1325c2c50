"""Exact rational linear programming and small linear algebra.

One elimination routine; vertices by homogenization over one
equality-aware ray enumerator.  The Phase-I simplex, linear solves,
ranks and nullspaces all pivot with ``_pivot``.  The simplex runs over
Fraction with Bland's anti-cycling rule, so every verdict is exact: a
feasible point comes back as rationals, an infeasible system with a
Farkas certificate that callers can re-verify by direct arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .caps import enumeration_cap
from .errors import CapExceeded, Degenerate, DimensionMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_matrix(rows):
    out = [[Fraction(v) for v in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("ragged matrix")
    return out


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def _pivot(rows, r, c):
    """Scale row ``r`` to 1 at column ``c`` and clear column ``c`` in every other row."""
    inv = _ONE / rows[r][c]
    pivot = rows[r] = [v * inv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            factor = row[c]
            rows[i] = [v - factor * p for v, p in zip(row, pivot)]


def _rref(rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form over the first
    ``ncols`` columns; returns the pivot columns, pivot rows on top in order."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
    return pivots


def feasible_nonneg(a_rows, b):
    """Solve ``A x = b, x >= 0`` exactly.

    Returns ``("feasible", x)`` with a rational solution vector, or
    ``("infeasible", y)`` with a Farkas certificate: ``y . A <= 0``
    entrywise while ``y . b > 0``.
    """
    a = _as_matrix(a_rows)
    b = [Fraction(v) for v in b]
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m:
        raise DimensionMismatch("rhs length must match the row count")

    # Tableau columns: n originals, m artificials, then the rhs.  Rows with
    # a negative rhs are negated first; the last row is the Phase-I
    # objective: reduced costs for minimizing the artificials.
    flip = [-_ONE if v < 0 else _ONE for v in b]
    tab = [
        [f * v for v in row] + [_ONE if k == i else _ZERO for k in range(m)] + [f * v]
        for i, (row, v, f) in enumerate(zip(a, b, flip))
    ]
    obj = [sum((row[j] for row in tab), _ZERO) for j in range(n + m + 1)]
    for i in range(m):
        obj[n + i] -= _ONE
    tab.append(obj)
    basis = [n + i for i in range(m)]

    while True:
        entering = next((j for j in range(n + m) if tab[m][j] > 0), None)
        if entering is None:
            break
        rows = [i for i in range(m) if tab[i][entering] > 0]
        if not rows:
            raise Degenerate("phase-I objective unbounded; invariant broken")
        # ratio test, ties to the smallest basic variable
        leaving = min(rows, key=lambda i: (tab[i][-1] / tab[i][entering], basis[i]))
        _pivot(tab, leaving, entering)
        basis[leaving] = entering

    obj = tab[m]
    if obj[-1] > 0:
        # y = c_B B^{-1}; the artificial block of the objective row is y - 1.
        y = [(obj[n + i] + _ONE) * flip[i] for i in range(m)]
        return "infeasible", y

    # Artificials still basic sit at zero, so x reads off the basis as is.
    x = [_ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return "feasible", x


def verify_certificate(a_rows, b, y):
    """Check a Farkas certificate by direct arithmetic."""
    a = _as_matrix(a_rows)
    b = [Fraction(v) for v in b]
    y = [Fraction(v) for v in y]
    if not len(y) == len(b) == len(a):
        return False
    return all(_dot(y, col) <= 0 for col in zip(*a)) and _dot(y, b) > 0


def solve_linear(a_rows, b):
    """One solution of ``A x = b`` or None when inconsistent.

    Free variables are set to zero.
    """
    a = _as_matrix(a_rows)
    if len(b) != len(a):
        raise DimensionMismatch("rhs length must match the row count")
    n = len(a[0]) if a else 0
    aug = [row + [Fraction(v)] for row, v in zip(a, b)]
    pivots = _rref(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [_ZERO] * n
    for row, c in zip(aug, pivots):
        x[c] = row[n]
    return x


def matrix_rank(a_rows):
    a = _as_matrix(a_rows)
    return len(_rref(a, len(a[0]) if a else 0))


def nullspace(a_rows):
    """A basis of the right nullspace, as rational row vectors."""
    a = _as_matrix(a_rows)
    if not a:
        return []
    n = len(a[0])
    pivots = _rref(a, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [_ZERO] * n
        vec[fc] = _ONE
        for row, c in zip(a, pivots):
            vec[c] = -row[fc]
        basis.append(vec)
    return basis


def polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs):
    """Vertices of ``{x : Eq x = b, Ineq x <= c}``.

    Homogenizes to the cone ``{(x, t) : c t - Ineq x >= 0, t >= 0,
    Eq x - b t = 0}`` and keeps its extreme rays with ``t > 0``, divided
    by ``t``.  Exhaustive, so intended for the small polytopes that arise
    from fragments (dimension at most ~6).
    """
    eq_rows = _as_matrix(eq_rows)
    ineq_rows = _as_matrix(ineq_rows)
    if not (ineq_rows or eq_rows):
        return []
    n = len((ineq_rows or eq_rows)[0])
    cone = [[-v for v in row] + [Fraction(c)] for row, c in zip(ineq_rows, ineq_rhs)]
    cone.append([_ZERO] * n + [_ONE])
    eqs = [row + [-Fraction(v)] for row, v in zip(eq_rows, eq_rhs)]
    return [
        [v / ray[n] for v in ray[:n]]
        for ray in cone_extreme_rays(cone, eqs)
        if ray[n] > 0
    ]


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
    a = _as_matrix(ineq_rows)
    if not a:
        return []
    n = len(a[0])
    eq_rows = _as_matrix(eq_rows)
    identity = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    basis = nullspace(eq_rows) if eq_rows else identity
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
        kernel = nullspace([reduced[i] for i in subset]) if subset else [[_ONE]]
        if len(kernel) != 1:
            continue
        for y in (kernel[0], [-v for v in kernel[0]]):
            if all(_dot(row, y) >= 0 for row in reduced):
                x = [_dot(y, col) for col in zip(*basis)]
                den = lcm(*(v.denominator for v in x))
                ints = [int(v * den) for v in x]
                g = gcd(*ints)
                rays[tuple(v // g for v in ints)] = None
                break
    return [[Fraction(v) for v in key] for key in rays]
