"""Exact rational linear programming and small linear algebra.

Each input matrix is read once as integers over one positive
denominator, the least common one, as ``tensornet.integers`` and
``Scaled`` read numbers (``_ints``; a 2-D signed-integer ndarray is read
as it is, over 1).  Scaling the whole matrix by a positive number
changes neither the Phase-I path, nor its Farkas ``y``, nor a nullspace,
nor a cone; only a solution ``x`` undoes the scales, of the matrix and
of the right-hand side.

The Phase-I simplex, nullspaces and the start cone of the ray
enumerator all pivot with one fraction-free step (Edmonds, J. Res. NBS
71B, 1967; Bareiss, Math. Comp. 22, 1968): a table holding ``d`` times
the rational tableau, pivoted on an entry ``p > 0`` (a negative pivot's
row is negated first), holds ``p`` times the new tableau once every
other row ``v`` becomes ``(p * v - f * w) / d``, ``f`` being its entry
in the pivot column and ``w`` the pivot row.  Every division is exact,
because ``d`` times the tableau is integer, and Fractions appear only
in the results.

The LP has one integer core, ``_solve(a, b)``: an integer matrix and
a list of Python ints in, ``x`` or a Farkas ``y`` out as Python ints
over one denominator.  ``feasible_nonneg`` is its Fraction wrapper: it
reads the input once as integers, calls the core, and forms Fractions
from the answer alone.  ``nogo`` calls the core directly on the
integers it has already read, and forms Fractions only for its
verdicts.  Before Phase I the core presolves: a row whose right-hand
side is zero and whose nonzero entries share one sign forces every
column it meets to zero (a forcing constraint; Andersen & Andersen, Math.
Programming 71, 1995).  Such rows and the columns they meet are dropped,
the simplex runs on the rest, and its answer is extended to the whole
system exactly: ``x`` is zero on the dropped columns, and a Farkas ``y``
takes one common value on the dropped rows, up to each row's sign, the
least that keeps it a certificate, found by cross-multiplying Python
ints and kept as their ratio.  Local mixtures, PR blocks and the zero
pairings of the embedding LPs lose most of their degenerate pivots this
way; an input without such a row reaches Phase I as it is.

The simplex tableau is one 2-D ndarray at one common scale ``d``, and
each step rewrites the whole table at once (``_pivot_array``).  It is
int64 while a bound allows: before each step, ``p * M + M * M``, ``M``
being the largest absolute entry, bounds every value the step forms,
and at 2^62 the table moves to Python ints (object dtype) for the rest
of the solve, so no value ever wraps.  The ratio test compares Python
ints.  The small eliminations of the other routines pivot Python-int
lists (``_pivot``), where numpy's cost per call would outweigh its
speed.  There row ``i`` holds ``ds[i]`` times row ``i`` of the tableau,
``ds[i]`` being the scale of the last pivot that changed it, so a row
with a zero in the pivot column is left as it is: rescaling the rows a
step does not touch would cost a Python list a quarter of its step.

Extreme rays, and through them the vertices of ``polytope_vertices``,
come from the double-description method on Python-int rays, with the
rows each ray is tight on kept as an int bitmask.  Its work grows with
the rays of the intermediate cones, not with the subsets of rows, and
the enumeration cap bounds the pairs of rays tested at any one row.  The
rays come back in the order a search over the subsets of rows would
first find them, so the LP columns built from them do not depend on how
they were found.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .caps import over_cap
from .errors import CapExceeded, Degenerate, DimensionMismatch
from .tensornet import _INT64_SAFE, _maxabs, integers

_ZERO = Fraction(0)


def _ints(rows):
    """The rows of numbers as Python-int rows over one positive denominator,
    the least common one, as ``tensornet.integers`` reads them: ``(ints,
    den)``, the rows being ``ints / den``."""
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DimensionMismatch("ragged matrix")
    flat, den = integers([v for row in rows for v in row])
    return [flat[i * width : (i + 1) * width] for i in range(len(rows))], den


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pivot(rows, ds, r, c, d):
    """Pivot on ``(r, c)`` the rows holding ``ds[i]`` times a tableau, ``d``
    being the scale of the last pivot; returns the new scale ``p``.

    The pivot row alone is lifted to ``d``, which makes it ``p`` times the
    new pivot row.  Each row with a nonzero ``f`` in column ``c`` becomes
    ``p`` times its new tableau row, ``(p * v - f * w) / ds[i]``; the
    others keep their values and scales.
    """
    s = ds[r]
    pivot = rows[r] if s == d else [v * d // s for v in rows[r]]
    p = pivot[c]
    if p < 0:
        p = -p
        pivot = [-v for v in pivot]
    rows[r], ds[r] = pivot, p
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            s = ds[i]
            rows[i] = [(p * v - f * w) // s for v, w in zip(row, pivot)]
            ds[i] = p
    return p


def _rref(rows, ncols):
    """Reduce the integer ``rows`` in place to ``d`` times their reduced row
    echelon form over the first ``ncols`` columns; returns the pivot
    columns, pivot rows on top in order, and ``d``.  The rows below the
    pivot rows, zero on the first ``ncols`` columns, are left at some
    positive multiple."""
    pivots, d, ds = [], 1, [1] * len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        ds[r], ds[sel] = ds[sel], ds[r]
        d = _pivot(rows, ds, r, c, d)
        pivots.append(c)
    for i, s in enumerate(ds[: len(pivots)]):
        if s != d:
            rows[i] = [v * d // s for v in rows[i]]
    return pivots, d


def _pivot_array(tab, r, c, d):
    """One step on the 2-D ndarray ``tab``, which holds ``d`` times the
    tableau; returns ``tab, p``, the table then holding ``p`` times the
    tableau pivoted on ``(r, c)``.

    Row ``r``, negated if its pivot is negative, is the new ``w``; every
    other row becomes ``(p * row - f * w) // d``, ``f`` being its entry in
    column ``c``.  With ``M`` the largest absolute entry, ``p * M + M * M``
    bounds every product, difference and quotient of the step, and an
    int64 ``tab`` moves to Python ints (object dtype) before it when that
    bound reaches 2^62.
    """
    p = int(tab[r, c])
    if tab.dtype != object:
        big = _maxabs(tab)
        if (abs(p) + big) * big >= _INT64_SAFE:
            tab = tab.astype(object)
    w = tab[r].copy() if p > 0 else -tab[r]
    p = abs(p)
    fw = tab[:, c, None] * w
    tab *= p
    tab -= fw
    if d != 1:
        tab //= d
    tab[r] = w
    return tab, p


def _int_matrix(a_rows):
    """The rows as a 2-D int64 or object ndarray of ints over one positive
    denominator, and that denominator.  A 2-D signed-integer ndarray is
    read as it is, over 1; any other rows go through ``_ints``."""
    if isinstance(a_rows, np.ndarray) and a_rows.ndim == 2 and a_rows.dtype.kind == "i":
        return a_rows.astype(np.int64, copy=False), 1
    ints, den = _ints(a_rows)
    try:
        a = np.array(ints, dtype=np.int64)
    except OverflowError:
        a = np.array(ints, dtype=object)
    return a.reshape(len(ints), len(ints[0]) if ints else 0), den


def feasible_nonneg(a_rows, b):
    """Solve ``A x = b, x >= 0`` exactly.

    ``A`` is a sequence of rows of numbers or a 2-D signed-integer
    ndarray.  Returns ``("feasible", x)`` with a rational solution
    vector, or ``("infeasible", y)`` with a Farkas certificate:
    ``y . A <= 0`` entrywise while ``y . b > 0``.  The system is read
    once as integers and solved by ``_solve``; Fractions are formed from
    its answer alone.
    """
    a, scale_a = _int_matrix(a_rows)
    if len(b) != a.shape[0]:
        raise DimensionMismatch("rhs length must match the row count")
    b, scale_b = integers(b)
    status, v, d = _solve(a, b)
    if status == "infeasible":
        return status, [Fraction(yi, d) for yi in v]
    # x = scale_a * x' / scale_b, x' / d solving the scaled system
    d *= scale_b
    return status, [Fraction(scale_a * xj, d) if xj else _ZERO for xj in v]


def _solve(a, b):
    """``A x = b, x >= 0`` on integers: ``a`` an int64 or object ndarray of
    Python ints, which is only read, and ``b`` a list of Python ints.

    Returns ``("feasible", x, d)``, the solution being ``x / d``, or
    ``("infeasible", y, d)``, the Farkas certificate being ``y / d``;
    ``x`` and ``y`` are lists of Python ints and ``d > 0``.

    A forcing row, one whose right-hand side is zero and whose nonzero
    entries share one sign, holds only at ``x_j = 0`` for each column
    ``j`` it meets.  Such rows are dropped, with every column they meet
    (Andersen & Andersen, Math. Programming 71, 1995), and Phase I runs on
    the rest; ``x`` is zero at the dropped columns.  A Farkas ``y`` of the
    rest is ``y`` on the kept rows, and ``-t`` on each dropped row (``t``
    on a row with a negative entry), ``t`` being the least rational that
    leaves every dropped column paying ``y . a_j <= 0``, or 0 when no
    column was dropped; ``t`` is kept as a ratio of ints, so ``y`` comes
    back over one denominator.  An input without a forcing row goes to
    Phase I as it is.
    """
    m, n = a.shape
    drop, neg = [], []
    if 0 in b:
        zero = [i for i, v in enumerate(b) if not v]
        forcing = a.take(zero, 0)
        # a row without a negative entry is forcing; only the others need
        # their largest entry
        lo = forcing.min(axis=1, initial=0).tolist()
        hi = forcing.max(axis=1, initial=0).tolist() if min(lo) < 0 else lo
        for i, l, h in zip(zero, lo, hi):
            if l >= 0 or h <= 0:
                drop.append(i)
                neg.append(l < 0)
    if drop:
        if len(drop) < len(zero):
            forcing = a.take(drop, 0)
        fixed = forcing.any(axis=0).tolist()
        cols = [j for j, f in enumerate(fixed) if not f]
        dropped = set(drop)
        keep = [i for i in range(m) if i not in dropped]
        feasible, v, d = _phase_one(a.take(keep, 0).take(cols, 1), [b[i] for i in keep])
    else:
        cols = range(n)
        feasible, v, d = _phase_one(a, b)
    if feasible:
        x = [0] * n
        for j, xj in v:
            x[cols[j]] = xj
        return "feasible", x, d
    if not drop:
        return "infeasible", v, d
    y = [0] * m
    for i, yi in zip(keep, v):
        y[i] = yi
    tn, td = 0, 1
    if len(cols) < n:
        # column j pays y . a_j = pays_j / d with y on the kept rows alone,
        # and t * costs_j less with -t or t on the dropped rows; the least t
        # is the largest pays_j / (costs_j * d) over the dropped columns, the
        # ones with costs_j > 0, found by cross-multiplying Python ints
        if a.dtype != object and (
            len(keep) * max(map(abs, y)) + len(drop)
        ) * _maxabs(a) >= _INT64_SAFE:
            a, forcing = a.astype(object), forcing.astype(object)
        pays = (np.array(y, dtype=a.dtype) @ a).tolist()
        costs = np.abs(forcing).sum(axis=0).tolist()
        tn = None
        for c, s in zip(pays, costs):
            if s and (tn is None or c * td > tn * s):
                tn, td = c, s
        # y / d is y * td over td * d, and t is tn over it
        y = [yi * td for yi in y]
    for i, g in zip(drop, neg):
        y[i] = tn if g else -tn
    return "infeasible", y, td * d


def _phase_one(a, b):
    """Phase I of the simplex on ``a x = b, x >= 0``, ``a`` being an int64
    or object ndarray of integers and ``b`` a list of Python ints.

    Returns ``(True, basic, d)``, a solution being ``v / d`` at column
    ``j`` for each pair ``(j, v)`` of ``basic`` and 0 elsewhere, or
    ``(False, y, d)`` with the Farkas certificate ``y / d``, ``y`` a list
    of Python ints.
    """
    m, n = a.shape
    # Columns: n originals, m artificials, the rhs.  The artificial block is
    # the identity, so the table starts at scale 1.  Rows with a negative
    # rhs are negated; the last row, the column sums less 1 per artificial,
    # is the Phase-I objective for the artificials' sum.  The table is int64
    # when that row, which bounds every entry in size, stays below 2^62.
    flip = [-1 if v < 0 else 1 for v in b]
    rhs = [abs(v) for v in b]
    fits = a.dtype != object and max(m * _maxabs(a), sum(rhs)) < _INT64_SAFE
    tab = np.zeros((m + 1, n + m + 1), dtype=np.int64 if fits else object)
    body = tab[:m]
    body[:, :n] = a
    neg = [i for i, f in enumerate(flip) if f < 0]
    if neg:
        body[neg, :n] *= -1
    # the artificial identity: cell (i, n + i) is n + i * (n + m + 2) of the flat table
    tab.flat[n : m * (n + m + 2) : n + m + 2] = 1
    body[:, -1] = rhs
    tab[m, :n] = body[:, :n].sum(axis=0)
    tab[m, -1] = sum(rhs)
    basis, d = [n + i for i in range(m)], 1

    while True:
        positive = (tab[m, : n + m] > 0).nonzero()[0]
        if not positive.size:
            break
        entering = int(positive[0])
        col, rhs = tab[:m, entering].tolist(), tab[:m, -1].tolist()
        rows = [i for i, v in enumerate(col) if v > 0]
        if not rows:
            raise Degenerate("phase-I objective unbounded; invariant broken")
        # ratio test by cross-multiplication in Python ints, which the
        # scale does not change, ties to the smallest basic variable
        leaving = rows[0]
        for i in rows[1:]:
            cross = rhs[i] * col[leaving] - rhs[leaving] * col[i]
            if cross < 0 or cross == 0 and basis[i] < basis[leaving]:
                leaving = i
        tab, d = _pivot_array(tab, leaving, entering, d)
        basis[leaving] = entering

    obj = tab[m].tolist()
    if obj[-1] > 0:
        # y = c_B B^{-1}; the artificial block of the objective row is y - 1.
        return False, [(obj[n + i] + d) * flip[i] for i in range(m)], d

    # Artificials still basic sit at zero, so x reads off the basis as is.
    rhs = tab[:m, -1].tolist()
    return True, [(j, v) for j, v in zip(basis, rhs) if j < n], d


def verify_certificate(a_rows, b, y):
    """Check a Farkas certificate by direct arithmetic."""
    if not 0 < len(y) == len(b) == len(a_rows):
        return False
    # a positive scale leaves the sign of every product with y as it is
    cols = _int_matrix(a_rows)[0].T.tolist()
    y, rhs = integers(y)[0], integers(b)[0]
    return all(_dot(y, col) <= 0 for col in cols) and _dot(y, rhs) > 0


def _kernel(rows):
    """A right-nullspace basis of the nonempty integer ``rows``: one integer
    vector per free column, ``d`` at that column and 0 at the other free
    ones; returns the free columns, the vectors and ``d``."""
    n = len(rows[0])
    pivots, d = _rref(rows, n)
    at = dict(zip(pivots, rows))
    free = [c for c in range(n) if c not in at]
    return free, [[-at[c][fc] if c in at else d * (c == fc) for c in range(n)] for fc in free], d


def nullspace(a_rows):
    """A basis of the right nullspace, as rational row vectors, each 1 at
    its own free column and 0 at the others."""
    rows = _ints(a_rows)[0]
    if not rows:
        return []
    _, basis, d = _kernel(rows)
    return [[Fraction(v, d) for v in vec] for vec in basis]


def polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs):
    """Vertices of ``{x : Eq x = b, Ineq x <= c}``.

    Homogenizes to the cone ``{(x, t) : c t - Ineq x >= 0, t >= 0,
    Eq x - b t = 0}`` and keeps its extreme rays with ``t > 0``, divided
    by ``t``, in the order of ``cone_extreme_rays``.  The cone is pointed
    when ``Ineq`` and ``Eq`` together have full column rank; otherwise the
    set holds a line and this raises Degenerate.
    """
    if not (ineq_rows or eq_rows):
        return []
    n = len((ineq_rows or eq_rows)[0])
    cone = [[*(-v for v in row), c] for row, c in zip(ineq_rows, ineq_rhs)]
    cone.append([0] * n + [1])
    eqs = [[*row, -v] for row, v in zip(eq_rows, eq_rhs)]
    rays = cone_extreme_rays(cone, eqs)
    return [[Fraction(v, ray[n]) for v in ray[:n]] for ray in rays if ray[n] > 0]


def _primitive(vec):
    g = gcd(*vec)
    return [v // g for v in vec]


def _double_description(rows, k):
    """Extreme rays of the pointed cone ``{y : rows . y >= 0}`` of dimension
    ``k``, each as a primitive integer ``y`` and the bitmask of the rows it
    is tight on.

    The double-description method (Motzkin et al. 1953; Fukuda & Prodon,
    LNCS 1120, 1996).  It starts from the simplicial cone of the first
    ``k`` independent rows and inserts the other rows in index order.  The
    rays a row cuts off give way to one new ray per adjacent pair across
    the row.  Two rays are adjacent when no other ray is tight on every
    row both are tight on (the combinatorial test), read off per-row
    bitmasks of the rays tight there.  Before each insertion the number of
    pairs to test is checked against the enumeration cap.
    """
    # the pivot columns of the transpose: each row independent of those before
    start = _rref([list(col) for col in zip(*rows)], len(rows))[0]
    if len(start) < k:
        raise Degenerate("the cone holds a line: its rows have rank below its dimension")
    # ray j of the simplicial cone is column j of the start rows' inverse,
    # tight on every start row but the j-th
    aug = [[*rows[i], *(int(i == j) for j in start)] for i in start]
    _rref(aug, k)
    seen = sum(1 << i for i in start)
    rays = [(_primitive([row[k + j] for row in aug]), seen ^ (1 << i)) for j, i in enumerate(start)]
    for i, row in enumerate(rows):
        bit = 1 << i
        if seen & bit:
            continue
        seen |= bit
        vals = [_dot(row, y) for y, _ in rays]
        pos = [j for j, v in enumerate(vals) if v > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        if over_cap(len(pos) * len(neg)):
            raise CapExceeded(
                f"ray enumeration would test {len(pos) * len(neg)} pairs at one row, "
                "over the cap"
            )
        new = []
        if pos and neg:
            # tight_on[b]: the rays tight on the row of bit b, as a bitmask
            tight_on = {}
            for j, (_, z) in enumerate(rays):
                while z:
                    b = z & -z
                    tight_on[b] = tight_on.get(b, 0) | 1 << j
                    z ^= b
            everyone = (1 << len(rays)) - 1
            for p in pos:
                yp, zp = rays[p]
                for q in neg:
                    yq, zq = rays[q]
                    common = zp & zq
                    if common.bit_count() < k - 2:
                        continue
                    pair = 1 << p | 1 << q
                    others = everyone
                    while common and others != pair:
                        b = common & -common
                        others &= tight_on[b]
                        common ^= b
                    if others == pair:
                        fp, fq = vals[p], -vals[q]
                        y = _primitive([fp * a + fq * b for a, b in zip(yq, yp)])
                        new.append((y, zp & zq | bit))
        rays = [
            (y, z | bit if not v else z) for (y, z), v in zip(rays, vals) if v >= 0
        ] + new
    return rays


def cone_extreme_rays(ineq_rows, eq_rows=()):
    """Extreme rays of ``{x : A x >= 0, E x = 0}`` for a pointed cone.

    The equalities are solved first: with a nullspace basis ``B`` of
    ``E``, ``x = y B`` and the rays are found over ``y`` in ``k = len(B)``
    dimensions by ``_double_description``, which raises Degenerate when
    the cone holds a line and CapExceeded when one row would test more
    pairs of rays than the enumeration cap.  Each ray comes back once, as
    a primitive vector of Python ints.  They are ordered by the
    inequalities each is tight on, as sorted index lists, which is the
    order in which a search over the subsets of ``k - 1`` inequalities,
    in ``combinations`` order, first finds them.
    """
    # one scale for the inequalities and equalities, which moves no ray
    rows = _ints([*ineq_rows, *eq_rows])[0]
    a, eqs = rows[: len(ineq_rows)], rows[len(ineq_rows) :]
    n = len(rows[0]) if rows else 0
    basis = _kernel(eqs)[1] if eqs else [[int(i == j) for j in range(n)] for i in range(n)]
    k = len(basis)
    if k == 0:
        return []
    reduced = [[_dot(row, vec) for vec in basis] for row in a]
    cols = list(zip(*basis))
    # The subset search first finds a ray at the lexicographically first
    # independent k - 1 of its tight rows, the greedy pick.  Two rays that
    # share their first j tight rows share the greedy picks among them, and
    # the one whose next tight row comes first picks that row next: had it
    # been dependent on the shared rows, the other ray would be tight on it
    # too.  (Had they picked k - 1 rows among the shared ones, they would
    # be one ray.)  So the greedy picks order the rays as their tight rows
    # do.
    found = []
    for y, zero in _double_description(reduced, k):
        tight = [i for i in range(len(reduced)) if zero >> i & 1]
        x = _primitive([_dot(y, col) for col in cols])
        found.append((tight, x))
    found.sort()
    return [x for _, x in found]
