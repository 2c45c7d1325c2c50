"""Independent reference computations used to cross-check the engine.

Everything here is implemented from scratch on plain Python data
(nested lists, Fractions, numpy arrays) without importing ci_engine, so
agreement between an oracle and the engine is evidence rather than a
tautology.  Floating point routines use scipy's HiGGS-backed linprog;
exact routines use Fraction arithmetic directly.  The exceptions are
``cone_extreme_rays_subsets``, the engine's former subset search kept as
the reference for the order of its rays, which reads and reduces its rows
with the engine's own integer helpers; ``loads_reference``, the
engine's former reader, which raises the engine's ``ParseError``; the
``*_reference`` joins of whole diagrams and ``apply_representation_reference``,
the engine's former hand-wired ones, which build the engine's ``Diagram``
from the engine's boxes; ``proc_tensor_reference``, the engine's
former superoperator construction, which reads the engine's procedure
declarations; and ``response_vertices_reference``, the engine's former
response candidates of a simplex embedding, which calls the engine's
``polytope_vertices``.
"""

import itertools
import math
import re
from fractions import Fraction
from math import gcd

import numpy as np
from scipy.optimize import linprog

from ci_engine.diagrams import Diagram, inferential_system
from ci_engine.errors import (
    CarrierMismatch,
    ConfigError,
    MissingXi,
    ParseError,
    SignatureMismatch,
    TypeMismatch,
    ValidationError,
)
from ci_engine.exactlp import _dot, _ints, _kernel, polytope_vertices
from ci_engine.fileformat import _split_header
from ci_engine.fstheory import (
    GenEmbedded,
    GenIgnore,
    GenPropGain,
    embedded,
    hom_system,
    ignore,
    knowledge_box,
    prop_gain,
    state_box,
)
from ci_engine.optheory import OpKnowledge, OpProc, op_knowledge_box, procedure_box
from ci_engine.substoch import point_state

_TOL = 1e-9


# ---------------------------------------------------------------------------
# Convex geometry


def hull_member(vertices, point, tol=1e-8):
    """Is ``point`` a convex combination of ``vertices``?  Float LP.

    Returns (bool, weights or None).
    """
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    n = v.shape[0]
    a_eq = np.vstack([v.T, np.ones((1, n))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not res.success:
        return False, None
    if np.max(np.abs(a_eq @ res.x - b_eq)) > tol:
        return False, None
    return True, res.x


def polytope_vertices_float(eq_rows, eq_rhs, ineq_rows, ineq_rhs, tol=1e-9):
    """Brute-force vertex enumeration of {x: Ex = f, Gx <= h}.

    Tries every subset of inequalities that could complete the equality
    system to full rank, solves, and keeps feasible solutions.  Only
    suitable for the small instances used in tests.
    """
    eq = np.asarray(eq_rows, dtype=float).reshape(len(eq_rows), -1)
    ineq = np.asarray(ineq_rows, dtype=float).reshape(len(ineq_rows), -1)
    dim = eq.shape[1] if eq.size else ineq.shape[1]
    rank_eq = np.linalg.matrix_rank(eq) if eq.size else 0
    need = dim - rank_eq
    verts = []
    for subset in itertools.combinations(range(len(ineq_rows)), need):
        a = np.vstack([eq] + [ineq[list(subset)]]) if eq.size else ineq[list(subset)]
        b = np.concatenate([eq_rhs, [ineq_rhs[i] for i in subset]])
        if np.linalg.matrix_rank(a) < dim:
            continue
        x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
        if np.max(np.abs(a @ x - b)) > tol:
            continue
        if ineq.size and np.max(ineq @ x - np.asarray(ineq_rhs)) > tol:
            continue
        if not any(np.max(np.abs(x - w)) < 1e-7 for w in verts):
            verts.append(x)
    return verts


def cone_rays_float(gen_rows, nonneg_dim, eq_rows=(), tol=1e-9):
    """Extreme rays of {x >= 0 in R^n : Ex = 0}, brute force.

    ``gen_rows`` is unused padding kept for signature clarity; the cone
    is cut out by coordinate nonnegativity plus the equalities.
    """
    dim = nonneg_dim
    eq = (
        np.asarray(eq_rows, dtype=float).reshape(len(eq_rows), -1)
        if len(eq_rows)
        else np.zeros((0, dim))
    )
    rays = []
    # an extreme ray has dim-1 independent active constraints; the
    # equalities are always active, the rest come from x_k = 0
    rank_eq = np.linalg.matrix_rank(eq) if eq.size else 0
    need = dim - 1 - rank_eq
    if need < 0:
        return rays
    for zeros in itertools.combinations(range(dim), need):
        rows = [eq] if eq.size else []
        for k in zeros:
            e = np.zeros(dim)
            e[k] = 1.0
            rows.append(e.reshape(1, -1))
        a = np.vstack(rows) if rows else np.zeros((0, dim))
        if a.size and np.linalg.matrix_rank(a) != dim - 1:
            continue
        # nullspace direction
        _, s, vt = np.linalg.svd(a) if a.size else (None, np.zeros(0), np.eye(dim))
        null = vt[np.sum(s > tol):]
        if null.shape[0] != 1:
            continue
        for sign in (1.0, -1.0):
            x = sign * null[0]
            if np.min(x) > -tol:
                x = np.where(np.abs(x) < tol, 0.0, x)
                if np.max(x) <= 0:
                    continue
                x = x / np.sum(x)
                if not any(np.max(np.abs(x - r)) < 1e-7 for r in rays):
                    rays.append(x)
    return rays


def _fraction_pivot(a, r, col):
    """Scale row ``r`` of the Fraction rows to 1 at ``col`` and clear ``col`` elsewhere."""
    a[r] = [v / a[r][col] for v in a[r]]
    for i in range(len(a)):
        if i != r and a[i][col] != 0:
            f = a[i][col]
            a[i] = [v - f * p for v, p in zip(a[i], a[r])]


def _fraction_rref(rows):
    """Gauss-Jordan copy of ``rows`` over Fractions: (reduced rows, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        _fraction_pivot(a, r, col)
        pivots.append(col)
    return a, pivots


def feasible_nonneg_fraction(a_rows, b):
    """``A x = b, x >= 0`` in Fractions, with the engine's forcing-row presolve.

    A row with ``b_i = 0`` whose nonzero entries share one sign is dropped
    with every column it meets, and ``feasible_nonneg_fraction_unpresolved``
    solves the rest.  ``x`` is zero at the dropped columns.  A Farkas ``y``
    of the rest is extended by ``-t`` on each dropped row, ``t`` on one
    with a negative entry, where ``t`` is the largest ratio, over the
    dropped columns, of what the column pays on the kept rows to the sum
    of its absolute entries on the dropped rows (0 with no such column).
    So the engine's ``x`` and ``y`` can be compared vector for vector.
    """
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b]
    m, n = len(a), len(a[0]) if a else 0
    drop = [
        i for i in range(m)
        if b[i] == 0 and not (any(v > 0 for v in a[i]) and any(v < 0 for v in a[i]))
    ]
    if not drop:
        return feasible_nonneg_fraction_unpresolved(a, b)
    keep = [i for i in range(m) if i not in drop]
    fixed = [j for j in range(n) if any(a[i][j] != 0 for i in drop)]
    cols = [j for j in range(n) if j not in fixed]
    if keep:
        status, v = feasible_nonneg_fraction_unpresolved(
            [[a[i][j] for j in cols] for i in keep], [b[i] for i in keep]
        )
    else:
        status, v = "feasible", [Fraction(0)] * len(cols)
    if status == "feasible":
        x = [Fraction(0)] * n
        for j, xj in zip(cols, v):
            x[j] = xj
        return status, x
    y = dict(zip(keep, v))
    t = max(
        (
            sum((y[i] * a[i][j] for i in keep), Fraction(0))
            / sum(abs(a[i][j]) for i in drop)
            for j in fixed
        ),
        default=Fraction(0),
    )
    for i in drop:
        y[i] = t if any(v < 0 for v in a[i]) else -t
    return status, [y[i] for i in range(m)]


def feasible_nonneg_fraction_unpresolved(a_rows, b):
    """Phase-I simplex for ``A x = b, x >= 0`` on a dense Fraction tableau.

    Artificial basis, Bland's rule, ratio-test ties to the smallest basic
    variable.  Returns ``("feasible", x)`` or ``("infeasible", y)`` with
    the Farkas vector read off the objective row.
    """
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b]
    m, n = len(a), len(a[0]) if a else 0
    flip = [-1 if v < 0 else 1 for v in b]
    tab = [
        [f * v for v in row] + [Fraction(int(k == i)) for k in range(m)] + [f * v]
        for i, (row, v, f) in enumerate(zip(a, b, flip))
    ]
    obj = [sum((row[j] for row in tab), Fraction(0)) for j in range(n + m + 1)]
    for i in range(m):
        obj[n + i] -= 1
    tab.append(obj)
    basis = [n + i for i in range(m)]
    while True:
        entering = next((j for j in range(n + m) if tab[m][j] > 0), None)
        if entering is None:
            break
        rows = [i for i in range(m) if tab[i][entering] > 0]
        leaving = min(rows, key=lambda i: (tab[i][-1] / tab[i][entering], basis[i]))
        _fraction_pivot(tab, leaving, entering)
        basis[leaving] = entering
    if tab[m][-1] > 0:
        return "infeasible", [(tab[m][n + i] + 1) * flip[i] for i in range(m)]
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
    return "feasible", x


def _primitive(vec):
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def polytope_vertices_exact(eq_rows, eq_rhs, ineq_rows, ineq_rhs):
    """Vertices of {x: Ex = f, Gx <= h} by exact basis enumeration.

    Every subset of inequalities that completes the equalities to full
    rank is solved; feasible solutions are kept, first found first.
    """
    n = len(ineq_rows[0]) if ineq_rows else len(eq_rows[0])
    need = n - (len(_fraction_rref(eq_rows)[1]) if eq_rows else 0)
    verts = []
    for subset in itertools.combinations(range(len(ineq_rows)), need):
        rows = list(eq_rows) + [ineq_rows[i] for i in subset]
        rhs = list(eq_rhs) + [ineq_rhs[i] for i in subset]
        aug, pivots = _fraction_rref([list(r) + [b] for r, b in zip(rows, rhs)])
        if pivots != list(range(n)):  # rank short of n, or inconsistent
            continue
        x = [aug[k][n] for k in range(n)]
        if all(
            sum(Fraction(g) * v for g, v in zip(row, x)) <= c
            for row, c in zip(ineq_rows, ineq_rhs)
        ) and x not in verts:
            verts.append(x)
    return verts


def response_vertices_reference(deps, ne):
    """The response candidates of a simplex embedding with ``ne`` effects,
    the unit first, as vertices of a polytope: ``polytope_vertices`` on
    Fraction box rows ``x_k <= 1`` and ``-x_k <= 0`` for each ``k >= 1``,
    with the equalities ``deps . x = 0`` and ``x_unit = 1``."""
    zero, one = Fraction(0), Fraction(1)
    eq_rows = [list(dep) for dep in deps] + [[one] + [zero] * (ne - 1)]
    eq_rhs = [zero] * len(deps) + [one]
    ineq_rows, ineq_rhs = [], []
    for k in range(1, ne):
        for sign, bound in ((one, one), (-one, zero)):
            row = [zero] * ne
            row[k] = sign
            ineq_rows.append(row)
            ineq_rhs.append(bound)
    return polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs)


def cone_extreme_rays_exact(ineq_rows):
    """Extreme rays of the pointed cone {x: Ax >= 0} by exact subset search.

    Each subset of n - 1 rows with a one-dimensional kernel gives a
    direction, kept with the sign that satisfies every row.  Rays are
    primitive integer tuples, first found first.
    """
    n = len(ineq_rows[0])
    rays = []
    for subset in itertools.combinations(range(len(ineq_rows)), n - 1):
        if subset:
            red, pivots = _fraction_rref([ineq_rows[i] for i in subset])
            if len(pivots) != n - 1:
                continue
            free = next(c for c in range(n) if c not in pivots)
            direction = [Fraction(0)] * n
            direction[free] = Fraction(1)
            for row, c in zip(red, pivots):
                direction[c] = -row[free]
        else:
            direction = [Fraction(1)]
        for cand in (direction, [-v for v in direction]):
            if all(
                sum(Fraction(a) * v for a, v in zip(row, cand)) >= 0
                for row in ineq_rows
            ):
                key = _primitive(cand)
                if key not in rays:
                    rays.append(key)
                break
    return rays


def cone_extreme_rays_subsets(ineq_rows, eq_rows=()):
    """Extreme rays of ``{x : A x >= 0, E x = 0}`` for a pointed cone.

    The equalities are solved first: with a nullspace basis ``B`` of
    ``E``, ``x = y B`` and the search runs over ``y`` in ``k = len(B)``
    dimensions.  Every subset of ``k - 1`` inequalities with a
    one-dimensional kernel gives a candidate direction, kept when it
    satisfies all inequalities.  Each ray comes back once, as a primitive
    integer vector, in the order first found.  This is the engine's
    ``cone_extreme_rays`` before it moved to double description, without
    its cap.
    """
    if not ineq_rows:
        return []
    # one scale for the inequalities and equalities, which moves no ray
    rows = _ints([*ineq_rows, *eq_rows])[0]
    a, eqs = rows[: len(ineq_rows)], rows[len(ineq_rows) :]
    n = len(rows[0])
    basis = _kernel(eqs)[1] if eqs else [[int(i == j) for j in range(n)] for i in range(n)]
    k = len(basis)
    if k == 0:
        return []
    reduced = [[_dot(row, vec) for vec in basis] for row in a]
    rays = {}  # primitive ray -> None, in the order first found
    for subset in itertools.combinations(range(len(reduced)), k - 1):
        # with no rows picked (k == 1) the kernel is the whole line
        kernel = _kernel([reduced[i] for i in subset])[1] if subset else [[1]]
        if len(kernel) != 1:
            continue
        for y in (kernel[0], [-v for v in kernel[0]]):
            if all(_dot(row, y) >= 0 for row in reduced):
                x = [_dot(y, col) for col in zip(*basis)]
                g = gcd(*x)
                rays[tuple(v // g for v in x)] = None
                break
    return [[Fraction(v) for v in key] for key in rays]


def matrix_rank(a_rows):
    """Exact rank of the rows, over Fractions."""
    return len(_fraction_rref(a_rows)[1])


# ---------------------------------------------------------------------------
# Simplex embedding, float route


def simplex_pairs_feasible(states, effects, unit, tol=1e-7):
    """Decide the pairing system for simplex embeddability, in floats.

    Same mathematical claim as the engine's exact search: does some
    nonnegative combination of (response vertex) x (distribution ray)
    products reproduce every <effect, state> pairing, with responses
    consistent on linear dependences and paying 1 on the unit?
    """
    st = [np.asarray(w, dtype=float) for w in states]
    ef = [np.asarray(unit, dtype=float)] + [np.asarray(e, dtype=float) for e in effects]
    ne, ns = len(ef), len(st)

    def dependences(vecs):
        a = np.vstack(vecs).T  # columns are the vectors
        _, s, vt = np.linalg.svd(a)
        rank = int(np.sum(s > 1e-10))
        return vt[rank:]

    eq_rows = list(dependences(ef))
    eq_rhs = [0.0] * len(eq_rows)
    row = np.zeros(ne)
    row[0] = 1.0
    eq_rows.append(row)
    eq_rhs.append(1.0)
    ineq_rows, ineq_rhs = [], []
    for k in range(1, ne):
        up = np.zeros(ne)
        up[k] = 1.0
        ineq_rows.append(up)
        ineq_rhs.append(1.0)
        dn = np.zeros(ne)
        dn[k] = -1.0
        ineq_rows.append(dn)
        ineq_rhs.append(0.0)
    responses = polytope_vertices_float(eq_rows, eq_rhs, ineq_rows, ineq_rhs)
    rays = cone_rays_float((), ns, dependences(st))
    if not responses or not rays:
        return False
    cols = []
    for r in responses:
        for d in rays:
            cols.append(np.outer(r, d).reshape(-1))
    a_eq = np.vstack(cols).T
    b_eq = np.array([[float(np.dot(e, w)) for w in st] for e in ef]).reshape(-1)
    res = linprog(
        c=np.zeros(a_eq.shape[1]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * a_eq.shape[1],
        method="highs",
    )
    if not res.success:
        return False
    return bool(np.max(np.abs(a_eq @ res.x - b_eq)) <= tol)


# ---------------------------------------------------------------------------
# Bell scenarios


def deterministic_bell_tables(n_x, n_y, n_a, n_b):
    """All local deterministic tables as tuples, one per strategy pair.

    Rows are contexts (x, y) with y fastest, columns outcomes (a, b)
    with b fastest; entries are exact 0/1 Fractions.
    """
    tables = set()
    for f in itertools.product(range(n_a), repeat=n_x):
        for g in itertools.product(range(n_b), repeat=n_y):
            rows = []
            for x in range(n_x):
                for y in range(n_y):
                    row = [
                        Fraction(1 if (a, b) == (f[x], g[y]) else 0)
                        for a in range(n_a)
                        for b in range(n_b)
                    ]
                    rows.append(tuple(row))
            tables.add(tuple(rows))
    return tables


def _strategy_table(setting_cards, outcome_cards, hit):
    contexts = list(itertools.product(*(range(n) for n in setting_cards)))
    outcomes = list(itertools.product(*(range(n) for n in outcome_cards)))
    return tuple(
        tuple(Fraction(1 if hit(o, c) else 0) for o in outcomes) for c in contexts
    )


def _first_seen(tables):
    return tuple(dict.fromkeys(tables))


def bell_vertex_tables(n_x, n_y, n_a, n_b):
    """Bell local vertices in enumeration order: a = f(x), b = g(y),
    f outermost, each response a tuple over its setting values."""
    return tuple(
        _strategy_table(
            (n_x, n_y), (n_a, n_b), lambda o, c, f=f, g=g: o == (f[c[0]], g[c[1]])
        )
        for f in itertools.product(range(n_a), repeat=n_x)
        for g in itertools.product(range(n_b), repeat=n_y)
    )


def instrumental_vertex_tables(n_x, n_a, n_b):
    """Instrumental local vertices: a = f(x), b = g(a), duplicates
    dropped in first-seen order."""
    return _first_seen(
        _strategy_table(
            (n_x,), (n_a, n_b), lambda o, c, f=f, g=g: o == (f[c[0]], g[f[c[0]]])
        )
        for f in itertools.product(range(n_a), repeat=n_x)
        for g in itertools.product(range(n_b), repeat=n_a)
    )


def prepare_measure_vertex_tables(n_x, n_a, n_y, n_b):
    """Prepare-measure local vertices: a = f(x), b = g(x, y) with g
    indexed row-major, duplicates dropped in first-seen order."""
    return _first_seen(
        _strategy_table(
            (n_x, n_y),
            (n_a, n_b),
            lambda o, c, f=f, g=g: o == (f[c[0]], g[c[0] * n_y + c[1]]),
        )
        for f in itertools.product(range(n_a), repeat=n_x)
        for g in itertools.product(range(n_b), repeat=n_x * n_y)
    )


def fs_compatible_fraction(table, vertex_tables, solve=feasible_nonneg_fraction):
    """Local-polytope membership of an exact table on Fraction vertex vectors.

    The membership LP built from whole vertex tables: one column per
    vertex (flattened row-major), one row per cell plus the all-ones row,
    solved by ``solve`` and re-verified by full Fraction dot products.
    Returns ``("member", weights)`` or ``("nonmember", facet, bound,
    violation)``.
    """
    vecs = [[Fraction(v) for row in vert for v in row] for vert in vertex_tables]
    q = [Fraction(v) for row in table for v in row]
    m = len(q)
    a_rows = [[vec[i] for vec in vecs] for i in range(m)]
    a_rows.append([Fraction(1)] * len(vecs))
    status, payload = solve(a_rows, q + [Fraction(1)])
    if status == "feasible":
        w = tuple(payload)
        recombined = [
            sum((wi * vec[i] for wi, vec in zip(w, vecs)), Fraction(0))
            for i in range(m)
        ]
        assert recombined == q and sum(w) == 1 and all(wi >= 0 for wi in w)
        return "member", w
    facet = tuple(payload[:m])

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v)), Fraction(0))

    bound = max(dot(facet, vec) for vec in vecs)
    violation = dot(facet, q) - bound
    assert violation > 0
    return "nonmember", facet, bound, violation


def rationalize_reference(table, den=10**6):
    """The rows of a float table rounded at denominator ``den`` and renormalized
    in Fractions: each entry becomes ``round(v * den) / den``, a negative
    one 0, and each row is divided by its Fraction total.  This was the body
    of ``nogo.rationalize`` before it moved to integer numerators."""
    rows = []
    for row in table:
        vals = [Fraction(round(float(v) * den), den) for v in row]
        vals = [v if v > 0 else Fraction(0) for v in vals]
        total = sum(vals)
        if total == 0:
            raise ValueError("a context rationalized to zero mass")
        rows.append(tuple(v / total for v in vals))
    return tuple(rows)


def correlation_rows_reference(rows):
    """The rows of an exact table as Fractions, checked context by context
    in Fractions: each entry nonnegative, then the row's Fraction sum equal
    to 1.  This was the exact branch of ``nogo.Correlation.__post_init__``
    before it read each context once as integers."""
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    for row in rows:
        if any(v < 0 for v in row):
            raise ValidationError("negative probability")
        if sum(row) != 1:
            raise ValidationError("a context does not normalize")
    return rows


def chsh_of_table(table, exact=False):
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) for a 4x4 two-bit table."""
    zero = Fraction(0) if exact else 0.0
    total = zero
    for ci, (x, y) in enumerate(itertools.product(range(2), range(2))):
        e = zero
        for oi, (a, b) in enumerate(itertools.product(range(2), range(2))):
            sign = 1 if (a + b) % 2 == 0 else -1
            e += sign * table[ci][oi]
        total += e if (x, y) != (1, 1) else -e
    return total


def born_bell_table(rho, a_effects, b_effects):
    """P(a, b | x, y) = tr(rho (A ox B)) computed with dense numpy.

    ``a_effects[x][a]`` and ``b_effects[y][b]`` are POVM elements as
    nested complex lists; returns a float table in scenario row order.
    """
    rho = np.asarray(rho, dtype=complex)
    rows = []
    for ax in a_effects:
        for by in b_effects:
            row = []
            for ea in ax:
                for eb in by:
                    op = np.kron(np.asarray(ea, complex), np.asarray(eb, complex))
                    row.append(float(np.real(np.trace(rho @ op))))
            rows.append(tuple(row))
    return tuple(rows)


def signalling_gap(table, n_x, n_y, n_a, n_b):
    """Largest deviation between marginals that should not depend on
    the far setting."""
    t = [[float(v) for v in row] for row in table]

    def p(x, y, a, b):
        return t[x * n_y + y][a * n_b + b]

    gap = 0.0
    for x in range(n_x):
        for a in range(n_a):
            vals = [sum(p(x, y, a, b) for b in range(n_b)) for y in range(n_y)]
            gap = max(gap, max(vals) - min(vals))
    for y in range(n_y):
        for b in range(n_b):
            vals = [sum(p(x, y, a, b) for a in range(n_a)) for x in range(n_x)]
            gap = max(gap, max(vals) - min(vals))
    return gap


# ---------------------------------------------------------------------------
# Substochastic algebra on plain data


def mat_apply(entries, weights):
    """Push a weight vector through a matrix given as nested Fractions."""
    return tuple(
        sum((row[c] * weights[c] for c in range(len(weights))), Fraction(0))
        for row in entries
    )


def knowledge_sum(sigma_weights, members):
    """Sum of state weights over an explicit member list."""
    return sum((sigma_weights[x] for x in members), Fraction(0))


def all_functions_raw(dom, cod):
    """Every function dom -> cod as a dict, itertools order."""
    dom = tuple(dom)
    cod = tuple(cod)
    out = []
    for images in itertools.product(cod, repeat=len(dom)):
        out.append(dict(zip(dom, images)))
    return out


def all_partial_functions_raw(dom, cod):
    """Every partial function dom -> cod as a dict missing undefined points."""
    dom = tuple(dom)
    cod = tuple(cod)
    out = []
    for images in itertools.product((None,) + cod, repeat=len(dom)):
        out.append({x: y for x, y in zip(dom, images) if y is not None})
    return out


def lp_feasible_float(a_rows, b, tol=1e-8):
    """Float reference for 'does A x = b admit x >= 0'."""
    a = np.asarray(a_rows, dtype=float)
    res = linprog(
        c=np.zeros(a.shape[1]),
        A_eq=a,
        b_eq=np.asarray(b, dtype=float),
        bounds=[(0, None)] * a.shape[1],
        method="highs",
    )
    return bool(res.success and np.max(np.abs(a @ res.x - np.asarray(b, float))) < tol)


# ---------------------------------------------------------------------------
# Tensor-network contraction on Fractions


def _fraction_eye(n):
    m = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        m[i, i] = Fraction(1)
    return m


def contract_fractions(diagram, box_tensor, wire_size):
    """Contract a diagram with object-dtype Fraction tensordot.

    The reference for the engine's scaled-integer contraction: the same
    greedy pairwise order, but every entry is a Fraction.  ``diagram``
    needs ``wires``, ``boxes`` (with ``ins`` and ``outs``),
    ``input_types`` and ``output_types``; ``box_tensor(box)`` returns an
    object array of Fractions with output axes first.  The result has
    output boundary axes first, then input axes, each in boundary order.
    """
    labels = itertools.count()
    open_in = [None] * len(diagram.input_types)
    open_out = [None] * len(diagram.output_types)
    out_label = {}
    in_label = {}
    nodes = []
    for src, dst in diagram.wires:
        if src[0] == "in" and dst[0] == "out":
            a, b = next(labels), next(labels)
            open_out[dst[1]] = a
            open_in[src[1]] = b
            nodes.append([_fraction_eye(wire_size(diagram.input_types[src[1]])), [a, b]])
            continue
        lab = next(labels)
        if src[0] == "in":
            open_in[src[1]] = lab
        else:
            out_label[(src[1], src[2])] = lab
        if dst[0] == "out":
            open_out[dst[1]] = lab
        else:
            in_label[(dst[1], dst[2])] = lab
    for b, box in enumerate(diagram.boxes):
        names = [out_label[(b, j)] for j in range(len(box.outs))]
        names += [in_label[(b, i)] for i in range(len(box.ins))]
        nodes.append([np.asarray(box_tensor(box), dtype=object), names])
    while len(nodes) > 1:
        best = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                (ai, li), (aj, lj) = nodes[i], nodes[j]
                shared = set(li) & set(lj)
                cut = 1
                for k, lab in enumerate(li):
                    if lab in shared:
                        cut *= ai.shape[k]
                score = (0 if shared else 1, (ai.size // cut) * (aj.size // cut))
                if best is None or score < best[0]:
                    best = (score, i, j, shared)
        _, i, j, shared = best
        (ai, li), (aj, lj) = nodes[i], nodes[j]
        common = sorted(shared)
        merged = np.tensordot(
            ai, aj, axes=([li.index(s) for s in common], [lj.index(s) for s in common])
        )
        names = [s for s in li if s not in shared] + [s for s in lj if s not in shared]
        nodes[j] = nodes[-1]
        nodes.pop()
        nodes[i] = [merged, names]
    if not nodes:
        return np.full((), Fraction(1), dtype=object)
    arr, names = nodes[0]
    return arr.transpose([names.index(lab) for lab in open_out + open_in])


# ---------------------------------------------------------------------------
# Quantum procedure tensors


def _vec_axes(block, out_dims, in_dims):
    """(Do,Do,Di,Di) superoperator block to per-register d*d axes."""
    shape = tuple(out_dims) * 2 + tuple(in_dims) * 2
    t = block.reshape(shape)
    p, q = len(out_dims), len(in_dims)
    perm = []
    for a in range(p):
        perm += [a, a + p]
    for b in range(q):
        perm += [2 * p + b, 2 * p + q + b]
    t = t.transpose(perm)
    return t.reshape(tuple(d * d for d in out_dims) + tuple(d * d for d in in_dims))


def proc_tensor_reference(decl):
    """The engine's former ``optheory._proc_tensor``: one (Do, Do, Di, Di)
    block per classical branch, permuted to per-register d*d axes.

    ``decl`` needs ``outs``, ``ins`` (types with ``classical`` and
    ``carrier``, a quantum carrier with ``dim``) and ``channel.kraus``.
    """

    def axis(t):
        return len(t.carrier) if t.classical else t.carrier.dim**2

    ch = decl.channel
    out_axes = tuple(axis(t) for t in decl.outs)
    in_axes = tuple(axis(t) for t in decl.ins)
    q_out = tuple(t.carrier.dim for t in decl.outs if not t.classical)
    q_in = tuple(t.carrier.dim for t in decl.ins if not t.classical)
    d_out = math.prod(q_out)
    d_in = math.prod(q_in)
    arr = np.zeros(out_axes + in_axes, dtype=complex)
    for (c_out, c_in), mats in ch.kraus.items():
        block = np.zeros((d_out, d_out, d_in, d_in), dtype=complex)
        for m in mats:
            block += np.einsum("im,jn->ijmn", m, m.conj())
        vecd = _vec_axes(block, q_out, q_in)
        idx = []
        ci = iter(c_out)
        for t in decl.outs:
            idx.append(t.carrier.index(next(ci)) if t.classical else slice(None))
        ci = iter(c_in)
        for t in decl.ins:
            idx.append(t.carrier.index(next(ci)) if t.classical else slice(None))
        arr[tuple(idx)] = vecd
    return arr


# ---------------------------------------------------------------------------
# Diagram equality by brute force


def diagrams_isomorphic(a, b):
    """Does some renumbering of ``a``'s boxes give ``b``, boundary fixed?

    Tries every permutation of the boxes.  Boxes match on name and port
    types (the payload is ignored, as in ``Box`` equality), and the
    renumbered wires must be exactly ``b``'s.  At most seven boxes.
    """
    n = len(a.boxes)
    if n > 7:
        raise ValueError("brute-force isomorphism is limited to seven boxes")
    if (a.input_types, a.output_types, n) != (b.input_types, b.output_types, len(b.boxes)):
        return False
    sig_a = [(box.name, box.ins, box.outs) for box in a.boxes]
    sig_b = [(box.name, box.ins, box.outs) for box in b.boxes]
    target = set(b.wires)
    for perm in itertools.permutations(range(n)):
        if any(sig_a[i] != sig_b[perm[i]] for i in range(n)):
            continue

        def moved(end):
            return ("box", perm[end[1]], end[2]) if end[0] == "box" else end

        if {(moved(src), moved(dst)) for src, dst in a.wires} == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Joins of whole diagrams, with the wire ends renumbered by hand


def _shift_end(end, box_shift, in_shift=0, out_shift=0):
    if end[0] == "box":
        return ("box", end[1] + box_shift, end[2])
    if end[0] == "in":
        return ("in", end[1] + in_shift)
    return ("out", end[1] + out_shift)


def compose_sequential_reference(first, second):
    """Feed the outputs of ``first`` into the inputs of ``second``."""
    if first.output_types != second.input_types:
        raise TypeMismatch(
            "sequential composition joins "
            f"{len(first.output_types)} outputs to {len(second.input_types)} "
            "inputs of different types"
        )
    shift = len(first.boxes)
    produced = {}
    kept = []
    for src, dst in first.wires:
        if dst[0] == "out":
            produced[dst[1]] = src
        else:
            kept.append((src, dst))
    consumed = {}
    for src, dst in second.wires:
        src2 = _shift_end(src, shift)
        dst2 = _shift_end(dst, shift)
        if src[0] == "in":
            consumed[src[1]] = dst2
        else:
            kept.append((src2, dst2))
    for k, src in produced.items():
        kept.append((src, consumed[k]))
    return Diagram(
        first.boxes + second.boxes,
        tuple(kept),
        first.input_types,
        second.output_types,
    )


def compose_parallel_reference(left, right):
    """Place two diagrams side by side; boundaries concatenate in order."""
    shift = len(left.boxes)
    in_shift = len(left.input_types)
    out_shift = len(left.output_types)
    wires = list(left.wires)
    for src, dst in right.wires:
        wires.append(
            (
                _shift_end(src, shift, in_shift, out_shift),
                _shift_end(dst, shift, in_shift, out_shift),
            )
        )
    return Diagram(
        left.boxes + right.boxes,
        tuple(wires),
        left.input_types + right.input_types,
        left.output_types + right.output_types,
    )


def close_boundary_reference(d, sources, sinks):
    """Cap every boundary port; the boxes of ``d`` come first, then the
    sources, then the sinks."""
    sources = tuple(sources)
    sinks = tuple(sinks)
    if len(sources) != len(d.input_types) or len(sinks) != len(d.output_types):
        raise SignatureMismatch("one source per input and one sink per output")
    boxes = list(d.boxes)
    src_idx = []
    for k, box in enumerate(sources):
        if box.ins != () or box.outs != (d.input_types[k],):
            raise SignatureMismatch(f"source {k} does not produce the boundary type")
        boxes.append(box)
        src_idx.append(len(boxes) - 1)
    sink_idx = []
    for k, box in enumerate(sinks):
        if box.outs != () or box.ins != (d.output_types[k],):
            raise SignatureMismatch(f"sink {k} does not consume the boundary type")
        boxes.append(box)
        sink_idx.append(len(boxes) - 1)
    wires = []
    for src, dst in d.wires:
        if src[0] == "in":
            src = ("box", src_idx[src[1]], 0)
        if dst[0] == "out":
            dst = ("box", sink_idx[dst[1]], 0)
        wires.append((src, dst))
    return Diagram(tuple(boxes), tuple(wires), (), ())


def bell_template_reference(pm):
    """The two-wing common-cause diagram with open setting wires, its
    eight inner wires numbered by hand."""
    sources = [d for d in pm.decls if not d.ins and len(d.outs) == 2]
    if len(sources) != 1:
        raise ConfigError("the model needs exactly one two-output source")
    src_decl = sources[0]
    q_a, q_b = src_decl.outs
    wing_a_outs = {d.outs for d in pm.decls if d.ins == (q_a,) and len(d.outs) == 1}
    wing_b_outs = {d.outs for d in pm.decls if d.ins == (q_b,) and len(d.outs) == 1}
    if len(wing_a_outs) != 1 or len(wing_b_outs) != 1:
        raise ConfigError("each wing needs one measurement signature")
    (out_a,) = next(iter(wing_a_outs))
    (out_b,) = next(iter(wing_b_outs))

    src = procedure_box(pm, src_decl.name, "source")
    kb_a = op_knowledge_box(pm, (q_a,), (out_a,), name="wing A")
    kb_b = op_knowledge_box(pm, (q_b,), (out_b,), name="wing B")
    pg_a = prop_gain(out_a, name="learn a")
    pg_b = prop_gain(out_b, name="learn b")
    ig_a = ignore(out_a, name="drop a")
    ig_b = ignore(out_b, name="drop b")
    boxes = (src, kb_a, kb_b, pg_a, pg_b, ig_a, ig_b)
    wires = (
        (("in", 0), ("box", 1, 0)),
        (("in", 1), ("box", 2, 0)),
        (("box", 0, 0), ("box", 1, 1)),
        (("box", 0, 1), ("box", 2, 1)),
        (("box", 1, 0), ("box", 3, 0)),
        (("box", 2, 0), ("box", 4, 0)),
        (("box", 3, 0), ("box", 5, 0)),
        (("box", 4, 0), ("box", 6, 0)),
    )
    return Diagram(
        boxes,
        wires
        + ((("box", 3, 1), ("out", 0)), (("box", 4, 1), ("out", 1))),
        (kb_a.ins[0], kb_b.ins[0]),
        (pg_a.outs[1], pg_b.outs[1]),
    )


# ---------------------------------------------------------------------------
# Realist images, wired box by box through port maps


def apply_representation_reference(rep, d_op):
    """The realist image of an operational diagram, its boxes in the
    order of ``d_op``'s: each box's image is appended and its ports
    recorded in ``in_map``/``out_map``, then ``d_op``'s wires are
    re-pointed through those maps."""
    new_boxes = []
    wires = []
    in_map = {}
    out_map = {}

    def add(box):
        new_boxes.append(box)
        return len(new_boxes) - 1

    for b, box in enumerate(d_op.boxes):
        p = box.payload
        if isinstance(p, (OpKnowledge, OpProc)):
            fixed = isinstance(p, OpProc)
            causal_ins = box.ins if fixed else box.ins[1:]
            m = rep.xi.get((causal_ins, box.outs))
            if m is None:
                ins = ", ".join(f"{t.kind} {t.carrier}" for t in causal_ins)
                outs = ", ".join(f"{t.kind} {t.carrier}" for t in box.outs)
                raise MissingXi(
                    f"no xi entry for the signature [{ins}] -> [{outs}] of box {box.name!r}"
                )
            if fixed and p.name not in m.dom:
                raise CarrierMismatch(
                    f"xi domain does not list procedure {p.name!r}"
                )
            if not fixed and m.dom != box.ins[0].carrier:
                raise CarrierMismatch(
                    "xi domain must equal the procedure alphabet"
                )
            ins_img = tuple(rep.image(t) for t in causal_ins)
            outs_img = tuple(rep.image(t) for t in box.outs)
            if fixed:
                pt = add(
                    state_box(point_state(m.dom, p.name), name=f"[{p.name}]")
                )
            ad = add(
                embedded(
                    m,
                    in_types=(inferential_system(m.dom) if fixed else box.ins[0],),
                    out_types=(hom_system(ins_img, outs_img),),
                    name="xi",
                )
            )
            idx = add(knowledge_box(ins_img, outs_img))
            if fixed:
                wires.append((("box", pt, 0), ("box", ad, 0)))
            wires.append((("box", ad, 0), ("box", idx, 0)))
            ports = [] if fixed else [("box", ad, 0)]
            ports += [("box", idx, i + 1) for i in range(len(causal_ins))]
        else:
            if isinstance(p, (GenPropGain, GenEmbedded)):
                idx = add(box)
            elif isinstance(p, GenIgnore):
                idx = add(ignore(rep.image(p.system)))
            else:
                raise TypeMismatch(
                    f"box {box.name!r} is not a representable operational generator"
                )
            ports = [("box", idx, i) for i in range(len(box.ins))]
        in_map.update(((b, i), port) for i, port in enumerate(ports))
        out_map.update(((b, j), ("box", idx, j)) for j in range(len(box.outs)))

    for src, dst in d_op.wires:
        nsrc = src if src[0] == "in" else out_map[(src[1], src[2])]
        ndst = dst if dst[0] == "out" else in_map[(dst[1], dst[2])]
        wires.append((nsrc, ndst))
    return Diagram(
        tuple(new_boxes),
        tuple(wires),
        tuple(rep.image(t) for t in d_op.input_types),
        tuple(rep.image(t) for t in d_op.output_types),
    )


# ---------------------------------------------------------------------------
# Realist generator tensors, built afresh on every call


def knowledge_array_reference(n_in, n_out):
    """Evaluation of hom codes over carriers of sizes n_in -> n_out, axes
    (output, hom code, input); hom code h sends input x to its base-n_out
    digit x, most significant first."""
    count = n_out**n_in
    h, x = np.indices((count, n_in))
    arr = np.zeros((n_out, count, n_in), dtype=np.int64)
    arr[h // n_out ** (n_in - 1 - x) % n_out, h, x] = 1
    return arr


def prop_gain_array_reference(n):
    """Copy of a size-n system onto a record: axes (system, record, system)."""
    arr = np.zeros((n, n, n), dtype=np.int64)
    arr[np.arange(n), np.arange(n), np.arange(n)] = 1
    return arr


def ignore_array_reference(n):
    return np.ones(n, dtype=np.int64)


# ---------------------------------------------------------------------------
# The ci-engine/1 scanner, written as a character loop


class ReferenceParseError(Exception):
    """A syntax error of ``tokenize_reference``: message, line, column."""

    def __init__(self, message, line, column):
        super().__init__(message, line, column)
        self.message = message
        self.line = line
        self.column = column


_REF_PUNCT = "{}[]:,"
_REF_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REF_WORD_BODY = _REF_WORD_START | set("0123456789+-")
_REF_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def tokenize_reference(text, first_line):
    """Tokens of a ``ci-engine/1`` body as (kind, value, line, col) tuples.

    A character-by-character scanner, kept as the reference for the
    engine's regular-expression scanner.  It differs from the engine on
    purpose in three places: it lets ``str.isdigit`` digits that are not
    ASCII through (where ``int`` may then raise), it does not advance
    the column inside a comment, and it reads the four characters after
    ``\\u`` with ``int(..., 16)``, which accepts signs, spaces and
    underscores.  Float literals that overflow come back as inf.
    """
    tokens = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _REF_PUNCT:
            tokens.append((ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            parts = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ReferenceParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ReferenceParseError("unterminated string", start_line, start_col)
                    esc = text[i + 1]
                    if esc == "u":
                        hexpart = text[i + 2 : i + 6]
                        if len(hexpart) < 4:
                            raise ReferenceParseError("bad unicode escape", line, col)
                        try:
                            parts.append(chr(int(hexpart, 16)))
                        except ValueError:
                            raise ReferenceParseError("bad unicode escape", line, col) from None
                        i += 6
                        col += 6
                        continue
                    if esc not in _REF_ESCAPES:
                        raise ReferenceParseError(f"bad escape '\\{esc}'", line, col)
                    parts.append(_REF_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            tokens.append(("str", "".join(parts), start_line, start_col))
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1 if ch == "-" else i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ReferenceParseError("expected digits after '/'", line, col)
                num, den = int(text[i:j]), int(text[j + 1 : k])
                if den == 0:
                    raise ReferenceParseError("zero denominator", start_line, start_col)
                tokens.append(("num", Fraction(num, den), start_line, start_col))
                col += k - i
                i = k
                continue
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            value = float(lexeme) if is_float else int(lexeme)
            tokens.append(("num", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _REF_WORD_START:
            j = i
            while j < n and text[j] in _REF_WORD_BODY:
                j += 1
            word = text[i:j]
            if word == "true":
                tokens.append(("bool", True, start_line, start_col))
            elif word == "false":
                tokens.append(("bool", False, start_line, start_col))
            else:
                tokens.append(("word", word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ReferenceParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# The ci-engine/1 reader as a token list and a recursive parser

_REF_TOKEN = re.compile(
    r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<punct>[{}\[\]:,])
  | (?P<word>[A-Za-z_][A-Za-z0-9_+-]*)
  | (?P<num>-?[0-9]+(?:/[0-9]*|(?P<float>(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)))
  | (?P<str>"(?:[^"\\\n]|\\(?:["\\nt]|u[0-9a-fA-F]{4}))*(?P<close>"?))
  | (?P<bad>.)
    """,
    re.VERBOSE,
)
_REF_UNICODE_ESCAPE = re.compile(r"\\(?:u(....)|(.))")
_REF_BOOLS = {"true": True, "false": False}
_REF_MAX_DEPTH = 100


def _ref_unescape(m):
    hexpart, esc = m.groups()
    return _REF_ESCAPES[esc] if hexpart is None else chr(int(hexpart, 16))


def _ref_scan(text, first_line):
    """Tokens of ``text`` as (kind, value, line, col), ending with ``eof``,
    a line counter kept across every match."""
    tokens = []
    line, line_start = first_line, 0
    for m in _REF_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        col = m.start() - line_start + 1
        lexeme = m.group()
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "punct":
            tokens.append((lexeme, lexeme, line, col))
        elif kind == "word":
            if lexeme in _REF_BOOLS:
                tokens.append(("bool", _REF_BOOLS[lexeme], line, col))
            else:
                tokens.append(("word", lexeme, line, col))
        elif kind == "num":
            num, slash, den = lexeme.partition("/")
            if slash and not den:
                raise ParseError("expected digits after '/'", line, col)
            is_float = m.group("float")
            try:
                if slash:
                    value = Fraction(int(num), int(den))
                else:
                    value = float(num) if is_float else int(num)
            except ZeroDivisionError:
                raise ParseError("zero denominator", line, col) from None
            except ValueError:
                raise ParseError("number out of range", line, col) from None
            if is_float and math.isinf(value):
                raise ParseError("number out of range", line, col)
            tokens.append(("num", value, line, col))
        elif kind == "str":
            if not m.group("close"):
                rest = text[m.end() : m.end() + 2]
                if rest in ("", "\\") or rest[0] == "\n":
                    raise ParseError("unterminated string", line, col)
                col += m.end() - m.start()
                if rest == "\\u":
                    raise ParseError("bad unicode escape", line, col)
                raise ParseError(f"bad escape '{rest}'", line, col)
            body = lexeme[1:-1]
            if "\\" in body:
                body = _REF_UNICODE_ESCAPE.sub(_ref_unescape, body)
            tokens.append(("str", body, line, col))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    tokens.append(("eof", None, line, len(text) - line_start + 1))
    return tokens


def _ref_parse(tokens, pos, locs, depth=0):
    kind, value, line, col = tokens[pos]
    pos += 1
    if kind in ("num", "bool", "str", "word"):
        return value, pos
    if kind not in ("{", "["):
        raise ParseError(f"unexpected {kind!r}", line, col)
    if depth == _REF_MAX_DEPTH:
        raise ParseError(f"nesting deeper than {_REF_MAX_DEPTH}", line, col)
    is_rec = kind == "{"
    close = "}" if is_rec else "]"
    out = {} if is_rec else []
    locs[id(out)] = (line, col)
    while True:
        next_kind, key, key_line, key_col = tokens[pos]
        if next_kind == close:
            return out, pos + 1
        if next_kind == "eof":
            raise ParseError(f"unclosed {kind!r}", line, col)
        if is_rec:
            if next_kind not in ("word", "str"):
                raise ParseError("expected a field name", key_line, key_col)
            colon, _, colon_line, colon_col = tokens[pos + 1]
            if colon != ":":
                raise ParseError("expected ':' after field name", colon_line, colon_col)
            if key in out:
                raise ParseError(f"duplicate field {key!r}", key_line, key_col)
            out[key], pos = _ref_parse(tokens, pos + 2, locs, depth + 1)
        else:
            item, pos = _ref_parse(tokens, pos, locs, depth + 1)
            out.append(item)
        if tokens[pos][0] == ",":
            pos += 1


def loads_reference(text):
    """A ``ci-engine/1`` file as (kind, value, {id: (line, col)}).

    The engine's reader as it was before it read the file in one regular
    expression pass: every whitespace run and newline is a match, each
    token carries its line and column, and the parser takes one call per
    value.  Errors are the engine's ``ParseError``, and the header is read
    by the engine's own ``_split_header``.
    """
    kind, body, first_line = _split_header(text)
    tokens = _ref_scan(body, first_line)
    locs = {}
    value, pos = _ref_parse(tokens, 0, locs)
    tail, _, line, col = tokens[pos]
    if tail != "eof":
        raise ParseError("content after the top-level value", line, col)
    return kind, value, locs
