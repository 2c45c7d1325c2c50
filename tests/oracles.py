"""Independent reference computations used to cross-check the engine.

Everything here is implemented from scratch on plain Python data
(nested lists, Fractions, numpy arrays) without importing ci_engine, so
agreement between an oracle and the engine is evidence rather than a
tautology.  Floating point routines use scipy's HiGGS-backed linprog;
exact routines use Fraction arithmetic directly.
"""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np
from scipy.optimize import linprog

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
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * p for v, p in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


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
