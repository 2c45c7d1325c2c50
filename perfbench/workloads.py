"""The benchmark's workloads: seeded inputs, operations and checks.

Each ``build_<workload>(seed, root, workdir)`` returns a ``Workload``: the fixed,
ordered list of operations that makes up one round, and checks that run
once after the timed phase.  Every operation carries a check that compares
its output with something this file computes on its own (a matrix product,
a Born-rule table, an enumeration of deterministic tables) or with a
property the output must have.  The engine is only ever called through its
public module functions.
"""

import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from ci_engine import cli, fileformat, fstheory, nogo, substoch
from ci_engine.diagrams import (
    Diagram,
    causal_system,
    compose_parallel,
    compose_sequential,
    from_box,
)

F = Fraction


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own computation."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    run: object  # () -> result
    check: object  # (result) -> None, raises CheckFailed


@dataclass
class Workload:
    ops: list
    final_checks: list = field(default_factory=list)  # (name, () -> None)
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers: functions as tables, hom codes, 0/1 matrices


def hom_code(table, cod_size):
    """Positional code of a function table, first domain element most
    significant (the documented ``ci-engine`` hom-set order)."""
    code = 0
    for image in table:
        code = code * cod_size + image
    return code


def function_matrix(table, cod_size):
    """The 0/1 matrix (rows: codomain) of the function ``x -> table[x]``."""
    return tuple(
        tuple(F(1) if table[x] == r else F(0) for x in range(len(table)))
        for r in range(cod_size)
    )


def matmul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


def kron(a, b):
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(len(b))
    )


def random_substochastic(rng, rows, cols, den=12):
    """Columns of small-denominator rationals summing to at most 1."""
    grid = [[F(0)] * cols for _ in range(rows)]
    for c in range(cols):
        budget = den - rng.randrange(0, 3)
        cuts = sorted(rng.randrange(0, budget + 1) for _ in range(rows - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        for r in range(rows):
            grid[r][c] = F(parts[r], den)
    return tuple(tuple(row) for row in grid)


# ---------------------------------------------------------------------------
# axioms


AXIOM_CALLS_PER_ROUND = 3
AXIOM_CARRIER = 2


def _check_axiom_report(report):
    expect(report.max_carrier == AXIOM_CARRIER, "report for the wrong carrier bound")
    names = [name for name, _, _ in report.results]
    expect(len(names) == 11 and len(set(names)) == 11, f"expected 11 named axioms, got {names}")
    failed = [name for name, passed, _ in report.results if not passed]
    expect(not failed, f"axioms failed: {failed}")
    expect(report.ok, "report not ok although every axiom passed")


def _check_quick_tour():
    """The README's quick-tour diagram denotes the doubly uniform matrix:
    an even mixture of the two constant functions on a bit."""
    bit = causal_system((0, 1))
    kb = fstheory.knowledge_box((bit,), (bit,))
    weights = {hom_code((0, 0), 2): F(1, 2), hom_code((1, 1), 2): F(1, 2)}
    half = substoch.KnowledgeState(
        (0, 1, 2, 3), tuple(weights.get(h, F(0)) for h in range(4))
    )
    d = Diagram(
        boxes=(fstheory.state_box(half), kb),
        wires=(
            (("box", 0, 0), ("box", 1, 0)),
            (("in", 0), ("box", 1, 1)),
            (("box", 1, 0), ("out", 0)),
        ),
        input_types=(bit,),
        output_types=(bit,),
    )
    want = [[F(0), F(0)], [F(0), F(0)]]
    for table in ((0, 0), (1, 1)):
        m = function_matrix(table, 2)
        for r in range(2):
            for c in range(2):
                want[r][c] += weights[hom_code(table, 2)] * m[r][c]
    got = fstheory.denote(d).entries
    expect(got == tuple(map(tuple, want)), f"quick tour denotes {got}")


def _check_knowledge_composition(seed, pairs=4):
    """Two knowledge boxes in sequence, fed point states for f and g on
    their hom wires, denote the 0/1 matrix of g after f."""
    rng = random.Random(seed)
    a, b, c = causal_system((0, 1, 2)), causal_system((0, 1)), causal_system((0, 1, 2))
    kb1 = fstheory.knowledge_box((a,), (b,))
    kb2 = fstheory.knowledge_box((b,), (c,))
    for _ in range(pairs):
        f = tuple(rng.randrange(2) for _ in range(3))
        g = tuple(rng.randrange(3) for _ in range(2))
        s1 = fstheory.state_box(substoch.point_state(kb1.ins[0].carrier, hom_code(f, 2)))
        s2 = fstheory.state_box(substoch.point_state(kb2.ins[0].carrier, hom_code(g, 3)))
        d = Diagram(
            boxes=(s1, kb1, s2, kb2),
            wires=(
                (("box", 0, 0), ("box", 1, 0)),
                (("in", 0), ("box", 1, 1)),
                (("box", 2, 0), ("box", 3, 0)),
                (("box", 1, 0), ("box", 3, 1)),
                (("box", 3, 0), ("out", 0)),
            ),
            input_types=(a,),
            output_types=(c,),
        )
        want = function_matrix(tuple(g[f[x]] for x in range(3)), 3)
        got = fstheory.denote(d).entries
        expect(got == want, f"g.f with f={f}, g={g} denotes {got}")


def build_axioms(seed, root, workdir):
    rng = random.Random(seed)
    ops = []
    for _ in range(AXIOM_CALLS_PER_ROUND):
        s = rng.randrange(2**31)
        ops.append(
            Op(
                f"verify_fs_axioms({AXIOM_CARRIER}, seed={s})",
                lambda s=s: fstheory.verify_fs_axioms(AXIOM_CARRIER, seed=s),
                _check_axiom_report,
            )
        )
    return Workload(
        ops,
        [
            ("quick-tour denotation", _check_quick_tour),
            ("knowledge-box composition", lambda: _check_knowledge_composition(seed)),
        ],
    )


# ---------------------------------------------------------------------------
# Bell tables


class BellOracle:
    """Deterministic tables of a Bell scenario, enumerated here.

    Order follows the documented strategy order (a = f(x) outer, b = g(y)
    inner, both in lexicographic order), so membership weights can be
    matched one to one.
    """

    def __init__(self, cards):
        self.n_x, self.n_y, self.n_a, self.n_b = cards
        self.contexts = list(product(range(self.n_x), range(self.n_y)))
        self.outcomes = list(product(range(self.n_a), range(self.n_b)))
        self.vertices = []
        for f in product(range(self.n_a), repeat=self.n_x):
            for g in product(range(self.n_b), repeat=self.n_y):
                self.vertices.append(
                    tuple(
                        1 if (a, b) == (f[x], g[y]) else 0
                        for (x, y) in self.contexts
                        for (a, b) in self.outcomes
                    )
                )

    def max_chsh(self, table):
        """Largest of the eight CHSH forms over every 2x2 block of settings,
        outcomes coarse-grained as ``a == a0`` against the rest."""
        best = -math.inf
        idx = {ctx: i for i, ctx in enumerate(self.contexts)}
        for x0, x1 in _pairs(self.n_x):
            for y0, y1 in _pairs(self.n_y):
                for a0 in range(self.n_a):
                    for b0 in range(self.n_b):
                        e = {}
                        for xi, x in enumerate((x0, x1)):
                            for yi, y in enumerate((y0, y1)):
                                row = table[idx[(x, y)]]
                                e[xi, yi] = sum(
                                    (v if ((a == a0) == (b == b0)) else -v)
                                    for (a, b), v in zip(self.outcomes, row)
                                )
                        for neg in e:
                            for sign in (1, -1):
                                total = sum(v if k != neg else -v for k, v in e.items())
                                best = max(best, sign * total)
        return best


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i < j]


def _local_mixture(rng, oracle, terms=3):
    """Exact mixture of ``terms`` distinct deterministic tables with small
    weights.  A fixed number of terms keeps the LP's work alike across
    seeds."""
    k = terms
    picks = rng.sample(range(len(oracle.vertices)), k)
    w = [rng.randint(1, 9) for _ in range(k)]
    total = sum(w)
    vec = [F(0)] * len(oracle.vertices[0])
    for p, wi in zip(picks, w):
        for i, v in enumerate(oracle.vertices[p]):
            if v:
                vec[i] += F(wi, total)
    return vec


def _pr_on_block(rng, oracle):
    """A PR box on a 2x2 block of settings and outcomes, mixed with a local
    table at weight at most 3/10: the block's CHSH value is then at least
    6*0.7 - 2 > 2, so the table is nonlocal."""
    lam = F(rng.randint(70, 100), 100)
    local = _local_mixture(rng, oracle)
    x0, x1 = rng.sample(range(oracle.n_x), 2)
    y0, y1 = rng.sample(range(oracle.n_y), 2)
    sig = {x: rng.randrange(2) for x in range(oracle.n_x)}
    sig[x0], sig[x1] = 0, 1
    tau = {y: rng.randrange(2) for y in range(oracle.n_y)}
    tau[y0], tau[y1] = 0, 1
    a_pair = rng.sample(range(oracle.n_a), 2)
    b_pair = rng.sample(range(oracle.n_b), 2)
    vec = []
    for ci, (x, y) in enumerate(oracle.contexts):
        for oi, (a, b) in enumerate(oracle.outcomes):
            pr = F(0)
            if a in a_pair and b in b_pair:
                if (a_pair.index(a) ^ b_pair.index(b)) == (sig[x] & tau[y]):
                    pr = F(1, 2)
            vec.append(lam * pr + (1 - lam) * local[ci * len(oracle.outcomes) + oi])
    return vec


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# rationalize() rounds each entry to 1e-6 and renormalizes its context;
# each entry then moves by at most 2.5e-6, so a CHSH form over 16 entries
# moves by at most 4e-5.
CHSH_RADIUS = 4e-5
ROUNDING = 2.5e-6


def _projective(n):
    s = sum(c * p for c, p in zip(n, _PAULI))
    return [(np.eye(2) + s) / 2, (np.eye(2) - s) / 2]


def _unit(rng3):
    return rng3 / np.linalg.norm(rng3)


def _rotate(n, angle, axis):
    axis = _unit(axis)
    return (
        n * math.cos(angle)
        + np.cross(axis, n) * math.sin(angle)
        + axis * np.dot(axis, n) * (1 - math.cos(angle))
    )


def _born_table(rho, meas_a, meas_b, oracle):
    return [
        [
            float(np.real(np.trace(rho @ np.kron(meas_a[x][a], meas_b[y][b]))))
            for (a, b) in oracle.outcomes
        ]
        for (x, y) in oracle.contexts
    ]


def _float_model(nrng, oracle):
    """A noisy two-qubit singlet with near-optimal CHSH settings on one 2x2
    block (perturbed at random) and random projective settings elsewhere."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    vis = nrng.uniform(0.8, 1.0)
    rho = vis * np.outer(psi, psi.conj()) + (1 - vis) * np.eye(4) / 4
    plane = _unit(nrng.normal(size=3))
    base = _unit(np.cross(plane, nrng.normal(size=3)))

    def angle_dir(t):
        return _rotate(base, t + nrng.normal(scale=0.15), plane)

    dirs_a = [angle_dir(0.0), angle_dir(math.pi / 2)]
    dirs_b = [angle_dir(math.pi / 4), angle_dir(-math.pi / 4)]
    dirs_a += [_unit(nrng.normal(size=3)) for _ in range(oracle.n_x - 2)]
    dirs_b += [_unit(nrng.normal(size=3)) for _ in range(oracle.n_y - 2)]
    # singlet: E(a, b) = -a.b, so flip wing B's outcome labels
    meas_a = [_projective(n) for n in dirs_a]
    meas_b = [_projective(-n) for n in dirs_b]
    return rho, meas_a, meas_b


def _float_table(nrng, oracle, scenario, stats):
    """Born table of a seeded two-qubit model, kept only when a CHSH form
    exceeds 2 by more than the rounding radius (see the FOUND note in the
    README on local float tables)."""
    while True:
        rho, meas_a, meas_b = _float_model(nrng, oracle)
        corr = nogo.quantum_correlations(rho, (meas_a, meas_b), scenario)
        own = _born_table(rho, meas_a, meas_b, oracle)
        gap = max(abs(u - v) for ru, rv in zip(corr.table, own) for u, v in zip(ru, rv))
        expect(gap <= 1e-9, f"Born table differs from numpy by {gap}")
        if oracle.max_chsh(corr.table) > 2 + CHSH_RADIUS:
            return corr
        stats["float_redraws"] = stats.get("float_redraws", 0) + 1


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def check_membership(verdict, corr, oracle, want):
    """Check a Member/NonMember verdict on ``corr`` with this file's own
    enumeration; ``want`` is "member" or "nonmember"."""
    q = [v for row in verdict.correlation.table for v in row]
    if corr.is_exact:
        expect(q == [v for row in corr.table for v in row], "verdict is about another table")
    else:
        moved = max(
            abs(float(a) - b) for a, b in zip(q, (v for row in corr.table for v in row))
        )
        expect(moved <= ROUNDING, f"rationalized table moved by {moved}")
    if isinstance(verdict, nogo.Member):
        expect(want == "member", "table answered member, expected nonmember")
        w = verdict.weights
        expect(len(w) == len(oracle.vertices), "one weight per deterministic table")
        expect(all(wi >= 0 for wi in w) and sum(w) == 1, "weights are not convex")
        recombined = [
            sum((wi * vert[i] for wi, vert in zip(w, oracle.vertices) if wi), F(0))
            for i in range(len(q))
        ]
        expect(recombined == q, "membership weights do not recombine to the table")
    else:
        expect(isinstance(verdict, nogo.NonMember), f"unknown verdict {verdict!r}")
        expect(want == "nonmember", "table answered nonmember, expected member")
        facet = verdict.facet
        expect(len(facet) == len(q), "facet has the wrong length")
        bound = max(_dot(facet, vert) for vert in oracle.vertices)
        expect(verdict.bound == bound, f"bound {verdict.bound} != {bound}")
        expect(_dot(facet, q) - bound == verdict.violation, "violation misreported")
        expect(verdict.violation > 0, "facet does not separate the table")


def _exact_corr(scenario, vec):
    n = len(scenario.outcomes())
    return nogo.Correlation(scenario, tuple(tuple(vec[i : i + n]) for i in range(0, len(vec), n)))


def _bell_check(oracle, corr, want):
    def check(verdict):
        check_membership(verdict, corr, oracle, want)
        if (oracle.n_x, oracle.n_y, oracle.n_a, oracle.n_b) == (2, 2, 2, 2):
            # Fine (1982): a no-signalling (2,2,2,2) table is local exactly
            # when every CHSH form is at most 2.
            local = oracle.max_chsh(verdict.correlation.table) <= 2
            expect(
                isinstance(verdict, nogo.Member) == local,
                "verdict disagrees with the CHSH criterion",
            )

    return check


# ---------------------------------------------------------------------------
# Fragments


def check_embedding(outcome, frag, want):
    if want == "infeasible":
        # The witness is over a matrix the engine does not return, so only
        # the verdict and its reported bound can be checked here.
        expect(isinstance(outcome, nogo.Infeasible), "contextual fragment was embedded")
        expect(outcome.up_to == 16, "Infeasible reports the wrong size bound")
        return
    expect(isinstance(outcome, nogo.Feasible), "embeddable fragment answered infeasible")
    n = outcome.size
    expect(n >= 1, "empty ontic set")
    expect(len(outcome.state_images) == len(frag.states), "one image per state")
    expect(len(outcome.effect_images) == len(frag.effects), "one image per effect")
    for img in outcome.state_images:
        expect(len(img) == n and all(v >= 0 for v in img) and sum(img) == 1, "state image is not a distribution")
    for img in outcome.effect_images:
        expect(len(img) == n and all(0 <= v <= 1 for v in img), "effect image leaves [0, 1]")
    expect(tuple(outcome.unit_image) == (1,) * n, "unit image is not all ones")
    for e, e_img in zip(frag.effects, outcome.effect_images):
        for s, s_img in zip(frag.states, outcome.state_images):
            expect(_dot(e_img, s_img) == _dot(e, s), "a pairing is not reproduced")


def octahedron_fragment():
    """The demo octahedron: the six Bloch-axis states and their effects."""
    states, effects = [], []
    for axis in range(3):
        for sign in (1, -1):
            v = [0, 0, 0]
            v[axis] = sign
            states.append((1, *v))
            effects.append((F(1, 2), *(F(sign, 2) if k == axis else 0 for k in range(3))))
    return nogo.GPTFragment(tuple(states), tuple(effects), (1, 0, 0, 0))


# ---------------------------------------------------------------------------
# nogo

# (cards, local, pr, float) tables per round.  The mix puts the Bell LPs at
# a little over half of a round and the embeddings at the rest.  Thirteen
# operations are faster than the (2,3,2,2) LPs (the bit embedding and the
# (2,2,2,2) tables) and eight slower (the other embeddings and the larger
# scenarios), so the median operation falls near the middle of the 48
# (2,3,2,2) tables, where the seed moves it least.
BELL_ROUND = (
    ((2, 2, 2, 2), 4, 4, 4),
    ((2, 3, 2, 2), 16, 16, 16),
    ((3, 3, 2, 2), 1, 1, 1),
    ((2, 2, 3, 3), 1, 1, 0),
)

FRAGMENTS = (
    ("bit", nogo.classical_bit_fragment, "feasible"),
    ("hexagon", nogo.hexagon_fragment, "infeasible"),
    ("octahedron", octahedron_fragment, "feasible"),
    ("qubit-stabilizer", nogo.qubit_stabilizer_fragment, "feasible"),
)


def build_nogo(seed, root, workdir):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    stats = {}
    ops = []
    for cards, n_local, n_pr, n_float in BELL_ROUND:
        oracle = BellOracle(cards)
        scenario = nogo.Bell(*cards)
        tables = []
        for _ in range(n_local):
            tables.append(("local", _exact_corr(scenario, _local_mixture(rng, oracle)), "member"))
        for _ in range(n_pr):
            tables.append(("pr", _exact_corr(scenario, _pr_on_block(rng, oracle)), "nonmember"))
        for _ in range(n_float):
            tables.append(("float", _float_table(nrng, oracle, scenario, stats), "nonmember"))
        for kind, corr, want in tables:
            ops.append(
                Op(
                    f"fs_compatible {kind} {cards}",
                    lambda c=corr, s=scenario: nogo.fs_compatible(c, s),
                    _bell_check(oracle, corr, want),
                )
            )
    for name, make, want in FRAGMENTS:
        frag = make()
        ops.append(
            Op(
                f"simplex_embed {name}",
                lambda f=frag: nogo.simplex_embed(f),
                lambda out, f=frag, w=want: check_embedding(out, f, w),
            )
        )
    rng.shuffle(ops)
    return Workload(ops, notes=stats)


# ---------------------------------------------------------------------------
# cli


def _records(text):
    out = []
    for line in text.splitlines():
        if line.strip():
            _, value, _ = fileformat.loads("ci-engine/1 diagram\n\n" + line)
            out.append(value)
    return out


def _singlet_fixed_table():
    """P(a, b) of the singlet for settings A0 (z) and B0 (pi/4 in x-z),
    outcome 0 on wing A the -1 eigenvector, on wing B the +1 eigenvector."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    z_minus, z_plus = np.diag([0, 1]).astype(complex), np.diag([1, 0]).astype(complex)
    n = np.array([math.sin(math.pi / 4), 0, math.cos(math.pi / 4)])
    b_plus, b_minus = _projective(n)
    meas_a, meas_b = (z_minus, z_plus), (b_plus, b_minus)
    return [
        float(np.real(np.trace(rho @ np.kron(meas_a[a], meas_b[b]))))
        for a in range(2)
        for b in range(2)
    ]


def _chain_diagram(rng, sizes):
    """Sequential chain of embedded random matrices over ``sizes``."""
    d, want = None, None
    for n_in, n_out in zip(sizes, sizes[1:]):
        entries = random_substochastic(rng, n_out, n_in)
        m = substoch.SubstochMap(tuple(range(n_in)), tuple(range(n_out)), entries)
        box = from_box(fstheory.embedded(m))
        d = box if d is None else compose_sequential(d, box)
        want = entries if want is None else matmul(entries, want)
    return d, want


def _generated_files(rng, workdir):
    """Seeded diagram and correlation files, with their expected answers."""
    left, want_left = _chain_diagram(rng, [3, 4, 2, 4, 3, 3, 2])
    right, want_right = _chain_diagram(rng, [2, 3, 4, 3, 2])
    d = compose_parallel(left, right)
    want = kron(want_left, want_right)
    diagram_path = workdir / "chain.diagram"
    diagram_path.write_bytes(fileformat.serialize_diagram(d))

    # (2,2,2,2) tables keep the seeded LPs to about a quarter of a round;
    # larger ones made the round's time depend mostly on the seed.
    oracle = BellOracle((2, 2, 2, 2))
    local = _exact_corr(nogo.Bell(2, 2, 2, 2), _local_mixture(rng, oracle, terms=4))
    pr = _exact_corr(nogo.Bell(2, 2, 2, 2), _pr_on_block(rng, oracle))
    local_path = workdir / "local.correlation"
    pr_path = workdir / "pr.correlation"
    local_path.write_text(fileformat.dump_correlation(local), encoding="utf-8")
    pr_path.write_text(fileformat.dump_correlation(pr), encoding="utf-8")
    return (diagram_path, want), (local_path, local), (pr_path, pr), oracle


def _cli_op(name, argv, check, code=0):
    argv = [str(a) for a in argv] + ["--format", "records"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        rc = cli.run(argv, out=out, err=err)
        return rc, out.getvalue(), err.getvalue()

    def verify(result):
        rc, out, err = result
        expect(rc == code, f"exit code {rc}, documented {code}: {err.strip()}")
        expect(err == "", f"stderr: {err.strip()}")
        recs = _records(out)
        expect(recs and "elapsed_ms" in recs[-1], "missing elapsed_ms record")
        check(recs[:-1])

    return Op(name, run, verify)


def _check_matrix(want):
    def check(recs):
        got = tuple(tuple(row) for row in recs[0]["entries"])
        expect(got == tuple(tuple(row) for row in want), f"entries {got}")

    return check


def _check_cli_membership(corr, oracle, want):
    def check(recs):
        rec = recs[0]
        expect(rec["verdict"] == want, f"verdict {rec['verdict']}, expected {want}")
        if want == "member":
            verdict = nogo.Member(tuple(rec["weights"]), corr)
        else:
            verdict = nogo.NonMember(tuple(rec["facet"]), rec["bound"], rec["violation"], corr)
        check_membership(verdict, corr, oracle, want)

    return check


def build_cli(seed, root, workdir):
    rng = random.Random(seed)
    data = Path(root) / "demos" / "data"
    if not data.is_dir():
        raise FileNotFoundError(f"demo data not found at {data}")
    (chain, chain_want), (local_path, local), (pr_path, pr), oracle = _generated_files(
        rng, Path(workdir)
    )
    half = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    pr_box = _exact_corr(
        nogo.Bell(2, 2, 2, 2),
        [
            F(1, 2) if (a ^ b) == (x & y) else F(0)
            for (x, y) in oracle.contexts
            for (a, b) in oracle.outcomes
        ],
    )
    singlet_p = _singlet_fixed_table()
    bit = nogo.GPTFragment(((1, 0), (0, 1)), ((1, 0), (0, 1)), (1, 1))

    def normal_form_check(recs):
        rec = recs[0]
        expect(rec["entries"] == half, f"normal form matrix {rec['entries']}")
        text = rec["diagram"]
        d, pm = fileformat.load_diagram(text)
        expect(pm is None, "normal form grew procedures")
        again = fileformat.serialize_diagram(d).decode("utf-8")
        expect(again == text, "normal-form diagram does not round-trip byte for byte")
        expect(fstheory.denote(d).entries == tuple(map(tuple, half)), "normal form denotes another matrix")

    def quantum_eval_check(recs):
        got = [float(row[0]) for row in recs[0]["entries"]]
        expect(recs[0]["backend"] == "quantum", "not the quantum backend")
        gap = max(abs(a - b) for a, b in zip(got, singlet_p))
        expect(gap <= 1e-9, f"singlet table off by {gap}")

    def qnf_check(recs):
        expect(recs[0]["sigma"] == half and recs[0]["weights"] == [1, 1], f"qnf {recs[0]}")

    def rep_check(names):
        def check(recs):
            got = {r["check"]: r.get("passed") for r in recs}
            expect(set(got) == set(names) and all(got.values()), f"rep-check {got}")

        return check

    def pr_box_check(recs):
        expect(recs[0]["chsh"] == 4, f"PR box CHSH {recs[0]['chsh']}")
        expect(recs[0]["no_signalling"] is True, "PR box reported signalling")
        _check_cli_membership(pr_box, oracle, "nonmember")(recs)

    def singlet_check(recs):
        rec = recs[0]
        expect(rec["verdict"] == "nonmember", "singlet answered member")
        expect(abs(float(rec["chsh"]) - 2 * math.sqrt(2)) <= 1e-9, f"singlet CHSH {rec['chsh']}")
        expect(rec["exact_input"] is False, "singlet table reported exact")

    def embed_check(recs):
        rec = recs[0]
        expect(rec["verdict"] == "feasible", "bit fragment answered infeasible")
        outcome = nogo.Feasible(
            rec["size"],
            tuple(map(tuple, rec["state_images"])),
            tuple(map(tuple, rec["effect_images"])),
            tuple(rec["unit_image"]),
        )
        check_embedding(outcome, bit, "feasible")

    def equiv_check(recs):
        expect(recs[0]["equivalent"] is True, "the omelette pair is not equivalent")

    constants = data / "omelette_constants.diagram"
    reversible = data / "omelette_reversible.diagram"
    coin = data / "coin_dynamics.diagram"
    ops = [
        _cli_op("eval omelette", ["eval", constants], _check_matrix(half)),
        _cli_op("eval coin", ["eval", coin], _check_matrix([[F(1, 2)], [F(1, 2)]])),
        _cli_op("eval chsh-fixed", ["eval", data / "chsh_fixed_settings.diagram"], quantum_eval_check),
        _cli_op("eval chain", ["eval", chain], _check_matrix(chain_want)),
        _cli_op("equiv omelette", ["equiv", constants, reversible], equiv_check),
        _cli_op("normal-form", ["normal-form", reversible], normal_form_check),
        _cli_op("qnf omelette", ["qnf", constants], qnf_check),
        _cli_op("qnf coin", ["qnf", coin], _check_matrix([[F(1, 2)], [F(1, 2)]])),
        _cli_op(
            "rep-check",
            ["rep-check", "--rep", data / "bit_flip.rep", "--diagram", coin],
            rep_check({"applies", "reproduces-predictions"}),
        ),
        _cli_op(
            "rep-check leibniz",
            [
                "rep-check",
                "--rep",
                data / "bit_flip.rep",
                "--diagram",
                coin,
                "--leibniz-pairs",
                data / "prepare_then_sure_id.pairs",
            ],
            rep_check({"applies", "reproduces-predictions", "leibnizian"}),
        ),
        _cli_op("bell-check pr-box", ["bell-check", "--corr", data / "pr_box.correlation"], pr_box_check),
        _cli_op("bell-check singlet", ["bell-check", "--quantum", data / "singlet.model"], singlet_check),
        _cli_op(
            "bell-check local",
            ["bell-check", "--corr", local_path, "--expect", "member"],
            _check_cli_membership(local, oracle, "member"),
        ),
        _cli_op(
            "bell-check pr-block",
            ["bell-check", "--corr", pr_path, "--expect", "member"],
            _check_cli_membership(pr, oracle, "nonmember"),
            code=1,
        ),
        _cli_op(
            "simplex-embed bit",
            ["simplex-embed", "--fragment", data / "bit.fragment", "--expect", "feasible"],
            embed_check,
        ),
    ]
    return Workload(ops)


WORKLOADS = {"axioms": build_axioms, "nogo": build_nogo, "cli": build_cli}
