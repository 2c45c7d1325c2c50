"""Causal-compatibility and noncontextuality checks.

Scenarios describe common-cause experiments; correlations are their
conditional probability tables.  Membership in the classically realizable
set is decided by exact rational LP over enumerated deterministic
strategies, quantum tables come from the operational backend, and
simplex embeddability of GPT fragments is decided by an exact cone
decomposition LP.  Every positive or negative verdict carries data that
re-verifies by direct arithmetic.
"""

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from .caps import enumeration_cap
from .diagrams import Diagram, causal_system, inferential_system, quantum_system
from .errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    EngineError,
    NotPositive,
    ValidationError,
    WeightError,
    WrongScenario,
)
from .exactlp import (
    cone_extreme_rays,
    feasible_nonneg,
    nullspace,
    polytope_vertices,
    verify_certificate,
)
from .fstheory import bundle_carrier, embedded, ignore, prop_gain, state_box
from .funcdyn import Fn, copy_fn
from .optheory import (
    PredictionMap,
    ProcedureDecl,
    QuantumProcess,
    op_knowledge_box,
    predict_closed,
    procedure_box,
)
from .substoch import KnowledgeState, from_fn

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FLOAT_TOL = 1e-9
_RATIONALIZE_DEN = 10**6
_PAIRING_SLACK = Fraction(1, 10**7)


# ---------------------------------------------------------------------------
# Scenarios


SCENARIOS = {}  # file tag -> scenario class, in declaration order


def _dag_nodes(dag):
    """Split a scenario DAG into (setting, observed, latent) node names.

    Observed nodes are the DAG's keys, in order; latent nodes are the
    parents named ``L...``; every other parent is a setting node.
    Settings and latents are sorted by name.
    """
    exogenous = {p for ps in dag.values() for p in ps} - set(dag)
    latent = tuple(sorted(p for p in exogenous if p.startswith("L")))
    return tuple(sorted(exogenous - set(latent))), tuple(dag), latent


class _Scenario:
    """A causal scenario, declared once by its cards, file tag and DAG.

    Each kind is a frozen dataclass whose fields are its cards:
    ``n_<node>`` for each setting and observed node, in the order of the
    file's ``cards`` list, then optionally ``latent_card``, the
    cardinality of every latent node.  The class keywords ``tag`` (the
    file and CLI name) and ``dag`` (each observed node's parents, parents
    before children) complete the declaration.  Setting and outcome
    cards, their validation, the file form and the CLI spec all derive
    from it.  Contexts and outcomes enumerate row-major in declared order.
    """

    def __init_subclass__(cls, tag, dag, **kwargs):
        super().__init_subclass__(**kwargs)
        settings, observed, _ = _dag_nodes(dag)
        cls.tag = tag
        cls._dag = dag
        cls._setting_fields = tuple(f"n_{n.lower()}" for n in settings)
        cls._outcome_fields = tuple(f"n_{n.lower()}" for n in observed)
        SCENARIOS[tag] = cls

    def __post_init__(self):
        for what, cards, least in (
            ("outcome cardinalities", self.outcome_cards, 2),
            ("setting cardinalities", self.setting_cards, 1),
            ("latent cardinality", (getattr(self, "latent_card", 1),), 1),
        ):
            if any(not isinstance(n, int) or n < least for n in cards):
                raise ConfigError(f"{what} must be at least {least}")

    @classmethod
    def card_names(cls):
        """Node letters of the ``n_<node>`` fields, in constructor order."""
        return tuple(f.name[2:] for f in fields(cls) if f.name.startswith("n_"))

    @property
    def cards(self):
        """The ``n_<node>`` cards in constructor order: the file's list."""
        return tuple(getattr(self, "n_" + n) for n in self.card_names())

    @property
    def setting_cards(self):
        return tuple(getattr(self, f) for f in self._setting_fields)

    @property
    def outcome_cards(self):
        return tuple(getattr(self, f) for f in self._outcome_fields)

    def dag(self):
        return dict(self._dag)

    def contexts(self):
        return tuple(iproduct(*(range(n) for n in self.setting_cards)))

    def outcomes(self):
        return tuple(iproduct(*(range(n) for n in self.outcome_cards)))


@dataclass(frozen=True)
class Bell(_Scenario, tag="bell", dag={"A": ("X", "L"), "B": ("Y", "L")}):
    """Two wings with independent settings and one common cause."""

    n_x: int = 2
    n_y: int = 2
    n_a: int = 2
    n_b: int = 2


@dataclass(frozen=True)
class Instrumental(_Scenario, tag="instrumental", dag={"A": ("X", "L"), "B": ("A", "L")}):
    """One setting; the first outcome feeds the second node."""

    n_x: int = 2
    n_a: int = 2
    n_b: int = 2


@dataclass(frozen=True)
class PrepareMeasure(
    _Scenario, tag="prepare-measure", dag={"A": ("X", "L"), "B": ("X", "Y", "L")}
):
    """Preparation setting x feeds both nodes; y only the second."""

    n_x: int = 2
    n_a: int = 2
    n_y: int = 2
    n_b: int = 2


@dataclass(frozen=True)
class Triangle(
    _Scenario,
    tag="triangle",
    dag={"A": ("L_CA", "L_AB"), "B": ("L_AB", "L_BC"), "C": ("L_BC", "L_CA")},
):
    """Three observed nodes on a cycle of pairwise independent causes."""

    n_a: int = 2
    n_b: int = 2
    n_c: int = 2
    latent_card: int = 2


def chsh_scenario():
    return Bell(2, 2, 2, 2)


# ---------------------------------------------------------------------------
# Correlations


def _is_exact_number(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Correlation:
    """Conditional outcome table, one row per setting context.

    Rows follow ``scenario.contexts()`` and columns ``scenario.outcomes()``.
    Exact tables must normalize exactly; float tables within 1e-9.
    """

    scenario: object
    table: tuple

    def __post_init__(self):
        ctxs = self.scenario.contexts()
        outs = self.scenario.outcomes()
        rows = tuple(tuple(row) for row in self.table)
        if len(rows) != len(ctxs):
            raise DimensionMismatch("one table row per setting context")
        if any(len(row) != len(outs) for row in rows):
            raise DimensionMismatch("one table column per joint outcome")
        exact = all(_is_exact_number(v) for row in rows for v in row)
        if exact:
            rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
            for row in rows:
                if any(v < 0 for v in row):
                    raise ValidationError("negative probability")
                if sum(row) != 1:
                    raise ValidationError("a context does not normalize")
        else:
            for row in rows:
                vals = [float(v) for v in row]
                if min(vals) < -_FLOAT_TOL or max(vals) > 1 + _FLOAT_TOL:
                    raise ValidationError("probability out of range")
                if abs(sum(vals) - 1) > _FLOAT_TOL:
                    raise ValidationError("a context does not normalize")
            rows = tuple(tuple(float(v) for v in row) for row in rows)
        object.__setattr__(self, "table", rows)

    @property
    def is_exact(self):
        return all(_is_exact_number(v) for row in self.table for v in row)

    def value(self, outcome, setting):
        ci = self.scenario.contexts().index(tuple(setting))
        oi = self.scenario.outcomes().index(tuple(outcome))
        return self.table[ci][oi]

    def as_vector(self):
        return tuple(v for row in self.table for v in row)


def tabulate(scenario, fn):
    """Correlation built from ``fn(outcome_tuple, setting_tuple)``."""
    return Correlation(
        scenario,
        tuple(
            tuple(fn(o, c) for o in scenario.outcomes())
            for c in scenario.contexts()
        ),
    )


def correlation_from_channel(scenario, m):
    """Read a correlation off a substochastic matrix.

    The matrix domain must fold the setting carriers and the codomain
    the outcome carriers, both row-major, as produced by denote() or
    predict_closed() on a scenario diagram.
    """
    n_ctx = len(scenario.contexts())
    n_out = len(scenario.outcomes())
    if len(m.dom) != n_ctx:
        raise DimensionMismatch("matrix domain does not fold the settings")
    if len(m.cod) != n_out:
        raise DimensionMismatch("matrix codomain does not fold the outcomes")
    return Correlation(
        scenario,
        tuple(
            tuple(m.entries[oi][ci] for oi in range(n_out))
            for ci in range(n_ctx)
        ),
    )


def pr_box():
    """The nonlocal box saturating CHSH at 4: a xor b = x and y."""
    s = chsh_scenario()
    half = Fraction(1, 2)
    return tabulate(
        s,
        lambda o, c: half if (o[0] ^ o[1]) == (c[0] & c[1]) else _ZERO,
    )


# ---------------------------------------------------------------------------
# Deterministic strategies


def local_vertices(s):
    """All deterministic-strategy correlations of the scenario.

    A classical explanation of a DAG with one latent cause mixes
    deterministic responses: each observed node is a function of its
    non-latent parents (settings and earlier observed nodes), applied in
    DAG order.  A response is a table over its parents' joint values,
    row-major in parent order, and strategies run with the first
    observed node's table outermost.  Duplicate tables are returned
    once, in first-seen order.  With more than one latent node, as in
    the triangle, the compatible set is not a polytope (Wolfe, Spekkens
    and Fritz 2019), so such a DAG raises WrongScenario.
    """
    dag = s.dag()
    settings, observed, latent = _dag_nodes(dag)
    if len(latent) > 1:
        raise WrongScenario("triangle compatibility is not a polytope membership")
    card = dict(zip(settings + observed, s.setting_cards + s.outcome_cards))
    parents = [tuple(p for p in dag[n] if p not in latent) for n in observed]
    sizes = [math.prod(card[p] for p in ps) for ps in parents]
    count = math.prod(card[n] ** k for n, k in zip(observed, sizes))
    if count > enumeration_cap():
        raise CapExceeded(f"{count} deterministic strategies exceed the cap")
    n_out = len(s.outcomes())
    units = [tuple(int(i == k) for i in range(n_out)) for k in range(n_out)]
    contexts = s.contexts()
    seen = {}
    for responses in iproduct(
        *(iproduct(range(card[n]), repeat=k) for n, k in zip(observed, sizes))
    ):
        hits = []
        for ctx in contexts:
            value = dict(zip(settings, ctx))
            hit = 0
            for n, ps, response in zip(observed, parents, responses):
                i = 0
                for p in ps:
                    i = i * card[p] + value[p]
                value[n] = response[i]
                hit = hit * card[n] + value[n]
            hits.append(hit)
        hits = tuple(hits)
        if hits not in seen:
            seen[hits] = Correlation(s, tuple(units[k] for k in hits))
    return tuple(seen.values())


def strategy_diagram(s, responses, latents):
    """The scenario's causal template loaded with one classical strategy.

    ``responses`` maps each observed node to a callable on the values of
    its dag() parents, in dag order; ``latents`` maps each latent node to
    a tuple of rational weights.  denote() of the result is exactly the
    strategy's conditional distribution P(outcomes | settings), so this
    is the diagrammatic route to the tables that local_vertices builds
    combinatorially.
    """
    dag = s.dag()
    setting_names, observed, latent_names = _dag_nodes(dag)
    if set(responses) != set(observed):
        raise ConfigError("one response per observed node")
    if set(latents) != set(latent_names):
        raise ConfigError("one weight tuple per latent node")

    cards = dict(zip(setting_names + observed, s.setting_cards + s.outcome_cards))
    cards.update((name, len(latents[name])) for name in latent_names)
    systems = {name: inferential_system(tuple(range(n))) for name, n in cards.items()}

    boxes = []
    producer = {}
    for k, name in enumerate(setting_names):
        producer[name] = ("in", k)
    for name in latent_names:
        sigma = KnowledgeState(systems[name].carrier, latents[name])
        if sum(sigma.weights) != 1:
            raise WeightError("latent weights must sum to 1")
        boxes.append(state_box(sigma, name=f"prior {name}"))
        producer[name] = ("box", len(boxes) - 1, 0)
    for name in observed:
        parents = dag[name]
        par_sys = tuple(systems[p] for p in parents)
        dom = bundle_carrier(par_sys)
        cod = systems[name].carrier
        fn = responses[name]
        table = []
        for vals in iproduct(*(systems[p].carrier for p in parents)):
            out = fn(*vals)
            if out not in cod:
                raise ValidationError(
                    f"response for {name} left the outcome carrier"
                )
            table.append(out)
        boxes.append(
            embedded(
                from_fn(Fn(dom, cod, tuple(table))),
                in_types=par_sys,
                out_types=(systems[name],),
                name=f"respond {name}",
            )
        )
        producer[name] = ("box", len(boxes) - 1, 0)

    consumers = {name: [] for name in producer}
    for name in observed:
        box_index = producer[name][1]
        for port, parent in enumerate(dag[name]):
            consumers[parent].append(("box", box_index, port))
    for j, name in enumerate(observed):
        consumers[name].append(("out", j))

    wires = []
    for name, src in producer.items():
        sinks = consumers[name]
        t = systems[name]
        while len(sinks) > 1:
            cp = embedded(
                from_fn(copy_fn(t.carrier)),
                in_types=(t,),
                out_types=(t, t),
                name=f"copy {name}",
            )
            boxes.append(cp)
            k = len(boxes) - 1
            wires.append((src, ("box", k, 0)))
            wires.append((("box", k, 0), sinks[0]))
            src = ("box", k, 1)
            sinks = sinks[1:]
        wires.append((src, sinks[0]))

    return Diagram(
        tuple(boxes),
        tuple(wires),
        tuple(systems[n] for n in setting_names),
        tuple(systems[n] for n in observed),
    )


# ---------------------------------------------------------------------------
# Polytope membership


@dataclass(frozen=True)
class Member:
    """Convex weights over local_vertices reproducing the table exactly."""

    weights: tuple
    correlation: Correlation


@dataclass(frozen=True)
class NonMember:
    """A rational hyperplane: every vertex pays at most ``bound``,
    the correlation pays ``bound + violation`` with violation > 0."""

    facet: tuple
    bound: Fraction
    violation: Fraction
    correlation: Correlation


def rationalize(corr):
    """Exact stand-in for a float table: round at denominator 10^6,
    then renormalize each context so the LP sees a true distribution."""
    if corr.is_exact:
        return corr
    rows = []
    for row in corr.table:
        vals = [
            Fraction(round(float(v) * _RATIONALIZE_DEN), _RATIONALIZE_DEN)
            for v in row
        ]
        vals = [v if v > 0 else _ZERO for v in vals]
        total = sum(vals)
        if total == 0:
            raise ValidationError("a context rationalized to zero mass")
        rows.append(tuple(v / total for v in vals))
    return Correlation(corr.scenario, tuple(rows))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def fs_compatible(corr, s):
    """Exact membership of the table in the local polytope.

    Float tables are rationalized first; the certificate records the
    exact table actually tested.  Both verdicts are re-verified by
    direct arithmetic before being returned.
    """
    if corr.scenario != s:
        raise WrongScenario("correlation was built for another scenario")
    target = rationalize(corr)
    verts = local_vertices(s)
    vecs = [v.as_vector() for v in verts]
    q = target.as_vector()
    m = len(q)
    a_rows = [[vec[i] for vec in vecs] for i in range(m)]
    a_rows.append([_ONE] * len(vecs))
    b = list(q) + [_ONE]
    status, payload = feasible_nonneg(a_rows, b)
    if status == "feasible":
        w = tuple(payload)
        recombined = [
            sum((wi * vec[i] for wi, vec in zip(w, vecs)), _ZERO)
            for i in range(m)
        ]
        if recombined != list(q) or sum(w) != 1 or any(wi < 0 for wi in w):
            raise EngineError("membership weights failed re-verification")
        return Member(w, target)
    y = payload
    facet = tuple(y[:m])
    bound = max(_dot(facet, vec) for vec in vecs)
    violation = _dot(facet, q) - bound
    if violation <= 0:
        raise EngineError("separating facet failed re-verification")
    return NonMember(facet, bound, violation, target)


def chsh_value(corr):
    """E00 + E01 + E10 - E11 with E_xy = sum of (-1)^(a xor b) P(ab|xy)."""
    s = corr.scenario
    if s != chsh_scenario():
        raise WrongScenario("CHSH needs the (2,2,2,2) Bell scenario")
    total = 0
    for ci, (x, y) in enumerate(s.contexts()):
        e = 0
        for oi, (a, b) in enumerate(s.outcomes()):
            term = corr.table[ci][oi]
            e = e + (term if (a ^ b) == 0 else -term)
        total = total + (-e if x == 1 and y == 1 else e)
    return total


def no_signalling_check(corr):
    """Wing marginals must ignore the far setting, exactly or to 1e-9.

    Applies to two-setting scenarios (Bell and prepare-measure; for the
    latter the first setting legitimately steers the second wing, so a
    False verdict there reports that dependence rather than an error).
    Scenarios with fewer than two settings have nothing to check.
    """
    s = corr.scenario
    if len(s.setting_cards) != 2:
        return True
    tol = 0 if corr.is_exact else _FLOAT_TOL
    for w in (0, 1):
        marginals = {}
        for ctx, row in zip(s.contexts(), corr.table):
            for out, p in zip(s.outcomes(), row):
                key = (ctx[w], out[w], ctx[1 - w])
                marginals[key] = marginals.get(key, 0) + p
        spread = {}
        for (x, a, _), v in marginals.items():
            spread.setdefault((x, a), []).append(v)
        if any(max(vs) - min(vs) > tol for vs in spread.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Quantum tables


def _as_square(m, name):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix")
    return arr


def _check_psd(arr, name):
    if np.abs(arr - arr.conj().T).max() > _FLOAT_TOL:
        raise ValidationError(f"{name} is not Hermitian")
    vals = np.linalg.eigvalsh((arr + arr.conj().T) / 2)
    if vals.min() < -_FLOAT_TOL:
        raise NotPositive(f"{name} has eigenvalue {vals.min():.3g}")
    return vals


def _psd_sqrt(arr):
    vals, vecs = np.linalg.eigh((arr + arr.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _wing_decls(effect_lists, wing, q_sys, out_sys):
    decls = []
    for x, effects in enumerate(effect_lists):
        total = np.zeros_like(_as_square(effects[0], "effect"))
        pieces = []
        for e in effects:
            arr = _as_square(e, f"effect {wing}{x}")
            if arr.shape != total.shape:
                raise DimensionMismatch("effects of one wing must share a dimension")
            _check_psd(arr, f"effect {wing}{x}")
            total = total + arr
            pieces.append(arr)
        gap = np.abs(total - np.eye(total.shape[0])).max()
        if gap > 1e-7:
            raise ValidationError(
                f"measurement {wing}{x} misses completeness by {gap:.3g}"
            )
        # uniform rescale soaks up float residue so the trace bound holds
        top = float(np.linalg.eigvalsh((total + total.conj().T) / 2).max())
        scale = 1.0 / top if top > 1 else 1.0
        kraus = {}
        for a, arr in enumerate(pieces):
            root = _psd_sqrt(arr * scale)
            kraus[((a,), ())] = tuple(
                root[i : i + 1, :] for i in range(root.shape[0])
            )
        decls.append(
            ProcedureDecl(
                f"{wing}{x}", (q_sys,), (out_sys,), QuantumProcess(kraus)
            )
        )
    return decls


def bell_prediction_map(state, measurements, s):
    """Procedure declarations for one bipartite quantum model.

    ``state`` is a density matrix on the joint system; ``measurements``
    is a pair of per-setting effect lists, one per wing.
    """
    if not isinstance(s, Bell):
        raise WrongScenario("quantum tables are generated for Bell scenarios")
    if len(measurements) != 2:
        raise DimensionMismatch("measurements must pair the two wings")
    meas_a, meas_b = measurements
    if len(meas_a) != s.n_x or len(meas_b) != s.n_y:
        raise DimensionMismatch("one effect list per setting")
    if any(len(es) != s.n_a for es in meas_a) or any(
        len(es) != s.n_b for es in meas_b
    ):
        raise DimensionMismatch("one effect per outcome")
    d_a = _as_square(meas_a[0][0], "effect A0").shape[0]
    d_b = _as_square(meas_b[0][0], "effect B0").shape[0]
    rho = _as_square(state, "state")
    if rho.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} is not {d_a}*{d_b}"
        )
    _check_psd(rho, "state")
    tr = float(rho.trace().real)
    if abs(tr - 1) > 1e-7:
        raise ValidationError(f"state trace {tr:.9g} is not 1")
    rho = rho / tr

    q_a = quantum_system("qA", d_a)
    q_b = quantum_system("qB", d_b)
    out_a = causal_system(tuple(range(s.n_a)))
    out_b = causal_system(tuple(range(s.n_b)))
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    cols = tuple(
        np.sqrt(p) * vecs[:, i : i + 1]
        for i, p in enumerate(np.clip(vals, 0.0, None))
        if p > 1e-14
    )
    decls = [
        ProcedureDecl(
            "src", (), (q_a, q_b), QuantumProcess({((), ()): cols})
        )
    ]
    decls += _wing_decls(meas_a, "A", q_a, out_a)
    decls += _wing_decls(meas_b, "B", q_b, out_b)
    return PredictionMap(tuple(decls))


def bell_template(pm):
    """The two-wing common-cause diagram with open setting wires.

    The source is the unique no-input two-output procedure; each wing is
    a knowledge box over that wing's measurement alphabet, its outcome
    learned and the causal branch ignored.  Inputs are the two setting
    wires (wing A then wing B); outputs the two outcome records.
    """
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


def model_correlations(pm):
    """Bell table of a two-wing prediction map, scenario inferred.

    Setting cardinalities come from the wing alphabets of the template,
    outcome cardinalities from the record carriers.  The table is float
    valued with each context normalized.
    """
    d = bell_template(pm)
    s = Bell(
        len(d.input_types[0].carrier),
        len(d.input_types[1].carrier),
        len(d.output_types[0].carrier),
        len(d.output_types[1].carrier),
    )
    m = predict_closed(d, pm)
    n_out = len(s.outcomes())
    n_ctx = len(s.contexts())
    return Correlation(
        s,
        tuple(
            tuple(float(m.entries[oi][ci]) for oi in range(n_out))
            for ci in range(n_ctx)
        ),
    )


def quantum_correlations(state, measurements, s):
    """Born-rule table of a bipartite model, via the operational backend.

    The table is float valued; each context comes out normalized and the
    construction is no-signalling because the wings act on separate
    factors.  Outcome conventions are fixed by the effect list order.
    """
    return model_correlations(bell_prediction_map(state, measurements, s))


def singlet_model():
    """The maximally entangled two-qubit model behind the CHSH pins.

    State: the singlet, column (0, 1, -1, 0)/sqrt(2).  Wing A measures
    along Bloch angles 0 and pi/2, wing B along pi/4 and -pi/4, all in
    the x-z plane.  Outcome 0 on wing A is the -1 eigenvector, outcome 0
    on wing B the +1 eigenvector; with those conventions all four
    correlators are +sqrt(2)/2 except E11 = -sqrt(2)/2, so the CHSH
    combination evaluates to 2*sqrt(2).
    """
    psi = np.array([[0.0], [1.0], [-1.0], [0.0]]) / np.sqrt(2.0)
    rho = psi @ psi.conj().T

    def plus(theta):
        v = np.array([[np.cos(theta / 2)], [np.sin(theta / 2)]])
        return v @ v.conj().T

    def minus(theta):
        v = np.array([[-np.sin(theta / 2)], [np.cos(theta / 2)]])
        return v @ v.conj().T

    meas_a = [[minus(t), plus(t)] for t in (0.0, np.pi / 2)]
    meas_b = [[plus(t), minus(t)] for t in (np.pi / 4, -np.pi / 4)]
    return rho, (meas_a, meas_b)


def product_model():
    """An uncorrelated two-qubit model: both wings see coin flips."""
    rho = np.eye(4) / 4.0
    z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    x = [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]
    return rho, ([z, x], [z, x])


@dataclass(frozen=True)
class VerdictBundle:
    """One quantum model's full report: table, CHSH, membership, signalling."""

    correlation: Correlation
    chsh: object
    membership: object
    no_signalling: bool


def verdict_bundle(state, measurements, s):
    """Run the whole pipeline on one quantum model and package the verdicts."""
    if s is None:
        raise ConfigError("a scenario is required")
    if (
        not measurements
        or len(measurements) != 2
        or not measurements[0]
        or not measurements[1]
    ):
        raise ConfigError("measurement settings must be nonempty")
    corr = quantum_correlations(state, measurements, s)
    return VerdictBundle(
        corr,
        chsh_value(corr) if s == chsh_scenario() else None,
        fs_compatible(corr, s),
        no_signalling_check(corr),
    )


# ---------------------------------------------------------------------------
# Simplex embedding


@dataclass(frozen=True)
class GPTFragment:
    """States, effects, and a unit effect in a common real vector space.

    Probabilities are plain dot products.  The unit must pay 1 on every
    listed state and every listed effect must pay within [0, 1].
    """

    states: tuple
    effects: tuple
    unit: tuple

    def __post_init__(self):
        states = tuple(tuple(v) for v in self.states)
        effects = tuple(tuple(v) for v in self.effects)
        unit = tuple(self.unit)
        if not states:
            raise ConfigError("a fragment needs at least one state")
        d = len(unit)
        if d < 1:
            raise ConfigError("a fragment needs a positive dimension")
        if any(len(v) != d for v in states + effects):
            raise DimensionMismatch("all fragment vectors share one dimension")
        entries = [x for v in states + effects + (unit,) for x in v]
        exact = all(_is_exact_number(x) for x in entries)
        if exact:
            states = tuple(tuple(Fraction(x) for x in v) for v in states)
            effects = tuple(tuple(Fraction(x) for x in v) for v in effects)
            unit = tuple(Fraction(x) for x in unit)
        tol = 0 if exact else _FLOAT_TOL
        for w in states:
            u = sum(a * b for a, b in zip(unit, w))
            if abs(u - 1) > tol:
                raise ValidationError("the unit effect must pay 1 on every state")
            for e in effects:
                p = sum(a * b for a, b in zip(e, w))
                if p < -tol or p > 1 + tol:
                    raise ValidationError("a pairing left [0, 1]")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "unit", unit)

    @property
    def dim(self):
        return len(self.unit)

    @property
    def is_exact(self):
        return all(
            _is_exact_number(x)
            for v in self.states + self.effects + (self.unit,)
            for x in v
        )


@dataclass(frozen=True)
class Feasible:
    """A simplex embedding: per-state distributions and per-effect
    responses over ``size`` ontic states, pairings reproduced."""

    size: int
    state_images: tuple
    effect_images: tuple
    unit_image: tuple


@dataclass(frozen=True)
class Infeasible:
    """No embedding exists at any size up to ``up_to`` (the LP actually
    rules out every finite size); ``witness`` is the Farkas certificate
    over the pairing constraints."""

    up_to: int
    witness: tuple


def _ratvec(v):
    # snapping floats at denominator 1e12 errs below 1e-12, three orders
    # inside the pairing slack, and keeps exact pivots tractable
    return tuple(
        x
        if isinstance(x, Fraction)
        else Fraction(x).limit_denominator(10**12)
        for x in v
    )


def _dependences(vectors):
    """Rational basis of the linear dependences among the vectors."""
    if not vectors:
        return []
    coords = [[v[k] for v in vectors] for k in range(len(vectors[0]))]
    return nullspace(coords)


def classical_bit_fragment():
    """Two point states, their atomic effects, and the unit."""
    return GPTFragment(
        states=((1, 0), (0, 1)),
        effects=((1, 0), (0, 1)),
        unit=(1, 1),
    )


def qubit_stabilizer_fragment():
    """Eigenstates of X, Y, Z with the three sharp measurements.

    Vectors live in the four-dimensional Bloch parameterization
    (1, bloch) for states and (weight, bloch)/1 for effects, so pairing
    is the plain dot product and every entry is rational.  This fragment
    is simplex embeddable: spreading each basis pair over four ontic
    states reproduces all pairings at size 4.
    """
    h = Fraction(1, 2)
    states = []
    effects = []
    for axis in range(3):
        for sign in (1, -1):
            bloch = [0, 0, 0]
            bloch[axis] = sign
            states.append((1, *bloch))
            effects.append((h, *(h * b for b in bloch)))
    return GPTFragment(tuple(states), tuple(effects), (1, 0, 0, 0))


def hexagon_fragment():
    """Six coplanar preparations at hexagon vertices, three diameters.

    The classic preparation-noncontextuality obstruction: antipodal
    pairs are perfectly distinguishable while the even and odd triples
    both average to the maximally mixed state.  Coordinates are sheared
    to keep every entry rational; pairings are 1, 3/4, 1/4, 0.  No
    simplex embedding exists at any size.
    """
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    r = Fraction(3, 8)
    states = (
        (1, 1, 0),
        (1, h, 1),
        (1, -h, 1),
        (1, -1, 0),
        (1, -h, -1),
        (1, h, -1),
    )
    effects = (
        (h, h, 0),
        (h, q, r),
        (h, -q, r),
        (h, -h, 0),
        (h, -q, -r),
        (h, q, -r),
    )
    return GPTFragment(states, effects, (1, 0, 0))


def simplex_embed(frag, lambda_max=16):
    """Decide simplex embeddability of the fragment, size-minimized.

    Searches for linear maps sending states to probability vectors over
    a finite ontic set and effects to response vectors in [0, 1], the
    unit to all-ones, reproducing every pairing.  The search runs in
    pairing-value coordinates: candidate ontic states are vertices of
    the effect-consistent polytope, candidate distributions live in the
    cone dual to the states, and one exact LP decides whether products
    of the two reproduce the pairing table.  Rational fragments are
    decided exactly; float fragments allow slack 1e-7 per pairing.

    Feasibility at any size implies feasibility at the returned support
    size, so Infeasible here rules out every finite ontic set, not just
    sizes up to ``lambda_max``; the bound is reported for the contract.
    A feasible embedding larger than ``lambda_max`` after support
    minimization raises CapExceeded rather than guessing.
    """
    if not isinstance(lambda_max, int) or lambda_max < 1:
        raise ConfigError("lambda_max must be a positive integer")
    if lambda_max > 16:
        raise CapExceeded("lambda_max tops out at 16")
    if frag.dim > 16:
        raise CapExceeded("fragment dimension tops out at 16")
    exact = frag.is_exact
    states = [_ratvec(v) for v in frag.states]
    effects_all = [_ratvec(frag.unit)] + [_ratvec(e) for e in frag.effects]
    ne = len(effects_all)
    ns = len(states)

    # Response candidates: value vectors on the listed effects that are
    # consistent with some linear functional, pay 1 on the unit, and
    # stay inside [0, 1].
    eq_rows = [list(dep) for dep in _dependences(effects_all)]
    eq_rhs = [_ZERO] * len(eq_rows)
    eq_rows.append([_ONE] + [_ZERO] * (ne - 1))
    eq_rhs.append(_ONE)
    ineq_rows = []
    ineq_rhs = []
    for k in range(1, ne):
        row = [_ZERO] * ne
        row[k] = _ONE
        ineq_rows.append(list(row))
        ineq_rhs.append(_ONE)
        row = [_ZERO] * ne
        row[k] = -_ONE
        ineq_rows.append(list(row))
        ineq_rhs.append(_ZERO)
    candidates = polytope_vertices(eq_rows, eq_rhs, ineq_rows, ineq_rhs)

    # Distribution candidates: nonnegative value vectors on the listed
    # states consistent with some linear functional.
    cone_rows = [[_ONE if j == k else _ZERO for j in range(ns)] for k in range(ns)]
    rays = cone_extreme_rays(cone_rows, _dependences(states))

    targets = [[_dot(e, w) for w in states] for e in effects_all]

    def solve(allowed, slack):
        cols = [(i, j) for i in allowed for j in range(len(rays))]
        rows = []
        rhs = []
        extra = 2 * ne * ns if slack else 0
        width = len(cols) + extra
        si = len(cols)
        for e_idx in range(ne):
            for s_idx in range(ns):
                base = [
                    candidates[i][e_idx] * rays[j][s_idx] for (i, j) in cols
                ]
                if not slack:
                    rows.append(base)
                    rhs.append(targets[e_idx][s_idx])
                else:
                    up = base + [_ZERO] * (width - len(cols))
                    up[si] = _ONE
                    rows.append(up)
                    rhs.append(targets[e_idx][s_idx] + _PAIRING_SLACK)
                    dn = base + [_ZERO] * (width - len(cols))
                    dn[si + 1] = -_ONE
                    rows.append(dn)
                    rhs.append(targets[e_idx][s_idx] - _PAIRING_SLACK)
                    si += 2
        status, payload = feasible_nonneg(rows, rhs)
        if status == "infeasible":
            return None, (rows, rhs, payload)
        return dict(zip(cols, payload[: len(cols)])), None

    # exact rows first even for float fragments: when the snapped data is
    # exactly embeddable the slack formulation only doubles the work
    all_idx = list(range(len(candidates)))
    use_slack = False
    sigma, witness = solve(all_idx, False)
    if sigma is None and not exact:
        use_slack = True
        sigma, witness = solve(all_idx, True)
    if sigma is None:
        rows, rhs, y = witness
        if not verify_certificate(rows, rhs, y):
            raise EngineError("infeasibility witness failed re-verification")
        return Infeasible(lambda_max, tuple(y))

    def support(sig):
        mass = {}
        for (i, _j), w in sig.items():
            if w:
                mass[i] = mass.get(i, _ZERO) + w
        return mass

    allowed = set(support(sigma))
    for i in sorted(allowed, key=lambda i: support(sigma)[i]):
        if len(allowed) == 1:
            break
        trial = sorted(allowed - {i})
        cand, _ = solve(trial, use_slack)
        if cand is not None:
            sigma = cand
            allowed = set(support(sigma))
    slots = sorted(support(sigma))
    if len(slots) > lambda_max:
        raise CapExceeded(
            f"smallest embedding found uses {len(slots)} ontic states, "
            f"above the requested bound {lambda_max}"
        )

    effect_images_all = [
        tuple(candidates[i][e_idx] for i in slots) for e_idx in range(ne)
    ]
    state_images = []
    for s_idx in range(ns):
        img = []
        for i in slots:
            total = _ZERO
            for j in range(len(rays)):
                w = sigma.get((i, j), _ZERO)
                if w:
                    total += w * rays[j][s_idx]
            img.append(total)
        state_images.append(tuple(img))

    slack = _PAIRING_SLACK if not exact else 0
    for e_idx in range(ne):
        for s_idx in range(ns):
            got = _dot(effect_images_all[e_idx], state_images[s_idx])
            if abs(got - targets[e_idx][s_idx]) > slack:
                raise EngineError("embedding failed pairing re-verification")
    return Feasible(
        len(slots),
        tuple(state_images),
        tuple(effect_images_all[1:]),
        effect_images_all[0],
    )
