"""Causal-compatibility and noncontextuality checks.

Scenarios describe common-cause experiments; correlations are their
conditional probability tables.  Membership in the classically realizable
set is decided by exact rational LP over enumerated deterministic
strategies, except that a Bell table violating a lifted CHSH inequality is
separated by the most violated one, bound 2, with no LP; a NonMember thus
carries that CHSH facet when there is one and the LP's Farkas facet
otherwise.  Quantum tables come from the operational backend, and
simplex embeddability of GPT fragments is decided by an exact cone
decomposition LP.  Every positive or negative verdict carries data that
re-verifies by direct arithmetic.
"""

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from operator import mul

import numpy as np

from .caps import enumeration_cap, over_cap
from .diagrams import causal_system, inferential_system, layered, quantum_system
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
from .exactlp import _ints, _kernel, _solve, cone_extreme_rays, verify_certificate
from .fstheory import bundle_carrier, embedded, ignore, prop_gain, state_box
from .funcdyn import Fn, copy_fn, label_index
from .optheory import (
    PredictionMap,
    ProcedureDecl,
    QuantumProcess,
    op_knowledge_box,
    predict_closed,
    procedure_box,
)
from .substoch import KnowledgeState, from_fn
from .tensornet import _FLOAT_TOL, _INT64_SAFE, integers, is_exact_number

_ZERO = Fraction(0)
_RATIONALIZE_DEN = 10**6
_PAIRING_SLACK = Fraction(1, 10**7)
_BOOLS = (bool, np.bool_)  # neither exact nor a float entry


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
            if any(isinstance(n, bool) or not isinstance(n, int) or n < least for n in cards):
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


@dataclass(frozen=True)
class Correlation:
    """Conditional outcome table, one row per setting context.

    Rows follow ``scenario.contexts()`` and columns ``scenario.outcomes()``.
    Exact tables must normalize exactly; float tables within 1e-9.
    ``is_exact`` says which: every entry an exact number, read as a
    Fraction, or every entry read as a float.  An exact table is read
    once by ``tensornet.integers``, over the least common denominator of
    the whole table: each context's numerators must be nonnegative and sum
    to that denominator.  Fraction entries are kept as given; other exact
    entries become Fractions.  An exact table keeps that reading, as
    ``as_vector`` reads it: ``(numerators, denominator)``; a float table
    keeps None.  A table rounded from floats (``rationalize``) is built
    from its reading, under the same checks, with no Fraction read back.
    """

    scenario: object
    table: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)
    _reading: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.table)
        width = _table_width(self.scenario, rows)
        exact = all(is_exact_number(v) for row in rows for v in row)
        reading = None
        if exact:
            # one read of the table, each context then checked on it
            nums, den = integers([v for row in rows for v in row])
            _require_contexts(_rows_of(nums, width), den)
            reading = (tuple(nums), den)
            rows = tuple(
                tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows
            )
        else:
            for row in rows:
                if any(isinstance(v, _BOOLS) for v in row):
                    raise ValidationError("a probability is a bool, not a number")
                try:
                    vals = [float(v) for v in row]
                except OverflowError:
                    raise ValidationError("probability out of range") from None
                # every comparison with NaN is false, so NaN is refused by name
                if not all(map(math.isfinite, vals)):
                    raise ValidationError("probability is not a finite number")
                if min(vals) < -_FLOAT_TOL or max(vals) > 1 + _FLOAT_TOL:
                    raise ValidationError("probability out of range")
                if abs(sum(vals) - 1) > _FLOAT_TOL:
                    raise ValidationError("a context does not normalize")
            rows = tuple(tuple(float(v) for v in row) for row in rows)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "_reading", reading)

    @classmethod
    def _of_reading(cls, scenario, nums, den):
        """The exact table ``nums / den``, row-major as ``as_vector``, checked
        as ``__post_init__`` checks an exact table's reading."""
        width = math.prod(scenario.outcome_cards)
        ctxs = _rows_of(nums, width)
        _table_width(scenario, ctxs)
        _require_contexts(ctxs, den)
        rows = _rows_of(_fractions(nums, den), width)
        corr = object.__new__(cls)
        object.__setattr__(corr, "scenario", scenario)
        object.__setattr__(corr, "table", rows)
        object.__setattr__(corr, "is_exact", True)
        object.__setattr__(corr, "_reading", (tuple(nums), den))
        return corr

    def value(self, outcome, setting):
        ci = label_index(self.scenario.contexts(), tuple(setting), "scenario's contexts")
        oi = label_index(self.scenario.outcomes(), tuple(outcome), "scenario's outcomes")
        return self.table[ci][oi]

    def as_vector(self):
        return tuple(v for row in self.table for v in row)


def _table_width(scenario, rows):
    """The scenario's joint outcome count, once its cells are within the cap
    and ``rows`` has one row per setting context, each of that many entries."""
    n_ctx, width = math.prod(scenario.setting_cards), math.prod(scenario.outcome_cards)
    if over_cap(n_ctx * width):
        raise CapExceeded(f"the scenario's table has more than {enumeration_cap()} cells")
    if len(rows) != n_ctx:
        raise DimensionMismatch("one table row per setting context")
    if any(len(row) != width for row in rows):
        raise DimensionMismatch("one table column per joint outcome")
    return width


def _rows_of(cells, width):
    """The row-major ``cells`` as a tuple of rows of ``width`` entries."""
    return tuple(cells[k : k + width] for k in range(0, len(cells), width))


def _require_contexts(ctxs, den):
    """Each context's numerators over ``den`` are a distribution: nonnegative
    and summing to ``den``."""
    for ctx in ctxs:
        if min(ctx) < 0:
            raise ValidationError("negative probability")
        if sum(ctx) != den:
            raise ValidationError("a context does not normalize")


def _fractions(nums, den):
    """``nums / den`` as a tuple of Fractions, one formed per distinct numerator."""
    entry = {n: Fraction(n, den) if n else _ZERO for n in set(nums)}
    return tuple(map(entry.__getitem__, nums))


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
    if len(m.dom) != len(scenario.contexts()):
        raise DimensionMismatch("matrix domain does not fold the settings")
    if len(m.cod) != len(scenario.outcomes()):
        raise DimensionMismatch("matrix codomain does not fold the outcomes")
    return Correlation(scenario, tuple(zip(*m.entries)))


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


def _strategy_nodes(s):
    """The scenario's setting and observed nodes, the card of each, and
    the non-latent parents of each observed node.  With more than one
    latent node the compatible set is not a polytope: WrongScenario."""
    dag = s.dag()
    settings, observed, latent = _dag_nodes(dag)
    if len(latent) > 1:
        raise WrongScenario("triangle compatibility is not a polytope membership")
    card = dict(zip(settings + observed, s.setting_cards + s.outcome_cards))
    parents = [tuple(p for p in dag[n] if p not in latent) for n in observed]
    return settings, observed, card, parents


def _strategies(s):
    """The scenario's deterministic strategies as one table, cached per
    scenario: ``(hits, incidence)``.  The strategy count, cached per
    scenario beside the table, is checked against the current cap on every
    call, before any strategy is enumerated or read from the cache.

    ``hits`` lists the strategies of ``local_vertices``, in its order, each
    as the tuple of its outcome index (into ``s.outcomes()``) in each
    context of ``s.contexts()``.  ``incidence`` is the membership LP's
    matrix, a read-only 2-D int64 array: one column per strategy, the 0/1
    incidence of the (context, outcome) cells it hits, row-major as
    ``as_vector``, and a last all-ones row for the total weight.
    """
    count = _strategy_count(s)
    if over_cap(count):
        raise CapExceeded(f"{count} deterministic strategies exceed the cap")
    return _strategy_table(s)


@lru_cache(maxsize=8)
def _strategy_count(s):
    """The number of response-function tuples, duplicates included."""
    _, observed, card, parents = _strategy_nodes(s)
    return math.prod(
        card[n] ** math.prod(card[p] for p in ps) for n, ps in zip(observed, parents)
    )


@lru_cache(maxsize=8)
def _strategy_table(s):
    settings, observed, card, parents = _strategy_nodes(s)
    sizes = [math.prod(card[p] for p in ps) for ps in parents]
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
        seen[tuple(hits)] = None
    hits = tuple(seen)
    n_out = len(s.outcomes())
    # each strategy's (context, outcome) rows, one per context
    at = np.array(hits, dtype=np.intp) + np.arange(len(contexts)) * n_out
    incidence = np.zeros((len(contexts) * n_out + 1, len(hits)), dtype=np.int64)
    incidence[at, np.arange(len(hits))[:, None]] = 1
    incidence[-1] = 1
    incidence.setflags(write=False)
    return hits, incidence


def local_vertices(s):
    """All deterministic-strategy correlations of the scenario.

    A classical explanation of a DAG with one latent cause mixes
    deterministic responses: each observed node is a function of its
    non-latent parents (settings and earlier observed nodes), applied in
    DAG order.  A response is a table over its parents' joint values,
    row-major in parent order, and strategies run with the first
    observed node's table outermost.  A strategy's table is the 0/1
    incidence of the (context, outcome) cells it hits, one per context;
    duplicate tables are returned once, in first-seen order.  These are
    the columns of the membership LP of ``fs_compatible``, in this
    order, and ``Member.weights`` index them.  With more than one latent
    node, as in the triangle, the compatible set is not a polytope
    (Wolfe, Spekkens and Fritz 2019), so such a DAG raises WrongScenario.
    """
    n_out = len(s.outcomes())
    units = [tuple(int(i == k) for i in range(n_out)) for k in range(n_out)]
    return tuple(
        Correlation(s, tuple(units[k] for k in hits)) for hits in _strategies(s)[0]
    )


def strategy_diagram(s, responses, latents):
    """The scenario's causal template loaded with one classical strategy.

    ``responses`` maps each observed node to a callable on the values of
    its dag() parents, in dag order; ``latents`` maps each latent node to
    a tuple of rational weights.  denote() of the result is exactly the
    strategy's conditional distribution P(outcomes | settings), so this
    is the diagrammatic route to the tables that local_vertices builds
    combinatorially.

    Drawn with ``layered``: the latent priors beside the setting wires,
    then per observed node in DAG order a copy of each parent with a
    consumer still to come (output 0 feeds this node), a permutation that
    brings its parents to the front and its response; last a permutation
    to the observed order.
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

    priors = []
    for name in latent_names:
        sigma = KnowledgeState(systems[name].carrier, latents[name])
        if sum(sigma.weights) != 1:
            raise WeightError("latent weights must sum to 1")
        priors.append(state_box(sigma, name=f"prior {name}"))
    inputs = tuple(systems[n] for n in setting_names)
    layers = [inputs + tuple(priors)]
    names = list(setting_names + latent_names)  # the node of each open wire
    for i, name in enumerate(observed):
        parents = dag[name]
        par_sys = tuple(systems[p] for p in parents)
        cod = systems[name].carrier
        table = tuple(responses[name](*v) for v in iproduct(*(t.carrier for t in par_sys)))
        if any(out not in cod for out in table):
            raise ValidationError(f"response for {name} left the outcome carrier")
        m = from_fn(Fn(bundle_carrier(par_sys), cod, table))
        respond = embedded(m, par_sys, (systems[name],), f"respond {name}")
        # consumed later: every observed node by the boundary, and the later nodes' parents
        later = set(observed).union(*(dag[m] for m in observed[i + 1 :]))
        copies, wires = [], []  # a wire that feeds this node is (parent,)
        for n in names:
            t = systems[n]
            if n in parents and n in later:
                copies.append(embedded(from_fn(copy_fn(t.carrier)), (t,), (t, t), f"copy {n}"))
                wires += [(n,), n]
            else:
                copies.append(t)
                wires.append((n,) if n in parents else n)
        rest = [k for k, n in enumerate(wires) if isinstance(n, str)]
        names = [name] + [wires[k] for k in rest]
        layers += [
            copies,
            [wires.index((p,)) for p in parents] + rest,
            [respond] + [systems[n] for n in names[1:]],
        ]
    layers.append([names.index(n) for n in observed])
    return layered(inputs, *layers)


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
    then renormalize each context so the verdict is about a true
    distribution.  The rounded table is built from its integer reading,
    each context's rounded integers over the least common multiple of the
    contexts' totals, in lowest terms; an exact table is returned as is."""
    if corr.is_exact:
        return corr
    rows, totals = [], []
    for row in corr.table:
        # k / 10^6 over the row's total K / 10^6 is k / K
        ks = [max(round(v * _RATIONALIZE_DEN), 0) for v in row]
        total = sum(ks)
        if total == 0:
            raise ValidationError("a context rationalized to zero mass")
        rows.append(ks)
        totals.append(total)
    den = math.lcm(*totals)
    nums = [k * (den // total) for ks, total in zip(rows, totals) for k in ks]
    return Correlation._of_reading(corr.scenario, *_lowest(nums, den))


def _chsh_forms(s):
    """Every CHSH form lifted to the Bell scenario, as the rows of one
    read-only int64 matrix over the cells, row-major as ``as_vector``.

    A form reads each wing's outcomes as one outcome, a0 or b0, against
    the rest (a0 = 0 alone when binary, and so b0): a context's correlator
    is its mass on ``(a == a0) == (b == b0)`` less the rest.  It adds the
    correlators of two settings per wing, x0 < x1 and y0 < y1, one of the
    four negated, under either sign: +1 or -1 on those contexts' cells, 0
    elsewhere.  Each is at most 2 on every local table and a facet of every
    Bell polytope (Pironio, J. Math. Phys. 46, 062112, 2005); for (2,2,2,2)
    these are all the nontrivial facets (Fine, PRL 48, 291, 1982).

    Rows run in the order a0, b0, x0, x1, y0, y1 (each ascending), then the
    negated context, (x0, y0), (x0, y1), (x1, y0) or (x1, y1), then the
    sign, + first.  The form count, never more than 1.125 times the strategy
    count, is checked against the current cap on every call, before the
    matrix, cached per scenario, is built or read from the cache.
    """
    count = 8 * math.comb(s.n_x, 2) * math.comb(s.n_y, 2)
    count *= (s.n_a if s.n_a > 2 else 1) * (s.n_b if s.n_b > 2 else 1)
    if over_cap(count):
        raise CapExceeded(f"{count} lifted CHSH forms exceed the cap")
    return _chsh_form_table(s)


@lru_cache(maxsize=8)
def _chsh_form_table(s):
    n_x, n_y, n_a, n_b = s.n_x, s.n_y, s.n_a, s.n_b
    pick_a = range(n_a if n_a > 2 else 1)
    pick_b = range(n_b if n_b > 2 else 1)
    # the sign of each outcome: +1 where a == a0 iff b == b0
    outcome = [
        [1 if (a == a0) == (b == b0) else -1 for a in range(n_a) for b in range(n_b)]
        for a0, b0 in iproduct(pick_a, pick_b)
    ]
    # the sign of each context: four of them, one negated, under either sign
    context = []
    for xs, ys in iproduct(combinations(range(n_x), 2), combinations(range(n_y), 2)):
        four = [x * n_y + y for x in xs for y in ys]
        for neg, sign in iproduct(four, (1, -1)):
            row = [(-sign if c == neg else sign) if c in four else 0 for c in range(n_x * n_y)]
            context.append(row)
    forms = np.einsum("pw,kc->pkcw", np.array(outcome, np.int64), np.array(context, np.int64))
    forms = forms.reshape(-1, n_x * n_y * n_a * n_b)
    forms.setflags(write=False)
    return forms


def _signed_sums(matrix, v):
    """``matrix @ v`` for a matrix of 0/+-1 entries and a list of Python
    ints, as Python ints: in int64 while sum |v| < 2^62, which bounds every
    entry of the product, and in Python ints past it."""
    dtype = np.int64 if sum(map(abs, v)) < _INT64_SAFE else object
    return (matrix.astype(dtype, copy=False) @ np.array(v, dtype=dtype)).tolist()


def _chsh_facet(s, qn, qd):
    """The most violated lifted CHSH facet of a Bell table, or None.

    ``qn / qd`` is the table, row-major as ``as_vector``.  Only a Bell
    scenario with at least two settings per wing has such facets, the rows
    of ``_chsh_forms``.  The form of largest value, the first row on a tie,
    is returned as its integer entries when its value exceeds 2.
    """
    if not isinstance(s, Bell) or s.n_x < 2 or s.n_y < 2:
        return None
    forms = _chsh_forms(s)
    values = _signed_sums(forms, qn)
    best = max(values)
    return forms[values.index(best)].tolist() if best > 2 * qd else None


def fs_compatible(corr, s):
    """Exact membership of the table in the local polytope.

    Float tables are rationalized first; the certificate records the exact
    table actually tested.  A Bell table with at least two settings per
    wing is first read against its lifted CHSH facets (``_chsh_facet``):
    when one is violated, the NonMember carries the most violated one, its
    entries +1 and -1 on four contexts and its bound 2, and no LP runs.
    Otherwise the exact LP decides.  Its columns are the strategies of
    ``local_vertices``, in that order, each as the 0/1 incidence of the
    (context, outcome) cells it hits (one per context, row-major as
    ``as_vector``), plus an all-ones row for the total weight; a
    NonMember then carries the LP's Farkas facet in lowest terms.  The LP
    runs in integers on the cached incidence and the table's kept reading,
    and both verdicts are re-verified on integers before any Fraction is
    formed: a member's weights are recombined cell by cell, and a facet's
    bound, from either source, is its largest sum over any strategy's
    cells, the table paying more than it.
    """
    if corr.scenario != s:
        raise WrongScenario("correlation was built for another scenario")
    target = rationalize(corr)
    incidence = _strategies(s)[1]
    qn, qd = target._reading
    m = len(qn)
    cells = incidence[:m]
    fn, fd = _chsh_facet(s, qn, qd), 1
    if fn is None:
        # incidence . x / d = (qn, qd): the weights x / (d * qd) sum to 1
        status, v, d = _solve(incidence, [*qn, qd])
        if status == "feasible":
            wn, wd = _lowest(v, d * qd)
            if min(wn) < 0 or sum(wn) != wd:
                raise EngineError("membership weights failed re-verification")
            # the weights recombined over wd equal qn / qd, cell by cell
            if any(r * qd != v * wd for r, v in zip(_signed_sums(cells, wn), qn)):
                raise EngineError("membership weights failed re-verification")
            return Member(_fractions(wn, wd), target)
        fn, fd = _lowest(v[:m], d)
    # the facet is fn / fd on the cells, in lowest terms; a strategy pays
    # the facet's entries on its cells, one per context, at most top / fd;
    # the table pays sum(fn * qn) / (fd * qd)
    top = max(_signed_sums(cells.T, fn))
    gap = sum(map(mul, fn, qn)) - top * qd
    if gap <= 0:
        raise EngineError("separating facet failed re-verification")
    return NonMember(_fractions(fn, fd), Fraction(top, fd), Fraction(gap, fd * qd), target)


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
    # every comparison with NaN is false, so non-finite entries are refused by name
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has an entry that is not finite")
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
    settings = (kb_a.ins[0], kb_b.ins[0])
    rec_a, rec_b = pg_a.outs[1], pg_b.outs[1]
    return layered(
        settings,
        (src, *settings),
        (2, 0, 3, 1),
        (kb_a, kb_b),
        (pg_a, pg_b),
        (ig_a, rec_a, ig_b, rec_b),
    )


def model_correlations(pm):
    """Bell table of a two-wing prediction map, scenario inferred.

    Setting cardinalities come from the wing alphabets of the template,
    outcome cardinalities from the record carriers.  A classical-backend
    model gives the prediction's exact Fractions; a quantum one gives
    floats, each the nearest to its exact prediction entry.
    """
    d = bell_template(pm)
    s = Bell(
        len(d.input_types[0].carrier),
        len(d.input_types[1].carrier),
        len(d.output_types[0].carrier),
        len(d.output_types[1].carrier),
    )
    m = predict_closed(d, pm)
    if pm.backend == "classical":
        rows = m.entries
    else:
        # Python-int true division rounds once, as float(Fraction) does
        rows = ([v / m.den for v in row] for row in m.num.tolist())
    return Correlation(s, tuple(zip(*rows)))


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
    listed state and every listed effect must pay within [0, 1].  The
    vectors need not be quotiented: ``simplex_embed`` decides the
    operational quotient, read off the pairing table alone.
    ``is_exact`` says whether every entry is an exact number, read as a
    Fraction; a float fragment keeps its entries as given.
    """

    states: tuple
    effects: tuple
    unit: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)

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
        exact = all(is_exact_number(x) for x in entries)
        if exact:
            states = tuple(tuple(Fraction(x) for x in v) for v in states)
            effects = tuple(tuple(Fraction(x) for x in v) for v in effects)
            unit = tuple(Fraction(x) for x in unit)
        elif any(isinstance(x, _BOOLS) for x in entries):
            raise ValidationError("a fragment holds a bool, not a number")
        tol = 0 if exact else _FLOAT_TOL
        try:
            # every comparison with NaN is false, so NaN is refused by name
            if not exact and not all(map(math.isfinite, entries)):
                raise ValidationError("a float fragment holds a number that is not finite")
            for w in states:
                u = sum(a * b for a, b in zip(unit, w))
                if abs(u - 1) > tol:
                    raise ValidationError("the unit effect must pay 1 on every state")
                for e in effects:
                    p = sum(a * b for a, b in zip(e, w))
                    if p < -tol or p > 1 + tol:
                        raise ValidationError("a pairing left [0, 1]")
        except OverflowError:
            # only the float checks overflow: a float met an exact number
            # beyond float range
            raise ValidationError("a float fragment holds a number beyond float range") from None
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "is_exact", exact)

    @property
    def dim(self):
        return len(self.unit)


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
        x if is_exact_number(x) else Fraction(x).limit_denominator(10**12) for x in v
    )


def _lowest(nums, den):
    """``nums / den`` over the least common denominator of its entries."""
    g = math.gcd(den, *nums)
    return [v // g for v in nums], den // g


def _pairings(effects, states):
    """The exact table of ``e · w``, effects by row and states by column,
    row-major, as Python ints over one denominator, the least common one.
    The states are read as one matrix by ``exactlp._ints``, the effects as
    another."""
    ws, wd = _ints(states)
    es, ed = _ints(effects)
    return _lowest([sum(map(mul, e, w)) for e in es for w in ws], ed * wd)


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
    pairing-value coordinates: responses and distributions are both the
    integer extreme rays of cones cut out by the pairing table's
    dependences, of its rows and of its columns, and one exact LP
    decides whether products of the two reproduce the pairing table.
    Rational fragments are decided exactly; float fragments allow slack
    1e-7 per pairing.

    What is decided is the operational quotient, as in Schmid et al.,
    PRX Quantum 2, 010331 (2021): two mixtures are equivalent when every
    listed effect (or state) gives them equal probabilities, so every
    equality comes from the dependences of the rows and columns of the
    pairing table, never from the vectors themselves.  A direction of
    the vectors that the other side never probes changes nothing, and
    neither does an invertible change of coordinates.

    Feasibility at any size implies feasibility at the returned support
    size, so Infeasible here rules out every finite ontic set, not just
    sizes up to ``lambda_max``; the bound is reported for the contract.
    A feasible embedding larger than ``lambda_max`` after support
    minimization raises CapExceeded rather than guessing.
    """
    if isinstance(lambda_max, bool) or not isinstance(lambda_max, int) or lambda_max < 1:
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

    # The pairing table, unit row first, read once as integers over one
    # denominator.  Operational equivalences are the dependences of its
    # rows and of its columns, integer kernel vectors of the table and of
    # its transpose.
    flat_targets, den = _pairings(effects_all, states)
    state_deps = _kernel([flat_targets[k : k + ns] for k in range(0, ne * ns, ns)])[1]
    # an exact embedding factors the table, so it has at least rank states
    rank = ns - len(state_deps)

    # Response candidates: value vectors x on the listed effects that keep
    # the dependences of the table's rows, with x_unit - x_k >= 0, x_k >= 0
    # per effect k, then x_unit >= 0; each ray has x_unit = ray[0] > 0.
    bounds = []
    for k in range(1, ne):
        upper, lower = [0] * ne, [0] * ne
        upper[0], upper[k], lower[k] = 1, -1, 1
        bounds += [upper, lower]
    bounds.append([1] + [0] * (ne - 1))
    effect_deps = _kernel([flat_targets[j::ns] for j in range(ns)])[1]
    responses = cone_extreme_rays(bounds, effect_deps)

    # Distribution candidates: nonnegative value vectors on the listed
    # states that keep the dependences of the table's columns.
    cone_rows = [[int(j == k) for j in range(ns)] for k in range(ns)]
    rays = cone_extreme_rays(cone_rows, state_deps)

    # The LP's columns, one per response-ray product.  Response i stands at
    # dens[i] times its value vector, so the weight of column (i, j) comes
    # back divided by dens[i].  products[i, k, j] is row k = (effect, state)
    # of column (i, j), in int64 when the largest product stays below 2^62.
    dens = [r[0] for r in responses]
    top = [max((abs(v) for row in m for v in row), default=0) for m in (responses, rays)]
    dtype = np.int64 if max(top[0], 1) * max(top[1], 1) < _INT64_SAFE else object
    xn = np.array(responses, dtype=dtype).reshape(len(responses), ne)
    yn = np.array(rays, dtype=dtype).reshape(len(rays), ns)
    products = (xn[:, :, None, None] * yn.T[None, None]).reshape(
        len(responses), ne * ns, len(rays)
    )

    def solve(allowed, slack):
        """The weights of the allowed responses' columns as Python ints and
        their one denominator, and None; or None and the Farkas data."""
        cols = [(i, j) for i in allowed for j in range(len(rays))]
        # row k lists response i's columns for every allowed i in turn
        rows = products[allowed].transpose(1, 0, 2).reshape(ne * ns, len(cols))
        rhs, rhs_den = flat_targets, den
        if slack:
            # an upper and a lower row per pairing, t / den plus and minus
            # the slack p / q, each with a slack column of its own, +1 on
            # the upper row and -1 on the lower
            slacks = np.diag(np.tile([1, -1], ne * ns))
            rows = np.hstack([rows.repeat(2, axis=0), slacks])
            p, q = _PAIRING_SLACK.numerator, _PAIRING_SLACK.denominator
            rhs, rhs_den = _lowest(
                [t * q + s * p * den for t in flat_targets for s in (1, -1)], den * q
            )
        status, v, d = _solve(rows, rhs)
        if status == "infeasible":
            return None, (rows, rhs, v, d)
        # the LP's x / d solves rows . x = rhs, so x / (d * rhs_den) the table
        return ({(i, j): dens[i] * w for (i, j), w in zip(cols, v)}, d * rhs_den), None

    # exact rows first even for float fragments: when the snapped data is
    # exactly embeddable the slack formulation only doubles the work
    all_idx = list(range(len(responses)))
    use_slack = False
    found, witness = solve(all_idx, False)
    if found is None and not exact:
        use_slack = True
        found, witness = solve(all_idx, True)
    if found is None:
        rows, rhs, y, d = witness
        y = tuple(Fraction(v, d) for v in y)
        # the rhs's positive scale leaves every sign of the check as it is
        if not verify_certificate(rows, rhs, y):
            raise EngineError("infeasibility witness failed re-verification")
        return Infeasible(lambda_max, y)
    sigma, sigma_den = found

    def support(sig):
        """Each response's total weight, over the solution's one denominator."""
        mass = {}
        for (i, _j), w in sig.items():
            if w:
                mass[i] = mass.get(i, 0) + w
        return mass

    # a slack solution factors the table only approximately, so only an
    # exact one stops at the rank
    least = 1 if use_slack else rank
    mass = support(sigma)
    allowed = set(mass)
    for i in sorted(allowed, key=mass.__getitem__):
        if len(allowed) <= least:
            break
        trial = sorted(allowed - {i})
        cand, _ = solve(trial, use_slack)
        if cand is not None:
            sigma, sigma_den = cand
            allowed = set(support(sigma))
    slots = sorted(allowed)
    if len(slots) > lambda_max:
        raise CapExceeded(
            f"smallest embedding found uses {len(slots)} ontic states, "
            f"above the requested bound {lambda_max}"
        )

    effect_images_all = [
        tuple(Fraction(responses[i][e_idx], dens[i]) for i in slots) for e_idx in range(ne)
    ]
    state_images = []
    for s_idx in range(ns):
        img = []
        for i in slots:
            total = 0
            for j in range(len(rays)):
                w = sigma.get((i, j), 0)
                if w:
                    total += w * rays[j][s_idx]
            img.append(Fraction(total, sigma_den))
        state_images.append(tuple(img))

    # |got / got_den - target / den| > slack, cross-multiplied in Python ints
    slack = _PAIRING_SLACK if not exact else _ZERO
    got, got_den = _pairings(effect_images_all, state_images)
    room = slack.numerator * got_den * den
    if any(
        abs(g * den - t * got_den) * slack.denominator > room
        for g, t in zip(got, flat_targets)
    ):
        raise EngineError("embedding failed pairing re-verification")
    return Feasible(
        len(slots),
        tuple(state_images),
        tuple(effect_images_all[1:]),
        effect_images_all[0],
    )
