"""Causal scenarios, local polytopes, quantum tables, simplex embedding."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import product as iproduct
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ci_engine import exactlp, nogo, optheory, substoch, tensornet
from ci_engine.exactlp import cone_extreme_rays, feasible_nonneg, nullspace, verify_certificate
from ci_engine.errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    EngineError,
    ValidationError,
    WeightError,
    WrongScenario,
)
from ci_engine.diagrams import diagrams_equal
from ci_engine.fileformat import load_fragment
from ci_engine.fstheory import denote
from ci_engine.nogo import (
    Bell,
    Correlation,
    Feasible,
    GPTFragment,
    Infeasible,
    Instrumental,
    Member,
    NonMember,
    PrepareMeasure,
    Triangle,
    bell_template,
    chsh_scenario,
    chsh_value,
    classical_bit_fragment,
    correlation_from_channel,
    fs_compatible,
    hexagon_fragment,
    local_vertices,
    model_correlations,
    no_signalling_check,
    pr_box,
    product_model,
    qubit_stabilizer_fragment,
    quantum_correlations,
    rationalize,
    simplex_embed,
    singlet_model,
    strategy_diagram,
    tabulate,
    verdict_bundle,
)

from ci_engine.optheory import predict_closed

import oracles
from conftest import SEED, rand_quantum_bell
from oracles import (
    born_bell_table,
    chsh_of_table,
    deterministic_bell_tables,
    hull_member,
    signalling_gap,
    simplex_pairs_feasible,
)

F = Fraction
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


# ---------------------------------------------------------------------------
# Scenarios and tables


def test_contexts_and_outcomes_are_row_major():
    s = Bell(2, 3, 2, 2)
    assert s.contexts() == tuple(
        (x, y) for x in range(2) for y in range(3)
    )
    assert s.outcomes() == tuple(
        (a, b) for a in range(2) for b in range(2)
    )


def test_scenario_cards_must_be_positive():
    with pytest.raises(ConfigError):
        Bell(0, 2, 2, 2)
    with pytest.raises(ConfigError):
        Triangle(2, 2, 2, 0)
    # True would pass for a card of 1, then dump as a bool no file reader takes
    with pytest.raises(ConfigError):
        Bell(True, 2, 2, 2)
    with pytest.raises(ConfigError):
        Triangle(2, 2, 2, True)


def test_correlation_must_normalize_exactly():
    s = chsh_scenario()
    bad = [[F(1, 2), F(1, 2), F(0), F(1, 4)]] + [[F(1), 0, 0, 0]] * 3
    with pytest.raises(ValidationError):
        Correlation(s, bad)


class _Level(int):
    """An int subclass: an exact number that is not a plain int."""


@st.composite
def _exact_rows(draw):
    """A scenario and exact rows, each on a denominator k: most sum to 1,
    some to 1 - 1/k or 1 + 1/k, some hold a negative entry.  An integer
    entry comes as an int, an int subclass or a Fraction; the rest are
    Fractions."""
    s = draw(st.sampled_from((chsh_scenario(), Instrumental(2, 2, 2))))
    n_out = len(s.outcomes())
    faults = draw(
        st.dictionaries(
            st.integers(0, len(s.contexts()) - 1),
            st.sampled_from(["under", "over", "negative", "negative-over"]),
            max_size=2,
        )
    )
    rows = []
    for r in range(len(s.contexts())):
        k = draw(st.integers(1, 6))
        fault = faults.get(r, "")
        total = k - 1 if fault == "under" else k + 1 if "over" in fault else k
        cut = st.integers(0, total)
        cuts = sorted(draw(st.lists(cut, min_size=n_out - 1, max_size=n_out - 1)))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        if "negative" in fault:
            j = draw(st.integers(0, n_out - 2))
            nums[-1] += nums[j] + 1
            nums[j] = -1
        row = []
        for n in nums:
            v = F(n, k)
            if v.denominator == 1:
                v = draw(st.sampled_from([int(v), _Level(v), v]))
            row.append(v)
        rows.append(tuple(row))
    return s, tuple(rows)


@settings(max_examples=150, deadline=None)
@given(_exact_rows())
@example((chsh_scenario(), pr_box().table))
@example((chsh_scenario(), ((_Level(1), 0, F(0), 0),) * 4))
def test_exact_rows_are_accepted_and_refused_as_by_the_fraction_rule(case):
    s, rows = case
    try:
        want = oracles.correlation_rows_reference(rows)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            Correlation(s, rows)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    c = Correlation(s, rows)
    assert c.is_exact and c.table == want
    assert all(type(v) is Fraction for row in c.table for v in row)
    # a Fraction entry is kept as given
    assert all(
        got is v
        for row, got_row in zip(rows, c.table)
        for v, got in zip(row, got_row)
        if type(v) is Fraction
    )


def test_float_correlation_gets_tolerance():
    s = chsh_scenario()
    row = [0.25 + 3e-10, 0.25, 0.25, 0.25 - 3e-10]
    c = Correlation(s, [row] * 4)
    assert not c.is_exact


def test_correlation_shape_checked():
    s = chsh_scenario()
    with pytest.raises(DimensionMismatch):
        Correlation(s, [[F(1), 0, 0, 0]] * 3)


def test_table_size_is_capped_before_any_context_is_built(monkeypatch):
    # a card beyond the C index range, and one that is merely too large
    monkeypatch.setattr(Bell, "contexts", None)
    monkeypatch.setattr(Bell, "outcomes", None)
    for s in (Bell(2, 10**400, 2, 2), Bell(1000, 1000, 2, 2)):
        with pytest.raises(CapExceeded, match="more than 1000000 cells"):
            Correlation(s, [])


def test_an_integer_beyond_float_range_in_a_float_table_is_invalid():
    s = chsh_scenario()
    row = [0.5, 0, 0, 0.5]
    with pytest.raises(ValidationError, match="probability out of range"):
        Correlation(s, [[0.5, 0, 0, 10**400]] + [row] * 3)
    with pytest.raises(ValidationError, match="probability out of range"):
        Correlation(s, [[0.5, 0, 0, F(10**400, 3)]] + [row] * 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_float_in_a_table_is_invalid(bad):
    # every comparison with NaN is false, so no range check alone refuses it
    s = chsh_scenario()
    with pytest.raises(ValidationError, match="not a finite number"):
        Correlation(s, [[bad, 0.5, 0.5, 0.0]] + [[0.25] * 4] * 3)


@pytest.mark.parametrize("true", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_in_a_table_is_invalid(true):
    # a bool is neither exact nor a float: read as 1.0 it would dump as true
    s = chsh_scenario()
    with pytest.raises(ValidationError, match="a bool, not a number"):
        Correlation(s, [[true, 0.0, 0.0, 0.0]] + [[0.25] * 4] * 3)
    with pytest.raises(ValidationError, match="a bool, not a number"):
        Correlation(s, [[true, 0, 0, 0]] + [[F(1, 4)] * 4] * 3)


def test_pr_box_values():
    c = pr_box()
    assert c.value((0, 0), (0, 0)) == F(1, 2)
    assert c.value((0, 1), (0, 0)) == 0
    assert c.value((0, 1), (1, 1)) == F(1, 2)
    assert c.value((0, 0), (1, 1)) == 0


def test_correlation_from_channel_round_trip():
    s = chsh_scenario()
    c = pr_box()
    m = substoch.SubstochMap(
        s.contexts(),
        s.outcomes(),
        tuple(
            tuple(c.table[ci][oi] for ci in range(4)) for oi in range(4)
        ),
    )
    assert correlation_from_channel(s, m).table == c.table


# ---------------------------------------------------------------------------
# Local polytope


def test_chsh_vertices_match_exhaustive_enumeration():
    verts = local_vertices(chsh_scenario())
    assert len(verts) == 16
    got = {v.table for v in verts}
    assert got == deterministic_bell_tables(2, 2, 2, 2)


def test_vertex_count_scales_with_strategies():
    verts = local_vertices(Bell(2, 2, 3, 2))
    assert len(verts) == (3**2) * (2**2)


def test_instrumental_vertices_are_deterministic():
    verts = local_vertices(Instrumental(2, 2, 2))
    # 16 strategy pairs, but responses at unrealized outcomes never
    # show in the table, so only 12 distinct vertices survive
    assert len(verts) == 12
    assert len({v.table for v in verts}) == len(verts)
    for v in verts:
        assert all(x in (0, 1) for row in v.table for x in row)


def test_prepare_measure_vertex_count():
    # a = f(x) and b = g(x, y): 2^2 * 2^4 strategies; the table shows
    # g only at the x that was prepared, so none of them coincide
    verts = local_vertices(PrepareMeasure(2, 2, 2, 2))
    assert len(verts) == (2**2) * (2**4)
    assert len({v.table for v in verts}) == len(verts)
    assert len(local_vertices(PrepareMeasure(3, 2, 1, 2))) == (2**3) * (2**3)


def test_strategy_count_is_capped_before_any_table_is_built(monkeypatch):
    # prepare-measure: 2^2 responses for a = f(x), 2^(2*4) for b = g(x, y)
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with monkeypatch.context() as m:
        m.setattr(nogo, "Correlation", None)
        with pytest.raises(CapExceeded, match="1024 deterministic strategies"):
            local_vertices(PrepareMeasure(2, 2, 4, 2))
    assert len(local_vertices(PrepareMeasure(2, 2, 3, 2))) == 2**2 * 2**6



def test_membership_checks_the_strategy_cap_before_the_lp(monkeypatch):
    s = PrepareMeasure(2, 2, 4, 2)
    n_out = len(s.outcomes())
    corr = Correlation(s, [[F(1, n_out)] * n_out for _ in s.contexts()])
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")

    def no_lp(a, b):
        raise AssertionError("the LP ran although the strategies exceed the cap")

    # only the response enumerators call product with ``repeat``
    enumerators = []

    def recording(*args, **kwargs):
        if "repeat" in kwargs:
            enumerators.append(kwargs)
        return iproduct(*args, **kwargs)

    monkeypatch.setattr(nogo, "_solve", no_lp)
    monkeypatch.setattr(nogo, "iproduct", recording)
    with pytest.raises(CapExceeded, match="1024 deterministic strategies"):
        fs_compatible(corr, s)
    assert enumerators == []

def test_a_cached_scenario_does_not_rebuild_its_nodes(monkeypatch):
    # the strategy count is cached beside the table, so a warm call reads
    # both without walking the scenario's DAG again
    s = Bell(2, 3, 2, 2)
    table = nogo._strategies(s)
    monkeypatch.setattr(nogo, "_strategy_nodes", None)
    assert nogo._strategies(Bell(2, 3, 2, 2)) is table


def test_the_strategy_cap_holds_after_the_cache_is_filled(monkeypatch):
    # prepare-measure (2, 2, 4, 2): 1024 strategies, a member at the
    # default cap, read from the per-scenario cache on the next call
    s = PrepareMeasure(2, 2, 4, 2)
    n_out = len(s.outcomes())
    corr = Correlation(s, [[F(1, n_out)] * n_out for _ in s.contexts()])
    assert isinstance(fs_compatible(corr, s), Member)
    hits, incidence = nogo._strategies(s)
    assert len(hits) == 1024 and incidence.shape == (len(corr.as_vector()) + 1, 1024)
    # the cached incidence is read-only
    with pytest.raises(ValueError):
        incidence[0, 0] = 5
    assert nogo._strategies(s) is nogo._strategies(PrepareMeasure(2, 2, 4, 2))
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded, match="1024 deterministic strategies"):
        fs_compatible(corr, s)
    with pytest.raises(CapExceeded, match="1024 deterministic strategies"):
        local_vertices(s)


_VERTEX_REFERENCES = {
    Bell: oracles.bell_vertex_tables,
    Instrumental: oracles.instrumental_vertex_tables,
    PrepareMeasure: oracles.prepare_measure_vertex_tables,
}


@st.composite
def _small_scenarios(draw):
    kind = draw(st.sampled_from(list(_VERTEX_REFERENCES)))
    cards = [
        draw(st.integers(1, 3) if f.name in ("n_x", "n_y") else st.integers(2, 3))
        for f in dataclasses.fields(kind)
    ]
    return kind(*cards)


@settings(max_examples=40, deadline=None)
@given(_small_scenarios())
@example(Bell(3, 3, 2, 2))
@example(Bell(1, 2, 3, 2))
@example(Instrumental(3, 3, 2))
@example(PrepareMeasure(3, 2, 2, 2))
def test_local_vertices_match_the_per_kind_enumerators(s):
    # vertex order is load-bearing: Member.weights index into it
    assume(math.prod(s.setting_cards) <= 4)
    want = _VERTEX_REFERENCES[type(s)](*dataclasses.astuple(s))
    assert tuple(v.table for v in local_vertices(s)) == want


def test_strategy_diagram_reproduces_the_table():
    s = chsh_scenario()
    rng = random.Random(SEED)
    for _ in range(6):
        fa = {(x, l): rng.randrange(2) for x in range(2) for l in range(2)}
        fb = {(y, l): rng.randrange(2) for y in range(2) for l in range(2)}
        lw = rand_latent(rng)
        d = strategy_diagram(
            s,
            {"A": lambda x, l, fa=fa: fa[(x, l)], "B": lambda y, l, fb=fb: fb[(y, l)]},
            {"L": lw},
        )
        got = correlation_from_channel(s, denote(d))
        want = tabulate(
            s,
            lambda o, c: sum(
                (
                    w
                    for l, w in enumerate(lw)
                    if fa[(c[0], l)] == o[0] and fb[(c[1], l)] == o[1]
                ),
                F(0),
            ),
        )
        assert got.table == want.table


def rand_strategy(rng, s):
    """Seeded random responses, as tables over their parents' values, and
    latent weights of two or three values."""
    dag = s.dag()
    settings, observed, latents = nogo._dag_nodes(dag)
    weights = {}
    for name in latents:
        w = [rng.randint(0, 4) for _ in range(rng.randint(2, 3))]
        w[0] += 1
        weights[name] = tuple(F(x, sum(w)) for x in w)
    cards = dict(zip(settings + observed, s.setting_cards + s.outcome_cards))
    cards.update((name, len(w)) for name, w in weights.items())
    responses = {}
    for name in observed:
        values = iproduct(*(range(cards[p]) for p in dag[name]))
        table = {v: rng.randrange(cards[name]) for v in values}
        responses[name] = lambda *v, table=table: table[v]
    return responses, weights


@pytest.mark.parametrize("kind", list(nogo.SCENARIOS))
def test_strategy_diagram_matches_the_hand_wired_reference(kind):
    rng = random.Random(SEED)
    cls = nogo.SCENARIOS[kind]
    for _ in range(4):
        s = cls(*(rng.randint(2, 3) for _ in cls.card_names()))
        responses, weights = rand_strategy(rng, s)
        d = strategy_diagram(s, responses, weights)
        reference = oracles.strategy_diagram_reference(s, responses, weights)
        assert len(d.boxes) == len(reference.boxes)
        assert diagrams_equal(d, reference)
        assert denote(d) == denote(reference)


def test_strategy_diagram_refuses_what_the_hand_wired_reference_refuses():
    s = chsh_scenario()

    def a(x, l):
        return x

    half = (F(1, 2), F(1, 2))
    for responses, latents, error, match in (
        ({"A": a}, {"L": half}, ConfigError, "one response per observed node"),
        ({"A": a, "B": a}, {}, ConfigError, "one weight tuple per latent node"),
        ({"A": a, "B": a}, {"L": (F(1, 2), F(1, 3))}, WeightError, "must sum to 1"),
        ({"A": a, "B": lambda y, l: 2}, {"L": half}, ValidationError, "B left the outcome"),
    ):
        for build in (strategy_diagram, oracles.strategy_diagram_reference):
            with pytest.raises(error, match=match):
                build(s, responses, latents)


def rand_latent(rng):
    a = F(rng.randint(0, 4), 4)
    return (a, 1 - a)


def test_membership_of_local_mixtures():
    rng = random.Random(SEED + 1)
    verts = local_vertices(chsh_scenario())
    for _ in range(10):
        picks = rng.sample(range(16), 4)
        w = [F(rng.randint(1, 5)) for _ in picks]
        total = sum(w)
        w = [v / total for v in w]
        table = tuple(
            tuple(
                sum(
                    (w[k] * verts[i].table[r][c] for k, i in enumerate(picks)),
                    F(0),
                )
                for c in range(4)
            )
            for r in range(4)
        )
        corr = Correlation(chsh_scenario(), table)
        verdict = fs_compatible(corr, chsh_scenario())
        assert isinstance(verdict, Member)
        assert sum(verdict.weights) == 1
        recombined = [
            sum(
                (
                    verdict.weights[i] * verts[i].table[r][c]
                    for i in range(16)
                ),
                F(0),
            )
            for r in range(4)
            for c in range(4)
        ]
        assert tuple(recombined) == corr.as_vector()
        ok, _ = hull_member(
            [v.as_vector() for v in verts],
            [float(x) for x in corr.as_vector()],
        )
        assert ok


def test_pr_box_is_rejected_with_a_separating_facet():
    corr = pr_box()
    verdict = fs_compatible(corr, chsh_scenario())
    assert isinstance(verdict, NonMember)
    verts = local_vertices(chsh_scenario())
    lhs = sum(
        f * v for f, v in zip(verdict.facet, corr.as_vector())
    )
    assert lhs > verdict.bound
    assert lhs - verdict.bound == verdict.violation
    for v in verts:
        val = sum(f * x for f, x in zip(verdict.facet, v.as_vector()))
        assert val <= verdict.bound
    ok, _ = hull_member(
        [v.as_vector() for v in verts],
        [float(x) for x in corr.as_vector()],
    )
    assert not ok



_MEMBERSHIP_SCENARIOS = (
    Bell(2, 2, 2, 2),
    Bell(2, 3, 2, 2),
    Instrumental(2, 2, 2),
    PrepareMeasure(2, 2, 2, 2),
)


def _pr_block_table(s):
    """A PR box on outcomes 0 and 1 of both nodes, settings folded onto
    it by parity, the first setting as x and the last as y."""
    return tuple(
        tuple(
            F(1, 2) if max(o) < 2 and (o[0] ^ o[1]) == (c[0] % 2) & (c[-1] % 2) else F(0)
            for o in s.outcomes()
        )
        for c in s.contexts()
    )


@st.composite
def _exact_tables(draw):
    """A scenario and an exact table: a local mixture, a local mixture
    with a PR block mixed in, or arbitrary normalized rows."""
    s = draw(st.sampled_from(_MEMBERSHIP_SCENARIOS))
    n_out = len(s.outcomes())
    kind = draw(st.sampled_from(["local", "pr-block", "rows"]))
    if kind == "rows":
        cell = st.integers(0, 4)
        rows = [
            draw(st.lists(cell, min_size=n_out, max_size=n_out).filter(any))
            for _ in s.contexts()
        ]
        return s, tuple(tuple(F(v, sum(row)) for v in row) for row in rows)
    verts = _VERTEX_REFERENCES[type(s)](*dataclasses.astuple(s))
    picks = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(picks), max_size=len(picks)))
    if kind == "pr-block":
        picks.append(_pr_block_table(s))
        weights.append(draw(st.integers(1, 30)))
    total = sum(weights)
    return s, tuple(
        tuple(
            sum((F(w, total) * t[r][c] for w, t in zip(weights, picks)), F(0))
            for c in range(n_out)
        )
        for r in range(len(s.contexts()))
    )


@settings(max_examples=60, deadline=None)
@given(_exact_tables())
@example((chsh_scenario(), pr_box().table))
@example((Instrumental(2, 2, 2), _pr_block_table(Instrumental(2, 2, 2))))
def test_membership_matches_the_fraction_vertex_path(case):
    # the same verdict and the same certificate as the LP over whole
    # Fraction vertex tables, solved by the presolving Fraction reference
    # simplex; the unpresolved one gives the same verdict
    s, table = case
    got = fs_compatible(Correlation(s, table), s)
    verts = _VERTEX_REFERENCES[type(s)](*dataclasses.astuple(s))
    want = oracles.fs_compatible_fraction(table, verts)
    plain = oracles.fs_compatible_fraction(
        table, verts, solve=oracles.feasible_nonneg_fraction_unpresolved
    )
    assert plain[0] == want[0]
    if want[0] == "member":
        assert isinstance(got, Member)
        assert got.weights == want[1]
    else:
        assert isinstance(got, NonMember)
        assert (got.facet, got.bound, got.violation) == want[1:]


def test_bell_4422_verdicts_reverify():
    # the largest Bell scenario in the suite: 256 strategies over 64 cells;
    # both verdicts are checked here against the vertex tables themselves
    s = Bell(4, 4, 2, 2)
    vecs = [v.as_vector() for v in local_vertices(s)]
    assert len(vecs) == 256
    uniform = Correlation(s, [[F(1, 4)] * 4 for _ in s.contexts()])
    member = fs_compatible(uniform, s)
    assert isinstance(member, Member)
    w = member.weights
    assert sum(w) == 1 and min(w) >= 0
    assert tuple(sum(wi * vec[i] for wi, vec in zip(w, vecs)) for i in range(64)) == uniform.as_vector()

    pr = Correlation(s, _pr_block_table(s))
    verdict = fs_compatible(pr, s)
    assert isinstance(verdict, NonMember)
    assert max(sum(f * x for f, x in zip(verdict.facet, vec)) for vec in vecs) == verdict.bound
    pays = sum(f * x for f, x in zip(verdict.facet, pr.as_vector()))
    assert pays - verdict.bound == verdict.violation > 0
    assert [hull_member(vecs, [float(x) for x in c.as_vector()])[0] for c in (uniform, pr)] == [
        True,
        False,
    ]


def _negative_weights():
    # the uniform table is the uniform mixture of the 16 vertices; an
    # affine dependence among them pushes one weight below zero while
    # the weights still sum to 1 and recombine to the table
    vecs = [v.as_vector() for v in local_vertices(chsh_scenario())]
    rows = [[vec[i] for vec in vecs] for i in range(16)] + [[1] * 16]
    dep = nullspace(rows)[0]
    top = max(range(16), key=lambda i: abs(dep[i]))
    t = -F(1, 8) / dep[top]
    w = [F(1, 16) + t * d for d in dep]
    assert sum(w) == 1 and min(w) < 0
    assert all(sum(wi * vec[i] for wi, vec in zip(w, vecs)) == F(1, 4) for i in range(16))
    return w


def _lp_answering(status, payload):
    """A stand-in for the membership LP's integer core, ``exactlp._solve``,
    that answers ``payload``, the Fractions that ``feasible_nonneg`` would
    return for the same table: a Farkas ``y`` as numerators over one
    denominator, and weights ``w`` as the ``x / d`` that ``fs_compatible``
    reads as ``x / (d * b[-1])``, ``b[-1]`` being the table's denominator."""

    def core(a, b):
        nums, den = tensornet.integers(payload)
        if status == "feasible":
            nums = [v * b[-1] for v in nums]
        return status, nums, den

    return core


@pytest.mark.parametrize(
    "weights",
    [lambda: [F(1)] + [F(0)] * 15, _negative_weights],
    ids=["wrong-table", "negative"],
)
def test_bogus_membership_weights_are_not_returned(monkeypatch, weights):
    s = chsh_scenario()
    uniform = Correlation(s, [[F(1, 4)] * 4 for _ in s.contexts()])
    w = weights()
    monkeypatch.setattr(nogo, "_solve", _lp_answering("feasible", w))
    with pytest.raises(EngineError, match="membership weights failed re-verification"):
        fs_compatible(uniform, s)


def test_bogus_separating_facet_is_not_returned(monkeypatch):
    s = chsh_scenario()
    vertex = local_vertices(s)[0]
    for corr, facet in (
        (pr_box(), [F(0)] * 16),
        # a valid inequality that the vertex meets with equality
        (vertex, list(vertex.as_vector())),
        # one that the vertex satisfies strictly
        (vertex, [-v for v in vertex.as_vector()]),
    ):
        y = facet + [F(0)]
        monkeypatch.setattr(nogo, "_solve", _lp_answering("infeasible", y))
        with pytest.raises(EngineError, match="separating facet failed re-verification"):
            fs_compatible(corr, s)


def _mixture(s, picks, ks):
    """The table of the deterministic strategies ``picks`` at weights k / sum(k)."""
    vecs = [local_vertices(s)[i].as_vector() for i in picks]
    total = sum(ks)
    q = [sum(F(k, total) * vec[i] for k, vec in zip(ks, vecs)) for i in range(len(vecs[0]))]
    width = len(s.outcomes())
    return Correlation(s, [q[i : i + width] for i in range(0, len(q), width)])


@pytest.mark.parametrize("shift", ["one-up", "one-down", "one-up-one-down"])
@pytest.mark.parametrize(
    "table",
    [
        lambda: (Bell(2, 3, 2, 2), _mixture(Bell(2, 3, 2, 2), (3, 17, 30), (2, 3, 4))),
        lambda: (Bell(4, 4, 2, 2), Correlation(Bell(4, 4, 2, 2), [[F(1, 4)] * 4] * 16)),
    ],
    ids=["2322-mixture", "4422-uniform"],
)
def test_weights_moved_by_one_unit_fail_reverification(monkeypatch, table, shift):
    # the LP's own weights, over their common denominator den, with entries
    # moved by 1/den: "one-up-one-down" keeps the sum at 1 and every weight
    # nonnegative, so the cell-by-cell recombination alone refuses it
    s, corr = table()
    w = feasible_nonneg(tuple(nogo._strategies(s)[1]), [*corr.as_vector(), 1])[1]
    den = math.lcm(*(v.denominator for v in w))
    support = [i for i, v in enumerate(w) if v]
    up = next(i for i in range(len(w)) if i != support[0])
    moves = {
        "one-up": {up: 1},
        "one-down": {support[0]: -1},
        "one-up-one-down": {up: 1, support[0]: -1},
    }[shift]
    bad = [v + F(moves.get(i, 0), den) for i, v in enumerate(w)]
    assert min(bad) >= 0 and (sum(bad) == 1) == (shift == "one-up-one-down")
    monkeypatch.setattr(nogo, "_solve", _lp_answering("feasible", bad))
    with pytest.raises(EngineError, match="membership weights failed re-verification"):
        fs_compatible(corr, s)
    monkeypatch.setattr(nogo, "_solve", _lp_answering("feasible", w))
    assert fs_compatible(corr, s).weights == tuple(w)


@pytest.mark.parametrize(
    "s, table",
    [(chsh_scenario(), pr_box().table), (Bell(2, 3, 2, 2), _pr_block_table(Bell(2, 3, 2, 2)))],
    ids=["2222-pr", "2322-pr-block"],
)
def test_a_facet_with_one_entry_raised_to_the_edge_fails_reverification(monkeypatch, s, table):
    # raising the facet's entry at a cell the table leaves empty by k lifts
    # the strategies through that cell by k; at k = the table's payment
    # less their best sum the bound meets the payment, violation 0, and
    # half a violation short of that the facet still separates, with the
    # bound and violation it must then have
    corr = Correlation(s, table)
    incidence = nogo._strategies(s)[1]
    # each strategy's (context, outcome) cells, row-major as as_vector
    cells = [np.flatnonzero(col[:-1]).tolist() for col in incidence.T]
    y = feasible_nonneg(tuple(incidence), [*corr.as_vector(), 1])[1]
    got = fs_compatible(corr, s)
    pays = got.bound + got.violation
    i = corr.as_vector().index(0)
    through = max(sum(got.facet[j] for j in cs) for cs in cells if i in cs)

    def raised(k):
        bad = [*y[:i], y[i] + k, *y[i + 1 :]]
        monkeypatch.setattr(nogo, "_solve", _lp_answering("infeasible", bad))
        return fs_compatible(corr, s)

    with pytest.raises(EngineError, match="separating facet failed re-verification"):
        raised(pays - through)
    half = got.violation / 2
    short = raised(pays - through - half)
    assert (short.bound, short.violation) == (pays - half, half)


@pytest.mark.parametrize("p", [2**62 + 135, 2**64 + 13], ids=["2^62+135", "2^64+13"])
def test_weights_over_a_prime_above_two_to_the_62_recombine_in_python_ints(p):
    # a local mixture at weights k / p, p prime: some LP weight must carry p
    # in its denominator, or the recombined table could not, so the weights'
    # common denominator is past the int64 bound and they recombine in
    # Python ints; past 2^64 no int64 could even hold them
    s = chsh_scenario()
    corr = _mixture(s, (0, 5, 10), (1, 2, p - 3))
    got = fs_compatible(corr, s)
    assert isinstance(got, Member)
    assert math.lcm(*(w.denominator for w in got.weights)) >= p
    assert sum(got.weights) == 1


def test_a_facet_scaled_past_int64_keeps_its_bound_and_violation_in_scale(monkeypatch):
    # the LP's own Farkas vector for the PR box times 2^70: the facet's
    # numerators times the contexts pass 2^62, so its bound is taken in
    # Python ints, and bound and violation scale with it
    s = chsh_scenario()
    corr = pr_box()
    got = fs_compatible(corr, s)
    y = feasible_nonneg(tuple(nogo._strategies(s)[1]), [*corr.as_vector(), 1])[1]
    big = [v * 2**70 for v in y]
    m = len(corr.as_vector())
    assert len(s.contexts()) * max(map(abs, tensornet.integers(big[:m])[0])) >= 2**62
    monkeypatch.setattr(nogo, "_solve", _lp_answering("infeasible", big))
    scaled = fs_compatible(corr, s)
    assert scaled.facet == tuple(big[:m])
    assert (scaled.bound, scaled.violation) == (got.bound * 2**70, got.violation * 2**70)


def test_chsh_values():
    assert chsh_value(pr_box()) == 4
    verts = local_vertices(chsh_scenario())
    values = [chsh_value(v) for v in verts]
    assert max(values) == 2
    assert min(values) == -2
    for v in verts:
        assert chsh_value(v) == chsh_of_table(v.table, exact=True)


def test_chsh_needs_the_right_scenario():
    with pytest.raises(WrongScenario):
        chsh_value(local_vertices(Bell(2, 2, 3, 2))[0])


def test_rationalize_renormalizes_each_context():
    rng = random.Random(SEED + 2)
    s = chsh_scenario()
    rows = []
    for _ in range(4):
        vals = [rng.random() for _ in range(4)]
        t = sum(vals)
        rows.append([v / t for v in vals])
    corr = Correlation(s, rows)
    snapped = rationalize(corr)
    assert snapped.is_exact
    for row in snapped.table:
        assert sum(row) == 1
    for r in range(4):
        for c in range(4):
            assert abs(float(snapped.table[r][c]) - rows[r][c]) < 2e-6


@st.composite
def _float_tables(draw):
    """A Bell table of float rows that normalize within 1e-9, some entries
    zero or a hair below it, some rounding to a half at denominator 10^6."""
    s = draw(st.sampled_from([Bell(2, 2, 2, 2), Bell(2, 3, 3, 2)]))
    n_out = len(s.outcomes())
    cell = st.one_of(
        st.floats(0, 1),
        st.just(0.0),
        st.integers(0, 10**6).map(lambda k: (k + 0.5) / 10**6),
    )
    rows = []
    for _ in s.contexts():
        row = draw(st.lists(cell, min_size=n_out, max_size=n_out).filter(lambda r: sum(r) > 0.5))
        total = sum(row)
        row = [v / total for v in row]
        k = draw(st.integers(0, n_out - 1))
        row[k] -= draw(st.sampled_from([0.0, 4e-10]))
        rows.append(row)
    return s, rows


@settings(max_examples=80, deadline=None)
@given(_float_tables())
def test_rationalize_matches_the_fraction_reference(case):
    # integer numerators over their row total give the Fractions that
    # rounding each entry and dividing by the Fraction total gave
    s, rows = case
    corr = Correlation(s, rows)
    assert rationalize(corr).table == oracles.rationalize_reference(corr.table)


def _seeded_float_tables(s, rng):
    """Float tables of the scenario: Born tables of random two-qubit models
    (Bell only), random normalized rows, and float images of local
    mixtures with dyadic weights, which round to themselves."""
    tables = []
    if isinstance(s, Bell):
        for _ in range(4):
            _, _, pm, _ = rand_quantum_bell(rng, s.n_x, s.n_y)
            tables.append(model_correlations(pm).table)
    n_out = len(s.outcomes())
    for _ in range(3):
        rows = [[rng.random() for _ in range(n_out)] for _ in s.contexts()]
        tables.append([[v / sum(row) for v in row] for row in rows])
    verts = _VERTEX_REFERENCES[type(s)](*dataclasses.astuple(s))
    weights = (F(1, 2), F(1, 4), F(1, 4))
    for _ in range(3):
        picks = rng.sample(verts, 3)
        tables.append(
            [
                [float(sum(w * t[r][c] for w, t in zip(weights, picks))) for c in range(n_out)]
                for r in range(len(s.contexts()))
            ]
        )
    return tables


def test_float_membership_matches_the_rounded_fraction_vertex_path():
    # float tables are rationalized, then decided: the same verdict and
    # certificate as the Fraction LP over whole vertex tables on the
    # Fraction rounding of the table
    rng = random.Random(SEED)
    verdicts = set()
    for s in (Bell(2, 2, 2, 2), Bell(2, 3, 2, 2), Instrumental(2, 2, 2)):
        verts = _VERTEX_REFERENCES[type(s)](*dataclasses.astuple(s))
        for table in _seeded_float_tables(s, rng):
            corr = Correlation(s, table)
            assert not corr.is_exact
            rounded = oracles.rationalize_reference(corr.table)
            got = fs_compatible(corr, s)
            want = oracles.fs_compatible_fraction(rounded, verts)
            assert got.correlation.table == rounded
            verdicts.add(want[0])
            if want[0] == "member":
                assert isinstance(got, Member) and got.weights == want[1]
            else:
                assert isinstance(got, NonMember)
                assert (got.facet, got.bound, got.violation) == want[1:]
    assert verdicts == {"member", "nonmember"}


def test_no_signalling_check_flags_signalling():
    s = chsh_scenario()
    good = pr_box()
    assert no_signalling_check(good)
    bad = tabulate(
        s, lambda o, c: F(1) if o == (c[1], 0) else F(0)
    )
    assert signalling_gap(bad.table, 2, 2, 2, 2) > 0
    assert not no_signalling_check(bad)


# ---------------------------------------------------------------------------
# Quantum models


def test_singlet_violates_and_respects_no_signalling():
    rho, meas = singlet_model()
    s = chsh_scenario()
    corr = quantum_correlations(rho, meas, s)
    assert abs(chsh_value(corr) - 2 * 2**0.5) < 1e-9
    assert no_signalling_check(corr)
    verdict = fs_compatible(rationalize(corr), s)
    assert isinstance(verdict, NonMember)


def test_product_model_stays_local():
    rho, meas = product_model()
    s = chsh_scenario()
    corr = quantum_correlations(rho, meas, s)
    verdict = fs_compatible(rationalize(corr), s)
    assert isinstance(verdict, Member)


def test_quantum_tables_match_direct_born_rule():
    rng = random.Random(SEED + 3)
    for _ in range(3):
        rho, (ma, mb), pm, s = rand_quantum_bell(rng)
        corr = model_correlations(pm)
        oracle = born_bell_table(rho, ma, mb)
        for r in range(4):
            for c in range(4):
                assert abs(corr.table[r][c] - oracle[r][c]) < 1e-9
        assert no_signalling_check(corr)


def test_model_correlations_read_the_prediction_bit_for_bit():
    rng = random.Random(SEED + 4)
    pms = [nogo.bell_prediction_map(*singlet_model(), chsh_scenario())]
    pms += [rand_quantum_bell(rng)[2] for _ in range(4)]
    for pm in pms:
        m = predict_closed(bell_template(pm), pm)
        table = model_correlations(pm).table
        assert len(table) == len(m.dom)
        for c, row in enumerate(table):
            assert row == tuple(float(m.entries[o][c]) for o in range(len(m.cod)))


def _bell_models(seed, count):
    """``count`` seeded two-qubit models, half with 2x2 settings, half 3x2."""
    rng = random.Random(seed)
    return [rand_quantum_bell(rng, n_x, 2) for n_x in (2, 3) for _ in range(count // 2)]


def _bits(rows):
    return [[float.hex(v) for v in row] for row in rows]


def test_quantum_tables_keep_the_float_bits_of_the_hand_wired_template(monkeypatch):
    # the template's box order fixes the order of the quantum contraction
    models = _bell_models(SEED + 21, 50)
    for _, _, pm, _ in models:
        d, hand = bell_template(pm), oracles.bell_template_reference(pm)
        assert d.boxes == hand.boxes and set(d.wires) == set(hand.wires)
    tables = [_bits(quantum_correlations(rho, meas, s).table) for rho, meas, _, s in models]
    monkeypatch.setattr(nogo, "bell_template", oracles.bell_template_reference)
    assert tables == [_bits(quantum_correlations(rho, meas, s).table) for rho, meas, _, s in models]


def test_point_atomic_tables_keep_the_bits_of_the_hand_wired_joins(monkeypatch):
    # close_boundary now lists the sources first; the probes must not see it
    models = _bell_models(SEED + 22, 20)
    tables = [optheory.point_atomic_table(bell_template(pm), pm) for _, _, pm, _ in models]
    monkeypatch.setattr(optheory, "close_boundary", oracles.close_boundary_reference)
    for table, (_, _, pm, _) in zip(tables, models):
        assert table == optheory.point_atomic_table(oracles.bell_template_reference(pm), pm)


@pytest.mark.parametrize("where", ["state", "effect"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_quantum_input_is_invalid(where, bad):
    rho, (meas_a, meas_b) = singlet_model()
    if where == "state":
        rho = rho.astype(complex)
        rho[1, 1] = bad
    else:
        meas_a = [list(effects) for effects in meas_a]
        meas_a[0][0] = meas_a[0][0].astype(complex)
        meas_a[0][0][0, 0] = bad
    with pytest.raises(ValidationError, match=f"{where}.* not finite"):
        quantum_correlations(rho, (meas_a, meas_b), chsh_scenario())


def test_bell_template_shape():
    rho, meas = singlet_model()
    pm = nogo.bell_prediction_map(rho, meas, chsh_scenario())
    d = bell_template(pm)
    assert len(d.boxes) == 7
    names = sorted(b.name for b in d.boxes)
    assert names == sorted(
        ["source", "wing A", "wing B", "learn a", "learn b", "drop a", "drop b"]
    )
    assert len(d.input_types) == 2
    assert len(d.output_types) == 2


def test_verdict_bundle_packages_everything():
    rho, meas = singlet_model()
    bundle = verdict_bundle(rho, meas, chsh_scenario())
    assert isinstance(bundle.membership, NonMember)
    assert bundle.no_signalling
    assert abs(bundle.chsh - 2 * 2**0.5) < 1e-9


def test_verdict_bundle_validates_arguments():
    rho, meas = singlet_model()
    with pytest.raises(ConfigError):
        verdict_bundle(rho, meas, None)
    with pytest.raises(ConfigError):
        verdict_bundle(rho, ((), ()), chsh_scenario())


# ---------------------------------------------------------------------------
# Simplex embedding


def test_fragment_validation():
    with pytest.raises(DimensionMismatch):
        GPTFragment(((1, 0),), ((1,),), (1, 1))
    with pytest.raises(ValidationError):
        GPTFragment(((1, 0),), ((2, 0),), (1, 1))


@pytest.mark.parametrize("true", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_in_a_fragment_is_invalid(true):
    # kept as given, the bools would dump as true/false, which load_fragment refuses
    false = not true
    for states, effects, unit in (
        (((true, false), (false, true)), ((1, 0), (0, 1)), (1, 1)),
        (((1, 0),), ((true, 0),), (1, 1)),
        (((1, 0),), ((1, 0),), (true, 1)),
        (((1.0, 0.0),), ((0.5, 0.0),), (true, 1.0)),
    ):
        with pytest.raises(ValidationError, match="a bool, not a number"):
            GPTFragment(states, effects, unit)


@pytest.mark.parametrize(
    "huge", [10**400, F(10**400, 3), -(10**400)], ids=["int", "fraction", "negative"]
)
def test_a_float_fragment_with_an_integer_beyond_float_range_is_invalid(huge):
    # the huge entry meets a float in the unit's and in the effect's pairing
    for states, effects in (
        (((1, huge),), ((0.5, 0),)),
        (((1, 0.0),), ((0.5, huge),)),
    ):
        with pytest.raises(ValidationError, match="beyond float range"):
            GPTFragment(states, effects, (1, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_float_fragment_with_a_non_finite_entry_is_invalid(bad):
    # in a state, in an effect and in the unit: a NaN pays NaN, which
    # passes every tolerance check
    for states, effects, unit in (
        (((1, bad),), ((0.5, 0.0),), (1, 0.0)),
        (((1, 0.0),), ((0.5, bad),), (1, 0.0)),
        (((1, 0.0),), ((0.5, 0.0),), (1, bad)),
    ):
        with pytest.raises(ValidationError, match="not finite"):
            GPTFragment(states, effects, unit)


def test_bit_fragment_embeds_identically():
    frag = classical_bit_fragment()
    res = simplex_embed(frag, lambda_max=2)
    assert isinstance(res, Feasible)
    assert res.size == 2
    assert sorted(res.state_images) == [(0, 1), (1, 0)]
    assert res.unit_image == (1, 1)


def test_stabilizer_octahedron_embeds_at_four():
    frag = qubit_stabilizer_fragment()
    res = simplex_embed(frag, lambda_max=16)
    assert isinstance(res, Feasible)
    assert res.size == 4
    effects = [frag.unit] + list(frag.effects)
    images = [res.unit_image] + list(res.effect_images)
    for e_img, e in zip(images, effects):
        for s_img, w in zip(res.state_images, frag.states):
            got = sum(a * b for a, b in zip(e_img, s_img))
            want = sum(Fraction(a) * Fraction(b) for a, b in zip(e, w))
            assert got == want
    assert simplex_pairs_feasible(frag.states, frag.effects, frag.unit)


def test_hexagon_is_not_simplex_embeddable():
    frag = hexagon_fragment()
    res = simplex_embed(frag, lambda_max=16)
    assert isinstance(res, Infeasible)
    assert res.up_to == 16
    targets = []
    effects = [frag.unit] + list(frag.effects)
    for e in effects:
        for w in frag.states:
            targets.append(
                sum(Fraction(a) * Fraction(b) for a, b in zip(e, w))
            )
    assert len(res.witness) == len(targets)
    assert (
        sum(y * t for y, t in zip(res.witness, targets)) > 0
    )
    assert not simplex_pairs_feasible(frag.states, frag.effects, frag.unit)


def test_float_fragment_uses_slack_and_still_embeds():
    frag = qubit_stabilizer_fragment()
    fl = GPTFragment(
        tuple(tuple(float(v) for v in w) for w in frag.states),
        tuple(tuple(float(v) for v in e) for e in frag.effects),
        tuple(float(v) for v in frag.unit),
    )
    assert not fl.is_exact
    res = simplex_embed(fl, lambda_max=16)
    assert isinstance(res, Feasible)


def _floated(frag):
    return GPTFragment(
        tuple(tuple(float(v) for v in w) for w in frag.states),
        tuple(tuple(float(v) for v in e) for e in frag.effects),
        tuple(float(v) for v in frag.unit),
    )


def test_a_float_hexagon_is_refused_by_the_slack_lp(monkeypatch):
    # the exact rows are infeasible, so a float fragment is solved again
    # with an upper and a lower slack row per pairing
    checked = []

    def recording(rows, rhs, y):
        checked.append((rows, rhs, y))
        return verify_certificate(rows, rhs, y)

    monkeypatch.setattr(nogo, "verify_certificate", recording)
    res = simplex_embed(_floated(hexagon_fragment()))
    assert isinstance(res, Infeasible)
    # 2 slack rows for each of 7 effects (the unit first) on 6 states
    assert len(res.witness) == 84 == 2 * 7 * 6
    ((rows, rhs, y),) = checked
    assert len(rows) == len(rhs) == 84 and tuple(y) == res.witness
    assert verify_certificate(rows, rhs, res.witness)


def _lifted(frag, state_extra, effect_extra):
    """State i gains (state_extra[i], 0) and effect j gains (0, effect_extra[j]).

    The other side never probes the new coordinates, so the pairing
    table, and with it the operational quotient, is unchanged.
    """
    a, b = len(state_extra[0]), len(effect_extra[0])
    return GPTFragment(
        tuple(tuple(s) + tuple(x) + (0,) * b for s, x in zip(frag.states, state_extra)),
        tuple(tuple(e) + (0,) * a + tuple(y) for e, y in zip(frag.effects, effect_extra)),
        tuple(frag.unit) + (0,) * (a + b),
    )


def test_the_lifted_hexagon_is_decided_on_its_pairing_table():
    # state i -> (s_i, u_i, 0), effect j -> (e_j, 0, u_j), the u unit
    # vectors of R^6: the vectors have no dependences left, the table
    # keeps all of the hexagon's
    hexa = hexagon_fragment()
    eye = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    lifted = _lifted(hexa, eye, eye)
    assert lifted.dim == 15
    res = simplex_embed(lifted)
    assert isinstance(res, Infeasible)
    assert res == simplex_embed(hexa)
    assert load_fragment((DATA / "lifted_hexagon.fragment").read_text()) == lifted


def _soft_hexagon():
    """The hexagon with its states halfway to the centre: size 4, rank 3."""
    hexa = hexagon_fragment()
    halved = tuple((s[0], s[1] / 2, s[2] / 2) for s in hexa.states)
    return GPTFragment(halved, hexa.effects, hexa.unit)


_EMBED_BASES = {
    "bit": classical_bit_fragment,
    "hexagon": hexagon_fragment,
    "soft-hexagon": _soft_hexagon,
    "stabilizer": qubit_stabilizer_fragment,
}


def _verdict(res):
    return type(res).__name__, getattr(res, "size", None)


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_EMBED_BASES)), st.data())
def test_unprobed_lifts_keep_the_verdict_and_size(name, data):
    base = _EMBED_BASES[name]()
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    state_extra = [data.draw(st.tuples(*[_SMALL] * a)) for _ in base.states]
    effect_extra = [data.draw(st.tuples(*[_SMALL] * b)) for _ in base.effects]
    lifted = _lifted(base, state_extra, effect_extra)
    assert _verdict(simplex_embed(lifted)) == _verdict(simplex_embed(base))


def _change_coordinates(frag, steps):
    """s -> A s and e -> A^-T e, A the product of elementary steps.

    Step (i, i, c) scales coordinate i by c; step (i, j, c) adds c times
    coordinate i to coordinate j.  Every pairing is kept.
    """
    states = [list(map(F, s)) for s in frag.states]
    effects = [list(map(F, e)) for e in (frag.unit, *frag.effects)]
    for i, j, c in steps:
        for s in states:
            if i == j:
                s[i] *= c
            else:
                s[j] += c * s[i]
        for e in effects:
            if i == j:
                e[i] /= c
            else:
                e[i] -= c * e[j]
    unit, *rest = map(tuple, effects)
    return GPTFragment(tuple(map(tuple, states)), tuple(rest), unit)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_EMBED_BASES)), st.data())
def test_coordinate_changes_keep_the_verdict_and_size(name, data):
    base = _EMBED_BASES[name]()
    d = base.dim
    step = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), _SMALL)
    steps = data.draw(st.lists(step.filter(lambda s: s[0] != s[1] or s[2]), max_size=8))
    moved = _change_coordinates(base, steps)
    assert _verdict(simplex_embed(moved)) == _verdict(simplex_embed(base))


@pytest.mark.parametrize(
    "frag, size",
    [(classical_bit_fragment(), 2), (qubit_stabilizer_fragment(), 4)],
    ids=["bit", "octahedron"],
)
def test_an_exact_embedding_at_the_table_rank_takes_one_lp(monkeypatch, frag, size):
    # the first solution's support already equals the pairing table's
    # rank, which bounds every exact embedding from below: no support
    # can be dropped, so none is tried
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return exactlp._solve(a, b)

    monkeypatch.setattr(nogo, "_solve", counting)
    res = simplex_embed(frag)
    assert isinstance(res, Feasible) and res.size == size
    assert len(calls) == 1


@pytest.mark.parametrize("make", [hexagon_fragment, qubit_stabilizer_fragment])
def test_an_embedding_reads_each_vector_once(monkeypatch, make):
    # the pairing table reads the states as one matrix and the effects, unit
    # first, as another; the pairing re-verification reads the images so,
    # and no number is read twice
    frag = make()
    reads = []

    def counting(rows):
        rows = tuple(map(tuple, rows))
        reads.append(rows)
        return exactlp._ints(rows)

    monkeypatch.setattr(nogo, "_ints", counting)
    monkeypatch.setattr(nogo, "integers", None)
    res = simplex_embed(frag)
    sides = [frag.states, [frag.unit, *frag.effects]]
    if isinstance(res, Feasible):
        sides += [res.state_images, [res.unit_image, *res.effect_images]]
    assert reads == [tuple(map(tuple, side)) for side in sides]


@st.composite
def _pairing_tables(draw):
    """A pairing table, unit row first, exact or of floats in [0, 1]."""
    ne, ns = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    exact = draw(st.booleans())
    entry = st.fractions(0, 1, max_denominator=6) if exact else st.floats(0, 1)
    rows = [[1] * ns] + [[draw(entry) for _ in range(ns)] for _ in range(ne - 1)]
    if ne > 2 and draw(st.booleans()):
        # the complement of an earlier row: one more dependence, with the unit
        rows[-1] = [1 - v for v in rows[draw(st.integers(1, ne - 2))]]
    return rows


@settings(max_examples=100, deadline=None)
@given(_pairing_tables())
def test_response_rays_at_their_unit_value_are_the_polytope_vertices(table):
    # a fragment whose states are the table's columns and whose effects are
    # the unit vectors pairs to the table, snapped as simplex_embed reads
    # floats; read at x_unit = 1, the response rays it enumerates first are
    # the vertices of the response polytope, in value and in order
    ne = len(table)
    units = [tuple(int(i == k) for i in range(ne)) for k in range(ne)]
    frag = GPTFragment(tuple(zip(*table)), tuple(units[1:]), units[0])

    class Enumerated(Exception):
        pass

    def first_call(rows, eqs=()):
        raise Enumerated(cone_extreme_rays(rows, eqs))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nogo, "cone_extreme_rays", first_call)
        with pytest.raises(Enumerated) as stop:
            simplex_embed(frag)
    rays = stop.value.args[0]
    assert all(r[0] > 0 and math.gcd(*r) == 1 for r in rays)
    snapped = [list(nogo._ratvec(row)) for row in table]
    # the dependences among the table's rows: the nullspace of its transpose
    want = oracles.response_vertices_reference(nullspace(list(zip(*snapped))), ne)
    assert [[F(v, r[0]) for v in r] for r in rays] == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2)]), st.data())
def test_an_exact_table_keeps_the_reading_of_its_vector(cards, data):
    # contexts of ints and Fractions, each over a denominator of its own:
    # the kept reading is the one integers gives the whole table, and the
    # reading is neither compared nor printed
    s = Bell(*cards)
    width = len(s.outcomes())
    table = []
    for _ in s.contexts():
        if data.draw(st.booleans()):
            hit = data.draw(st.integers(0, width - 1))
            table.append([int(i == hit) for i in range(width)])
        else:
            ks = data.draw(st.lists(st.integers(0, 6), min_size=width, max_size=width))
            assume(sum(ks))
            table.append([F(k, sum(ks)) for k in ks])
    corr = Correlation(s, table)
    nums, den = corr._reading
    assert (list(nums), den) == tensornet.integers(corr.as_vector())
    assert "_reading" not in repr(corr)
    assert Correlation(s, [[F(v) for v in row] for row in table]) == corr
    assert Correlation(s, [[float(v) for v in row] for row in table])._reading is None


def test_exactness_is_recorded_once():
    # a float fragment keeps its raw entries, which may mix ints,
    # Fractions and floats: the first entry does not decide it
    mixed = GPTFragment(((1, F(1, 2)),), ((F(1, 2), 0.25),), (1, 0))
    assert not mixed.is_exact and mixed.states == ((1, F(1, 2)),)
    assert hexagon_fragment().is_exact
    assert Correlation(chsh_scenario(), [[F(1, 4), 0, 0.5, 0.25]] * 4).is_exact is False
    assert pr_box().is_exact is True
    # the flag is neither compared nor printed: equal tables stay equal
    floats = Correlation(chsh_scenario(), [[0.25] * 4] * 4)
    assert floats == Correlation(chsh_scenario(), [[F(1, 4)] * 4] * 4)
    assert "is_exact" not in repr(floats)


def test_lambda_bounds_checked():
    frag = classical_bit_fragment()
    with pytest.raises(ConfigError):
        simplex_embed(frag, lambda_max=0)
    with pytest.raises(CapExceeded):
        simplex_embed(frag, lambda_max=17)
    with pytest.raises(ConfigError):
        simplex_embed(frag, lambda_max=True)


def test_single_state_fragment_is_trivially_feasible():
    frag = GPTFragment(((1,),), ((1,),), (1,))
    res = simplex_embed(frag, lambda_max=1)
    assert isinstance(res, Feasible)
    assert res.size == 1


@pytest.mark.parametrize("d", [11, 12])
def test_classical_levels_embed_at_their_size(d):
    # point states, their atomic effects and the all-ones unit: a search
    # over the subsets of the response polytope's rows would try
    # C(2d + 1, d - 1) of them, over the default cap from d = 11 on
    eye = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    res = simplex_embed(GPTFragment(eye, eye, (1,) * d))
    assert isinstance(res, Feasible) and res.size == d
    assert sorted(res.state_images) == sorted(eye)
    assert [e_img.index(1) for e_img in res.effect_images] == [
        s_img.index(1) for s_img in res.state_images
    ]


def test_bogus_infeasibility_witness_is_not_returned(monkeypatch):
    def bogus(a, b):
        return "infeasible", [0] * len(a), 1

    monkeypatch.setattr(nogo, "_solve", bogus)
    with pytest.raises(EngineError, match="witness"):
        simplex_embed(classical_bit_fragment(), lambda_max=4)


@pytest.mark.parametrize(
    "floated, delta, refused",
    [
        (False, F(1, 10**12), True),
        (True, F(1, 10**9), False),
        (True, F(1, 10**6), True),
    ],
    ids=["exact-by-1e-12", "float-by-1e-9", "float-by-1e-6"],
)
def test_weights_off_the_pairing_table_fail_reverification(monkeypatch, floated, delta, refused):
    # the bit's LP solution with its first nonzero weight moved by delta:
    # the images then miss the pairing table by a multiple of delta, which
    # an exact fragment refuses outright and a float one beyond 1e-7
    def moved(a, b):
        status, x, d = exactlp._solve(a, b)
        k = next(i for i, v in enumerate(x) if v)
        x = [v * delta.denominator for v in x]
        x[k] += delta.numerator * d
        return status, x, d * delta.denominator

    frag = classical_bit_fragment()
    if floated:
        frag = _floated(frag)
    monkeypatch.setattr(nogo, "_solve", moved)
    if refused:
        with pytest.raises(EngineError, match="embedding failed pairing re-verification"):
            simplex_embed(frag)
    else:
        res = simplex_embed(frag)
        got = [sum(map(mul, e, w)) for e in res.effect_images for w in res.state_images]
        want = [sum(map(mul, e, w)) for e in frag.effects for w in frag.states]
        assert 0 < max(abs(g - t) for g, t in zip(got, want)) <= F(1, 10**7)


@pytest.mark.parametrize(
    "support",
    [((0, 0, 0), (1, 1, 1)), ((0, 0, 1), (0, 1, 0), (1, 0, 0))],
    ids=["ghz", "w"],
)
def test_triangle_tables_get_no_membership_verdict(support):
    # GHZ and W are both incompatible with the triangle; the engine has
    # no exact test for it and must not answer Member
    s = Triangle(2, 2, 2)
    w = F(1, len(support))
    corr = Correlation(s, [[w if o in support else F(0) for o in s.outcomes()]])
    with pytest.raises(WrongScenario, match="not a polytope membership"):
        fs_compatible(corr, s)
    with pytest.raises(WrongScenario):
        local_vertices(s)
