"""Causal scenarios, local polytopes, quantum tables, simplex embedding."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ci_engine import nogo, substoch
from ci_engine.errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    EngineError,
    ValidationError,
    WrongScenario,
)
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


def test_correlation_must_normalize_exactly():
    s = chsh_scenario()
    bad = [[F(1, 2), F(1, 2), F(0), F(1, 4)]] + [[F(1), 0, 0, 0]] * 3
    with pytest.raises(ValidationError):
        Correlation(s, bad)


def test_float_correlation_gets_tolerance():
    s = chsh_scenario()
    row = [0.25 + 3e-10, 0.25, 0.25, 0.25 - 3e-10]
    c = Correlation(s, [row] * 4)
    assert not c.is_exact


def test_correlation_shape_checked():
    s = chsh_scenario()
    with pytest.raises(DimensionMismatch):
        Correlation(s, [[F(1), 0, 0, 0]] * 3)


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
        from ci_engine.fstheory import denote

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


def test_lambda_bounds_checked():
    frag = classical_bit_fragment()
    with pytest.raises(ConfigError):
        simplex_embed(frag, lambda_max=0)
    with pytest.raises(CapExceeded):
        simplex_embed(frag, lambda_max=17)


def test_single_state_fragment_is_trivially_feasible():
    frag = GPTFragment(((1,),), ((1,),), (1,))
    res = simplex_embed(frag, lambda_max=1)
    assert isinstance(res, Feasible)
    assert res.size == 1


def test_bogus_infeasibility_witness_is_not_returned(monkeypatch):
    def bogus(rows, rhs):
        return "infeasible", [F(0)] * len(rows)

    monkeypatch.setattr(nogo, "feasible_nonneg", bogus)
    with pytest.raises(EngineError, match="witness"):
        simplex_embed(classical_bit_fragment(), lambda_max=4)


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
