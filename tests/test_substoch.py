"""Substochastic maps, knowledge states, propositions, partial maps."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ci_engine import fstheory, funcdyn, substoch
from ci_engine.errors import CapExceeded, DimensionMismatch, TypeMismatch, WeightError
from ci_engine.substoch import (
    BOOL,
    KnowledgeState,
    PartialFn,
    Proposition,
    SubstochMap,
    bottom,
    compose_par,
    compose_seq,
    connective,
    connective_diagrammatic,
    convex_mix,
    eval_proposition,
    factorize,
    from_partial_fn,
    identity_map,
    negate,
    negate_diagrammatic,
    point_state,
    product_proposition,
    proposition,
    pullback,
    pullback_effect,
    question_matrix,
    scalar_false,
    scalar_true,
    top,
    top_effect,
    truth_dot,
    uniform_state,
    verify_boolean_laws,
)

from conftest import SEED, rand_carrier, rand_prop, rand_state, rand_substoch
from oracles import all_functions_raw, all_partial_functions_raw, knowledge_sum

CARRIERS = [tuple(range(n)) for n in (1, 2, 3)]


def _rngs(n, base=SEED):
    return [random.Random(base + i) for i in range(n)]


# ---------------------------------------------------------------------------
# Map algebra


def test_rejects_negative_entries():
    with pytest.raises(WeightError):
        SubstochMap((0,), (0,), ((Fraction(-1, 2),),))


def test_rejects_column_mass_above_one():
    with pytest.raises(WeightError):
        SubstochMap((0,), (0, 1), ((Fraction(2, 3),), (Fraction(2, 3),)))


@pytest.mark.parametrize("bad", [True, "1/2", 0.5], ids=["bool", "str", "float"])
def test_only_exact_numbers_are_weights_or_entries(bad):
    m = SubstochMap((0,), (0,), ((Fraction(1, 2),),))
    with pytest.raises(TypeMismatch):
        SubstochMap((0,), (0,), ((bad,),))
    with pytest.raises(TypeMismatch):
        KnowledgeState((0, 1), (bad, Fraction(0)))
    with pytest.raises(TypeMismatch):
        convex_mix((bad,), (m,))


def test_identity_and_composition():
    rng = random.Random(SEED)
    for _ in range(30):
        dom, cod = rand_carrier(rng), rand_carrier(rng)
        m = rand_substoch(rng, dom, cod)
        assert compose_seq(m, identity_map(dom)) == m
        assert compose_seq(identity_map(cod), m) == m


def test_composition_is_associative():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        a, b, c, d = (rand_carrier(rng) for _ in range(4))
        f = rand_substoch(rng, a, b)
        g = rand_substoch(rng, b, c)
        h = rand_substoch(rng, c, d)
        assert compose_seq(h, compose_seq(g, f)) == compose_seq(
            compose_seq(h, g), f
        )


def test_interchange_of_parallel_and_sequential():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        a, b, c = (rand_carrier(rng) for _ in range(3))
        f = rand_substoch(rng, a, b)
        g = rand_substoch(rng, b, c)
        f2 = rand_substoch(rng, c, a)
        g2 = rand_substoch(rng, a, b)
        lhs = compose_seq(compose_par(g, g2), compose_par(f, f2))
        rhs = compose_par(compose_seq(g, f), compose_seq(g2, f2))
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_composition_never_creates_mass(seed):
    rng = random.Random(seed)
    dom, mid, cod = (rand_carrier(rng) for _ in range(3))
    f = rand_substoch(rng, dom, mid)
    g = rand_substoch(rng, mid, cod)
    for col in zip(*compose_seq(g, f).entries):
        assert sum(col) <= 1


# ---------------------------------------------------------------------------
# Knowledge states


def test_state_weights_must_fit():
    with pytest.raises(WeightError):
        KnowledgeState((0, 1), (Fraction(3, 4), Fraction(1, 2)))
    with pytest.raises(DimensionMismatch):
        KnowledgeState((0, 1), (Fraction(1, 2),))


def test_point_uniform_and_top():
    sigma = point_state((0, 1, 2), 1)
    assert sigma.weights == (0, 1, 0)
    u = uniform_state((0, 1, 2))
    assert set(u.weights) == {Fraction(1, 3)}
    t = top_effect((0, 1))
    assert t.entries == ((1, 1),)


def test_convex_mix_weights_columns():
    rng = random.Random(SEED + 5)
    f = rand_substoch(rng, (0, 1), (0, 1))
    g = rand_substoch(rng, (0, 1), (0, 1))
    m = convex_mix((Fraction(1, 3), Fraction(2, 3)), (f, g))
    for r in range(2):
        for c in range(2):
            assert (
                m.entries[r][c]
                == f.entries[r][c] / 3 + 2 * g.entries[r][c] / 3
            )


def test_factorize_splits_stochastic_times_weights():
    rng = random.Random(SEED + 6)
    for _ in range(50):
        m = rand_substoch(rng, rand_carrier(rng), rand_carrier(rng))
        sigma, weights = factorize(m)
        for c in range(len(m.dom)):
            col = [row[c] for row in m.entries]
            assert sum(col) == weights[c]
            scol = [row[c] for row in sigma.entries]
            assert sum(scol) == 1
            for r in range(len(m.cod)):
                assert m.entries[r][c] == sigma.entries[r][c] * weights[c]


# ---------------------------------------------------------------------------
# Propositions and connectives


def test_eval_proposition_is_mass_on_members():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        carrier = rand_carrier(rng)
        sigma = rand_state(rng, carrier)
        pi = rand_prop(rng, carrier)
        oracle = knowledge_sum(
            dict(zip(carrier, sigma.weights)), pi.members()
        )
        assert eval_proposition(sigma, pi) == oracle


def test_connectives_match_truth_tables():
    for carrier in CARRIERS:
        masks = range(1 << len(carrier))
        for ma, mb in itertools.product(masks, repeat=2):
            a = Proposition(carrier, ma)
            b = Proposition(carrier, mb)
            assert set(connective("AND", a, b).members()) == set(
                a.members()
            ) & set(b.members())
            assert set(connective("OR", a, b).members()) == set(
                a.members()
            ) | set(b.members())
            assert set(connective("XOR", a, b).members()) == set(
                a.members()
            ) ^ set(b.members())
            assert set(negate(a).members()) == set(carrier) - set(a.members())


def test_diagrammatic_connectives_agree_with_subset_ones():
    for carrier in CARRIERS:
        masks = range(1 << len(carrier))
        for op in ("AND", "OR", "XOR", "IMPLIES"):
            for ma, mb in itertools.product(masks, repeat=2):
                a = Proposition(carrier, ma)
                b = Proposition(carrier, mb)
                assert connective_diagrammatic(op, a, b) == connective(
                    op, a, b
                )
        for ma in masks:
            a = Proposition(carrier, ma)
            assert negate_diagrammatic(a) == negate(a)


def test_question_matrix_is_the_indicator():
    carrier = (0, 1, 2)
    pi = proposition(carrier, (0, 2))
    q = question_matrix(pi)
    assert q.dom == carrier and q.cod == BOOL
    for c, lab in enumerate(carrier):
        col = tuple(row[c] for row in q.entries)
        assert col == ((1, 0) if lab in pi else (0, 1))


def test_product_proposition_is_the_subset_product():
    a = proposition((0, 1), (1,))
    b = proposition((0, 1, 2), (0, 2))
    p = product_proposition(a, b)
    assert set(p.members()) == {(1, 0), (1, 2)}


def test_boolean_laws_hold_up_to_three():
    report = verify_boolean_laws(max_carrier=3)
    assert report.ok
    assert len(report.results) == len(substoch.LAW_FAMILY_NAMES)
    assert all(passed for _, passed, _ in report.results)


def test_boolean_laws_hold_at_carrier_four():
    report = verify_boolean_laws(max_carrier=4)
    assert report.ok and report.max_carrier == 4
    # two identities over 2^s subsets per variable, s = 1..4: for one, two
    # and three variables 2 * 30, 2 * 340 and 2 * 4680 assignments
    counts = (9360, 680, 60, 60, 9360, 60, 60, 680)
    assert report.results == tuple(
        (name, True, f"{n} assignments") for name, n in zip(substoch.LAW_FAMILY_NAMES, counts)
    )


def _corrupted_or():
    dom = tuple(itertools.product(BOOL, BOOL))
    bad_table = tuple(
        "y" if pair == ("n", "n") else truth_dot("OR")(pair) for pair in dom
    )
    return funcdyn.Fn(dom, BOOL, bad_table)


def test_corrupted_or_dot_is_caught():
    report = verify_boolean_laws(max_carrier=2, dots={"OR": _corrupted_or()})
    assert not report.ok
    # each failing family reports its first failing assignment only
    assert [r for r in report.results if not r[1]] == [
        ("identity", False, "carrier size 1, masks (0,)"),
        ("distributivity", False, "carrier size 1, masks (0, 0, 0)"),
        ("idempotence", False, "carrier size 1, masks (0,)"),
        ("absorption", False, "carrier size 1, masks (0, 0)"),
    ]


@pytest.mark.parametrize("key", ["or", "Or", "NAND", ""])
def test_an_unknown_dot_is_refused(key):
    with pytest.raises(TypeMismatch, match=f"^unknown connective {key!r}$"):
        verify_boolean_laws(max_carrier=2, dots={key: _corrupted_or()})


@pytest.mark.parametrize("bound", [0, -1, True, False, 2.0, "2", None])
@pytest.mark.parametrize(
    "battery", [verify_boolean_laws, fstheory.verify_fs_axioms], ids=["laws", "axioms"]
)
def test_a_battery_refuses_a_carrier_bound_that_is_not_a_positive_int(battery, bound):
    # a bound of 0 would pass every law family over no carrier at all
    with pytest.raises(TypeMismatch, match="^max_carrier must be at least 1$"):
        battery(bound)


@pytest.mark.parametrize(
    "battery, message",
    [
        (verify_boolean_laws, "law verification is capped at carriers of size 4"),
        (fstheory.verify_fs_axioms, "axiom verification is bounded at carrier size 4"),
    ],
    ids=["laws", "axioms"],
)
def test_a_battery_is_capped_above_carrier_four(battery, message):
    with pytest.raises(CapExceeded) as info:
        battery(5)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Partial functions and pullbacks


def test_a_knowledge_state_at_a_label_outside_its_carrier_is_a_type_mismatch():
    sigma = KnowledgeState((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(TypeMismatch, match="^2 is not in the carrier$"):
        sigma(2)


def test_a_proposition_asked_for_a_label_outside_its_carrier_is_a_type_mismatch():
    prop = Proposition((0, 1), 0b01)
    assert 0 in prop and 1 not in prop
    with pytest.raises(TypeMismatch, match="^'x' is not in the carrier$"):
        "x" in prop


def test_a_partial_function_at_a_label_outside_its_domain_is_a_type_mismatch():
    f = PartialFn((0, 1), ("*",), ("*", None))
    with pytest.raises(TypeMismatch, match="^2 is not in the domain$"):
        f(2)


def test_a_partial_function_asked_where_it_is_defined_outside_its_domain_is_a_type_mismatch():
    f = PartialFn((0, 1), ("*",), ("*", None))
    assert f.defined_at(0) and not f.defined_at(1)
    with pytest.raises(TypeMismatch, match="^2 is not in the domain$"):
        f.defined_at(2)


def _partials(dom, cod):
    for raw in all_partial_functions_raw(dom, cod):
        yield PartialFn(dom, cod, tuple(raw.get(x) for x in dom))


def test_decompose_recovers_the_partial_map():
    for dom in CARRIERS[:2]:
        for cod in CARRIERS[:2]:
            for f in _partials(dom, cod):
                chi, total = f.decompose()
                rebuilt = tuple(
                    total(x) if x in chi else None for x in dom
                )
                assert rebuilt == f.table


def test_partial_matrix_has_unit_columns_on_domain():
    for f in _partials((0, 1, 2), (0, 1)):
        m = from_partial_fn(f)
        for c, x in enumerate(f.dom):
            col = [row[c] for row in m.entries]
            assert sum(col) == (1 if f.defined_at(x) else 0)


def test_a_total_function_fills_every_column_even_at_the_label_none():
    m = substoch.from_fn(funcdyn.Fn((0, 1), (None, 1), (None, 1)))
    assert m.is_stochastic()
    assert m.entries == ((1, 0), (0, 1))
    partial = from_partial_fn(PartialFn((0, 1), (None, 1), (None, 1)))
    assert partial.entries == ((0, 0), (0, 1))


def test_scalars():
    assert scalar_true().entries == ((1,),)
    assert scalar_false().entries == ((0,),)


def test_pullback_is_the_preimage():
    for dom in CARRIERS:
        for cod in CARRIERS:
            for raw in all_functions_raw(dom, cod):
                f = funcdyn.Fn(dom, cod, tuple(raw[x] for x in dom))
                for mask in range(1 << len(cod)):
                    pi = Proposition(cod, mask)
                    got = pullback(f, pi)
                    expect = {x for x in dom if raw[x] in pi}
                    assert set(got.members()) == expect


def test_pullback_effect_preserves_bottom_join_meet():
    for dom in CARRIERS:
        for cod in CARRIERS:
            for f in _partials(dom, cod):
                assert pullback_effect(f, bottom(cod)).mask == 0
                for ma, mb in itertools.product(
                    range(1 << len(cod)), repeat=2
                ):
                    a = Proposition(cod, ma)
                    b = Proposition(cod, mb)
                    assert pullback_effect(
                        f, connective("OR", a, b)
                    ) == connective(
                        "OR", pullback_effect(f, a), pullback_effect(f, b)
                    )
                    assert pullback_effect(
                        f, connective("AND", a, b)
                    ) == connective(
                        "AND", pullback_effect(f, a), pullback_effect(f, b)
                    )


def test_pullback_effect_top_detects_partiality():
    dom, cod = (0, 1, 2), (0, 1)
    for f in _partials(dom, cod):
        got = pullback_effect(f, top(cod))
        assert got == f.defined_set()
        if len(got.members()) < len(dom):
            assert got != top(dom)
        else:
            assert got == top(dom)
