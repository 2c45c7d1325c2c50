"""Knowledge generators, denotation, normal forms, axioms, realism."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ci_engine import diagrams, errors, fileformat, fstheory, funcdyn, optheory, substoch
from ci_engine.diagrams import (
    CAUSAL,
    Diagram,
    causal_system,
    compose_parallel,
    compose_sequential,
    from_box,
    identity,
)
from ci_engine.errors import (
    CapExceeded,
    MissingXi,
    NotCausallyClosed,
    PairNotEquivalent,
    SignatureMismatch,
)
from ci_engine.fstheory import (
    NormalForm,
    RealistRep,
    bundle_carrier,
    apply_representation,
    denote,
    effect_box,
    embedded,
    ignore,
    inferentially_equivalent,
    is_leibnizian,
    knowledge_box,
    normal_form,
    predict,
    prop_gain,
    quotient_normal_form,
    reconstruct,
    state_box,
    verify_fs_axioms,
)

from conftest import (
    SEED,
    rand_carrier,
    rand_classical_pm,
    rand_classical_rep,
    rand_fs_diagram,
    rand_prop,
    rand_state,
    rand_substoch,
    rand_system,
    relist_boxes,
)
from oracles import (
    apply_representation_reference,
    ignore_array_reference,
    knowledge_array_reference,
    prop_gain_array_reference,
    reconstruct_reference,
)

BIT = causal_system((0, 1))
F = Fraction
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def _apply_known(code, ins, outs):
    """Knowledge box with point knowledge at one function code."""
    kb = knowledge_box(ins, outs)
    hom = kb.ins[0].carrier
    st = state_box(substoch.point_state(hom, code))
    wires = [(("box", 0, 0), ("box", 1, 0))]
    wires += [(("in", i), ("box", 1, i + 1)) for i in range(len(ins))]
    wires += [(("box", 1, j), ("out", j)) for j in range(len(outs))]
    return Diagram((st, kb), tuple(wires), tuple(ins), tuple(outs))


def test_knowledge_point_acts_as_the_coded_function():
    for n_in in (1, 2):
        for n_out in (1, 2):
            dom = tuple(range(n_in + 1))
            cod = tuple(range(n_out + 1))
            ins = (causal_system(dom),)
            outs = (causal_system(cod),)
            for code in range(funcdyn.homset_size(dom, cod)):
                d = _apply_known(code, ins, outs)
                f = funcdyn.hom_unindex(code, dom, cod)
                assert denote(d) == substoch.from_fn(f)


def test_knowledge_mixture_averages_functions():
    dom = (0, 1)
    kb = knowledge_box((causal_system(dom),), (causal_system(dom),))
    hom = kb.ins[0].carrier
    w = (F(1, 2), 0, 0, F(1, 2))
    st = state_box(substoch.KnowledgeState(hom, w))
    d = Diagram(
        (st, kb),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("in", 0), ("box", 1, 1)),
            (("box", 1, 0), ("out", 0)),
        ),
        (causal_system(dom),),
        (causal_system(dom),),
    )
    m = denote(d)
    mix = substoch.convex_mix(
        (F(1, 2), F(1, 2)),
        (
            substoch.from_fn(funcdyn.hom_unindex(0, dom, dom)),
            substoch.from_fn(funcdyn.hom_unindex(3, dom, dom)),
        ),
    )
    assert m == mix


def test_prop_gain_copies_into_the_record():
    d = from_box(prop_gain(BIT))
    m = denote(d)
    copy = substoch.from_fn(funcdyn.copy_fn((0, 1)))
    assert m == copy


def test_ignore_is_marginalization():
    d = from_box(ignore(BIT))
    assert denote(d) == substoch.top_effect((0, 1))


def test_state_and_effect_boxes():
    rng = random.Random(SEED)
    sigma = rand_state(rng, (0, 1, 2))
    pi = rand_prop(rng, (0, 1, 2))
    assert denote(from_box(state_box(sigma))) == sigma.as_map()
    assert denote(from_box(effect_box(pi))) == pi.as_effect_map()


def test_predict_requires_causal_closure():
    with pytest.raises(NotCausallyClosed):
        predict(from_box(prop_gain(BIT)))


def test_predict_closed_scalar_is_the_member_mass():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        carrier = rand_carrier(rng)
        sigma = rand_state(rng, carrier)
        pi = rand_prop(rng, carrier)
        d = compose_sequential(
            from_box(state_box(sigma)), from_box(effect_box(pi))
        )
        val = predict(d)
        assert val.entries[0][0] == substoch.eval_proposition(sigma, pi)


def test_equivalence_needs_matching_boundaries():
    d1 = from_box(state_box(substoch.point_state((0, 1), 0)))
    d2 = from_box(state_box(substoch.point_state((0, 1, 2), 0)))
    with pytest.raises(SignatureMismatch):
        inferentially_equivalent(d1, d2)


def _mixture_of_codes(weights_by_code, dom, cod, tag):
    kb = knowledge_box(
        (causal_system(dom),), (causal_system(cod),), name=f"cook {tag}"
    )
    hom = kb.ins[0].carrier
    w = tuple(weights_by_code.get(i, F(0)) for i in hom)
    st = state_box(substoch.KnowledgeState(hom, w), name=tag)
    return Diagram(
        (st, kb),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("in", 0), ("box", 1, 1)),
            (("box", 1, 0), ("out", 0)),
        ),
        (causal_system(dom),),
        (causal_system(cod),),
    )


def test_constant_and_reversible_mixtures_coincide():
    bit = (0, 1)
    consts = _mixture_of_codes({0: F(1, 2), 3: F(1, 2)}, bit, bit, "consts")
    revs = _mixture_of_codes({1: F(1, 2), 2: F(1, 2)}, bit, bit, "revs")
    assert not diagrams.diagrams_equal(consts, revs)
    assert inferentially_equivalent(consts, revs)
    half = F(1, 2)
    assert denote(consts).entries == ((half, half), (half, half))


def test_normal_form_agrees_with_denotation():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        d = rand_fs_diagram(rng)
        nf = normal_form(d)
        m = denote(d)
        assert nf.matrix == m
        rebuilt = reconstruct(nf)
        assert rebuilt.input_types == d.input_types
        assert rebuilt.output_types == d.output_types
        assert denote(rebuilt) == m


def _rand_normal_form(rng):
    """A normal form over a random boundary of up to three systems a side,
    causal and inferential interleaved, with a random matrix."""
    ins, outs = (
        tuple(rand_system(rng) for _ in range(rng.randint(0, 3))) for _ in range(2)
    )

    def split(types):
        kinds = [t.kind == CAUSAL for t in types]
        return tuple(k for k, c in enumerate(kinds) if not c), tuple(k for k, c in enumerate(kinds) if c)

    (ii, ic), (oi, oc) = split(ins), split(outs)
    dom = bundle_carrier([ins[k] for k in ii + ic])
    cod = bundle_carrier([outs[k] for k in oi + oc])
    return NormalForm(rand_substoch(rng, dom, cod), ins, outs, ii, ic, oi, oc)


def test_reconstruct_matches_the_hand_wired_reference():
    rng = random.Random(SEED + 7)
    forms = [_rand_normal_form(rng) for _ in range(150)]
    for name in ("omelette_constants", "omelette_reversible"):
        d, _ = fileformat.load_diagram((DATA / f"{name}.diagram").read_text())
        forms.append(normal_form(d))
    for nf in forms:
        rebuilt, reference = reconstruct(nf), reconstruct_reference(nf)
        assert len(rebuilt.boxes) == len(reference.boxes)
        assert diagrams.diagrams_equal(rebuilt, reference)
        assert denote(rebuilt) == denote(reference) == nf.matrix


def test_quotient_normal_form_factorizes():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        d = rand_fs_diagram(rng)
        sigma, pi = quotient_normal_form(d)
        assert substoch.compose_seq(sigma, pi) == denote(d)
        for c in range(len(sigma.dom)):
            assert sum(row[c] for row in sigma.entries) == 1
        for r, row in enumerate(pi.entries):
            for c, v in enumerate(row):
                if r != c:
                    assert v == 0


def test_axioms_pass_at_carrier_two():
    report = verify_fs_axioms(max_carrier=2)
    assert report.ok
    assert len(report.results) == len(fstheory.AXIOM_NAMES)
    for line in report.lines():
        assert line.startswith("PASS")


_knowledge_array = fstheory._knowledge_array
_prop_gain_array = fstheory._prop_gain_array
_ignore_array = fstheory._ignore_array


def _ignore_first_label_dropped(n):
    arr = _ignore_array(n).copy()
    arr[0] = 0
    return arr


@pytest.mark.parametrize(
    "name, corrupt, max_carrier, failures",
    [
        (
            "_knowledge_array",
            lambda *sizes: np.roll(_knowledge_array(*sizes), 1, axis=0),
            2,
            [
                "FAIL sequential-knowledge-composition (failed at carrier sizes (1, 2, 2))",
                "FAIL parallel-knowledge-composition (failed at carrier sizes (1, 2, 1, 2))",
                "FAIL knowledge-propagates-through-dynamics (failed at carrier sizes (1, 2))",
                "FAIL causal-identity-factorization (failed at carrier size 2)",
            ],
        ),
        (
            "_prop_gain_array",
            lambda n: np.roll(_prop_gain_array(n), 1, axis=1),
            2,
            [
                "FAIL parallel-learning-merges (failed at carrier sizes (2, 2))",
                "FAIL knowledge-propagates-through-dynamics (failed at carrier sizes (1, 2))",
                "FAIL causal-identity-factorization (failed at carrier size 2)",
            ],
        ),
        (
            "_ignore_array",
            _ignore_first_label_dropped,
            2,
            [
                "FAIL composite-ignore-splits (failed at carrier sizes (1, 2))",
                "FAIL ignorability (failed at carrier sizes (1, 2))",
                "FAIL causal-identity-factorization (failed at carrier size 1)",
                "FAIL closure-detects-stochasticity (total closure not stochastic at (1, 2))",
            ],
        ),
        # corrupted at size 3 only: each axiom passes its smaller instances
        # first, and must report its first failure, not a count
        (
            "_prop_gain_array",
            lambda n: np.roll(_prop_gain_array(n), 1, axis=1) if n == 3 else _prop_gain_array(n),
            3,
            [
                "FAIL parallel-learning-merges (failed at carrier sizes (2, 3))",
                "FAIL knowledge-propagates-through-dynamics (failed at carrier sizes (1, 3))",
                "FAIL causal-identity-factorization (failed at carrier size 3)",
            ],
        ),
    ],
    ids=[
        "knowledge-output-rolled",
        "learning-record-rolled",
        "ignore-drops-a-label",
        "learning-record-rolled-at-size-three",
    ],
)
def test_a_corrupted_generator_fails_the_axioms_that_use_it(
    monkeypatch, name, corrupt, max_carrier, failures
):
    monkeypatch.setattr(fstheory, name, corrupt)
    report = verify_fs_axioms(max_carrier=max_carrier)
    assert not report.ok
    assert [line for line in report.lines() if line.startswith("FAIL")] == failures


def test_the_driver_stops_an_axiom_at_its_first_failure(monkeypatch):
    calls, drawn = [], []

    def fails_third(mc, seed):
        calls.append((mc, seed))
        for k, detail in enumerate([None, None, "first failure", None, "second failure"]):
            drawn.append(k)
            yield detail

    def holds(mc, seed):
        calls.append((mc, seed))
        yield from [None] * mc

    battery = (("fails-third", fails_third, "things"), ("holds", holds, "sizes"))
    monkeypatch.setattr(fstheory, "_AXIOM_CHECKS", battery)
    report = verify_fs_axioms(max_carrier=2, seed=5)
    assert report.results == (("fails-third", False, "first failure"), ("holds", True, "2 sizes"))
    assert drawn == [0, 1, 2]
    assert calls == [(2, 5), (2, 5)]


def test_axiom_details_at_carrier_one():
    report = verify_fs_axioms(max_carrier=1)
    assert report.ok
    assert [detail for _, _, detail in report.results] == [
        "1 size triples",
        "1 size tuples",
        "5 matrices",
        "1 sizes",
        "1 sizes",
        "1 size pairs",
        "1 size pairs",
        "1 hom pairs",
        "1 hom pairs",
        "1 sizes",
        "0 hom pairs",
    ]


def test_axiom_checks_depend_on_seed_only_for_spot_checks():
    r1 = verify_fs_axioms(max_carrier=2, seed=1)
    r2 = verify_fs_axioms(max_carrier=2, seed=1)
    assert r1 == r2


def test_embedded_names_are_content_addressed():
    rng = random.Random(SEED + 4)
    m = rand_substoch(rng, (0, 1), (0, 1))
    b1 = embedded(m)
    b2 = embedded(m)
    assert b1.name == b2.name
    assert b1.name.startswith("m#")
    other = embedded(rand_substoch(rng, (0, 1), (0, 1, 2)))
    assert other.name != b1.name


# ---------------------------------------------------------------------------
# Realist representations


def _coin_model():
    bit = causal_system((0, 1))
    prep = optheory.ProcedureDecl(
        "prep0", (), (bit,), substoch.SubstochMap(("*",), (0, 1), ((1,), (0,)))
    )
    ident = optheory.ProcedureDecl(
        "id", (bit,), (bit,), substoch.from_fn(funcdyn.identity_fn((0, 1)))
    )
    flip = optheory.ProcedureDecl(
        "flip",
        (bit,),
        (bit,),
        substoch.from_fn(funcdyn.Fn((0, 1), (0, 1), (1, 0))),
    )
    return optheory.PredictionMap((prep, ident, flip)), bit


def _coin_rep(pm, bit):
    prep_hom = funcdyn.hom_carrier(("*",), (0, 1))
    dyn_hom = funcdyn.hom_carrier((0, 1), (0, 1))
    xi_prep = substoch.SubstochMap(
        pm.alphabet((), (bit,)),
        prep_hom,
        tuple((F(1) if r == 0 else F(0),) for r in range(len(prep_hom))),
    )
    alpha = pm.alphabet((bit,), (bit,))
    cols = {"id": 1, "flip": 2}
    xi_dyn = substoch.SubstochMap(
        alpha,
        dyn_hom,
        tuple(
            tuple(F(1) if cols[a] == r else F(0) for a in alpha)
            for r in range(len(dyn_hom))
        ),
    )
    return RealistRep(
        {bit: (0, 1)},
        {((), (bit,)): xi_prep, ((bit,), (bit,)): xi_dyn},
    )


def _measure_after(pm, bit, name):
    d = optheory.procedure_diagram(pm, "prep0")
    d = compose_sequential(d, optheory.procedure_diagram(pm, name))
    d = compose_sequential(d, from_box(prop_gain(bit)))
    d = compose_sequential(
        d, compose_parallel(from_box(ignore(bit)), identity(d.output_types[1:]))
    )
    return d


def test_representation_reproduces_predictions():
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    for name in ("id", "flip"):
        d = _measure_after(pm, bit, name)
        image = apply_representation(rep, d)
        assert predict(image) == optheory.predict_closed(d, pm)


@pytest.mark.parametrize("name", ["prep0", "id", "flip"])
def test_a_procedure_box_has_the_image_of_point_knowledge_of_it(name):
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    boxed = apply_representation(rep, from_box(optheory.procedure_box(pm, name)))
    known = apply_representation(rep, optheory.procedure_diagram(pm, name))
    assert diagrams.diagrams_equal(boxed, known)
    assert denote(boxed) == denote(known)


def test_missing_xi_is_reported():
    # the refusal names the signature it looked up, causal inputs to
    # outputs by kind and carrier, and the box, as the reference does
    pm, bit = _coin_model()
    xi = _coin_rep(pm, bit).xi
    d = _measure_after(pm, bit, "id")
    for entries, sig in (
        ({}, "[] -> [causal (0, 1)]"),
        ({((), (bit,)): xi[(), (bit,)]}, "[causal (0, 1)] -> [causal (0, 1)]"),
    ):
        rep = RealistRep({bit: (0, 1)}, entries)
        want = f"no xi entry for the signature {sig} of box 'do'"
        for apply in (apply_representation, apply_representation_reference):
            with pytest.raises(MissingXi) as raised:
                apply(rep, d)
            assert str(raised.value) == want


def _op_pieces(rng, pm, a, b):
    """Small open operational diagrams over the classical model ``pm``:
    fixed procedures as boxes and as point knowledge, open knowledge of
    the procedures, learning, ignoring, a bare wire and an embedded box."""
    pieces = [identity((a,))]
    for decl in pm.decls:
        pieces.append(from_box(optheory.procedure_box(pm, decl.name)))
        pieces.append(optheory.procedure_diagram(pm, decl.name))
        pieces.append(from_box(optheory.op_knowledge_box(pm, decl.ins, decl.outs)))
    for t in (a, b):
        pieces += [from_box(prop_gain(t)), from_box(ignore(t))]
    record = fstheory.record_system(b)
    m = rand_substoch(rng, b.carrier, b.carrier)
    pieces.append(from_box(embedded(m, in_types=(record,), out_types=(record,))))
    return pieces


def _rand_op_diagram(rng, pm, a, b):
    pieces = _op_pieces(rng, pm, a, b)
    d = rng.choice(pieces)
    for _ in range(rng.randint(0, 2)):
        fits = [p for p in pieces if p.input_types == d.output_types]
        if fits and rng.random() < 0.6:
            d = compose_sequential(d, rng.choice(fits))
        else:
            d = compose_parallel(d, rng.choice(pieces))
    return d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_the_image_matches_the_hand_wired_reference(seed):
    rng = random.Random(seed)
    pm, a, b = rand_classical_pm(rng)
    rep = rand_classical_rep(rng, pm)
    d = _rand_op_diagram(rng, pm, a, b)
    image = apply_representation(rep, d)
    reference = apply_representation_reference(rep, d)
    assert diagrams.diagrams_equal(image, reference)
    assert denote(image) == denote(reference)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_the_image_of_a_composite_is_the_composite_of_the_images(seed):
    rng = random.Random(seed)
    pm, a, b = rand_classical_pm(rng)
    rep = rand_classical_rep(rng, pm)
    pieces = _op_pieces(rng, pm, a, b)
    first, other = rng.choice(pieces), rng.choice(pieces)
    fits = [p for p in pieces if p.input_types == first.output_types]
    second = rng.choice(fits or [identity(first.output_types)])

    def image(d):
        return apply_representation(rep, d)

    assert diagrams.diagrams_equal(
        image(compose_sequential(first, second)),
        compose_sequential(image(first), image(second)),
    )
    assert diagrams.diagrams_equal(
        image(compose_parallel(first, other)),
        compose_parallel(image(first), image(other)),
    )


def test_a_loaded_diagram_with_its_boxes_listed_in_reverse_has_the_same_image():
    d, pm = fileformat.load_diagram((DATA / "coin_dynamics.diagram").read_text())
    rep = fileformat.load_rep((DATA / "bit_flip.rep").read_text(), pm)
    reverse = relist_boxes(d, range(len(d.boxes))[::-1])
    image = apply_representation(rep, reverse)
    assert diagrams.diagrams_equal(image, apply_representation(rep, d))
    assert diagrams.diagrams_equal(image, apply_representation_reference(rep, reverse))
    assert predict(image) == optheory.predict_closed(d, pm)


def test_leibnizian_on_equivalent_pair():
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    kb = optheory.op_knowledge_box(pm, (bit,), (bit,))
    sure = state_box(
        substoch.point_state(kb.ins[0].carrier, "id"), name="surely id"
    )
    via_kb = Diagram(
        (sure, kb),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("in", 0), ("box", 1, 1)),
            (("box", 1, 0), ("out", 0)),
        ),
        (bit,),
        (bit,),
    )
    base = optheory.procedure_diagram(pm, "prep0")
    tail = from_box(prop_gain(bit))
    cap = from_box(ignore(bit))

    def finish(mid):
        d = compose_sequential(base, mid)
        d = compose_sequential(d, tail)
        return compose_sequential(
            d, compose_parallel(cap, identity(d.output_types[1:]))
        )

    d1 = finish(via_kb)
    d2 = finish(optheory.procedure_diagram(pm, "id"))
    assert is_leibnizian(rep, ((d1, d2),), pm=pm)


def test_vetting_rejects_inequivalent_pairs():
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    d1 = _measure_after(pm, bit, "id")
    d2 = _measure_after(pm, bit, "flip")
    with pytest.raises(PairNotEquivalent):
        is_leibnizian(rep, ((d1, d2),), pm=pm)


def test_vetting_follows_the_agreement_rule(monkeypatch):
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    d = _measure_after(pm, bit, "id")
    assert is_leibnizian(rep, ((d, d),), pm=pm)
    monkeypatch.setattr(
        optheory, "agree", lambda p1, p2, backend: (substoch.max_gap(p1, p2), False)
    )
    with pytest.raises(PairNotEquivalent):
        is_leibnizian(rep, ((d, d),), pm=pm)


def test_unvetted_divergent_images_report_false():
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    d1 = _measure_after(pm, bit, "id")
    d2 = _measure_after(pm, bit, "flip")
    assert not is_leibnizian(rep, ((d1, d2),))


def test_rep_image_carriers():
    pm, bit = _coin_model()
    rep = _coin_rep(pm, bit)
    assert rep.image(bit).carrier == (0, 1)


_KIND_SYSTEMS = {
    "classical": causal_system((0, 1)),
    "causal-nonclassical": causal_system((0, 1), classical=False),
    "quantum": diagrams.quantum_system("q", 2),
}

# What each generator and representation does with each kind of system:
# None for acceptance, else the error type and its whole message.
_KIND_REFUSALS = {
    "record_system": (
        lambda t: fstheory.record_system(t),
        (errors.TypeMismatch, "a record needs a classical enumerated carrier"),
    ),
    "knowledge_box": (
        lambda t: knowledge_box((t,), (t,)),
        (errors.TypeMismatch, "an application box needs a classical enumerated carrier"),
    ),
    "prop_gain": (
        prop_gain,
        (errors.PropositionOnNonclassical, "only classical systems support learning their value"),
    ),
    "denote": (
        lambda t: denote(identity((t,))),
        (errors.TypeMismatch, "denotation needs a classical enumerated carrier"),
    ),
    "matrix-procedure": (
        lambda t: optheory.ProcedureDecl("p", (t,), (t,), substoch.identity_map((0, 1))),
        (errors.TypeMismatch, "matrix semantics fit classical signatures only"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_KIND_SYSTEMS))
@pytest.mark.parametrize("op", sorted(_KIND_REFUSALS))
def test_only_classical_systems_pass_the_classical_gates(kind, op):
    t = _KIND_SYSTEMS[kind]
    call, (error, message) = _KIND_REFUSALS[op]
    if kind == "classical":
        call(t)
    else:
        with pytest.raises(error, match=f"^{message}$"):
            call(t)


@pytest.mark.parametrize("kind", sorted(_KIND_SYSTEMS))
def test_ontic_entries_and_images_follow_the_classical_flag(kind):
    t = _KIND_SYSTEMS[kind]
    if kind == "classical":
        # a classical system is its own image and keeps its carrier
        assert RealistRep({}, {}).image(t) is t
        with pytest.raises(
            errors.CarrierMismatch,
            match="^a classical system keeps its own carrier as ontic carrier$",
        ):
            RealistRep({t: (0, 1, 2)}, {})
    else:
        with pytest.raises(MissingXi, match="^no ontic carrier declared for system "):
            RealistRep({}, {}).image(t)
        assert RealistRep({t: (0, 1, 2)}, {}).image(t) == causal_system((0, 1, 2))


def test_a_classical_abstract_carrier_is_refused():
    with pytest.raises(errors.TypeMismatch, match="^an abstract carrier cannot be classical$"):
        diagrams.SystemType(diagrams.CAUSAL, diagrams.Abstract("q", 2), True)


def test_an_inferential_abstract_carrier_is_refused():
    with pytest.raises(errors.TypeMismatch, match="^inferential systems are classical$"):
        diagrams.SystemType(diagrams.INFERENTIAL, diagrams.Abstract("x", 2), False)
    # a classical abstract carrier is refused for that first, whatever its kind
    with pytest.raises(errors.TypeMismatch, match="^an abstract carrier cannot be classical$"):
        diagrams.SystemType(diagrams.INFERENTIAL, diagrams.Abstract("x", 2), True)


def test_knowledge_tensor_cap_is_checked_before_allocation(monkeypatch):
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    bit = causal_system((0, 1))
    kb = knowledge_box((bit, bit, bit), (bit,))  # 256 hom codes: within the cap

    def no_allocation(*args, **kwargs):
        raise AssertionError("tensor allocated before the cap check")

    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(np, "indices", no_allocation)
    with pytest.raises(CapExceeded):
        fstheory.generator_tensor(kb)  # 2 x 256 x 8 = 4096 cells


def test_learning_tensor_cap_is_checked_before_allocation(monkeypatch):
    monkeypatch.delenv("CI_ENGINE_CAP", raising=False)
    pg = prop_gain(causal_system(tuple(range(1000))))

    def no_allocation(n):
        raise AssertionError(f"a {n} x {n} x {n} tensor was built before the cap check")

    monkeypatch.setattr(fstheory, "_prop_gain_array", no_allocation)
    with pytest.raises(CapExceeded) as info:
        fstheory.generator_tensor(pg)
    assert str(info.value) == "generator tensor of 1000000000 cells exceeds the cap"


@pytest.mark.parametrize(
    "make",
    [lambda s: knowledge_box((s,), (s,)), prop_gain, ignore],
    ids=["knowledge", "learn", "ignore"],
)
def test_cached_generator_tensors_are_read_only(make):
    t = fstheory.generator_tensor(make(causal_system((0, 1, 2))))
    with pytest.raises(ValueError):
        t.num[(0,) * t.num.ndim] = 5


def test_cached_generator_tensors_match_a_fresh_build(monkeypatch):
    boxes = []
    build = fstheory.generator_tensor

    def recording(box):
        boxes.append(box)
        return build(box)

    monkeypatch.setattr(fstheory, "generator_tensor", recording)
    assert verify_fs_axioms(3).ok
    shapes = set()
    for box in boxes:
        p = box.payload
        if isinstance(p, fstheory.GenKnowledge):
            n_in = math.prod(t.size for t in p.in_systems)
            n_out = math.prod(t.size for t in p.out_systems)
            want = knowledge_array_reference(n_in, n_out)
        elif isinstance(p, fstheory.GenPropGain):
            want = prop_gain_array_reference(p.system.size)
        elif isinstance(p, fstheory.GenIgnore):
            want = ignore_array_reference(p.system.size)
        else:
            continue
        sizes = tuple(t.size for t in box.outs + box.ins)
        got = build(box)
        assert got.den == 1 and got.num.dtype == np.int64 and got.shape == sizes
        assert np.array_equal(got.num, want.reshape(sizes))
        shapes.add((type(p), sizes))
    assert {kind for kind, _ in shapes} == {
        fstheory.GenKnowledge,
        fstheory.GenPropGain,
        fstheory.GenIgnore,
    }


def test_a_cached_knowledge_shape_is_refused_under_a_lower_cap(monkeypatch):
    monkeypatch.delenv("CI_ENGINE_CAP", raising=False)
    bit = causal_system((0, 1))
    kb = knowledge_box((bit, bit, bit), (bit,))
    fstheory.generator_tensor(kb)
    hits = fstheory._knowledge_array.cache_info().hits
    fstheory.generator_tensor(kb)
    assert fstheory._knowledge_array.cache_info().hits == hits + 1
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded) as info:
        fstheory.generator_tensor(kb)
    assert str(info.value) == "generator tensor of 4096 cells exceeds the cap"
