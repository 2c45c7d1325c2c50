"""Release gate: one test per shipped guarantee.

Each test asserts an advertised end-to-end behavior of the package and
prints a single pass/fail line under ``pytest -v``.  Comparisons are
exact (Fraction equality) unless the assertion itself states a
tolerance.
"""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

from ci_engine import fstheory, funcdyn, nogo, optheory, substoch
from ci_engine.diagrams import (
    causal_system,
    diagrams_equal,
    from_box,
    insert_into_clamp,
    Diagram,
)
from ci_engine.fileformat import load_diagram
from conftest import (
    SEED,
    close_inputs,
    rand_carrier,
    rand_clamp,
    rand_closed_classical_diagram,
    rand_closed_quantum_diagram,
    rand_fs_diagram,
    rand_prop,
    rand_quantum_bell,
    rand_state,
    rand_substoch,
)
import oracles

F = Fraction
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

EIGHT_FAMILIES = {
    "associativity",
    "commutativity",
    "identity",
    "complements",
    "distributivity",
    "idempotence",
    "annihilation",
    "absorption",
}


def test_a01_boolean_law_families_hold_diagrammatically():
    """Eight law families, carriers up to size 3, wiring semantics only."""
    report = substoch.verify_boolean_laws(max_carrier=3)
    assert set(substoch.LAW_FAMILY_NAMES) == EIGHT_FAMILIES
    assert report.max_carrier == 3
    assert {name for name, _, _ in report.results} == EIGHT_FAMILIES
    assert all(passed for _, passed, _ in report.results)
    assert report.ok


def test_a02_pullback_preserves_bottom_or_and_and_flags_top():
    """Exhaustive over partial functions with |X|, |Y| <= 3; every
    properly partial map yields a concrete top non-preservation witness."""
    partial_seen = 0
    for nx in (1, 2, 3):
        xs = tuple(range(nx))
        bot_x = substoch.bottom(xs)
        top_x = substoch.top(xs)
        for ny in (1, 2, 3):
            ys = tuple(range(ny))
            bot_y = substoch.bottom(ys)
            top_y = substoch.top(ys)
            props = [
                substoch.Proposition(ys, mask) for mask in range(1 << ny)
            ]
            for table in itertools.product((None, *ys), repeat=nx):
                f = substoch.PartialFn(xs, ys, table)
                assert substoch.pullback_effect(f, bot_y) == bot_x
                pulled = [substoch.pullback_effect(f, p) for p in props]
                for i, p in enumerate(props):
                    for j, q in enumerate(props):
                        both_or = substoch.connective("OR", p, q)
                        both_and = substoch.connective("AND", p, q)
                        assert substoch.pullback_effect(
                            f, both_or
                        ) == substoch.connective("OR", pulled[i], pulled[j])
                        assert substoch.pullback_effect(
                            f, both_and
                        ) == substoch.connective("AND", pulled[i], pulled[j])
                chi = f.defined_set()
                got_top = substoch.pullback_effect(f, top_y)
                assert got_top == chi
                if set(chi.members()) != set(xs):
                    partial_seen += 1
                    assert got_top != top_x
    assert partial_seen > 0


def test_a03_equal_mixtures_compare_equivalent_with_distinct_files():
    """Half-half constants and half-half reversibles denote the same
    doubly uniform matrix and compare equivalent, yet the files differ."""
    text_c = (DATA / "omelette_constants.diagram").read_text()
    text_r = (DATA / "omelette_reversible.diagram").read_text()
    assert text_c != text_r
    d_c, _ = load_diagram(text_c)
    d_r, _ = load_diagram(text_r)
    assert not diagrams_equal(d_c, d_r)
    half = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert fstheory.denote(d_c).entries == half
    assert fstheory.denote(d_r).entries == half
    assert fstheory.inferentially_equivalent(d_c, d_r)


def test_a04_embedding_roundtrips_and_closed_predictions_sum():
    """Denoting an embedded matrix returns it unchanged (200 random
    maps); scalar predictions match independent summation (100 pairs)."""
    rng = random.Random(SEED + 4)
    for _ in range(200):
        m = rand_substoch(rng, rand_carrier(rng), rand_carrier(rng))
        assert fstheory.denote(from_box(fstheory.embedded(m))) == m
    for _ in range(100):
        carrier = rand_carrier(rng)
        sigma = rand_state(rng, carrier)
        pi = rand_prop(rng, carrier)
        st = fstheory.state_box(sigma)
        ef = fstheory.effect_box(pi)
        d = Diagram(
            (st, ef), ((("box", 0, 0), ("box", 1, 0)),), (), ()
        )
        expected = oracles.knowledge_sum(
            dict(zip(carrier, sigma.weights)), set(pi.members())
        )
        assert fstheory.predict(d).entries[0][0] == expected


def test_a05_normal_form_agrees_with_denotation_and_reconstruction():
    """100 random diagrams (at most 6 generators, carriers <= 3)."""
    rng = random.Random(SEED + 5)
    for _ in range(100):
        d = rand_fs_diagram(rng)
        m = fstheory.denote(d)
        nf = fstheory.normal_form(d)
        assert nf.matrix == m
        assert fstheory.denote(fstheory.reconstruct(nf)) == m


def test_a06_theory_axioms_hold_exhaustively():
    """Every named axiom passes with carriers up to size 3."""
    report = fstheory.verify_fs_axioms(max_carrier=3)
    assert report.max_carrier == 3
    names = [name for name, _, _ in report.results]
    assert names == list(fstheory.AXIOM_NAMES)
    failed = [name for name, passed, _ in report.results if not passed]
    assert failed == []
    assert report.ok


def test_a07_probe_tables_reconstruct_predictions():
    """Point/atom probing rebuilds the prediction map: exactly on 100
    classical diagrams, to 1e-12 entrywise on 20 quantum ones."""
    rng = random.Random(SEED + 7)
    for _ in range(100):
        d, pm = rand_closed_classical_diagram(rng)
        table = optheory.point_atomic_table(d, pm)
        assert optheory.reconstruct(table) == optheory.predict_closed(d, pm)
    for _ in range(20):
        d, pm = rand_closed_quantum_diagram(rng)
        rebuilt = optheory.reconstruct(optheory.point_atomic_table(d, pm))
        direct = optheory.predict_closed(d, pm)
        assert rebuilt.dom == direct.dom and rebuilt.cod == direct.cod
        for row_r, row_d in zip(rebuilt.entries, direct.entries):
            for a, b in zip(row_r, row_d):
                assert abs(float(a - b)) <= 1e-12


def test_a08_equivalence_survives_clamping():
    """50 equivalent pairs stay equivalent inside random clamps."""
    rng = random.Random(SEED + 8)
    for _ in range(50):
        d = rand_fs_diagram(rng)
        other = fstheory.reconstruct(fstheory.normal_form(d))
        assert fstheory.inferentially_equivalent(d, other)
        clamp = rand_clamp(rng, d.input_types, d.output_types)
        held_d = insert_into_clamp(clamp, d)
        held_o = insert_into_clamp(clamp, other)
        assert fstheory.inferentially_equivalent(held_d, held_o)


def test_a09_deterministic_vertices_cap_chsh_at_two_with_certificates():
    """All 16 vertices are members with self-verifying convex weights
    and the CHSH maximum over them is exactly 2."""
    s = nogo.chsh_scenario()
    verts = nogo.local_vertices(s)
    assert len(verts) == 16
    values = [nogo.chsh_value(v) for v in verts]
    assert max(values) == 2
    vecs = [v.as_vector() for v in verts]
    for v in verts:
        verdict = nogo.fs_compatible(v, s)
        assert isinstance(verdict, nogo.Member)
        w = verdict.weights
        assert sum(w) == 1 and all(wi >= 0 for wi in w)
        target = v.as_vector()
        for i in range(len(target)):
            assert sum(wi * vec[i] for wi, vec in zip(w, vecs)) == target[i]


def test_a10_singlet_violates_chsh_and_separating_facet_verifies():
    """Quantum CHSH reaches 2*sqrt(2) to 1e-9; the rationalized table is
    a non-member and its facet checks out against every vertex."""
    s = nogo.chsh_scenario()
    rho, meas = nogo.singlet_model()
    corr = nogo.quantum_correlations(rho, meas, s)
    assert abs(float(nogo.chsh_value(corr)) - 2 * math.sqrt(2)) <= 1e-9
    verdict = nogo.fs_compatible(corr, s)
    assert isinstance(verdict, nogo.NonMember)
    assert verdict.violation > 0
    tested = verdict.correlation
    assert tested.is_exact
    lhs = sum(f * x for f, x in zip(verdict.facet, tested.as_vector()))
    assert lhs == verdict.bound + verdict.violation
    for v in nogo.local_vertices(s):
        paid = sum(f * x for f, x in zip(verdict.facet, v.as_vector()))
        assert paid <= verdict.bound


def _belief_immaterial_diagram(source, belief):
    """Copy a classical value, learn one leg, push the other through a
    knowledge box drawn from ``belief`` and then discard it."""
    carrier = source.carrier
    t = causal_system(carrier)
    pairs = funcdyn.product_carrier(carrier, carrier)
    copy_code = funcdyn.hom_index(funcdyn.copy_fn(carrier))
    boxes = (
        fstheory.state_box(source),
        fstheory.knowledge_box((), (t,)),
        fstheory.state_box(
            substoch.point_state(funcdyn.hom_carrier(carrier, pairs), copy_code)
        ),
        fstheory.knowledge_box((t,), (t, t)),
        fstheory.prop_gain(t),
        fstheory.ignore(t),
        fstheory.state_box(belief),
        fstheory.knowledge_box((t,), (t,)),
        fstheory.ignore(t),
    )
    wires = (
        (("box", 0, 0), ("box", 1, 0)),
        (("box", 1, 0), ("box", 3, 1)),
        (("box", 2, 0), ("box", 3, 0)),
        (("box", 3, 0), ("box", 4, 0)),
        (("box", 4, 0), ("box", 5, 0)),
        (("box", 4, 1), ("out", 0)),
        (("box", 3, 1), ("box", 7, 1)),
        (("box", 6, 0), ("box", 7, 0)),
        (("box", 7, 0), ("box", 8, 0)),
    )
    record = fstheory.record_system(t)
    return Diagram(boxes, wires, (), (record,))


def test_a11_discarded_branch_beliefs_cannot_signal():
    """Predictions ignore 20 belief variations on discarded branches,
    exactly classically and to 1e-12 for quantum wings; every quantum
    table produced here passes the no-signalling check."""
    rng = random.Random(SEED + 11)
    carrier = (0, 1, 2)
    source = rand_state(rng, carrier, normalized=True)
    hom = funcdyn.hom_carrier(carrier, carrier)
    reference = None
    for _ in range(20):
        belief = rand_state(rng, hom, normalized=True)
        got = fstheory.denote(_belief_immaterial_diagram(source, belief))
        if reference is None:
            reference = got
            assert tuple(r[0] for r in got.entries) == source.weights
        assert got == reference

    rho, meas, pm, s = rand_quantum_bell(rng)
    template = nogo.bell_template(pm)
    x_point = substoch.point_state(template.input_types[0].carrier, 0)
    y_carrier = template.input_types[1].carrier
    base = None
    for _ in range(20):
        belief = rand_state(rng, y_carrier, normalized=True)
        closed = close_inputs(template, [x_point, belief])
        joint = optheory.predict_closed(closed, pm)
        marginal = {}
        for pair, row in zip(joint.cod, joint.entries):
            marginal[pair[0]] = marginal.get(pair[0], F(0)) + row[0]
        if base is None:
            base = marginal
        assert set(marginal) == set(base)
        for a in base:
            assert abs(float(marginal[a] - base[a])) <= 1e-12

    tables = [nogo.quantum_correlations(rho, meas, s)]
    singlet_rho, singlet_meas = nogo.singlet_model()
    tables.append(nogo.quantum_correlations(singlet_rho, singlet_meas, s))
    for _ in range(3):
        q_rho, q_meas, _, _ = rand_quantum_bell(rng)
        tables.append(nogo.quantum_correlations(q_rho, q_meas, s))
    for table in tables:
        assert nogo.no_signalling_check(table)


def _pairings_match(frag, res, tol=None):
    effects = [frag.unit] + list(frag.effects)
    images = [res.unit_image] + list(res.effect_images)
    for e_img, e in zip(images, effects):
        for s_img, w in zip(res.state_images, frag.states):
            got = sum(a * b for a, b in zip(e_img, s_img))
            want = sum(F(a) * F(b) for a, b in zip(e, w))
            if tol is None:
                assert got == want
            else:
                assert abs(float(got) - float(want)) <= tol


def test_a12_simplex_embedding_verdicts():
    """The classical bit embeds identically at size 2, the planar
    hexagon is infeasible at every size up to 16, the stabilizer
    octahedron embeds at size 4; feasible pairings re-verify exactly,
    or to 1e-7 when the fragment arrives as floats."""
    bit = nogo.classical_bit_fragment()
    res_bit = nogo.simplex_embed(bit, lambda_max=2)
    assert isinstance(res_bit, nogo.Feasible)
    assert res_bit.size == 2
    assert sorted(res_bit.state_images) == [(0, 1), (1, 0)]
    assert res_bit.unit_image == (1, 1)
    _pairings_match(bit, res_bit)

    hexa = nogo.hexagon_fragment()
    res_hex = nogo.simplex_embed(hexa, lambda_max=16)
    assert isinstance(res_hex, nogo.Infeasible)
    assert res_hex.up_to == 16

    octa = nogo.qubit_stabilizer_fragment()
    res_oct = nogo.simplex_embed(octa, lambda_max=16)
    assert isinstance(res_oct, nogo.Feasible)
    assert res_oct.size == 4
    _pairings_match(octa, res_oct)

    octa_f = nogo.GPTFragment(
        tuple(tuple(float(v) for v in s) for s in octa.states),
        tuple(tuple(float(v) for v in e) for e in octa.effects),
        tuple(float(v) for v in octa.unit),
    )
    res_f = nogo.simplex_embed(octa_f, lambda_max=16)
    assert isinstance(res_f, nogo.Feasible)
    _pairings_match(octa_f, res_f, tol=1e-7)
