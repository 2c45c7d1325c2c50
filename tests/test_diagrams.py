"""Structural diagram layer: building, validation, composition, equality."""

import random

import pytest

from ci_engine import fstheory
from ci_engine.diagrams import (
    Diagram,
    causal_system,
    close_boundary,
    compose_parallel,
    compose_sequential,
    diagrams_equal,
    from_box,
    identity,
    inferential_system,
    permutation,
)
from ci_engine.errors import (
    CycleDetected,
    DanglingPort,
    TypeMismatch,
)
from ci_engine.fstheory import embedded, ignore, prop_gain, state_box

from conftest import SEED, rand_fs_diagram, rand_state, rand_substoch

BIT = causal_system((0, 1))
HBIT = inferential_system((0, 1))


def _wire_box():
    return from_box(fstheory.embedded(
        rand_substoch(random.Random(0), (0, 1), (0, 1)),
        in_types=(HBIT,),
        out_types=(HBIT,),
    ))


def test_identity_is_wires_only():
    d = identity((BIT, HBIT))
    assert d.boxes == ()
    assert d.input_types == (BIT, HBIT)
    assert d.output_types == (BIT, HBIT)


def test_dangling_box_input_rejected():
    b = fstheory.ignore(BIT)
    with pytest.raises(DanglingPort):
        Diagram((b,), (), (), ())


def test_double_feed_rejected():
    b = fstheory.ignore(BIT)
    wires = ((("in", 0), ("box", 0, 0)), (("in", 1), ("box", 0, 0)))
    with pytest.raises(DanglingPort):
        Diagram((b,), wires, (BIT, BIT), ())


def test_unused_boundary_input_rejected():
    with pytest.raises(DanglingPort):
        Diagram((), (), (BIT,), ())


def test_kind_mismatch_on_wire_rejected():
    b = fstheory.ignore(BIT)
    with pytest.raises(TypeMismatch):
        Diagram((b,), ((("in", 0), ("box", 0, 0)),), (HBIT,), ())


def test_cycle_rejected():
    m = rand_substoch(random.Random(1), (0, 1), (0, 1))
    b = fstheory.embedded(m, in_types=(HBIT,), out_types=(HBIT,))
    wires = ((("box", 0, 0), ("box", 0, 0)),)
    with pytest.raises(CycleDetected):
        Diagram((b,), wires, (), ())


def test_sequential_needs_matching_signature():
    with pytest.raises(TypeMismatch):
        compose_sequential(identity((BIT,)), identity((HBIT,)))


def test_box_order_does_not_affect_equality():
    rng = random.Random(SEED)
    st = state_box(rand_state(rng, (0, 1)))
    pg = prop_gain(BIT)
    ig = ignore(BIT)
    kb = fstheory.knowledge_box((), (BIT,))
    hs = state_box(rand_state(rng, kb.ins[0].carrier, normalized=True))
    d1 = Diagram(
        (hs, kb, pg, ig),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("box", 1, 0), ("box", 2, 0)),
            (("box", 2, 0), ("box", 3, 0)),
            (("box", 2, 1), ("out", 0)),
        ),
        (),
        (fstheory.record_system(BIT),),
    )
    d2 = Diagram(
        (ig, pg, kb, hs),
        (
            (("box", 3, 0), ("box", 2, 0)),
            (("box", 2, 0), ("box", 1, 0)),
            (("box", 1, 0), ("box", 0, 0)),
            (("box", 1, 1), ("out", 0)),
        ),
        (),
        (fstheory.record_system(BIT),),
    )
    assert diagrams_equal(d1, d2)
    assert fstheory.denote(d1) == fstheory.denote(d2)


def test_distinct_wiring_is_not_equal():
    rng = random.Random(SEED + 1)
    s1 = state_box(rand_state(rng, (0, 1)), name="alpha")
    s2 = state_box(rand_state(rng, (0, 1)), name="beta")
    d1 = compose_parallel(from_box(s1), from_box(s2))
    d2 = compose_parallel(from_box(s2), from_box(s1))
    assert not diagrams_equal(d1, d2)


def test_permutation_reorders_ports():
    rng = random.Random(SEED + 2)
    a = rand_state(rng, (0, 1))
    b = rand_state(rng, (0, 1, 2))
    pair = compose_parallel(
        from_box(state_box(a)), from_box(state_box(b))
    )
    swapped = compose_sequential(
        pair, permutation(pair.output_types, (1, 0))
    )
    assert swapped.output_types == (pair.output_types[1], pair.output_types[0])
    m = fstheory.denote(swapped)
    direct = fstheory.denote(
        compose_parallel(from_box(state_box(b)), from_box(state_box(a)))
    )
    assert m == direct


def test_sequential_matches_matrix_composition():
    rng = random.Random(SEED + 3)
    for _ in range(25):
        m1 = rand_substoch(rng, (0, 1, 2), (0, 1))
        m2 = rand_substoch(rng, (0, 1), (0, 1, 2))
        d1 = from_box(embedded(m1))
        d2 = from_box(embedded(m2))
        seq = compose_sequential(d1, d2)
        from ci_engine import substoch

        assert fstheory.denote(seq) == substoch.compose_seq(m2, m1)


def test_parallel_matches_kron():
    rng = random.Random(SEED + 4)
    from ci_engine import substoch

    for _ in range(25):
        m1 = rand_substoch(rng, (0, 1), (0, 1))
        m2 = rand_substoch(rng, (0, 1, 2), (0,))
        par = compose_parallel(from_box(embedded(m1)), from_box(embedded(m2)))
        assert fstheory.denote(par) == substoch.compose_par(m1, m2)


def test_close_boundary_caps_everything():
    rng = random.Random(SEED + 5)
    m = rand_substoch(rng, (0, 1), (0, 1))
    d = from_box(embedded(m))
    closed = close_boundary(
        d,
        sources=(state_box(rand_state(rng, (0, 1))),),
        sinks=(fstheory.effect_box(rand_prop_full()),),
    )
    assert closed.input_types == ()
    assert closed.output_types == ()
    val = fstheory.denote(closed)
    assert val.dom == ("*",) and val.cod == ("*",)


def rand_prop_full():
    from ci_engine import substoch

    return substoch.top((0, 1))


def test_open_ports_reported_in_order():
    rng = random.Random(SEED + 6)
    m = rand_substoch(rng, (0, 1), (0, 1))
    d = from_box(embedded(m))
    assert d.open_inputs == (("in", 0),)
    assert d.open_outputs == (("out", 0),)


def test_random_diagrams_round_trip_equality():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        d = rand_fs_diagram(rng)
        assert diagrams_equal(d, d)
        again = Diagram(d.boxes, d.wires, d.input_types, d.output_types)
        assert diagrams_equal(d, again)
