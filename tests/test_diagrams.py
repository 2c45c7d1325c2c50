"""Structural diagram layer: building, validation, composition, equality."""

import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ci_engine import fstheory, substoch
from ci_engine.caps import over_cap
from ci_engine.diagrams import (
    INFERENTIAL,
    Box,
    Diagram,
    causal_system,
    close_boundary,
    compose_parallel,
    compose_sequential,
    diagrams_equal,
    from_box,
    identity,
    inferential_system,
    insert_into_clamp,
    layered,
    permutation,
    substitute,
)
from ci_engine.errors import (
    CapExceeded,
    CycleDetected,
    DanglingPort,
    SignatureMismatch,
    TypeMismatch,
)
from ci_engine.fstheory import effect_box, embedded, ignore, prop_gain, state_box

import oracles
from conftest import (
    SEED,
    rand_clamp,
    rand_fs_diagram,
    rand_prop,
    rand_state,
    rand_substoch,
    relist_boxes,
)

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
    with pytest.raises(TypeMismatch) as err:
        compose_sequential(identity((BIT,)), identity((HBIT,)))
    assert str(err.value) == "sequential composition joins 1 outputs to 1 inputs of different types"


_TOP = effect_box(substoch.top((0, 1)))


@pytest.mark.parametrize(
    "sources, sinks, message",
    [
        ((), (_TOP,), "one source per input and one sink per output"),
        ((state_box(substoch.point_state((0, 1, 2), 0)),), (_TOP,), "source 0 does not produce the boundary type"),
        ((state_box(substoch.point_state((0, 1), 0)),), (effect_box(substoch.top((0, 1, 2))),), "sink 0 does not consume the boundary type"),
        ((from_box(state_box(substoch.point_state((0, 1, 2), 0))),), (_TOP,), "source 0 does not produce the boundary type"),
        ((state_box(substoch.point_state((0, 1), 0)),), (identity((HBIT,)),), "sink 0 does not consume the boundary type"),
    ],
    ids=["count", "source", "sink", "diagram-source", "diagram-sink"],
)
def test_close_boundary_refuses_caps_of_other_types(sources, sinks, message):
    with pytest.raises(SignatureMismatch) as err:
        close_boundary(_wire_box(), sources, sinks)
    assert str(err.value) == message


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


def test_a_diagram_cap_closes_as_its_box_does():
    rng = random.Random(SEED + 6)
    d = from_box(embedded(rand_substoch(rng, (0, 1), (0, 1)), in_types=(HBIT,), out_types=(HBIT,)))
    source = state_box(rand_state(rng, (0, 1)))
    sink = effect_box(rand_prop(rng, (0, 1)))
    boxed = close_boundary(d, (source,), (sink,))
    drawn = close_boundary(d, (from_box(source),), (from_box(sink),))
    assert diagrams_equal(drawn, boxed)
    assert fstheory.denote(drawn) == fstheory.denote(boxed)


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


def _capped(rng, max_boxes):
    """A small random diagram with inferential inputs, and a source box
    for each input and a sink box for each output."""
    d = rand_fs_diagram(rng, max_boxes=max_boxes)
    while any(t.kind != INFERENTIAL for t in d.input_types):
        d = rand_fs_diagram(rng, max_boxes=max_boxes)
    sources = [state_box(rand_state(rng, t.carrier)) for t in d.input_types]
    sinks = [
        effect_box(rand_prop(rng, t.carrier)) if t.kind == INFERENTIAL else ignore(t)
        for t in d.output_types
    ]
    return d, sources, sinks


def _closed_piece(rng):
    """A scalar: a small random diagram with its boundary capped by boxes."""
    return close_boundary(*_capped(rng, 2))


def _small_diagram(rng, max_boxes=7):
    """An open random diagram beside closed pieces, some of them repeated."""
    parts = [rand_fs_diagram(rng, max_boxes=rng.randint(1, 4))]
    piece = _closed_piece(rng)
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            piece = _closed_piece(rng)
        if sum(len(p.boxes) for p in parts) + len(piece.boxes) <= max_boxes:
            parts.insert(rng.randint(0, len(parts)), piece)
    return reduce(compose_parallel, parts)


def _renumbered(d, rng):
    """The same diagram with its boxes and wires listed in a random order."""
    order = list(range(len(d.boxes)))
    rng.shuffle(order)
    new = {b: i for i, b in enumerate(order)}

    def moved(end):
        return ("box", new[end[1]], end[2]) if end[0] == "box" else end

    wires = [(moved(src), moved(dst)) for src, dst in d.wires]
    rng.shuffle(wires)
    boxes = tuple(d.boxes[b] for b in order)
    return Diagram(boxes, wires, d.input_types, d.output_types)


def _rewired(d, rng):
    """Swap the consumers of two wires of one type, when that stays acyclic."""
    def type_of(src):
        return d.input_types[src[1]] if src[0] == "in" else d.boxes[src[1]].outs[src[2]]

    wires = list(d.wires)
    pairs = [
        (i, j)
        for i in range(len(wires))
        for j in range(i + 1, len(wires))
        if type_of(wires[i][0]) == type_of(wires[j][0])
    ]
    if not pairs:
        return d
    i, j = rng.choice(pairs)
    wires[i], wires[j] = (wires[i][0], wires[j][1]), (wires[j][0], wires[i][1])
    try:
        return Diagram(d.boxes, wires, d.input_types, d.output_types)
    except CycleDetected:
        return d


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30))
def test_equality_matches_brute_force_isomorphism(seed):
    rng = random.Random(seed)
    d = _small_diagram(rng)
    twin = _renumbered(d, rng)
    assert diagrams_equal(d, twin)
    assert oracles.diagrams_isomorphic(d, twin)
    other = _rewired(_renumbered(d, rng), rng)
    assert diagrams_equal(d, other) == oracles.diagrams_isomorphic(d, other)
    assert diagrams_equal(other, d) == diagrams_equal(d, other)


def test_rewired_copies_include_unequal_ones():
    rng = random.Random(SEED + 8)
    verdicts = []
    for _ in range(60):
        d = _small_diagram(rng)
        other = _rewired(d, rng)
        verdicts.append(diagrams_equal(d, other))
        assert verdicts[-1] == oracles.diagrams_isomorphic(d, other)
    assert 10 <= verdicts.count(False) <= 50


@pytest.mark.parametrize("copies", [6, 12, 40])
def test_identical_closed_scalars_equal_a_renumbered_copy(copies):
    scalar = close_boundary(
        identity((HBIT,)),
        (state_box(substoch.point_state((0, 1), 0)),),
        (effect_box(substoch.top((0, 1))),),
    )
    d = reduce(compose_parallel, [scalar] * copies)
    assert diagrams_equal(d, _renumbered(d, random.Random(copies)))


@pytest.mark.parametrize(
    "carrier, twin",
    [
        ((0, 1), (False, True)),
        ((0, 1), (0.0, 1.0)),
        ((Fraction(1, 2), 1), (0.5, True)),
        (((0, "a"), (1, "a")), ((False, "a"), (True, "a"))),
    ],
    ids=["bools", "floats", "fraction", "tuples"],
)
def test_equal_carriers_give_equal_diagrams(carrier, twin):
    # SystemType compares carriers by tuple equality, so these boundaries match
    d = from_box(ignore(causal_system(carrier)))
    e = from_box(ignore(causal_system(twin)))
    assert d.input_types == e.input_types
    assert diagrams_equal(d, e)


# ---------------------------------------------------------------------------
# Layered drawing

TRIT = causal_system((0, 1, 2))


def _random_stack(rng):
    """Input types and a stack of tagged layers over them: permutations,
    or boxes over a few system types side by side with passed wires."""
    inputs = tuple(rng.choice((BIT, TRIT, HBIT)) for _ in range(rng.randint(0, 3)))
    types, stack = list(inputs), []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.3:
            perm = rng.sample(range(len(types)), len(types))
            stack.append(("perm", tuple(perm)))
            types = [types[p] for p in perm]
            continue
        layer, after = [], []
        while types or rng.random() < 0.2:
            if types and rng.random() < 0.4:
                layer.append(types[0])
                after.append(types.pop(0))
                continue
            ins = [types.pop(0) for _ in range(rng.randint(0, min(2, len(types))))]
            outs = [rng.choice((BIT, TRIT, HBIT)) for _ in range(rng.randint(0, 2 if len(after) < 4 else 1))]
            layer.append(Box(f"b{rng.randint(0, 2)}", ins, outs))
            after += outs
        stack.append(("boxes", tuple(layer)))
        types = after
    return inputs, stack


def _composed(inputs, stack):
    """The same drawing built from the one-piece builders and the
    hand-wired reference joins."""
    d = identity(inputs)
    for kind, layer in stack:
        if kind == "perm":
            step = permutation(d.output_types, layer)
        else:
            pieces = [from_box(p) if isinstance(p, Box) else identity((p,)) for p in layer]
            step = reduce(oracles.compose_parallel_reference, pieces, identity(()))
        d = oracles.compose_sequential_reference(d, step)
    return d


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30))
def test_layers_draw_the_composed_diagram(seed):
    inputs, stack = _random_stack(random.Random(seed))
    d = layered(inputs, *(layer for _, layer in stack))
    assert diagrams_equal(d, _composed(inputs, stack))


def test_the_one_piece_builders_keep_their_wires():
    assert identity((BIT, HBIT)) == Diagram(
        (), ((("in", 0), ("out", 0)), (("in", 1), ("out", 1))), (BIT, HBIT), (BIT, HBIT)
    )
    assert permutation((BIT, HBIT, TRIT), (2, 0, 1)) == Diagram(
        (),
        ((("in", 2), ("out", 0)), (("in", 0), ("out", 1)), (("in", 1), ("out", 2))),
        (BIT, HBIT, TRIT),
        (TRIT, BIT, HBIT),
    )
    assert permutation((), ()) == Diagram((), (), (), ())
    # numpy integers are integers too
    assert permutation((BIT, HBIT), np.array([1, 0])) == permutation((BIT, HBIT), (1, 0))
    pg = prop_gain(BIT)
    assert from_box(pg) == Diagram(
        (pg,),
        ((("in", 0), ("box", 0, 0)), (("box", 0, 0), ("out", 0)), (("box", 0, 1), ("out", 1))),
        (BIT,),
        pg.outs,
    )


@pytest.mark.parametrize(
    "inputs, layers, error, message",
    [
        ((BIT, BIT), ((0, 0),), TypeMismatch, "perm must be a permutation of the inputs"),
        ((BIT,), ((),), TypeMismatch, "perm must be a permutation of the inputs"),
        ((BIT,), ((HBIT,),), TypeMismatch, "a passed wire is not of the type its layer names"),
        ((HBIT,), ((prop_gain(BIT),),), TypeMismatch, "joins different types"),
        ((BIT,), ((fstheory.knowledge_box((BIT,), (BIT,)),),), TypeMismatch, "asks for 2 wires, 1 open"),
        ((), ((BIT,),), TypeMismatch, "asks for 1 wires, 0 open"),
        ((BIT, BIT), ((ignore(BIT),),), DanglingPort, "boundary input 1 is unused"),
        ((BIT,), ((prop_gain(BIT),), (BIT,)), DanglingPort, "output port 1 of box 0 is unused"),
        ((HBIT,), ((from_box(prop_gain(BIT)),),), TypeMismatch, "a diagram's inputs are not of the types of its wires"),
        ((BIT,), ((identity((BIT, BIT)),),), TypeMismatch, "asks for 2 wires, 1 open"),
        ((HBIT, BIT), ((HBIT, identity((HBIT,))),), TypeMismatch, "a diagram's inputs are not of the types of its wires"),
    ],
    ids=[
        "repeated", "empty", "passed-type", "box-type", "too-many", "none-open", "input-left",
        "output-left", "diagram-type", "diagram-too-many", "diagram-after-a-pass",
    ],
)
def test_a_bad_layer_is_refused(inputs, layers, error, message):
    with pytest.raises(error) as err:
        layered(inputs, *layers)
    assert message in str(err.value)


# ---------------------------------------------------------------------------
# Joins of whole diagrams against their hand-wired references


def _assert_same_join(new, reference, order):
    """``new`` lists the boxes of ``reference`` in ``order`` and joins the
    same ports, up to that renumbering, with the same denotation."""
    assert new.boxes == tuple(reference.boxes[b] for b in order)
    renumber = {b: i for i, b in enumerate(order)}

    def moved(end):
        return ("box", renumber[end[1]], end[2]) if end[0] == "box" else end

    assert set(new.wires) == {(moved(src), moved(dst)) for src, dst in reference.wires}
    assert diagrams_equal(new, reference)
    if over_cap(math.prod(t.size for t in new.input_types + new.output_types)):
        # a denotation with more cells than the cap: both sides refuse it alike
        for d in (new, reference):
            with pytest.raises(CapExceeded):
                fstheory.denote(d)
    else:
        assert fstheory.denote(new) == fstheory.denote(reference)


def _consumer(rng, t):
    if t.kind != INFERENTIAL:
        return from_box(ignore(t))
    if rng.random() < 0.4:
        return identity((t,))
    return from_box(effect_box(rand_prop(rng, t.carrier)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_the_joins_match_their_hand_wired_references(seed):
    rng = random.Random(seed)
    first = rand_fs_diagram(rng, max_boxes=3)
    if rng.random() < 0.5:
        # an input wired straight to an output
        first = oracles.compose_parallel_reference(first, identity((HBIT,)))
    other = rand_fs_diagram(rng, max_boxes=3)
    pieces = [_consumer(rng, t) for t in first.output_types]
    second = reduce(oracles.compose_parallel_reference, pieces, identity(()))
    _assert_same_join(
        compose_parallel(first, other),
        oracles.compose_parallel_reference(first, other),
        range(len(first.boxes) + len(other.boxes)),
    )
    _assert_same_join(
        compose_sequential(first, second),
        oracles.compose_sequential_reference(first, second),
        range(len(first.boxes) + len(second.boxes)),
    )

    d, sources, sinks = _capped(rng, 3)
    n, k = len(d.boxes), len(sources)
    # the reference lists the boxes of ``d``, then the sources, then the sinks
    order = [*range(n, n + k), *range(n), *range(n + k, n + k + len(sinks))]
    _assert_same_join(
        close_boundary(d, sources, sinks),
        oracles.close_boundary_reference(d, sources, sinks),
        order,
    )

    clamp = rand_clamp(rng, first.input_types, first.output_types)
    middle = oracles.compose_parallel_reference(first, identity(clamp.aux_types))
    held = oracles.compose_sequential_reference(
        oracles.compose_sequential_reference(clamp.x, middle), clamp.y
    )
    _assert_same_join(insert_into_clamp(clamp, first), held, range(len(held.boxes)))


# ---------------------------------------------------------------------------
# Substitution of boxes by boxes or diagrams


def _same(t):
    return t


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_identity_images_copy_the_diagram(seed):
    d = rand_fs_diagram(random.Random(seed), max_boxes=5)
    # boxes listed in reverse are out of topological order when any two are wired
    for listed in (d, relist_boxes(d, range(len(d.boxes))[::-1])):
        for image in (_same, from_box):
            copy = substitute(listed, image, _same)
            assert diagrams_equal(copy, d)
            assert sorted(map(id, copy.boxes)) == sorted(map(id, d.boxes))


def test_an_identity_image_joins_the_wires_through_it():
    rng = random.Random(SEED + 7)
    source = state_box(rand_state(rng, (0, 1)))
    step = embedded(rand_substoch(rng, (0, 1), (0, 1)), in_types=(HBIT,), out_types=(HBIT,), name="step")
    sink = effect_box(rand_prop(rng, (0, 1)))
    cross = Box("cross", (HBIT, BIT), (BIT, HBIT))

    def unwired(box):
        if box.name == "step":
            return identity(box.ins)
        if box.name == "cross":
            return permutation(box.ins, (1, 0))
        return box

    d = layered((), (source,), (step,), (sink,))
    assert diagrams_equal(substitute(d, unwired, _same), layered((), (source,), (sink,)))
    assert substitute(from_box(step), unwired, _same) == identity((HBIT,))
    crossed = layered((BIT,), (source, BIT), (step, BIT), (cross,), (ignore(BIT), sink))
    assert diagrams_equal(
        substitute(crossed, unwired, _same),
        layered((BIT,), (source, BIT), (1, 0), (ignore(BIT), sink)),
    )


@pytest.mark.parametrize(
    "image, system_image",
    [
        (lambda box: from_box(prop_gain(BIT)), _same),
        (lambda box: box, lambda t: BIT if t == HBIT else t),
    ],
    ids=["image", "system-image"],
)
def test_an_image_of_another_signature_is_refused(image, system_image):
    d = _wire_box()
    with pytest.raises(SignatureMismatch) as err:
        substitute(d, image, system_image)
    assert str(err.value) == f"the image of box {d.boxes[0].name!r} has another signature"
