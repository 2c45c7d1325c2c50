"""Seeded random generators shared across the test suite.

Every generator takes an explicit ``random.Random`` so failing cases
replay from the seed printed by the test.  Carriers stay small (at most
three labels by default) to keep exhaustive cross-checks cheap.
"""

import math
from fractions import Fraction
from functools import reduce

from ci_engine import diagrams, nogo, optheory, substoch
from ci_engine.diagrams import (
    CAUSAL,
    INFERENTIAL,
    causal_system,
    compose_parallel,
    compose_sequential,
    from_box,
    identity,
    inferential_system,
)
from ci_engine.fstheory import (
    RealistRep,
    bundle_carrier,
    effect_box,
    embedded,
    hom_system,
    ignore,
    knowledge_box,
    prop_gain,
    state_box,
)

SEED = 20260814


def rand_carrier(rng, lo=1, hi=3):
    return tuple(range(rng.randint(lo, hi)))


def rand_weights(rng, n, normalized=False, max_den=8):
    """n nonnegative rationals with sum <= 1 (== 1 when normalized)."""
    den = rng.randint(1, max_den)
    cuts = [rng.randint(0, den) for _ in range(n)]
    total = sum(cuts)
    if total == 0:
        cuts[rng.randrange(n)] = den
        total = den
    if normalized:
        return tuple(Fraction(c, total) for c in cuts)
    scale = Fraction(rng.randint(0, den), den)
    return tuple(Fraction(c, total) * scale for c in cuts)


def rand_substoch(rng, dom, cod, stochastic=False):
    cols = [rand_weights(rng, len(cod), normalized=stochastic) for _ in dom]
    entries = tuple(
        tuple(cols[c][r] for c in range(len(dom))) for r in range(len(cod))
    )
    return substoch.SubstochMap(dom, cod, entries)


def rand_state(rng, carrier, normalized=False):
    return substoch.KnowledgeState(
        carrier, rand_weights(rng, len(carrier), normalized=normalized)
    )


def rand_prop(rng, carrier, nonempty=False):
    members = [x for x in carrier if rng.random() < 0.5]
    if nonempty and not members:
        members = [rng.choice(list(carrier))]
    return substoch.proposition(carrier, members)


def rand_system(rng, kind=None):
    if kind is None:
        kind = rng.choice((CAUSAL, INFERENTIAL))
    make = causal_system if kind == CAUSAL else inferential_system
    return make(rand_carrier(rng))


# ---------------------------------------------------------------------------
# Random inferential diagrams


def _knowledge_leaf(rng):
    n_in = rng.randint(0, 1)
    n_out = rng.randint(0 if n_in else 1, 1)
    ins = tuple(causal_system(rand_carrier(rng)) for _ in range(n_in))
    outs = tuple(causal_system(rand_carrier(rng)) for _ in range(n_out))
    kb = knowledge_box(ins, outs)
    st = state_box(rand_state(rng, kb.ins[0].carrier, normalized=True))
    wires = [(("box", 0, 0), ("box", 1, 0))]
    wires += [(("in", i), ("box", 1, i + 1)) for i in range(n_in)]
    wires += [(("box", 1, j), ("out", j)) for j in range(n_out)]
    return diagrams.Diagram((st, kb), tuple(wires), ins, outs)


def _embedded_leaf(rng):
    n_in = rng.randint(0, 2)
    n_out = rng.randint(0 if n_in else 1, 2)
    ins = tuple(inferential_system(rand_carrier(rng)) for _ in range(n_in))
    outs = tuple(inferential_system(rand_carrier(rng)) for _ in range(n_out))
    m = rand_substoch(rng, bundle_carrier(ins), bundle_carrier(outs))
    return from_box(embedded(m, in_types=ins, out_types=outs))


def _fs_leaf(rng, budget):
    kinds = ["embedded", "state", "effect", "gain", "ignore"]
    if budget >= 2:
        kinds.append("knowledge")
    kind = rng.choice(kinds)
    if kind == "embedded":
        return _embedded_leaf(rng)
    if kind == "state":
        return from_box(state_box(rand_state(rng, rand_carrier(rng))))
    if kind == "effect":
        return from_box(effect_box(rand_prop(rng, rand_carrier(rng))))
    if kind == "gain":
        return from_box(prop_gain(causal_system(rand_carrier(rng))))
    if kind == "ignore":
        return from_box(ignore(causal_system(rand_carrier(rng))))
    return _knowledge_leaf(rng)


def _consumer(rng, t, budget):
    """A diagram with input types exactly (t,), or None to keep a wire."""
    if budget < 1 or rng.random() < 0.4:
        return None
    if t.kind == CAUSAL:
        if rng.random() < 0.5:
            return from_box(ignore(t))
        return from_box(prop_gain(t))
    if rng.random() < 0.5:
        return from_box(effect_box(rand_prop(rng, t.carrier)))
    outs = tuple(
        inferential_system(rand_carrier(rng)) for _ in range(rng.randint(0, 1))
    )
    m = rand_substoch(rng, tuple(t.carrier), bundle_carrier(outs))
    return from_box(embedded(m, in_types=(t,), out_types=outs))


def rand_fs_diagram(rng, max_boxes=6):
    """A random well-typed inferential diagram, at most max_boxes boxes."""
    d = _fs_leaf(rng, max_boxes)
    while len(d.boxes) < max_boxes:
        roll = rng.random()
        if roll < 0.35:
            extra = _fs_leaf(rng, max_boxes - len(d.boxes))
            if len(d.boxes) + len(extra.boxes) > max_boxes:
                break
            d = compose_parallel(d, extra)
        elif roll < 0.7 and d.output_types:
            budget = max_boxes - len(d.boxes)
            pieces = []
            spent = 0
            for t in d.output_types:
                c = _consumer(rng, t, budget - spent)
                if c is None:
                    c = identity((t,))
                else:
                    spent += len(c.boxes)
                pieces.append(c)
            if spent == 0:
                break
            d = compose_sequential(d, reduce(compose_parallel, pieces))
        else:
            break
    return d


# ---------------------------------------------------------------------------
# Random clamps


def _producer(rng, t):
    """A diagram with output types exactly (t,)."""
    if rng.random() < 0.3:
        return identity((t,))
    if t.kind == CAUSAL:
        kb = knowledge_box((), (t,))
        st = state_box(rand_state(rng, kb.ins[0].carrier, normalized=True))
        return diagrams.Diagram(
            (st, kb),
            ((("box", 0, 0), ("box", 1, 0)), (("box", 1, 0), ("out", 0))),
            (),
            (t,),
        )
    return from_box(state_box(rand_state(rng, t.carrier)))


def _sink(rng, t):
    if t.kind == CAUSAL:
        if rng.random() < 0.5:
            return from_box(ignore(t))
        return from_box(prop_gain(t))
    if rng.random() < 0.3:
        return identity((t,))
    return from_box(effect_box(rand_prop(rng, t.carrier)))


def rand_clamp(rng, hole_ins, hole_outs):
    """A random context whose hole matches the given signature."""
    aux = tuple(rand_system(rng) for _ in range(rng.randint(0, 1)))
    front = tuple(hole_ins) + aux
    back = tuple(hole_outs) + aux
    x = (
        reduce(compose_parallel, [_producer(rng, t) for t in front])
        if front
        else identity(())
    )
    y = (
        reduce(compose_parallel, [_sink(rng, t) for t in back])
        if back
        else identity(())
    )
    return diagrams.Clamp(x, y, tuple(hole_ins), tuple(hole_outs))


# ---------------------------------------------------------------------------
# Random operational models


def close_inputs(d, states):
    """Cap every open input with a knowledge state box."""
    if len(states) != len(d.input_types):
        raise ValueError("one state per open input")
    boxes = list(d.boxes)
    repl = {}
    for k, st in enumerate(states):
        repl[k] = len(boxes)
        boxes.append(state_box(st, name=f"close{k}"))
    wires = []
    for src, dst in d.wires:
        if src[0] == "in":
            src = ("box", repl[src[1]], 0)
        wires.append((src, dst))
    return diagrams.Diagram(tuple(boxes), tuple(wires), (), d.output_types)


def relist_boxes(d, order):
    """``d`` with its boxes listed in ``order``, the wiring unchanged."""
    renumber = {b: i for i, b in enumerate(order)}

    def moved(end):
        return ("box", renumber[end[1]], end[2]) if end[0] == "box" else end

    return diagrams.Diagram(
        tuple(d.boxes[b] for b in order),
        tuple((moved(src), moved(dst)) for src, dst in d.wires),
        d.input_types,
        d.output_types,
    )


def rand_classical_pm(rng):
    """A few named procedures over one or two small classical systems."""
    a = causal_system(rand_carrier(rng, 2, 3))
    b = causal_system(rand_carrier(rng, 2, 3))
    decls = []
    for i in range(rng.randint(1, 2)):
        decls.append(
            optheory.ProcedureDecl(
                f"prep{i}", (), (a,), rand_substoch(rng, ("*",), a.carrier, True)
            )
        )
    for i in range(rng.randint(1, 2)):
        decls.append(
            optheory.ProcedureDecl(
                f"move{i}",
                (a,),
                (b,),
                rand_substoch(rng, a.carrier, b.carrier, True),
            )
        )
    return optheory.PredictionMap(tuple(decls)), a, b


def rand_classical_rep(rng, pm):
    """A realist representation of a classical model: each system is its
    own ontic system, and each procedure signature gets random
    stochastic xi onto the hom codes between its systems."""
    xi = {}
    for sig in dict.fromkeys((d.ins, d.outs) for d in pm.decls):
        codes = hom_system(*sig).carrier
        xi[sig] = rand_substoch(rng, pm.alphabet(*sig), codes, stochastic=True)
    return RealistRep({}, xi)


def rand_closed_classical_diagram(rng):
    """A causally closed diagram over a random classical model."""
    pm, a, b = rand_classical_pm(rng)
    preps = [d.name for d in pm.decls if not d.ins]
    moves = [d.name for d in pm.decls if d.ins]
    d = optheory.procedure_diagram(pm, rng.choice(preps))
    if rng.random() < 0.5:
        d = compose_sequential(d, from_box(prop_gain(a)))
        d = compose_sequential(
            d, compose_parallel(identity((a,)), identity(d.output_types[1:]))
        )
    head = d.output_types[0]
    if rng.random() < 0.7:
        if rng.random() < 0.5:
            step = optheory.procedure_diagram(pm, rng.choice(moves))
        else:
            kb = optheory.op_knowledge_box(pm, (a,), (b,))
            belief = state_box(
                rand_state(rng, kb.ins[0].carrier, normalized=True)
            )
            step = diagrams.Diagram(
                (belief, kb),
                (
                    (("box", 0, 0), ("box", 1, 0)),
                    (("in", 0), ("box", 1, 1)),
                    (("box", 1, 0), ("out", 0)),
                ),
                (a,),
                (b,),
            )
        tail = identity(d.output_types[1:])
        d = compose_sequential(d, compose_parallel(step, tail))
        head = b
    finish = from_box(prop_gain(head)) if rng.random() < 0.7 else None
    if finish is not None:
        d = compose_sequential(
            d, compose_parallel(finish, identity(d.output_types[1:]))
        )
        d = compose_sequential(
            d,
            compose_parallel(
                from_box(ignore(head)), identity(d.output_types[1:])
            ),
        )
    else:
        d = compose_sequential(
            d,
            compose_parallel(
                from_box(ignore(head)), identity(d.output_types[1:])
            ),
        )
    return d, pm


# ---------------------------------------------------------------------------
# Random quantum Bell models


def _rand_bloch(rng):
    z = rng.uniform(-1, 1)
    phi = rng.uniform(0, 2 * math.pi)
    r = math.sqrt(1 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def _projectors(n):
    nx, ny, nz = n
    sx = ((0, 1), (1, 0))
    sy = ((0, -1j), (1j, 0))
    sz = ((1, 0), (0, -1))
    ops = []
    for sign in (1, -1):
        ops.append(
            tuple(
                tuple(
                    (0.5 if r == c else 0)
                    + 0.5 * sign * (nx * sx[r][c] + ny * sy[r][c] + nz * sz[r][c])
                    for c in range(2)
                )
                for r in range(2)
            )
        )
    return ops


def _rand_two_qubit_pure(rng):
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    amps = [a / norm for a in amps]
    return tuple(
        tuple(amps[r] * amps[c].conjugate() for c in range(4)) for r in range(4)
    )


def rand_quantum_bell(rng, n_x=2, n_y=2):
    """Random two-qubit state and projective settings, by default CHSH shape."""
    rho = _rand_two_qubit_pure(rng)
    meas_a = [_projectors(_rand_bloch(rng)) for _ in range(n_x)]
    meas_b = [_projectors(_rand_bloch(rng)) for _ in range(n_y)]
    s = nogo.Bell(n_x, n_y, 2, 2)
    pm = nogo.bell_prediction_map(rho, (meas_a, meas_b), s)
    return rho, (meas_a, meas_b), pm, s


def rand_float_rows(rng, s):
    """Float rows of the scenario's table, each of random entries divided by
    their float sum.  Seeded with 17 on Bell(2, 2, 3, 3), the contexts round
    at 10^6 to different totals, so the rounded table's denominator is their
    least common multiple, 78 bits wide."""
    rows = [[rng.random() for _ in s.outcomes()] for _ in s.contexts()]
    return [[v / sum(row) for v in row] for row in rows]


def rand_closed_quantum_diagram(rng):
    """Bell template over a random model, settings fixed by points."""
    rho, meas, pm, s = rand_quantum_bell(rng)
    d = nogo.bell_template(pm)
    states = [
        substoch.point_state(t.carrier, rng.choice(list(t.carrier)))
        for t in d.input_types
    ]
    return close_inputs(d, states), pm
