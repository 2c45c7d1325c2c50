"""String diagrams over typed systems.

A diagram is a finite set of boxes wired together, with an ordered open
boundary on each side.  Only connectivity and the boundary order carry
meaning: identities and swaps are wiring rather than boxes, and a scalar
is a diagram whose boundary is empty on both sides.

Wire endpoints are small tuples.  Producers are either a boundary input
``("in", k)`` or a box output ``("box", b, j)``; consumers are either a
boundary output ``("out", k)`` or a box input ``("box", b, i)``.  Every
producer feeds exactly one consumer and vice versa, so a bare identity
wire is ``("in", 0) -> ("out", 0)`` with no boxes at all.

``layered`` is the one builder that wires boxes and diagrams: it draws a
diagram as layers of boxes, whole diagrams, pass-through wires and
permutations.  ``identity``, ``permutation`` and ``from_box`` are
one-line cases of it, and so are the joins of whole diagrams:
``compose_sequential``, ``compose_parallel``, ``close_boundary`` and
``insert_into_clamp``.  ``substitute`` replaces each box by a box or a
diagram, inlined as ``layered`` inlines its items, and keeps the wiring.
"""

import heapq
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .caps import over_cap
from .errors import (
    CapExceeded,
    CycleDetected,
    DanglingPort,
    SignatureMismatch,
    TypeMismatch,
)

CAUSAL = "causal"
INFERENTIAL = "inferential"

STAR = ("*",)


@dataclass(frozen=True)
class Abstract:
    """Carrier placeholder for systems without an enumerated label set."""

    name: str
    dim: int | None = None


@dataclass(frozen=True)
class SystemType:
    """A system: causal or inferential, with a carrier and a classical flag."""

    kind: str
    carrier: tuple | Abstract
    classical: bool = True

    def __post_init__(self):
        if self.kind not in (CAUSAL, INFERENTIAL):
            raise TypeMismatch(f"unknown system kind {self.kind!r}")
        if isinstance(self.carrier, Abstract):
            if self.classical:
                raise TypeMismatch("an abstract carrier cannot be classical")
        else:
            object.__setattr__(self, "carrier", tuple(self.carrier))
            if len(set(self.carrier)) != len(self.carrier):
                raise TypeMismatch("carrier labels must be distinct")
        if not self.classical and self.kind == INFERENTIAL:
            raise TypeMismatch("inferential systems are classical")

    @property
    def size(self):
        if isinstance(self.carrier, Abstract):
            raise TypeMismatch(
                f"abstract system {self.carrier.name!r} has no enumerated carrier"
            )
        return len(self.carrier)

    def position(self, label):
        try:
            return self.carrier.index(label)
        except (ValueError, AttributeError):
            raise TypeMismatch(f"label {label!r} not in carrier") from None


def causal_system(carrier, classical=True):
    return SystemType(CAUSAL, carrier, classical)


def inferential_system(carrier):
    return SystemType(INFERENTIAL, carrier, True)


def quantum_system(name, dim):
    return SystemType(CAUSAL, Abstract(name, dim), False)


def product_carrier(left, right):
    """Row-major pairing: (x, y) runs with x outermost."""
    size = len(left) * len(right)
    if over_cap(size):
        raise CapExceeded(f"product carrier of size {size} exceeds the cap")
    return tuple((x, y) for x in left for y in right)


@dataclass(frozen=True)
class Box:
    """A named process with ordered input and output ports.

    Identity for diagram equality is the declared name plus signature;
    the payload carries semantics for evaluation and is ignored here.
    """

    name: str
    ins: tuple
    outs: tuple
    payload: object = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "ins", tuple(self.ins))
        object.__setattr__(self, "outs", tuple(self.outs))


def _endpoint_ok(end, side):
    return (
        isinstance(end, tuple)
        and len(end) in (2, 3)
        and (end[0] in {"in", "box"} if side == "src" else end[0] in {"out", "box"})
    )


@dataclass(frozen=True)
class Diagram:
    """An immutable, validated wiring of boxes with an ordered boundary."""

    boxes: tuple
    wires: tuple
    input_types: tuple
    output_types: tuple

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "wires", tuple(tuple(w) for w in self.wires))
        object.__setattr__(self, "input_types", tuple(self.input_types))
        object.__setattr__(self, "output_types", tuple(self.output_types))
        _validate(self)

    # Convenience views of the boundary as ordered open ports.
    @property
    def open_inputs(self):
        return tuple(("in", k) for k in range(len(self.input_types)))

    @property
    def open_outputs(self):
        return tuple(("out", k) for k in range(len(self.output_types)))


def _end_type(d, end, side):
    """The type at a wire end; refuses an end that names no port."""
    if end[0] == "box":
        if not (0 <= end[1] < len(d.boxes)):
            raise DanglingPort(f"wire references missing box {end[1]}")
        ports = d.boxes[end[1]].outs if side == "src" else d.boxes[end[1]].ins
        if not (0 <= end[2] < len(ports)):
            raise DanglingPort(f"wire references missing port {end!r}")
        return ports[end[2]]
    bound = d.input_types if end[0] == "in" else d.output_types
    if not (0 <= end[1] < len(bound)):
        raise DanglingPort(f"wire references missing boundary {end!r}")
    return bound[end[1]]


def _validate(d):
    producers = {}
    consumers = {}
    for src, dst in d.wires:
        if not _endpoint_ok(src, "src") or not _endpoint_ok(dst, "dst"):
            raise DanglingPort(f"malformed wire endpoint in {(src, dst)!r}")
        src_type, dst_type = _end_type(d, src, "src"), _end_type(d, dst, "dst")
        if src in producers:
            raise DanglingPort(f"producer {src!r} wired twice")
        if dst in consumers:
            raise DanglingPort(f"consumer {dst!r} wired twice")
        producers[src] = dst
        consumers[dst] = src
        if src_type != dst_type:
            raise TypeMismatch(f"wire {src!r} -> {dst!r} joins different types")
    for k in range(len(d.input_types)):
        if ("in", k) not in producers:
            raise DanglingPort(f"boundary input {k} is unused")
    for k in range(len(d.output_types)):
        if ("out", k) not in consumers:
            raise DanglingPort(f"boundary output {k} is unfed")
    for b, box in enumerate(d.boxes):
        for j in range(len(box.outs)):
            if ("box", b, j) not in producers:
                raise DanglingPort(f"output port {j} of box {b} is unused")
        for i in range(len(box.ins)):
            if ("box", b, i) not in consumers:
                raise DanglingPort(f"input port {i} of box {b} is unfed")
    _topological_order(d)


def _topological_order(d):
    """The box indices, each after the boxes that feed it; the least ready
    box comes first, so boxes already listed in such an order keep it."""
    n = len(d.boxes)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for src, dst in d.wires:
        if src[0] == "box" and dst[0] == "box":
            succ[src[1]].append(dst[1])
            indeg[dst[1]] += 1
    ready = [b for b in range(n) if indeg[b] == 0]
    order = []
    while ready:
        b = heapq.heappop(ready)
        order.append(b)
        for s in succ[b]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != n:
        raise CycleDetected("diagram wiring contains a directed cycle")
    return order


def _boundary(item):
    """The input and output types of a box or a diagram."""
    if isinstance(item, Diagram):
        return item.input_types, item.output_types
    return item.ins, item.outs


def _inline(boxes, wires, item, in_ends):
    """Append a box or a diagram, its inputs fed by the producer ends
    ``in_ends``, to ``boxes`` and ``wires``; returns the producer ends of
    its outputs, where a wire through from input k gives ``in_ends[k]``."""
    b = len(boxes)
    if isinstance(item, Box):
        boxes.append(item)
        wires.extend((end, ("box", b, i)) for i, end in enumerate(in_ends))
        return [("box", b, j) for j in range(len(item.outs))]
    boxes.extend(item.boxes)
    outs = [None] * len(item.output_types)
    for src, dst in item.wires:
        src = in_ends[src[1]] if src[0] == "in" else ("box", b + src[1], src[2])
        if dst[0] == "out":
            outs[dst[1]] = src
        else:
            wires.append((src, ("box", b + dst[1], dst[2])))
    return outs


def layered(inputs, *layers):
    """The diagram drawn as ``layers`` over open wires of types ``inputs``.

    A layer of integers, or an empty one, is a permutation: open wire
    ``layer[j]`` moves to place ``j``.  Any other layer lists boxes,
    diagrams and system types side by side, left to right over the open
    wires.  A box takes the next ``len(box.ins)`` wires and puts its
    outputs in their place.  A diagram takes the next
    ``len(d.input_types)`` wires, which must be of its input types, adds
    its boxes and wires, and puts its outputs in their place.  A system
    type passes the next wire on.  A wire that its layer does not take
    is left unconsumed, which ``Diagram`` refuses.  The wires left after
    the last layer are the outputs.  Boxes are listed in the order they
    are drawn, and wires in the order they are consumed, the outputs last.
    """
    inputs = tuple(inputs)
    boxes, wires = [], []
    # the open wires, as their producer ends and their types
    ends, types = [("in", k) for k in range(len(inputs))], list(inputs)
    for layer in layers:
        if not layer or isinstance(layer[0], numbers.Integral):
            if len(layer) != len(ends) or set(layer) != set(range(len(ends))):
                raise TypeMismatch("perm must be a permutation of the inputs")
            ends, types = [ends[p] for p in layer], [types[p] for p in layer]
            continue
        taken, next_ends, next_types = 0, [], []
        for item in layer:
            passed = not isinstance(item, (Box, Diagram))
            ins, outs = ((item,), (item,)) if passed else _boundary(item)
            n = len(ins)
            if taken + n > len(ends):
                raise TypeMismatch(f"a layer asks for {taken + n} wires, {len(ends)} open")
            if passed and types[taken] != item:
                raise TypeMismatch("a passed wire is not of the type its layer names")
            if isinstance(item, Diagram) and tuple(types[taken : taken + n]) != ins:
                raise TypeMismatch("a diagram's inputs are not of the types of its wires")
            in_ends = ends[taken : taken + n]
            next_ends += in_ends if passed else _inline(boxes, wires, item, in_ends)
            next_types += outs
            taken += n
        ends, types = next_ends, next_types
    wires += [(end, ("out", j)) for j, end in enumerate(ends)]
    return Diagram(boxes, wires, inputs, tuple(types))


def identity(types):
    return layered(types)


def permutation(types, perm):
    """Wiring that sends input ``perm[j]`` to output ``j``."""
    return layered(types, tuple(perm))


def from_box(box):
    """The diagram consisting of a single box with its ports on the boundary."""
    return layered(box.ins, (box,))


def compose_sequential(first, second):
    """Feed the outputs of ``first`` into the inputs of ``second``."""
    if first.output_types != second.input_types:
        raise TypeMismatch(
            "sequential composition joins "
            f"{len(first.output_types)} outputs to {len(second.input_types)} "
            "inputs of different types"
        )
    return layered(first.input_types, (first,), (second,))


def compose_parallel(left, right):
    """Place two diagrams side by side; boundaries concatenate in order."""
    return layered(left.input_types + right.input_types, (left, right))


def close_boundary(d, sources, sinks):
    """Cap every boundary port: sources feed inputs, sinks eat outputs.

    Each source is a box or a diagram with no inputs and one output of
    the matching boundary type; sinks mirror that on the other side.  The
    result has an empty boundary and lists the sources, then the boxes of
    ``d``, then the sinks.
    """
    sources = tuple(sources)
    sinks = tuple(sinks)
    if len(sources) != len(d.input_types) or len(sinks) != len(d.output_types):
        raise SignatureMismatch("one source per input and one sink per output")
    for k, cap in enumerate(sources):
        if _boundary(cap) != ((), (d.input_types[k],)):
            raise SignatureMismatch(f"source {k} does not produce the boundary type")
    for k, cap in enumerate(sinks):
        if _boundary(cap) != ((d.output_types[k],), ()):
            raise SignatureMismatch(f"sink {k} does not consume the boundary type")
    return layered((), sources, (d,), sinks)


def substitute(d, image, system_image):
    """``d`` with each box replaced by ``image(box)``, a box or a diagram.

    Each image must have the ``system_image`` of its box's ports as its
    boundary, else SignatureMismatch.  ``d``'s wiring is kept between the
    images, and a wire that passes straight through an image joins the
    wires on either side.  The images are inlined as ``layered`` inlines
    its items, in ``_topological_order``; wires are listed in the order
    they are consumed, the outputs last.
    """

    def signature(item):
        return tuple(tuple(map(system_image, types)) for types in _boundary(item))

    producer = {dst: src for src, dst in d.wires}
    # the producer end in the result of each producer end of ``d``
    ends = {end: end for end in d.open_inputs}
    boxes, wires = [], []
    for b in _topological_order(d):
        box = d.boxes[b]
        item = image(box)
        if _boundary(item) != signature(box):
            raise SignatureMismatch(f"the image of box {box.name!r} has another signature")
        in_ends = [ends[producer["box", b, i]] for i in range(len(box.ins))]
        for j, end in enumerate(_inline(boxes, wires, item, in_ends)):
            ends["box", b, j] = end
    wires.extend((ends[producer[out]], out) for out in d.open_outputs)
    return Diagram(boxes, wires, *signature(d))


# ---------------------------------------------------------------------------
# Canonical serialization and equality


def _label_key(label):
    """One form for all equal labels: numbers as Fractions, so that the
    carriers (0, 1), (False, True) and (0.0, 1.0) key alike."""
    if isinstance(label, tuple):
        return tuple(map(_label_key, label))
    if isinstance(label, numbers.Rational) or (isinstance(label, float) and math.isfinite(label)):
        return Fraction(label)
    return label


def _type_key(t):
    if isinstance(t.carrier, Abstract):
        carrier = f"abstract:{t.carrier.name}:{t.carrier.dim}"
    else:
        carrier = repr(_label_key(t.carrier))
    return f"{t.kind}|{int(t.classical)}|{carrier}"


def _signature_key(box):
    ins = ",".join(_type_key(t) for t in box.ins)
    outs = ",".join(_type_key(t) for t in box.outs)
    return f"{box.name}[{ins}=>{outs}]"


def _canonical_order(d):
    """Boxes in an order that depends only on the diagram's connectivity.

    Ports are ordered and carry one wire each, so a breadth-first walk
    through each box's inputs, then outputs, is fixed by where it starts:
    the boundary (inputs, then outputs), else for each closed component
    every box of its rarest signature, keeping the least serialization.
    """
    producer = {dst: src for src, dst in d.wires}
    consumer = {src: dst for src, dst in d.wires}
    neighbours = [
        [producer["box", b, i] for i in range(len(box.ins))]
        + [consumer["box", b, j] for j in range(len(box.outs))]
        for b, box in enumerate(d.boxes)
    ]

    def walk(ends):
        order, seen = [], set()
        # ``order`` grows while the generator reads it: breadth first
        for row in chain([ends], (neighbours[b] for b in order)):
            for end in row:
                if end[0] == "box" and end[1] not in seen:
                    seen.add(end[1])
                    order.append(end[1])
        return order

    order = walk(
        [consumer[e] for e in d.open_inputs] + [producer[e] for e in d.open_outputs]
    )
    placed = set(order)
    keys = [_signature_key(box) for box in d.boxes]
    pieces = []
    for b in range(len(d.boxes)):
        if b in placed:
            continue
        component = walk([("box", b)])
        placed.update(component)
        counts = Counter(keys[c] for c in component)
        rarest = min(counts, key=lambda k: (counts[k], k))
        walks = (walk([("box", s)]) for s in component if keys[s] == rarest)
        pieces.append(min((_serialize_with_order(d, w), w) for w in walks))
    for _, piece in sorted(pieces):
        order += piece
    return order


def _serialize_with_order(d, order):
    """The boundary, the boxes of ``order`` and the wires among them."""
    canon = {b: i for i, b in enumerate(order)}

    def ref(end):
        return ("box", canon[end[1]], end[2]) if end[0] == "box" else end

    lines = [
        "inputs " + ";".join(_type_key(t) for t in d.input_types),
        "outputs " + ";".join(_type_key(t) for t in d.output_types),
    ]
    for i, b in enumerate(order):
        lines.append(f"box {i} {_signature_key(d.boxes[b])}")
    inside = [w for w in d.wires if all(e[0] != "box" or e[1] in canon for e in w)]
    for src, dst in sorted((ref(src), ref(dst)) for src, dst in inside):
        lines.append(f"wire {src!r} -> {dst!r}")
    return "\n".join(lines)


def canonical_serialization(d):
    """Deterministic bytes; equal exactly for equal diagrams.

    Boxes are numbered in the order of ``_canonical_order``'s walk."""
    return _serialize_with_order(d, _canonical_order(d)).encode("utf-8")


def diagrams_equal(a, b):
    """Connectivity equality with ordered boundaries.

    Equal when some renumbering of the boxes maps one onto the other,
    names, port types and wires included: when the canonical
    serializations agree.  Raises SignatureMismatch when the boundaries
    themselves differ, since comparing across signatures is a category
    error rather than inequality.
    """
    if a.input_types != b.input_types or a.output_types != b.output_types:
        raise SignatureMismatch("diagrams have different boundary signatures")
    return canonical_serialization(a) == canonical_serialization(b)


# ---------------------------------------------------------------------------
# Clamps


@dataclass(frozen=True)
class Clamp:
    """A diagram context with a hole.

    ``x`` prepares the hole's inputs together with auxiliary systems, and
    ``y`` consumes the hole's outputs together with the same auxiliaries,
    so inserting ``t`` computes ``y . (t (x) id_aux) . x``.
    """

    x: Diagram
    y: Diagram
    hole_inputs: tuple
    hole_outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "hole_inputs", tuple(self.hole_inputs))
        object.__setattr__(self, "hole_outputs", tuple(self.hole_outputs))
        hi = self.hole_inputs
        ho = self.hole_outputs
        if self.x.output_types[: len(hi)] != hi:
            raise SignatureMismatch("clamp x does not produce the hole inputs")
        aux = self.x.output_types[len(hi):]
        if self.y.input_types != ho + aux:
            raise SignatureMismatch(
                "clamp y must consume the hole outputs then the auxiliaries"
            )

    @property
    def aux_types(self):
        return self.x.output_types[len(self.hole_inputs):]


def insert_into_clamp(clamp, inner):
    """Plug ``inner`` into the clamp's hole."""
    if (
        inner.input_types != clamp.hole_inputs
        or inner.output_types != clamp.hole_outputs
    ):
        raise SignatureMismatch("inserted diagram does not match the hole")
    return layered(
        clamp.x.input_types, (clamp.x,), (inner, *clamp.aux_types), (clamp.y,)
    )
