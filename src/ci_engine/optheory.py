"""Operational theories: declared procedures and pluggable predictions.

An operational diagram is wired from the same learning, ignoring, and
embedded generators as the realist theory, plus procedure-knowledge
boxes: an inferential wire over a declared alphabet of named procedures
feeding the causal ports those procedures act on.  Systems may be
classical (enumerated carriers) or general (abstract labels with a
quantum dimension), but propositions and learning attach to classical
systems only.

A prediction map resolves procedure names to semantics, either exact
substochastic matrices (classical backend) or Kraus data over hybrid
classical/quantum registers (quantum backend), and evaluates causally
closed diagrams to a probability matrix over their inferential ports.
The quantum evaluation contracts vectorized superoperators: a quantum
wire of dimension d becomes an axis of size d*d, a classical wire an
axis of plain probabilities.
"""

import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from . import fstheory, substoch, tensornet
from .diagrams import (
    CAUSAL,
    Abstract,
    Box,
    close_boundary,
    inferential_system,
    layered,
)
from .errors import (
    CarrierMismatch,
    ConfigError,
    DimensionMismatch,
    TypeMismatch,
    UnresolvedProcedure,
    ValidationError,
)
from .fstheory import (
    GenEmbedded,
    GenIgnore,
    GenPropGain,
    bundle_carrier,
    state_box,
)
from .tensornet import _FLOAT_TOL, _TOL, contract

_LETTERS = string.ascii_letters


# SystemType refuses a classical abstract carrier: ``t.classical`` is
# the whole classical test and an Abstract carrier the whole quantum one.


def _qdim(t):
    if not isinstance(t.carrier, Abstract):
        raise TypeMismatch("not a quantum system")
    if not isinstance(t.carrier.dim, int) or t.carrier.dim < 1:
        raise TypeMismatch(
            f"quantum system {t.carrier.name!r} needs a positive dimension"
        )
    return t.carrier.dim


class QuantumProcess:
    """Kraus data for a hybrid classical/quantum procedure.

    ``kraus`` maps a pair (classical output labels, classical input
    labels) to the Kraus matrices of that classical branch; each matrix
    sends the product of the quantum input registers to the product of
    the quantum output registers, ports in declaration order.  Missing
    branches are zero.  Trace may decrease but never increase.
    """

    def __init__(self, kraus):
        table = {}
        for (c_out, c_in), mats in dict(kraus).items():
            key = (tuple(c_out), tuple(c_in))
            table[key] = tuple(np.asarray(m, dtype=complex) for m in mats)
        self.kraus = table


@dataclass(frozen=True)
class ProcedureDecl:
    """A named laboratory procedure with its signature and semantics."""

    name: str
    ins: tuple
    outs: tuple
    channel: object = field(compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "ins", tuple(self.ins))
        object.__setattr__(self, "outs", tuple(self.outs))
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("procedures need nonempty string names")
        for t in self.ins + self.outs:
            if t.kind != CAUSAL:
                raise TypeMismatch("procedures act on causal systems")
        if isinstance(self.channel, substoch.SubstochMap):
            if not all(t.classical for t in self.ins + self.outs):
                raise TypeMismatch(
                    "matrix semantics fit classical signatures only"
                )
            if self.channel.dom != bundle_carrier(self.ins):
                raise CarrierMismatch(
                    f"procedure {self.name!r}: matrix domain does not match inputs"
                )
            if self.channel.cod != bundle_carrier(self.outs):
                raise CarrierMismatch(
                    f"procedure {self.name!r}: matrix codomain does not match outputs"
                )
        elif isinstance(self.channel, QuantumProcess):
            _validate_kraus(self)
        else:
            raise ConfigError(
                f"procedure {self.name!r} needs a SubstochMap or QuantumProcess"
            )


def _quantum_dims(types):
    # a port that is not classical must be quantum; _qdim refuses any other
    return tuple(_qdim(t) for t in types if not t.classical)


def _validate_kraus(decl):
    ch = decl.channel
    c_ins = [t for t in decl.ins if t.classical]
    c_outs = [t for t in decl.outs if t.classical]
    d_in = math.prod(_quantum_dims(decl.ins))
    d_out = math.prod(_quantum_dims(decl.outs))
    for (c_out, c_in), mats in ch.kraus.items():
        if len(c_out) != len(c_outs) or len(c_in) != len(c_ins):
            raise CarrierMismatch(
                f"procedure {decl.name!r}: classical label arity mismatch"
            )
        for lab, t in zip(c_out + c_in, c_outs + c_ins):
            if lab not in t.carrier:
                raise CarrierMismatch(
                    f"procedure {decl.name!r}: label {lab!r} not in carrier"
                )
        for m in mats:
            if m.shape != (d_out, d_in):
                raise DimensionMismatch(
                    f"procedure {decl.name!r}: Kraus shape {m.shape}, "
                    f"expected {(d_out, d_in)}"
                )
            # NaN fails every comparison, so it is caught here too; a
            # trace-non-increasing family has no entry above 1 in modulus,
            # and bounding them keeps M^dagger M from overflowing
            bad = ~(np.abs(m) <= 1 + _FLOAT_TOL)
            if bad.any():
                raise ValidationError(
                    f"procedure {decl.name!r}: Kraus entry {m[bad][0]} is not "
                    "finite or exceeds 1 in modulus"
                )
    for c_in in iproduct(*(t.carrier for t in c_ins)):
        total = np.zeros((d_in, d_in), dtype=complex)
        for (c_out, key_in), mats in ch.kraus.items():
            if key_in != c_in:
                continue
            for m in mats:
                total += m.conj().T @ m
        if not ch.kraus:
            continue
        top = max(np.linalg.eigvalsh((total + total.conj().T) / 2)) if d_in else 0.0
        if top > 1 + _FLOAT_TOL:
            raise ValidationError(
                f"procedure {decl.name!r} increases trace by {top - 1:.3g}"
            )
    return decl


@dataclass(frozen=True)
class OpKnowledge:
    """Payload of a procedure-knowledge box: signature plus alphabet."""

    in_systems: tuple
    out_systems: tuple
    alphabet: tuple


@dataclass(frozen=True)
class OpProc:
    """Payload of a box that is one fixed named procedure."""

    name: str


@dataclass
class PredictionMap:
    """Resolution of procedure names to semantics, with one backend.

    All channels are exact matrices (classical backend) or all Kraus
    data (quantum backend); mixing the two is rejected.
    """

    decls: tuple

    def __post_init__(self):
        self.decls = tuple(self.decls)
        by_name = {}
        for decl in self.decls:
            if decl.name in by_name:
                raise ConfigError(f"duplicate procedure name {decl.name!r}")
            by_name[decl.name] = decl
        self._by_name = by_name
        kinds = {type(d.channel) for d in self.decls}
        if kinds <= {substoch.SubstochMap}:
            self.backend = "classical"
        elif kinds == {QuantumProcess}:
            self.backend = "quantum"
        else:
            raise ConfigError("a prediction map uses one backend throughout")

    def decl(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise UnresolvedProcedure(f"no procedure named {name!r}") from None

    def alphabet(self, in_systems, out_systems):
        in_systems = tuple(in_systems)
        out_systems = tuple(out_systems)
        return tuple(
            d.name
            for d in self.decls
            if d.ins == in_systems and d.outs == out_systems
        )


def op_knowledge_box(pm, in_systems=(), out_systems=(), name="do"):
    """Knowledge over the declared procedures with this signature.

    The box's first input is an inferential wire whose carrier is the
    procedure alphabet; the rest are the causal inputs.
    """
    in_systems = tuple(in_systems)
    out_systems = tuple(out_systems)
    alphabet = pm.alphabet(in_systems, out_systems)
    if not alphabet:
        raise UnresolvedProcedure(
            "no declared procedures match the requested signature"
        )
    h = inferential_system(alphabet)
    return Box(
        name,
        (h,) + in_systems,
        out_systems,
        OpKnowledge(in_systems, out_systems, alphabet),
    )


def procedure_box(pm, name, box_name=None):
    """One fixed procedure as a box, no inferential port.

    Equivalent to a knowledge box fed with point knowledge at ``name``,
    which is how it is resolved during prediction.
    """
    decl = pm.decl(name)
    return Box(box_name or name, decl.ins, decl.outs, OpProc(name))


def procedure_diagram(pm, name):
    """A single known procedure: point knowledge applied to its box."""
    decl = pm.decl(name)
    kb = op_knowledge_box(pm, decl.ins, decl.outs)
    pt = state_box(
        substoch.point_state(kb.ins[0].carrier, name), name=f"[{name}]"
    )
    return layered(decl.ins, (pt, *decl.ins), (kb,))


# ---------------------------------------------------------------------------
# Prediction


def _resolve_boxes(d, pm):
    for box in d.boxes:
        p = box.payload
        if isinstance(p, OpKnowledge):
            for nm in p.alphabet:
                decl = pm.decl(nm)
                if decl.ins != p.in_systems or decl.outs != p.out_systems:
                    raise UnresolvedProcedure(
                        f"procedure {nm!r} was declared with another signature"
                    )
        elif isinstance(p, OpProc):
            decl = pm.decl(p.name)
            if decl.ins != box.ins or decl.outs != box.outs:
                raise UnresolvedProcedure(
                    f"procedure {p.name!r} was declared with another signature"
                )
        elif not isinstance(p, (GenPropGain, GenIgnore, GenEmbedded)):
            raise TypeMismatch(f"box {box.name!r} has no operational semantics")


def _classical_tensor(pm):
    def tensor(box):
        p = box.payload
        if isinstance(p, OpKnowledge):
            grids = [pm.decl(nm).channel.grid for nm in p.alphabet]
            return tensornet.stack(grids, 1).reshape(tuple(t.size for t in box.outs + box.ins))
        if isinstance(p, OpProc):
            sizes = tuple(t.size for t in box.outs + box.ins)
            return pm.decl(p.name).channel.grid.reshape(sizes)
        return fstheory.generator_tensor(box)

    return tensor


def _port_axis(t):
    return t.size if t.classical else _qdim(t) ** 2


def _branch_index(types, labels):
    """Where one classical branch sits: each classical port at its label, each quantum port whole."""
    labels = iter(labels)
    return tuple(t.carrier.index(next(labels)) if t.classical else slice(None) for t in types)


def _proc_tensor(decl):
    """One procedure as a hybrid superoperator tensor, outputs first.

    A branch's block is the sum of ``m (x) conj(m)`` over its Kraus
    matrices ``m``, in their given order, with each quantum register of
    ``m`` beside the same register of ``conj(m)``, so that the pair is
    one axis of size d*d; the block sits at the branch's classical
    labels, and a missing branch is zero.  The tensor's cells are
    checked against the cap before it is allocated.
    """
    q = _quantum_dims(decl.outs) + _quantum_dims(decl.ins)
    shape = tuple(_port_axis(t) for t in decl.outs + decl.ins)
    fstheory._check_cells(math.prod(shape))
    # one letter per register of m, then one per register of conj(m); a
    # register of dimension 1 takes none, and the cap leaves at most 11
    # larger ones, so the 52 letters suffice
    r = [d for d in q if d > 1]
    regs, conjs = _LETTERS[: len(r)], _LETTERS[len(r) : 2 * len(r)]
    spec = f"{regs},{conjs}->{''.join(a + b for a, b in zip(regs, conjs))}"
    pairs = [d for d in r for _ in range(2)]
    arr = np.zeros(shape, dtype=complex)
    for (c_out, c_in), mats in decl.channel.kraus.items():
        block = np.zeros(pairs, dtype=complex)
        for m in mats:
            m = m.reshape(r)
            block += np.einsum(spec, m, m.conj())
        at = _branch_index(decl.outs, c_out) + _branch_index(decl.ins, c_in)
        arr[at] = block.reshape([d * d for d in q])
    return arr


def _quantum_tensor(pm, procs):
    """The box tensors of the quantum backend, each procedure's
    superoperator built once and kept in ``procs`` under its name."""

    def proc(name):
        if name not in procs:
            procs[name] = _proc_tensor(pm.decl(name))
        return procs[name]

    def tensor(box):
        p = box.payload
        if isinstance(p, OpKnowledge):
            # the stack holds alphabet x procedure cells
            fstheory._check_cells(math.prod(_port_axis(t) for t in box.outs + box.ins))
            tensors = [proc(nm) for nm in p.alphabet]
            return np.stack(tensors, axis=len(p.out_systems))
        if isinstance(p, OpProc):
            return proc(p.name)
        if isinstance(p, GenIgnore) and isinstance(p.system.carrier, Abstract):
            d = _qdim(p.system)
            return np.eye(d, dtype=complex).reshape(d * d)
        t = fstheory.generator_tensor(box)
        # Python-int true division rounds once, as float(Fraction) does
        return (t.num.astype(object) / t.den).astype(complex)

    return tensor


def _float_prob(v):
    # written as "not within", since every comparison with NaN is false
    if not abs(v.imag if isinstance(v, complex) else 0.0) <= _FLOAT_TOL:
        raise ValidationError(f"non-real probability {v!r}")
    x = v.real if isinstance(v, complex) else float(v)
    if not -_FLOAT_TOL <= x <= 1 + _FLOAT_TOL:
        raise ValidationError(f"probability {x} outside [0, 1]")
    return Fraction(min(max(x, 0.0), 1.0))


def _substoch_from_probs(dom, cod, grid):
    """Probability grid to a map, columns renormalized within 1e-9 slack.

    Fraction and int entries stay exact; any other entry is read as a
    float and rationalized dyadically.
    """
    cols = []
    for c in range(len(dom)):
        col = [grid[r][c] for r in range(len(cod))]
        col = [Fraction(v) if tensornet.is_exact_number(v) else _float_prob(v) for v in col]
        total = sum(col)
        if total > 1 + _TOL:
            raise ValidationError(f"column {c} sums to {float(total)} > 1")
        if total > 1:
            col = [v / total for v in col]
        cols.append(col)
    rows = tuple(
        tuple(cols[c][r] for c in range(len(dom))) for r in range(len(cod))
    )
    return substoch.SubstochMap(dom, cod, rows)


def predict_closed(d, pm):
    """Probability matrix of a causally closed diagram over its records.

    Classical backend: exact contraction.  Quantum backend: vectorized
    superoperator contraction, probabilities read on classical wires.
    """
    return _predict(d, pm, {})


def _predict(d, pm, procs):
    """``predict_closed``, with the quantum superoperators taken from and
    kept in ``procs``, which diagrams over the same model may share."""
    fstheory._require_closed(d)
    _resolve_boxes(d, pm)
    if pm.backend == "classical":
        for box in d.boxes:
            for t in box.ins + box.outs:
                if not t.classical:
                    raise TypeMismatch(
                        "classical backend met a nonclassical wire"
                    )
        return fstheory._bundled_matrix(d, _classical_tensor(pm))
    arr = contract(
        d,
        _quantum_tensor(pm, procs),
        _port_axis,
        eye=lambda n: np.eye(n, dtype=complex),
    )
    cod = bundle_carrier(d.output_types)
    dom = bundle_carrier(d.input_types)
    grid = np.asarray(arr, dtype=complex).reshape(len(cod), len(dom))
    return _substoch_from_probs(dom, cod, grid)


def agree(p1, p2, backend):
    """The largest entrywise gap of two equally shaped predictions, and whether they agree.

    Classical predictions are exact, so they agree only when equal.
    Quantum predictions are rationalized floats and agree within the
    exact gap 1/10^9.
    """
    gap = substoch.max_gap(p1, p2)
    return gap, gap <= (0 if backend == "classical" else _TOL)


def op_equivalent(d1, d2, pm):
    """Whether the predictions of two diagrams agree (see ``agree``)."""
    fstheory._require_equal_boundaries(d1, d2)
    return agree(predict_closed(d1, pm), predict_closed(d2, pm), pm.backend)[1]


def _unfold(label, k):
    if k == 0:
        return ()
    parts = []
    for _ in range(k - 1):
        label, last = label
        parts.append(last)
    parts.append(label)
    return tuple(reversed(parts))


@dataclass(frozen=True)
class PointAtomicTable:
    """Probabilities at point-distribution inputs and atomic outputs."""

    dom: tuple
    cod: tuple
    probs: tuple


def point_atomic_table(d, pm):
    """Probe the diagram entry by entry with points and atoms.

    Every open inferential input is fed a point distribution and every
    open inferential output is asked an atomic proposition; each closed
    probe is evaluated independently, on procedure superoperators built
    once per call.
    """
    fstheory._require_closed(d)
    dom = bundle_carrier(d.input_types)
    cod = bundle_carrier(d.output_types)
    procs = {}
    rows = []
    for y in cod:
        y_parts = _unfold(y, len(d.output_types))
        sinks = tuple(
            fstheory.effect_box(
                substoch.proposition(t.carrier, (part,)), name="atom"
            )
            for t, part in zip(d.output_types, y_parts)
        )
        row = []
        for x in dom:
            x_parts = _unfold(x, len(d.input_types))
            sources = tuple(
                state_box(substoch.point_state(t.carrier, part), name="point")
                for t, part in zip(d.input_types, x_parts)
            )
            closed = close_boundary(d, sources, sinks)
            row.append(_predict(closed, pm, procs).entries[0][0])
        rows.append(tuple(row))
    return PointAtomicTable(dom, cod, tuple(rows))


def reconstruct(table):
    """Reassemble the full prediction matrix from a point/atomic table.

    Exact probes stay exact; float probes go through the usual dyadic
    rationalization.
    """
    return _substoch_from_probs(table.dom, table.cod, table.probs)


def quotient_representative(d, pm):
    """Alias of ``predict_closed``, unexported; ``perfbench/tracing.py`` wraps it."""
    return predict_closed(d, pm)
