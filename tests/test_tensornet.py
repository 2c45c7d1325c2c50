"""Tensor-network contraction against direct index-sum references."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ci_engine import fstheory, funcdyn, optheory, tensornet
from ci_engine.diagrams import CAUSAL, INFERENTIAL, Box, Diagram, inferential_system
from ci_engine.errors import CapExceeded, DimensionMismatch
from ci_engine.substoch import SubstochMap
from conftest import rand_closed_classical_diagram, rand_fs_diagram

SYS2 = inferential_system((0, 1))
SYS3 = inferential_system((0, 1, 2))


def _sizes(t):
    return len(t.carrier)


def _net(boxes, wires, ins=(), outs=()):
    return Diagram(tuple(boxes), tuple(wires), tuple(ins), tuple(outs))


def test_closed_chain_is_the_bilinear_form():
    rng = random.Random(7)
    v = np.array([rng.random() for _ in range(2)])
    m = np.array([[rng.random() for _ in range(2)] for _ in range(3)])
    w = np.array([rng.random() for _ in range(3)])
    st = Box("v", (), (SYS2,), None)
    mid = Box("m", (SYS2,), (SYS3,), None)
    ef = Box("w", (SYS3,), (), None)
    d = _net(
        (st, mid, ef),
        ((("box", 0, 0), ("box", 1, 0)), (("box", 1, 0), ("box", 2, 0))),
    )
    tensors = {"v": v, "m": m, "w": w}
    got = tensornet.contract(
        d, lambda b: tensors[b.name], _sizes, eye=np.eye
    )
    assert got.shape == ()
    assert abs(float(got) - float(w @ m @ v)) < 1e-12


def test_open_ports_order_outputs_then_inputs():
    rng = random.Random(8)
    m = np.array([[rng.random() for _ in range(2)] for _ in range(3)])
    box = Box("m", (SYS2,), (SYS3,), None)
    d = _net(
        (box,),
        ((("in", 0), ("box", 0, 0)), (("box", 0, 0), ("out", 0))),
        ins=(SYS2,),
        outs=(SYS3,),
    )
    got = tensornet.contract(d, lambda b: m, _sizes, eye=np.eye)
    assert got.shape == (3, 2)
    assert np.allclose(got, m)


def test_boundary_passthrough_materializes_identity():
    d = _net((), ((("in", 0), ("out", 0)),), ins=(SYS3,), outs=(SYS3,))
    got = tensornet.contract(d, lambda b: None, _sizes, eye=np.eye)
    assert got.shape == (3, 3)
    assert np.allclose(got, np.eye(3))


def test_random_network_matches_explicit_index_sums():
    rng = random.Random(9)
    # state (2) -> copy-ish box (2 -> 2 x 2), one leg open, one closed
    v = np.array([rng.random(), rng.random()])
    t = np.array(
        [[[rng.random() for _ in range(2)] for _ in range(2)] for _ in range(2)]
    )
    e = np.array([rng.random(), rng.random()])
    st = Box("v", (), (SYS2,), None)
    two = Box("t", (SYS2,), (SYS2, SYS2), None)
    ef = Box("e", (SYS2,), (), None)
    d = _net(
        (st, two, ef),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("box", 1, 0), ("out", 0)),
            (("box", 1, 1), ("box", 2, 0)),
        ),
        outs=(SYS2,),
    )
    tensors = {"v": v, "t": t, "e": e}
    got = tensornet.contract(d, lambda b: tensors[b.name], _sizes, eye=np.eye)
    want = np.zeros(2)
    for a, b, c in itertools.product(range(2), repeat=3):
        want[a] += v[c] * t[a][b][c] * e[b]
    assert np.allclose(got, want)


def test_exact_object_arrays_stay_exact():
    half = Fraction(1, 2)
    v = np.empty(2, dtype=object)
    v[:] = [half, half]
    st = Box("v", (), (SYS2,), None)
    ef = Box("e", (SYS2,), (), None)
    e = np.empty(2, dtype=object)
    e[:] = [Fraction(1), Fraction(1)]
    d = _net(
        (st, ef), ((("box", 0, 0), ("box", 1, 0)),)
    )
    tensors = {"v": v, "e": e}
    got = tensornet.contract(d, lambda b: tensors[b.name], _sizes)
    assert got[()] == Fraction(1)
    assert isinstance(got[()], Fraction)


def test_shape_mismatch_is_reported():
    box = Box("m", (SYS2,), (SYS3,), None)
    d = _net(
        (box,),
        ((("in", 0), ("box", 0, 0)), (("box", 0, 0), ("out", 0))),
        ins=(SYS2,),
        outs=(SYS3,),
    )
    bad = np.zeros((2, 3))
    with pytest.raises(DimensionMismatch):
        tensornet.contract(d, lambda b: bad, _sizes, eye=np.eye)


def _product_network(k):
    boxes = [Box(f"v{i}", (), (SYS3,), None) for i in range(k)]
    wires = [(("box", i, 0), ("out", i)) for i in range(k)]
    return _net(boxes, wires, outs=[SYS3] * k)


def test_cap_limits_intermediate_size(monkeypatch):
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    v = np.ones(3)
    with pytest.raises(CapExceeded):
        tensornet.contract(_product_network(7), lambda b: v, _sizes, eye=np.eye)
    got = tensornet.contract(_product_network(6), lambda b: v, _sizes, eye=np.eye)
    assert got.shape == (3,) * 6


# ---------------------------------------------------------------------------
# The scaled-integer kernel against the Fraction reference contraction


def _fraction_grid(m, sizes):
    arr = np.empty((len(m.cod), len(m.dom)), dtype=object)
    for r, row in enumerate(m.entries):
        for c, v in enumerate(row):
            arr[r, c] = v
    return arr.reshape(sizes)


def _fraction_tensor(box, pm=None):
    """Per-entry Fraction tensor of one box, built from its payload."""
    p = box.payload
    sizes = tuple(t.size for t in box.outs + box.ins)
    if isinstance(p, fstheory.GenKnowledge):
        dom = fstheory.bundle_carrier(p.in_systems)
        cod = fstheory.bundle_carrier(p.out_systems)
        arr = np.full((len(cod), len(box.ins[0].carrier), len(dom)), Fraction(0), dtype=object)
        for h in range(arr.shape[1]):
            f = funcdyn.hom_unindex(h, dom, cod)
            for flat, x in enumerate(dom):
                arr[cod.index(f(x)), h, flat] = Fraction(1)
        return arr.reshape(sizes)
    if isinstance(p, fstheory.GenPropGain):
        n = p.system.size
        arr = np.full((n, n, n), Fraction(0), dtype=object)
        for x in range(n):
            arr[x, x, x] = Fraction(1)
        return arr
    if isinstance(p, fstheory.GenIgnore):
        return np.full(p.system.size, Fraction(1), dtype=object)
    if isinstance(p, fstheory.GenEmbedded):
        return _fraction_grid(p.matrix, sizes)
    if isinstance(p, optheory.OpProc):
        return _fraction_grid(pm.decl(p.name).channel, sizes)
    assert isinstance(p, optheory.OpKnowledge)
    out_sizes = tuple(t.size for t in p.out_systems)
    arr = np.empty(sizes, dtype=object)
    for k, name in enumerate(p.alphabet):
        ch = pm.decl(name).channel
        arr[(slice(None),) * len(out_sizes) + (k,)] = _fraction_grid(
            ch, out_sizes + sizes[len(out_sizes) + 1 :]
        )
    return arr


def _reference_matrix(d, box_tensor):
    """Rows of Fractions over the bundled ports, inferential first."""

    def order(types):
        return [k for k, t in enumerate(types) if t.kind == INFERENTIAL] + [
            k for k, t in enumerate(types) if t.kind == CAUSAL
        ]

    arr = oracles.contract_fractions(d, box_tensor, lambda t: t.size)
    n_out = len(d.output_types)
    arr = arr.transpose(order(d.output_types) + [n_out + k for k in order(d.input_types)])
    n_cod = math.prod(t.size for t in d.output_types)
    n_dom = math.prod(t.size for t in d.input_types)
    return tuple(tuple(row) for row in arr.reshape(n_cod, n_dom))


def _same_fractions(got, want):
    return got == want and all(
        type(v) is Fraction for row in got for v in row
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_denote_matches_the_fraction_reference(seed):
    d = rand_fs_diagram(random.Random(seed))
    want = _reference_matrix(d, _fraction_tensor)
    assert _same_fractions(fstheory.denote(d).entries, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_classical_predictions_match_the_fraction_reference(seed):
    d, pm = rand_closed_classical_diagram(random.Random(seed))
    want = _reference_matrix(d, lambda box: _fraction_tensor(box, pm))
    assert _same_fractions(optheory.predict_closed(d, pm).entries, want)


# coprime denominators just above 2^31: numerators near them multiply
# past 2^62 in the first step and past 2^63 (int64 would wrap) in the second
_BIG_DENS = (2**31 + 11, 2**31 + 15, 2**31 + 17)


def _near_one_map(p):
    return SubstochMap(
        (0, 1),
        (0, 1),
        ((Fraction(p - 1, p), Fraction(2, p)), (Fraction(1, p), Fraction(p - 2, p))),
    )


def test_overflowing_chain_falls_back_to_python_ints(monkeypatch):
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(_BIG_DENS, 2))
    bit = inferential_system((0, 1))
    boxes = tuple(
        fstheory.embedded(_near_one_map(p), in_types=(bit,), out_types=(bit,))
        for p in _BIG_DENS
    )
    d = _net(
        boxes,
        (
            (("in", 0), ("box", 0, 0)),
            (("box", 0, 0), ("box", 1, 0)),
            (("box", 1, 0), ("box", 2, 0)),
            (("box", 2, 0), ("out", 0)),
        ),
        ins=(bit,),
        outs=(bit,),
    )
    steps = []
    real = tensornet.tensordot

    def spy(a, b, axes):
        out = real(a, b, axes)
        steps.append(out.num.dtype)
        return out

    monkeypatch.setattr(tensornet, "tensordot", spy)
    got = fstheory.denote(d)
    monkeypatch.undo()
    # numerators past 2^62 stay Python ints; an int64 step leaves int64 behind
    assert steps == [np.dtype(object)] * 2
    assert got.den >= 2**63
    assert _same_fractions(got.entries, _reference_matrix(d, _fraction_tensor))


def test_kernel_stays_on_int64_below_the_bound():
    a = tensornet.Scaled(np.array([[3, 1], [0, 2]], dtype=np.int64), 4)
    b = tensornet.Scaled(np.array([2**30, 1], dtype=np.int64), 2**30)
    got = tensornet.tensordot(a, b, ([1], [0]))
    assert got.num.dtype == np.int64
    want = [Fraction(3, 4) + Fraction(1, 4 * 2**30), Fraction(2, 4 * 2**30)]
    assert [Fraction(int(v), got.den) for v in got.num] == want
    # bound max|a| * max|b| * shared size: 2^30 * 2^30 * 2 passes, 2^31 * 2^31 * 2 does not
    below = tensornet.Scaled(np.array([2**30, 1], dtype=np.int64), 2**31)
    assert tensornet.tensordot(below, below, ([0], [0])).num.dtype == np.int64
    above = tensornet.Scaled(np.array([2**31, 1], dtype=np.int64), 2**32)
    got = tensornet.tensordot(above, above, ([0], [0]))
    assert got.num.dtype == object
    assert Fraction(int(got.num), got.den) == Fraction(2**62 + 1, 2**64)
