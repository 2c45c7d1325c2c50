"""Operational models: declarations, prediction, probing, equivalence."""

import math
import random
import warnings
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ci_engine import fstheory, nogo, optheory, substoch
from ci_engine.diagrams import (
    Diagram,
    causal_system,
    compose_parallel,
    compose_sequential,
    from_box,
    identity,
    inferential_system,
    quantum_system,
)
from ci_engine.errors import (
    CarrierMismatch,
    ConfigError,
    NotCausallyClosed,
    NotPositive,
    SignatureMismatch,
    TypeMismatch,
    UnresolvedProcedure,
    ValidationError,
)
from ci_engine.fileformat import load_model
from ci_engine.fstheory import ignore, prop_gain, state_box
from ci_engine.optheory import (
    PredictionMap,
    ProcedureDecl,
    QuantumProcess,
    op_equivalent,
    op_knowledge_box,
    point_atomic_table,
    predict_closed,
    procedure_box,
    procedure_diagram,
    quotient_representative,
    reconstruct,
)

from conftest import (
    SEED,
    close_inputs,
    rand_closed_classical_diagram,
    rand_closed_quantum_diagram,
    rand_substoch,
)
from oracles import born_bell_table, mat_apply, proc_tensor_reference

F = Fraction
BIT = causal_system((0, 1))


def _stoch(dom, cod, cols):
    entries = tuple(
        tuple(F(cols[c][r]) for c in range(len(dom))) for r in range(len(cod))
    )
    return substoch.SubstochMap(dom, cod, entries)


# ---------------------------------------------------------------------------
# Declarations


def test_decl_rejects_inferential_ports():
    h = inferential_system((0, 1))
    with pytest.raises(TypeMismatch):
        ProcedureDecl("p", (h,), (), substoch.top_effect((0, 1)))


def test_decl_checks_matrix_signature():
    with pytest.raises(CarrierMismatch):
        ProcedureDecl(
            "p", (BIT,), (BIT,), substoch.top_effect((0, 1))
        )


def test_decl_requires_known_channel_kind():
    with pytest.raises(ConfigError):
        ProcedureDecl("p", (), (BIT,), object())


def test_kraus_overnormalized_rejected():
    q = quantum_system("q", 2)
    bad = QuantumProcess({((), ()): (((2, 0), (0, 2)),)})
    with pytest.raises((NotPositive, ValidationError)):
        ProcedureDecl("u", (q,), (q,), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), 1e300, 1.5, 1.5j])
def test_kraus_entries_must_be_finite_and_at_most_one(bad):
    q = quantum_system("q", 2)
    channel = QuantumProcess({((), ()): (((bad, 0), (0, 0)),)})
    with warnings.catch_warnings():
        # refused before M^dagger M is formed, so nothing overflows
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="not finite or exceeds 1 in modulus"):
            ProcedureDecl("u", (q,), (q,), channel)


def test_trace_non_increasing_kraus_families_pass_the_entry_bound():
    q = quantum_system("q", 2)
    ProcedureDecl("u", (q,), (q,), QuantumProcess({((), ()): (((0, 1j), (1, 0)),)}))
    rng = np.random.default_rng(SEED)
    for k in (1, 2, 3, 4):
        z = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
        # orthonormal columns, so the sum of K^dagger K over the blocks is 1
        iso, _ = np.linalg.qr(z)
        kraus = tuple(iso[2 * i : 2 * i + 2] for i in range(k))
        ProcedureDecl("u", (q,), (q,), QuantumProcess({((), ()): kraus}))


@pytest.mark.parametrize("side", ["ins", "outs"])
def test_kraus_data_refuses_a_nonclassical_enumerated_port(side):
    # neither classical nor quantum: refused when declared, as predict_closed would
    port = causal_system((0, 1), classical=False)
    ins, outs = ((port,), ()) if side == "ins" else ((), (port,))
    with pytest.raises(TypeMismatch, match="^not a quantum system$"):
        ProcedureDecl("p", ins, outs, QuantumProcess({((), ()): ([[1]],)}))


@pytest.mark.parametrize(
    "branch, message",
    [
        (((0, 1), (0,)), "classical label arity mismatch"),
        (((0,), ()), "classical label arity mismatch"),
        (((2,), (0,)), "label 2 not in carrier"),
        (((0,), (5,)), "label 5 not in carrier"),
        # the output label is checked first
        (((2,), (5,)), "label 2 not in carrier"),
    ],
    ids=["arity-out", "arity-in", "bad-out", "bad-in", "both-bad"],
)
def test_kraus_branch_labels_must_fit_the_classical_ports(branch, message):
    channel = QuantumProcess({((0,), (1,)): ([[0.5]],), branch: ([[0.5]],)})
    with pytest.raises(CarrierMismatch, match=f"^procedure 'p': {message}$"):
        ProcedureDecl("p", (BIT,), (BIT,), channel)


@st.composite
def _hybrid_decls(draw):
    """A procedure on 0-3 quantum registers of dimension 1-3 per side, with
    classical ports between them, and several Kraus branches, one empty."""

    def ports(name):
        dims = draw(st.lists(st.integers(1, 3), max_size=3))
        out = [quantum_system(f"{name}{k}", d) for k, d in enumerate(dims)]
        for n in draw(st.lists(st.integers(1, 3), max_size=2)):
            out.insert(draw(st.integers(0, len(out))), causal_system(tuple(range(n))))
        return tuple(out)

    def labels(types):
        return list(iproduct(*(t.carrier for t in types if t.classical)))

    outs, ins = ports("o"), ports("i")
    d_out = math.prod(t.carrier.dim for t in outs if not t.classical)
    d_in = math.prod(t.carrier.dim for t in ins if not t.classical)
    # at most 64^2 complex cells per branch
    assume(d_out * d_in <= 64)
    rng = random.Random(draw(st.integers(0, 2**30)))
    keys = list(iproduct(labels(outs), labels(ins)))
    keys = rng.sample(keys, rng.randint(1, min(4, len(keys))))

    def matrix():
        cells = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d_out * d_in)]
        return np.array(cells).reshape(d_out, d_in)

    kraus = {
        key: [matrix() for _ in range(0 if k == 0 and len(keys) > 1 else rng.randint(1, 3))]
        for k, key in enumerate(keys)
    }
    # sum of |m|_F^2 bounds every sum of m^dagger m, so the family stays trace non-increasing
    total = sum(np.sum(np.abs(m) ** 2) for mats in kraus.values() for m in mats)
    scale = rng.uniform(0.5, 1) / math.sqrt(total)
    return ProcedureDecl(
        "p", ins, outs, QuantumProcess({k: [m * scale for m in v] for k, v in kraus.items()})
    )


@settings(max_examples=150, deadline=None)
@given(_hybrid_decls())
def test_superoperators_match_the_former_block_construction_bit_for_bit(decl):
    got = optheory._proc_tensor(decl)
    want = proc_tensor_reference(decl)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_thirty_one_dimensional_registers_fit_the_superoperator():
    # more registers than einsum has letters for pairs; dimension 1 takes none
    ones = tuple(quantum_system(f"q{k}", 1) for k in range(15))
    q = quantum_system("q", 2)
    decl = ProcedureDecl(
        "p", ones + (q,), (q,) + ones, QuantumProcess({((), ()): ([[0.5, 0], [0, 0.5j]],)})
    )
    got = optheory._proc_tensor(decl)
    assert got.shape == (4,) + (1,) * 30 + (4,)
    assert np.array_equal(got, proc_tensor_reference(decl))


def test_prediction_map_alphabet_follows_decl_order():
    a = ProcedureDecl("a", (), (BIT,), _stoch(("*",), (0, 1), [[1, 0]]))
    b = ProcedureDecl("b", (), (BIT,), _stoch(("*",), (0, 1), [[0, 1]]))
    pm = PredictionMap((a, b))
    assert pm.alphabet((), (BIT,)) == ("a", "b")
    assert pm.decl("b") is b
    assert pm.backend == "classical"


def test_unmatched_signature_has_no_knowledge_box():
    a = ProcedureDecl("a", (), (BIT,), _stoch(("*",), (0, 1), [[1, 0]]))
    pm = PredictionMap((a,))
    with pytest.raises(UnresolvedProcedure):
        op_knowledge_box(pm, (BIT,), (BIT,))


# ---------------------------------------------------------------------------
# Classical prediction


def _chain_model(rng):
    prep_col = [F(1, 2), F(1, 2)]
    move = rand_substoch(rng, (0, 1), (0, 1), stochastic=True)
    decls = (
        ProcedureDecl("prep", (), (BIT,), _stoch(("*",), (0, 1), [prep_col])),
        ProcedureDecl("move", (BIT,), (BIT,), move),
    )
    return PredictionMap(decls), move


def test_closed_chain_matches_hand_computation():
    rng = random.Random(SEED)
    for _ in range(30):
        pm, move = _chain_model(rng)
        d = procedure_diagram(pm, "prep")
        d = compose_sequential(d, procedure_diagram(pm, "move"))
        d = compose_sequential(d, from_box(prop_gain(BIT)))
        d = compose_sequential(
            d,
            compose_parallel(from_box(ignore(BIT)), identity(d.output_types[1:])),
        )
        got = predict_closed(d, pm)
        want = mat_apply(move.entries, (F(1, 2), F(1, 2)))
        assert tuple(row[0] for row in got.entries) == want


def test_predict_refuses_open_causal_ports():
    rng = random.Random(SEED + 1)
    pm, _ = _chain_model(rng)
    with pytest.raises(NotCausallyClosed):
        predict_closed(procedure_diagram(pm, "move"), pm)


def test_procedure_box_equals_pointed_knowledge():
    rng = random.Random(SEED + 2)
    pm, _ = _chain_model(rng)
    base = procedure_diagram(pm, "prep")

    via_point = compose_sequential(base, procedure_diagram(pm, "move"))
    via_box = compose_sequential(
        base, from_box(procedure_box(pm, "move"))
    )

    def finish(d):
        d = compose_sequential(d, from_box(prop_gain(BIT)))
        return compose_sequential(
            d,
            compose_parallel(from_box(ignore(BIT)), identity(d.output_types[1:])),
        )

    assert op_equivalent(finish(via_point), finish(via_box), pm)


def test_procedure_diagram_wires_point_knowledge_into_its_box():
    pm, _ = _chain_model(random.Random(SEED + 2))
    for decl in pm.decls:
        pt, kb = procedure_diagram(pm, decl.name).boxes
        assert pt.name == f"[{decl.name}]"
        assert kb == op_knowledge_box(pm, decl.ins, decl.outs)
        wires = [(("box", 0, 0), ("box", 1, 0))]
        wires += [(("in", i), ("box", 1, i + 1)) for i in range(len(decl.ins))]
        wires += [(("box", 1, j), ("out", j)) for j in range(len(decl.outs))]
        assert procedure_diagram(pm, decl.name) == Diagram((pt, kb), wires, decl.ins, decl.outs)


def _coin_split(gap):
    """A fair coin and the same coin moved by ``gap`` toward heads."""
    half = F(1, 2)
    fair = substoch.SubstochMap(("*",), (0, 1), ((half,), (half,)))
    moved = substoch.SubstochMap(("*",), (0, 1), ((half + gap,), (half - gap,)))
    return fair, moved


def test_classical_predictions_agree_only_when_equal():
    fair, moved = _coin_split(F(1, 10**9))
    assert optheory.agree(fair, fair, "classical") == (0, True)
    assert optheory.agree(fair, moved, "classical") == (F(1, 10**9), False)


def test_quantum_predictions_agree_within_exactly_one_billionth():
    fair, moved = _coin_split(F(1, 10**9))
    assert optheory.agree(fair, moved, "quantum") == (F(1, 10**9), True)
    fair, moved = _coin_split(F(1, 10**9) + F(1, 10**30))
    assert optheory.agree(fair, moved, "quantum") == (F(1, 10**9) + F(1, 10**30), False)


def test_op_equivalent_follows_the_agreement_rule(monkeypatch):
    rng = random.Random(SEED + 2)
    pm, _ = _chain_model(rng)
    d = compose_sequential(procedure_diagram(pm, "prep"), from_box(prop_gain(BIT)))
    d = compose_sequential(
        d, compose_parallel(from_box(ignore(BIT)), identity(d.output_types[1:]))
    )
    assert op_equivalent(d, d, pm)
    monkeypatch.setattr(
        optheory, "agree", lambda p1, p2, backend: (substoch.max_gap(p1, p2), False)
    )
    assert not op_equivalent(d, d, pm)


def test_random_classical_predictions_are_substochastic():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        d, pm = rand_closed_classical_diagram(rng)
        t = predict_closed(d, pm)
        total = sum(row[0] for row in t.entries)
        assert 0 <= total <= 1


def test_op_equivalence_signature_guard():
    rng = random.Random(SEED + 4)
    pm, _ = _chain_model(rng)
    d1, _ = rand_closed_classical_diagram(rng)
    with pytest.raises(SignatureMismatch):
        op_equivalent(
            d1, compose_parallel(d1, identity((inferential_system((0, 1)),))), pm
        )


def test_point_atomic_reconstruction_classical_exact():
    rng = random.Random(SEED + 5)
    for _ in range(30):
        d, pm = rand_closed_classical_diagram(rng)
        table = point_atomic_table(d, pm)
        rebuilt = reconstruct(table)
        assert rebuilt == predict_closed(d, pm)


def test_quotient_representative_is_the_prediction():
    rng = random.Random(SEED + 6)
    d, pm = rand_closed_classical_diagram(rng)
    assert quotient_representative(d, pm) == predict_closed(d, pm)


# ---------------------------------------------------------------------------
# Quantum prediction


def test_singlet_table_matches_direct_born_rule():
    rho, (meas_a, meas_b) = nogo.singlet_model()
    s = nogo.chsh_scenario()
    pm = nogo.bell_prediction_map(rho, (meas_a, meas_b), s)
    d = nogo.bell_template(pm)
    oracle = born_bell_table(rho, meas_a, meas_b)
    for x in (0, 1):
        for y in (0, 1):
            states = [
                substoch.point_state(
                    d.input_types[0].carrier, d.input_types[0].carrier[x]
                ),
                substoch.point_state(
                    d.input_types[1].carrier, d.input_types[1].carrier[y]
                ),
            ]
            closed = close_inputs(d, states)
            got = predict_closed(closed, pm)
            flat = [float(row[0]) for row in got.entries]
            for k in range(4):
                assert abs(flat[k] - oracle[x * 2 + y][k]) < 1e-9


def test_ignoring_one_half_of_the_singlet_leaves_a_fair_coin():
    # measuring A0 on the singlet and discarding qB: the quantum ignore
    # is the trace, so both outcomes come out 1/2
    pm = nogo.bell_prediction_map(*nogo.singlet_model(), nogo.chsh_scenario())
    src, a0 = procedure_box(pm, "src"), procedure_box(pm, "A0")
    q_b = src.outs[1]
    (out_a,) = a0.outs
    learn = prop_gain(out_a)
    d = Diagram(
        (src, a0, learn, ignore(out_a), ignore(q_b)),
        (
            (("box", 0, 0), ("box", 1, 0)),
            (("box", 0, 1), ("box", 4, 0)),
            (("box", 1, 0), ("box", 2, 0)),
            (("box", 2, 0), ("box", 3, 0)),
            (("box", 2, 1), ("out", 0)),
        ),
        (),
        (learn.outs[1],),
    )
    got = predict_closed(d, pm)
    assert len(got.entries) == 2
    for (p,) in got.entries:
        assert abs(float(p) - 0.5) < 1e-9


def test_quantum_backend_reads_realist_generators_as_their_fractions():
    rng = random.Random(SEED + 9)
    pm = nogo.bell_prediction_map(*nogo.singlet_model(), nogo.chsh_scenario())
    tensor = optheory._quantum_tensor(pm, {})
    boxes = [ignore(BIT), prop_gain(BIT)]
    for _ in range(20):
        den = rng.randrange(2**64, 2**80)
        cuts = sorted(rng.randrange(den) for _ in range(2))
        weights = (cuts[0], cuts[1] - cuts[0], den - cuts[1])
        sigma = substoch.KnowledgeState((0, 1, 2), [F(w, den) for w in weights])
        boxes.append(state_box(sigma))
    widest = 0
    for box in boxes:
        t = fstheory.generator_tensor(box)
        nums = t.num.ravel().tolist()
        widest = max(widest, *nums)
        got = tensor(box)
        assert got.dtype == complex and got.shape == t.shape
        assert got.ravel().tolist() == [complex(F(v, t.den)) for v in nums]
    assert widest > 2**63


def test_random_quantum_diagrams_normalize():
    rng = random.Random(SEED + 7)
    for _ in range(4):
        d, pm = rand_closed_quantum_diagram(rng)
        t = predict_closed(d, pm)
        total = sum(float(v) for row in t.entries for v in row)
        assert abs(total - 1) < 1e-9


def test_point_atomic_reconstruction_quantum():
    rng = random.Random(SEED + 8)
    for _ in range(3):
        d, pm = rand_closed_quantum_diagram(rng)
        table = point_atomic_table(d, pm)
        rebuilt = reconstruct(table)
        direct = predict_closed(d, pm)
        for r in range(len(direct.cod)):
            for c in range(len(direct.dom)):
                assert (
                    abs(float(rebuilt.entries[r][c]) - float(direct.entries[r][c]))
                    <= 1e-12
                )



def test_point_atomic_table_builds_each_superoperator_once(monkeypatch):
    # the singlet template's 16 probes share its 5 procedures: one
    # superoperator each per call, and the bits of a table that builds
    # them again for every probe
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    pm = load_model((data / "singlet.model").read_text())
    d = nogo.bell_template(pm)
    real_predict, real_proc = optheory._predict, optheory._proc_tensor
    with monkeypatch.context() as mp:
        mp.setattr(optheory, "_predict", lambda d, pm, procs: real_predict(d, pm, {}))
        per_probe = point_atomic_table(d, pm)
    built = []

    def spy(decl):
        built.append(decl.name)
        return real_proc(decl)

    monkeypatch.setattr(optheory, "_proc_tensor", spy)
    assert point_atomic_table(d, pm) == per_probe
    assert sorted(built) == sorted(decl.name for decl in pm.decls)


@pytest.mark.parametrize(
    "nan, message",
    [
        (math.nan, "outside"),
        (complex(math.nan, 0.0), "outside"),
        (complex(0.0, math.nan), "non-real"),
    ],
    ids=["float", "complex-real", "complex-imag"],
)
def test_a_nan_probe_is_invalid(nan, message):
    table = optheory.PointAtomicTable(("x",), ("y", "n"), ((nan,), (0.0,)))
    with pytest.raises(ValidationError, match=message):
        reconstruct(table)
