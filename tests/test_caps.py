"""The enumeration cap and the predicate that every size check goes through."""

import io

import numpy as np
import pytest

from ci_engine import caps, cli, fileformat, fstheory, substoch
from ci_engine.caps import enumeration_cap, over_cap
from ci_engine.diagrams import causal_system, layered, quantum_system
from ci_engine.errors import CapExceeded
from ci_engine.fstheory import denote, ignore, knowledge_box, state_box
from ci_engine.funcdyn import copy_fn
from ci_engine.optheory import (
    PredictionMap,
    ProcedureDecl,
    QuantumProcess,
    op_knowledge_box,
    predict_closed,
    procedure_box,
)
from ci_engine.substoch import from_fn, from_partial_fn, point_state


@pytest.mark.parametrize(
    "raw",
    [None, "abc", "1", "1000", "5000", "100000000"],
    ids=["unset", "unparsable", "below-floor", "floor", "5000", "above-ceiling"],
)
def test_over_cap_is_size_above_the_cap(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("CI_ENGINE_CAP", raising=False)
    else:
        monkeypatch.setenv("CI_ENGINE_CAP", raw)
    cap = enumeration_cap()
    for n in (0, 1, 999, 1000, 1001, cap, cap + 1):
        assert over_cap(n) == (n > cap), n


def test_sizes_at_or_below_the_floor_skip_the_environment(monkeypatch):
    def no_read():
        raise AssertionError("the cap was read")

    monkeypatch.setattr(caps, "enumeration_cap", no_read)
    for n in (0, 1, 999, 1000):
        assert over_cap(n) is False
    with pytest.raises(AssertionError, match="the cap was read"):
        over_cap(1001)


def test_the_contraction_cap_still_stops_the_axiom_battery(monkeypatch):
    # the battery now meets the sequential axiom's 9 x 243 chain matrix
    # before its first contraction past the cap; that contraction, the
    # left side at carrier sizes (2, 3, 3), still stops at the cap
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded) as info:
        fstheory.verify_fs_axioms(3)
    assert str(info.value) == "matrix of 2187 cells exceeds the cap"
    a, b, c = (causal_system(tuple(range(n))) for n in (2, 3, 3))
    kb_ab, kb_bc = knowledge_box((a,), (b,)), knowledge_box((b,), (c,))
    ha, hb = kb_ab.ins[0], kb_bc.ins[0]
    lhs = layered((ha, hb, a), (1, 0, 2), (hb, kb_ab), (kb_bc,))
    with pytest.raises(CapExceeded) as info:
        denote(lhs)
    assert str(info.value) == "intermediate tensor of size 1458 exceeds the cap"
    monkeypatch.delenv("CI_ENGINE_CAP")
    assert fstheory.verify_fs_axioms(3).ok


def test_a_function_matrix_is_capped_before_allocation(monkeypatch):
    # copy on 32 points: 32 columns of 1024 rows each
    f = copy_fn(range(32))
    assert from_fn(f).num.shape == (1024, 32)
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")

    def no_alloc(*args, **kwargs):
        raise AssertionError("the matrix was allocated")

    monkeypatch.setattr(substoch.np, "zeros", no_alloc)
    for build in (from_fn, from_partial_fn):
        with pytest.raises(CapExceeded, match="^matrix of 32768 cells exceeds the cap$"):
            build(f)


def test_the_axiom_battery_passes_at_carrier_four():
    # the propagation axiom skips the one hom-set of more than 100 functions,
    # Hom(4, 4) with 256, whose copy would be a 65536 x 256 matrix
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["verify-axioms", "--max-carrier", "4"], out=out, err=err) == 0
    assert err.getvalue() == ""
    report = fstheory.verify_fs_axioms(4)
    assert report.ok
    assert report.results[8] == ("knowledge-propagates-through-dynamics", True, "15 hom pairs")


def _channel_model(dim, alphabet):
    """A state on one ``dim``-dimensional register, a channel from ``alphabet``
    chosen by a point, then the trace."""
    q = quantum_system("q", dim)
    start = [[1.0]] + [[0.0]] * (dim - 1)
    decls = [ProcedureDecl("prep", (), (q,), QuantumProcess({((), ()): (start,)}))]
    decls += [
        ProcedureDecl(name, (q,), (q,), QuantumProcess({((), ()): (np.eye(dim),)}))
        for name in alphabet
    ]
    pm = PredictionMap(decls)
    kb = op_knowledge_box(pm, (q,), (q,))
    point = state_box(point_state(kb.ins[0].carrier, alphabet[0]))
    d = layered((), (point, procedure_box(pm, "prep")), (kb,), (ignore(q),))
    return d, pm


def test_quantum_procedure_tensors_are_capped_before_allocation(monkeypatch, tmp_path):
    # one 8-dimensional channel: 64 x 64 superoperator cells
    d, pm = _channel_model(8, ("id",))
    assert predict_closed(d, pm).entries == ((1,),)
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded, match="^generator tensor of 4096 cells exceeds the cap$"):
        predict_closed(d, pm)
    path = tmp_path / "channel.diagram"
    path.write_bytes(fileformat.serialize_diagram(d, pm))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["eval", str(path)], out=out, err=err) == 2
    assert err.getvalue() == "error: CapExceeded: generator tensor of 4096 cells exceeds the cap\n"


def test_a_knowledge_box_is_capped_over_its_whole_alphabet(monkeypatch):
    # two 5-dimensional channels: 625 cells each, 1250 stacked
    d, pm = _channel_model(5, ("a", "b"))
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded, match="^generator tensor of 1250 cells exceeds the cap$"):
        predict_closed(d, pm)
    d, pm = _channel_model(5, ("a",))
    assert predict_closed(d, pm).entries == ((1,),)
