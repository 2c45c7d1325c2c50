"""Text format: lexing, parsing, canonical writes, round trips."""

import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ci_engine import cli, fileformat, fstheory, nogo, optheory, substoch
from ci_engine.diagrams import diagrams_equal
from ci_engine.errors import ConfigError, ParseError
from ci_engine.fileformat import (
    dump_correlation,
    dump_fragment,
    dump_model,
    dump_pairs,
    dump_rep,
    dumps_value,
    load_correlation,
    load_diagram,
    load_fragment,
    load_model,
    load_pairs,
    load_rep,
    loads,
    parse_diagram,
    serialize_diagram,
)

from conftest import SEED, rand_closed_classical_diagram, rand_fs_diagram

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

F = Fraction


# ---------------------------------------------------------------------------
# Reader basics


def _parse_value(body):
    kind, value, _ = loads("ci-engine/1 diagram\n\n" + body)
    return value


def test_scalars_and_collections():
    v = _parse_value(
        '{a: 3, b: -2/4, c: 1.5, d: hello, e: "two words", f: [1 2, 3], g: true}'
    )
    assert v["a"] == 3 and isinstance(v["a"], int)
    assert v["b"] == F(-1, 2) and isinstance(v["b"], Fraction)
    assert v["c"] == 1.5 and isinstance(v["c"], float)
    assert v["d"] == "hello"
    assert v["e"] == "two words"
    assert v["f"] == [1, 2, 3]
    assert v["g"] is True


def test_comments_and_loose_commas():
    v = _parse_value(
        """
{
  # settings per wing
  cards: [2 2]   # inline note
  name: demo,
}
"""
    )
    assert v == {"cards": [2, 2], "name": "demo"}


def test_string_escapes():
    v = _parse_value(r'{s: "a\"b\\c\ndA"}')
    assert v["s"] == 'a"b\\c\ndA'


def test_fraction_needs_nonzero_denominator():
    with pytest.raises(ParseError):
        _parse_value("{x: 1/0}")


def test_bad_header_is_rejected():
    with pytest.raises(ParseError):
        fileformat.loads("ci-engine/2 diagram\n\n{}")
    with pytest.raises(ParseError):
        fileformat.loads("diagram\n\n{}")


def test_trailing_content_is_rejected():
    with pytest.raises(ParseError):
        fileformat.loads("ci-engine/1 diagram\n\n{} extra")


def test_duplicate_field_has_a_position():
    with pytest.raises(ParseError) as err:
        _parse_value('{a: 1, a: 2}')
    assert err.value.line >= 1
    assert "a" in str(err.value)


def test_malformed_wire_reports_line_and_column():
    text = """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [{id: g, gen: ignore, system: s}]
  wires: [[[in 0] [box g]]]
  inputs: [s]
  outputs: []
}
"""
    with pytest.raises(ParseError) as err:
        load_diagram(text)
    assert err.value.line == 6
    assert err.value.column > 0


def test_duplicate_box_id_rejected():
    text = """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [
    {id: g, gen: ignore, system: s}
    {id: g, gen: ignore, system: s}
  ]
  wires: [[[in 0] [box g 0]] [[in 1] [box g 0]]]
  inputs: [s s]
  outputs: []
}
"""
    with pytest.raises(ParseError):
        load_diagram(text)


# ---------------------------------------------------------------------------
# Writer basics


def test_rationals_always_print_with_denominator():
    assert dumps_value(F(1), inline=True) == "1/1"
    assert dumps_value(F(-3, 4), inline=True) == "-3/4"
    assert dumps_value(0.5, inline=True) == "0.5"


def test_non_finite_floats_are_refused():
    with pytest.raises(ConfigError):
        dumps_value(float("nan"), inline=True)
    with pytest.raises(ConfigError):
        dumps_value(float("inf"), inline=True)


def test_inline_records_parse_back():
    rec = {"verdict": "member", "weights": [F(1, 2), F(1, 2)], "n": 3}
    line = dumps_value(rec, inline=True)
    assert "\n" not in line
    kind, value, _ = loads("ci-engine/1 diagram\n\n" + line)
    assert value == rec


# ---------------------------------------------------------------------------
# Round trips


def test_random_diagrams_round_trip_canonically():
    rng = random.Random(SEED)
    for _ in range(25):
        d = rand_fs_diagram(rng)
        blob = serialize_diagram(d)
        d2, pm = load_diagram(blob.decode())
        assert pm is None
        assert diagrams_equal(d, d2)
        assert serialize_diagram(d2) == blob


def test_operational_diagrams_round_trip_with_model():
    rng = random.Random(SEED + 1)
    for _ in range(10):
        d, pm = rand_closed_classical_diagram(rng)
        blob = serialize_diagram(d, pm)
        d2, pm2 = load_diagram(blob.decode())
        assert diagrams_equal(d, d2)
        assert serialize_diagram(d2, pm2) == blob
        t1 = optheory.predict_closed(d, pm)
        t2 = optheory.predict_closed(d2, pm2)
        assert t1 == t2


def test_op_diagram_requires_model_to_serialize():
    rng = random.Random(SEED + 2)
    d, pm = rand_closed_classical_diagram(rng)
    with pytest.raises(ConfigError):
        serialize_diagram(d)


def test_model_round_trip():
    rho, meas = nogo.singlet_model()
    pm = nogo.bell_prediction_map(rho, meas, nogo.chsh_scenario())
    blob = dump_model(pm)
    pm2 = load_model(blob)
    assert [d.name for d in pm2.decls] == [d.name for d in pm.decls]
    assert dump_model(pm2) == blob
    c1 = nogo.model_correlations(pm)
    c2 = nogo.model_correlations(pm2)
    for r in range(4):
        for c in range(4):
            assert abs(c1.table[r][c] - c2.table[r][c]) < 1e-12


def test_correlation_round_trip_exact_and_float():
    exact = nogo.pr_box()
    blob = dump_correlation(exact)
    back = load_correlation(blob)
    assert back.table == exact.table
    assert back.is_exact
    assert dump_correlation(back) == blob

    rho, meas = nogo.singlet_model()
    fl = nogo.quantum_correlations(rho, meas, nogo.chsh_scenario())
    blob = dump_correlation(fl)
    back = load_correlation(blob)
    assert not back.is_exact
    for r in range(4):
        for c in range(4):
            assert back.table[r][c] == fl.table[r][c]


def _uniform_correlation_text(scenario_record, s):
    n = len(s.outcomes())
    row = "[" + " ".join([f"1/{n}"] * n) + "]"
    rows = " ".join([row] * len(s.contexts()))
    return (
        "ci-engine/1 correlation\n\n{\n"
        f"  scenario: {scenario_record}\n  table: [{rows}]\n}}\n"
    )


@pytest.mark.parametrize(
    "record, misread",
    [
        ("{type: bell, cards: []}", nogo.Bell(2, 2, 2, 2)),
        ("{type: bell, cards: [2, 2]}", nogo.Bell(2, 2, 2, 2)),
        ("{type: triangle, cards: [2, 2], latent: 3}", nogo.Triangle(2, 2, 3)),
        ("{type: bell, cards: [2, 2, 2, 2], latent: 2}", nogo.Bell(2, 2, 2, 2)),
    ],
    ids=["no-cards", "short", "triangle-shift", "latent-on-bell"],
)
def test_a_wrong_card_count_is_a_parse_error(tmp_path, record, misread):
    # each table fits the scenario the defaults would fill in, so only
    # the card count can reject the file
    text = _uniform_correlation_text(record, misread)
    with pytest.raises(ParseError) as err:
        load_correlation(text)
    assert err.value.line == 4
    path = tmp_path / "short.correlation"
    path.write_text(text)
    assert cli.run(["bell-check", "--corr", str(path)], out=io.StringIO(), err=io.StringIO()) == 2


def test_a_scenario_type_must_be_a_name():
    text = _uniform_correlation_text("{type: [bell], cards: [2, 2, 2, 2]}", nogo.Bell())
    with pytest.raises(ParseError, match="unknown scenario type"):
        load_correlation(text)


def test_fragment_round_trip():
    for frag in (
        nogo.classical_bit_fragment(),
        nogo.qubit_stabilizer_fragment(),
        nogo.hexagon_fragment(),
    ):
        blob = dump_fragment(frag)
        back = load_fragment(blob)
        assert back.states == frag.states
        assert back.effects == frag.effects
        assert back.unit == frag.unit
        assert dump_fragment(back) == blob


def test_demo_artifacts_parse_and_round_trip():
    for name in (
        "chsh_fixed_settings.diagram",
        "coin_dynamics.diagram",
        "omelette_constants.diagram",
        "omelette_reversible.diagram",
    ):
        text = (DATA / name).read_text()
        d, pm = load_diagram(text)
        assert serialize_diagram(d, pm).decode() == text


def test_demo_rep_checks_out():
    text = (DATA / "coin_dynamics.diagram").read_text()
    d, pm = load_diagram(text)
    rep = load_rep((DATA / "bit_flip.rep").read_text(), pm)
    image = fstheory.apply_representation(rep, d)
    assert fstheory.predict(image) == optheory.predict_closed(d, pm)
    assert dump_rep(rep, pm) == (DATA / "bit_flip.rep").read_text()


def test_demo_pairs_load_with_shared_model():
    text = (DATA / "prepare_then_sure_id.pairs").read_text()
    pairs, pm = load_pairs(text)
    assert pm is not None
    assert len(pairs) == 1
    d1, d2 = pairs[0]
    assert optheory.op_equivalent(d1, d2, pm)
    assert dump_pairs(pairs, pm) == text


def test_omelette_files_differ_but_agree():
    d1, _ = load_diagram((DATA / "omelette_constants.diagram").read_text())
    d2, _ = load_diagram((DATA / "omelette_reversible.diagram").read_text())
    assert not diagrams_equal(d1, d2)
    assert fstheory.inferentially_equivalent(d1, d2)


def test_unknown_generator_is_a_parse_error():
    text = """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [{id: g, gen: mystery, system: s}]
  wires: [[[in 0] [box g 0]]]
  inputs: [s]
  outputs: []
}
"""
    with pytest.raises(ParseError):
        load_diagram(text)


def test_missing_required_field_is_a_parse_error():
    text = """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [{id: g, gen: ignore}]
  wires: [[[in 0] [box g 0]]]
  inputs: [s]
  outputs: []
}
"""
    with pytest.raises(ParseError):
        load_diagram(text)


def test_unknown_system_reference_is_a_parse_error():
    text = """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [{id: g, gen: ignore, system: nope}]
  wires: [[[in 0] [box g 0]]]
  inputs: [s]
  outputs: []
}
"""
    with pytest.raises(ParseError):
        load_diagram(text)
