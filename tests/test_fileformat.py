"""Text format: lexing, parsing, canonical writes, round trips."""

import io
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ci_engine import cli, diagrams, errors, fileformat, fstheory, nogo, optheory
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
    serialize_diagram,
)

from conftest import SEED, rand_closed_classical_diagram, rand_fs_diagram
from oracles import ReferenceParseError, loads_reference, tokenize_reference

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
# Scanner against the character-loop reference

_FRAGMENTS = (
    ["{", "}", "[", "]", ":", ",", '"', '"', "\\"]
    + ['\\"', "\\\\", "\\n", "\\t", "\\u", "\\x", "\\ ", "0041", "00e9", "+041", " 41 ", "4_1"]
    + ["-", "/", ".", "e", "E", "+", "0", "1", "7", "12", "9e9", "é"]
    + ["abc", "x_y", "_1", "zz", "true", "false", "#", "# note", " ", "\t", "\r", "\n"]
)
_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _comparable(tokens):
    return [(kind, repr(value), line, col) for kind, value, line, col in tokens]


def _intended_departure(text, err):
    """Is ``err`` a ParseError the reference scanner does not raise on
    purpose: a ``\\u`` whose four characters are not all hex digits but
    that ``int(..., 16)`` reads, or a float literal that overflows?"""
    lines = text.split("\n")
    at = text[sum(len(x) + 1 for x in lines[: err.line - 1]) + err.column - 1 :]
    if str(err).endswith("bad unicode escape"):
        quad = at[2:6]
        if len(quad) < 4 or all(c in "0123456789abcdefABCDEF" for c in quad):
            return False
        try:
            int(quad, 16)
        except ValueError:
            return False
        return True
    if str(err).endswith("number out of range"):
        m = _FLOAT.match(at)
        return m is not None and math.isinf(float(m.group()))
    return False


def _positioned_tokens(text):
    """The reader's lexemes of ``text`` as scanner tokens (kind, value,
    line, col), read through its positioned view."""
    error = fileformat._lexical_error(text, 1)
    if error is not None:
        raise error
    tokens = []
    for lexeme, _, line, col in fileformat._located(text, 1):
        if not lexeme:
            tokens.append(("eof", None, line, col))
        elif lexeme in "{}[]:,":
            tokens.append((lexeme, lexeme, line, col))
        else:
            value = fileformat._scalar(lexeme)
            if isinstance(value, bool):
                kind = "bool"
            elif isinstance(value, str):
                kind = "str" if lexeme[0] == '"' else "word"
            else:
                kind = "num"
            tokens.append((kind, value, line, col))
    return tokens


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_scanner_matches_the_reference(text):
    try:
        expected = _comparable(tokenize_reference(text, 1))
    except ReferenceParseError as exc:
        expected = (f"line {exc.line}, column {exc.column}: {exc.message}", exc.line, exc.column)
    except Exception:
        expected = None  # the reference crashes where the scanner must refuse
    try:
        got = _comparable(_positioned_tokens(text))
    except ParseError as exc:
        if expected is None or _intended_departure(text, exc):
            return
        assert (str(exc), exc.line, exc.column) == expected
        return
    assert isinstance(expected, list), expected
    if "#" in text.rsplit("\n", 1)[-1]:
        # the reference does not advance the column inside a comment
        got[-1], expected[-1] = got[-1][:3], expected[-1][:3]
    assert got == expected


# ---------------------------------------------------------------------------
# Reader against the token-list reference

# structural pieces, and a number beyond what int() converts
_PIECES = _FRAGMENTS + ["{a: ", "[", "]", "}", ":", "7" * 4400]


def _reading(load, text):
    """What ``load`` makes of ``text``: the value, with the type of each
    scalar and the position of each record and array, or the error."""
    try:
        _, value, locs = load(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column

    def typed(v):
        if isinstance(v, dict):
            return "{", locs.get(id(v)), [(k, typed(x)) for k, x in v.items()]
        if isinstance(v, list):
            return "[", locs.get(id(v)), [typed(x) for x in v]
        return type(v), v

    return typed(value)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_reader_matches_the_reference(body):
    text = "ci-engine/1 diagram\n\n" + body
    assert _reading(loads, text) == _reading(loads_reference, text)


# ---------------------------------------------------------------------------
# Malformed input is a positioned ParseError


def _parse_error(body):
    with pytest.raises(ParseError) as err:
        _parse_value(body)
    assert err.value.line is not None and err.value.column is not None
    return err.value


@pytest.mark.parametrize("digit", ["²", "٣", "１"])
def test_numbers_take_ascii_digits_only(digit):
    err = _parse_error(f"{{x: [1, {digit}]}}")
    assert (err.line, err.column) == (3, 9)
    assert "unexpected character" in str(err)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1.5e309"])
def test_a_float_literal_that_overflows_is_refused(literal):
    err = _parse_error(f"{{x: {literal}}}")
    assert (err.line, err.column) == (3, 5)
    assert _parse_value("{x: 1e-400}") == {"x": 0.0}


def test_an_integer_beyond_the_conversion_limit_is_refused():
    err = _parse_error("{x: " + "7" * 5000 + "}")
    assert "number out of range" in str(err)


def test_unicode_escapes_take_exactly_four_hex_digits():
    assert _parse_value('{s: "\\u00e9\\u0041"}') == {"s": "éA"}
    for quad in ("+041", " 41 ", "4_1", "004"):
        err = _parse_error(f'{{s: "ab\\u{quad}"}}')
        assert (err.line, err.column) == (3, 8)
        assert "bad unicode escape" in str(err)


def test_nesting_is_bounded():
    deep = fileformat._MAX_DEPTH
    nested = _parse_value("[" * deep + "]" * deep)
    for _ in range(deep - 1):
        (nested,) = nested
    assert nested == []
    err = _parse_error("{x: " + "[" * deep + "]" * deep + "}")
    assert "nesting deeper than" in str(err)
    err = _parse_error("[" * 3000 + "]" * 3000)
    assert (err.line, err.column) == (3, deep + 1)


def _diagram_with(box, carrier="[0 1]"):
    return f"""ci-engine/1 diagram

{{
  systems: [{{name: s, kind: causal, carrier: {carrier}}}]
  boxes: [{box}]
  wires: [[[in 0] [box g 0]]]
  inputs: [s]
  outputs: []
}}
"""


def test_a_generator_tag_must_be_a_name():
    with pytest.raises(ParseError, match="box generator must be a name") as err:
        load_diagram(_diagram_with("{id: g, gen: [learn], system: s}"))
    assert err.value.line == 5


_MODEL_WITH_RECORD_LABEL = """ci-engine/1 model

{
  systems: [{name: q, kind: quantum, dim: 1}]
  procedures: [
    {name: p, ins: [], outs: [q], kraus: [{out: [{a: 1}], in: [], mats: [[[1]]]}]}
  ]
}
"""

_REP_WITH_RECORD_LABEL = """ci-engine/1 rep

{
  systems: [{name: q, kind: quantum, dim: 2}]
  ontic: [{system: q, carrier: [0, {a: 1}]}]
  xi: []
}
"""


@pytest.mark.parametrize(
    "load, text",
    [
        (load_diagram, _diagram_with("{id: g, gen: ignore, system: s}", "[0 {a: 1}]")),
        (load_diagram, _diagram_with("{id: g, gen: ignore, system: s}", "[0 [1 {a: 1}]]")),
        (lambda text: load_rep(text, None), _REP_WITH_RECORD_LABEL),
        (load_model, _MODEL_WITH_RECORD_LABEL),
    ],
    ids=["carrier", "nested-carrier", "ontic", "kraus"],
)
def test_a_record_is_not_a_label(load, text):
    with pytest.raises(ParseError, match="a label cannot be a record") as err:
        load(text)
    assert err.value.line is not None


def test_a_top_level_array_is_not_a_diagram():
    with pytest.raises(ParseError, match="diagram must be a record"):
        load_diagram("ci-engine/1 diagram\n\n[]\n")


_IGNORE_BOX = "{id: g, gen: ignore, system: s}"
_SCALAR_SYSTEMS = _diagram_with(_IGNORE_BOX).replace(
    "systems: [{name: s, kind: causal, carrier: [0 1]}]", "systems: 5"
)
_SCALAR_ENDPOINT = _diagram_with(_IGNORE_BOX).replace("[[in 0] [box g 0]]", "[in [box g 0]]")
_SCALAR_SCENARIO = re.sub(
    r"scenario: \{[^}]*\}", "scenario: bell", (DATA / "pr_box.correlation").read_text()
)


@pytest.mark.parametrize(
    "load, text, message, position",
    [
        (load_diagram, _diagram_with(_IGNORE_BOX, "3"), "carrier must be an array", (4, 13)),
        (load_diagram, _SCALAR_SYSTEMS, "systems must be an array", (3, 1)),
        (load_diagram, _diagram_with("5"), "a box must be a record", (5, 10)),
        (load_diagram, _SCALAR_ENDPOINT, "an endpoint is", (6, 11)),
        (load_correlation, _SCALAR_SCENARIO, "a scenario must be a record", (3, 1)),
        (load_diagram, "ci-engine/1 diagram\n\n  5\n", "diagram must be a record", (3, 3)),
    ],
    ids=["carrier", "systems", "box", "endpoint", "scenario", "top-level"],
)
def test_a_misplaced_scalar_is_reported_at_its_holder(load, text, message, position):
    with pytest.raises(ParseError, match=message) as err:
        load(text)
    assert (err.value.line, err.value.column) == position


_MALFORMED = {
    "superscript-digit": ("correlation", "pr_box.correlation", "1/2", "²"),
    "arabic-indic-digit": ("correlation", "pr_box.correlation", "1/2", "٣"),
    "deep-nesting": ("correlation", "pr_box.correlation", "[1/2", "[" * 3000 + "1/2" + "]" * 2999 + "1/2"),
    "overflowing-float": ("fragment", "hexagon.fragment", "1/4", "1e400"),
    "generator-array": ("diagram", "coin_dynamics.diagram", "gen: learn", "gen: [learn]"),
    "record-label": ("diagram", "coin_dynamics.diagram", "carrier: [id, flip]", "carrier: [id, {f: 1}]"),
    "scalar-carrier": ("diagram", "coin_dynamics.diagram", "carrier: [id, flip]", "carrier: 3"),
    "ragged-kraus-matrix": ("model", "singlet.model", "[[-0.7071067811865475, 0.0]]", "[]"),
    "huge-kraus-entry": ("model", "singlet.model", "-0.7071067811865475", "1" + "0" * 400),
}
_CLI_FOR = {
    "correlation": ["bell-check", "--corr"],
    "fragment": ["simplex-embed", "--fragment"],
    "diagram": ["eval"],
    "model": ["bell-check", "--quantum"],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_files_exit_two_with_a_position(tmp_path, case):
    kind, name, old, new = _MALFORMED[case]
    text = (DATA / name).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(_CLI_FOR[kind] + [str(path)], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert re.fullmatch(r"parse error: line \d+, column \d+: [^\n]+\n", err.getvalue())


_EMBEDDED = """ci-engine/1 diagram

{
  systems: [{name: h, kind: inferential, carrier: [0 1]}]
  boxes: [{id: g, gen: embedded, ins: [h], outs: [h], entries: ENTRIES}]
  wires: [[[in 0] [box g 0]] [[box g 0] [out 0]]]
  inputs: [h]
  outputs: [h]
}
"""


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ("[[1 0]]", errors.DimensionMismatch, "entry grid must be |cod| x |dom|"),
        ("[[1 0] [0]]", errors.DimensionMismatch, "entry grid must be |cod| x |dom|"),
        ("[[] []]", errors.DimensionMismatch, "entry grid must be |cod| x |dom|"),
        ("[[-1 0] [0 1]]", errors.WeightError, "entry -1 outside [0, 1]"),
        ("[[3/2 0] [0 1]]", errors.WeightError, "column 0 sums to 3/2 > 1"),
        ("[[1/2 0] [1/2 1.0]]", ParseError, "line 5, column 73: entries must be rationals"),
    ],
    ids=["short", "ragged", "empty-rows", "negative", "column-sum", "float"],
)
def test_a_bad_exact_matrix_is_refused_as_the_map_refuses_it(entries, error, message):
    with pytest.raises(error) as err:
        load_diagram(_EMBEDDED.replace("ENTRIES", entries))
    assert str(err.value) == message
    d, _ = load_diagram(_EMBEDDED.replace("ENTRIES", "[[1/2 0] [1/2 1]]"))
    assert d.boxes[0].payload.matrix.entries == ((F(1, 2), 0), (F(1, 2), 1))


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("coin_dynamics.diagram", "[[1/2], [1/2]]", "[[0.5], [1/2]]", "line 61, column 17: entries must be rationals"),
        ("coin_dynamics.diagram", "[[1/1], [0/1]]", "[[1.0], [0/1]]", "line 26, column 17: entries must be rationals"),
        ("bit_flip.rep", "[[1/1], [0/1]]", "[[1.0], [0/1]]", "line 21, column 17: xi entries must be rationals"),
    ],
    ids=["embedded", "procedure", "xi"],
)
def test_a_float_in_an_exact_matrix_names_its_field_once(name, old, new, message):
    _, pm = load_diagram((DATA / "coin_dynamics.diagram").read_text())
    text = (DATA / name).read_text().replace(old, new, 1)
    load = load_diagram if name.endswith(".diagram") else (lambda t: load_rep(t, pm))
    with pytest.raises(ParseError) as err:
        load(text)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["causal", "inferential"])
def test_a_system_without_a_carrier_names_the_field(kind):
    text = _diagram_with(_IGNORE_BOX).replace("kind: causal, carrier: [0 1]", f"kind: {kind}")
    with pytest.raises(ParseError) as err:
        load_diagram(text)
    assert str(err.value) == "line 4, column 13: a system needs the field 'carrier'"


@pytest.mark.parametrize(
    "dim, message",
    [
        (None, "a system needs the field 'dim'"),
        ("0", "dim must be a positive integer"),
        ("-1", "dim must be a positive integer"),
        ("true", "dim must be a positive integer"),
        ("2/1", "dim must be a positive integer"),
    ],
    ids=["missing", "zero", "negative", "bool", "fraction"],
)
def test_a_quantum_system_needs_a_positive_dim(dim, message):
    field = "" if dim is None else f"\n      dim: {dim}"
    text = (DATA / "singlet.model").read_text().replace("\n      dim: 2", field, 1)
    with pytest.raises(ParseError) as err:
        load_model(text)
    assert str(err.value) == f"line 5, column 5: {message}"


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


def _coin_pm():
    return load_diagram((DATA / "coin_dynamics.diagram").read_text())[1]


# file suffix -> (load, dump): dump(load(text)) must give the text back
_ROUND_TRIPS = {
    ".diagram": (load_diagram, lambda v: serialize_diagram(*v).decode()),
    ".model": (load_model, dump_model),
    ".correlation": (load_correlation, dump_correlation),
    ".fragment": (load_fragment, dump_fragment),
    ".rep": (lambda text: load_rep(text, _coin_pm()), lambda rep: dump_rep(rep, None)),
    ".pairs": (load_pairs, lambda v: dump_pairs(*v)),
}


def _holding(value, key):
    """The record in ``value`` that has the field ``key``."""
    if isinstance(value, dict) and key in value:
        return value
    items = value.values() if isinstance(value, dict) else value
    for item in items if isinstance(value, (dict, list)) else ():
        found = _holding(item, key)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_an_unknown_field_is_reported_at_its_record(name):
    load = _ROUND_TRIPS[Path(name).suffix][0]
    text = (DATA / name).read_text(encoding="utf-8")
    opens = [i for i, c in enumerate(text) if c == "{"]
    assert opens
    for i in opens:
        bad = text[: i + 1] + "zz: 1 " + text[i + 1 :]
        with pytest.raises(ParseError, match="has no field 'zz'") as err:
            load(bad)
        _, value, locs = loads_reference(bad)
        assert (err.value.line, err.value.column) == locs[id(_holding(value, "zz"))]


def test_demo_artifacts_parse_and_round_trip():
    paths = sorted(DATA.iterdir())
    assert len(paths) >= 11
    for path in paths:
        load, dump = _ROUND_TRIPS[path.suffix]
        text = path.read_text(encoding="utf-8")
        assert dump(load(text)) == text, path.name


def test_demo_rep_checks_out():
    text = (DATA / "coin_dynamics.diagram").read_text()
    d, pm = load_diagram(text)
    rep = load_rep((DATA / "bit_flip.rep").read_text(), pm)
    image = fstheory.apply_representation(rep, d)
    assert fstheory.predict(image) == optheory.predict_closed(d, pm)
    assert dump_rep(rep, pm) == (DATA / "bit_flip.rep").read_text()


_QUBIT_REP = """ci-engine/1 rep

{
  systems: [{name: q, kind: quantum, dim: 2}]
  ontic: []
  xi: [{ins: [q], outs: [q], entries: [[1/1]]}]
}
"""


def test_a_xi_signature_takes_the_images_of_its_systems():
    q = diagrams.quantum_system("q", 2)
    unitary = optheory.QuantumProcess({((), ()): ([[1, 0], [0, 1]],)})
    pm = optheory.PredictionMap((optheory.ProcedureDecl("u", (q,), (q,), unitary),))
    # a quantum system has no image until an ontic carrier is declared
    with pytest.raises(ParseError, match=r"xi signature system .* has no ontic carrier"):
        load_rep(_QUBIT_REP, pm)
    rep = load_rep(_QUBIT_REP.replace("ontic: []", "ontic: [{system: q, carrier: [0]}]"), pm)
    assert rep.image(q) == diagrams.causal_system((0,))
    assert rep.xi[((q,), (q,))].cod == fstheory.hom_system((rep.image(q),), (rep.image(q),)).carrier


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
