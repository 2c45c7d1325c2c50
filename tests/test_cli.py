"""Command line driver: exit codes, records output, error reporting."""

import io
from fractions import Fraction
from pathlib import Path

import pytest

from ci_engine import cli, fileformat, nogo

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

F = Fraction


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def records(text):
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        _, value, _ = fileformat.loads("ci-engine/1 diagram\n\n" + line)
        out.append(value)
    return out


def test_eval_classical_demo():
    code, out, err = run(
        "eval", str(DATA / "coin_dynamics.diagram"), "--format", "records"
    )
    assert code == 0 and err == ""
    recs = records(out)
    payload = recs[0]
    assert payload["backend"] == "classical"
    assert payload["cod"] == [0, 1]
    assert payload["entries"] == [[F(1, 2)], [F(1, 2)]]
    assert recs[-1]["cmd"] == "eval"
    assert "elapsed_ms" in recs[-1]


def test_eval_human_mode_prints_matrix():
    code, out, err = run("eval", str(DATA / "omelette_constants.diagram"))
    assert code == 0
    assert "1/2" in out


def test_equiv_on_equivalent_files():
    code, out, _ = run(
        "equiv",
        str(DATA / "omelette_constants.diagram"),
        str(DATA / "omelette_reversible.diagram"),
        "--format",
        "records",
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["equivalent"] is True


def test_equiv_negative_verdict_exits_one(tmp_path):
    other = tmp_path / "point.diagram"
    other.write_text(
        """ci-engine/1 diagram

{
  systems: [
    {name: c0, kind: causal, carrier: [0 1]}
  ]
  boxes: [
    {id: b0, gen: state, system: c0, weights: [1/1 0/1]}
    {id: b1, gen: knowledge, ins: [], outs: [c0]}
  ]
  wires: [
    [[box b0 0] [box b1 0]]
    [[box b1 0] [out 0]]
  ]
  inputs: []
  outputs: [c0]
}
"""
    )
    src = (DATA / "omelette_constants.diagram").read_text()
    # same signature, different matrix: flip the mixture to surely-broken
    flipped = tmp_path / "other.diagram"
    flipped.write_text(src.replace("1/2", "1/3", 1).replace("1/2", "2/3", 1))
    code, out, _ = run(
        "equiv",
        str(DATA / "omelette_constants.diagram"),
        str(flipped),
        "--format",
        "records",
    )
    assert code == 1
    recs = records(out)
    assert recs[0]["equivalent"] is False


def test_normal_form_emits_matrix_and_diagram():
    code, out, _ = run(
        "normal-form",
        str(DATA / "omelette_reversible.diagram"),
        "--format",
        "records",
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["entries"] == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    inner, pm = fileformat.load_diagram(recs[0]["diagram"])
    assert pm is None
    assert len(inner.boxes) >= 1


def test_qnf_reports_stochastic_part_and_weights():
    code, out, _ = run(
        "qnf", str(DATA / "omelette_constants.diagram"), "--format", "records"
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["sigma"] == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    assert recs[0]["weights"] == [F(1), F(1)]


def test_verify_axioms_all_pass():
    code, out, _ = run(
        "verify-axioms", "--max-carrier", "2", "--format", "records"
    )
    assert code == 0
    recs = records(out)
    axiom_recs = [r for r in recs if "axiom" in r]
    assert len(axiom_recs) == 11
    assert all(r["passed"] is True for r in axiom_recs)
    summary = [r for r in recs if "max_carrier" in r]
    assert summary and summary[0]["passed"] is True


def test_verify_axioms_human_lines():
    code, out, _ = run("verify-axioms", "--max-carrier", "2")
    assert code == 0
    assert out.count("PASS") >= 11


def test_verify_axioms_seed_reproducible():
    _, out1, _ = run(
        "verify-axioms", "--max-carrier", "2", "--seed", "5",
        "--format", "records",
    )
    _, out2, _ = run(
        "verify-axioms", "--max-carrier", "2", "--seed", "5",
        "--format", "records",
    )

    def strip(recs):
        return [
            {k: v for k, v in r.items() if k != "elapsed_ms"} for r in recs
        ]

    assert strip(records(out1)) == strip(records(out2))


def test_bell_check_correlation_file():
    code, out, _ = run(
        "bell-check",
        "--scenario",
        "chsh",
        "--corr",
        str(DATA / "pr_box.correlation"),
        "--format",
        "records",
    )
    assert code == 0
    recs = records(out)
    rec = recs[0]
    assert rec["verdict"] == "nonmember"
    assert rec["violation"] == F(5)
    assert rec["chsh"] == F(4)
    assert rec["no_signalling"] is True


def test_bell_check_expectation_mismatch_exits_one():
    code, out, _ = run(
        "bell-check",
        "--corr",
        str(DATA / "pr_box.correlation"),
        "--expect",
        "member",
        "--format",
        "records",
    )
    assert code == 1
    recs = records(out)
    assert recs[0]["expected"] == "member"


def test_bell_check_quantum_model():
    code, out, _ = run(
        "bell-check",
        "--quantum",
        str(DATA / "singlet.model"),
        "--format",
        "records",
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["verdict"] == "nonmember"
    assert abs(rec["chsh"] - 2.8284271) < 1e-6
    assert rec["no_signalling"] is True
    assert rec["exact_input"] is False


def test_bell_check_member_weights_recombine():
    code, out, _ = run(
        "bell-check",
        "--corr",
        str(DATA / "pr_box.correlation"),
        "--format",
        "records",
    )
    nonmember = records(out)[0]
    assert nonmember["verdict"] == "nonmember"
    assert len(nonmember["facet"]) == 16
    assert isinstance(nonmember["bound"], Fraction)


def test_scenario_spec_spellings_agree():
    c1, out1, _ = run(
        "bell-check",
        "--scenario",
        "bell:2,2,2,2",
        "--corr",
        str(DATA / "pr_box.correlation"),
        "--format",
        "records",
    )
    c2, out2, _ = run(
        "bell-check",
        "--scenario",
        "chsh",
        "--corr",
        str(DATA / "pr_box.correlation"),
        "--format",
        "records",
    )
    assert c1 == c2 == 0
    r1 = records(out1)[0]
    r2 = records(out2)[0]
    assert r1["verdict"] == r2["verdict"] == "nonmember"


def test_scenario_help_lists_every_kind(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "300")
    assert cli.run(["bell-check", "--help"]) == 0
    help_text = capsys.readouterr().out
    for form in (
        "chsh",
        "bell:x,y,a,b",
        "instrumental:x,a,b",
        "prepare-measure:x,a,y,b",
        "triangle:a,b,c[,latent]",
    ):
        assert form in help_text


@pytest.mark.parametrize(
    "spec",
    ["bell:2,2", "instrumental:2,2,2,2", "prepare-measure:2,2,2,2,2", "triangle:2,2", "nope:2"],
)
def test_malformed_scenario_spec_exits_two(spec):
    code, out, err = run(
        "bell-check", "--scenario", spec, "--corr", str(DATA / "pr_box.correlation")
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_simplex_embed_bit_fragment():
    code, out, _ = run(
        "simplex-embed",
        "--fragment",
        str(DATA / "bit.fragment"),
        "--lambda-max",
        "2",
        "--format",
        "records",
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["verdict"] == "feasible"
    assert rec["size"] == 2


def test_simplex_embed_hexagon_expect_mismatch():
    code, out, _ = run(
        "simplex-embed",
        "--fragment",
        str(DATA / "hexagon.fragment"),
        "--expect",
        "feasible",
        "--format",
        "records",
    )
    assert code == 1
    rec = records(out)[0]
    assert rec["verdict"] == "infeasible"
    assert rec["up_to"] == 16


def test_simplex_embed_octahedron():
    code, out, _ = run(
        "simplex-embed",
        "--fragment",
        str(DATA / "octahedron.fragment"),
        "--lambda-max",
        "4",
        "--expect",
        "feasible",
        "--format",
        "records",
    )
    assert code == 0
    assert records(out)[0]["size"] == 4


def test_rep_check_passes_on_demo():
    code, out, _ = run(
        "rep-check",
        "--rep",
        str(DATA / "bit_flip.rep"),
        "--diagram",
        str(DATA / "coin_dynamics.diagram"),
        "--leibniz-pairs",
        str(DATA / "prepare_then_sure_id.pairs"),
        "--format",
        "records",
    )
    assert code == 0
    recs = records(out)
    checks = {r["check"]: r for r in recs if "check" in r}
    assert checks["applies"]["passed"] is True
    assert checks["reproduces-predictions"]["passed"] is True
    assert checks["leibnizian"]["passed"] is True


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.diagram"
    bad.write_text(
        """ci-engine/1 diagram

{
  systems: [{name: s, kind: causal, carrier: [0 1]}]
  boxes: [{id: g, gen: ignore, system: s}]
  wires: [[[in 0] [box g]]]
  inputs: [s]
  outputs: []
}
"""
    )
    code, out, err = run("eval", str(bad))
    assert code == 2
    assert "parse error" in err
    assert "line" in err


def test_missing_file_is_an_input_error():
    code, _, err = run("eval", "/nonexistent/xyz.diagram")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_is_an_input_error():
    code, _, _ = run("frobnicate")
    assert code == 2


def test_chsh_fixed_settings_demo_evaluates():
    code, out, _ = run(
        "eval", str(DATA / "chsh_fixed_settings.diagram"), "--format", "records"
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["backend"] == "quantum"
    total = sum(sum(row) for row in rec["entries"])
    assert abs(float(total) - 1) < 1e-9


def test_bell_check_on_a_triangle_table_is_an_error(tmp_path):
    s = nogo.Triangle(2, 2, 2)
    ghz = [[F(1, 2) if o in ((0, 0, 0), (1, 1, 1)) else F(0) for o in s.outcomes()]]
    path = tmp_path / "ghz.correlation"
    path.write_text(fileformat.dump_correlation(nogo.Correlation(s, ghz)))
    for extra in ((), ("--expect", "nonmember")):
        code, out, err = run(
            "bell-check", "--scenario", "triangle:2,2,2", "--corr", str(path), *extra
        )
        assert code == 2 and out == ""
        assert "WrongScenario: triangle compatibility is not a polytope membership" in err
