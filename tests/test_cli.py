"""Command line driver: exit codes, records output, error reporting."""

import argparse
import io
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from ci_engine import cli, diagrams, fileformat, fstheory, funcdyn, nogo, optheory, substoch

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"

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


def test_equiv_on_procedure_files():
    coin = str(DATA / "coin_dynamics.diagram")
    code, out, err = run("equiv", coin, coin)
    assert (code, err) == (0, "")
    assert "equivalent: true" in out.splitlines()
    code, out, err = run("equiv", coin, str(DATA / "chsh_fixed_settings.diagram"))
    assert (code, out) == (2, "")
    assert err == "error: the two files declare different procedures\n"


def test_eval_state_and_effect_boxes_from_a_file(tmp_path):
    path = tmp_path / "half.diagram"
    path.write_text(
        """ci-engine/1 diagram

{
  systems: [
    {name: h0, kind: inferential, carrier: [0 1]}
  ]
  boxes: [
    {id: b0, gen: state, system: h0, weights: [1/2 1/2]}
    {id: b1, gen: effect, system: h0, members: [0]}
  ]
  wires: [
    [[box b0 0] [box b1 0]]
  ]
  inputs: []
  outputs: []
}
"""
    )
    code, out, err = run("eval", str(path))
    assert (code, err) == (0, "")
    assert "entries: [[1/2]]" in out.splitlines()


def test_eval_of_a_box_with_more_axes_than_numpy_allows_is_an_input_error(tmp_path):
    one = diagrams.inferential_system((0,))
    cod = fstheory.bundle_carrier((one,) * 65)
    box = fstheory.embedded(substoch.SubstochMap(("*",), cod, ((1,),)), out_types=(one,) * 65)
    path = tmp_path / "wide.diagram"
    path.write_bytes(fileformat.serialize_diagram(diagrams.from_box(box)))
    code, out, err = run("eval", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: CapExceeded: box ") and "has 65 axes" in err


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


def test_seed_is_an_option_of_verify_axioms_only(capsys):
    code, out, _ = run("eval", "--seed", "1", str(DATA / "coin_dynamics.diagram"))
    assert code == 2 and out == ""
    # argparse reports usage errors on sys.stderr
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    code, _, _ = run("verify-axioms", "--max-carrier", "1", "--seed", "1")
    assert code == 0


def test_bell_check_correlation_file(monkeypatch):
    # routed to the LP: its Farkas facet separates the PR box by 5
    monkeypatch.setattr(nogo, "_chsh_facet", lambda s, qn, qd: None)
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


def test_bell_check_correlation_file_carries_the_chsh_facet():
    code, out, _ = run(
        "bell-check", "--corr", str(DATA / "pr_box.correlation"), "--format", "records"
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["verdict"] == "nonmember"
    assert rec["facet"] == [1, -1, -1, 1] * 3 + [-1, 1, 1, -1]
    assert (rec["bound"], rec["violation"], rec["chsh"]) == (2, 2, 4)


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


def _shared_trit_model():
    """Two wings that read one uniform trit through deterministic responses."""
    ta, tb = diagrams.causal_system(("a0", "a1", "a2")), diagrams.causal_system(("b0", "b1", "b2"))
    bit = diagrams.causal_system((0, 1))
    cod = diagrams.product_carrier(ta.carrier, tb.carrier)
    shared = [[F(1, 3) if x[1:] == y[1:] else 0] for x, y in cod]
    decls = [optheory.ProcedureDecl("src", (), (ta, tb), substoch.SubstochMap(diagrams.STAR, cod, shared))]
    for t in (ta, tb):
        for setting, ones in (("0", {0}), ("1", {0, 1})):
            # outcome 1 exactly on the trit values in ``ones``
            table = tuple(int(k in ones) for k in range(3))
            response = substoch.from_fn(funcdyn.Fn(t.carrier, bit.carrier, table))
            decls.append(optheory.ProcedureDecl(t.carrier[0][0] + setting, (t,), (bit,), response))
    return optheory.PredictionMap(decls)


def test_bell_check_classical_model_stays_exact(tmp_path):
    pm = _shared_trit_model()
    corr = nogo.model_correlations(pm)
    assert corr.is_exact
    assert all(isinstance(v, Fraction) for row in corr.table for v in row)
    verdict = nogo.fs_compatible(corr, corr.scenario)
    assert isinstance(verdict, nogo.Member)
    assert all(isinstance(w, Fraction) for w in verdict.weights) and sum(verdict.weights) == 1
    path = tmp_path / "trit.model"
    path.write_text(fileformat.dump_model(pm))
    code, out, err = run("bell-check", "--quantum", str(path), "--expect", "member", "--format", "records")
    assert (code, err) == (0, "")
    rec = records(out)[0]
    assert rec["exact_input"] is True
    assert rec["verdict"] == "member" and rec["weights"] == list(verdict.weights)
    vertices = [v.as_vector() for v in nogo.local_vertices(corr.scenario)]
    recombined = [sum(w * v[i] for w, v in zip(rec["weights"], vertices)) for i in range(16)]
    assert recombined == list(corr.as_vector())


def test_bell_check_member_record(tmp_path):
    s = nogo.chsh_scenario()
    uniform = nogo.Correlation(s, [[F(1, 4)] * 4 for _ in s.contexts()])
    path = tmp_path / "uniform.correlation"
    path.write_text(fileformat.dump_correlation(uniform))
    code, out, err = run("bell-check", "--corr", str(path), "--expect", "member", "--format", "records")
    assert (code, err) == (0, "")
    rec = records(out)[0]
    assert rec["verdict"] == "member" and "expected" not in rec
    vertices = [v.as_vector() for v in nogo.local_vertices(s)]
    assert len(rec["weights"]) == len(vertices) and sum(rec["weights"]) == 1
    recombined = [sum(w * v[i] for w, v in zip(rec["weights"], vertices)) for i in range(16)]
    assert recombined == list(uniform.as_vector())


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


def test_the_argument_parser_is_built_once(monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert run("eval", str(DATA / "coin_dynamics.diagram"))[0] == 0
    assert built == []


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line for line in lines if line.startswith("ci-engine ")]


def test_readme_command_line_examples_run(monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = _readme_examples()
    assert len(examples) >= 9
    failed = []
    for line in examples:
        code, _, err = run(*shlex.split(line)[1:])
        if code != 0:
            failed.append((line, code, err))
    assert failed == []


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


def test_rep_check_prediction_record_follows_the_agreement_rule(monkeypatch):
    monkeypatch.setattr(
        optheory, "agree", lambda p1, p2, backend: (substoch.max_gap(p1, p2), False)
    )
    code, out, err = run(
        "rep-check",
        "--rep",
        str(DATA / "bit_flip.rep"),
        "--diagram",
        str(DATA / "coin_dynamics.diagram"),
        "--format",
        "records",
    )
    assert code == 1 and err == ""
    checks = {r["check"]: r for r in records(out) if "check" in r}
    assert checks["reproduces-predictions"] == {
        "cmd": "rep-check",
        "check": "reproduces-predictions",
        "passed": False,
        "gap": 0,
    }


def _coin_measurement(pm, name):
    """prep0, then procedure ``name``, then learn the bit and drop it."""
    bit = pm.decl("id").ins[0]
    d = optheory.procedure_diagram(pm, "prep0")
    d = diagrams.compose_sequential(d, optheory.procedure_diagram(pm, name))
    d = diagrams.compose_sequential(d, diagrams.from_box(fstheory.prop_gain(bit)))
    return diagrams.compose_sequential(
        d,
        diagrams.compose_parallel(
            diagrams.from_box(fstheory.ignore(bit)), diagrams.identity(d.output_types[1:])
        ),
    )


def _rep_check_with_pairs(tmp_path, make_pairs):
    """rep-check of the demo coin against witness pairs built from its procedures."""
    _, pm = fileformat.load_diagram((DATA / "coin_dynamics.diagram").read_text())
    path = tmp_path / "witness.pairs"
    path.write_text(fileformat.dump_pairs(make_pairs(pm), pm))
    return run(
        "rep-check",
        "--rep",
        str(DATA / "bit_flip.rep"),
        "--diagram",
        str(DATA / "coin_dynamics.diagram"),
        "--leibniz-pairs",
        str(path),
        "--format",
        "records",
    )


def test_rep_check_pairs_with_an_open_causal_boundary_are_not_vetted(tmp_path):
    def pairs(pm):
        boxed = diagrams.from_box(optheory.procedure_box(pm, "id"))
        return ((optheory.procedure_diagram(pm, "id"), boxed),)

    code, out, err = _rep_check_with_pairs(tmp_path, pairs)
    assert code == 0 and err == ""
    leib = [r for r in records(out) if r.get("check") == "leibnizian"]
    assert leib == [
        {"cmd": "rep-check", "check": "leibnizian", "passed": True, "pairs": 1, "vetted": False}
    ]


def test_rep_check_with_no_pairs_says_its_pass_is_vacuous(tmp_path):
    code, out, err = _rep_check_with_pairs(tmp_path, lambda pm: ())
    assert code == 0 and err == ""
    leib = [r for r in records(out) if r.get("check") == "leibnizian"]
    assert leib == [
        {
            "cmd": "rep-check",
            "check": "leibnizian",
            "passed": True,
            "pairs": 0,
            "vetted": True,
            "vacuous": True,
        }
    ]
    # the demo pairs file with its list emptied reads the same
    text = (DATA / "prepare_then_sure_id.pairs").read_text()
    start = text.index("  pairs: [")
    emptied = tmp_path / "emptied.pairs"
    emptied.write_text(text[:start] + "  pairs: []\n}\n")
    code, out, err = run(
        "rep-check",
        "--rep",
        str(DATA / "bit_flip.rep"),
        "--diagram",
        str(DATA / "coin_dynamics.diagram"),
        "--leibniz-pairs",
        str(emptied),
        "--format",
        "records",
    )
    assert code == 0 and err == ""
    assert [r for r in records(out) if r.get("check") == "leibnizian"] == leib


def test_rep_check_an_operationally_inequivalent_witness_exits_two(tmp_path):
    def pairs(pm):
        return ((_coin_measurement(pm, "id"), _coin_measurement(pm, "flip")),)

    code, out, err = _rep_check_with_pairs(tmp_path, pairs)
    assert code == 2 and out == ""
    assert err.startswith("error: PairNotEquivalent: witness pair differs operationally")


def test_rep_check_unvetted_pairs_with_different_images_exit_one(tmp_path):
    def pairs(pm):
        return ((optheory.procedure_diagram(pm, "id"), optheory.procedure_diagram(pm, "flip")),)

    code, out, err = _rep_check_with_pairs(tmp_path, pairs)
    assert code == 1 and err == ""
    checks = {r["check"]: r for r in records(out) if "check" in r}
    assert checks["applies"]["passed"] is True
    assert checks["reproduces-predictions"]["passed"] is True
    assert checks["leibnizian"] == {
        "cmd": "rep-check",
        "check": "leibnizian",
        "passed": False,
        "pairs": 1,
        "vetted": False,
    }


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dim: 2", "dim: 0", "dim must be a positive integer"),
        ("      dim: 2\n", "", "a system needs the field 'dim'"),
    ],
    ids=["zero", "missing"],
)
def test_a_quantum_dim_is_refused_at_its_system_record(tmp_path, old, new, message):
    bad = tmp_path / "bad.model"
    bad.write_text((DATA / "singlet.model").read_text().replace(old, new, 1))
    code, out, err = run("bell-check", "--quantum", str(bad))
    assert code == 2
    assert err == f"parse error: line 5, column 5: {message}\n"


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


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, name, old, new, message",
    [
        # a card beyond the C index range is capped before any context is built
        (("bell-check", "--corr"), "pr_box.correlation", "cards: [2, 2,", f"cards: [2, {_HUGE},",
         "CapExceeded: the scenario's table has more than"),
        # an exact integer beyond float range next to a float
        (("bell-check", "--corr"), "pr_box.correlation", "[1/2, 0/1, 0/1, 1/2]", f"[0.5, 0/1, 0/1, {_HUGE}]",
         "ValidationError: probability out of range"),
        (("simplex-embed", "--fragment"), "hexagon.fragment", "[1/2, 1/4, 3/8]", f"[1/2, 0.25, {_HUGE}]",
         "ValidationError: a float fragment holds a number beyond float range"),
        # a Kraus entry whose square would overflow the trace check
        (("bell-check", "--quantum"), "singlet.model", "[[-0.7071067811865475, 0.0]]", "[[1e300, 0.0]]",
         "ValidationError: procedure 'src': Kraus entry (1e+300+0j) is not finite or exceeds 1"),
    ],
    ids=["huge-card", "float-table-huge-int", "float-fragment-huge-int", "huge-kraus-entry"],
)
def test_numbers_beyond_range_exit_two_with_an_error(tmp_path, argv, name, old, new, message):
    text = (DATA / name).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with warnings.catch_warnings():
        # refused before any arithmetic on the number can overflow
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(*argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_a_nonclassical_causal_port_with_kraus_data_exits_two(tmp_path):
    text = (DATA / "singlet.model").read_text(encoding="utf-8")
    old = "      kind: causal\n      carrier: [0, 1]\n"
    assert old in text
    path = tmp_path / "singlet.model"
    path.write_text(text.replace(old, old + "      classical: false\n", 1), encoding="utf-8")
    code, out, err = run("bell-check", "--quantum", str(path))
    assert (code, out, err) == (2, "", "error: TypeMismatch: not a quantum system\n")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["verify-axioms", "--max-carrier", "1"], 0),
        (["bell-check", "--corr", "demos/data/pr_box.correlation", "--expect", "member"], 1),
    ],
    ids=["passing", "negative"],
)
def test_a_closed_stdout_keeps_the_exit_code_and_an_empty_stderr(argv, want):
    # the read end of stdout is closed before the child has written a line,
    # so every write of the report meets a broken pipe
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.Popen(
        [sys.executable, "-m", "ci_engine.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read()
    assert (child.wait(timeout=120), err) == (want, b"")
