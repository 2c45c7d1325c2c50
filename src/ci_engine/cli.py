"""Command-line front end over the engine.

Every subcommand reads the textual artifact files, runs one engine
operation and prints a report.  Reports default to labeled
human-readable lines; ``--format records`` switches to one re-parseable
record per line in the same syntax as the files, with rational values
always printed ``p/q``, never as floats.

Exit codes: 0 for a completed run (including a reported NonMember or
Infeasible), 1 for a negative verdict (an ``--expect`` mismatch, a
false ``equiv``, a failed axiom or representation check), 2 for input
errors (unreadable files, parse errors, semantic errors from the
engine).

The enumeration cap honours the ``CI_ENGINE_CAP`` environment variable,
clamped to [10^3, 10^7].
"""

import argparse
import sys
import time
from fractions import Fraction

from . import diagrams, fileformat, fstheory, nogo, optheory, substoch
from .errors import EngineError, ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class CliError(Exception):
    """Bad invocation or inconsistent inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Report rendering


def _fmt_inline(value):
    return fileformat.dumps_value(value, inline=True)


def _is_matrix(value):
    return (
        isinstance(value, list)
        and value
        and all(isinstance(row, list) for row in value)
        and len({len(row) for row in value}) == 1
        and all(
            not isinstance(cell, (list, dict)) for row in value for cell in row
        )
    )


def _human_lines(rec):
    if "axiom" in rec:
        flag = "PASS" if rec["passed"] else "FAIL"
        return [f"{flag} {rec['axiom']} ({rec['detail']})"]
    lines = []
    for key, value in rec.items():
        if key == "cmd":
            continue
        if _is_matrix(value) and len(value) > 1:
            cells = [[_fmt_inline(c) for c in row] for row in value]
            widths = [
                max(len(cells[r][c]) for r in range(len(cells)))
                for c in range(len(cells[0]))
            ]
            lines.append(f"{key}:")
            for row in cells:
                padded = "  ".join(s.rjust(w) for s, w in zip(row, widths))
                lines.append(f"  {padded}")
        elif isinstance(value, str):
            lines.append(f"{key}: {value}")
        else:
            lines.append(f"{key}: {_fmt_inline(value)}")
    return lines


def _emit(records, fmt, out):
    if fmt == "records":
        for rec in records:
            print(fileformat.dumps_value(rec, inline=True), file=out)
    else:
        first = True
        for rec in records:
            lines = _human_lines(rec)
            if not first and len(lines) > 1:
                print(file=out)
            first = False
            for line in lines:
                print(line, file=out)


# ---------------------------------------------------------------------------
# Shared input helpers


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_diagram_file(path):
    return fileformat.load_diagram(_read(path))


def _scenario_form(cls):
    latent = "[,latent]" if hasattr(cls, "latent_card") else ""
    return f"{cls.tag}:{','.join(cls.card_names())}{latent}"


_SCENARIO_HELP = ", ".join(["chsh"] + [_scenario_form(c) for c in nogo.SCENARIOS.values()])


def _parse_scenario(text):
    """Scenario specs: ``chsh`` or ``<tag>:<cards>``, cards in file order."""
    if text == "chsh":
        return nogo.chsh_scenario()
    tag, _, rest = text.partition(":")
    cls = nogo.SCENARIOS.get(tag)
    if cls is None:
        raise CliError(f"unknown scenario {text!r}; try {_SCENARIO_HELP}")
    try:
        cards = [int(c) for c in rest.split(",")]
    except ValueError:
        raise CliError(f"scenario cards must be integers: {rest!r}") from None
    n = len(cls.card_names())
    if len(cards) != n and not (len(cards) == n + 1 and hasattr(cls, "latent_card")):
        raise CliError(f"{text!r} does not match {_scenario_form(cls)}")
    return cls(*cards)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval(args):
    d, pm = _load_diagram_file(args.diagram)
    if pm is None:
        m = fstheory.denote(d)
        backend = "inferential"
    else:
        m = optheory.predict_closed(d, pm)
        backend = pm.backend
    rec = {
        "cmd": "eval",
        "file": args.diagram,
        "backend": backend,
        "dom": [fileformat.label_value(x) for x in m.dom],
        "cod": [fileformat.label_value(x) for x in m.cod],
        "entries": [list(row) for row in m.entries],
    }
    return EXIT_OK, [rec]


def _cmd_equiv(args):
    d1, pm1 = _load_diagram_file(args.left)
    d2, pm2 = _load_diagram_file(args.right)
    if (pm1 is None) != (pm2 is None):
        raise CliError("cannot compare a procedure diagram with a plain one")
    if pm1 is None:
        same = fstheory.inferentially_equivalent(d1, d2)
        backend = "inferential"
    else:
        if fileformat.dump_model(pm1) != fileformat.dump_model(pm2):
            raise CliError("the two files declare different procedures")
        same = optheory.op_equivalent(d1, d2, pm1)
        backend = pm1.backend
    rec = {
        "cmd": "equiv",
        "left": args.left,
        "right": args.right,
        "backend": backend,
        "equivalent": bool(same),
    }
    return (EXIT_OK if same else EXIT_NEGATIVE), [rec]


def _cmd_normal_form(args):
    d, pm = _load_diagram_file(args.diagram)
    if pm is not None:
        raise CliError("normal-form rewrites inferential diagrams only")
    nf = fstheory.normal_form(d)
    rebuilt = fstheory.reconstruct(nf)
    rec = {
        "cmd": "normal-form",
        "file": args.diagram,
        "dom": [fileformat.label_value(x) for x in nf.matrix.dom],
        "cod": [fileformat.label_value(x) for x in nf.matrix.cod],
        "entries": [list(row) for row in nf.matrix.entries],
        "in_inferential": list(nf.in_inferential),
        "in_causal": list(nf.in_causal),
        "out_inferential": list(nf.out_inferential),
        "out_causal": list(nf.out_causal),
        "diagram": fileformat.serialize_diagram(rebuilt).decode("utf-8"),
    }
    return EXIT_OK, [rec]


def _cmd_qnf(args):
    d, pm = _load_diagram_file(args.diagram)
    if pm is None:
        sigma, pi = fstheory.quotient_normal_form(d)
        rec = {
            "cmd": "qnf",
            "file": args.diagram,
            "backend": "inferential",
            "dom": [fileformat.label_value(x) for x in sigma.dom],
            "cod": [fileformat.label_value(x) for x in sigma.cod],
            "sigma": [list(row) for row in sigma.entries],
            "weights": [pi.entries[k][k] for k in range(len(pi.dom))],
        }
    else:
        m = optheory.quotient_representative(d, pm)
        rec = {
            "cmd": "qnf",
            "file": args.diagram,
            "backend": pm.backend,
            "dom": [fileformat.label_value(x) for x in m.dom],
            "cod": [fileformat.label_value(x) for x in m.cod],
            "entries": [list(row) for row in m.entries],
        }
    return EXIT_OK, [rec]


def _cmd_verify_axioms(args):
    report = fstheory.verify_fs_axioms(args.max_carrier, seed=args.seed)
    records = [
        {
            "cmd": "verify-axioms",
            "axiom": name,
            "passed": bool(passed),
            "detail": detail,
        }
        for name, passed, detail in report.results
    ]
    records.append(
        {
            "cmd": "verify-axioms",
            "max_carrier": report.max_carrier,
            "passed": bool(report.ok),
        }
    )
    return (EXIT_OK if report.ok else EXIT_NEGATIVE), records


def _membership_record(corr):
    """Run the local-polytope test; fs_compatible rationalizes float tables."""
    verdict = nogo.fs_compatible(corr, corr.scenario)
    rec = {"exact_input": corr.is_exact}
    if isinstance(verdict, nogo.Member):
        rec["verdict"] = "member"
        rec["weights"] = list(verdict.weights)
    else:
        rec["verdict"] = "nonmember"
        rec["facet"] = list(verdict.facet)
        rec["bound"] = verdict.bound
        rec["violation"] = verdict.violation
    return rec


def _cmd_bell_check(args):
    if args.corr is not None:
        corr = fileformat.load_correlation(_read(args.corr))
        source = args.corr
    else:
        pm = fileformat.load_model(_read(args.quantum))
        corr = nogo.model_correlations(pm)
        source = args.quantum
    if args.scenario is not None:
        wanted = _parse_scenario(args.scenario)
        if wanted != corr.scenario:
            raise CliError(
                f"scenario {args.scenario!r} does not match the file's "
                f"{corr.scenario!r}"
            )
    rec = {"cmd": "bell-check", "file": source}
    rec["scenario"] = fileformat.scenario_value(corr.scenario)
    membership = _membership_record(corr)
    rec.update(membership)
    if corr.scenario == nogo.chsh_scenario():
        rec["chsh"] = nogo.chsh_value(corr)
    rec["no_signalling"] = nogo.no_signalling_check(corr)
    code = EXIT_OK
    if args.expect is not None and args.expect != membership["verdict"]:
        rec["expected"] = args.expect
        code = EXIT_NEGATIVE
    return code, [rec]


def _cmd_simplex_embed(args):
    frag = fileformat.load_fragment(_read(args.fragment))
    outcome = nogo.simplex_embed(frag, lambda_max=args.lambda_max)
    rec = {
        "cmd": "simplex-embed",
        "file": args.fragment,
        "states": len(frag.states),
        "effects": len(frag.effects),
        "dim": frag.dim,
    }
    if isinstance(outcome, nogo.Feasible):
        rec["verdict"] = "feasible"
        rec["size"] = outcome.size
        rec["state_images"] = [list(v) for v in outcome.state_images]
        rec["effect_images"] = [list(v) for v in outcome.effect_images]
        rec["unit_image"] = list(outcome.unit_image)
        verdict = "feasible"
    else:
        rec["verdict"] = "infeasible"
        rec["up_to"] = outcome.up_to
        rec["witness"] = list(outcome.witness)
        verdict = "infeasible"
    code = EXIT_OK
    if args.expect is not None and args.expect != verdict:
        rec["expected"] = args.expect
        code = EXIT_NEGATIVE
    return code, [rec]


def _cmd_rep_check(args):
    d_op, pm = _load_diagram_file(args.diagram)
    rep = fileformat.load_rep(_read(args.rep), pm)
    records = []
    ok = True

    try:
        image = fstheory.apply_representation(rep, d_op)
        applies = True
    except EngineError as exc:
        image = None
        applies = False
        records.append({"cmd": "rep-check", "check": "applies", "passed": False, "detail": str(exc)})
        ok = False
    if applies:
        records.append({"cmd": "rep-check", "check": "applies", "passed": True})

    closed = pm is not None and not any(
        t.kind == diagrams.CAUSAL for t in d_op.input_types + d_op.output_types
    )
    if applies and closed:
        p_op = optheory.predict_closed(d_op, pm)
        p_im = fstheory.predict(image)
        tol = Fraction(0) if pm.backend == "classical" else Fraction(1, 10**9)
        gap = substoch.max_gap(p_op, p_im)
        passed = gap <= tol
        records.append(
            {
                "cmd": "rep-check",
                "check": "reproduces-predictions",
                "passed": bool(passed),
                "gap": gap,
            }
        )
        ok = ok and passed
    elif applies:
        records.append(
            {
                "cmd": "rep-check",
                "check": "reproduces-predictions",
                "skipped": "open causal boundary" if pm is not None else "no procedures",
            }
        )

    if args.leibniz_pairs is not None:
        pairs, pairs_pm = fileformat.load_pairs(_read(args.leibniz_pairs))
        predict_op = None
        tol = 0
        if pairs_pm is not None and all(
            not any(
                t.kind == diagrams.CAUSAL
                for t in dd.input_types + dd.output_types
            )
            for pair in pairs
            for dd in pair
        ):

            def predict_op(dd):
                return optheory.predict_closed(dd, pairs_pm)

            tol = Fraction(0) if pairs_pm.backend == "classical" else Fraction(1, 10**9)
        leib = fstheory.is_leibnizian(rep, pairs, predict_op=predict_op, tol=tol)
        records.append(
            {
                "cmd": "rep-check",
                "check": "leibnizian",
                "passed": bool(leib),
                "pairs": len(pairs),
                "vetted": predict_op is not None,
            }
        )
        ok = ok and leib

    return (EXIT_OK if ok else EXIT_NEGATIVE), records


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "records"),
        default="human",
        help="human-readable lines or one parseable record per line",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=20260814,
        help="seed for randomized spot checks (verify-axioms)",
    )

    parser = argparse.ArgumentParser(
        prog="ci-engine",
        description="Build, evaluate and compare causal-inferential diagrams.",
        epilog="CI_ENGINE_CAP bounds enumeration sizes (clamped to [1e3, 1e7]).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("eval", parents=[common], help="denote or predict a diagram file")
    p.add_argument("diagram")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("equiv", parents=[common], help="compare two diagram files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("normal-form", parents=[common], help="single-matrix rewrite of a diagram")
    p.add_argument("diagram")
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("qnf", parents=[common], help="quotient normal form of a diagram")
    p.add_argument("diagram")
    p.set_defaults(handler=_cmd_qnf)

    p = sub.add_parser("verify-axioms", parents=[common], help="check the rewrite axiom battery")
    p.add_argument("--max-carrier", type=int, default=3)
    p.set_defaults(handler=_cmd_verify_axioms)

    p = sub.add_parser("bell-check", parents=[common], help="local-polytope membership of a table")
    p.add_argument("--scenario", help=_SCENARIO_HELP)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corr", help="correlation file")
    group.add_argument("--quantum", help="model file; the table comes from its template")
    p.add_argument("--expect", choices=("member", "nonmember"))
    p.set_defaults(handler=_cmd_bell_check)

    p = sub.add_parser("simplex-embed", parents=[common], help="simplex-embedding feasibility of a fragment")
    p.add_argument("--fragment", required=True)
    p.add_argument("--lambda-max", type=int, default=16)
    p.add_argument("--expect", choices=("feasible", "infeasible"))
    p.set_defaults(handler=_cmd_simplex_embed)

    p = sub.add_parser("rep-check", parents=[common], help="test a realist representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--leibniz-pairs")
    p.set_defaults(handler=_cmd_rep_check)

    return parser


def run(argv, out=None, err=None):
    """Dispatch one invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        code, records = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_INPUT
    except CliError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except EngineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INPUT
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    records.append(
        {"cmd": args.command, "elapsed_ms": round(elapsed_ms, 3)}
    )
    _emit(records, args.format, out)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
