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
engine).  A reader that closes standard output early, as ``head`` does,
changes neither the exit code nor standard error.

The enumeration cap honours the ``CI_ENGINE_CAP`` environment variable,
clamped to [10^3, 10^7].
"""

import argparse
import dataclasses
import os
import sys
import time

from . import fileformat, fstheory, nogo, optheory
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
    cards = rest.split(",")
    # ASCII digits only, as in the file format: no sign, space, "_" or other script
    if not all(c.isascii() and c.isdigit() for c in cards):
        raise CliError(f"scenario cards must be integers: {rest!r}")
    cards = [int(c) for c in cards]
    n = len(cls.card_names())
    if len(cards) != n and not (len(cards) == n + 1 and hasattr(cls, "latent_card")):
        raise CliError(f"{text!r} does not match {_scenario_form(cls)}")
    return cls(*cards)


# ---------------------------------------------------------------------------
# Subcommands


def _matrix_fields(m, key="entries"):
    """A matrix as record fields: its labels, then its rows under ``key``."""
    return {
        "dom": [fileformat.label_value(x) for x in m.dom],
        "cod": [fileformat.label_value(x) for x in m.cod],
        key: [list(row) for row in m.entries],
    }


def _expect_code(rec, expect):
    """Exit code for ``--expect``: negative, and recorded, on a mismatch."""
    if expect is None or expect == rec["verdict"]:
        return EXIT_OK
    rec["expected"] = expect
    return EXIT_NEGATIVE


def _cmd_eval(args):
    d, pm = _load_diagram_file(args.diagram)
    if pm is None:
        m = fstheory.denote(d)
        backend = "inferential"
    else:
        m = optheory.predict_closed(d, pm)
        backend = pm.backend
    rec = {"cmd": "eval", "file": args.diagram, "backend": backend, **_matrix_fields(m)}
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
        **_matrix_fields(nf.matrix),
        "in_inferential": list(nf.in_inferential),
        "in_causal": list(nf.in_causal),
        "out_inferential": list(nf.out_inferential),
        "out_causal": list(nf.out_causal),
        "diagram": fileformat.serialize_diagram(rebuilt).decode("utf-8"),
    }
    return EXIT_OK, [rec]


def _cmd_qnf(args):
    d, pm = _load_diagram_file(args.diagram)
    rec = {"cmd": "qnf", "file": args.diagram}
    if pm is None:
        sigma, pi = fstheory.quotient_normal_form(d)
        rec["backend"] = "inferential"
        rec.update(_matrix_fields(sigma, key="sigma"))
        rec["weights"] = [pi.entries[k][k] for k in range(len(pi.dom))]
    else:
        rec["backend"] = pm.backend
        rec.update(_matrix_fields(optheory.predict_closed(d, pm)))
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


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def _verdict_fields(v):
    """``verdict`` is the class name in lower case, then every field of
    the verdict in declaration order but its input table, tuples as lists."""
    rec = {"verdict": type(v).__name__.lower()}
    for f in dataclasses.fields(v):
        if f.name != "correlation":
            rec[f.name] = _listed(getattr(v, f.name))
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
    rec["exact_input"] = corr.is_exact
    # fs_compatible rationalizes float tables
    rec.update(_verdict_fields(nogo.fs_compatible(corr, corr.scenario)))
    if corr.scenario == nogo.chsh_scenario():
        rec["chsh"] = nogo.chsh_value(corr)
    rec["no_signalling"] = nogo.no_signalling_check(corr)
    return _expect_code(rec, args.expect), [rec]


def _cmd_simplex_embed(args):
    frag = fileformat.load_fragment(_read(args.fragment))
    outcome = nogo.simplex_embed(frag, lambda_max=args.lambda_max)
    rec = {
        "cmd": "simplex-embed",
        "file": args.fragment,
        "states": len(frag.states),
        "effects": len(frag.effects),
        "dim": frag.dim,
        **_verdict_fields(outcome),
    }
    return _expect_code(rec, args.expect), [rec]


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

    closed = pm is not None and fstheory.causally_closed(d_op)
    if applies and closed:
        gap, passed = optheory.agree(
            optheory.predict_closed(d_op, pm), fstheory.predict(image), pm.backend
        )
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
        # witnesses are vetted only when every one of them has a prediction
        if not all(fstheory.causally_closed(dd) for pair in pairs for dd in pair):
            pairs_pm = None
        leib = fstheory.is_leibnizian(rep, pairs, pm=pairs_pm)
        rec = {
            "cmd": "rep-check",
            "check": "leibnizian",
            "passed": bool(leib),
            "pairs": len(pairs),
            "vetted": pairs_pm is not None,
        }
        if not pairs:
            # a pass over no pairs holds of any representation
            rec["vacuous"] = True
        records.append(rec)
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
    p.add_argument("--seed", type=int, default=20260814, help="seed for randomized spot checks")
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


# Built once per process; help text is still formatted when printed, so
# it follows the terminal width of the moment.
_PARSER = _build_parser()


def run(argv, out=None, err=None):
    """Dispatch one invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _PARSER.parse_args(argv)
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
    try:
        _emit(records, args.format, out)
        out.flush()
    except BrokenPipeError:
        # the reader is gone: the rest, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
