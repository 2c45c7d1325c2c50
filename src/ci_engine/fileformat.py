"""Textual format for the engine's artifacts, one syntax for every kind.

A file opens with the version header ``ci-engine/1 <kind>`` and then
holds a single record.  The syntax is a relaxed structured notation:
records in braces with ``key: value`` fields, arrays in brackets,
commas optional, ``#`` comments to end of line, double-quoted strings,
bare identifiers read as strings, rationals written ``p/q`` and complex
entries as ``[re, im]`` pairs.  The serializer emits one canonical
layout, so serialize after parse is the identity on canonical files and
rationals are never printed as floats.

Numbers are written in ASCII digits.  Strings take the escapes ``\\"``,
``\\\\``, ``\\n``, ``\\t`` and ``\\uXXXX`` with exactly four hex digits.
A float literal too large to be finite, such as ``1e400``, is refused,
as the writer refuses non-finite floats.  Records and arrays nest at
most 100 deep.  A file that breaks any of these rules is a
``ParseError`` with a line and column.  So is a file the loaders refuse;
a scalar where a record or array belongs is reported at its holder.

The reader lists a body's lexemes in one regular-expression pass, with
whitespace and comments skipped inside each match, converts each
distinct scalar lexeme once, and parses the list with one call per
record or array.  Records and arrays keep the index of their opening
lexeme; a line and column are worked out from an index, by a second
pass up to it, only when an error is reported.

Kinds and their top-level fields:

``diagram``
    ``systems``, optional ``procedures``, ``boxes``, ``wires``,
    ``inputs``, ``outputs``.  Box records carry a unique ``id``, an
    optional display ``name`` and a ``gen`` tag: ``knowledge``,
    ``learn``, ``ignore``, ``embedded``, ``state``, ``effect``,
    ``proc-knowledge`` or ``proc``.  Wires are ``[src, dst]`` with
    endpoints ``[in, k]``, ``[out, k]`` or ``[box, id, port]``; ports
    index the constructed box signature, so a knowledge box's port 0 is
    its inferential input.
``model``
    ``systems`` and ``procedures``; loads to a prediction map.
``correlation``
    ``scenario`` and a row-per-context probability ``table``.
``fragment``
    ``states``, ``effects`` and ``unit`` vectors of a flat theory
    fragment.
``rep``
    ``systems``, ``ontic`` carrier assignments and ``xi`` dynamics
    tables; loads against the prediction map of a diagram file.
``pairs``
    shared ``systems``/``procedures`` plus a list of ``left``/``right``
    diagram bodies used as equivalence witnesses.
"""

import math
import re
from fractions import Fraction
from itertools import islice

import numpy as np

from . import fstheory, nogo, optheory, substoch
from .diagrams import (
    Abstract,
    CAUSAL,
    Diagram,
    INFERENTIAL,
    causal_system,
    inferential_system,
    quantum_system,
)
from .errors import ConfigError, MissingXi, ParseError
from .tensornet import is_exact_number, scaled

FORMAT_HEADER = "ci-engine/1"
KINDS = ("diagram", "model", "correlation", "fragment", "rep", "pairs")

_MAX_DEPTH = 100
_PUNCT = "{}[]:,"
_WORD = r"[A-Za-z_][A-Za-z0-9_+-]*"
_STRING = r'"(?:[^"\\\n]|\\(?:["\\nt]|u[0-9a-fA-F]{4}))*'
# Whitespace and comments, then one lexeme: punctuation, a word, a number,
# a closed string, any other character (a lone '"' opens a bad string), or
# the empty lexeme at the end of the text (twice after trailing whitespace).
_LEXEME = re.compile(
    rf"""(?:[ \t\r\n]+|\#[^\n]*)*
    ( [{{}}\[\]:,] | {_WORD} | -?[0-9]+(?:/[0-9]*|(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    | {_STRING}" | . | )""",
    re.VERBOSE,
)
_STRING_START = re.compile(_STRING)
_BAREWORD = re.compile(_WORD)
_ESCAPE = re.compile(r"\\(?:u(....)|(.))")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}
_BOOLS = {"true": True, "false": False}


def _unescape(m):
    hexpart, esc = m.groups()
    return _ESCAPES[esc] if hexpart is None else chr(int(hexpart, 16))


def _scalar(lexeme):
    """The value of a word, number or string lexeme.  Any other lexeme is
    a ParseError without a position; ``_lexical_error`` gives it one."""
    if _BAREWORD.match(lexeme):
        return _BOOLS.get(lexeme, lexeme)
    if lexeme[0] == '"' and len(lexeme) > 1:
        return _ESCAPE.sub(_unescape, lexeme[1:-1])
    if lexeme[0] not in "-0123456789" or lexeme == "-":
        raise ParseError(f"unexpected character {lexeme!r}")
    num, slash, den = lexeme.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
        value = int(num) if num.lstrip("-").isdigit() else float(num)
    except ZeroDivisionError:
        raise ParseError("zero denominator") from None
    except ValueError:  # no digits after '/', or more than int() converts
        if slash and not den:
            raise ParseError("expected digits after '/'") from None
        raise ParseError("number out of range") from None
    if isinstance(value, float) and math.isinf(value):
        raise ParseError("number out of range")
    return value


def _located(body, first_line):
    """Each lexeme of ``body`` as (lexeme, offset, line, column), up to
    the empty one at the end.  Columns count from 1 after the last newline."""
    line, seen = first_line, 0
    for m in _LEXEME.finditer(body):
        start = m.start(1)
        line += body.count("\n", seen, start)
        seen = start
        yield m.group(1), start, line, start - body.rfind("\n", 0, start)
        if start == len(body):
            return


def _position(body, first_line, index):
    return next(islice(_located(body, first_line), index, None))[2:]


def _lexical_error(body, first_line):
    """The ParseError of the first malformed lexeme of ``body``, or None."""
    for lexeme, start, line, col in _located(body, first_line):
        if lexeme == '"':
            # the string stops at the end of the text, at a newline or at
            # the backslash of a bad escape
            end = _STRING_START.match(body, start).end()
            rest = body[end : end + 2]
            if rest in ("", "\\") or rest[0] == "\n":
                return ParseError("unterminated string", line, col)
            col += end - start
            if rest == "\\u":
                return ParseError("bad unicode escape", line, col)
            return ParseError(f"bad escape '{rest}'", line, col)
        try:
            if lexeme[:1] not in _PUNCT:
                _scalar(lexeme)
        except ParseError as exc:
            return ParseError(str(exc), line, col)
    return None


class _At(Exception):
    """A syntax error at a lexeme index: (index, message)."""


def _read(lexemes, pos, values, starts, depth):
    """The value that starts at ``lexemes[pos]``, and the index after it.

    Scalars are ``values[lexeme]``; ``starts`` takes the id of each record
    and array with the index of its opening bracket."""
    opening = lexemes[pos]
    value = values.get(opening)
    if value is not None:
        return value, pos + 1
    if opening != "{" and opening != "[":
        raise _At(pos, f"unexpected {opening or 'eof'!r}")
    if depth == _MAX_DEPTH:
        raise _At(pos, f"nesting deeper than {_MAX_DEPTH}")
    is_rec = opening == "{"
    out, close = ({}, "}") if is_rec else ([], "]")
    start, pos = pos, pos + 1
    while (lexeme := lexemes[pos]) != close:
        if not lexeme:
            raise _At(start, f"unclosed {opening!r}")
        if is_rec:
            key = values.get(lexeme)
            if not isinstance(key, str):
                raise _At(pos, "expected a field name")
            if lexemes[pos + 1] != ":":
                raise _At(pos + 1, "expected ':' after field name")
            if key in out:
                raise _At(pos, f"duplicate field {key!r}")
            pos += 2
        item = values.get(lexemes[pos])
        if item is None:
            item, pos = _read(lexemes, pos, values, starts, depth + 1)
        else:
            pos += 1
        if is_rec:
            out[key] = item
        else:
            out.append(item)
        if lexemes[pos] == ",":
            pos += 1
    starts[id(out)] = start
    return out, pos + 1


class _Locations(dict):
    """The lexeme index of each record and array by id, and of the top
    value; ``get`` works out its (line, column)."""

    def get(self, key, default=None):
        return _position(self.body, self.first_line, self[key]) if key in self else default


def _split_header(text):
    lines = text.split("\n")
    for i, raw in enumerate(lines):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2 or parts[0] != FORMAT_HEADER:
            raise ParseError(
                f"expected header '{FORMAT_HEADER} <kind>'", i + 1, 1
            )
        if parts[1] not in KINDS:
            raise ParseError(f"unknown file kind {parts[1]!r}", i + 1, 1)
        body = "\n".join(lines[i + 1 :])
        return parts[1], body, i + 2
    raise ParseError(f"missing header '{FORMAT_HEADER} <kind>'", 1, 1)


def loads(text):
    """Parse a full file into (kind, value, locations).

    ``locations.get(id(v), default)`` is the (line, column) of a record or
    array ``v`` of the value, or of the value itself."""
    kind, body, first_line = _split_header(text)
    lexemes = _LEXEME.findall(body)
    values = {}
    try:
        for lexeme in set(lexemes):
            if lexeme[:1] not in _PUNCT:
                values[lexeme] = _scalar(lexeme)
    except ParseError:
        raise _lexical_error(body, first_line) from None
    locs = _Locations()
    locs.body, locs.first_line = body, first_line
    try:
        value, pos = _read(lexemes, 0, values, locs, 0)
        if lexemes[pos]:
            raise _At(pos, "content after the top-level value")
    except _At as exc:
        raise ParseError(exc.args[1], *_position(body, first_line, exc.args[0])) from None
    locs[id(value)] = 0
    return kind, value, locs


# ---------------------------------------------------------------------------
# Canonical writer


def _is_bareword(s):
    return s not in _BOOLS and _BAREWORD.fullmatch(s) is not None


def _scalar_text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if v != v or v in (float("inf"), float("-inf")):
            raise ConfigError("non-finite floats have no file form")
        return repr(v)
    if isinstance(v, str):
        if _is_bareword(v):
            return v
        escaped = "".join(_UNESCAPES.get(c, c) for c in v)
        return f'"{escaped}"'
    return None


def dumps_value(value, indent=0, inline=False):
    """Render one value in the canonical layout.

    ``inline`` forces a single line, used for record-per-line output.
    """
    text = _scalar_text(value)
    if text is not None:
        return text
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError("field names must be strings")
            key_text = key if _is_bareword(key) else _scalar_text(key)
            parts.append((key_text, dumps_value(item, indent + 2, inline)))
        if inline:
            return "{" + ", ".join(f"{k}: {v}" for k, v in parts) + "}"
        body = "".join(f"{inner}{k}: {v}\n" for k, v in parts)
        return "{\n" + body + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [dumps_value(v, indent + 2, inline) for v in value]
        if not items:
            return "[]"
        flat = "[" + ", ".join(items) + "]"
        if inline or (all("\n" not in s for s in items) and len(flat) <= 68):
            return flat
        body = "".join(f"{inner}{s}\n" for s in items)
        return "[\n" + body + pad + "]"
    raise ConfigError(f"{type(value).__name__} values have no file form")


def dumps(kind, value):
    """Render a complete file of the given kind, header included."""
    if kind not in KINDS:
        raise ConfigError(f"unknown file kind {kind!r}")
    return f"{FORMAT_HEADER} {kind}\n\n{dumps_value(value)}\n"


# ---------------------------------------------------------------------------
# Loader context and shape helpers


class _Ctx:
    def __init__(self, locs):
        self.locs = locs

    def fail(self, obj, msg, owner=None):
        """Raise at ``obj``, or at the record or array ``owner`` holding it
        when ``obj`` is a scalar: only those and the top value are located."""
        line, col = self.locs.get(id(obj)) or self.locs.get(id(owner), (None, None))
        raise ParseError(msg, line, col)

    def rec(self, v, owner, what, allowed, required=None):
        """``v`` as a record with only ``allowed`` fields, all of
        ``required`` (by default all of ``allowed``) among them."""
        if not isinstance(v, dict):
            self.fail(v, f"{what} must be a record", owner)
        for key in v:
            if key not in allowed:
                self.fail(v, f"{what} has no field {key!r}")
        for key in allowed if required is None else required:
            if key not in v:
                self.fail(v, f"{what} needs the field {key!r}")
        return v

    def arr(self, v, owner, what):
        if not isinstance(v, list):
            self.fail(v, f"{what} must be an array", owner)
        return v

    def text(self, v, owner, what):
        if not isinstance(v, str):
            self.fail(owner, f"{what} must be a name")
        return v

    def nat(self, v, owner, what):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            self.fail(owner, f"{what} must be a nonnegative integer")
        return v


def _open(text, kind, what, allowed, required=None):
    """Parse a file that must be of ``kind`` and hold a ``what`` record
    with the given fields; returns (ctx, record)."""
    file_kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if file_kind != kind:
        ctx.fail(value, f"expected a {kind} file, got {file_kind!r}")
    return ctx, ctx.rec(value, None, what, allowed, required)


def _label(ctx, v):
    """A carrier label; arrays become tuples, records are refused."""
    if isinstance(v, dict):
        ctx.fail(v, "a label cannot be a record")
    if isinstance(v, list):
        return tuple(_label(ctx, x) for x in v)
    return v


def label_value(lab):
    """A carrier label as a writable value; tuples become arrays."""
    if isinstance(lab, tuple):
        return [label_value(x) for x in lab]
    return lab


def _is_number(cell, exact=False):
    """The cell rule: a rational, or a float unless ``exact``."""
    return is_exact_number(cell) or (not exact and isinstance(cell, float))


def _numbers(ctx, v, owner, what, exact=False, matrix=True):
    """The numbers of array ``v``, or of each of its rows if ``matrix``,
    as tuples.  ``exact`` takes rationals only; the exact fields are
    named for their entries, the others for their content."""
    refusal = f"{what} must be rationals" if exact else f"{what} entries must be numbers"

    def row(arr, arr_owner, arr_what):
        for cell in ctx.arr(arr, arr_owner, arr_what):
            if not _is_number(cell, exact):
                ctx.fail(arr, refusal)
        return tuple(arr)

    if not matrix:
        return row(v, owner, what)
    return tuple(row(r, v, f"each row of {what}") for r in ctx.arr(v, owner, what))


def _grid(ctx, v, owner, what):
    """The rational matrix ``v`` as entries of a ``SubstochMap``: one
    ``Scaled`` grid, or the rows when they differ in length, which the map
    refuses as it refuses a grid of the wrong shape."""
    rows = _numbers(ctx, v, owner, what, exact=True)
    if len(set(map(len, rows))) > 1:
        return rows
    return scaled([x for row in rows for x in row], (len(rows), len(rows[0]) if rows else 0))


def _complex_matrix(ctx, rows, owner, what):
    out = []
    for row in ctx.arr(rows, owner, what):
        cells = []
        for cell in ctx.arr(row, rows, f"each row of {what}"):
            if isinstance(cell, list):
                if len(cell) != 2 or not all(map(_is_number, cell)):
                    ctx.fail(cell, f"{what} complex entries are [re, im] pairs")
                re_part, im_part = cell
            elif _is_number(cell):
                re_part, im_part = cell, 0
            else:
                ctx.fail(row, f"{what} entries must be numbers or [re, im]")
            try:
                cells.append(complex(float(re_part), float(im_part)))
            except OverflowError:
                ctx.fail(row, f"{what} entries must fit in a float")
        if out and len(cells) != len(out[0]):
            ctx.fail(row, f"the rows of {what} differ in length")
        out.append(cells)
    return out


def _complex_value(z):
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# System and procedure declarations


def _load_systems(ctx, owner):
    env = {}
    systems = ctx.arr(owner.get("systems", []), owner, "systems")
    for rec in systems:
        ctx.rec(
            rec,
            systems,
            "a system",
            allowed=("name", "kind", "carrier", "dim", "classical"),
            required=("name", "kind"),
        )
        name = ctx.text(rec["name"], rec, "system name")
        if name in env:
            ctx.fail(rec, f"duplicate system {name!r}")
        kind = rec["kind"]
        if kind == "quantum":
            if "carrier" in rec or "classical" in rec:
                ctx.fail(rec, "quantum systems take just a name and dim")
            if "dim" not in rec:
                ctx.fail(rec, "a system needs the field 'dim'")
            dim = rec["dim"]
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                ctx.fail(rec, "dim must be a positive integer")
            env[name] = quantum_system(name, dim)
            continue
        if "dim" in rec:
            ctx.fail(rec, "dim is for quantum systems only")
        if kind not in ("causal", "inferential"):
            ctx.fail(rec, f"unknown system kind {kind!r}")
        if "carrier" not in rec:
            ctx.fail(rec, "a system needs the field 'carrier'")
        carrier = _label(ctx, ctx.arr(rec["carrier"], rec, "carrier"))
        if kind == "causal":
            classical = rec.get("classical", True)
            if not isinstance(classical, bool):
                ctx.fail(rec, "classical must be true or false")
            env[name] = causal_system(carrier, classical=classical)
        else:
            if "classical" in rec:
                ctx.fail(rec, "inferential systems are classical")
            env[name] = inferential_system(carrier)
    return env


def _system_value(name, t):
    if isinstance(t.carrier, Abstract):
        return {"name": name, "kind": "quantum", "dim": t.carrier.dim}
    rec = {
        "name": name,
        "kind": "causal" if t.kind == CAUSAL else "inferential",
        "carrier": [label_value(lab) for lab in t.carrier],
    }
    if t.kind == CAUSAL and not t.classical:
        rec["classical"] = False
    return rec


class _Namer:
    """Deterministic names for the system declarations of a dump."""

    def __init__(self):
        self.by_type = {}
        self.taken = set()

    def name(self, t):
        if t in self.by_type:
            return self.by_type[t]
        if isinstance(t.carrier, Abstract):
            name = t.carrier.name
            if name in self.taken:
                raise ConfigError(
                    f"two distinct systems want the name {name!r}"
                )
        else:
            stem = {CAUSAL: "c", INFERENTIAL: "h"}[t.kind]
            k = len(self.by_type)
            name = f"{stem}{k}"
            while name in self.taken:
                k += 1
                name = f"{stem}{k}"
        self.taken.add(name)
        self.by_type[t] = name
        return name

    def declarations(self):
        return [_system_value(name, t) for t, name in self.by_type.items()]


def _system(ctx, env, v, owner, what):
    name = ctx.text(v, owner, what)
    if name not in env:
        ctx.fail(owner, f"undeclared system {name!r}")
    return env[name]


def _system_names(ctx, env, arr, owner, what):
    return tuple(
        _system(ctx, env, v, arr, f"each entry of {what}") for v in ctx.arr(arr, owner, what)
    )


def _load_procedures(ctx, owner, env):
    decls = []
    procedures = ctx.arr(owner["procedures"], owner, "procedures")
    for rec in procedures:
        ctx.rec(
            rec,
            procedures,
            "a procedure",
            allowed=("name", "ins", "outs", "entries", "kraus"),
            required=("name", "ins", "outs"),
        )
        name = ctx.text(rec["name"], rec, "procedure name")
        ins = _system_names(ctx, env, rec["ins"], rec, "procedure inputs")
        outs = _system_names(ctx, env, rec["outs"], rec, "procedure outputs")
        if ("entries" in rec) == ("kraus" in rec):
            ctx.fail(rec, "a procedure has either entries or kraus")
        if "entries" in rec:
            channel = substoch.SubstochMap(
                fstheory.bundle_carrier(ins),
                fstheory.bundle_carrier(outs),
                _grid(ctx, rec["entries"], rec, "entries"),
            )
        else:
            table = {}
            kraus = ctx.arr(rec["kraus"], rec, "kraus")
            for branch in kraus:
                ctx.rec(branch, kraus, "a kraus branch", allowed=("out", "in", "mats"))
                key = (
                    _label(ctx, ctx.arr(branch["out"], branch, "out")),
                    _label(ctx, ctx.arr(branch["in"], branch, "in")),
                )
                if key in table:
                    ctx.fail(branch, "duplicate kraus branch")
                mats = ctx.arr(branch["mats"], branch, "mats")
                table[key] = [
                    np.array(_complex_matrix(ctx, m, mats, "a kraus matrix")) for m in mats
                ]
            channel = optheory.QuantumProcess(table)
        decls.append(optheory.ProcedureDecl(name, ins, outs, channel))
    return decls


def _load_decls(ctx, rec):
    """The systems of ``rec`` by name, and the prediction map of its
    procedures (None when it declares none)."""
    env = _load_systems(ctx, rec)
    if "procedures" not in rec:
        return env, None
    return env, optheory.PredictionMap(_load_procedures(ctx, rec, env))


def _procedure_value(decl, namer):
    rec = {
        "name": decl.name,
        "ins": [namer.name(t) for t in decl.ins],
        "outs": [namer.name(t) for t in decl.outs],
    }
    channel = decl.channel
    if isinstance(channel, substoch.SubstochMap):
        rec["entries"] = [list(row) for row in channel.entries]
    else:
        branches = []
        for (c_out, c_in), mats in channel.kraus.items():
            branches.append(
                {
                    "out": [label_value(lab) for lab in c_out],
                    "in": [label_value(lab) for lab in c_in],
                    "mats": [
                        [[_complex_value(z) for z in row] for row in m.tolist()]
                        for m in mats
                    ],
                }
            )
        rec["kraus"] = branches
    return rec


def _declared(diagrams, pm, body):
    """A file value: ``systems``, then ``procedures`` if ``pm`` is given,
    then the fields ``body(namer)`` returns.

    Systems are named in order of first use: the boundaries of
    ``diagrams``, then the procedure signatures, then the body.
    """
    if pm is None and any(_needs_pm(d) for d in diagrams):
        raise ConfigError("serializing procedure boxes needs the prediction map")
    namer = _Namer()
    for d in diagrams:
        for t in d.input_types + d.output_types:
            namer.name(t)
    value = {}
    if pm is not None:
        value["procedures"] = [_procedure_value(decl, namer) for decl in pm.decls]
    value.update(body(namer))
    return {"systems": namer.declarations(), **value}


# ---------------------------------------------------------------------------
# Diagram bodies

_BODY_FIELDS = ("boxes", "wires", "inputs", "outputs")
_BOX_FIELDS = {
    "knowledge": ("ins", "outs"),
    "learn": ("system",),
    "ignore": ("system",),
    "embedded": ("ins", "outs", "entries"),
    "state": ("system", "weights"),
    "effect": ("system", "members"),
    "proc-knowledge": ("ins", "outs"),
    "proc": ("proc",),
}


def _load_box(ctx, rec, boxes, env, pm):
    ctx.rec(
        rec,
        boxes,
        "a box",
        allowed=("id", "name", "gen") + tuple({f for fs in _BOX_FIELDS.values() for f in fs}),
        required=("id", "gen"),
    )
    box_id = ctx.text(rec["id"], rec, "box id")
    gen = ctx.text(rec["gen"], rec, "box generator")
    if gen not in _BOX_FIELDS:
        ctx.fail(rec, f"unknown generator {gen!r}")
    fields = _BOX_FIELDS[gen]
    ctx.rec(rec, boxes, f"a {gen} box", ("id", "name", "gen") + fields, ("id", "gen") + fields)
    name = rec.get("name", box_id)
    if not isinstance(name, str):
        ctx.fail(rec, "box name must be a string")
    if gen in ("learn", "ignore", "state", "effect"):
        system = _system(ctx, env, rec["system"], rec, "box system")
    if gen in ("knowledge", "embedded", "proc-knowledge"):
        ins = _system_names(ctx, env, rec["ins"], rec, "box inputs")
        outs = _system_names(ctx, env, rec["outs"], rec, "box outputs")
    if gen in ("proc-knowledge", "proc") and pm is None:
        ctx.fail(rec, "procedure boxes need a procedures section")
    if gen == "knowledge":
        return box_id, fstheory.knowledge_box(ins, outs, name=name)
    if gen == "learn":
        return box_id, fstheory.prop_gain(system, name=name)
    if gen == "ignore":
        return box_id, fstheory.ignore(system, name=name)
    if gen == "embedded":
        matrix = substoch.SubstochMap(
            fstheory.bundle_carrier(ins),
            fstheory.bundle_carrier(outs),
            _grid(ctx, rec["entries"], rec, "entries"),
        )
        return box_id, fstheory.embedded(matrix, ins, outs, name=name)
    if gen == "state":
        weights = _numbers(ctx, rec["weights"], rec, "weights", matrix=False)
        sigma = substoch.KnowledgeState(system.carrier, weights)
        return box_id, fstheory.state_box(sigma, name=name)
    if gen == "effect":
        members = _label(ctx, ctx.arr(rec["members"], rec, "members"))
        prop = substoch.proposition(system.carrier, members)
        return box_id, fstheory.effect_box(prop, name=name)
    if gen == "proc-knowledge":
        return box_id, optheory.op_knowledge_box(pm, ins, outs, name=name)
    proc = ctx.text(rec["proc"], rec, "procedure reference")
    return box_id, optheory.procedure_box(pm, proc, box_name=name)


def _load_endpoint(ctx, end, wire, index_of):
    if not isinstance(end, list) or not end or not isinstance(end[0], str):
        ctx.fail(end, "an endpoint is [in k], [out k] or [box id port]", wire)
    tag = end[0]
    if tag in ("in", "out"):
        if len(end) != 2:
            ctx.fail(end, f"[{tag} k] takes one port number")
        return (tag, ctx.nat(end[1], end, "port number"))
    if tag == "box":
        if len(end) != 3:
            ctx.fail(end, "[box id port] takes a box id and a port number")
        box_id = ctx.text(end[1], end, "box id")
        if box_id not in index_of:
            ctx.fail(end, f"unknown box id {box_id!r}")
        return ("box", index_of[box_id], ctx.nat(end[2], end, "port number"))
    ctx.fail(end, f"unknown endpoint tag {tag!r}")


def _load_body(ctx, rec, env, pm):
    boxes = []
    index_of = {}
    box_recs = ctx.arr(rec["boxes"], rec, "boxes")
    for box_rec in box_recs:
        box_id, box = _load_box(ctx, box_rec, box_recs, env, pm)
        if box_id in index_of:
            ctx.fail(box_rec, f"duplicate box id {box_id!r}")
        index_of[box_id] = len(boxes)
        boxes.append(box)
    wires = []
    wire_recs = ctx.arr(rec["wires"], rec, "wires")
    for wire in wire_recs:
        if not isinstance(wire, list) or len(wire) != 2:
            ctx.fail(wire, "a wire is [src, dst]", wire_recs)
        src = _load_endpoint(ctx, wire[0], wire, index_of)
        dst = _load_endpoint(ctx, wire[1], wire, index_of)
        if src[0] == "out":
            ctx.fail(wire, "a wire cannot start at an output port")
        if dst[0] == "in":
            ctx.fail(wire, "a wire cannot end at an input port")
        wires.append((src, dst))
    inputs = _system_names(ctx, env, rec["inputs"], rec, "inputs")
    outputs = _system_names(ctx, env, rec["outputs"], rec, "outputs")
    return Diagram(tuple(boxes), tuple(wires), inputs, outputs)


def load_diagram(text):
    """Parse a diagram file into (Diagram, PredictionMap or None)."""
    ctx, value = _open(
        text, "diagram", "diagram", ("systems", "procedures") + _BODY_FIELDS, _BODY_FIELDS
    )
    env, pm = _load_decls(ctx, value)
    return _load_body(ctx, value, env, pm), pm


def _box_value(box, box_id, namer):
    p = box.payload
    rec = {"id": box_id}
    if box.name != box_id:
        rec["name"] = box.name
    if isinstance(p, fstheory.GenKnowledge):
        rec["gen"] = "knowledge"
        rec["ins"] = [namer.name(t) for t in p.in_systems]
        rec["outs"] = [namer.name(t) for t in p.out_systems]
    elif isinstance(p, fstheory.GenPropGain):
        rec["gen"] = "learn"
        rec["system"] = namer.name(p.system)
    elif isinstance(p, fstheory.GenIgnore):
        rec["gen"] = "ignore"
        rec["system"] = namer.name(p.system)
    elif isinstance(p, fstheory.GenEmbedded):
        rec["gen"] = "embedded"
        rec["ins"] = [namer.name(t) for t in box.ins]
        rec["outs"] = [namer.name(t) for t in box.outs]
        rec["entries"] = [list(row) for row in p.matrix.entries]
    elif isinstance(p, optheory.OpKnowledge):
        rec["gen"] = "proc-knowledge"
        rec["ins"] = [namer.name(t) for t in p.in_systems]
        rec["outs"] = [namer.name(t) for t in p.out_systems]
    elif isinstance(p, optheory.OpProc):
        rec["gen"] = "proc"
        rec["proc"] = p.name
    else:
        raise ConfigError(f"box {box.name!r} has no serializable payload")
    return rec


def _endpoint_value(end, ids):
    if end[0] == "box":
        return ["box", ids[end[1]], end[2]]
    return [end[0], end[1]]


def _body_value(d, namer):
    ids = [f"b{i}" for i in range(len(d.boxes))]
    boxes = [_box_value(box, ids[i], namer) for i, box in enumerate(d.boxes)]
    wires = [
        [_endpoint_value(src, ids), _endpoint_value(dst, ids)]
        for src, dst in d.wires
    ]
    return {
        "boxes": boxes,
        "wires": wires,
        "inputs": [namer.name(t) for t in d.input_types],
        "outputs": [namer.name(t) for t in d.output_types],
    }


def _needs_pm(d):
    return any(
        isinstance(b.payload, (optheory.OpKnowledge, optheory.OpProc))
        for b in d.boxes
    )


def serialize_diagram(d, pm=None):
    """Canonical file bytes for a diagram.

    Diagrams holding procedure boxes need the prediction map so the
    file can carry the procedure declarations they resolve against.
    """
    value = _declared([d], pm, lambda namer: _body_value(d, namer))
    return dumps("diagram", value).encode("utf-8")


# ---------------------------------------------------------------------------
# Models


def load_model(text):
    """Parse a model file into a prediction map."""
    ctx, value = _open(
        text, "model", "a model", ("systems", "procedures"), required=("procedures",)
    )
    return _load_decls(ctx, value)[1]


def dump_model(pm):
    """Canonical file text for a prediction map."""
    return dumps("model", _declared((), pm, lambda namer: {}))


# ---------------------------------------------------------------------------
# Scenarios and correlations

def _load_scenario(ctx, rec, owner):
    ctx.rec(
        rec, owner, "a scenario", allowed=("type", "cards", "latent"), required=("type", "cards")
    )
    tag = rec["type"]
    cls = nogo.SCENARIOS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        ctx.fail(rec, f"unknown scenario type {tag!r}")
    cards = [ctx.nat(v, rec, "each card") for v in ctx.arr(rec["cards"], rec, "cards")]
    names = cls.card_names()
    if len(cards) != len(names):
        ctx.fail(rec, f"{tag} takes the cards [{', '.join(names)}], got {len(cards)}")
    if "latent" in rec:
        if not hasattr(cls, "latent_card"):
            ctx.fail(rec, f"{tag} scenarios have no latent card")
        cards.append(ctx.nat(rec["latent"], rec, "latent"))
    return cls(*cards)


def scenario_value(s):
    if type(s) not in nogo.SCENARIOS.values():
        raise ConfigError(f"{type(s).__name__} scenarios have no file form")
    value = {"type": s.tag, "cards": list(s.cards)}
    if hasattr(s, "latent_card"):
        value["latent"] = s.latent_card
    return value


def load_correlation(text):
    """Parse a correlation file."""
    ctx, value = _open(text, "correlation", "a correlation", ("scenario", "table"))
    scenario = _load_scenario(ctx, value["scenario"], value)
    return nogo.Correlation(scenario, _numbers(ctx, value["table"], value, "table"))


def dump_correlation(corr):
    """Canonical file text for a correlation."""
    return dumps(
        "correlation",
        {
            "scenario": scenario_value(corr.scenario),
            "table": [list(row) for row in corr.table],
        },
    )


# ---------------------------------------------------------------------------
# Theory fragments


def load_fragment(text):
    """Parse a fragment file."""
    ctx, value = _open(text, "fragment", "a fragment", ("states", "effects", "unit"))
    return nogo.GPTFragment(
        _numbers(ctx, value["states"], value, "states"),
        _numbers(ctx, value["effects"], value, "effects"),
        _numbers(ctx, value["unit"], value, "unit", matrix=False),
    )


def dump_fragment(frag):
    """Canonical file text for a fragment."""
    return dumps(
        "fragment",
        {
            "states": [list(row) for row in frag.states],
            "effects": [list(row) for row in frag.effects],
            "unit": list(frag.unit),
        },
    )


# ---------------------------------------------------------------------------
# Realist representations


def load_rep(text, pm):
    """Parse a representation file against a diagram's prediction map."""
    ctx, value = _open(
        text, "rep", "a representation", ("systems", "ontic", "xi"), required=("ontic", "xi")
    )
    env = _load_systems(ctx, value)
    ontic = {}
    ontic_recs = ctx.arr(value["ontic"], value, "ontic")
    for rec in ontic_recs:
        ctx.rec(rec, ontic_recs, "an ontic entry", allowed=("system", "carrier"))
        system = _system(ctx, env, rec["system"], rec, "ontic system")
        if system in ontic:
            ctx.fail(rec, "duplicate ontic entry")
        ontic[system] = _label(ctx, ctx.arr(rec["carrier"], rec, "carrier"))
    images = fstheory.RealistRep(ontic, {})

    def image(rec, t):
        try:
            return images.image(t)
        except MissingXi:
            ctx.fail(rec, f"xi signature system {t!r} has no ontic carrier")

    xi = {}
    xi_recs = ctx.arr(value["xi"], value, "xi")
    for rec in xi_recs:
        ctx.rec(rec, xi_recs, "a xi entry", allowed=("ins", "outs", "entries"))
        ins = _system_names(ctx, env, rec["ins"], rec, "xi inputs")
        outs = _system_names(ctx, env, rec["outs"], rec, "xi outputs")
        if (ins, outs) in xi:
            ctx.fail(rec, "duplicate xi signature")
        if pm is None:
            ctx.fail(rec, "xi entries need a diagram with procedures")
        alphabet = pm.alphabet(ins, outs)
        if not alphabet:
            ctx.fail(rec, "no declared procedures match this xi signature")
        h = fstheory.hom_system(
            tuple(image(rec, t) for t in ins), tuple(image(rec, t) for t in outs)
        )
        grid = _grid(ctx, rec["entries"], rec, "xi entries")
        xi[(ins, outs)] = substoch.SubstochMap(alphabet, h.carrier, grid)
    return fstheory.RealistRep(ontic, xi)


def dump_rep(rep, pm):
    """Canonical file text for a representation."""

    def body(namer):
        ontic = [
            {"system": namer.name(t), "carrier": [label_value(lab) for lab in carrier]}
            for t, carrier in rep.ontic.items()
        ]
        xi = [
            {
                "ins": [namer.name(t) for t in ins],
                "outs": [namer.name(t) for t in outs],
                "entries": [list(row) for row in m.entries],
            }
            for (ins, outs), m in rep.xi.items()
        ]
        return {"ontic": ontic, "xi": xi}

    return dumps("rep", _declared((), None, body))


# ---------------------------------------------------------------------------
# Witness pairs


def load_pairs(text):
    """Parse a pairs file into ((left, right), ...) diagram pairs."""
    ctx, value = _open(
        text, "pairs", "a pairs file", ("systems", "procedures", "pairs"), required=("pairs",)
    )
    env, pm = _load_decls(ctx, value)
    pairs = []
    pair_recs = ctx.arr(value["pairs"], value, "pairs")
    for rec in pair_recs:
        ctx.rec(rec, pair_recs, "a pair", allowed=("left", "right"))
        pairs.append(
            tuple(
                _load_body(
                    ctx, ctx.rec(rec[side], rec, f"the {side} diagram", _BODY_FIELDS), env, pm
                )
                for side in ("left", "right")
            )
        )
    return tuple(pairs), pm


def dump_pairs(pairs, pm=None):
    """Canonical file text for witness pairs."""

    def body(namer):
        return {
            "pairs": [
                {"left": _body_value(a, namer), "right": _body_value(b, namer)}
                for a, b in pairs
            ]
        }

    return dumps("pairs", _declared([d for pair in pairs for d in pair], pm, body))
