"""Textual format for the engine's artifacts, one syntax for every kind.

A file opens with the version header ``ci-engine/1 <kind>`` and then
holds a single record.  The syntax is a relaxed structured notation:
records in braces with ``key: value`` fields, arrays in brackets,
commas optional, ``#`` comments to end of line, double-quoted strings,
bare identifiers read as strings, rationals written ``p/q`` and complex
entries as ``[re, im]`` pairs.  The serializer emits one canonical
layout, so serialize after parse is the identity on canonical files and
rationals are never printed as floats.

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

from fractions import Fraction

import numpy as np

from . import fstheory, funcdyn, nogo, optheory, substoch
from .diagrams import (
    Abstract,
    CAUSAL,
    Diagram,
    INFERENTIAL,
    SystemType,
    causal_system,
    inferential_system,
    quantum_system,
)
from .errors import ConfigError, ParseError

FORMAT_HEADER = "ci-engine/1"
KINDS = ("diagram", "model", "correlation", "fragment", "rep", "pairs")

_PUNCT = "{}[]:,"
_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_BODY = _WORD_START | set("0123456789+-")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text, first_line):
    tokens = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            parts = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated string", start_line, start_col)
                    esc = text[i + 1]
                    if esc == "u":
                        hexpart = text[i + 2 : i + 6]
                        if len(hexpart) < 4:
                            raise ParseError("bad unicode escape", line, col)
                        try:
                            parts.append(chr(int(hexpart, 16)))
                        except ValueError:
                            raise ParseError("bad unicode escape", line, col) from None
                        i += 6
                        col += 6
                        continue
                    if esc not in _ESCAPES:
                        raise ParseError(f"bad escape '\\{esc}'", line, col)
                    parts.append(_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            tokens.append(_Token("str", "".join(parts), start_line, start_col))
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1 if ch == "-" else i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("expected digits after '/'", line, col)
                num, den = int(text[i:j]), int(text[j + 1 : k])
                if den == 0:
                    raise ParseError("zero denominator", start_line, start_col)
                tokens.append(_Token("num", Fraction(num, den), start_line, start_col))
                col += k - i
                i = k
                continue
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            value = float(lexeme) if is_float else int(lexeme)
            tokens.append(_Token("num", value, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _WORD_START:
            j = i
            while j < n and text[j] in _WORD_BODY:
                j += 1
            word = text[i:j]
            if word == "true":
                tokens.append(_Token("bool", True, start_line, start_col))
            elif word == "false":
                tokens.append(_Token("bool", False, start_line, start_col))
            else:
                tokens.append(_Token("word", word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.locs = {}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok, msg):
        raise ParseError(msg, tok.line, tok.col)

    def value(self):
        tok = self.take()
        if tok.kind in ("num", "bool", "str", "word"):
            return tok.value
        if tok.kind == "{":
            out = {}
            self.locs[id(out)] = (tok.line, tok.col)
            while True:
                nxt = self.peek()
                if nxt.kind == "}":
                    self.take()
                    return out
                if nxt.kind == "eof":
                    self.fail(tok, "unclosed '{'")
                key_tok = self.take()
                if key_tok.kind not in ("word", "str"):
                    self.fail(key_tok, "expected a field name")
                if self.peek().kind != ":":
                    self.fail(self.peek(), "expected ':' after field name")
                self.take()
                if key_tok.value in out:
                    self.fail(key_tok, f"duplicate field {key_tok.value!r}")
                out[key_tok.value] = self.value()
                if self.peek().kind == ",":
                    self.take()
            raise AssertionError
        if tok.kind == "[":
            out = []
            self.locs[id(out)] = (tok.line, tok.col)
            while True:
                nxt = self.peek()
                if nxt.kind == "]":
                    self.take()
                    return out
                if nxt.kind == "eof":
                    self.fail(tok, "unclosed '['")
                out.append(self.value())
                if self.peek().kind == ",":
                    self.take()
            raise AssertionError
        self.fail(tok, f"unexpected {tok.kind!r}")


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
    """Parse a full file into (kind, value, location map)."""
    kind, body, first_line = _split_header(text)
    parser = _Parser(_tokenize(body, first_line))
    value = parser.value()
    tail = parser.peek()
    if tail.kind != "eof":
        parser.fail(tail, "content after the top-level value")
    return kind, value, parser.locs


# ---------------------------------------------------------------------------
# Canonical writer

_BARE_SAFE = _WORD_BODY


def _is_bareword(s):
    return (
        s != ""
        and s not in ("true", "false")
        and s[0] in _WORD_START
        and all(c in _BARE_SAFE for c in s)
    )


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

    def where(self, obj):
        return self.locs.get(id(obj), (None, None))

    def fail(self, obj, msg):
        line, col = self.where(obj)
        raise ParseError(msg, line, col)

    def rec(self, v, what, allowed, required):
        if not isinstance(v, dict):
            self.fail(v, f"{what} must be a record")
        for key in v:
            if key not in allowed:
                self.fail(v, f"{what} has no field {key!r}")
        for key in required:
            if key not in v:
                self.fail(v, f"{what} needs the field {key!r}")
        return v

    def arr(self, v, what):
        if not isinstance(v, list):
            self.fail(v, f"{what} must be an array")
        return v

    def text(self, v, owner, what):
        if not isinstance(v, str):
            self.fail(owner, f"{what} must be a name")
        return v

    def nat(self, v, owner, what):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            self.fail(owner, f"{what} must be a nonnegative integer")
        return v


def _label(v):
    if isinstance(v, list):
        return tuple(_label(x) for x in v)
    return v


def label_value(lab):
    """A carrier label as a writable value; tuples become arrays."""
    if isinstance(lab, tuple):
        return [label_value(x) for x in lab]
    return lab


def _exact_matrix(ctx, rows, what):
    out = []
    for row in ctx.arr(rows, what):
        cells = []
        for cell in ctx.arr(row, f"each row of {what}"):
            if isinstance(cell, bool) or not isinstance(cell, (int, Fraction)):
                ctx.fail(row, f"{what} entries must be rationals")
            cells.append(Fraction(cell))
        out.append(tuple(cells))
    return tuple(out)


def _number_matrix(ctx, rows, what):
    out = []
    for row in ctx.arr(rows, what):
        cells = []
        for cell in ctx.arr(row, f"each row of {what}"):
            if isinstance(cell, bool) or not isinstance(cell, (int, float, Fraction)):
                ctx.fail(row, f"{what} entries must be numbers")
            cells.append(cell)
        out.append(tuple(cells))
    return tuple(out)


def _number_vector(ctx, arr, what):
    cells = []
    for cell in ctx.arr(arr, what):
        if isinstance(cell, bool) or not isinstance(cell, (int, float, Fraction)):
            ctx.fail(arr, f"{what} entries must be numbers")
        cells.append(cell)
    return tuple(cells)


def _complex_matrix(ctx, rows, what):
    out = []
    for row in ctx.arr(rows, what):
        cells = []
        for cell in ctx.arr(row, f"each row of {what}"):
            if isinstance(cell, list):
                if len(cell) != 2 or not all(
                    isinstance(p, (int, float, Fraction))
                    and not isinstance(p, bool)
                    for p in cell
                ):
                    ctx.fail(cell, f"{what} complex entries are [re, im] pairs")
                cells.append(complex(float(cell[0]), float(cell[1])))
            elif isinstance(cell, (int, float, Fraction)) and not isinstance(
                cell, bool
            ):
                cells.append(complex(float(cell), 0.0))
            else:
                ctx.fail(row, f"{what} entries must be numbers or [re, im]")
        out.append(cells)
    return out


def _complex_value(z):
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# System declarations


def _load_systems(ctx, arr):
    env = {}
    for rec in ctx.arr(arr, "systems"):
        ctx.rec(
            rec,
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
            dim = ctx.nat(rec.get("dim"), rec, "dim")
            env[name] = quantum_system(name, dim)
            continue
        if "dim" in rec:
            ctx.fail(rec, "dim is for quantum systems only")
        carrier = tuple(_label(v) for v in ctx.arr(rec.get("carrier"), "carrier"))
        if kind == "causal":
            classical = rec.get("classical", True)
            if not isinstance(classical, bool):
                ctx.fail(rec, "classical must be true or false")
            env[name] = causal_system(carrier, classical=classical)
        elif kind == "inferential":
            if "classical" in rec:
                ctx.fail(rec, "inferential systems are classical")
            env[name] = inferential_system(carrier)
        else:
            ctx.fail(rec, f"unknown system kind {kind!r}")
    return env


def _system_value(name, t):
    if isinstance(t.carrier, Abstract):
        if t.kind != CAUSAL or t.classical:
            raise ConfigError("only quantum abstract systems have a file form")
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


def _system_names(ctx, env, arr, what):
    out = []
    for name in ctx.arr(arr, what):
        label = ctx.text(name, arr, f"each entry of {what}")
        if label not in env:
            ctx.fail(arr, f"undeclared system {label!r}")
        out.append(env[label])
    return tuple(out)


# ---------------------------------------------------------------------------
# Procedures


def _load_procedures(ctx, arr, env):
    decls = []
    for rec in ctx.arr(arr, "procedures"):
        ctx.rec(
            rec,
            "a procedure",
            allowed=("name", "ins", "outs", "entries", "kraus"),
            required=("name", "ins", "outs"),
        )
        name = ctx.text(rec["name"], rec, "procedure name")
        ins = _system_names(ctx, env, rec["ins"], "procedure inputs")
        outs = _system_names(ctx, env, rec["outs"], "procedure outputs")
        if ("entries" in rec) == ("kraus" in rec):
            ctx.fail(rec, "a procedure has either entries or kraus")
        if "entries" in rec:
            entries = _exact_matrix(ctx, rec["entries"], "entries")
            channel = substoch.SubstochMap(
                fstheory.bundle_carrier(ins),
                fstheory.bundle_carrier(outs),
                entries,
            )
        else:
            table = {}
            for branch in ctx.arr(rec["kraus"], "kraus"):
                ctx.rec(
                    branch,
                    "a kraus branch",
                    allowed=("out", "in", "mats"),
                    required=("out", "in", "mats"),
                )
                key = (
                    tuple(_label(v) for v in ctx.arr(branch["out"], "out")),
                    tuple(_label(v) for v in ctx.arr(branch["in"], "in")),
                )
                if key in table:
                    ctx.fail(branch, "duplicate kraus branch")
                table[key] = [
                    np.array(_complex_matrix(ctx, m, "a kraus matrix"))
                    for m in ctx.arr(branch["mats"], "mats")
                ]
            channel = optheory.QuantumProcess(table)
        decls.append(optheory.ProcedureDecl(name, ins, outs, channel))
    return decls


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


# ---------------------------------------------------------------------------
# Diagram bodies

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


def _load_box(ctx, rec, env, pm):
    ctx.rec(
        rec,
        "a box",
        allowed=("id", "name", "gen") + tuple({f for fs in _BOX_FIELDS.values() for f in fs}),
        required=("id", "gen"),
    )
    box_id = ctx.text(rec["id"], rec, "box id")
    gen = rec["gen"]
    if gen not in _BOX_FIELDS:
        ctx.fail(rec, f"unknown generator {gen!r}")
    for field in _BOX_FIELDS[gen]:
        if field not in rec:
            ctx.fail(rec, f"a {gen} box needs the field {field!r}")
    for field in set(rec) - {"id", "name", "gen"}:
        if field not in _BOX_FIELDS[gen]:
            ctx.fail(rec, f"a {gen} box has no field {field!r}")
    name = rec.get("name", box_id)
    if not isinstance(name, str):
        ctx.fail(rec, "box name must be a string")
    if gen == "knowledge":
        box = fstheory.knowledge_box(
            _system_names(ctx, env, rec["ins"], "box inputs"),
            _system_names(ctx, env, rec["outs"], "box outputs"),
            name=name,
        )
    elif gen == "learn":
        (system,) = _system_names(ctx, env, [rec["system"]], "box system")
        box = fstheory.prop_gain(system, name=name)
    elif gen == "ignore":
        (system,) = _system_names(ctx, env, [rec["system"]], "box system")
        box = fstheory.ignore(system, name=name)
    elif gen == "embedded":
        ins = _system_names(ctx, env, rec["ins"], "box inputs")
        outs = _system_names(ctx, env, rec["outs"], "box outputs")
        entries = _exact_matrix(ctx, rec["entries"], "entries")
        matrix = substoch.SubstochMap(
            fstheory.bundle_carrier(ins), fstheory.bundle_carrier(outs), entries
        )
        box = fstheory.embedded(matrix, ins, outs, name=name)
    elif gen == "state":
        (system,) = _system_names(ctx, env, [rec["system"]], "box system")
        weights = _number_vector(ctx, rec["weights"], "weights")
        sigma = substoch.KnowledgeState(system.carrier, weights)
        box = fstheory.state_box(sigma, name=name)
    elif gen == "effect":
        (system,) = _system_names(ctx, env, [rec["system"]], "box system")
        members = [_label(v) for v in ctx.arr(rec["members"], "members")]
        box = fstheory.effect_box(
            substoch.proposition(system.carrier, members), name=name
        )
    elif gen == "proc-knowledge":
        if pm is None:
            ctx.fail(rec, "procedure boxes need a procedures section")
        box = optheory.op_knowledge_box(
            pm,
            _system_names(ctx, env, rec["ins"], "box inputs"),
            _system_names(ctx, env, rec["outs"], "box outputs"),
            name=name,
        )
    else:
        if pm is None:
            ctx.fail(rec, "procedure boxes need a procedures section")
        box = optheory.procedure_box(
            pm, ctx.text(rec["proc"], rec, "procedure reference"), box_name=name
        )
    return box_id, box


def _load_endpoint(ctx, end, index_of):
    if not isinstance(end, list) or not end or not isinstance(end[0], str):
        ctx.fail(end, "an endpoint is [in k], [out k] or [box id port]")
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


def _load_body(ctx, rec, env, pm, what="diagram", allow_decls=False):
    allowed = ("boxes", "wires", "inputs", "outputs")
    if allow_decls:
        allowed += ("systems", "procedures")
    ctx.rec(rec, what, allowed=allowed, required=("boxes", "wires", "inputs", "outputs"))
    boxes = []
    index_of = {}
    for box_rec in ctx.arr(rec["boxes"], "boxes"):
        box_id, box = _load_box(ctx, box_rec, env, pm)
        if box_id in index_of:
            ctx.fail(box_rec, f"duplicate box id {box_id!r}")
        index_of[box_id] = len(boxes)
        boxes.append(box)
    wires = []
    for wire in ctx.arr(rec["wires"], "wires"):
        if not isinstance(wire, list) or len(wire) != 2:
            ctx.fail(wire, "a wire is [src, dst]")
        src = _load_endpoint(ctx, wire[0], index_of)
        dst = _load_endpoint(ctx, wire[1], index_of)
        if src[0] == "out":
            ctx.fail(wire, "a wire cannot start at an output port")
        if dst[0] == "in":
            ctx.fail(wire, "a wire cannot end at an input port")
        wires.append((src, dst))
    inputs = _system_names(ctx, env, rec["inputs"], "inputs")
    outputs = _system_names(ctx, env, rec["outputs"], "outputs")
    return Diagram(tuple(boxes), tuple(wires), inputs, outputs)


def load_diagram(text):
    """Parse a diagram file into (Diagram, PredictionMap or None)."""
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "diagram":
        ctx.fail(value, f"expected a diagram file, got {kind!r}")
    env = _load_systems(ctx, value.get("systems", []))
    pm = None
    if "procedures" in value:
        pm = optheory.PredictionMap(_load_procedures(ctx, value["procedures"], env))
    return _load_body(ctx, value, env, pm, allow_decls=True), pm


def parse_diagram(path):
    """Read and parse one diagram file; the procedures are dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        diagram, _ = load_diagram(fh.read())
    return diagram


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


def _body_value(d, namer, ids):
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


def _diagram_value(d, pm):
    namer = _Namer()
    for t in d.input_types + d.output_types:
        namer.name(t)
    procedures = None
    if pm is not None:
        procedures = [_procedure_value(decl, namer) for decl in pm.decls]
    ids = [f"b{i}" for i in range(len(d.boxes))]
    body = _body_value(d, namer, ids)
    value = {"systems": namer.declarations()}
    if procedures is not None:
        value["procedures"] = procedures
    value.update(body)
    return value


def serialize_diagram(d, pm=None):
    """Canonical file bytes for a diagram.

    Diagrams holding procedure boxes need the prediction map so the
    file can carry the procedure declarations they resolve against.
    """
    if pm is None and _needs_pm(d):
        raise ConfigError("serializing procedure boxes needs the prediction map")
    return dumps("diagram", _diagram_value(d, pm)).encode("utf-8")


# ---------------------------------------------------------------------------
# Models


def load_model(text):
    """Parse a model file into a prediction map."""
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "model":
        ctx.fail(value, f"expected a model file, got {kind!r}")
    ctx.rec(
        value, "a model", allowed=("systems", "procedures"), required=("procedures",)
    )
    env = _load_systems(ctx, value.get("systems", []))
    return optheory.PredictionMap(_load_procedures(ctx, value["procedures"], env))


def dump_model(pm):
    """Canonical file text for a prediction map."""
    namer = _Namer()
    procedures = [_procedure_value(decl, namer) for decl in pm.decls]
    return dumps("model", {"systems": namer.declarations(), "procedures": procedures})


# ---------------------------------------------------------------------------
# Scenarios and correlations

def _load_scenario(ctx, rec):
    ctx.rec(
        rec, "a scenario", allowed=("type", "cards", "latent"), required=("type", "cards")
    )
    tag = rec["type"]
    cls = nogo.SCENARIOS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        ctx.fail(rec, f"unknown scenario type {tag!r}")
    cards = [ctx.nat(v, rec, "each card") for v in ctx.arr(rec["cards"], "cards")]
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
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "correlation":
        ctx.fail(value, f"expected a correlation file, got {kind!r}")
    ctx.rec(
        value, "a correlation", allowed=("scenario", "table"), required=("scenario", "table")
    )
    scenario = _load_scenario(ctx, value["scenario"])
    table = _number_matrix(ctx, value["table"], "table")
    return nogo.Correlation(scenario, table)


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
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "fragment":
        ctx.fail(value, f"expected a fragment file, got {kind!r}")
    ctx.rec(
        value,
        "a fragment",
        allowed=("states", "effects", "unit"),
        required=("states", "effects", "unit"),
    )
    states = _number_matrix(ctx, value["states"], "states")
    effects = _number_matrix(ctx, value["effects"], "effects")
    unit = _number_vector(ctx, value["unit"], "unit")
    return nogo.GPTFragment(states, effects, unit)


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
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "rep":
        ctx.fail(value, f"expected a rep file, got {kind!r}")
    ctx.rec(
        value,
        "a representation",
        allowed=("systems", "ontic", "xi"),
        required=("ontic", "xi"),
    )
    env = _load_systems(ctx, value.get("systems", []))
    ontic = {}
    for rec in ctx.arr(value["ontic"], "ontic"):
        ctx.rec(rec, "an ontic entry", allowed=("system", "carrier"), required=("system", "carrier"))
        (system,) = _system_names(ctx, env, [rec["system"]], "ontic system")
        if system in ontic:
            ctx.fail(rec, "duplicate ontic entry")
        ontic[system] = tuple(_label(v) for v in ctx.arr(rec["carrier"], "carrier"))

    def image_carrier(rec, t):
        if t in ontic:
            return ontic[t]
        if t.classical and not isinstance(t.carrier, Abstract):
            return t.carrier
        ctx.fail(rec, f"xi signature system {t!r} has no ontic carrier")

    xi = {}
    for rec in ctx.arr(value["xi"], "xi"):
        ctx.rec(rec, "a xi entry", allowed=("ins", "outs", "entries"), required=("ins", "outs", "entries"))
        ins = _system_names(ctx, env, rec["ins"], "xi inputs")
        outs = _system_names(ctx, env, rec["outs"], "xi outputs")
        if (ins, outs) in xi:
            ctx.fail(rec, "duplicate xi signature")
        if pm is None:
            ctx.fail(rec, "xi entries need a diagram with procedures")
        alphabet = pm.alphabet(ins, outs)
        if not alphabet:
            ctx.fail(rec, "no declared procedures match this xi signature")
        dom = fstheory.bundle_carrier(
            tuple(causal_system(image_carrier(rec, t)) for t in ins)
        )
        cod = fstheory.bundle_carrier(
            tuple(causal_system(image_carrier(rec, t)) for t in outs)
        )
        entries = _exact_matrix(ctx, rec["entries"], "xi entries")
        xi[(ins, outs)] = substoch.SubstochMap(
            alphabet, funcdyn.hom_carrier(dom, cod), entries
        )
    return fstheory.RealistRep(ontic, xi)


def dump_rep(rep, pm):
    """Canonical file text for a representation."""
    namer = _Namer()
    ontic = [
        {"system": namer.name(t), "carrier": [label_value(lab) for lab in carrier]}
        for t, carrier in rep.ontic.items()
    ]
    xi = []
    for (ins, outs), m in rep.xi.items():
        xi.append(
            {
                "ins": [namer.name(t) for t in ins],
                "outs": [namer.name(t) for t in outs],
                "entries": [list(row) for row in m.entries],
            }
        )
    return dumps("rep", {"systems": namer.declarations(), "ontic": ontic, "xi": xi})


# ---------------------------------------------------------------------------
# Witness pairs


def load_pairs(text):
    """Parse a pairs file into ((left, right), ...) diagram pairs."""
    kind, value, locs = loads(text)
    ctx = _Ctx(locs)
    if kind != "pairs":
        ctx.fail(value, f"expected a pairs file, got {kind!r}")
    ctx.rec(
        value,
        "a pairs file",
        allowed=("systems", "procedures", "pairs"),
        required=("pairs",),
    )
    env = _load_systems(ctx, value.get("systems", []))
    pm = None
    if "procedures" in value:
        pm = optheory.PredictionMap(_load_procedures(ctx, value["procedures"], env))
    pairs = []
    for rec in ctx.arr(value["pairs"], "pairs"):
        ctx.rec(rec, "a pair", allowed=("left", "right"), required=("left", "right"))
        left = _load_body(ctx, rec["left"], env, pm, what="the left diagram")
        right = _load_body(ctx, rec["right"], env, pm, what="the right diagram")
        pairs.append((left, right))
    return tuple(pairs), pm


def dump_pairs(pairs, pm=None):
    """Canonical file text for witness pairs."""
    if pm is None and any(_needs_pm(d) for a, b in pairs for d in (a, b)):
        raise ConfigError("serializing procedure boxes needs the prediction map")
    namer = _Namer()
    for a, b in pairs:
        for d in (a, b):
            for t in d.input_types + d.output_types:
                namer.name(t)
    procedures = None
    if pm is not None:
        procedures = [_procedure_value(decl, namer) for decl in pm.decls]
    body = []
    for a, b in pairs:
        ids_a = [f"b{i}" for i in range(len(a.boxes))]
        ids_b = [f"b{i}" for i in range(len(b.boxes))]
        body.append(
            {
                "left": _body_value(a, namer, ids_a),
                "right": _body_value(b, namer, ids_b),
            }
        )
    value = {"systems": namer.declarations()}
    if procedures is not None:
        value["procedures"] = procedures
    value["pairs"] = body
    return dumps("pairs", value)
