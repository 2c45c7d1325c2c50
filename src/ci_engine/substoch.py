"""Exact semantics of classical inference.

Substochastic matrices over the rationals carry both the probabilistic
theory (stochastic maps, states of knowledge) and the propositional one
(partial functions, propositions, connectives).  The two meet in shared
representatives: the trivial proposition equals the marginalization
effect, value assignments equal point distributions, and the scalars
True/False are 1 and 0.

Everything here is exact; no floats and no tolerances.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import product as iproduct

import numpy as np

from . import funcdyn, tensornet
from .caps import over_cap
from .diagrams import STAR, product_carrier
from .errors import (
    CapExceeded,
    CarrierMismatch,
    DimensionMismatch,
    TypeMismatch,
    WeightError,
)
from .tensornet import Scaled

BOOL = ("y", "n")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if tensornet.is_exact_number(value):
        return Fraction(value)
    raise TypeMismatch(f"expected an exact rational, got {type(value).__name__}")


class SubstochMap:
    """A |cod| x |dom| matrix of exact rationals with column sums <= 1.

    Stored as a reduced scaled grid: integer numerators ``num`` of shape
    (|cod|, |dom|) over the Python-int denominator ``den``, with no factor
    common to all of them.  ``entries`` is the same matrix as rows of
    Fractions, built on first use.  ``entries`` given to the constructor
    may be rows of exact rationals or a ``tensornet.Scaled`` grid.
    """

    def __init__(self, dom, cod, entries):
        dom, cod = tuple(dom), tuple(cod)
        shape = (len(cod), len(dom))
        if isinstance(entries, Scaled):
            if entries.shape != shape:
                raise DimensionMismatch("entry grid must be |cod| x |dom|")
            num, den = entries.reduced()
        else:
            rows = tuple(tuple(_frac(v) for v in row) for row in entries)
            if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
                raise DimensionMismatch("entry grid must be |cod| x |dom|")
            self.__dict__["entries"] = rows
            num, den = tensornet.scaled([v for row in rows for v in row], shape)
        num = num.view()
        num.flags.writeable = False
        self.__dict__.update(dom=dom, cod=cod, num=num, den=den)
        low = min(self.num.ravel().tolist(), default=0)
        if low < 0:
            raise WeightError(f"entry {Fraction(low, self.den)} outside [0, 1]")
        for c, total in enumerate(self._column_totals()):
            if total > self.den:
                raise WeightError(f"column {c} sums to {Fraction(total, self.den)} > 1")

    @cached_property
    def entries(self):
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.num.tolist())

    @property
    def grid(self):
        return Scaled(self.num, self.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"SubstochMap is immutable; cannot set {name!r}")

    def _key(self):
        return (self.dom, self.cod, self.den, tuple(self.num.ravel().tolist()))

    def __eq__(self, other):
        return isinstance(other, SubstochMap) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SubstochMap(dom={self.dom!r}, cod={self.cod!r}, entries={self.entries!r})"

    def _column_totals(self):
        # summed as Python ints, which cannot overflow; on the small grids
        # that dominate, this beats numpy reductions and their call overhead
        flat = self.num.ravel().tolist()
        return [sum(flat[c :: len(self.dom)]) for c in range(len(self.dom))]

    def column_sums(self):
        return tuple(Fraction(t, self.den) for t in self._column_totals())

    def is_stochastic(self):
        return all(t == self.den for t in self._column_totals())

    def is_deterministic(self):
        # in lowest terms every entry is an integer exactly when den is 1,
        # and integer entries of a substochastic map are 0 or 1
        return self.den == 1


def max_gap(m, n):
    """Largest entrywise |m - n| over equally shaped maps, exactly."""
    diff = tensornet.times(m.num, n.den) - tensornet.times(n.num, m.den)
    return Fraction(int(np.abs(diff).max()) if diff.size else 0, m.den * n.den)


def identity_map(carrier):
    carrier = tuple(carrier)
    return SubstochMap(carrier, carrier, tensornet.scaled_eye(len(carrier)))


def compose_seq(m, n):
    """m after n: exact matrix product."""
    if n.cod != m.dom:
        raise DimensionMismatch("compose_seq needs cod(n) = dom(m)")
    return SubstochMap(n.dom, m.cod, tensornet.tensordot(m.grid, n.grid, ([1], [0])))


def compose_par(m, n):
    """Kronecker product over row-major product carriers."""
    dom = product_carrier(m.dom, n.dom)
    cod = product_carrier(m.cod, n.cod)
    grid = tensornet.tensordot(m.grid, n.grid, 0).transpose((0, 2, 1, 3))
    return SubstochMap(dom, cod, grid.reshape(len(cod), len(dom)))


# ---------------------------------------------------------------------------
# States of knowledge


@dataclass(frozen=True)
class KnowledgeState:
    """A subnormalized probability vector over a carrier."""

    carrier: tuple
    weights: tuple

    def __post_init__(self):
        carrier = tuple(self.carrier)
        weights = tuple(_frac(w) for w in self.weights)
        if len(weights) != len(carrier):
            raise DimensionMismatch("one weight per carrier label")
        if any(w < 0 for w in weights):
            raise WeightError("negative probability")
        if sum(weights, _ZERO) > 1:
            raise WeightError("weights sum beyond 1")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "weights", weights)

    def __call__(self, x):
        return self.weights[funcdyn.label_index(self.carrier, x, "carrier")]

    def as_map(self):
        return SubstochMap(STAR, self.carrier, tuple((w,) for w in self.weights))


def point_state(carrier, x):
    carrier = tuple(carrier)
    return KnowledgeState(
        carrier, tuple(_ONE if lab == x else _ZERO for lab in carrier)
    )


def uniform_state(carrier):
    carrier = tuple(carrier)
    w = Fraction(1, len(carrier))
    return KnowledgeState(carrier, (w,) * len(carrier))


def top_effect(carrier):
    """The all-ones row: marginalization, equal to the trivial proposition."""
    carrier = tuple(carrier)
    return SubstochMap(carrier, STAR, ((_ONE,) * len(carrier),))


def convex_mix(weights, maps):
    """Weighted sum of equally-shaped maps; weights form a distribution."""
    weights = tuple(_frac(w) for w in weights)
    maps = tuple(maps)
    if len(weights) != len(maps) or not maps:
        raise DimensionMismatch("one weight per map, at least one map")
    if any(w < 0 for w in weights):
        raise WeightError("negative mixing weight")
    if sum(weights, _ZERO) != 1:
        raise WeightError("mixing weights must sum to 1")
    first = maps[0]
    for m in maps[1:]:
        if m.dom != first.dom or m.cod != first.cod:
            raise DimensionMismatch("mixed maps must share dom and cod")
    grids = tensornet.stack([m.grid for m in maps], 0)
    w = tensornet.scaled(weights, (len(weights),))
    return SubstochMap(first.dom, first.cod, tensornet.tensordot(w, grids, ([0], [0])))


def factorize(s):
    """Split s into a stochastic part and per-column weights.

    Column j of s equals weights[j] times column j of the stochastic part.
    Zero columns take weight 0 with a uniform column, which makes the
    split canonical.
    """
    sums = s.column_sums()
    n_out = len(s.cod)
    rows = tuple(
        tuple(Fraction(1, n_out) if w == 0 else v / w for v, w in zip(row, sums))
        for row in s.entries
    )
    return SubstochMap(s.dom, s.cod, rows), sums


# ---------------------------------------------------------------------------
# Propositions


@dataclass(frozen=True)
class Proposition:
    """A subset of a carrier, stored as a bitmask over carrier positions.

    Three interchangeable views: the subset itself, the propositional
    question X -> {y, n}, and the propositional effect (a partial map
    X -> STAR defined exactly on the subset).
    """

    carrier: tuple
    mask: int

    def __post_init__(self):
        carrier = tuple(self.carrier)
        if not (0 <= self.mask < (1 << len(carrier))):
            raise CarrierMismatch("mask has bits outside the carrier")
        object.__setattr__(self, "carrier", carrier)

    def __contains__(self, label):
        return bool(self.mask >> funcdyn.label_index(self.carrier, label, "carrier") & 1)

    def members(self):
        return tuple(
            lab for i, lab in enumerate(self.carrier) if self.mask >> i & 1
        )

    def as_question(self):
        return funcdyn.Fn(
            self.carrier,
            BOOL,
            tuple("y" if self.mask >> i & 1 else "n" for i in range(len(self.carrier))),
        )

    def as_effect(self):
        return PartialFn(
            self.carrier,
            STAR,
            tuple("*" if self.mask >> i & 1 else None for i in range(len(self.carrier))),
        )

    def as_effect_map(self):
        return from_partial_fn(self.as_effect())


def proposition(carrier, members):
    carrier = tuple(carrier)
    mask = 0
    for lab in members:
        try:
            mask |= 1 << carrier.index(lab)
        except ValueError:
            raise CarrierMismatch(f"{lab!r} is not in the carrier") from None
    return Proposition(carrier, mask)


def top(carrier):
    carrier = tuple(carrier)
    return Proposition(carrier, (1 << len(carrier)) - 1)


def bottom(carrier):
    return Proposition(tuple(carrier), 0)


def eval_proposition(sigma, pi):
    """Prob(pi : sigma) = sum of sigma over the subset."""
    if tuple(sigma.carrier) != tuple(pi.carrier):
        raise CarrierMismatch("state and proposition live on different carriers")
    return sum(
        (w for i, w in enumerate(sigma.weights) if pi.mask >> i & 1), _ZERO
    )


def product_proposition(a, b):
    """Conjunction across a composite: the subset product of the factors."""
    carrier = product_carrier(a.carrier, b.carrier)
    mask = 0
    for i, (x, y) in enumerate(carrier):
        if x in a and y in b:
            mask |= 1 << i
    return Proposition(carrier, mask)


_CONNECTIVE_TABLES = {
    "AND": {("y", "y"): "y", ("y", "n"): "n", ("n", "y"): "n", ("n", "n"): "n"},
    "OR": {("y", "y"): "y", ("y", "n"): "y", ("n", "y"): "y", ("n", "n"): "n"},
    "XOR": {("y", "y"): "n", ("y", "n"): "y", ("n", "y"): "y", ("n", "n"): "n"},
    "IMPLIES": {("y", "y"): "y", ("y", "n"): "n", ("n", "y"): "y", ("n", "n"): "y"},
}


def truth_dot(op):
    """The truth-table function BOOL x BOOL -> BOOL for a connective."""
    try:
        table = _CONNECTIVE_TABLES[op]
    except KeyError:
        raise TypeMismatch(f"unknown connective {op!r}") from None
    dom = product_carrier(BOOL, BOOL)
    return funcdyn.Fn(dom, BOOL, tuple(table[pair] for pair in dom))


def not_dot():
    return funcdyn.Fn(BOOL, BOOL, ("n", "y"))


def connective(op, a, b):
    """Subset-algebra connective; agrees with the diagrammatic route."""
    if tuple(a.carrier) != tuple(b.carrier):
        raise CarrierMismatch("connectives need a shared carrier")
    full = (1 << len(a.carrier)) - 1
    if op == "AND":
        mask = a.mask & b.mask
    elif op == "OR":
        mask = a.mask | b.mask
    elif op == "XOR":
        mask = a.mask ^ b.mask
    elif op == "IMPLIES":
        mask = (full & ~a.mask) | b.mask
    else:
        raise TypeMismatch(f"unknown connective {op!r}")
    return Proposition(a.carrier, mask)


def negate(pi):
    full = (1 << len(pi.carrier)) - 1
    return Proposition(pi.carrier, full & ~pi.mask)


def question_matrix(pi):
    return from_fn(pi.as_question())


def _question_to_proposition(m):
    if m.cod != BOOL or not m.is_deterministic() or not m.is_stochastic():
        raise TypeMismatch("matrix is not a propositional question")
    mask = sum(1 << int(c) for c in np.flatnonzero(m.num[0]))
    return Proposition(m.dom, mask)


def connective_diagrammatic(op, a, b):
    """Copy the system, ask both questions, combine with the truth dot."""
    if tuple(a.carrier) != tuple(b.carrier):
        raise CarrierMismatch("connectives need a shared carrier")
    carrier = tuple(a.carrier)
    wiring = compose_seq(
        compose_par(question_matrix(a), question_matrix(b)),
        from_fn(funcdyn.copy_fn(carrier)),
    )
    return _question_to_proposition(
        compose_seq(from_fn(truth_dot(op)), wiring)
    )


def negate_diagrammatic(pi):
    return _question_to_proposition(
        compose_seq(from_fn(not_dot()), question_matrix(pi))
    )


# ---------------------------------------------------------------------------
# Partial functions


@dataclass(frozen=True)
class PartialFn:
    """A partial function as an image table with None off the domain."""

    dom: tuple
    cod: tuple
    table: tuple

    def __post_init__(self):
        dom = tuple(self.dom)
        cod = tuple(self.cod)
        table = tuple(self.table)
        if len(table) != len(dom):
            raise TypeMismatch("table length must match the domain carrier")
        cod_set = set(cod)
        for image in table:
            if image is not None and image not in cod_set:
                raise TypeMismatch(f"image {image!r} is not in the codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", table)

    def defined_at(self, x):
        return self(x) is not None

    def __call__(self, x):
        return self.table[funcdyn.label_index(self.dom, x)]

    def defined_set(self):
        mask = 0
        for i, image in enumerate(self.table):
            if image is not None:
                mask |= 1 << i
        return Proposition(self.dom, mask)

    def decompose(self):
        """Split into the domain proposition and a total extension.

        The extension sends undefined points to the first codomain label;
        restricting it to the domain proposition recovers the partial map.
        """
        chi = self.defined_set()
        total = funcdyn.Fn(
            self.dom,
            self.cod,
            tuple(self.cod[0] if v is None else v for v in self.table),
        )
        return chi, total


def _table_matrix(f, cols):
    """Entry (y, x) is 1 exactly when x is in ``cols`` and f(x) = y.  The
    |cod| x |dom| cells are checked against the cap before any is allocated."""
    cells = len(f.cod) * len(f.dom)
    if over_cap(cells):
        raise CapExceeded(f"matrix of {cells} cells exceeds the cap")
    row_of = {y: r for r, y in enumerate(f.cod)}
    num = np.zeros((len(f.cod), len(f.dom)), dtype=np.int64)
    num[[row_of[f.table[c]] for c in cols], cols] = 1
    return SubstochMap(f.dom, f.cod, Scaled(num))


def from_partial_fn(f):
    """Matrix representative: a ``None`` image leaves its column zero."""
    return _table_matrix(f, [c for c, y in enumerate(f.table) if y is not None])


def from_fn(f):
    """Matrix representative of a total function: every column holds a 1,
    also where the image is the label ``None``."""
    return _table_matrix(f, list(range(len(f.table))))


def scalar_true():
    return from_partial_fn(PartialFn(STAR, STAR, ("*",)))


def scalar_false():
    return from_partial_fn(PartialFn(STAR, STAR, (None,)))


def pullback(f, pi):
    """Preimage of a proposition along a total function."""
    if tuple(f.cod) != tuple(pi.carrier):
        raise CarrierMismatch("proposition lives on the function's codomain")
    mask = 0
    for i, x in enumerate(f.dom):
        if f(x) in pi:
            mask |= 1 << i
    return Proposition(tuple(f.dom), mask)


def pullback_effect(f, pi):
    """Preimage along a partial function: the domain meets F-preimage.

    Bottom, joins, and meets are preserved; the top proposition pulls
    back to the domain of definition, so it is preserved only when the
    partial function is total.
    """
    if tuple(f.cod) != tuple(pi.carrier):
        raise CarrierMismatch("proposition lives on the partial map's codomain")
    chi, total = f.decompose()
    return connective("AND", chi, pullback(total, pi))


# ---------------------------------------------------------------------------
# Self-check batteries


@dataclass(frozen=True)
class BatteryReport:
    """Pass/fail per named check, with the instance count or the first
    failure in the detail."""

    max_carrier: int
    results: tuple

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.results)

    def lines(self):
        return tuple(
            f"{'PASS' if passed else 'FAIL'} {name} ({detail})"
            for name, passed, detail in self.results
        )


def run_battery(checks, max_carrier, cap_message, *args):
    """Run each ``(name, check, unit)`` row of ``checks`` into a BatteryReport.

    ``check(max_carrier, *args)`` is a generator that yields, per counted
    instance, None when its equation holds there and the failure detail
    when it does not; a check that is not counted yields only on failure.
    Each check stops at its first failure, whose detail it reports; one
    that holds everywhere reports its count of instances in ``unit``.
    ``max_carrier`` must be an int (never a bool) from 1 to 4; above 4
    raises CapExceeded with ``cap_message``.
    """
    if type(max_carrier) is not int or max_carrier < 1:
        raise TypeMismatch("max_carrier must be at least 1")
    if max_carrier > 4:
        raise CapExceeded(cap_message)
    results = []
    for name, check, unit in checks:
        count = 0
        for failure in check(max_carrier, *args):
            if failure is not None:
                results.append((name, False, failure))
                break
            count += 1
        else:
            results.append((name, True, f"{count} {unit}"))
    return BatteryReport(max_carrier, tuple(results))


# ---------------------------------------------------------------------------
# Boolean-algebra law verification

# The two sides of a law are expressions: a leaf names a variable ("a",
# "b", "c") or a constant ("top", "bot"); a node is (connective, operands).


def _or(l, r):
    return ("OR", l, r)


def _and(l, r):
    return ("AND", l, r)


def _not(e):
    return ("NOT", e)


_LAW_FAMILIES = (
    (
        "associativity",
        (
            (_or("a", _or("b", "c")), _or(_or("a", "b"), "c")),
            (_and("a", _and("b", "c")), _and(_and("a", "b"), "c")),
        ),
    ),
    (
        "commutativity",
        (
            (_or("a", "b"), _or("b", "a")),
            (_and("a", "b"), _and("b", "a")),
        ),
    ),
    (
        "identity",
        (
            (_or("a", "bot"), "a"),
            (_and("a", "top"), "a"),
        ),
    ),
    (
        "complements",
        (
            (_or("a", _not("a")), "top"),
            (_and("a", _not("a")), "bot"),
        ),
    ),
    (
        "distributivity",
        (
            (_and("a", _or("b", "c")), _or(_and("a", "b"), _and("a", "c"))),
            (_or("a", _and("b", "c")), _and(_or("a", "b"), _or("a", "c"))),
        ),
    ),
    (
        "idempotence",
        (
            (_or("a", "a"), "a"),
            (_and("a", "a"), "a"),
        ),
    ),
    (
        "annihilation",
        (
            (_or("a", "top"), "top"),
            (_and("a", "bot"), "bot"),
        ),
    ),
    (
        "absorption",
        (
            (_or("a", _and("a", "b")), "a"),
            (_and("a", _or("a", "b")), "a"),
        ),
    ),
)

LAW_FAMILY_NAMES = tuple(name for name, _ in _LAW_FAMILIES)


def _variables(expr):
    if isinstance(expr, str):
        return set() if expr in ("top", "bot") else {expr}
    return set().union(*map(_variables, expr[1:]))


def _law_instances(identities, max_carrier, evaluate):
    """A law family's check: each identity at every assignment of subsets
    (as carrier bitmasks) to its variables, over carriers of size 1 up."""
    for size in range(1, max_carrier + 1):
        for lhs, rhs in identities:
            names = sorted(_variables(lhs) | _variables(rhs))
            for masks in iproduct(range(1 << size), repeat=len(names)):
                env = dict(zip(names, masks), top=(1 << size) - 1, bot=0)
                held = evaluate(lhs, size, env) == evaluate(rhs, size, env)
                yield None if held else f"carrier size {size}, masks {masks}"


def verify_boolean_laws(max_carrier=3, dots=None):
    """Exhaustively check the eight Boolean law families diagrammatically.

    Every expression is evaluated as a wiring of copy dots, question
    matrices, and truth-table dots; the subset shortcut is never used.
    ``dots`` may replace the truth table of AND, OR, XOR, IMPLIES or NOT
    (for instance a corrupted OR) to demonstrate that the checker catches
    it; any other key is refused.  Each family reports its count of
    assignments, or its first failing one.
    """
    fns = {op: truth_dot(op) for op in _CONNECTIVE_TABLES} | {"NOT": not_dot()}
    for op, fn in (dots or {}).items():
        if op not in fns:
            raise TypeMismatch(f"unknown connective {op!r}")
        fns[op] = fn
    dot = {op: from_fn(fn) for op, fn in fns.items()}

    # one memo per call, shared by every family and carrier size
    @cache
    def leaf(size, mask):
        return question_matrix(Proposition(tuple(range(size)), mask))

    @cache
    def wire(op, *operands):
        asked = operands[0]
        if len(operands) > 1:
            # a binary connective asks both questions of one copied system
            copy_m = from_fn(funcdyn.copy_fn(asked.dom))
            asked = compose_seq(compose_par(*operands), copy_m)
        return compose_seq(dot[op], asked)

    def evaluate(expr, size, env):
        if isinstance(expr, str):
            return leaf(size, env[expr])
        return wire(expr[0], *(evaluate(e, size, env) for e in expr[1:]))

    checks = (
        (name, partial(_law_instances, identities), "assignments")
        for name, identities in _LAW_FAMILIES
    )
    return run_battery(
        checks, max_carrier, "law verification is capped at carriers of size 4", evaluate
    )
