"""The classical realist theory: generators, semantics, and normal forms.

Causal systems carry finite ontic carriers and inferential systems carry
classical records.  Three generator families act across the divide:

- an application box ("apply") takes an inferential wire holding
  knowledge of which dynamics occurred, encoded over a hom-set of
  functions, together with the causal inputs, and produces the causal
  outputs by evaluation;
- a learning box ("learn") copies a classical causal system onto an
  inferential record while passing the causal wire through;
- an ignore box discards a causal system outright;

plus the purely inferential embedding of substochastic matrices.  Every
diagram built from these denotes one substochastic matrix over its
bundled open ports, inferential ports first, and two diagrams are
inferentially equivalent exactly when those matrices agree.  Application
boxes with no causal inputs prepare: knowledge over Hom(*, L) is
knowledge of which point of L was set.

A realist representation sends an operational diagram wire-for-wire
into this theory by assigning ontic carriers to systems and pushing
knowledge about procedures through a stochastic map onto knowledge
about dynamics.
"""

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as iproduct

import numpy as np

from . import funcdyn, substoch, tensornet
from .caps import over_cap
from .diagrams import (
    CAUSAL,
    INFERENTIAL,
    STAR,
    Box,
    causal_system,
    compose_parallel,
    from_box,
    identity,
    inferential_system,
    layered,
    product_carrier,
    substitute,
)
from .errors import (
    CapExceeded,
    CarrierMismatch,
    MissingXi,
    NotCausallyClosed,
    PairNotEquivalent,
    PropositionOnNonclassical,
    SignatureMismatch,
    TypeMismatch,
    ValidationError,
)
from .tensornet import Scaled


# ---------------------------------------------------------------------------
# Generator payloads and constructors


@dataclass(frozen=True)
class GenKnowledge:
    """Evaluation of known dynamics between folded causal carriers."""

    in_systems: tuple
    out_systems: tuple


@dataclass(frozen=True)
class GenPropGain:
    """Copy of a classical causal system onto an inferential record."""

    system: object


@dataclass(frozen=True)
class GenIgnore:
    """Discard of a causal system."""

    system: object


@dataclass(frozen=True)
class GenEmbedded:
    """A substochastic matrix used as a purely inferential box."""

    matrix: object


def _require_classical(t, where):
    # SystemType refuses a classical abstract carrier, so the flag decides
    if not t.classical:
        raise TypeMismatch(f"{where} needs a classical enumerated carrier")


def bundle_carrier(types):
    """Left-folded row-major product of the types' carriers; STAR if empty."""
    types = tuple(types)
    if not types:
        return STAR
    acc = tuple(types[0].carrier)
    for t in types[1:]:
        acc = product_carrier(acc, tuple(t.carrier))
    return acc


def record_system(t):
    """The inferential record type matching a classical causal system."""
    _require_classical(t, "a record")
    return inferential_system(t.carrier)


def hom_system(in_systems, out_systems):
    """Inferential codes for the functions between the folded carriers."""
    dom = bundle_carrier(in_systems)
    cod = bundle_carrier(out_systems)
    return inferential_system(funcdyn.hom_carrier(dom, cod))


def knowledge_box(in_systems=(), out_systems=(), name="apply"):
    """The application generator.

    Inputs are an inferential hom wire followed by the causal inputs;
    outputs are the causal outputs.  With no causal inputs this prepares
    a causal state from knowledge over Hom(*, L).
    """
    in_systems = tuple(in_systems)
    out_systems = tuple(out_systems)
    for t in in_systems + out_systems:
        if t.kind != CAUSAL:
            raise TypeMismatch("application boxes act on causal systems")
        _require_classical(t, "an application box")
    h = hom_system(in_systems, out_systems)
    return Box(name, (h,) + in_systems, out_systems, GenKnowledge(in_systems, out_systems))


def prop_gain(system, name="learn"):
    """The learning generator: causal pass-through plus a record copy."""
    if system.kind != CAUSAL:
        raise TypeMismatch("learning acts on a causal system")
    if not system.classical:
        raise PropositionOnNonclassical(
            "only classical systems support learning their value"
        )
    return Box(name, (system,), (system, record_system(system)), GenPropGain(system))


def ignore(system, name="ignore"):
    """The discarding generator."""
    if system.kind != CAUSAL:
        raise TypeMismatch("only causal systems are ignored; effects end inferential wires")
    return Box(name, (system,), (), GenIgnore(system))


def _digest(s):
    h = hashlib.sha1()
    h.update(repr((s.dom, s.cod)).encode("utf-8"))
    for row in s.entries:
        h.update((":".join(str(v) for v in row)).encode("utf-8"))
    return h.hexdigest()[:10]


def embedded(s, in_types=None, out_types=None, name=None):
    """A substochastic matrix as an inferential box.

    Port splits are optional: when given, the folded carriers of the
    inferential port types must reproduce the matrix's dom and cod.
    """
    if in_types is None:
        in_types = () if s.dom == STAR else (inferential_system(s.dom),)
    if out_types is None:
        out_types = () if s.cod == STAR else (inferential_system(s.cod),)
    in_types = tuple(in_types)
    out_types = tuple(out_types)
    for t in in_types + out_types:
        if t.kind != INFERENTIAL:
            raise TypeMismatch("embedded matrices have inferential ports only")
    if bundle_carrier(in_types) != s.dom:
        raise CarrierMismatch("input port split does not fold to the matrix domain")
    if bundle_carrier(out_types) != s.cod:
        raise CarrierMismatch("output port split does not fold to the matrix codomain")
    if name is None:
        name = "m#" + _digest(s)
    return Box(name, in_types, out_types, GenEmbedded(s))


def state_box(sigma, name=None):
    """Knowledge state as a preparation-shaped inferential box."""
    return embedded(sigma.as_map(), name=name)


def effect_box(pi, name=None):
    """Proposition as an effect-shaped inferential box."""
    return embedded(pi.as_effect_map(), name=name)


# ---------------------------------------------------------------------------
# Denotational semantics


# The knowledge, learning and ignore tensors are fixed 0/1 arrays that
# depend only on port sizes, so each shape is built once and shared
# read-only by every diagram that uses it.


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=64)
def _knowledge_array(n_in, n_out):
    """Evaluation of hom codes, axes (output, hom code, input)."""
    count = n_out**n_in
    # hom code h sends input x to its base-n_out digit x, most significant first
    h, x = np.indices((count, n_in))
    arr = np.zeros((n_out, count, n_in), dtype=np.int64)
    arr[h // n_out ** (n_in - 1 - x) % n_out, h, x] = 1
    return _read_only(arr)


@functools.lru_cache(maxsize=64)
def _prop_gain_array(n):
    arr = np.zeros((n, n, n), dtype=np.int64)
    arr[np.arange(n), np.arange(n), np.arange(n)] = 1
    return _read_only(arr)


@functools.lru_cache(maxsize=64)
def _ignore_array(n):
    return _read_only(np.ones(n, dtype=np.int64))


def _check_cells(cells):
    # checked before the cache lookup: a cached shape is refused under a lower cap too
    if over_cap(cells):
        raise CapExceeded(f"generator tensor of {cells} cells exceeds the cap")


def generator_tensor(box):
    """Exact semantics of one generator as a Scaled tensor, output axes first then inputs."""
    p = box.payload
    if isinstance(p, GenKnowledge):
        dom = bundle_carrier(p.in_systems)
        cod = bundle_carrier(p.out_systems)
        n_in, n_out = len(dom), len(cod)
        _check_cells(n_out * funcdyn.homset_size(dom, cod) * n_in)
        arr = _knowledge_array(n_in, n_out)
        return Scaled(arr.reshape(tuple(t.size for t in box.outs + box.ins)))
    if isinstance(p, GenPropGain):
        n = p.system.size
        _check_cells(n**3)
        return Scaled(_prop_gain_array(n))
    if isinstance(p, GenIgnore):
        return Scaled(_ignore_array(p.system.size))
    if isinstance(p, GenEmbedded):
        sizes = tuple(t.size for t in box.outs + box.ins)
        return p.matrix.grid.reshape(sizes)
    raise TypeMismatch(f"box {box.name!r} carries no realist semantics")


def _bundle_order(types):
    inf = [k for k, t in enumerate(types) if t.kind == INFERENTIAL]
    caus = [k for k, t in enumerate(types) if t.kind == CAUSAL]
    return inf + caus


def _bundled_matrix(d, tensor_fn):
    """Contract and bundle into a matrix over folded boundary carriers."""
    arr = tensornet.contract(d, tensor_fn, lambda t: t.size)
    n_out = len(d.output_types)
    out_order = _bundle_order(d.output_types)
    in_order = _bundle_order(d.input_types)
    arr = arr.transpose(out_order + [n_out + k for k in in_order])
    cod = bundle_carrier(tuple(d.output_types[k] for k in out_order))
    dom = bundle_carrier(tuple(d.input_types[k] for k in in_order))
    return substoch.SubstochMap(dom, cod, arr.reshape(len(cod), len(dom)))


def denote(d):
    """The substochastic matrix of a diagram over its bundled open ports.

    Open ports bundle inferential first then causal, each group in
    boundary order, under left-folded row-major product carriers.
    """
    for t in d.input_types + d.output_types:
        _require_classical(t, "denotation")
    for box in d.boxes:
        for t in box.ins + box.outs:
            _require_classical(t, f"box {box.name!r}")
    return _bundled_matrix(d, generator_tensor)


def causally_closed(d):
    """Whether every open port of the diagram is inferential."""
    return all(t.kind == INFERENTIAL for t in d.input_types + d.output_types)


def _require_closed(d):
    # the one closed-boundary guard, shared with optheory's predictions
    if not causally_closed(d):
        raise NotCausallyClosed("prediction needs all causal ports closed")


def _require_equal_boundaries(d1, d2):
    # the one equal-boundary guard, shared with optheory's equivalence
    if d1.input_types != d2.input_types or d1.output_types != d2.output_types:
        raise SignatureMismatch("equivalence compares equal boundary signatures")


def predict(d):
    """The unique prediction map: denotation of a causally closed diagram."""
    _require_closed(d)
    return denote(d)


def inferentially_equivalent(d1, d2):
    """Exact equality of denotations over equal boundary signatures."""
    _require_equal_boundaries(d1, d2)
    return denote(d1) == denote(d2)


# ---------------------------------------------------------------------------
# Normal forms


@dataclass(frozen=True)
class NormalForm:
    """One matrix in the middle plus bookkeeping for the boundary bundles.

    ``matrix`` is the denotation; the index tuples record which boundary
    positions feed each bundle, in bundle order.
    """

    matrix: object
    input_types: tuple
    output_types: tuple
    in_inferential: tuple
    in_causal: tuple
    out_inferential: tuple
    out_causal: tuple


def normal_form(d):
    """Rewrite a diagram into its single-matrix form."""
    in_order = _bundle_order(d.input_types)
    out_order = _bundle_order(d.output_types)
    n_inf_in = sum(1 for t in d.input_types if t.kind == INFERENTIAL)
    n_inf_out = sum(1 for t in d.output_types if t.kind == INFERENTIAL)
    return NormalForm(
        matrix=denote(d),
        input_types=d.input_types,
        output_types=d.output_types,
        in_inferential=tuple(in_order[:n_inf_in]),
        in_causal=tuple(in_order[n_inf_in:]),
        out_inferential=tuple(out_order[:n_inf_out]),
        out_causal=tuple(out_order[n_inf_out:]),
    )


def _recode_map(carrier):
    """Carrier labels to their codes in Hom(*, carrier)."""
    carrier = tuple(carrier)
    codes = funcdyn.hom_carrier(STAR, carrier)
    table = tuple(
        funcdyn.hom_index(funcdyn.point_fn(carrier, x)) for x in carrier
    )
    return substoch.from_fn(funcdyn.Fn(carrier, codes, table))


def reconstruct(nf):
    """A diagram in learn/apply boundary form denoting ``nf.matrix``.

    Causal inputs are learned (record into the matrix, causal branch
    ignored); causal outputs are re-prepared from the matrix through an
    application box with no causal inputs.  Drawn with ``layered`` as
    six layers: learn, permute into the matrix's input order, apply the
    matrix beside the ignores, recode, apply, permute to the boundary.
    """
    ins, outs = nf.input_types, nf.output_types
    kept = [outs[k] for k in nf.out_inferential]
    s_ins = [ins[k] for k in nf.in_inferential] + [record_system(ins[k]) for k in nf.in_causal]
    s_outs = kept + [record_system(outs[k]) for k in nf.out_causal]
    # where each input's wire lands after learning; a learned one's record is next
    at = list(accumulate([1 + (t.kind == CAUSAL) for t in ins], initial=0))
    out_order = (*nf.out_inferential, *nf.out_causal)
    return layered(
        ins,
        [prop_gain(t) if t.kind == CAUSAL else t for t in ins],
        [at[k] for k in nf.in_inferential]
        + [at[k] + 1 for k in nf.in_causal]
        + [at[k] for k in nf.in_causal],
        [embedded(nf.matrix, in_types=tuple(s_ins), out_types=tuple(s_outs))]
        + [ignore(ins[k]) for k in nf.in_causal],
        kept + [embedded(_recode_map(outs[k].carrier), name="recode") for k in nf.out_causal],
        kept + [knowledge_box((), (outs[k],)) for k in nf.out_causal],
        sorted(range(len(outs)), key=out_order.__getitem__),
    )


def quotient_normal_form(d):
    """Split the denotation into a stochastic part and column weights.

    Returns (Sigma, Pi) with Sigma stochastic, Pi diagonal on the domain,
    and Sigma after Pi equal to denote(d).
    """
    s = denote(d)
    sigma, weights = substoch.factorize(s)
    w = tensornet.scaled(weights, (len(weights),))
    return sigma, substoch.SubstochMap(s.dom, s.dom, Scaled(np.diag(w.num), w.den))


# ---------------------------------------------------------------------------
# Rewrite-axiom verification


@dataclass(frozen=True)
class AxiomReport:
    """Pass/fail per named axiom, with instance counts in the detail."""

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


def _sizes(max_carrier):
    return range(1, max_carrier + 1)


def _carrier(n):
    return tuple(range(n))


# Each axiom is a generator over the carrier sizes: per counted instance it
# yields None when the equation holds there and the failure detail when it
# does not.  A check that is not counted yields only on failure.


def _combined(name, ins, out, combine):
    """The embedded box sending the hom codes of two functions, each typed by
    an (input, output) system pair of ``ins``, to the code of ``combine``
    applied to them, over the hom-set of the (inputs, outputs) pair ``out``."""
    (s1, t1), (s2, t2) = ins
    homs = (hom_system((s1,), (t1,)), hom_system((s2,), (t2,)))
    dom = bundle_carrier(homs)
    table = tuple(
        funcdyn.hom_index(
            combine(
                funcdyn.hom_unindex(c1, s1.carrier, t1.carrier),
                funcdyn.hom_unindex(c2, s2.carrier, t2.carrier),
            )
        )
        for c1, c2 in dom
    )
    h = hom_system(*out)
    fn = funcdyn.Fn(dom, h.carrier, table)
    return embedded(substoch.from_fn(fn), in_types=homs, out_types=(h,), name=name)


def _axiom_sequential(mc, seed):
    for n1, n2, n3 in iproduct(_sizes(mc), repeat=3):
        # the sizes of Hom(a, b), Hom(b, c) and Hom(a, c)
        if n2**n1 * n3**n2 * n3**n1 > 25000:
            continue
        a, b, c = (causal_system(_carrier(n)) for n in (n1, n2, n3))
        chain = _combined(
            "chain", ((a, b), (b, c)), ((a,), (c,)), lambda f, g: funcdyn.compose(g, f)
        )
        ha, hb = chain.ins
        kb_ab, kb_bc = knowledge_box((a,), (b,)), knowledge_box((b,), (c,))
        lhs = layered((ha, hb, a), (1, 0, 2), (hb, kb_ab), (kb_bc,))
        rhs = layered((ha, hb, a), (chain, a), (knowledge_box((a,), (c,)),))
        ok = inferentially_equivalent(lhs, rhs)
        yield None if ok else f"failed at carrier sizes {(n1, n2, n3)}"


def _axiom_parallel(mc, seed):
    for na, na2, nb, nb2 in iproduct(_sizes(mc), repeat=4):
        # fused hom-sets grow doubly fast; bits (256) stay exhaustive
        if (na2 * nb2) ** (na * nb) > 256:
            continue
        a, a2 = causal_system(_carrier(na)), causal_system(_carrier(na2))
        b, b2 = causal_system(_carrier(nb)), causal_system(_carrier(nb2))
        pair = _combined("pair", ((a, a2), (b, b2)), ((a, b), (a2, b2)), funcdyn.product)
        ha, hb = pair.ins
        lhs = layered(
            (ha, hb, a, b),
            (0, 2, 1, 3),
            (knowledge_box((a,), (a2,)), knowledge_box((b,), (b2,))),
        )
        rhs = layered((ha, hb, a, b), (pair, a, b), (knowledge_box((a, b), (a2, b2)),))
        ok = inferentially_equivalent(lhs, rhs)
        yield None if ok else f"failed at carrier sizes {(na, na2, nb, nb2)}"


def _random_substoch(rng, dom, cod):
    cols = []
    for _ in dom:
        raw = [rng.randint(0, 9) for _ in cod]
        total = sum(raw)
        den = total if total == 0 or rng.random() < 0.5 else total + rng.randint(1, 5)
        cols.append([Fraction(v, den or 1) for v in raw])
    return substoch.SubstochMap(dom, cod, tuple(zip(*cols)))


def _axiom_identity_embedding(mc, seed):
    rng = random.Random(seed)
    for n_in, n_out in iproduct(_sizes(mc), repeat=2):
        dom, cod = _carrier(n_in), _carrier(n_out)
        mats = [substoch.from_fn(f) for f in funcdyn.all_functions(dom, cod)[:4]]
        mats += [_random_substoch(rng, dom, cod) for _ in range(3)]
        if n_in == n_out:
            mats.append(substoch.identity_map(dom))
        for s in mats:
            ok = denote(from_box(embedded(s))) == s
            yield None if ok else f"failed on a {n_out}x{n_in} matrix"
        wire = inferential_system(dom)
        if denote(identity((wire,))) != substoch.identity_map(dom):
            yield f"bare inferential wire at size {n_in}"


def _axiom_true_trivial(mc, seed):
    for n in _sizes(mc):
        a = causal_system(_carrier(n))
        lhs = layered((a,), (prop_gain(a),), (a, embedded(substoch.top_effect(a.carrier))))
        ok = inferentially_equivalent(lhs, identity((a,)))
        yield None if ok else f"failed at carrier size {n}"


def _axiom_repeat_learning(mc, seed):
    for n in _sizes(mc):
        a = causal_system(_carrier(n))
        rec = record_system(a)
        lhs = layered((a,), (prop_gain(a),), (prop_gain(a), rec), (0, 2, 1))
        cp = embedded(
            substoch.from_fn(funcdyn.copy_fn(a.carrier)),
            in_types=(rec,),
            out_types=(rec, rec),
            name="copyrec",
        )
        rhs = layered((a,), (prop_gain(a),), (a, cp))
        yield None if inferentially_equivalent(lhs, rhs) else f"failed at carrier size {n}"


def _axiom_fuses(generator):
    """The axiom that ``generator`` on a pair of systems equals it on the fused system."""

    def check(mc, seed):
        for na, nb in iproduct(_sizes(mc), repeat=2):
            a, b = causal_system(_carrier(na)), causal_system(_carrier(nb))
            lhs = denote(compose_parallel(from_box(generator(a)), from_box(generator(b))))
            fused = causal_system(product_carrier(a.carrier, b.carrier))
            rhs = denote(from_box(generator(fused)))
            yield None if lhs.entries == rhs.entries else f"failed at carrier sizes {(na, nb)}"

    return check


def _axiom_ignorability(mc, seed):
    for n1, n2 in iproduct(_sizes(mc), repeat=2):
        a, b = causal_system(_carrier(n1)), causal_system(_carrier(n2))
        h = hom_system((a,), (b,))
        lhs = layered((h, a), (knowledge_box((a,), (b,)),), (ignore(b),))
        rhs = layered((h, a), (embedded(substoch.top_effect(h.carrier)), ignore(a)))
        yield None if inferentially_equivalent(lhs, rhs) else f"failed at carrier sizes {(n1, n2)}"


def _axiom_propagation(mc, seed):
    for n1, n2 in iproduct(_sizes(mc), repeat=2):
        a, b = causal_system(_carrier(n1)), causal_system(_carrier(n2))
        h = hom_system((a,), (b,))
        rec_a, rec_b = record_system(a), record_system(b)
        kb = knowledge_box((a,), (b,))
        lhs = layered((h, a), (kb,), (prop_gain(b),))
        cp = embedded(
            substoch.from_fn(funcdyn.copy_fn(h.carrier)),
            in_types=(h,),
            out_types=(h, h),
            name="copyhom",
        )
        ev = embedded(
            substoch.from_fn(funcdyn.universal_control(a.carrier, b.carrier)),
            in_types=(h, rec_a),
            out_types=(rec_b,),
            name="evalrec",
        )
        rhs = layered((h, a), (cp, prop_gain(a)), (0, 2, 1, 3), (kb, ev))
        yield None if inferentially_equivalent(lhs, rhs) else f"failed at carrier sizes {(n1, n2)}"


def _axiom_causal_identity(mc, seed):
    for n in _sizes(mc):
        a = causal_system(_carrier(n))
        nf = NormalForm(
            matrix=substoch.identity_map(a.carrier),
            input_types=(a,),
            output_types=(a,),
            in_inferential=(),
            in_causal=(0,),
            out_inferential=(),
            out_causal=(0,),
        )
        ok = inferentially_equivalent(identity((a,)), reconstruct(nf))
        yield None if ok else f"failed at carrier size {n}"


def _axiom_closure(mc, seed):
    for n1, n2 in iproduct(_sizes(mc), repeat=2):
        if n2 < 2:
            continue
        a, b = causal_system(_carrier(n1)), causal_system(_carrier(n2))
        h = hom_system((a,), (b,))
        prep_h = hom_system((), (a,))
        sigma = state_box(substoch.uniform_state(prep_h.carrier), name="sigma")
        # h passes while sigma's knowledge prepares a, then the dynamics act
        prepared = ((h, sigma), (h, knowledge_box((), (a,))), (knowledge_box((a,), (b,)),))
        closed = layered((h,), *prepared, (ignore(b),))
        if not denote(closed).is_stochastic():
            yield f"total closure not stochastic at {(n1, n2)}"
        pi = substoch.proposition(b.carrier, (b.carrier[0],))
        asked = layered(
            (h,), *prepared, (prop_gain(b),), (ignore(b), effect_box(pi, name="ask"))
        )
        m = denote(asked)
        if m.is_stochastic():
            yield f"proper question left stochastic at {(n1, n2)}"
        yield f"weight above one at {(n1, n2)}" if any(s > 1 for s in m.column_sums()) else None


_AXIOM_CHECKS = (
    ("sequential-knowledge-composition", _axiom_sequential, "size triples"),
    ("parallel-knowledge-composition", _axiom_parallel, "size tuples"),
    ("identity-embedding", _axiom_identity_embedding, "matrices"),
    ("true-proposition-is-trivial", _axiom_true_trivial, "sizes"),
    ("repeated-learning-is-copy", _axiom_repeat_learning, "sizes"),
    ("parallel-learning-merges", _axiom_fuses(prop_gain), "size pairs"),
    ("composite-ignore-splits", _axiom_fuses(ignore), "size pairs"),
    ("ignorability", _axiom_ignorability, "hom pairs"),
    ("knowledge-propagates-through-dynamics", _axiom_propagation, "hom pairs"),
    ("causal-identity-factorization", _axiom_causal_identity, "sizes"),
    ("closure-detects-stochasticity", _axiom_closure, "hom pairs"),
)

AXIOM_NAMES = tuple(name for name, _, _ in _AXIOM_CHECKS)


def verify_fs_axioms(max_carrier=3, seed=20260814):
    """Check each named rewrite axiom as an exact denotation equality.

    ``seed`` drives the random spot-check matrices of the embedding
    axiom; every other check enumerates exhaustively.  Each axiom stops
    at its first failure, whose detail it reports; one that holds
    everywhere reports its count of instances.
    """
    substoch._require_carrier_bound(
        max_carrier, "axiom verification is bounded at carrier size 4"
    )
    results = []
    for name, check, unit in _AXIOM_CHECKS:
        count = 0
        for failure in check(max_carrier, seed):
            if failure is not None:
                results.append((name, False, failure))
                break
            count += 1
        else:
            results.append((name, True, f"{count} {unit}"))
    return AxiomReport(max_carrier, tuple(results))


# ---------------------------------------------------------------------------
# Realist representations of operational diagrams


@dataclass
class RealistRep:
    """Ontic carriers per system plus dynamics distributions per signature.

    ``ontic`` maps operational causal systems to carriers; classical
    systems must keep their own carrier so learning stays meaningful.
    ``xi`` maps a procedure-box signature (tuple of causal input systems,
    tuple of causal output systems) to a stochastic matrix from the
    declared procedure alphabet to hom codes between the folded ontic
    carriers.
    """

    ontic: dict
    xi: dict

    def __post_init__(self):
        for system, carrier in list(self.ontic.items()):
            carrier = tuple(carrier)
            self.ontic[system] = carrier
            if system.kind != CAUSAL:
                raise TypeMismatch("ontic carriers attach to causal systems")
            if system.classical and carrier != system.carrier:
                raise CarrierMismatch(
                    "a classical system keeps its own carrier as ontic carrier"
                )
        for (ins, outs), m in self.xi.items():
            h = hom_system(tuple(map(self.image, ins)), tuple(map(self.image, outs)))
            if m.cod != h.carrier:
                raise CarrierMismatch(
                    "xi must land in the hom codes of the ontic carriers"
                )
            if not m.is_stochastic():
                raise ValidationError("xi columns must be probability distributions")

    def image(self, system):
        """The realist system standing in for an operational one."""
        if system.kind != CAUSAL:
            return system
        if system in self.ontic:
            return causal_system(self.ontic[system])
        if system.classical:
            return system
        raise MissingXi(f"no ontic carrier declared for system {system!r}")


def apply_representation(rep, d_op):
    """Box-for-box realist image of an operational diagram.

    Procedure boxes become an xi adapter feeding an application box;
    learning and embedded boxes pass through; ignores move to the ontic
    carrier.  Knowledge about procedures entering at the boundary keeps
    its alphabet type, with the adapter inside the image.  A fixed
    procedure is point knowledge of its name, so its image is the same
    adapter and application box fed by that point state.  The images are
    joined by ``diagrams.substitute``, so composites map to composites.
    """
    from . import optheory

    def image(box):
        p = box.payload
        if isinstance(p, (GenPropGain, GenEmbedded)):
            return box
        if isinstance(p, GenIgnore):
            return ignore(rep.image(p.system))
        if not isinstance(p, (optheory.OpKnowledge, optheory.OpProc)):
            raise TypeMismatch(
                f"box {box.name!r} is not a representable operational generator"
            )
        fixed = isinstance(p, optheory.OpProc)
        causal_ins = box.ins if fixed else box.ins[1:]
        m = rep.xi.get((causal_ins, box.outs))
        if m is None:
            sig = " -> ".join(
                "[" + ", ".join(f"{t.kind} {t.carrier}" for t in ts) + "]"
                for ts in (causal_ins, box.outs)
            )
            raise MissingXi(f"no xi entry for the signature {sig} of box {box.name!r}")
        if fixed and p.name not in m.dom:
            raise CarrierMismatch(f"xi domain does not list procedure {p.name!r}")
        if not fixed and m.dom != box.ins[0].carrier:
            raise CarrierMismatch("xi domain must equal the procedure alphabet")
        ins_img = tuple(map(rep.image, causal_ins))
        outs_img = tuple(map(rep.image, box.outs))
        known = inferential_system(m.dom) if fixed else box.ins[0]
        xi = embedded(
            m, in_types=(known,), out_types=(hom_system(ins_img, outs_img),), name="xi"
        )
        kb = knowledge_box(ins_img, outs_img)
        if fixed:
            point = state_box(substoch.point_state(m.dom, p.name), name=f"[{p.name}]")
            return layered(ins_img, (point, *ins_img), (xi, *ins_img), (kb,))
        return layered((known, *ins_img), (xi, *ins_img), (kb,))

    return substitute(d_op, image, rep.image)


def is_leibnizian(rep, pairs, pm=None):
    """Whether the representation preserves the witnessed equivalences.

    Each pair must be operationally equivalent already.  With a
    prediction map ``pm`` the witnesses are vetted first: a pair whose
    predictions do not agree under ``optheory.agree`` raises
    PairNotEquivalent.  Returns False as soon as some pair's realist
    images differ.
    """
    from . import optheory

    for a, b in pairs:
        if pm is not None:
            pa, pb = optheory.predict_closed(a, pm), optheory.predict_closed(b, pm)
            if pa.dom != pb.dom or pa.cod != pb.cod:
                raise PairNotEquivalent("witness pair has mismatched signatures")
            gap, within = optheory.agree(pa, pb, pm.backend)
            if not within:
                raise PairNotEquivalent(
                    f"witness pair differs operationally by {float(gap):.3g}"
                )
        if not inferentially_equivalent(
            apply_representation(rep, a), apply_representation(rep, b)
        ):
            return False
    return True
