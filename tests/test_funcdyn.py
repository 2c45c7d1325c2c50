"""Finite function dynamics: hom indexing, composition, control."""

import itertools

import pytest

from ci_engine import funcdyn
from ci_engine.errors import TypeMismatch
from ci_engine.funcdyn import (
    Fn,
    all_functions,
    compose,
    copy_fn,
    hom_carrier,
    hom_index,
    hom_unindex,
    homset_size,
    identity_fn,
    point_fn,
    product,
)

from oracles import all_functions_raw

CARRIERS = [tuple(range(n)) for n in range(1, 4)] + [("*",)]


def test_homset_size_counts_functions():
    for dom in CARRIERS:
        for cod in CARRIERS:
            assert homset_size(dom, cod) == len(cod) ** len(dom)
            assert len(list(all_functions(dom, cod))) == homset_size(dom, cod)


def test_hom_index_is_a_bijection():
    for dom in CARRIERS:
        for cod in CARRIERS:
            seen = set()
            for f in all_functions(dom, cod):
                i = hom_index(f)
                assert 0 <= i < homset_size(dom, cod)
                assert hom_unindex(i, dom, cod) == f
                seen.add(i)
            assert len(seen) == homset_size(dom, cod)


def test_hom_index_matches_big_endian_convention():
    bit = (0, 1)
    assert hom_index(identity_fn(bit)) == 1
    flip = Fn(bit, bit, (1, 0))
    assert hom_index(flip) == 2
    assert hom_index(Fn(bit, bit, (0, 0))) == 0
    assert hom_index(Fn(bit, bit, (1, 1))) == 3


def test_all_functions_agrees_with_raw_enumeration():
    for dom in CARRIERS[:3]:
        for cod in CARRIERS[:3]:
            engine = {tuple(f(x) for x in dom) for f in all_functions(dom, cod)}
            raw = {
                tuple(d[x] for x in dom) for d in all_functions_raw(dom, cod)
            }
            assert engine == raw


def test_compose_pointwise():
    a, b, c = (0, 1), (0, 1, 2), (0, 1)
    for f in all_functions(a, b):
        for g in all_functions(b, c):
            h = compose(g, f)
            for x in a:
                assert h(x) == g(f(x))


def test_compose_rejects_mismatched_carriers():
    f = identity_fn((0, 1))
    g = identity_fn((0, 1, 2))
    with pytest.raises(TypeMismatch):
        compose(g, f)


def test_point_fn_starts_from_the_unit():
    f = point_fn((0, 1, 2), 2)
    assert f.dom == ("*",)
    assert f("*") == 2


def test_product_acts_componentwise():
    f = Fn((0, 1), (0, 1), (1, 0))
    g = Fn((0, 1, 2), (0, 1, 2), (2, 2, 2))
    p = product(f, g)
    for x, y in itertools.product((0, 1), (0, 1, 2)):
        assert p((x, y)) == (f(x), g(y))


def test_copy_and_discard():
    c = copy_fn((0, 1, 2))
    for x in (0, 1, 2):
        assert c(x) == (x, x)


def test_hom_carrier_enumerates_codes_in_index_order():
    dom, cod = (0, 1), (0, 1)
    carrier = hom_carrier(dom, cod)
    assert carrier == tuple(range(homset_size(dom, cod)))


def test_universal_control_applies_coded_function():
    dom, cod = (0, 1), (0, 1)
    u = funcdyn.universal_control(dom, cod)
    for f in all_functions(dom, cod):
        for x in dom:
            assert u((hom_index(f), x)) == f(x)
