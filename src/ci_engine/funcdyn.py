"""Finite carriers and total functions: the classical causal theory.

Systems are finite ordered carriers, processes are total functions, and
parallel composition is the Cartesian product.  The trivial system is the
one-element carrier ``STAR``.  Hom-sets are enumerated positionally so
that states of knowledge about dynamics serialize deterministically.
"""

from dataclasses import dataclass

from .caps import over_cap
from .diagrams import STAR, product_carrier
from .errors import CapExceeded, TypeMismatch


@dataclass(frozen=True)
class Fn:
    """A total function given by its table of images over the domain order."""

    dom: tuple
    cod: tuple
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "dom", tuple(self.dom))
        object.__setattr__(self, "cod", tuple(self.cod))
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != len(self.dom):
            raise TypeMismatch("table length must match the domain carrier")
        cod_set = set(self.cod)
        for image in self.table:
            if image not in cod_set:
                raise TypeMismatch(f"image {image!r} is not in the codomain")

    def __call__(self, x):
        return self.table[label_index(self.dom, x)]


def label_index(carrier, x, where="domain"):
    """The index of ``x`` in ``carrier``; TypeMismatch naming ``x`` when it
    is not there."""
    try:
        return carrier.index(x)
    except ValueError:
        raise TypeMismatch(f"{x!r} is not in the {where}") from None


def identity_fn(carrier):
    carrier = tuple(carrier)
    return Fn(carrier, carrier, carrier)


def compose(g, f):
    """g after f."""
    if f.cod != g.dom:
        raise TypeMismatch("compose needs cod(f) = dom(g)")
    return Fn(f.dom, g.cod, tuple(g(f(x)) for x in f.dom))


def product(f, g):
    """(f x g)((a, b)) = (f(a), g(b)) over row-major product carriers."""
    dom = product_carrier(f.dom, g.dom)
    cod = product_carrier(f.cod, g.cod)
    return Fn(dom, cod, tuple((f(a), g(b)) for a, b in dom))


def copy_fn(carrier):
    carrier = tuple(carrier)
    return Fn(carrier, product_carrier(carrier, carrier), tuple((x, x) for x in carrier))


def point_fn(carrier, x):
    carrier = tuple(carrier)
    if x not in carrier:
        raise TypeMismatch(f"{x!r} is not in the carrier")
    return Fn(STAR, carrier, (x,))


def homset_size(dom, cod):
    size = len(cod) ** len(dom)
    if over_cap(size):
        raise CapExceeded(f"hom-set of size {size} exceeds the cap")
    return size


def hom_index(f):
    """Positional base-|cod| code of the image table.

    The first domain element is the most significant digit, so on bits
    the flip map (0->1, 1->0) reads as digits (1, 0) = index 2.
    """
    homset_size(f.dom, f.cod)
    index = 0
    for image in f.table:
        index = index * len(f.cod) + f.cod.index(image)
    return index


def hom_unindex(index, dom, cod):
    dom = tuple(dom)
    cod = tuple(cod)
    size = homset_size(dom, cod)
    if not (0 <= index < size):
        raise TypeMismatch(f"hom index {index} out of range for {size} functions")
    digits = []
    for _ in range(len(dom)):
        index, digit = divmod(index, len(cod))
        digits.append(cod[digit])
    digits.reverse()
    return Fn(dom, cod, tuple(digits))


def all_functions(dom, cod):
    """All total functions dom -> cod, in hom-index order."""
    dom = tuple(dom)
    cod = tuple(cod)
    return tuple(hom_unindex(i, dom, cod) for i in range(homset_size(dom, cod)))


def hom_carrier(dom, cod):
    """The hom-set as an inferential carrier of integer codes."""
    return tuple(range(homset_size(dom, cod)))


def universal_control(dom, cod):
    """The evaluation function (f, x) -> f(x) over Hom(dom, cod) x dom.

    Hom elements enter through their positional codes, so the single map
    returned here simulates every function dom -> cod under control.
    """
    dom = tuple(dom)
    cod = tuple(cod)
    codes = hom_carrier(dom, cod)
    uc_dom = product_carrier(codes, dom)
    table = tuple(hom_unindex(code, dom, cod)(x) for code, x in uc_dom)
    return Fn(uc_dom, cod, table)
