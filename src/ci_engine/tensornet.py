"""Generic tensor contraction for diagram evaluation.

Each wire of a diagram becomes a tensor index, labelled by the wire's
position in the diagram's wire list, and each box becomes a tensor
whose axes follow the box's ports, outputs first then inputs.
Contracting the network yields a single tensor with one axis per open
boundary port, outputs first then inputs, each side in boundary order.

Exact numbers are ints and Fractions, never bools (``is_exact_number``),
and ``integers`` reads a sequence of numbers as Python ints over their
least common denominator; the rest of the engine decides and reads
numbers through these two.

Exact tensors are ``Scaled`` pairs: integer numerators over one positive
Python-int denominator.  Each pairwise step multiplies numerators with
int64 matmul and denominators as Python ints, then divides out common
factors; when max|a| * max|b| * (shared axis size) reaches 2^62 the step
runs on object-dtype Python ints instead, so no value ever wraps.  Float
and complex arrays (the quantum backend) contract with ``np.tensordot``.
Wires that run straight from a boundary input to a boundary output are
materialized as identity tensors so that the result always has the full
set of boundary axes.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .caps import over_cap
from .errors import CapExceeded, DimensionMismatch

_INT64_SAFE = 1 << 62
# the one tolerance of rounded numbers: 10^-9, exact, and its double for floats
_TOL = Fraction(1, 10**9)
_FLOAT_TOL = float(_TOL)
_MAX_AXES = 64  # numpy's limit on the axes of one ndarray, from numpy 2.0
_EXACT_TYPES = (int, Fraction)


def is_exact_number(v):
    """An int or a Fraction, never a bool: a number the engine reads as it is."""
    # bool has no subclasses, so a type test is an isinstance test
    return isinstance(v, _EXACT_TYPES) and type(v) is not bool


def integers(values):
    """The numbers as Python ints over one positive denominator, the least
    common one: ``(ints, den)`` with ``values[i] == ints[i] / den``.  Exact
    numbers are read as they are; anything else goes through ``Fraction(v)``."""
    # a plain int or Fraction is exact without the subclass and bool tests
    values = [
        v if type(v) in _EXACT_TYPES or is_exact_number(v) else Fraction(v) for v in values
    ]
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _maxabs(num):
    """The largest absolute entry of an int64 or object ndarray, as a Python
    int (read off its min and max: np.abs of -2^63 wraps)."""
    return max(int(num.max(initial=0)), -int(num.min(initial=0)))


def times(num, k):
    """``num * k`` for a Python int ``k``, in Python ints where int64 could wrap."""
    if num.dtype != object and max(_maxabs(num), 1) * k >= _INT64_SAFE:
        num = num.astype(object)
    return num * k


class Scaled(NamedTuple):
    """An exact tensor: integer numerators ``num`` over the denominator ``den``."""

    num: np.ndarray
    den: int = 1

    @property
    def shape(self):
        return self.num.shape

    @property
    def size(self):
        return self.num.size

    def transpose(self, axes):
        return Scaled(self.num.transpose(axes), self.den)

    def reshape(self, *shape):
        return Scaled(self.num.reshape(*shape), self.den)

    def reduced(self):
        """Lowest terms, stored as int64 whenever every numerator allows."""
        num, den = self.num, self.den
        if den != 1:
            g = math.gcd(int(np.gcd.reduce(num, axis=None)) if num.size else 0, den)
            if g != 1:
                num, den = np.asarray(num // g, dtype=num.dtype), den // g
        if num.dtype == object and _maxabs(num) < _INT64_SAFE:
            num = num.astype(np.int64)
        return Scaled(num, den)


def scaled(fractions, shape):
    """A Scaled tensor of ``shape``, in lowest terms, from a flat sequence of Fractions."""
    nums, den = integers(fractions)
    dtype = np.int64 if max(map(abs, nums), default=0) < _INT64_SAFE else object
    return Scaled(np.array(nums, dtype=dtype).reshape(shape), den)


def scaled_eye(n):
    return Scaled(np.eye(n, dtype=np.int64))


def stack(tensors, axis):
    """Stack equally shaped Scaled tensors over their common denominator."""
    den = math.lcm(*(t.den for t in tensors))
    return Scaled(np.stack([times(t.num, den // t.den) for t in tensors], axis), den)


def tensordot(a, b, axes):
    """Overflow-checked tensordot of Scaled tensors; ``axes`` is 0 or two axis lists."""
    # transpose, reshape and one matmul: tensordot's arithmetic at a third of its call cost;
    # a and b are only read, so read-only (cached or immutable) tensors need no copy
    ia, ib = axes if axes else ((), ())
    fa = [k for k in range(a.num.ndim) if k not in ia]
    fb = [k for k in range(b.num.ndim) if k not in ib]
    cut = math.prod(a.shape[k] for k in ia)
    dtype = np.int64 if _maxabs(a.num) * _maxabs(b.num) * cut < _INT64_SAFE else object
    x = a.num.astype(dtype, copy=False).transpose(fa + list(ia))
    y = b.num.astype(dtype, copy=False).transpose(list(ib) + fb)
    out = x.shape[: len(fa)] + y.shape[len(ib) :]
    num = x.reshape(math.prod(out[: len(fa)]), cut) @ y.reshape(cut, math.prod(out[len(fa) :]))
    return Scaled(num.reshape(out), a.den * b.den).reduced()


def _check_axes(n, what):
    if n > _MAX_AXES:
        raise CapExceeded(f"{what} has {n} axes, above numpy's limit of {_MAX_AXES}")


def contract(diagram, box_tensor, wire_size, eye=None):
    """Contract ``diagram`` to one tensor.

    Each axis is labelled by its wire's position ``k`` in
    ``diagram.wires``, and both ends of a wire carry that label, so an
    axis shared by two nodes is a wire between them; a wire from a
    boundary input straight to a boundary output is an identity node
    whose input end is labelled ``-1 - k``.  ``box_tensor(box)`` must
    return a Scaled tensor or an ndarray with axes ordered as the box's
    output ports followed by its input ports; ``wire_size(t)`` gives the
    axis length for a wire of type ``t``.  ``eye(n)`` builds the
    pass-through identity: Scaled by default, an ndarray factory such as
    ``np.eye`` for float or complex networks.  No pairwise step may
    produce more than ``enumeration_cap()`` cells, and no box or step
    more than 64 axes, numpy's limit: either raises CapExceeded.
    """
    if eye is None:
        eye = scaled_eye
    # producer ends (boundary inputs, box outputs) and consumer ends
    # (boundary outputs, box inputs) to their wire's label
    src_label = {}
    dst_label = {}
    nodes = []
    for k, (src, dst) in enumerate(diagram.wires):
        src_label[src] = dst_label[dst] = k
        if src[0] == "in" and dst[0] == "out":
            src_label[src] = -1 - k
            nodes.append([eye(wire_size(diagram.input_types[src[1]])), [k, -1 - k]])
    for b, box in enumerate(diagram.boxes):
        _check_axes(len(box.outs) + len(box.ins), f"box {box.name!r}")
        arr = box_tensor(box)
        if not isinstance(arr, Scaled):
            arr = np.asarray(arr)
        expected = tuple(wire_size(t) for t in box.outs + box.ins)
        if arr.shape != expected:
            raise DimensionMismatch(
                f"tensor for box {box.name!r} has shape {arr.shape}, "
                f"ports require {expected}"
            )
        labels = [src_label[("box", b, j)] for j in range(len(box.outs))]
        labels += [dst_label[("box", b, i)] for i in range(len(box.ins))]
        nodes.append([arr, labels])

    while len(nodes) > 1:
        best = None
        for i in range(len(nodes)):
            ai, li = nodes[i]
            for j in range(i + 1, len(nodes)):
                aj, lj = nodes[j]
                shared = set(li) & set(lj)
                cut = 1
                for k, lab in enumerate(li):
                    if lab in shared:
                        cut *= ai.shape[k]
                result_size = (ai.size // cut) * (aj.size // cut)
                score = (0 if shared else 1, result_size)
                if best is None or score < best[0]:
                    best = (score, i, j, shared, result_size)
        _, i, j, shared, result_size = best
        if over_cap(result_size):
            raise CapExceeded(
                f"intermediate tensor of size {result_size} exceeds the cap"
            )
        ai, li = nodes[i]
        aj, lj = nodes[j]
        labels = [s for s in li if s not in shared] + [s for s in lj if s not in shared]
        _check_axes(len(labels), "an intermediate tensor")
        # wire order; with no shared wire, an outer product
        common = sorted(shared)
        axes = ([li.index(s) for s in common], [lj.index(s) for s in common])
        if isinstance(ai, Scaled):
            merged = tensordot(ai, aj, axes)
        else:
            merged = np.tensordot(ai, aj, axes=axes)
        nodes[j] = nodes[-1]
        nodes.pop()
        nodes[i] = [merged, labels]

    if not nodes:
        arr, labels = eye(1).reshape(()), []
    else:
        arr, labels = nodes[0]
    want = [dst_label[("out", k)] for k in range(len(diagram.output_types))]
    want += [src_label[("in", k)] for k in range(len(diagram.input_types))]
    return arr.transpose([labels.index(lab) for lab in want])
