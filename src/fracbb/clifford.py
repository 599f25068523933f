"""Arithmetic in the universal complex Clifford algebra with ``e_j**2 = +1``.

The algebra on ``n`` generators is spanned by products ``e_a = e_{j_1}...e_{j_k}``
over increasing subsets ``a`` of ``{1, ..., n}``.  A subset is encoded as a
bitmask whose bit ``j-1`` marks the generator ``e_j``; the empty subset (mask 0)
is the scalar unit.  The generators obey

    e_j e_k + e_k e_j = 2*delta_jk,

so equal generators contract to ``+1`` and distinct generators anticommute.
Under this convention every nonzero real vector ``v`` squares to ``|v|**2`` and
is invertible, which is what makes the Dirac-type operator symbols invertible
frequency by frequency.

Conjugation reverses basis products and conjugates complex coefficients; it is
an anti-homomorphism (``conj(x*y) == conj(y)*conj(x)``) and pairs with the
scalar projection ``p0`` to produce the coefficient norm:
``p0(conj(x)*x) == sum(|x_a|**2)``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, _count

#: Runtime cap on the generator count (2**8 components).
MAX_GENERATORS = 8

# Products of elements denser than this (pair count) go through the table path.
_DENSE_PAIR_THRESHOLD = 128


def _reordering_sign(a: int, b: int) -> int:
    """Sign of ``e_a * e_b`` from counting generator transpositions.

    Equal generators contract with a ``+1`` factor, so the sign is entirely
    determined by the number of swaps needed to interleave the two sorted
    blades.
    """
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


@lru_cache(maxsize=None)
def _blade_product(a: int, b: int) -> tuple[int, int]:
    """(sign, blade) of the product of two basis blades given as bitmasks."""
    return _reordering_sign(a, b), a ^ b


@lru_cache(maxsize=MAX_GENERATORS)
def _blade_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (sign, target-blade) tables for all basis-blade pairs; shared, so read-only."""
    dim = 1 << n
    sign = np.array([[_reordering_sign(a, b) for b in range(dim)] for a in range(dim)], np.int8)
    masks = np.arange(dim, dtype=np.intp)
    target = (masks[:, None] ^ masks[None, :]).ravel()
    sign.flags.writeable = target.flags.writeable = False
    return sign, target


def mask_to_subset(mask: int) -> tuple[int, ...]:
    """Decode a blade bitmask into the increasing generator subset."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def blade_label(mask: int) -> str:
    """``"1"`` for the scalar blade, else ``"e"`` and its generator indices (``"e13"``)."""
    subset = mask_to_subset(mask)
    return "1" if not subset else "e" + "".join(str(j) for j in subset)


def subset_to_mask(subset: Iterable[int], n: int) -> int:
    """Encode an increasing generator subset as a bitmask, validating order."""
    mask = 0
    previous = 0
    for j in subset:
        if not isinstance(j, (int, np.integer)) or j < 1 or j > n:
            raise InputError(f"generator index {j!r} outside 1..{n}")
        if j <= previous:
            raise InputError(f"subset {tuple(subset)} is not strictly increasing")
        mask |= 1 << (j - 1)
        previous = j
    return mask


def _scaled_norm(values) -> float:
    """``sqrt(sum(|v|**2))`` over ``values`` divided by their largest part, scaled back."""
    top = max(max(abs(v.real), abs(v.imag)) for v in values)
    return top * math.sqrt(sum(abs(v / top) ** 2 for v in values))


class CliffordElement:
    """Element of the complex Clifford algebra on ``n`` generators.

    Components are held sparsely: blades absent from ``comps`` are exactly
    zero.  Instances are treated as immutable values; no method mutates its
    operands.  The constructor checks its input; :meth:`_of_each` takes
    dicts as they are, for callers that hold valid masks to nonzero Python
    ``complex``.
    """

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: Mapping[int, complex] | None = None):
        n = _count(n, "generator count", 1, MAX_GENERATORS)
        cleaned: dict[int, complex] = {}
        if comps:
            top = 1 << n
            for mask, value in comps.items():
                mask = int(mask)
                if not 0 <= mask < top:
                    raise InputError(f"blade mask {mask} out of range for n={n}")
                z = complex(value)
                if z != 0:
                    cleaned[mask] = z
        self.n = n
        self.comps = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_each(cls, n: int, comps: list[dict[int, complex]]) -> list["CliffordElement"]:
        """One element owning each dict of ``comps``, which must already be clean; unchecked.

        One ``map`` of ``__new__`` and a plain loop over the slots: no call per element.
        """
        elements = list(map(cls.__new__, itertools.repeat(cls, len(comps))))
        for element, clean in zip(elements, comps):
            element.n, element.comps = n, clean
        return elements

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n, None)

    @classmethod
    def scalar(cls, n: int, value: complex) -> "CliffordElement":
        return cls(n, {0: value})

    # -- component access --------------------------------------------------

    def component(self, subset: Iterable[int]) -> complex:
        """Coefficient of the blade given by an increasing generator subset."""
        return self.comps.get(subset_to_mask(tuple(subset), self.n), 0j)

    def p0(self) -> complex:
        """Projection onto the scalar (unit) component."""
        return self.comps.get(0, 0j)

    def norm(self) -> float:
        """Coefficient norm ``sqrt(sum(|x_a|**2))`` of the squares ``abs(v) ** 2``.

        One or two squares add directly from ``0.0``, which is ``sum``'s result
        on every Python version (its compensation from 3.12 changes only three
        or more addends).  When a square overflows (a part above about 1e154),
        the sum is taken over the components divided by the largest part and
        scaled back.
        """
        values = self.comps.values()
        try:
            if len(values) == 1:
                (v,) = values
                return math.sqrt(abs(v) ** 2)
            if len(values) == 2:
                u, v = values
                return math.sqrt(abs(u) ** 2 + abs(v) ** 2)
            return math.sqrt(sum(abs(v) ** 2 for v in values))
        except OverflowError:
            return _scaled_norm(values)

    def is_zero(self, tol: float = 0.0) -> bool:
        """Whether the norm is at most ``tol``; at 0, each component is tested exactly."""
        if tol == 0:
            return not any(self.comps.values())
        return self.norm() <= tol

    # -- algebra -----------------------------------------------------------

    def _require_same_n(self, other: "CliffordElement") -> None:
        if self.n != other.n:
            raise InputError(
                f"generator-count mismatch: {self.n} vs {other.n}"
            )

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._require_same_n(other)
        comps = dict(self.comps)
        for mask, value in other.comps.items():
            comps[mask] = comps.get(mask, 0j) + value
        return CliffordElement(self.n, comps)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        self._require_same_n(other)
        comps = dict(self.comps)
        for mask, value in other.comps.items():
            comps[mask] = comps.get(mask, 0j) - value
        return CliffordElement(self.n, comps)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.n, {m: -v for m, v in self.comps.items()})

    def scale(self, factor: complex) -> "CliffordElement":
        factor = complex(factor)
        if factor == 0:
            return CliffordElement.zero(self.n)
        return CliffordElement(self.n, {m: factor * v for m, v in self.comps.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # Scalars commute with everything; Clifford*Clifford never lands here.
        return self.scale(other)

    def conjugate(self) -> "CliffordElement":
        """Blade reversal combined with complex conjugation of coefficients.

        On a grade-k blade the reversal contributes ``(-1)**(k*(k-1)//2)``.
        """
        comps: dict[int, complex] = {}
        for mask, value in self.comps.items():
            k = mask.bit_count()
            sign = -1 if (k * (k - 1) // 2) & 1 else 1
            comps[mask] = sign * value.conjugate()
        return CliffordElement(self.n, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n == other.n and self.comps == other.comps

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.comps.items()))))

    def __repr__(self) -> str:
        if not self.comps:
            return f"CliffordElement({self.n}, 0)"
        parts = [f"{self.comps[mask]:g}*{blade_label(mask)}" for mask in sorted(self.comps)]
        return f"CliffordElement({self.n}, {' + '.join(parts)})"


def multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Clifford product ``x*y`` (bilinear, associative, order-sensitive)."""
    x._require_same_n(y)
    if not x.comps or not y.comps:
        return CliffordElement.zero(x.n)
    if len(x.comps) * len(y.comps) >= _DENSE_PAIR_THRESHOLD:
        return _dense_multiply(x, y)
    comps: dict[int, complex] = {}
    for a, va in x.comps.items():
        for b, vb in y.comps.items():
            sign, blade = _blade_product(a, b)
            comps[blade] = comps.get(blade, 0j) + sign * va * vb
    return CliffordElement(x.n, comps)


def _dense_multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    dim = 1 << x.n
    sign, target = _blade_tables(x.n)
    a = np.zeros(dim, dtype=complex)
    b = np.zeros(dim, dtype=complex)
    for mask, value in x.comps.items():
        a[mask] = value
    for mask, value in y.comps.items():
        b[mask] = value
    prod = (a[:, None] * b[None, :]) * sign
    flat_re = np.bincount(target, weights=prod.real.ravel(), minlength=dim)
    flat_im = np.bincount(target, weights=prod.imag.ravel(), minlength=dim)
    nonzero = np.nonzero(flat_re + 1j * flat_im)[0].tolist()
    product = CliffordElement.__new__(CliffordElement)
    product.n, product.comps = x.n, {k: complex(flat_re[k], flat_im[k]) for k in nonzero}
    return product

