"""Exact Laurent arithmetic in half-integer powers of the Tate class L.

A :class:`HalfLaurent` is a finite sum  sum_k  c_k * L^(k/2)  with integer
exponent keys ``k`` (so the key ``k`` means the exponent ``k/2``) and
arbitrary-precision integer coefficients.  The representation is canonical:
no stored coefficient is zero.  Multiplication adds exponents, which is the
convolution-product law for powers of L; the square root of L is an honest
ring element here, with  L^(1/2) * L^(1/2) = L.

Values are immutable; all operators return fresh instances.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from functools import lru_cache

from .errors import UnsupportedShape


class HalfLaurent:
    """Half-integer Laurent polynomial in L with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for k, c in items:
            if type(k) is not int or type(c) is not int:
                raise TypeError("HalfLaurent wants integer exponent keys and coefficients")
            if c:
                acc[k] = acc.get(k, 0) + c
                if not acc[k]:
                    del acc[k]
        self._coeffs = acc

    @classmethod
    def _wrap(cls, coeffs: dict[int, int]) -> "HalfLaurent":
        """A value over a fresh dict that is already canonical: integer keys
        and coefficients, no zero.  For library code that built the dict
        itself; outside input goes through the checking constructor."""
        h = object.__new__(cls)
        h._coeffs = coeffs
        return h

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def const(cls, n: int) -> "HalfLaurent":
        return cls({0: n})

    @classmethod
    def power(cls, k2: int, coeff: int = 1) -> "HalfLaurent":
        """coeff * L^(k2/2)."""
        return cls({k2: coeff})

    @classmethod
    def L(cls) -> "HalfLaurent":
        return cls({2: 1})

    @classmethod
    def half(cls) -> "HalfLaurent":
        """L^(1/2)."""
        return cls({1: 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(doubled exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == {0: 1}

    def is_integral(self) -> bool:
        """True when only integer powers of L occur."""
        return all(k % 2 == 0 for k in self._coeffs)

    def coefficient(self, k2: int) -> int:
        return self._coeffs.get(k2, 0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        acc = dict(self._coeffs)
        for k, c in other._coeffs.items():
            acc[k] = acc.get(k, 0) + c
        return HalfLaurent(acc)

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent | int") -> "HalfLaurent":
        if isinstance(other, int):
            return HalfLaurent({k: c * other for k, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return HalfLaurent(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HalfLaurent":
        if n < 0:
            raise ValueError("only nonnegative powers of general elements")
        out = HalfLaurent.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HalfLaurent) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, e.g. ``1 - L^(1/2)``, ``2*L^-1``, ``L^(3/2)``."""
        return coeff_text(self._coeffs)

    def __repr__(self) -> str:
        return f"HalfLaurent({repr_text(self, len(self._coeffs))})"


def coeff_text(coeffs: dict[int, int]) -> str:
    """:meth:`HalfLaurent.text` of the ``{k2: c}`` dict with no zero value:
    ``0`` when it is empty.

    One walk over the sorted keys writes every term with its sign; the
    first term's sign then becomes a bare ``-`` or nothing.  An integer too
    long for Python to write in decimal (``sys.get_int_max_str_digits()``)
    is refused as :class:`UnsupportedShape`.
    """
    if not coeffs:
        return "0"
    parts: list[str] = []
    try:
        for k in sorted(coeffs):
            c, sign = coeffs[k], " + "
            if c < 0:
                c, sign = -c, " - "
            if k == 0:
                parts.append(f"{sign}{c}")
            elif c == 1:
                parts.append(sign + _monomial_text(k))
            else:
                parts.append(f"{sign}{c}*{_monomial_text(k)}")
    except ValueError:  # int-to-str conversion past the digit limit
        raise digits_refusal() from None
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def digits_refusal() -> UnsupportedShape:
    """The refusal of an integer too long for Python to write in decimal
    (``sys.get_int_max_str_digits()``)."""
    return UnsupportedShape("a coefficient or exponent has more than "
                            f"{sys.get_int_max_str_digits()} digits to write")


def repr_text(value, count: int) -> str:
    """``value.text()``, or its term count when it holds an integer too long
    to write in decimal: the body of a repr that cannot raise."""
    try:
        return value.text()
    except UnsupportedShape:
        return (f"{count} terms, an integer past the "
                f"{sys.get_int_max_str_digits()}-digit limit")


@lru_cache(maxsize=256)  # a rendering uses few distinct exponents
def _monomial_text(k2: int) -> str:
    if k2 == 2:
        return "L"
    if k2 % 2 == 0:
        return f"L^{k2 // 2}"
    return f"L^({k2}/2)"
