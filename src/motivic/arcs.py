"""Brute-force arc-space classes for monomial functions.

This is the independent cross-check for the resolution-based zeta pipeline:
for a monomial function the truncated-arc loci can be parametrized directly,
with no reference to resolution data.

Scope: one affine variable with exponent ``a``, plus any number of unit
variables (coordinates constrained to the torus).  Writing an arc modulo
``t^(n+1)`` and asking the function to have order exactly ``n`` forces
``a | n``; with ``n = a m`` the affine coordinate is ``c t^m + ...`` with
``c != 0``, the unit coordinates keep free constant terms, and the leading
coefficient of the composed series is ``c^a`` times a unit monomial.  The
locus where that leading coefficient is 1 is a cyclic cover of order ``a``
of the torus base, away from an affine factor of free higher coefficients:

    [arc locus] = [order-a cover] . L^((n - m) + n l),      l = #units,

with the residual cyclic action of order ``a`` acting on the cover.  For
``a = 2`` the cover is the Z2-bundle of square roots of the unit monomial,
expressed through the declared square-root generators; for ``a >= 3`` with
trivial unit twisting it is the standard order-``a`` cover symbol.

The cover class does not depend on ``n``: ``zeta_truncated`` builds it once,
at the first order divisible by ``a``, and shares the exponent rule
``(n - n/a) + n l`` with ``arc_class``, so every coefficient is the one
``arc_class`` gives and every refusal happens at the same order.
"""

from __future__ import annotations

from .errors import UnsupportedShape
from .halflaurent import HalfLaurent
from .motive import Motive, _z2_cover, symbol_motive
from .registry import FrozenRecord, Registry, _set


class MonomialFunction(FrozenRecord):
    """x_0^a0 ... x_{k-1}^a{k-1} with the ``unit_vars`` indices on the torus."""

    def __init__(self, exponents: tuple[int, ...],
                 unit_vars: frozenset[int] = frozenset()):
        if not exponents or any(a < 1 for a in exponents):
            raise UnsupportedShape("exponents must be a nonempty positive list")
        if any(i < 0 or i >= len(exponents) for i in unit_vars):
            raise UnsupportedShape("unit-variable index out of range")
        _set(self, "exponents", exponents)
        _set(self, "unit_vars", unit_vars)

    @property
    def affine_vars(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.exponents))
                     if i not in self.unit_vars)

    @property
    def dim(self) -> int:
        return len(self.exponents)


class ArcContext(FrozenRecord):
    """Naming conventions tying oracle output to a fixture's vocabulary.

    ``unit_generators`` lists, per unit variable in index order, the declared
    square-root generator of that coordinate on ``base_space``;
    ``cover_symbols`` names the registered order-a cover symbols used for
    a >= 3 (a new empty dict when left out).
    """

    def __init__(self, registry: Registry, base_space: str,
                 unit_generators: tuple[str, ...] = (),
                 cover_symbols: dict[int, str] | None = None):
        _set(self, "registry", registry)
        _set(self, "base_space", base_space)
        _set(self, "unit_generators", unit_generators)
        _set(self, "cover_symbols", {} if cover_symbols is None else cover_symbols)


def _single_affine_exponent(f: MonomialFunction) -> int:
    affine = f.affine_vars
    if len(affine) != 1:
        raise UnsupportedShape(
            "arc oracle handles exactly one affine variable, got "
            f"{len(affine)}")
    return f.exponents[affine[0]]


def cover_class(f: MonomialFunction, ctx: ArcContext) -> Motive:
    """Class of the order-a cover of the torus base, with its cyclic action."""
    reg = ctx.registry
    a = _single_affine_exponent(f)
    unit_exps = [f.exponents[i] for i in sorted(f.unit_vars)]
    if a == 1:
        return Motive.one(reg, ctx.base_space)
    if a == 2:
        if len(ctx.unit_generators) != len(unit_exps):
            raise UnsupportedShape(
                "context must name one square-root generator per unit variable")
        bits = reg.bits_of(ctx.base_space, [
            gen for b, gen in zip(unit_exps, ctx.unit_generators) if b % 2])
        # square roots of the leading unit monomial
        return _z2_cover(reg, ctx.base_space, bits)
    if any(b % a for b in unit_exps):
        raise UnsupportedShape(
            f"order-{a} cover with nontrivial unit twisting is outside the "
            "oracle fragment")
    name = ctx.cover_symbols.get(a, f"mu{a}")
    return symbol_motive(reg, name)


def _free_exponent(f: MonomialFunction, a: int, n: int) -> int:
    """L-exponent of the free higher coefficients on the order-n arc locus
    (``a | n``): ``n - n/a`` in the affine coordinate, ``n`` per unit."""
    return n - n // a + n * len(f.unit_vars)


def arc_class(f: MonomialFunction, n: int, ctx: ArcContext) -> Motive:
    """Class of the order-n arc locus with leading coefficient 1."""
    if n < 1:
        raise UnsupportedShape("arc order must be positive")
    reg = ctx.registry
    a = _single_affine_exponent(f)
    if n % a:
        return Motive.zero(reg, ctx.base_space)
    free = _free_exponent(f, a, n)
    return cover_class(f, ctx).scale(HalfLaurent.power(2 * free))


def zeta_truncated(f: MonomialFunction, k: int, ctx: ArcContext) -> list[Motive]:
    """Coefficients of T^0 .. T^k of the zeta series, straight from arcs.

    Coefficient n is ``arc_class(f, n) . L^(-n dim U)``; the T^0 entry is
    zero because the series starts at n = 1.  The cover class is built at
    the first n with ``a | n``, as ``arc_class`` would build it there, and
    scaled by one power ``L^(free - n dim U)`` per order: a single-term
    power shifts every exponent alike, so one step gives what two give.
    """
    reg = ctx.registry
    out = [Motive.zero(reg, ctx.base_space)]
    if k < 1:
        return out
    a = _single_affine_exponent(f)  # raises where arc_class(f, 1) would
    cover = None
    for n in range(1, k + 1):
        if n % a:
            out.append(Motive.zero(reg, ctx.base_space))
            continue
        if cover is None:
            cover = cover_class(f, ctx)
        out.append(cover.scale(HalfLaurent.power(
            2 * (_free_exponent(f, a, n) - n * f.dim))))
    return out
