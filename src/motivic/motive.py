"""Exact arithmetic in the decidable fragment of the monodromic motive ring.

A :class:`Motive` over a registered space X is a finite sum of terms

    c * L^(k2/2) * [s1] . [s2] ... . Y(b)

with a nonzero integer ``c``, registered monodromy symbols ``[s_i]`` (a
multiset, kept as a sorted name tuple) and the group-ring unit ``Y(b)``
attached to an F2 bundle class ``b``.  The stored form is one flat dict

    {(monomial, bits, k2): c}

with no zero value.  It is the normal form for the convolution product:
exponents add, bundle classes add over F2 (so the Z2-bundle group law holds
by construction), and monomials take unions.  Order-2 symbols declared as
Z2-covers never appear: they are eagerly rewritten to
``1 - L^(1/2) . Y(p)`` at construction time.

:class:`HalfLaurent` is the coefficient type at the boundary.  The
constructor accepts ``((monomial, bits), coeff)`` terms, ``coeff`` a
``HalfLaurent`` or plain-``int`` ``(k2, c)`` pairs or dict, and checks
each term as it comes; ``terms()`` groups the flat dict back into that
shape, sorted.  Every operation works on the flat dicts and accumulates
plain integers.  Products group each operand by monomial once, so the
opacity check and the monomial merge run once per monomial pair.

A pullback is one pass over the flat form that transports each distinct
monomial once and reads each bundle class's image from the morphism's memo
table.  Pulling back Z2-bundles is F2-linear, so on a motive with no
monomial terms the pass only renames keys, ``(bits, k2)`` to ``(image,
k2)``, unless two classes share an image: when the renamed dict has as many
keys as the input, no two terms met, every coefficient is its own nonzero
sum and the relabelled dict is the result.  Otherwise (a monomial term, a
shared image, or a transport that raises) the accumulating walk runs.  A
twist by ``Y(P)`` after a pullback, as in
``Phi^*(MF) = MF . Y(P_Phi)``, is part of that pass: :func:`pullback` given
``P`` XORs P's bits into each transported bundle image, so no second pass
relabels the terms.  The morphism may be None, the identity:
``pullback(reg, None, m, p)`` is the product ``m . Y(P)`` made as the one
relabelling by a unit, ``(mon, bits ^ P, k2)``, with no unit built and no
product run.

The product of two terms that both carry opaque monodromy of order >= 2 is
outside the fragment and raises :class:`OdotUndecidable` instead of
guessing.  The plain fibre product ``mot_dot`` is exposed only where it
provably coincides with the convolution product (one operand with trivial
monodromy, integral coefficients and no bundle part); elsewhere it raises
:class:`DotUndefined`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .bundles import BundleClass
from .errors import (DotUndefined, MissingTransport, MotivicError,
                     NoUnderlyingClass, OdotUndecidable, RegistryError,
                     SpaceMismatch, UnregisteredProduct)
from .halflaurent import HalfLaurent, repr_text
from .registry import Morphism, Registry
from .render import motive_text

TermKey = tuple[tuple[str, ...], int]
Coeff = HalfLaurent | Mapping[int, int] | Iterable[tuple[int, int]]
# (monomial, bundle bits, doubled exponent of L) -> nonzero integer
Flat = dict[tuple[tuple[str, ...], int, int], int]


class Motive:
    """Element of the fragment ring over a fixed base space."""

    __slots__ = ("reg", "space", "_flat")

    def __init__(self, reg: Registry, space: str,
                 terms: Mapping[TermKey, Coeff] | Iterable[tuple[TermKey, Coeff]] = ()):
        reg.space(space)
        self.reg = reg
        self.space = space
        items = terms.items() if isinstance(terms, Mapping) else terms
        flat: Flat = {}
        for (mon, bits), coeff in items:
            mon = tuple(sorted(mon))
            self._check_term(reg, space, mon, bits)
            plain = not isinstance(coeff, HalfLaurent)
            for k2, c in (coeff.items() if isinstance(coeff, (HalfLaurent, Mapping)) else coeff):
                if plain and (type(k2) is not int or type(c) is not int):
                    raise TypeError("a coefficient wants integer exponent keys and coefficients")
                key = (mon, bits, k2)
                v = flat.get(key, 0) + c
                if v:
                    flat[key] = v
                else:
                    flat.pop(key, None)
        self._flat = flat

    @classmethod
    def _wrap(cls, reg: Registry, space: str, flat: Flat) -> "Motive":
        """A motive whose flat dict is already canonical over ``space``."""
        m = object.__new__(cls)
        m.reg, m.space, m._flat = reg, space, flat
        return m

    @staticmethod
    def _check_term(reg: Registry, space: str, mon: tuple[str, ...], bits: int) -> None:
        reg.check_bits(space, bits)
        for name in mon:
            sym = reg.symbol(name)
            if sym.cover_bits is not None:
                raise RegistryError(
                    f"cover symbol {name!r} must be rewritten, not stored")
            if not reg.symbol_allowed_on(sym, space):
                raise SpaceMismatch(
                    f"symbol {name!r} lives on {sym.space!r}, not on {space!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, reg: Registry, space: str) -> "Motive":
        return cls(reg, space)

    @classmethod
    def one(cls, reg: Registry, space: str) -> "Motive":
        reg.space(space)
        return cls._wrap(reg, space, {((), 0, 0): 1})

    @classmethod
    def coefficient(cls, reg: Registry, space: str, coeff: HalfLaurent) -> "Motive":
        return cls(reg, space, {((), 0): coeff})

    @classmethod
    def half_power(cls, reg: Registry, space: str, k2: int) -> "Motive":
        """L^(k2/2) as an element over ``space``."""
        return cls.coefficient(reg, space, HalfLaurent.power(k2))

    # -- inspection ----------------------------------------------------------

    def terms(self) -> list[tuple[TermKey, HalfLaurent]]:
        """``((monomial, bits), coefficient)`` pairs in sorted key order."""
        return [(key, HalfLaurent._wrap(coeff))
                for key, coeff in sorted(_by_term(self._flat).items())]

    def is_zero(self) -> bool:
        return not self._flat

    def is_one(self) -> bool:
        return self._flat == {((), 0, 0): 1}

    def is_plain(self) -> bool:
        """Trivial monodromy: no bundles, no opaque symbols, integral powers."""
        return _visible_order(self) == 1

    def normalized(self) -> "Motive":
        return Motive(self.reg, self.space, self.terms())

    # -- additive structure ------------------------------------------------------

    def __add__(self, other: "Motive") -> "Motive":
        return self._plus(other, 1)

    def __sub__(self, other: "Motive") -> "Motive":
        return self._plus(other, -1)

    def __neg__(self) -> "Motive":
        return Motive._wrap(self.reg, self.space,
                            {key: -c for key, c in self._flat.items()})

    def _plus(self, other: "Motive", sign: int) -> "Motive":
        _check_operand(self.reg, self.space, other)
        flat = dict(self._flat)
        _add_scaled(flat, other._flat, ((0, sign),))
        return Motive._wrap(self.reg, self.space, flat)

    def scale(self, coeff: HalfLaurent | int) -> "Motive":
        pairs = ((0, coeff),) if isinstance(coeff, int) else coeff.items()
        flat: Flat = {}
        _add_scaled(flat, self._flat, pairs)
        return Motive._wrap(self.reg, self.space, flat)

    # -- products ------------------------------------------------------------------

    def odot(self, other: "Motive") -> "Motive":
        """Convolution product, defined on the fragment."""
        _check_operand(self.reg, self.space, other)
        return Motive._wrap(self.reg, self.space,
                            _product(self.reg, self._flat, other._flat, "product"))

    def dot(self, other: "Motive") -> "Motive":
        """Fibre product; exposed only where it agrees with the convolution."""
        _check_operand(self.reg, self.space, other)
        if not (self.is_plain() or other.is_plain()):
            raise DotUndefined(
                "fibre product needs one operand with trivial monodromy")
        return self.odot(other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Motive) and self.space == other.space
                and self._flat == other._flat)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self._flat.items())))

    def text(self) -> str:
        return motive_text(self)

    def __repr__(self) -> str:
        return f"<Motive {self.space}: {repr_text(self, len(self._flat))}>"


# -- flat-form kernels --------------------------------------------------------------


def _check_operand(reg: Registry, space: str, other: Motive) -> None:
    if other.reg is not reg:
        raise RegistryError("operands come from different registries")
    if other.space != space:
        raise SpaceMismatch(f"{space!r} vs {other.space!r}")


def _term_table(table: Mapping[TermKey, object], owner: str) -> dict:
    """``table`` keyed as a flat form is: each monomial sorted.  Two keys
    that name one term raise :class:`RegistryError`."""
    out: dict = {}
    for (mon, bits), value in table.items():
        key = (tuple(sorted(mon)), bits)
        if key in out:
            raise RegistryError(f"{owner}: two entries for term "
                                f"({key[0]}, bits={bits})")
        out[key] = value
    return out


def _add_scaled(acc: Flat, flat: Flat, coeff: Iterable[tuple[int, int]]) -> None:
    """acc += coeff * flat, where ``coeff`` lists (doubled L-exponent,
    integer) pairs; keys whose sum cancels are dropped."""
    coeff = tuple(coeff)
    get = acc.get
    for (mon, bits, k), c in flat.items():
        for k2, c2 in coeff:
            key = (mon, bits, k + k2)
            v = get(key, 0) + c * c2
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)


def _by_term(flat: Flat) -> dict[TermKey, dict[int, int]]:
    """(monomial, bits) -> {doubled L-exponent: integer}."""
    groups: dict[TermKey, dict[int, int]] = {}
    for (mon, bits, k2), c in flat.items():
        groups.setdefault((mon, bits), {})[k2] = c
    return groups


def _by_monomial(flat: Flat) -> dict[tuple[str, ...], list[tuple[int, int, int]]]:
    """monomial -> [(bits, doubled L-exponent, integer), ...]."""
    groups: dict[tuple[str, ...], list[tuple[int, int, int]]] = {}
    for (mon, bits, k2), c in flat.items():
        groups.setdefault(mon, []).append((bits, k2, c))
    return groups


def _opaque(reg: Registry, mon: tuple[str, ...]) -> bool:
    return any(reg.symbol(n).order > 1 for n in mon)


def _visible_order(m: Motive) -> int:
    """The largest monodromy order a term of ``m`` shows: 2 for a bundle
    class or a half power of L, a symbol's declared order, else 1."""
    order = 1
    for mon, bits, k2 in m._flat:
        if bits or k2 % 2:
            order = max(order, 2)
        for name in mon:
            order = max(order, m.reg.symbol(name).order)
    return order


def _product(reg: Registry, a: Flat, b: Flat, what: str) -> Flat:
    """Convolution product of two flat forms over one space.

    Raises :class:`OdotUndecidable` when a monomial of each side carries
    opaque monodromy, whatever the coefficients.
    """
    right = [(mon, terms, _opaque(reg, mon))
             for mon, terms in _by_monomial(b).items()]
    out: Flat = {}
    get = out.get
    for mon1, terms1 in _by_monomial(a).items():
        op1 = _opaque(reg, mon1)
        for mon2, terms2, op2 in right:
            if op1 and op2:
                raise OdotUndecidable(
                    f"{what} of opaque monomials {mon1} and {mon2}")
            mon = tuple(sorted(mon1 + mon2)) if mon1 and mon2 else mon1 or mon2
            for b1, k1, c1 in terms1:
                for b2, k2, c2 in terms2:
                    key = (mon, b1 ^ b2, k1 + k2)
                    out[key] = get(key, 0) + c1 * c2
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


# -- free-function operation names ----------------------------------------------------


def mot_add(a: Motive, b: Motive) -> Motive:
    return a + b


def mot_odot(a: Motive, b: Motive) -> Motive:
    return a.odot(b)


def mot_dot(a: Motive, b: Motive) -> Motive:
    return a.dot(b)


def mot_equal(a: Motive, b: Motive) -> bool:
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space!r} vs {b.space!r}")
    return a == b


def mot_sum(reg: Registry, space: str,
            terms: Iterable[tuple[Motive, Mapping[int, int] | HalfLaurent]]) -> Motive:
    """The sum of ``coeff * m`` over ``(m, coeff)`` pairs, in one accumulator.

    A coefficient is a HalfLaurent or a plain ``{doubled exponent: int}``
    dict.
    """
    reg.space(space)
    acc: Flat = {}
    for m, coeff in terms:
        _check_operand(reg, space, m)
        _add_scaled(acc, m._flat, coeff.items())
    return Motive._wrap(reg, space, acc)


def mot_boxdot(a: Motive, b: Motive) -> Motive:
    """External convolution product over a registered product space."""
    if a.reg is not b.reg:
        raise RegistryError("operands come from different registries")
    reg = a.reg
    try:
        prod = reg.product_of(a.space, b.space)
    except RegistryError as exc:
        raise UnregisteredProduct(str(exc)) from None
    return Motive._wrap(reg, prod.name, _product(
        reg, reg.into_product(prod, 0, a._flat),
        reg.into_product(prod, 1, b._flat), "external product"))


def upsilon(reg: Registry, p: BundleClass) -> Motive:
    """Group-ring unit attached to a bundle class; Y(0) is the ring identity."""
    reg.check_bits(p.space, p.bits)
    return Motive._wrap(reg, p.space, {((), p.bits, 0): 1})


def symbol_motive(reg: Registry, name: str) -> Motive:
    """The class of a registered symbol, in normal form.

    Plain and opaque symbols are monomials; declared Z2-cover symbols are
    rewritten to ``1 - L^(1/2) . Y(p)``.
    """
    sym = reg.symbol(name)
    if sym.cover_bits is None:
        return Motive(reg, sym.space, {((name,), 0): HalfLaurent.const(1)})
    return _z2_cover(reg, sym.space, sym.cover_bits)


def _z2_cover(reg: Registry, space: str, bits: int) -> Motive:
    """``1 - L^(1/2) . Y(bits)``: the class of the Z2-cover of ``space``
    whose bundle class is ``bits``."""
    reg.check_bits(space, bits)
    return Motive._wrap(reg, space, {((), 0, 0): 1, ((), bits, 1): -1})


# -- functoriality -------------------------------------------------------------------


def pullback(reg: Registry, morphism: str | None, m: Motive,
             p: BundleClass | None = None) -> Motive:
    """Pull a motive back along a morphism, in one pass over its flat form.

    Given ``p``, the result is ``pullback(reg, morphism, m).odot(upsilon(reg,
    p))``, with P's bits XORed into each transported bundle image inside
    the pass, and it raises what that two-step form raises, in the same
    order: the morphism and ``m``'s space, the pass's own errors, then
    ``p``'s range and space.  ``morphism`` None is the identity: ``m`` with
    its keys relabelled to ``(mon, bits ^ p.bits, k2)`` and no unit built,
    or ``m`` itself with no ``p``.  An ``m`` from another registry or off
    P's space is left to ``m.odot(upsilon(reg, p))``, so it is refused with
    that product's errors, in its order.
    """
    twist = 0 if p is None else p.bits
    if morphism is None:
        if p is None:
            return m
        if m.reg is not reg or m.space != p.space:
            return m.odot(upsilon(reg, p))  # refuses as the two-step form does
        reg.check_bits(p.space, twist)
        return Motive._wrap(reg, p.space, {(mon, bits ^ twist, k): c
                                           for (mon, bits, k), c in m._flat.items()})
    mor = reg.morphism(morphism)
    if m.space != mor.target:
        raise SpaceMismatch(
            f"motive on {m.space!r} cannot be pulled along {morphism!r} "
            f"with target {mor.target!r}")
    flat = _pull_flat(reg, mor, m._flat, twist)
    if p is not None:
        reg.check_bits(p.space, p.bits)
        if p.space != mor.source:
            raise SpaceMismatch(f"{mor.source!r} vs {p.space!r}")
    return Motive._wrap(reg, mor.source, flat)


def _pull_flat(reg: Registry, mor: Morphism, flat: Flat, twist: int) -> Flat:
    """The flat form of ``flat`` pulled along ``mor``, times ``Y(twist)``.

    Each distinct monomial is transported once; each bundle class is read
    from the morphism's memo table (:class:`~motivic.registry.PullTable`),
    one dict lookup, so a class is transported once per registry.  The
    image carries the twist, XORed in.  A term with the empty monomial
    lands at ``((), image of bits, k2)``; any other term lands as its
    coefficient times the product of the two images.  A composite pulls
    back along its steps in order and twists in the last.

    The empty-monomial terms are relabelled first, in one comprehension.
    If that dict has as many keys as ``flat``, then ``flat`` has no
    monomial term and no two images met, so it is the result as it stands:
    nothing to add up, no zero to sweep.  Otherwise the accumulating walk
    runs over ``flat`` from the start; a transport that raised in the
    comprehension raises again there, after any fault of an earlier term,
    so the error is the walk's in term order.
    """
    if mor.steps:
        for step in mor.steps[:-1]:
            flat = _pull_flat(reg, reg.morphisms[step], flat, 0)
        return _pull_flat(reg, reg.morphisms[mor.steps[-1]], flat, twist)
    table = reg.pull_tables[mor.name]
    try:
        out = {((), table[bits] ^ twist, k): c
               for (mon, bits, k), c in flat.items() if not mon}
        if len(out) == len(flat):
            return out
    except MotivicError:
        pass  # the walk raises the first fault in term order
    mons: dict[tuple[str, ...], Flat] = {}
    acc: Flat = {}
    get = acc.get
    for (mon, bits, k), c in flat.items():
        if mon:
            mon_img = mons.get(mon)
            if mon_img is None:
                mon_img = mons[mon] = _pull_monomial(reg, mor, mon)
        img = table[bits] ^ twist
        if not mon:
            key = ((), img, k)
            acc[key] = get(key, 0) + c
            continue
        for (mon2, bits2, k2), c2 in mon_img.items():
            key = (mon2, bits2 ^ img, k + k2)
            acc[key] = get(key, 0) + c * c2
    for key in [key for key, c in acc.items() if not c]:
        del acc[key]
    return acc


def _pull_monomial(reg: Registry, mor: Morphism, mon: tuple[str, ...]) -> Flat:
    img: Flat = {((), 0, 0): 1}
    for name in mon:
        entry = mor.pull_symbols.get(name)
        if entry is not None:
            flat = entry._flat
        elif reg.symbol_allowed_on(reg.symbol(name), mor.source):
            flat = {((name,), 0, 0): 1}  # the same-name monomial
        else:
            raise MissingTransport(
                f"morphism {mor.name!r} has no image for symbol {name!r}")
        img = _product(reg, img, flat, "product")
    return img


def pushforward(reg: Registry, morphism: str, m: Motive) -> Motive:
    """Transport along a morphism using its declared pushforward table.

    Terms are mapped by exact (monomial, bundle) pattern.  A term ``c.Y(b)``
    with no declared pattern falls back to the expansion through a declared
    cover image: ``c . L^(-1/2) . (image(1) - image(cover b))``, which is the
    projection-formula computation of the pushforward of an Y-class.
    """
    mor = reg.morphism(morphism)
    if m.space != mor.source:
        raise SpaceMismatch(
            f"motive on {m.space!r} cannot be pushed along {morphism!r} "
            f"with source {mor.source!r}")
    acc: Flat = {}

    def add(image: Motive, coeff) -> None:
        _check_operand(reg, mor.target, image)
        _add_scaled(acc, image._flat, coeff)

    for (mon, bits), coeff in _by_term(m._flat).items():
        entry = mor.push_classes.get((mon, bits))
        if entry is not None:
            add(entry, coeff.items())
            continue
        if not mon and bits:
            unit = mor.push_classes.get(((), 0))
            cover = mor.push_classes.get((("__cover__",), bits))
            if unit is not None and cover is not None:
                add(unit, [(k - 1, c) for k, c in coeff.items()])
                add(cover, [(k - 1, -c) for k, c in coeff.items()])
                continue
        raise MissingTransport(
            f"morphism {morphism!r} has no pushforward entry for term "
            f"({mon}, bits={bits})")
    return Motive._wrap(reg, mor.target, acc)


def pi_forget(m: Motive) -> Motive:
    """Forget the monodromy action, landing in the plain subring.

    L^(1/2) maps to -1.  Opaque symbols need a declared underlying class.
    Terms carrying a bundle class are expressible only through their
    L^(1/2)-divisible part, via a registered cover symbol for the class.
    """
    reg = m.reg
    prods: dict[tuple[str, ...], Motive] = {}
    acc: Flat = {}
    for (mon, bits), coeff in _by_term(m._flat).items():
        prod = prods.get(mon)
        if prod is None:
            prod = prods[mon] = _forget_monomial(reg, m.space, mon)
        even = [(k, c) for k, c in coeff.items() if k % 2 == 0]
        odd = [(k - 1, c) for k, c in coeff.items() if k % 2]
        if bits == 0:
            _add_scaled(acc, prod._flat, even + [(k, -c) for k, c in odd])
            continue
        if even:
            raise NoUnderlyingClass(
                f"Y-term with coefficient {HalfLaurent(coeff).text()} has no "
                "integral L^(1/2)-divisible form")
        cover = reg.cover_symbol_for_bits(m.space, bits)
        if cover is None or cover.underlying is None:
            raise NoUnderlyingClass(
                f"no cover symbol with underlying class for bundle bits {bits}")
        # c . L^(1/2) . Y(b) = c . (1 - [P_b]);  forget termwise.
        _add_scaled(acc, prod._flat, odd)
        _add_scaled(acc, prod.dot(cover.underlying)._flat,
                    [(k, -c) for k, c in odd])
    return Motive._wrap(reg, m.space, acc)


def _forget_monomial(reg: Registry, space: str, mon: tuple[str, ...]) -> Motive:
    prod = Motive.one(reg, space)
    for name in mon:
        sym = reg.symbol(name)
        if sym.order == 1:
            prod = prod.dot(symbol_motive(reg, name))
        else:
            if sym.underlying is None:
                raise NoUnderlyingClass(
                    f"symbol {name!r} has no declared underlying class")
            prod = prod.dot(sym.underlying)
    return prod
