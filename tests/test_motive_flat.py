"""Property tests of the flat normal form against a naive reference.

A motive is compared through its public ``terms()`` as a flat dict
``{(monomial, bits, k2): c}``.  The reference arithmetic below shares no
code with the library: products join monomials, XOR bundle bits and add
exponents term by term.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic import (BundleClass, HalfLaurent, Motive, OdotUndecidable,
                     Registry, mot_boxdot, pullback, symbol_motive, upsilon)

OPAQUE = {"mu3", "w4", "nu3", "mu3Z", "w4Z"}
# reference classes of the cover symbols: 1 - L^(1/2) . Y(cover bits)
COVERS = {"cov": 0b101, "covY": 0b10}


def _registry() -> Registry:
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("g0", "g1", "g2"))
    reg.declare_symbol("A", "X")
    reg.declare_symbol("B", "X")
    reg.declare_symbol("mu3", "X", 3)
    reg.declare_symbol("w4", "X", 4)
    reg.declare_symbol("cov", "X", 2, cover_bits=COVERS["cov"])
    reg.declare_space("Y")
    reg.declare_generators("Y", ("h0", "h1"))
    reg.declare_symbol("C", "Y")
    reg.declare_symbol("nu3", "Y", 3)
    reg.declare_symbol("covY", "Y", 2, cover_bits=COVERS["covY"])
    reg.declare_product("P", "X", "Y")
    reg.declare_product("XX", "X", "X")
    reg.declare_space("Z")
    reg.declare_generators("Z", ("z0", "z1"))
    reg.declare_symbol("D", "Z")
    reg.declare_symbol("mu3Z", "Z", 3)
    reg.declare_symbol("w4Z", "Z", 4)
    a_image = Motive(reg, "Z", {(("D",), 0): HalfLaurent.const(1),
                                ((), 0b10): HalfLaurent.power(2, -1)})
    reg.declare_morphism("f", "Z", "X", pull_symbols={
        "A": a_image, "B": "D", "mu3": "mu3Z", "w4": "w4Z"},
        pull_bundles={"g0": 0b01, "g1": 0b11, "g2": 0b10})
    return reg


REG = _registry()
PLAIN = {"X": ("A", "B", "cov"), "Y": ("C", "covY")}
OPAQUE_ON = {"X": ("mu3", "w4"), "Y": ("nu3",)}
NBITS = {"X": 3, "Y": 2}


# -- reference arithmetic --------------------------------------------------------


def r_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + scale * c
        if not out[key]:
            del out[key]
    return out


def r_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (m1, b1, k1), c1 in a.items():
        for (m2, b2, k2), c2 in b.items():
            out = r_add(out, {(tuple(sorted(m1 + m2)), b1 ^ b2, k1 + k2):
                              c1 * c2})
    return out


def r_symbol(name: str) -> dict:
    if name in COVERS:
        return {((), 0, 0): 1, ((), COVERS[name], 1): -1}
    return {((name,), 0, 0): 1}


def r_spec(spec) -> dict:
    out: dict = {}
    for names, bits, coeff in spec:
        term = {((), bits, k): c for k, c in coeff.items() if c}
        for name in names:
            term = r_mul(term, r_symbol(name))
        out = r_add(out, term)
    return out


def r_opaque(flat: dict) -> bool:
    return any(n in OPAQUE for mon, _, _ in flat for n in mon)


def flat(m: Motive) -> dict:
    """Flat form read through ``terms()``, after checking it is canonical."""
    terms = m.terms()
    keys = [key for key, _ in terms]
    assert keys == sorted(set(keys))
    out = {}
    for (mon, bits), coeff in terms:
        assert mon == tuple(sorted(mon)) and not coeff.is_zero()
        assert not bits >> len(REG.generators[m.space])
        assert not any(n in COVERS for n in mon)
        for k2, c in coeff.items():
            assert c != 0
            out[(mon, bits, k2)] = c
    assert all(isinstance(c, int) and c for c in m._flat.values())
    assert m._flat == out
    return out


# -- generated motives -------------------------------------------------------------------


coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=3)


def _symbols_and_bits(draw, space: str, plain) -> tuple[list, int]:
    """Symbols with at most one opaque one, and bundle bits over ``space``."""
    names = draw(st.lists(st.sampled_from(plain), max_size=2))
    opaque = draw(st.sampled_from((None,) + OPAQUE_ON[space]))
    if opaque is not None:
        names.append(opaque)
    return names, draw(st.integers(0, (1 << NBITS[space]) - 1))


@st.composite
def specs(draw, space: str = "X"):
    """Terms (symbols, bits, coefficient) with at most one opaque symbol."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        out.append((*_symbols_and_bits(draw, space, PLAIN[space]),
                    draw(coeffs)))
    return out


@st.composite
def one_term(draw, space: str = "X"):
    """A spec whose motive is one flat entry: one nonzero coefficient and no
    cover symbol, since a cover rewrites to two terms."""
    plain = [n for n in PLAIN[space] if n not in COVERS]
    coeff = {draw(st.integers(-3, 3)): draw(st.sampled_from((-2, -1, 1, 2)))}
    return [(*_symbols_and_bits(draw, space, plain), coeff)]


def operands(space: str = "X"):
    """Either a general spec or a one-term one, such as a unit Y(b)."""
    return st.one_of(specs(space), one_term(space))


def build(spec, space: str = "X") -> Motive:
    """Library motive of a spec: cover symbols enter through symbol_motive."""
    out = Motive.zero(REG, space)
    for names, bits, coeff in spec:
        term = Motive(REG, space, {((), bits): HalfLaurent(coeff)})
        for name in names:
            term = term.odot(symbol_motive(REG, name))
        out = out + term
    return out


# -- kernel against the reference ------------------------------------------------------


@given(specs())
def test_construction_matches_reference(spec):
    assert flat(build(spec)) == r_spec(spec)


@given(specs(), specs())
def test_add_sub_neg_match_reference(s1, s2):
    a, b = build(s1), build(s2)
    ra, rb = r_spec(s1), r_spec(s2)
    assert flat(a + b) == r_add(ra, rb)
    assert flat(a - b) == r_add(ra, rb, -1)
    assert flat(-a) == r_add({}, ra, -1)
    assert (a - a).is_zero()


@given(specs(), coeffs, st.integers(-3, 3))
def test_scale_matches_reference(spec, coeff, n):
    m, ref = build(spec), r_spec(spec)
    c = {((), 0, k): v for k, v in coeff.items() if v}
    assert flat(m.scale(HalfLaurent(coeff))) == r_mul(ref, c)
    assert flat(m.scale(n)) == r_add({}, ref, n)


@given(operands(), operands())
# (1 + Y(g0)) . (1 - Y(g0)) = 0: every key of the product cancels
@example([((), 0, {0: 1}), ((), 1, {0: 1})],
         [((), 0, {0: 1}), ((), 1, {0: -1})])
# two different opaque monomials: undecidable, not only a repeated one
@example([(("mu3",), 0, {0: 1})], [(("A", "w4"), 0, {0: 1})])
def test_odot_matches_reference(s1, s2):
    a, b = build(s1), build(s2)
    ra, rb = r_spec(s1), r_spec(s2)
    if r_opaque(ra) and r_opaque(rb):
        with pytest.raises(OdotUndecidable):
            a.odot(b)
        return
    assert flat(a.odot(b)) == r_mul(ra, rb)


def _into_p(ref: dict, side: int, space: str, name: str = "P") -> dict:
    prod = REG.products[name]
    out = {}
    for (mon, bits, k2), c in ref.items():
        img = 0
        for i, g in enumerate(REG.generators[space]):
            if bits >> i & 1:
                img |= 1 << REG.generators[name].index(
                    prod.bundle_images[(side, g)])
        mon = tuple(sorted(prod.symbol_images[(side, n)] for n in mon))
        out[(mon, img, k2)] = c
    return out


@given(operands("X"), operands("Y"), operands("X"))
def test_boxdot_matches_reference(s1, s2, s3):
    a, b = build(s1, "X"), build(s2, "Y")
    ra, rb = r_spec(s1), r_spec(s2)
    # self-product: the right factor's images collide and become XX.1.*
    c, rc = build(s3, "X"), r_spec(s3)
    if not (r_opaque(ra) and r_opaque(rc)):
        assert flat(mot_boxdot(a, c)) == r_mul(_into_p(ra, 0, "X", "XX"),
                                               _into_p(rc, 1, "X", "XX"))
    if r_opaque(ra) and r_opaque(rb):
        with pytest.raises(OdotUndecidable):
            mot_boxdot(a, b)
        return
    out = mot_boxdot(a, b)
    assert out.space == "P"
    assert flat(out) == r_mul(_into_p(ra, 0, "X"), _into_p(rb, 1, "Y"))


PULL_BITS = {0: 0b01, 1: 0b11, 2: 0b10}
PULL_SYMBOLS = {"A": {(("D",), 0, 0): 1, ((), 0b10, 2): -1},
                "B": {(("D",), 0, 0): 1},
                "mu3": {(("mu3Z",), 0, 0): 1}, "w4": {(("w4Z",), 0, 0): 1}}


@given(specs())
def test_pullback_matches_reference(spec):
    m, ref = build(spec), r_spec(spec)
    want: dict = {}
    for (mon, bits, k2), c in ref.items():
        img = 0
        for i, b in PULL_BITS.items():
            if bits >> i & 1:
                img ^= b
        term = {((), img, k2): c}
        for name in mon:
            term = r_mul(term, PULL_SYMBOLS[name])
        want = r_add(want, term)
    out = pullback(REG, "f", m)
    assert out.space == "Z" and flat(out) == want


# -- ring laws -----------------------------------------------------------------------------


@settings(max_examples=50)
@given(specs(), specs(), specs())
def test_odot_commutative_and_associative(s1, s2, s3):
    a, b, c = build(s1), build(s2), build(s3)
    opaque = [r_opaque(r_spec(s)) for s in (s1, s2, s3)]
    if not (opaque[0] and opaque[1]):
        assert a.odot(b) == b.odot(a)
    if sum(opaque) <= 1:
        assert a.odot(b).odot(c) == a.odot(b.odot(c))


@given(st.integers(0, 7))
def test_upsilon_is_an_involution(bits):
    y = upsilon(REG, BundleClass("X", bits))
    assert y.odot(y).is_one()
    assert y.odot(y) == Motive.one(REG, "X")
