"""Core ring operations: worked examples frozen first, then randomized laws."""

import random
import re

import pytest

from motivic import (BundleClass, DotUndefined, HalfLaurent, MissingTransport,
                     Motive, NoUnderlyingClass, OdotUndecidable, Registry,
                     RegistryError, SpaceMismatch, UnregisteredProduct,
                     generator, mot_add, mot_boxdot, mot_dot, mot_equal,
                     mot_odot, pi_forget, pullback, pushforward,
                     symbol_motive, upsilon)

from conftest import rand_fragment_motive

ONE = HalfLaurent.const(1)
HALF = HalfLaurent.half()
L = HalfLaurent.L()


@pytest.fixture
def reg():
    r = Registry()
    r.declare_space("X", dim=1)
    r.declare_generators("X", ("p", "q"))
    r.declare_symbol("A", "X", 1)
    r.declare_symbol("B", "X", 1)
    r.declare_symbol("mu3", "X", 3,
                     underlying=Motive.coefficient(r, "X", HalfLaurent.const(3)))
    # split double cover: 1 - L^(1/2)
    r.declare_symbol("mu2", "X", 2,
                     underlying=Motive.coefficient(r, "X", HalfLaurent.const(2)),
                     cover_bits=0)
    # twisted double cover attached to generator p, underlying class [A]
    r.declare_symbol("covp", "X", 2, underlying=None, cover_bits=1)
    return r


# -- addition -------------------------------------------------------------------


def test_add_identity(reg):
    one = Motive.one(reg, "X")
    assert mot_add(one, Motive.zero(reg, "X")) == one


def test_add_cover_rewrite(reg):
    # the split double cover plus L^(1/2) collapses to the identity
    half = Motive.half_power(reg, "X", 1)
    assert mot_add(symbol_motive(reg, "mu2"), half) == Motive.one(reg, "X")


def test_add_inverse(reg):
    lm1 = Motive.coefficient(reg, "X", L - ONE)
    assert mot_add(lm1, -lm1).is_zero()
    # a coefficient -1 before a symbol renders as a bare sign
    a = symbol_motive(reg, "A")
    assert (-a).text() == "-[A]"
    assert (Motive.one(reg, "X") - a).text() == "1 - [A]"


def test_constructor_sorts_each_monomial(reg):
    # two spellings of one monomial name one term; their coefficients add
    m = Motive(reg, "X", [((("mu3", "A"), 0), ONE), ((("A", "mu3"), 0), ONE)])
    assert m.terms() == [((("A", "mu3"), 0), HalfLaurent.const(2))]


def test_add_space_mismatch(reg):
    with pytest.raises(SpaceMismatch):
        mot_add(Motive.one(reg, "X"), Motive.one(reg, "K"))


# -- convolution product -----------------------------------------------------------


def test_odot_square_root(reg):
    half = Motive.half_power(reg, "X", 1)
    assert mot_odot(half, half) == Motive.coefficient(reg, "X", L)


def test_odot_half_power_table(reg):
    for m in range(-20, 21):
        for n in range(-20, 21):
            assert mot_odot(Motive.half_power(reg, "X", m),
                            Motive.half_power(reg, "X", n)) \
                == Motive.half_power(reg, "X", m + n)


def test_odot_trivial_unit(reg):
    rng = random.Random(1)
    y0 = upsilon(reg, BundleClass("X", 0))
    assert y0.is_one()
    for _ in range(50):
        m = rand_fragment_motive(reg, rng, "X", nbits=4, allow_opaque=True)
        assert mot_odot(y0, m) == m


OPAQUE_OPERANDS = {
    "mu3": lambda r: symbol_motive(r, "mu3"),
    "one_term": lambda r: Motive(r, "X", {(("A", "mu3"), 1): L}),
    # its first opaque monomial, in its own order, is not the least one
    "many_terms": lambda r: Motive(r, "X", [
        ((("A",), 0), ONE), ((("mu3",), 0), L), ((("A", "mu3"), 1), ONE)]),
}


@pytest.mark.parametrize("left, right, message", [
    ("mu3", "mu3", "product of opaque monomials ('mu3',) and ('mu3',)"),
    ("one_term", "many_terms",
     "product of opaque monomials ('A', 'mu3') and ('mu3',)"),
    ("many_terms", "one_term",
     "product of opaque monomials ('mu3',) and ('A', 'mu3')"),
], ids=["one_term_pair", "one_term_left", "one_term_right"])
def test_odot_opaque_pair_undecidable(reg, left, right, message):
    with pytest.raises(OdotUndecidable) as exc:
        mot_odot(OPAQUE_OPERANDS[left](reg), OPAQUE_OPERANDS[right](reg))
    assert str(exc.value) == message


def test_odot_cover_times_cover_via_group_ring(reg):
    # both covers rewrite to 1 - L^(1/2) Y(.), so the product stays decidable
    covp = symbol_motive(reg, "covp")
    out = mot_odot(covp, covp)
    # (1 - h Y(p))^2 = 1 - 2 h Y(p) + L with Y(p)^2 = 1
    want = Motive(reg, "X", [
        (((), 0), ONE + L),
        (((), 1), HalfLaurent.power(1, -2)),
    ])
    assert out == want


def test_odot_opaque_against_unit_class(reg):
    # one opaque side is fine
    mu3 = symbol_motive(reg, "mu3")
    yp = upsilon(reg, generator(reg, "X", "p"))
    out = mot_odot(mu3, yp)
    assert out == Motive(reg, "X", {(("mu3",), 1): ONE})


# -- fibre product ---------------------------------------------------------------------


def test_dot_agrees_with_odot_on_tate_class(reg):
    rng = random.Random(2)
    ell = Motive.coefficient(reg, "X", L)
    for _ in range(100):
        m = rand_fragment_motive(reg, rng, "X", nbits=4, allow_opaque=True)
        assert mot_dot(m, ell) == mot_odot(m, ell)


def test_dot_free_commutative_on_plain_symbols(reg):
    a, b = symbol_motive(reg, "A"), symbol_motive(reg, "B")
    assert mot_dot(a, b) == Motive(reg, "X", {(("A", "B"), 0): ONE})


def test_dot_undefined_on_two_units(reg):
    yp = upsilon(reg, generator(reg, "X", "p"))
    yq = upsilon(reg, generator(reg, "X", "q"))
    with pytest.raises(DotUndefined):
        mot_dot(yp, yq)


def test_dot_never_silently_multiplies_half_powers(reg):
    half = Motive.half_power(reg, "X", 1)
    with pytest.raises(DotUndefined):
        mot_dot(half, half)


# -- external product -------------------------------------------------------------------


@pytest.fixture
def prod_reg():
    r = Registry()
    r.declare_space("X", dim=1)
    r.declare_space("Y", dim=1)
    r.declare_generators("X", ("p",))
    r.declare_generators("Y", ("q",))
    r.declare_symbol("A", "X", 1)
    r.declare_product("XY", "X", "Y")
    return r


def test_boxdot_identity(prod_reg):
    out = mot_boxdot(Motive.one(prod_reg, "X"), Motive.one(prod_reg, "Y"))
    assert out == Motive.one(prod_reg, "XY")


def test_boxdot_half_powers(prod_reg):
    # external square-root law: hand expansion gives the Tate class upstairs
    out = mot_boxdot(Motive.half_power(prod_reg, "X", 1),
                     Motive.half_power(prod_reg, "Y", 1))
    assert out == Motive.coefficient(prod_reg, "XY", L)


def test_boxdot_maps_symbols_and_bundles(prod_reg):
    m = symbol_motive(prod_reg, "A").odot(
        upsilon(prod_reg, generator(prod_reg, "X", "p")))
    out = mot_boxdot(m, upsilon(prod_reg, generator(prod_reg, "Y", "q")))
    bits = prod_reg.bits_of("XY", ("XY.p", "XY.q"))
    assert out == Motive(prod_reg, "XY", {(("XY.A",), bits): ONE})


def test_boxdot_unregistered_product(prod_reg):
    with pytest.raises(UnregisteredProduct):
        mot_boxdot(Motive.one(prod_reg, "Y"), Motive.one(prod_reg, "X"))


def test_boxdot_point_factor_acts_as_scalar_module():
    # a factor over the absolute point acts through its coefficient: the
    # external product with c over K is the transported class scaled by c
    r = Registry()
    r.declare_space("X", dim=1)
    r.declare_generators("X", ("p",))
    r.declare_product("XK", "X", "K")
    rng = random.Random(8)
    for _ in range(60):
        m = rand_fragment_motive(r, rng, "X", symbols=((),), nbits=2)
        c = HalfLaurent({rng.randrange(-4, 5): rng.randrange(-5, 6)})
        lhs = mot_boxdot(m, Motive.coefficient(r, "K", c))
        # transport m's terms to the product by renaming its generator
        expected = Motive(r, "XK", {
            (mon, bits): coeff * c for (mon, bits), coeff in m.terms()})
        assert lhs == expected


def test_odot_space_mismatch():
    r = Registry()
    r.declare_space("X", dim=1)
    with pytest.raises(SpaceMismatch):
        mot_odot(Motive.one(r, "X"), Motive.one(r, "K"))


def test_arithmetic_refuses_to_mix_registries():
    r1, r2 = Registry(), Registry()
    for r in (r1, r2):
        r.declare_space("S")
    a, b = Motive.one(r1, "S"), Motive.one(r2, "S")
    for op in (mot_add, mot_odot, lambda x, y: x - y):
        with pytest.raises(RegistryError):
            op(a, b)
    assert a == b  # equality stays structural


# -- pullback / pushforward -----------------------------------------------------------------


@pytest.fixture
def chart_reg():
    """Two-chart registry with a hand-checked restriction table.

    R has generators (pR1, pR2) and Rp has (q1,); restriction sends
    pR1 -> q1, pR2 -> 0, the symbol S -> its restriction symbol Sp.
    """
    r = Registry()
    r.declare_space("R", dim=1)
    r.declare_space("Rp", dim=1)
    r.declare_generators("R", ("pR1", "pR2"))
    r.declare_generators("Rp", ("q1",))
    r.declare_symbol("S", "R", 1)
    r.declare_symbol("Sp", "Rp", 1)
    r.declare_morphism("incl", "Rp", "R", "open-inclusion",
                       pull_symbols={"S": symbol_motive(r, "Sp")},
                       pull_bundles={"pR1": 1, "pR2": 0})
    return r


def test_pullback_identity(reg):
    reg.declare_morphism("id", "X", "X", "etale")
    rng = random.Random(3)
    for _ in range(50):
        m = rand_fragment_motive(reg, rng, "X", nbits=4, allow_opaque=True)
        assert pullback(reg, "id", m) == m


def test_pullback_bundle_transport_hand_check(chart_reg):
    # Y(pR1 + pR2) restricts to Y(q1): pR1 -> q1, pR2 -> 0
    cls = BundleClass("R", chart_reg.bits_of("R", ("pR1", "pR2")))
    got = pullback(chart_reg, "incl", upsilon(chart_reg, cls))
    assert got == upsilon(chart_reg, generator(chart_reg, "Rp", "q1"))
    # and the symbol goes to its declared restriction
    got = pullback(chart_reg, "incl", symbol_motive(chart_reg, "S"))
    assert got == symbol_motive(chart_reg, "Sp")


def test_pullback_missing_transport(chart_reg):
    chart_reg.declare_symbol("T", "R", 1)
    with pytest.raises(MissingTransport):
        pullback(chart_reg, "incl", symbol_motive(chart_reg, "T"))


def test_pullback_functoriality_on_composition(chart_reg):
    r = chart_reg
    r.declare_space("Rpp", dim=1)
    r.declare_generators("Rpp", ("z1",))
    r.declare_symbol("Spp", "Rpp", 1)
    r.declare_morphism("incl2", "Rpp", "Rp", "open-inclusion",
                       pull_symbols={"Sp": symbol_motive(r, "Spp")},
                       pull_bundles={"q1": 1})
    r.compose("incl2", "incl", "incl12")
    rng = random.Random(4)
    for _ in range(60):
        m = rand_fragment_motive(r, rng, "R", symbols=((), ("S",)), nbits=4)
        assert pullback(r, "incl12", m) == \
            pullback(r, "incl2", pullback(r, "incl", m))


def test_pushforward_to_point_relabels(reg):
    # the image of the identity class is the declared symbol [X] over the point
    reg.declare_symbol("clsX", "K", 1)
    reg.declare_morphism("pi", "X", "K", "to-point",
                         push_classes={((), 0): symbol_motive(reg, "clsX")})
    got = pushforward(reg, "pi", Motive.one(reg, "X"))
    assert got == symbol_motive(reg, "clsX")
    # coefficients ride along by the projection formula
    got = pushforward(reg, "pi", Motive.half_power(reg, "X", -1))
    assert got == symbol_motive(reg, "clsX").scale(HalfLaurent.power(-1))


def test_pushforward_bundle_term_via_cover_expansion(reg):
    # pi_*(Y(p)) = L^(-1/2) (pi_*[1] - pi_*[cover p]); freeze a hand value:
    # with pi_*[1] = 2 and pi_*[cover p] = L + 1 the result is
    # L^(-1/2) (1 - L).
    reg.declare_morphism(
        "pi2", "X", "K", "to-point",
        push_classes={
            ((), 0): Motive.coefficient(reg, "K", HalfLaurent.const(2)),
            (("__cover__",), 1): Motive.coefficient(reg, "K", L + ONE),
        })
    got = pushforward(reg, "pi2", upsilon(reg, generator(reg, "X", "p")))
    want = Motive.coefficient(reg, "K",
                              HalfLaurent.power(-1) * (ONE - L))
    assert got == want


def test_pushforward_missing_entry(reg):
    reg.declare_morphism("pi3", "X", "K", "to-point", push_classes={})
    with pytest.raises(MissingTransport):
        pushforward(reg, "pi3", Motive.one(reg, "X"))


def test_pushforward_table_key_monomial_is_sorted(reg):
    # the table names [B].[A]; the motive stores that term as ('A', 'B')
    img = Motive.coefficient(reg, "K", HalfLaurent.const(5))
    reg.declare_morphism("pi", "X", "K", "to-point",
                         push_classes={(("B", "A"), 0): img})
    assert reg.morphism("pi").push_classes == {(("A", "B"), 0): img}
    ab = symbol_motive(reg, "A").odot(symbol_motive(reg, "B"))
    assert pushforward(reg, "pi", ab) == img


def test_pushforward_table_refuses_two_keys_for_one_term(reg):
    img = Motive.one(reg, "K")
    with pytest.raises(RegistryError, match=re.escape(
            "morphism 'pi': two entries for term (('A', 'B'), bits=0)")):
        reg.declare_morphism("pi", "X", "K", "to-point",
                             push_classes={(("B", "A"), 0): img,
                                           (("A", "B"), 0): img})
    assert "pi" not in reg.morphisms


# -- monodromy forgetting -------------------------------------------------------------


def test_pi_forget_half_power_is_minus_one(reg):
    # the split double cover has two points, so 1 - [cover] counts to -1
    got = pi_forget(Motive.half_power(reg, "X", 1))
    assert got == Motive.coefficient(reg, "X", HalfLaurent.const(-1))


def test_pi_forget_fixes_tate_class(reg):
    got = pi_forget(Motive.coefficient(reg, "X", L))
    assert got == Motive.coefficient(reg, "X", L)
    # and plain symbols
    two_a = symbol_motive(reg, "A").scale(2)
    assert pi_forget(two_a) == two_a
    assert two_a.text() == "2 ⊙ [A]"


def test_pi_forget_split_cover_counts_points(reg):
    got = pi_forget(symbol_motive(reg, "mu2"))
    assert got == Motive.coefficient(reg, "X", HalfLaurent.const(2))


def test_pi_forget_opaque_underlying(reg):
    got = pi_forget(symbol_motive(reg, "mu3"))
    assert got == Motive.coefficient(reg, "X", HalfLaurent.const(3))


def test_pi_forget_is_not_a_convolution_morphism(reg):
    half = Motive.half_power(reg, "X", 1)
    lhs = pi_forget(mot_odot(half, half))         # forget(L) = L
    rhs = mot_dot(pi_forget(half), pi_forget(half))  # (-1)(-1) = 1
    assert lhs != rhs


def test_pi_forget_missing_underlying(reg):
    reg.declare_symbol("mu5", "X", 5)
    with pytest.raises(NoUnderlyingClass):
        pi_forget(symbol_motive(reg, "mu5"))


def test_pi_forget_bundle_needs_cover(reg):
    with pytest.raises(NoUnderlyingClass):
        pi_forget(upsilon(reg, generator(reg, "X", "q")))


def test_pi_forget_twisted_cover_through_underlying(reg):
    # a twisted cover with declared underlying class [A]: forgetting the
    # action on 1 - L^(1/2) Y(q) recovers exactly [A]
    reg.declare_symbol("covq", "X", 2,
                       underlying=symbol_motive(reg, "A"), cover_bits=2)
    got = pi_forget(symbol_motive(reg, "covq"))
    assert got == symbol_motive(reg, "A")


# -- equality and normal form ------------------------------------------------------------


def test_equal_cover_rewrite(reg):
    lhs = Motive.one(reg, "X") - Motive.half_power(reg, "X", 1)
    assert mot_equal(lhs, symbol_motive(reg, "mu2"))


def test_equal_zero_forms(reg):
    assert mot_equal(Motive.zero(reg, "X"), Motive(reg, "X", {}))


def test_equal_requires_same_space(reg):
    with pytest.raises(SpaceMismatch):
        mot_equal(Motive.one(reg, "X"), Motive.one(reg, "K"))


def test_normal_form_idempotent(reg):
    rng = random.Random(5)
    for _ in range(200):
        m = rand_fragment_motive(reg, rng, "X", nbits=4, allow_opaque=True)
        assert m.normalized() == m
        assert m.normalized().normalized() == m.normalized()


# -- randomized ring laws -------------------------------------------------------------------


def test_ring_laws_randomized(reg):
    rng = random.Random(6)
    for _ in range(300):
        a = rand_fragment_motive(reg, rng, "X", nbits=4)
        b = rand_fragment_motive(reg, rng, "X", nbits=4)
        c = rand_fragment_motive(reg, rng, "X", nbits=4)
        assert mot_odot(a, b) == mot_odot(b, a)
        assert mot_odot(a, mot_odot(b, c)) == mot_odot(mot_odot(a, b), c)
        assert mot_odot(a, b + c) == mot_odot(a, b) + mot_odot(a, c)


def test_commutativity_with_one_opaque_side(reg):
    rng = random.Random(7)
    mu3 = symbol_motive(reg, "mu3")
    for _ in range(100):
        a = rand_fragment_motive(reg, rng, "X", nbits=4)
        assert mot_odot(a, mu3) == mot_odot(mu3, a)
