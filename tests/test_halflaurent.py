import random

import pytest

from motivic import (HalfLaurent, Motive, RationalMotive, Registry,
                     UnsupportedShape)
from motivic.zeta import RatTerm


def test_canonical_form_drops_zeros():
    assert HalfLaurent({3: 0, 1: 2}).items() == [(1, 2)]
    assert HalfLaurent([(1, 2), (1, -2)]).is_zero()


def test_half_power_multiplication_adds_exponents():
    half = HalfLaurent.half()
    assert half * half == HalfLaurent.L()
    assert HalfLaurent.power(-1) * HalfLaurent.power(3) == HalfLaurent.L()


def test_ring_laws_randomized():
    rng = random.Random(0)

    def rand():
        return HalfLaurent({rng.randrange(-8, 9): rng.randrange(-5, 6)
                            for _ in range(rng.randrange(0, 4))})

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == HalfLaurent.zero()


def test_large_coefficients_are_exact():
    # powers of (1 + L) grow binomially; spot-check an exact big value
    p = (HalfLaurent.const(1) + HalfLaurent.L()) ** 64
    assert p.coefficient(64) == 1832624140942590534


def test_integrality_and_rendering():
    assert HalfLaurent.L().is_integral()
    assert not HalfLaurent.half().is_integral()
    assert (HalfLaurent.const(1) - HalfLaurent.half()).text() == "1 - L^(1/2)"
    assert HalfLaurent.power(-1).text() == "L^(-1/2)"
    assert HalfLaurent.power(-2).text() == "L^-1"
    assert HalfLaurent.power(3, 2).text() == "2*L^(3/2)"
    assert HalfLaurent.zero().text() == "0"
    # the first term's sign is a bare "-" or nothing, later ones " - "/" + "
    assert HalfLaurent({0: -1}).text() == "-1"
    assert HalfLaurent({-2: -2, 0: 3, 2: -1}).text() == "-2*L^-1 + 3 - L"
    assert HalfLaurent({4: 1, 1: -1}).text() == "-L^(1/2) + L^2"
    assert HalfLaurent({0: -12, 3: 5}).text() == "-12 + 5*L^(3/2)"


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        HalfLaurent({0.5: 1})
    with pytest.raises(TypeError):
        HalfLaurent({0: 1.5})
    with pytest.raises(TypeError):
        HalfLaurent({True: 1})
    with pytest.raises(TypeError):
        HalfLaurent({0: False})


def test_repr_of_an_integer_too_long_to_write_does_not_raise():
    # text() refuses an integer past the int-to-str digit limit; the repr
    # shows the term count instead
    n = 10 ** 5000
    big = HalfLaurent({0: n, 3: -1})
    reg = Registry()
    reg.declare_space("X", dim=1)
    m = Motive.coefficient(reg, "X", big)
    z = RationalMotive("X", [RatTerm(m, ((2, 1),))])
    for value in (big, m, z):
        with pytest.raises(UnsupportedShape):
            value.text()
    past = "an integer past the 4300-digit limit"
    assert repr(big) == f"HalfLaurent(2 terms, {past})"
    assert repr(m) == f"<Motive X: 2 terms, {past}>"
    assert repr(z) == f"<RationalMotive X: 1 terms, {past}>"
    # a factor T^N too long to write: text() refuses it as the coefficient
    # case does, naming the digit limit
    long_factor = RationalMotive("X", [RatTerm(Motive.one(reg, "X"), (
        (n, 1),))])
    with pytest.raises(UnsupportedShape, match="more than 4300 digits"):
        long_factor.text()
    assert repr(long_factor) == f"<RationalMotive X: 1 terms, {past}>"
    assert repr(HalfLaurent({0: 3, 1: -1})) == "HalfLaurent(3 - L^(1/2))"
    assert repr(Motive.one(reg, "X")) == "<Motive X: 1>"
