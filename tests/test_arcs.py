"""Arc-space oracle: closed-form parametrization values, then equivalence.

Frozen values come from direct parametrization of truncated arcs, e.g. for
z^2 at order 4: z = c2 t^2 + c3 t^3 + c4 t^4 with c2^2 = 1 and c3, c4 free,
giving [split double cover] . L^2.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import (ArcContext, HalfLaurent, MonomialFunction, Motive,
                     Registry, UnsupportedShape, arc_class, expand_series,
                     fixtures, generator, symbol_motive, upsilon,
                     zeta_function, zeta_truncated)
from motivic.jobs import load_fixture_job, parse_job

ONE = HalfLaurent.const(1)
HALF = HalfLaurent.half()


def test_z2_order_4_parametrization():
    fx = fixtures.z2()
    reg = fx.registry
    got = arc_class(fx.monomial, 4, fx.context)
    want = symbol_motive(reg, "mu2").scale(HalfLaurent.power(4))  # cover . L^2
    assert got == want


def test_z2_odd_orders_vanish():
    fx = fixtures.z2()
    assert arc_class(fx.monomial, 3, fx.context).is_zero()
    for n in range(1, 13):
        if n % 2:
            assert arc_class(fx.monomial, n, fx.context).is_zero()


def test_x2y_order_2_double_cover_over_torus():
    # ord(y) = 0 forced, 2 ord(x) = 2, leading condition c1^2 y0 = 1:
    # the square-root cover of the torus coordinate, no free coefficients in
    # x, two free in y
    fx = fixtures.x2y()
    reg = fx.registry
    got = arc_class(fx.monomial, 2, fx.context)
    cover = Motive.one(reg, "Gm") - upsilon(
        reg, generator(reg, "Gm", "p1")).scale(HALF)
    assert got == cover.scale(HalfLaurent.power(2 * 3))  # L^(1 + 2)


def test_z3_truncated_support():
    fx = fixtures.z3()
    series = zeta_truncated(fx.monomial, 9, fx.context)
    mu3 = symbol_motive(fx.registry, "mu3")
    for n in range(1, 10):
        if n % 3:
            assert series[n].is_zero()
        else:
            assert series[n] == mu3.scale(HalfLaurent.power(-2 * (n // 3)))


def test_growth_law():
    # L-exponent steps by a - 1 between consecutive nonzero orders
    for a, builder in ((2, fixtures.z2), (3, fixtures.z3), (4, fixtures.z4)):
        fx = builder()
        exps = []
        for m in range(1, 5):
            cls = arc_class(fx.monomial, a * m, fx.context)
            (_key, coeff), = cls.terms()[:1]
            exps.append(max(k for k, _ in coeff.items()))
        steps = {exps[i + 1] - exps[i] for i in range(len(exps) - 1)}
        assert steps == {2 * (a * 1 - 1)}  # doubled exponents


def test_oracle_equivalence_all_fixtures():
    for builder in (fixtures.z2, fixtures.z3, fixtures.z4, fixtures.x2y):
        fx = builder()
        oracle = zeta_truncated(fx.monomial, 12, fx.context)
        series = expand_series(zeta_function(fx.resolution), 12, fx.registry)
        assert oracle == series, builder.__name__


def test_oracle_mismatch_detected_against_wrong_resolution():
    z3 = fixtures.z3()
    z2 = fixtures.z2()
    oracle = zeta_truncated(z3.monomial, 4,
                            ArcContext(z2.registry, "X0",
                                       cover_symbols={3: "mu2"}))
    series = expand_series(zeta_function(z2.resolution), 4, z2.registry)
    assert oracle[2] != series[2]  # first divergence at n = 2


def test_unsupported_shapes():
    with pytest.raises(UnsupportedShape):
        MonomialFunction(())
    with pytest.raises(UnsupportedShape):
        MonomialFunction((2, 0))
    with pytest.raises(UnsupportedShape):
        MonomialFunction((2,), frozenset({5}))
    reg = Registry()
    reg.declare_space("B", dim=0)
    two_affine = MonomialFunction((1, 1))
    with pytest.raises(UnsupportedShape):
        arc_class(two_affine, 1, ArcContext(reg, "B"))
    # order-3 cover twisted by a unit variable is outside the fragment
    reg2 = Registry()
    reg2.declare_space("G", dim=1)
    reg2.declare_generators("G", ("p",))
    twisted = MonomialFunction((3, 1), frozenset({1}))
    with pytest.raises(UnsupportedShape):
        arc_class(twisted, 3, ArcContext(reg2, "G", ("p",)))


def test_order_must_be_positive():
    fx = fixtures.z2()
    with pytest.raises(UnsupportedShape):
        arc_class(fx.monomial, 0, fx.context)


# -- the truncated series is arc_class order by order ------------------------------


def _per_order(f, k, ctx):
    """arc_class(f, n) . L^(-n dim) for n = 1 .. k, or the UnsupportedShape
    the first refusing order raises."""
    out = [Motive.zero(ctx.registry, ctx.base_space)]
    for n in range(1, k + 1):
        out.append(arc_class(f, n, ctx).scale(HalfLaurent.power(-2 * n * f.dim)))
    return out


def _assert_per_order(f, k, ctx):
    try:
        want = _per_order(f, k, ctx)
    except UnsupportedShape as exc:
        with pytest.raises(UnsupportedShape, match=re.escape(str(exc))):
            zeta_truncated(f, k, ctx)
        return
    assert zeta_truncated(f, k, ctx) == want


@pytest.mark.parametrize("name", ["arc_z2", "arc_z3", "arc_z4", "arc_x2y"])
def test_truncated_series_is_arc_class_on_arc_fixtures(name):
    (f, ctx), _res = parse_job(load_fixture_job(name)).payload
    for k in (0, 1, 2, 5, 13):
        _assert_per_order(f, k, ctx)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(1, 4), max_size=3),
       st.integers(0, 2), st.booleans(), st.integers(0, 12))
def test_truncated_series_is_arc_class_on_generated_shapes(a, units, affine,
                                                           named, k):
    # extra affine variables, twisted units and unnamed generators all
    # refuse; the refusal must come at the same order as arc_class's
    reg = Registry()
    reg.declare_space("B", dim=len(units))
    gens = tuple(f"u{i}" for i in range(len(units)))
    reg.declare_generators("B", gens)
    for m in range(3, 6):
        reg.declare_symbol(f"mu{m}", "B", m)
    f = MonomialFunction((a,) + (1,) * affine + tuple(units),
                         frozenset(range(1 + affine, 1 + affine + len(units))))
    ctx = ArcContext(reg, "B", gens if named else ())
    _assert_per_order(f, k, ctx)


def test_truncated_series_edges():
    reg = Registry()
    reg.declare_space("B", dim=0)
    two_affine = MonomialFunction((1, 1))
    assert [m.text() for m in zeta_truncated(two_affine, 0,
                                             ArcContext(reg, "B"))] == ["0"]
    with pytest.raises(UnsupportedShape):
        zeta_truncated(two_affine, 1, ArcContext(reg, "B"))
    reg2 = Registry()
    reg2.declare_space("G", dim=1)
    reg2.declare_generators("G", ("p",))
    # the cover is refused only once an order divisible by a is reached
    twisted = MonomialFunction((3, 1), frozenset({1}))
    ctx = ArcContext(reg2, "G", ("p",))
    assert [m.text() for m in zeta_truncated(twisted, 2, ctx)] == ["0"] * 3
    with pytest.raises(UnsupportedShape):
        zeta_truncated(twisted, 3, ctx)
    unnamed = MonomialFunction((2, 1), frozenset({1}))
    ctx = ArcContext(reg2, "G")
    assert [m.text() for m in zeta_truncated(unnamed, 1, ctx)] == ["0"] * 2
    with pytest.raises(UnsupportedShape):
        zeta_truncated(unnamed, 2, ctx)
