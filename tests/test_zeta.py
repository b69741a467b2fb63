"""Zeta pipeline: frozen example values first, then structural properties.

Hand computations backing the frozen values are noted inline; the arc-space
oracle provides the independent route in test_arcs.py.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import (BundleClass, Divisor, HalfLaurent, MissingRestriction,
                     Motive, RationalMotive, RegistryError, ResolutionData,
                     RestrictionTable,
                     Stratum, ValidationFailed, expand_series, fixtures,
                     generator, inverse_series_constant_term, milnor_fibre_at,
                     nearby_cycle, pullback, symbol_motive, upsilon,
                     validate_resolution, vanishing_cycle, zeta_function)
from motivic.jobs import parse_job
from motivic.registry import POINT, Registry
from motivic.zeta import RatTerm

ONE = HalfLaurent.const(1)
HALF = HalfLaurent.half()
L = HalfLaurent.L()


# -- validation ------------------------------------------------------------------


def test_validate_z2_clean():
    fx = fixtures.z2()
    assert validate_resolution(fx.resolution) == []


def test_validate_gcd_mismatch():
    fx = fixtures.z2()
    res = fx.resolution
    bad = ResolutionData(res.registry, res.space_u0, res.dim_u, res.divisors,
                         {frozenset({"E1"}): Stratum(
                             next(iter(res.strata.values())).cls, 3)},
                         res.critical_values, res.restrictions, res.points)
    diags = validate_resolution(bad)
    assert any("E1" in d and "gcd" in d for d in diags)


def test_validate_boundary_multiplicity():
    fx = fixtures.z2()
    res = fx.resolution
    bad = ResolutionData(res.registry, res.space_u0, res.dim_u,
                         [Divisor("E1", 2, 1, boundary=True)], res.strata,
                         res.critical_values, res.restrictions, res.points)
    diags = validate_resolution(bad)
    assert any("boundary" in d for d in diags)


def test_invalid_data_raises_on_use():
    fx = fixtures.z2()
    res = fx.resolution
    bad = ResolutionData(res.registry, res.space_u0, res.dim_u,
                         [Divisor("E1", 2, 1, boundary=True)], res.strata)
    with pytest.raises(ValidationFailed):
        zeta_function(bad)


# -- the z^2 regression -------------------------------------------------------------


def test_z2_zeta_closed_form():
    fx = fixtures.z2()
    z = zeta_function(fx.resolution)
    want = RationalMotive("X0", [
        RatTerm(symbol_motive(fx.registry, "mu2"), ((2, 1),))])
    assert z == want
    assert z.text() == "(1 - L^(1/2)) * (L^-1 T^2)/(1 - L^-1 T^2)"


def test_z2_series_hand_expansion():
    # geometric series by hand: [mu2] L^-1 T^2 + [mu2] L^-2 T^4 + ...
    fx = fixtures.z2()
    reg = fx.registry
    mu2 = symbol_motive(reg, "mu2")
    series = expand_series(zeta_function(fx.resolution), 4, reg)
    zero = Motive.zero(reg, "X0")
    assert series == [zero, zero, mu2.scale(HalfLaurent.power(-2)), zero,
                      mu2.scale(HalfLaurent.power(-4))]


def test_series_order_zero_is_single_zero():
    fx = fixtures.z2()
    series = expand_series(zeta_function(fx.resolution), 0, fx.registry)
    assert len(series) == 1 and series[0].is_zero()


def test_empty_rational_motive_expands_to_zeros():
    fx = fixtures.z2()
    series = expand_series(RationalMotive("X0", []), 5, fx.registry)
    assert len(series) == 6 and all(m.is_zero() for m in series)
    assert RationalMotive("X0", []).text() == "0"


def test_z2_nearby_and_vanishing():
    fx = fixtures.z2()
    reg = fx.registry
    assert nearby_cycle(fx.resolution) == symbol_motive(reg, "mu2")
    assert vanishing_cycle(fx.resolution) == Motive.one(reg, "X0")


def test_constant_function_marker():
    reg = fixtures.z2().registry
    res = ResolutionData(reg, "X0", 3, constant=True,
                         restrictions={"0": RestrictionTable("X0", {})})
    assert nearby_cycle(res).is_zero()
    # normalized ambient class survives: L^(-3/2)
    assert vanishing_cycle(res) == Motive.half_power(reg, "X0", -3)


def test_z3_nearby_is_opaque_cover():
    fx = fixtures.z3()
    assert nearby_cycle(fx.resolution) == symbol_motive(fx.registry, "mu3")
    assert fx.registry.symbol("mu3").order == 3


def test_two_disjoint_simple_divisors_sum_without_joint_factor():
    reg = fixtures.z2().registry
    one = Motive.one(reg, "X0")
    res = ResolutionData(
        reg, "X0", 1,
        divisors=[Divisor("D1", 1, 1), Divisor("D2", 1, 1)],
        strata={frozenset({"D1"}): Stratum(one, 1),
                frozenset({"D2"}): Stratum(one, 1)})
    z = zeta_function(res)
    assert z == RationalMotive("X0", [RatTerm(one, ((1, 1),)),
                                      RatTerm(one, ((1, 1),))])
    # equal factor multisets combine: a single term with coefficient 2
    assert len(z.terms) == 1
    assert z.terms[0].coeff == one.scale(2)


# -- the cylinder pair ------------------------------------------------------------------


def test_cylinder_vanishing_cycles_separate():
    reg, plain, twisted = fixtures.cylinder_pair()
    p1 = generator(reg, "Gm", "p1")
    v_plain = vanishing_cycle(plain)
    v_twisted = vanishing_cycle(twisted)
    assert v_plain == Motive.half_power(reg, "Gm", -1)
    assert v_twisted == Motive.half_power(reg, "Gm", -1).odot(upsilon(reg, p1))
    assert v_plain != v_twisted


def test_cylinder_etale_invariance_after_pullback():
    # both classes pull back to L^(-1/2) on the common double cover, where
    # the square-root torsor trivializes
    reg, plain, twisted = fixtures.cylinder_pair()
    got_plain = pullback(reg, "sq", vanishing_cycle(plain))
    got_twisted = pullback(reg, "sq", vanishing_cycle(twisted))
    assert got_plain == got_twisted == Motive.half_power(reg, "GmW", -1)


def test_cylinder_pointwise_classes_agree():
    # restricting the twisted cover to one point trivializes it, so the two
    # functions are pointwise indistinguishable; the normalized value at a
    # point of the two-dimensional chart is L^(-1/2)
    reg, plain, twisted = fixtures.cylinder_pair()
    m_plain = milnor_fibre_at(plain, "y0")
    m_twisted = milnor_fibre_at(twisted, "y0")
    assert m_plain == m_twisted == Motive.half_power(reg, POINT, -1)


def test_milnor_missing_point_table():
    reg, plain, _ = fixtures.cylinder_pair()
    with pytest.raises(MissingRestriction):
        milnor_fibre_at(plain, "unknown-point")


def test_vanishing_missing_restriction():
    fx = fixtures.z2()
    res = fx.resolution
    bare = ResolutionData(res.registry, res.space_u0, res.dim_u, res.divisors,
                          res.strata, ["0"], {}, res.points)
    with pytest.raises(MissingRestriction):
        vanishing_cycle(bare)


# -- support argument on the plane fixture ----------------------------------------------


def test_per_critical_value_tables_drive_the_slice():
    # two declared critical values with separate restriction tables: the
    # stratum lies over c = 0 only, so the c = 1 slice sees nothing
    fx = fixtures.z2()
    reg = fx.registry
    res = fx.resolution
    cls = next(iter(res.strata.values())).cls
    multi = ResolutionData(
        reg, res.space_u0, res.dim_u, res.divisors, res.strata,
        ["0", "1"],
        {"0": RestrictionTable("X0", {frozenset({"E1"}): cls}),
         "1": RestrictionTable("X0", {frozenset({"E1"}):
                                      Motive.zero(reg, "X0")})},
        res.points)
    assert vanishing_cycle(multi, "0") == Motive.one(reg, "X0")
    assert vanishing_cycle(multi, "1") == Motive.half_power(reg, "X0", -1)
    with pytest.raises(MissingRestriction):
        vanishing_cycle(multi, "2")


def test_plane_vanishing_drops_boundary_strata():
    fx = fixtures.x2y_plane()
    reg = fx.registry
    v = vanishing_cycle(fx.resolution)
    # value: L^(-1/2) Y(p) on the open torus part plus 1 on the origin
    want = Motive(reg, "X0l", {
        (("GmX0",), 1): HalfLaurent.power(-1),
        (("ptX0",), 0): ONE,
    })
    assert v == want
    for (mon, _bits), _c in v.terms():
        assert "axY" not in mon


def test_plane_milnor_values():
    fx = fixtures.x2y_plane()
    reg = fx.registry
    assert milnor_fibre_at(fx.resolution, "origin") == Motive.one(reg, POINT)
    assert milnor_fibre_at(fx.resolution, "y0") == \
        Motive.half_power(reg, POINT, -1)
    # smooth point of the zero fibre away from the critical locus
    assert milnor_fibre_at(fx.resolution, "x0").is_zero()


# -- resolution independence (same function, two resolutions) ------------------------------


def test_redundant_blowup_same_nearby_and_vanishing():
    reg, plain, blowup = fixtures.redundant_blowup_pair()
    assert zeta_function(plain) != zeta_function(blowup)
    assert nearby_cycle(plain) == nearby_cycle(blowup)
    assert vanishing_cycle(plain) == vanishing_cycle(blowup)


# -- limit/series consistency ----------------------------------------------------------------


def test_two_factor_expansion_against_double_loop():
    # independent expansion of a product of two factors: the T^d coefficient
    # of f(2,1) f(2,2) is sum over j1, j2 >= 1 with 2 j1 + 2 j2 = d of
    # L^(-j1 - 2 j2); checked to order 60
    reg, _plain, blowup = fixtures.redundant_blowup_pair()
    z = zeta_function(blowup)
    joint = [t for t in z.terms if t.factors == ((2, 1), (2, 2))]
    assert len(joint) == 1
    single = RationalMotive("line0", [joint[0]])
    series = expand_series(single, 60, reg)
    for d in range(61):
        brute = HalfLaurent.zero()
        for j1 in range(1, d):
            for j2 in range(1, d):
                if 2 * j1 + 2 * j2 == d:
                    brute = brute + HalfLaurent.power(-2 * (j1 + 2 * j2))
        assert series[d] == joint[0].coeff.scale(brute)


def _enumerated_series(factors, k: int) -> dict[int, dict[int, int]]:
    """degree n -> {doubled L-exponent: count} over the tuples j_i >= 1
    with sum j_i N_i = n <= k, each contributing L^(-sum j_i nu_i)."""
    out: dict[int, dict[int, int]] = {}

    def walk(i, deg, k2):
        if i == len(factors):
            poly = out.setdefault(deg, {})
            poly[k2] = poly.get(k2, 0) + 1
            return
        N, nu = factors[i]
        for j in range(1, (k - deg) // N + 1):
            walk(i + 1, deg + j * N, k2 - 2 * j * nu)

    walk(0, 0, 0)
    return out


_factor = st.tuples(st.integers(1, 4), st.integers(1, 4))
_rat_terms = st.lists(
    st.tuples(st.lists(_factor, max_size=4), st.integers(-3, 3),
              st.integers(-2, 2), st.integers(0, 3)),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_rat_terms, st.integers(0, 25))
def test_factor_series_against_enumeration(spec, k):
    reg = Registry()
    reg.declare_space("U", dim=1)
    reg.declare_generators("U", ("a", "b"))
    terms = [RatTerm(Motive.coefficient(reg, "U", HalfLaurent.power(k2, c))
                     .odot(upsilon(reg, BundleClass("U", bits))),
                     tuple(factors))
             for factors, c, k2, bits in spec]
    z = RationalMotive("U", terms)
    series = expand_series(z, k, reg)
    assert len(series) == k + 1
    enumerated = [_enumerated_series(t.factors, k) for t in terms]
    for n in range(k + 1):
        want = Motive.zero(reg, "U")
        for t, polys in zip(terms, enumerated):
            want = want + t.coeff.scale(HalfLaurent(polys.get(n, {})))
        assert series[n] == want
    want = Motive.zero(reg, "U")
    for t in terms:
        want = want + t.coeff.scale((-1) ** len(t.factors))
    assert inverse_series_constant_term(z, reg) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(_factor, min_size=1, max_size=5), st.integers(0, 14),
       st.integers(1, 8), st.booleans())
def test_shared_prefix_series_against_enumeration(divisors, k, step, down):
    # one term per nonempty subset of one divisor list, repeated (N, nu)
    # pairs allowed: the terms of one (monomial, bits) group carry many
    # factor tuples, some with a repeated factor, so the group's common
    # denominator takes each (N, nu) to its largest multiplicity; the same
    # z expanded at two orders in a row fails if anything built for one
    # order leaks into the other
    reg = Registry()
    reg.declare_space("U", dim=1)
    reg.declare_generators("U", ("a",))
    terms = []
    for mask in range(1, 1 << len(divisors)):
        picked = [d for i, d in enumerate(divisors) if mask >> i & 1]
        coeff = Motive.coefficient(reg, "U", HalfLaurent.power(mask % 5 - 2,
                                                               1 + mask % 3))
        terms.append(RatTerm(coeff.odot(upsilon(reg, BundleClass("U", mask & 1))),
                             tuple(picked)))
    z = RationalMotive("U", terms)
    orders = (k + step, k) if down else (k, k + step)
    for order in orders:
        series = expand_series(z, order, reg)
        assert len(series) == order + 1
        enumerated = [_enumerated_series(t.factors, order) for t in z.terms]
        for n in range(order + 1):
            want = Motive.zero(reg, "U")
            for t, polys in zip(z.terms, enumerated):
                want = want + t.coeff.scale(HalfLaurent(polys.get(n, {})))
            assert series[n] == want, (order, n)
    want = Motive.zero(reg, "U")
    for t in z.terms:
        want = want + t.coeff.scale((-1) ** len(t.factors))
    assert inverse_series_constant_term(z, reg) == want


@pytest.mark.parametrize("k", [2, 3])
def test_foreign_coefficient_refused_below_its_lowest_degree(k):
    # the term's series starts at T^3; its coefficient lives on another
    # registry, which is refused whatever the order
    reg = _registry()
    foreign = _registry()
    coeff = Motive.coefficient(foreign, "U", HalfLaurent.const(1))
    z = RationalMotive("U", [RatTerm(coeff, ((3, 1),))])
    with pytest.raises(RegistryError, match="different registries"):
        expand_series(z, k, reg)


def test_inverse_series_constant_term_is_minus_nearby():
    for builder in (fixtures.z2, fixtures.z3, fixtures.z4, fixtures.x2y,
                    fixtures.x2y_plane):
        fx = builder()
        z = zeta_function(fx.resolution)
        assert inverse_series_constant_term(z, fx.registry) == \
            -nearby_cycle(fx.resolution)


# -- grouped expansion ---------------------------------------------------------------------


def _registry() -> Registry:
    """Space U with two generators, two plain symbols and opaque mu3, mu4."""
    reg = Registry()
    reg.declare_space("U", dim=3)
    reg.declare_generators("U", ("a", "b"))
    reg.declare_symbol("A", "U")
    reg.declare_symbol("B", "U")
    reg.declare_symbol("mu3", "U", 3)
    reg.declare_symbol("mu4", "U", 4)
    return reg


_MONOMIALS = ((), ("A",), ("B",), ("A", "B"), ("mu3",), ("A", "mu3"))
_coeff_terms = st.lists(
    st.tuples(st.sampled_from(_MONOMIALS), st.integers(0, 3),
              st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                              min_size=1, max_size=3)),
    min_size=1, max_size=5)


def _expected_series(reg, terms, k: int) -> list[Motive]:
    """sum over the terms of coeff . (enumerated series), degree by degree."""
    want = [Motive.zero(reg, "U") for _ in range(k + 1)]
    for t in terms:
        for n, poly in _enumerated_series(t.factors, k).items():
            want[n] = want[n] + t.coeff.scale(HalfLaurent(poly))
    return want


def _assert_no_stored_zero(series) -> None:
    for m in series:
        assert all(c for c in m._flat.values()), m._flat


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_factor, min_size=1, max_size=3), min_size=1,
                max_size=3),
       st.lists(st.tuples(_coeff_terms, st.integers(0, 5)), min_size=1,
                max_size=5),
       st.integers(0, 16))
def test_grouped_expansion_against_enumeration(pool, spec, k):
    # several-term coefficients over plain and opaque monomials, bundle bits
    # and L-exponents; a term picks a factor tuple from a small shared pool
    # (index < len(pool)) or gets one of its own, so RationalMotive merges
    # some terms and the degrees add others on the same (monomial, bits)
    reg = _registry()
    terms = []
    for i, (cterms, pick) in enumerate(spec):
        coeff = Motive(reg, "U", [((mon, bits), HalfLaurent(poly))
                                  for mon, bits, poly in cterms])
        factors = pool[pick] if pick < len(pool) else [(1 + i % 4, 1 + pick % 3)]
        terms.append(RatTerm(coeff, tuple(factors)))
    series = expand_series(RationalMotive("U", terms), k, reg)
    assert series == _expected_series(reg, terms, k)
    _assert_no_stored_zero(series)


def test_grouped_expansion_drops_cancelled_strata():
    # c . L^-1 T / (1 - L^-1 T) and -L^-1 c . L^-1 T^2 / (1 - L^-1 T^2) cancel
    # at T^2, where a third stratum leaves [mu3] L^-2 on another group
    reg = _registry()
    c = Motive(reg, "U", [((("A",), 1), ONE), (((), 0), ONE - HALF)])
    mu3 = symbol_motive(reg, "mu3")
    terms = [RatTerm(c, ((1, 1),)),
             RatTerm(c.scale(HalfLaurent.power(-2, -1)), ((2, 1),)),
             RatTerm(mu3, ((2, 2),))]
    series = expand_series(RationalMotive("U", terms), 6, reg)
    assert series[2] == mu3.scale(HalfLaurent.power(-4))
    assert series[2]._flat == {(("mu3",), 0, -4): 1}
    assert series == _expected_series(reg, terms, 6)
    _assert_no_stored_zero(series)
    # without the third stratum the whole degree cancels
    series = expand_series(RationalMotive("U", terms[:2]), 2, reg)
    assert series[2].is_zero() and series[2]._flat == {}


# -- the nearby cycle against its definition ----------------------------------------------------


def _nearby_by_definition(r) -> Motive:
    """Minus the large-T limit: each zeta term's coefficient times
    (-1)^(m+1), m its number of factors."""
    want = Motive.zero(r.registry, r.space_u0)
    for t in zeta_function(r).terms:
        want = want + t.coeff.scale((-1) ** (len(t.factors) + 1))
    return want


def _fixture_resolutions():
    for name in fixtures.FIXTURE_NAMES:
        job = parse_job(fixtures.load_fixture_job(name))
        if job.kind == "resolution":
            yield name, job.payload
        elif job.kind == "arc-check":
            yield name, job.payload[1]
    _, plain, twisted = fixtures.cylinder_pair()
    yield "cylinder_plain", plain
    yield "cylinder_twisted", twisted


@pytest.mark.parametrize("res", [pytest.param(res, id=name) for name, res
                                 in _fixture_resolutions()])
def test_nearby_cycle_is_its_definition_on_fixtures(res):
    assert nearby_cycle(res) == _nearby_by_definition(res)


@st.composite
def resolutions(draw):
    """Resolution data over ``_registry``: divisors with N in 1..4 and
    nu in 1..3 (repeated (N, nu) pairs allowed, so zeta terms merge), a class
    per drawn stratum whose visible monodromy fits its cover order, and,
    now and then, one broken invariant."""
    reg = _registry()
    divisors = [Divisor(f"E{i}", draw(st.integers(1, 4)), draw(st.integers(1, 3)))
                for i in range(draw(st.integers(1, 4)))]
    strata = {}
    for mask in range(1, 1 << len(divisors)):
        if not draw(st.booleans()):
            continue
        picked = [d for i, d in enumerate(divisors) if mask >> i & 1]
        m = 0
        for d in picked:
            m = gcd(m, d.N)
        terms = [(((("A",) * draw(st.integers(0, 1))), 0),
                  HalfLaurent.power(2 * draw(st.integers(-2, 2)),
                                    draw(st.integers(-2, 2))))]
        if m == 2:
            terms.append((((), draw(st.integers(0, 3))),
                          HalfLaurent.power(draw(st.integers(-3, 3)))))
        if m >= 3:
            terms.append(((("mu3" if m == 3 else "mu4",), draw(st.integers(0, 3))),
                          HalfLaurent.power(draw(st.integers(-3, 3)),
                                            draw(st.sampled_from([-1, 1])))))
        strata[frozenset(d.id for d in picked)] = Stratum(
            Motive(reg, "U", terms), m)
    res = ResolutionData(reg, "U", 3, divisors, strata)
    broken = draw(st.sampled_from(["none"] * 4 + ["order", "boundary", "constant"]))
    if broken == "order" and strata:
        key = next(iter(strata))
        strata[key] = Stratum(strata[key].cls, strata[key].cover_order + 1)
    elif broken == "boundary":
        res.divisors[0] = Divisor("E0", divisors[0].N + 1, 1, boundary=True)
    elif broken == "constant":
        res.constant = True
    return res


@settings(max_examples=80, deadline=None)
@given(resolutions())
def test_nearby_cycle_is_its_definition(res):
    diags = validate_resolution(res)
    if diags:
        with pytest.raises(ValidationFailed) as exc:
            nearby_cycle(res)
        assert exc.value.diagnostics == diags
        return
    assert nearby_cycle(res) == _nearby_by_definition(res)


def test_nearby_cycle_of_constant_data():
    reg = _registry()
    res = ResolutionData(reg, "U", 3, constant=True)
    assert nearby_cycle(res).is_zero() and _nearby_by_definition(res).is_zero()
    bad = ResolutionData(reg, "U", 3, [Divisor("E1", 1, 1)], constant=True)
    with pytest.raises(ValidationFailed) as exc:
        nearby_cycle(bad)
    assert exc.value.diagnostics == validate_resolution(bad) == [
        "constant-function data cannot carry divisors"]
