"""Virtual indices and the torus localization sum."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import (FixedComponentDatum, HalfLaurent, Motive, Registry,
                     ValidationFailed, ZeroWeight, fixtures, glue,
                     localization_check, localize_sum, pushforward_to_point,
                     virtual_index)
from motivic.registry import POINT


def test_virtual_index_examples():
    assert virtual_index([1, -1]) == 0
    assert virtual_index([2, 3]) == 2
    assert virtual_index([1, 1, -2]) == 1


def test_virtual_index_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        virtual_index([1, 0, -1])


def test_virtual_index_permutation_and_cancelling_pairs():
    rng = random.Random(61)
    for _ in range(300):
        ws = [rng.choice([-3, -2, -1, 1, 2, 3])
              for _ in range(rng.randrange(0, 6))]
        shuffled = list(ws)
        rng.shuffle(shuffled)
        assert virtual_index(ws) == virtual_index(shuffled)
        w = rng.choice([1, 2, 5])
        assert virtual_index(ws + [w, -w]) == virtual_index(ws)


def test_localize_sum_isolated_points():
    reg = Registry()
    comps = [FixedComponentDatum("a", (1,)), FixedComponentDatum("b", (2, 3))]
    total = localize_sum(reg, comps)
    want = Motive.coefficient(reg, POINT,
                              HalfLaurent.power(-1) + HalfLaurent.power(-2))
    assert total == want


def test_localize_sum_empty_is_zero():
    reg = Registry()
    assert localize_sum(reg, []).is_zero()


def test_localize_sum_additive_over_unions():
    reg = Registry()
    rng = random.Random(67)
    for _ in range(100):
        comps = [FixedComponentDatum(f"c{i}",
                                     tuple(rng.choice([-2, -1, 1, 2])
                                           for _ in range(rng.randrange(0, 4))))
                 for i in range(4)]
        total = localize_sum(reg, comps)
        split = localize_sum(reg, comps[:2]) + localize_sum(reg, comps[2:])
        assert total == split


def test_z1z2_fixture_passes():
    fx = fixtures.localize_z1z2()
    total = localize_sum(fx.registry, fx.components)
    assert total.is_one()
    ok, diff = localization_check(fx.registry, fx.components, fx.direct)
    assert ok, diff


def test_components_that_assert_false_are_refused():
    # the formula needs a good, circle-compact action: one line per
    # component naming its false flags, from the sum and from the check
    fx = fixtures.localize_two_points()
    a, b = fx.components
    comps = [FixedComponentDatum(a.id, a.weights, a.motive, good=False),
             FixedComponentDatum(b.id, b.weights, b.motive, False, False)]
    want = [f"component {a.id!r} asserts false: good",
            f"component {b.id!r} asserts false: good, circle_compact"]
    with pytest.raises(ValidationFailed) as exc:
        localize_sum(fx.registry, comps)
    assert exc.value.diagnostics == want
    with pytest.raises(ValidationFailed) as exc:
        localization_check(fx.registry, comps[1:], fx.direct)
    assert exc.value.diagnostics == want[1:]
    alone = FixedComponentDatum(a.id, a.weights, a.motive, circle_compact=False)
    with pytest.raises(ValidationFailed, match="asserts false: circle_compact$"):
        localize_sum(fx.registry, [alone])


def test_weight_perturbation_fails_with_half_power_diff():
    fx = fixtures.localize_z1z2()
    perturbed = [FixedComponentDatum("origin", (1,))]  # index 1 instead of 0
    ok, diff = localization_check(fx.registry, perturbed, fx.direct)
    assert not ok
    assert "L^(-1/2)" in diff and "1" in diff


def test_two_point_fixture_against_direct_atlas():
    fx = fixtures.localize_two_points()
    total = localize_sum(fx.registry, fx.components)
    assert total == Motive.coefficient(fx.registry, POINT,
                                       HalfLaurent.power(-1, 2))
    glued = glue(fx.direct_atlas)
    direct = pushforward_to_point(fx.direct_atlas, glued)
    ok, diff = localization_check(fx.registry, fx.components, direct)
    assert ok, diff


# -- Hilb^n(C^2): fixed points are the partitions of n ---------------------------


def partitions(n, largest=None):
    """The partitions of ``n`` as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def hilb_tangent_weights(lam, w1, w2):
    """Weights of sigma = (w1, w2) on T_{I_lam} Hilb^n(C^2): for each box s,
    t1^(-l(s)) t2^(a(s)+1) and t1^(l(s)+1) t2^(-a(s)) (arm a, leg l)."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    weights = []
    for i, row in enumerate(lam):
        for j in range(row):
            arm, leg = row - j - 1, cols[j] - i - 1
            weights += [-leg * w1 + (arm + 1) * w2, (leg + 1) * w1 - arm * w2]
    return weights


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(-60, 60), st.integers(-60, 60))
def test_hilbert_scheme_of_the_plane_localizes_by_quadrant(n, w1, w2):
    # Ellingsrud-Stromme / Goettsche: [Hilb^n(C^2)] = sum_lam L^(n + l(lam)),
    # so the sum is sum_lam L^(-l(lam)) for sigma in the open positive
    # quadrant, sum_lam L^(l(lam)) in the negative one, and p(n) for mixed
    # signs, where every tangent pair has one weight of each sign
    reg = Registry()
    lams = list(partitions(n))
    comps = [FixedComponentDatum(str(lam), tuple(hilb_tangent_weights(lam, w1, w2)))
             for lam in lams]
    if any(w == 0 for comp in comps for w in comp.weights):
        with pytest.raises(ZeroWeight):
            localize_sum(reg, comps)
        return
    assert w1 and w2
    if w1 * w2 < 0:
        want = HalfLaurent.const(len(lams))
    else:
        sign = -1 if w1 > 0 else 1
        want = sum((HalfLaurent.power(2 * sign * len(lam)) for lam in lams),
                   HalfLaurent.const(0))
    assert localize_sum(reg, comps) == Motive.coefficient(reg, POINT, want)
