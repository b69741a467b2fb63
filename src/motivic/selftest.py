"""Self-contained invariant suite and regression battery.

Runs the identities the library is built on, against the shipped fixtures,
with no test-framework dependency.  Exit status of the CLI ``selftest``
command is 0 iff every check passes.
"""

from __future__ import annotations

import random

from . import arcs, dcrit, fixtures, localize, stabilize, zeta
from .bundles import BundleClass, bundle_tensor, generator
from .errors import DescentFailure, OdotUndecidable
from .halflaurent import HalfLaurent
from .motive import (Motive, mot_boxdot, mot_dot, mot_equal, pullback,
                     symbol_motive, upsilon)
from .registry import POINT, Registry

ONE = HalfLaurent.const(1)
L = HalfLaurent.L()


def _require(holds: bool, message: str = "") -> None:
    """Fail the running check unless ``holds``; unlike ``assert``, this
    still runs under ``python -O``."""
    if not holds:
        raise AssertionError(message)


def _check_square_root_law():
    fx = fixtures.z2()
    reg = fx.registry
    for m in range(-20, 21):
        for n in range(-20, 21):
            a = Motive.half_power(reg, "X0", m)
            b = Motive.half_power(reg, "X0", n)
            _require(a.odot(b) == Motive.half_power(reg, "X0", m + n))


def _check_z2_regression():
    fx = fixtures.z2()
    reg = fx.registry
    z = zeta.zeta_function(fx.resolution)
    _require(len(z.terms) == 1 and z.terms[0].factors == ((2, 1),))
    _require(z.terms[0].coeff == symbol_motive(reg, "mu2"))
    _require(zeta.nearby_cycle(fx.resolution) == symbol_motive(reg, "mu2"))
    _require(zeta.vanishing_cycle(fx.resolution) == Motive.one(reg, "X0"))
    _require(zeta.milnor_fibre_at(fx.resolution, "0")
             == Motive.one(reg, POINT))


def _check_opaque_covers():
    for builder, name in ((fixtures.z3, "mu3"), (fixtures.z4, "mu4")):
        fx = builder()
        _require(zeta.nearby_cycle(fx.resolution)
                 == symbol_motive(fx.registry, name))


def _check_arc_oracle():
    for builder in (fixtures.z2, fixtures.z3, fixtures.z4, fixtures.x2y):
        fx = builder()
        oracle = arcs.zeta_truncated(fx.monomial, 12, fx.context)
        series = zeta.expand_series(zeta.zeta_function(fx.resolution), 12,
                                    fx.registry)
        _require(oracle == series,
                 f"arc oracle mismatch for {builder.__name__}")


def _check_chart_separation():
    reg, plain, twisted = fixtures.cylinder_pair()
    v_plain = zeta.vanishing_cycle(plain)
    v_twisted = zeta.vanishing_cycle(twisted)
    p1 = generator(reg, "Gm", "p1")
    _require(v_plain == Motive.half_power(reg, "Gm", -1))
    _require(v_twisted
             == Motive.half_power(reg, "Gm", -1).odot(upsilon(reg, p1)))
    _require(not mot_equal(v_plain, v_twisted))
    # etale pullback to the common double cover identifies the two classes
    _require(pullback(reg, "sq", v_plain) == pullback(reg, "sq", v_twisted))
    # pointwise both normalize to the same class
    m_plain = zeta.milnor_fibre_at(plain, "y0")
    m_twisted = zeta.milnor_fibre_at(twisted, "y0")
    _require(m_plain == m_twisted == Motive.half_power(reg, POINT, -1))


def _check_exterior_sums():
    reg, factors, _last = fixtures.ts_chain(10)
    out = factors[0]
    for m in factors[1:]:
        out = mot_boxdot(out, m)
        _require(out.is_one())
    # a twisted factor scales the product exactly once
    reg2 = Registry()
    reg2.declare_space("A", dim=1)
    reg2.declare_space("B", dim=0)
    reg2.declare_product("AB", "A", "B")
    half_a = Motive.half_power(reg2, "A", -1)
    one_b = Motive.one(reg2, "B")
    _require(mot_boxdot(half_a, one_b) == Motive.half_power(reg2, "AB", -1))


def _check_quadratic_laws():
    rng = random.Random(7)
    reg = Registry()
    reg.declare_space("B", dim=3)
    reg.declare_generators("B", ("e1", "e2", "e3"))
    for _ in range(200):
        bits = rng.randrange(8)
        det = BundleClass("B", bits)
        values = {stabilize.quadratic_form_motive(
            reg, stabilize.QuadraticBundleDatum("B", r, det)).text()
            for r in range(1, 7)}
        _require(len(values) == 1)
        mf = upsilon(reg, BundleClass("B", rng.randrange(8))).scale(
            HalfLaurent.power(rng.randrange(-4, 5)))
        d = stabilize.QuadraticBundleDatum("B", 1 + rng.randrange(6), det)
        twisted = stabilize.twist_by_quadratic(mf, d)
        _require(twisted == mf.odot(upsilon(reg, det)))
        _require(stabilize.twist_by_quadratic(twisted, d) == mf)


def _check_upsilon_group_law():
    rng = random.Random(11)
    reg = Registry()
    reg.declare_space("S", dim=1)
    reg.declare_generators("S", tuple(f"g{i}" for i in range(8)))
    for _ in range(500):
        p = BundleClass("S", rng.randrange(256))
        q = BundleClass("S", rng.randrange(256))
        _require(upsilon(reg, p).odot(upsilon(reg, q))
                 == upsilon(reg, bundle_tensor(p, q)))
        _require(upsilon(reg, p).odot(upsilon(reg, p)).is_one())


def _check_resolution_independence():
    reg, plain, blowup = fixtures.redundant_blowup_pair()
    _require(zeta.nearby_cycle(plain) == zeta.nearby_cycle(blowup))
    _require(zeta.vanishing_cycle(plain) == zeta.vanishing_cycle(blowup))


def _check_support_argument():
    fx = fixtures.x2y_plane()
    reg = fx.registry
    v = zeta.vanishing_cycle(fx.resolution)
    # boundary-branch symbols must not survive
    for (mon, _bits), _c in v.terms():
        _require("axY" not in mon and "axX" not in mon)
    _require(zeta.milnor_fibre_at(fx.resolution, "origin")
             == Motive.one(reg, POINT))
    _require(zeta.milnor_fibre_at(fx.resolution, "y0")
             == Motive.half_power(reg, POINT, -1))
    _require(zeta.milnor_fibre_at(fx.resolution, "x0").is_zero())


def _check_limit_consistency():
    for builder in (fixtures.z2, fixtures.z3, fixtures.x2y):
        fx = builder()
        z = zeta.zeta_function(fx.resolution)
        const = zeta.inverse_series_constant_term(z, fx.registry)
        _require(const == -zeta.nearby_cycle(fx.resolution))


def _check_gluing():
    fx = fixtures.atlas_z2()
    glued = dcrit.glue(fx.atlas)
    _require(glued.values["R0"].is_one())

    fx = fixtures.atlas_cylinder()
    reg = fx.registry
    glued = dcrit.glue(fx.atlas)
    want = Motive.half_power(reg, "Gm", -1)
    _require(glued.values["R"] == want)
    total = dcrit.pushforward_to_point(fx.atlas, glued)
    _require(total == Motive.coefficient(reg, POINT,
                                         HalfLaurent.power(-1) * (L - ONE)))
    # flipping a single orientation bit must break descent
    p1 = generator(reg, "Gm", "p1")
    bad = fx.atlas.tensor_orientations({"R": p1})
    bad.charts[0] = dcrit.CriticalChart(
        "cA", "R", 2, bad.charts[0].mf, bad.charts[0].q.tensor(p1))
    try:
        dcrit.glue(bad)
    except DescentFailure:
        pass
    else:
        raise AssertionError("perturbed atlas glued")


def _check_orientation_covariance():
    fx = fixtures.atlas_cylinder()
    reg = fx.registry
    p1 = generator(reg, "Gm", "p1")
    base = dcrit.glue(fx.atlas)
    shifted = dcrit.glue(fx.atlas.tensor_orientations({"R": p1}))
    for region, value in base.values.items():
        _require(shifted.values[region] == value.odot(upsilon(reg, p1)))


def _check_localization():
    fx = fixtures.localize_z1z2()
    ok, _ = localize.localization_check(fx.registry, fx.components, fx.direct)
    _require(ok)
    fx2 = fixtures.localize_two_points()
    glued = dcrit.glue(fx2.direct_atlas)
    direct = dcrit.pushforward_to_point(fx2.direct_atlas, glued)
    total = localize.localize_sum(fx2.registry, fx2.components)
    _require(total == direct)
    _require(total == Motive.coefficient(
        fx2.registry, POINT, HalfLaurent.power(-1, 2)))


def _check_ring_laws():
    rng = random.Random(23)
    reg = Registry()
    reg.declare_space("S", dim=2)
    reg.declare_generators("S", ("g0", "g1", "g2"))
    reg.declare_symbol("A", "S", 1)
    reg.declare_symbol("B", "S", 1)

    def rand_motive():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mon = tuple(sorted(rng.choice(((), ("A",), ("B",), ("A", "B"))))
                        )
            bits = rng.randrange(8)
            coeff = HalfLaurent({rng.randrange(-6, 7): rng.randrange(-9, 10)})
            key = (mon, bits)
            terms[key] = terms.get(key, HalfLaurent.zero()) + coeff
        return Motive(reg, "S", terms)

    ell = Motive.coefficient(reg, "S", L)
    for _ in range(200):
        a, b, c = rand_motive(), rand_motive(), rand_motive()
        _require(a.odot(b) == b.odot(a))
        _require(a.odot(b.odot(c)) == a.odot(b).odot(c))
        _require(a.odot(b + c) == a.odot(b) + a.odot(c))
        _require(mot_dot(a, ell) == a.odot(ell))
        _require(a.normalized() == a)


def _check_undecidable_fails_loudly():
    fx = fixtures.z3()
    mu3 = symbol_motive(fx.registry, "mu3")
    try:
        mu3.odot(mu3)
    except OdotUndecidable:
        return
    raise AssertionError("opaque product did not fail")


CHECKS = [
    ("square-root law", _check_square_root_law),
    ("z^2 regression", _check_z2_regression),
    ("opaque cover classes", _check_opaque_covers),
    ("arc-oracle equivalence", _check_arc_oracle),
    ("chart separation", _check_chart_separation),
    ("exterior sums", _check_exterior_sums),
    ("quadratic-form laws", _check_quadratic_laws),
    ("bundle-unit group law", _check_upsilon_group_law),
    ("resolution independence", _check_resolution_independence),
    ("support argument", _check_support_argument),
    ("limit/series consistency", _check_limit_consistency),
    ("descent gluing", _check_gluing),
    ("orientation covariance", _check_orientation_covariance),
    ("torus localization", _check_localization),
    ("ring laws", _check_ring_laws),
    ("fragment boundary", _check_undecidable_fails_loudly),
]


def run_selftest(verbose: bool = True) -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"ok   {name}")
    if verbose:
        print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
