"""Shipped fixtures: the standard examples as registries plus payloads.

Each builder returns everything a test or CLI job needs: the registry, the
resolution/atlas/fixed-point data, and (where applicable) the matching
arc-oracle context.  The same data is shipped bit-for-bit as JSON job files
next to this module; ``python -m motivic.fixtures --write DIR`` regenerates
them and the test suite asserts they never drift.

Naming conventions used throughout:

* ``K`` is the absolute point;
* cyclic covers of order n >= 3 are opaque symbols named ``mu<n>`` with
  underlying class n;
* the nontrivial square-root bundle of the torus coordinate on ``Gm`` is the
  generator ``p1``, with ``cov_y`` the corresponding cover symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arcs import ArcContext, MonomialFunction
from .bundles import BundleClass, generator
from .dcrit import Atlas, CriticalChart, OverlapDatum, ScissorPiece
from .halflaurent import HalfLaurent
from .jobs import FIXTURE_NAMES, fixture_path, load_fixture_job  # noqa: F401
from .localize import FixedComponentDatum
from .motive import Motive, symbol_motive, upsilon
from .registry import POINT, Registry
from .schemas import write_json_files, write_main
from .zeta import (Divisor, PointTable, ResolutionData, RestrictionTable,
                   Stratum)

L = HalfLaurent.L()
HALF = HalfLaurent.half()
ONE = HalfLaurent.const(1)


def _trivial_cover(reg: Registry, space: str) -> Motive:
    """1 - L^(1/2): the class of the split double cover."""
    return Motive(reg, space, {((), 0): ONE - HALF})


@dataclass
class ZetaFixture:
    registry: Registry
    resolution: ResolutionData
    monomial: Optional[MonomialFunction] = None
    context: Optional[ArcContext] = None


@dataclass
class AtlasFixture:
    registry: Registry
    atlas: Atlas


@dataclass
class LocalizeFixture:
    registry: Registry
    components: list[FixedComponentDatum]
    direct: Optional[Motive] = None
    direct_atlas: Optional[Atlas] = None


# -- one-variable monomials ---------------------------------------------------


def _single_variable(a: int) -> ZetaFixture:
    """z^a on the affine line: one divisor with N = a, nu = 1."""
    reg = Registry()
    reg.declare_space("X0", dim=0)
    if a == 2:
        reg.declare_symbol("mu2", "X0", 2,
                           underlying=Motive.coefficient(reg, "X0", HalfLaurent.const(2)),
                           cover_bits=0)
        cls = symbol_motive(reg, "mu2")
        ctx = ArcContext(reg, "X0")
    elif a >= 3:
        reg.declare_symbol(f"mu{a}", "X0", a,
                           underlying=Motive.coefficient(reg, "X0", HalfLaurent.const(a)))
        cls = symbol_motive(reg, f"mu{a}")
        ctx = ArcContext(reg, "X0", cover_symbols={a: f"mu{a}"})
    else:
        cls = Motive.one(reg, "X0")
        ctx = ArcContext(reg, "X0")
    point_cls = Motive.coefficient(reg, POINT, ONE - HALF) if a == 2 else None
    res = ResolutionData(
        reg, "X0", 1,
        divisors=[Divisor("E1", a, 1)],
        strata={frozenset({"E1"}): Stratum(cls, a)},
        critical_values=["0"],
        restrictions={"0": RestrictionTable("X0", {frozenset({"E1"}): cls})},
        points={} if point_cls is None else {
            "0": PointTable("0", {frozenset({"E1"}): point_cls})},
    )
    return ZetaFixture(reg, res, MonomialFunction((a,)), ctx)


def z2() -> ZetaFixture:
    return _single_variable(2)


def z3() -> ZetaFixture:
    return _single_variable(3)


def z4() -> ZetaFixture:
    return _single_variable(4)


# -- x^2 and x^2 y on the cylinder (the chart-dependence pair) ---------------------


def _cylinder_registry() -> Registry:
    reg = Registry()
    reg.declare_space("Gm", dim=1)
    reg.declare_generators("Gm", ("p1",))
    reg.declare_symbol("Pfib", "Gm", 1)
    reg.declare_symbol("cov_y", "Gm", 2,
                       underlying=symbol_motive(reg, "Pfib"),
                       cover_bits=1)
    # common etale cover: v |-> v^2 trivializes the square-root torsor
    reg.declare_space("GmW", dim=1)
    reg.declare_morphism("sq", "GmW", "Gm", "etale", pull_bundles={"p1": 0})
    reg.declare_square_root("Gm", "O_Gm", "canonical", 0)
    reg.declare_square_root("Gm", "lambda_y", "mult_y", 1)
    return reg


def _cylinder_resolution(reg: Registry, twisted: bool) -> ResolutionData:
    cls = symbol_motive(reg, "cov_y") if twisted else _trivial_cover(reg, "Gm")
    point_cls = Motive.coefficient(reg, POINT, ONE - HALF)
    return ResolutionData(
        reg, "Gm", 2,
        divisors=[Divisor("E1", 2, 1)],
        strata={frozenset({"E1"}): Stratum(cls, 2)},
        critical_values=["0"],
        restrictions={"0": RestrictionTable("Gm", {frozenset({"E1"}): cls})},
        points={"y0": PointTable("0", {frozenset({"E1"}): point_cls})},
    )


def x2() -> ZetaFixture:
    reg = _cylinder_registry()
    return ZetaFixture(reg, _cylinder_resolution(reg, twisted=False))


def x2y() -> ZetaFixture:
    reg = _cylinder_registry()
    return ZetaFixture(reg, _cylinder_resolution(reg, twisted=True),
                       MonomialFunction((2, 1), frozenset({1})),
                       ArcContext(reg, "Gm", ("p1",)))


def cylinder_pair() -> tuple[Registry, ResolutionData, ResolutionData]:
    """Both resolutions over one registry, for separation and etale tests."""
    reg = _cylinder_registry()
    return (reg, _cylinder_resolution(reg, twisted=False),
            _cylinder_resolution(reg, twisted=True))


# -- x^2 y on the plane: boundary divisor and the support argument ----------------


def x2y_plane() -> ZetaFixture:
    reg = Registry()
    reg.declare_space("U0xy")
    reg.declare_generators("U0xy", ("pu",))
    for name in ("axX", "axY", "orig"):
        reg.declare_symbol(name, "U0xy", 1)
    reg.declare_space("X0l", dim=1)
    reg.declare_generators("X0l", ("p",))
    reg.declare_symbol("GmX0", "X0l", 1)
    reg.declare_symbol("ptX0", "X0l", 1)

    def twisted(space: str, sym: str, gen_bits: int) -> Motive:
        return Motive(reg, space, {((sym,), 0): ONE,
                                   ((sym,), gen_bits): -HALF})

    strata = {
        frozenset({"Ex"}): Stratum(twisted("U0xy", "axX", 1), 2),
        frozenset({"Ey"}): Stratum(symbol_motive(reg, "axY"), 1),
        frozenset({"Ex", "Ey"}): Stratum(symbol_motive(reg, "orig"), 1),
    }
    ambient = symbol_motive(reg, "GmX0") + symbol_motive(reg, "ptX0")
    restriction = RestrictionTable("X0l", {
        frozenset({"Ex"}): twisted("X0l", "GmX0", 1),
        frozenset({"Ex", "Ey"}): symbol_motive(reg, "ptX0"),
    }, ambient=ambient)
    zero_k = Motive.zero(reg, POINT)
    one_k = Motive.one(reg, POINT)
    split = Motive.coefficient(reg, POINT, ONE - HALF)
    points = {
        "origin": PointTable("0", {frozenset({"Ex"}): zero_k,
                                   frozenset({"Ey"}): zero_k,
                                   frozenset({"Ex", "Ey"}): one_k}),
        "y0": PointTable("0", {frozenset({"Ex"}): split,
                               frozenset({"Ey"}): zero_k,
                               frozenset({"Ex", "Ey"}): zero_k}),
        "x0": PointTable("0", {frozenset({"Ex"}): zero_k,
                               frozenset({"Ey"}): one_k,
                               frozenset({"Ex", "Ey"}): zero_k}),
    }
    res = ResolutionData(
        reg, "U0xy", 2,
        divisors=[Divisor("Ex", 2, 1), Divisor("Ey", 1, 1, boundary=True)],
        strata=strata, critical_values=["0"],
        restrictions={"0": restriction}, points=points)
    return ZetaFixture(reg, res)


# -- the same function through two resolutions --------------------------------------


def redundant_blowup_pair() -> tuple[Registry, ResolutionData, ResolutionData]:
    """x^2 on the plane, resolved as-is and after one redundant blow-up."""
    reg = Registry()
    reg.declare_space("line0", dim=1)
    reg.declare_symbol("Gm0", "line0", 1)
    reg.declare_symbol("pt0", "line0", 1)
    gm0 = symbol_motive(reg, "Gm0")
    pt0 = symbol_motive(reg, "pt0")
    split = ONE - HALF
    ambient = gm0 + pt0

    plain = ResolutionData(
        reg, "line0", 2,
        divisors=[Divisor("E1", 2, 1)],
        strata={frozenset({"E1"}): Stratum((gm0 + pt0).scale(split), 2)},
        critical_values=["0"],
        restrictions={"0": RestrictionTable(
            "line0", {frozenset({"E1"}): (gm0 + pt0).scale(split)},
            ambient=ambient)})
    blowup = ResolutionData(
        reg, "line0", 2,
        divisors=[Divisor("Es", 2, 1), Divisor("Ee", 2, 2)],
        strata={
            frozenset({"Es"}): Stratum(gm0.scale(split), 2),
            frozenset({"Ee"}): Stratum(pt0.scale(split * L), 2),
            frozenset({"Es", "Ee"}): Stratum(pt0.scale(split), 2),
        },
        critical_values=["0"],
        restrictions={"0": RestrictionTable(
            "line0", {
                frozenset({"Es"}): gm0.scale(split),
                frozenset({"Ee"}): pt0.scale(split * L),
                frozenset({"Es", "Ee"}): pt0.scale(split),
            }, ambient=ambient)})
    return reg, plain, blowup


# -- atlases ----------------------------------------------------------------------


def atlas_z2() -> AtlasFixture:
    """Single critical chart (X, A^1, z^2, id) with trivial orientation."""
    reg = Registry()
    reg.declare_space("X0", dim=0)
    chart = CriticalChart("c0", "R0", 1, Motive.one(reg, "X0"),
                          BundleClass("X0", 0))
    scissor = [ScissorPiece("R0", {((), 0): Motive.one(reg, POINT)})]
    return AtlasFixture(reg, Atlas(reg, {"R0": "X0"}, [chart], [], True,
                                   scissor))


def atlas_cylinder() -> AtlasFixture:
    """Two charts over the torus, related by the chart-dependence pair.

    Chart A carries the untwisted class, chart B the twisted one; the
    orientation classes are chosen so the square-root cocycle holds and both
    glued values come out as L^(-1/2).
    """
    reg = _cylinder_registry()
    p1 = generator(reg, "Gm", "p1")
    zero = BundleClass("Gm", 0)
    mf_a = Motive.half_power(reg, "Gm", -1)
    mf_b = mf_a.odot(upsilon(reg, p1))
    charts = [CriticalChart("cA", "R", 2, mf_a, zero),
              CriticalChart("cB", "R", 2, mf_b, p1)]
    overlaps = [OverlapDatum("cA", "cB", "R", p_a=p1, p_b=zero, q_t=p1)]
    gm_class = Motive.coefficient(reg, POINT, L - ONE)
    scissor = [ScissorPiece("R", {((), 0): gm_class})]
    return AtlasFixture(reg, Atlas(reg, {"R": "Gm"}, charts, overlaps, True,
                                   scissor))


# -- torus localization -------------------------------------------------------------


def localize_z1z2() -> LocalizeFixture:
    """Nondegenerate binary quadratic point: weights (1, -1), index 0."""
    reg = Registry()
    comps = [FixedComponentDatum("origin", (1, -1))]
    return LocalizeFixture(reg, comps, direct=Motive.one(reg, POINT))


def localize_two_points() -> LocalizeFixture:
    """Two isolated fixed points of index 1, checked against a direct atlas."""
    reg = Registry()
    reg.declare_space("pt1", dim=0)
    reg.declare_space("pt2", dim=0)
    comps = [FixedComponentDatum("x1", (2,)), FixedComponentDatum("x2", (2,))]
    charts = [
        CriticalChart("c1", "P1", 1, Motive.half_power(reg, "pt1", -1),
                      BundleClass("pt1", 0)),
        CriticalChart("c2", "P2", 1, Motive.half_power(reg, "pt2", -1),
                      BundleClass("pt2", 0)),
    ]
    scissor = [ScissorPiece("P1", {((), 0): Motive.one(reg, POINT)}),
               ScissorPiece("P2", {((), 0): Motive.one(reg, POINT)})]
    atlas = Atlas(reg, {"P1": "pt1", "P2": "pt2"}, charts, [], True, scissor)
    return LocalizeFixture(reg, comps, direct=None, direct_atlas=atlas)


# -- exterior-sum chain ---------------------------------------------------------------


def ts_chain(n: int) -> tuple[Registry, list[Motive], str]:
    """Registry with the n-fold product of the z^2 critical point registered.

    Returns the factor classes (each the unit over ``X0``) and the name of
    the final product space.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    reg = Registry()
    reg.declare_space("X0", dim=0)
    last = "X0"
    for i in range(2, n + 1):
        name = f"T{i}"
        reg.declare_product(name, last, "X0")
        last = name
    return reg, [Motive.one(reg, "X0") for _ in range(n)], last


# -- job-file fixtures -----------------------------------------------------------------


def _job(reg: Registry, payload: dict, params: Optional[dict] = None) -> dict:
    from .serialize import JOB_SCHEMA, registry_to_json

    job = {"schema": JOB_SCHEMA, "registry": registry_to_json(reg),
           "payload": payload}
    if params:
        job["params"] = params
    return job


def fixture_job(name: str) -> dict:
    """Build the named job file content."""
    from .serialize import (atlas_to_json, fixedpoints_to_json,
                            monomial_to_json, resolution_to_json, ts_to_json)

    if name in ("z2", "z3", "z4", "x2", "x2y", "x2y_plane"):
        fx = {"z2": z2, "z3": z3, "z4": z4, "x2": x2, "x2y": x2y,
              "x2y_plane": x2y_plane}[name]()
        return _job(fx.registry, resolution_to_json(fx.resolution),
                    {"series_order": 12})
    if name in ("x2_line", "x2_line_blowup"):
        reg, plain, blowup = redundant_blowup_pair()
        res = plain if name == "x2_line" else blowup
        return _job(reg, resolution_to_json(res))
    if name.startswith("arc_"):
        fx = {"arc_z2": z2, "arc_z3": z3, "arc_z4": z4, "arc_x2y": x2y}[name]()
        payload = {"kind": "arc-check",
                   "monomial": monomial_to_json(fx.monomial, fx.context),
                   "resolution": resolution_to_json(fx.resolution)}
        return _job(fx.registry, payload, {"series_order": 12})
    if name == "atlas_z2":
        fx = atlas_z2()
        return _job(fx.registry, atlas_to_json(fx.atlas))
    if name == "atlas_cylinder":
        fx = atlas_cylinder()
        return _job(fx.registry, atlas_to_json(fx.atlas))
    if name == "localize_z1z2":
        fx = localize_z1z2()
        return _job(fx.registry,
                    fixedpoints_to_json(fx.components, fx.direct))
    if name == "localize_two_points":
        fx = localize_two_points()
        return _job(fx.registry,
                    fixedpoints_to_json(fx.components, None, fx.direct_atlas))
    if name == "ts_z2_10":
        reg, factors, _ = ts_chain(10)
        return _job(reg, ts_to_json(factors))
    raise KeyError(f"unknown fixture {name!r}")


def write_fixture_files(directory) -> None:
    write_json_files(directory, {n: fixture_job(n) for n in FIXTURE_NAMES})


if __name__ == "__main__":  # pragma: no cover
    write_main("motivic.fixtures", write_fixture_files)
