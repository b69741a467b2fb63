"""Shipped fixtures: the standard examples, read from their job files.

Each example is defined once, by its JSON job file next to this module: the
file ``--fixture NAME`` runs.  Each builder here reads its job into
everything a test or the self-test needs: the registry, the
resolution/atlas/fixed-point data, and (where applicable) the matching
arc-oracle context.  A builder that returns two resolutions reads two jobs
that ship the same registry.  Only ``ts_chain`` builds its registry in
Python, since it takes a length.

Naming conventions used throughout:

* ``K`` is the absolute point;
* cyclic covers of order n >= 3 are opaque symbols named ``mu<n>`` with
  underlying class n;
* the nontrivial square-root bundle of the torus coordinate on ``Gm`` is the
  generator ``p1``, with ``cov_y`` the corresponding cover symbol.
"""

from __future__ import annotations

from .arcs import ArcContext, MonomialFunction
from .dcrit import Atlas
from .jobs import (FIXTURE_NAMES, build_payload, fixture_path,  # noqa: F401
                   load_fixture_job)
from .localize import FixedComponentDatum
from .motive import Motive
from .registry import Record, Registry
from .serialize import registry_from_json
from .zeta import ResolutionData


class ZetaFixture(Record):
    def __init__(self, registry: Registry, resolution: ResolutionData,
                 monomial: MonomialFunction | None = None,
                 context: ArcContext | None = None):
        self.registry, self.resolution = registry, resolution
        self.monomial, self.context = monomial, context


class AtlasFixture(Record):
    def __init__(self, registry: Registry, atlas: Atlas):
        self.registry, self.atlas = registry, atlas


class LocalizeFixture(Record):
    def __init__(self, registry: Registry,
                 components: list[FixedComponentDatum],
                 direct: Motive | None = None,
                 direct_atlas: Atlas | None = None):
        self.registry, self.components = registry, components
        self.direct, self.direct_atlas = direct, direct_atlas


def _load(*names: str) -> tuple:
    """The registry of the first named job, then each named job's payload
    read over it, as ``parse_job`` reads them."""
    jobs = [load_fixture_job(name) for name in names]
    reg = registry_from_json(jobs[0]["registry"])
    return (reg, *(build_payload(reg, job["payload"])[1] for job in jobs))


# -- resolutions ------------------------------------------------------------------


def _arc(name: str) -> ZetaFixture:
    """The resolution, monomial and arc context of ``arc_<name>``."""
    reg, ((monomial, context), resolution) = _load(f"arc_{name}")
    return ZetaFixture(reg, resolution, monomial, context)


def z2() -> ZetaFixture:
    return _arc("z2")


def z3() -> ZetaFixture:
    return _arc("z3")


def z4() -> ZetaFixture:
    return _arc("z4")


def x2() -> ZetaFixture:
    return ZetaFixture(*_load("x2"))


def x2y() -> ZetaFixture:
    return _arc("x2y")


def cylinder_pair() -> tuple[Registry, ResolutionData, ResolutionData]:
    """x^2 and x^2 y over one registry, for separation and etale tests."""
    return _load("x2", "x2y")


def x2y_plane() -> ZetaFixture:
    """x^2 y on the plane: a boundary divisor and the support argument."""
    return ZetaFixture(*_load("x2y_plane"))


def redundant_blowup_pair() -> tuple[Registry, ResolutionData, ResolutionData]:
    """x^2 on the plane, resolved as-is and after one redundant blow-up."""
    return _load("x2_line", "x2_line_blowup")


# -- atlases ----------------------------------------------------------------------


def atlas_z2() -> AtlasFixture:
    """Single critical chart (X, A^1, z^2, id) with trivial orientation."""
    return AtlasFixture(*_load("atlas_z2"))


def atlas_cylinder() -> AtlasFixture:
    """Two charts over the torus, related by the chart-dependence pair.

    Chart A carries the untwisted class, chart B the twisted one; the
    orientation classes are chosen so the square-root cocycle holds and both
    glued values come out as L^(-1/2).
    """
    return AtlasFixture(*_load("atlas_cylinder"))


# -- torus localization -------------------------------------------------------------


def localize_z1z2() -> LocalizeFixture:
    """Nondegenerate binary quadratic point: weights (1, -1), index 0."""
    reg, payload = _load("localize_z1z2")
    return LocalizeFixture(reg, *payload)


def localize_two_points() -> LocalizeFixture:
    """Two isolated fixed points of index 1, checked against a direct atlas."""
    reg, payload = _load("localize_two_points")
    return LocalizeFixture(reg, *payload)


# -- exterior-sum chain ---------------------------------------------------------------


def ts_chain(n: int) -> tuple[Registry, list[Motive], str]:
    """Registry with the n-fold product of the z^2 critical point registered.

    Returns the factor classes (each the unit over ``X0``) and the name of
    the final product space.  ``ts_z2_10`` ships ``ts_chain(10)``.
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
