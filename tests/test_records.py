"""Record contracts: field order, defaults, immutability, repr, sharing.

Records are plain classes whose ``__init__`` sets their fields.  They keep
the field names, order, defaults, equality and repr of the dataclasses they
replace; a frozen record refuses assignment and hashes by value, and no two
records share a container.
"""

import pytest

from motivic.arcs import ArcContext, MonomialFunction
from motivic.bundles import BundleClass
from motivic.dcrit import (Atlas, CriticalChart, GlobalMotive, OverlapDatum,
                           ScissorPiece)
from motivic.fixtures import AtlasFixture, LocalizeFixture, ZetaFixture
from motivic.jobs import Job
from motivic.localize import FixedComponentDatum
from motivic.motive import Motive
from motivic.registry import (POINT, Morphism, Product, Registry, Space,
                              Symbol)
from motivic.stabilize import EmbeddingDatum, QuadraticBundleDatum
from motivic.zeta import (Divisor, PointTable, RationalMotive, RatTerm,
                          ResolutionData, RestrictionTable, Stratum)


def _registry() -> Registry:
    reg = Registry()
    for name in ("A", "B", "C"):
        reg.declare_space(name, dim=1)
        reg.declare_generators(name, (f"p{name}",))
        reg.declare_symbol(f"s{name}", name)
    reg.declare_morphism("f", "A", "B")
    reg.declare_morphism("g", "B", "C")
    return reg


REG = _registry()
ONE = Motive.one(REG, "A")
ONE_K = Motive.one(REG, POINT)
E1 = Divisor("E1", 2, 1)
Q = BundleClass("A", 1)
RES = ResolutionData(REG, "A", 2)
ATLAS = Atlas(REG, {"R": "A"})
POINTS = [FixedComponentDatum("x", (1, -1))]
TERMS = (RatTerm(ONE, ((2, 1),)),)

# (record, the fields it must have, in order, with their values)
CASES = {
    "Space": (Space("A"), [("name", "A"), ("dim", None), ("strata", ())]),
    "Symbol": (Symbol("s", "A"), [
        ("name", "s"), ("space", "A"), ("order", 1), ("underlying", None),
        ("cover_bits", None)]),
    "Morphism": (Morphism("f", "A", "B"), [
        ("name", "f"), ("source", "A"), ("target", "B"), ("kind", "general"),
        ("pull_symbols", {}), ("pull_bundles", {}), ("push_classes", {}),
        ("steps", ())]),
    "Product": (Product("P", "A", "B"), [
        ("name", "P"), ("left", "A"), ("right", "B"), ("symbol_images", {}),
        ("bundle_images", {})]),
    "BundleClass": (BundleClass("A", 1), [("space", "A"), ("bits", 1)]),
    "BundleClass_default": (BundleClass(space="A"),
                            [("space", "A"), ("bits", 0)]),
    "Divisor": (Divisor("E1", 2, 1), [
        ("id", "E1"), ("N", 2), ("nu", 1), ("boundary", False)]),
    "Divisor_keywords": (Divisor(nu=1, N=2, id="E1", boundary=True), [
        ("id", "E1"), ("N", 2), ("nu", 1), ("boundary", True)]),
    "Stratum": (Stratum(ONE, 2), [("cls", ONE), ("cover_order", 2)]),
    "RestrictionTable": (RestrictionTable("A", {frozenset({"E1"}): ONE}), [
        ("space", "A"), ("classes", {frozenset({"E1"}): ONE}),
        ("ambient", None)]),
    "PointTable": (PointTable("0", {}), [("value", "0"), ("classes", {})]),
    "RatTerm": (RatTerm(ONE, ((2, 1),)), [
        ("coeff", ONE), ("factors", ((2, 1),))]),
    "ResolutionData": (
        ResolutionData(REG, "A", 2, [E1], {frozenset({"E1"}): Stratum(ONE, 2)},
                       ["0"], {"0": RestrictionTable("A", {})}), [
            ("registry", REG), ("space_u0", "A"), ("dim_u", 2),
            ("divisors", [E1]),
            ("strata", {frozenset({"E1"}): Stratum(ONE, 2)}),
            ("critical_values", ["0"]),
            ("restrictions", {"0": RestrictionTable("A", {})}),
            ("points", {}), ("constant", False)]),
    "ResolutionData_keywords": (
        ResolutionData(registry=REG, space_u0="A", dim_u=2, constant=True), [
            ("registry", REG), ("space_u0", "A"), ("dim_u", 2),
            ("divisors", []), ("strata", {}), ("critical_values", ["0"]),
            ("restrictions", {}), ("points", {}), ("constant", True)]),
    "Job": (Job(REG, "resolution", None), [
        ("registry", REG), ("kind", "resolution"), ("payload", None),
        ("params", {})]),
    "ArcContext": (ArcContext(REG, "A", ("pA",), {3: "mu3"}), [
        ("registry", REG), ("base_space", "A"), ("unit_generators", ("pA",)),
        ("cover_symbols", {3: "mu3"})]),
    "ArcContext_default": (ArcContext(REG, "A"), [
        ("registry", REG), ("base_space", "A"), ("unit_generators", ()),
        ("cover_symbols", {})]),
    "MonomialFunction": (MonomialFunction((2, 1), frozenset({1})), [
        ("exponents", (2, 1)), ("unit_vars", frozenset({1}))]),
    "MonomialFunction_default": (MonomialFunction((2,)), [
        ("exponents", (2,)), ("unit_vars", frozenset())]),
    "ScissorPiece": (ScissorPiece("R", {(("sB", "sA"), 1): ONE_K}, -1), [
        ("region", "R"), ("entries", {(("sA", "sB"), 1): ONE_K}),
        ("sign", -1)]),
    "ScissorPiece_default": (ScissorPiece("R", {}), [
        ("region", "R"), ("entries", {}), ("sign", 1)]),
    "CriticalChart": (CriticalChart("c", "R", 2, ONE, Q), [
        ("id", "c"), ("region", "R"), ("dim_u", 2), ("mf", ONE), ("q", Q)]),
    "OverlapDatum": (OverlapDatum("a", "b", "R", Q, Q, Q, "f", None), [
        ("chart_a", "a"), ("chart_b", "b"), ("region", "R"), ("p_a", Q),
        ("p_b", Q), ("q_t", Q), ("restrict_a", "f"), ("restrict_b", None),
        ("mf_t", None)]),
    "Atlas": (Atlas(REG, {"R": "A"}), [
        ("registry", REG), ("regions", {"R": "A"}), ("charts", []),
        ("overlaps", []), ("oriented", True), ("scissor", None)]),
    "GlobalMotive": (GlobalMotive({"R": ONE}, {"R": "c"}, []), [
        ("values", {"R": ONE}), ("provenance", {"R": "c"}),
        ("checked_overlaps", [])]),
    "FixedComponentDatum": (FixedComponentDatum("x", (1, -1), ONE), [
        ("id", "x"), ("weights", (1, -1)), ("motive", ONE), ("good", True),
        ("circle_compact", True)]),
    "QuadraticBundleDatum": (QuadraticBundleDatum("A", 2, Q), [
        ("base", "A"), ("rank", 2), ("det_class", Q)]),
    "QuadraticBundleDatum_keywords": (
        QuadraticBundleDatum(det_class=Q, rank=1, base="A"), [
            ("base", "A"), ("rank", 1), ("det_class", Q)]),
    "EmbeddingDatum": (EmbeddingDatum("U", "V", 1, 2, Q), [
        ("source_chart", "U"), ("target_chart", "V"), ("dim_source", 1),
        ("dim_target", 2), ("p_phi", Q)]),
    "EmbeddingDatum_keywords": (
        EmbeddingDatum(p_phi=Q, dim_target=3, dim_source=3, target_chart="V",
                       source_chart="U"), [
            ("source_chart", "U"), ("target_chart", "V"), ("dim_source", 3),
            ("dim_target", 3), ("p_phi", Q)]),
    "ZetaFixture": (ZetaFixture(REG, RES), [
        ("registry", REG), ("resolution", RES), ("monomial", None),
        ("context", None)]),
    "ZetaFixture_keywords": (
        ZetaFixture(context=ArcContext(REG, "A"), registry=REG,
                    resolution=RES, monomial=MonomialFunction((2,))), [
            ("registry", REG), ("resolution", RES),
            ("monomial", MonomialFunction((2,))),
            ("context", ArcContext(REG, "A"))]),
    "AtlasFixture": (AtlasFixture(REG, ATLAS), [
        ("registry", REG), ("atlas", ATLAS)]),
    "LocalizeFixture": (LocalizeFixture(REG, POINTS), [
        ("registry", REG), ("components", POINTS), ("direct", None),
        ("direct_atlas", None)]),
    "LocalizeFixture_keywords": (
        LocalizeFixture(direct_atlas=ATLAS, direct=ONE_K, components=POINTS,
                        registry=REG), [
            ("registry", REG), ("components", POINTS), ("direct", ONE_K),
            ("direct_atlas", ATLAS)]),
    "RationalMotive": (RationalMotive("A", list(TERMS)), [
        ("space", "A"), ("terms", TERMS)]),
}

MUTABLE = (ResolutionData, Job, Atlas, GlobalMotive, ZetaFixture, AtlasFixture,
           LocalizeFixture)
# records that keep a repr of their own
OWN_REPR = {RationalMotive: "<RationalMotive A: 1 * (L^-1 T^2)/(1 - L^-1 T^2)>"}


@pytest.mark.parametrize("record,fields", CASES.values(), ids=CASES)
def test_fields_order_defaults_and_repr(record, fields):
    assert list(vars(record).items()) == fields
    shown = ", ".join(f"{f}={v!r}" for f, v in fields)
    assert repr(record) == OWN_REPR.get(
        type(record), f"{type(record).__name__}({shown})")


def test_repr_is_the_dataclass_format():
    assert repr(E1) == "Divisor(id='E1', N=2, nu=1, boundary=False)"


@pytest.mark.parametrize("record,fields", CASES.values(), ids=CASES)
def test_frozen_records_refuse_assignment(record, fields):
    name, value = fields[0]
    if isinstance(record, MUTABLE):
        setattr(record, name, value)
        return
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert list(vars(record).items()) == fields


@pytest.mark.parametrize("record,fields", CASES.values(), ids=CASES)
def test_records_compare_and_hash_by_value(record, fields):
    twin = type(record)(*(v for _, v in fields))
    assert twin == record and not twin != record
    assert record != tuple(v for _, v in fields)
    if isinstance(record, MUTABLE):
        with pytest.raises(TypeError):
            hash(record)
    elif all(not isinstance(v, (dict, list)) for _, v in fields):
        assert hash(twin) == hash(record)


def test_records_of_two_classes_differ():
    assert PointTable("0", {}) != RestrictionTable("0", {})
    assert Stratum(ONE, 2) != RatTerm(ONE, 2)


def _containers(*records) -> list:
    return [v for r in records for v in vars(r).values()
            if isinstance(v, (dict, list))]


def _products() -> list:
    reg = _registry()
    return [reg.declare_product("AB", "A", "B"),
            reg.declare_product("BC", "B", "C")]


def _composites() -> list:
    reg = _registry()
    return [reg.compose("f", "g", "gf"), reg.compose("f", "g", "gf2")]


@pytest.mark.parametrize("make", [
    lambda: [ResolutionData(REG, "A", 2), ResolutionData(REG, "B", 1)],
    lambda: [Job(REG, "resolution", None), Job(REG, "atlas", None)],
    lambda: [Atlas(REG, {}), Atlas(REG, {})],
    lambda: [ArcContext(REG, "A"), ArcContext(REG, "B")],
    lambda: [Morphism("f", "A", "B"), Morphism("g", "B", "C")],
    lambda: [Product("P", "A", "B"), Product("Q", "B", "C")],
    _products,
    _composites,
], ids=["ResolutionData", "Job", "Atlas", "ArcContext", "Morphism", "Product",
        "declared_Product", "composite_Morphism"])
def test_records_never_share_a_container(make):
    records = make()
    containers = _containers(*records)
    assert containers
    assert len({id(c) for c in containers}) == len(containers)
