"""Exterior sums, quadratic-form classes, twists and embedding transport."""

import random

import pytest

from motivic import (BundleClass, EmbeddingDatum, HalfLaurent,
                     MissingTransport, Motive, QuadraticBundleDatum, Registry,
                     SpaceMismatch, compose_embeddings, fixtures, generator,
                     mot_boxdot, quadratic_form_motive, stabilize_pullback,
                     thom_sebastiani, twist_by_quadratic, upsilon,
                     vanishing_cycle)
from motivic.jobs import parse_job


@pytest.fixture
def reg():
    r = Registry()
    r.declare_space("B", dim=1)
    r.declare_generators("B", ("d", "e"))
    r.declare_space("B2", dim=2)
    r.declare_generators("B2", ("f",))
    return r


def test_ts_chain_of_point_charts_is_identity():
    reg, factors, last = fixtures.ts_chain(10)
    out = factors[0]
    for m in factors[1:]:
        out = mot_boxdot(out, m)
    assert out == Motive.one(reg, last)


def test_ts_with_identity_factor_keeps_value():
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_space("Y", dim=0)
    reg.declare_product("XY", "X", "Y")
    b = Motive.half_power(reg, "X", -1)
    assert thom_sebastiani(b, Motive.one(reg, "Y")) == \
        Motive.half_power(reg, "XY", -1)


def test_ts_of_cylinder_and_point_chart():
    # L^(-1/2) boxtimes 1 = L^(-1/2) upstairs
    # the x2 job, with a point and its product with the torus declared
    data = fixtures.load_fixture_job("x2")
    data["registry"]["spaces"].append({"name": "P0", "dim": 0})
    data["registry"]["products"].append(
        {"name": "GmP0", "left": "Gm", "right": "P0"})
    job = parse_job(data)
    regc, plain = job.registry, job.payload
    v = vanishing_cycle(plain)
    out = thom_sebastiani(v, Motive.one(regc, "P0"))
    assert out == Motive.half_power(regc, "GmP0", -1)


def test_quadratic_form_point_base_trivial_det(reg):
    reg.declare_space("pt0", dim=0)
    d = QuadraticBundleDatum("pt0", 4, BundleClass("pt0", 0))
    assert quadratic_form_motive(reg, d).is_one()


def test_quadratic_form_torus_rank_one(reg):
    d = QuadraticBundleDatum("B", 1, generator(reg, "B", "d"))
    got = quadratic_form_motive(reg, d)
    assert got == upsilon(reg, generator(reg, "B", "d")).scale(
        HalfLaurent.power(-1))


def test_quadratic_form_dim2_trivial_det(reg):
    d = QuadraticBundleDatum("B2", 3, BundleClass("B2", 0))
    assert quadratic_form_motive(reg, d) == Motive.half_power(reg, "B2", -2)


def test_quadratic_form_rank_independence(reg):
    rng = random.Random(29)
    for _ in range(300):
        det = BundleClass("B", rng.randrange(4))
        vals = {quadratic_form_motive(
            reg, QuadraticBundleDatum("B", r, det)) for r in range(1, 7)}
        assert len(vals) == 1


def test_quadratic_datum_refuses_nonpositive_rank_and_foreign_det(reg):
    for rank in (0, -1):
        with pytest.raises(ValueError, match="^rank must be positive$"):
            QuadraticBundleDatum("B", rank, BundleClass("B", 0))
    with pytest.raises(SpaceMismatch,
                       match="^det class on 'B2', base 'B'$"):
        QuadraticBundleDatum("B", 1, BundleClass("B2", 1))
    assert QuadraticBundleDatum("B", 1, BundleClass("B", 1)).rank == 1


def test_twist_trivial_det_is_identity(reg):
    mf = Motive.half_power(reg, "B", -1)
    d = QuadraticBundleDatum("B", 2, BundleClass("B", 0))
    assert twist_by_quadratic(mf, d) == mf


def test_twist_composes_with_quadratic_class(reg):
    # twisting the trivial class by a rank-1 form with nontrivial det
    # produces exactly the bundle unit
    mf = Motive.one(reg, "B")
    d = QuadraticBundleDatum("B", 1, generator(reg, "B", "d"))
    assert twist_by_quadratic(mf, d) == upsilon(reg, generator(reg, "B", "d"))


def test_twist_twice_is_identity(reg):
    rng = random.Random(31)
    for _ in range(200):
        mf = upsilon(reg, BundleClass("B", rng.randrange(4))).scale(
            HalfLaurent.power(rng.randrange(-4, 5)))
        d = QuadraticBundleDatum("B", 1 + rng.randrange(6),
                                 BundleClass("B", rng.randrange(4)))
        assert twist_by_quadratic(twist_by_quadratic(mf, d), d) == mf


def test_twist_needs_transport_across_spaces(reg):
    mf = Motive.one(reg, "B2")
    d = QuadraticBundleDatum("B", 1, generator(reg, "B", "d"))
    with pytest.raises(MissingTransport):
        twist_by_quadratic(mf, d)


def test_stabilize_trivial_torsor_is_identity(reg):
    mf = Motive.half_power(reg, "B", -1)
    e = EmbeddingDatum("U", "V", 1, 3, BundleClass("B", 0))
    assert stabilize_pullback(mf, e) == mf


def test_stabilize_cylinder_pair_reads_as_stabilization():
    # pulled back along the chart embedding, the twisted chart's class is
    # the plain one times the torsor unit
    reg, plain, twisted = fixtures.cylinder_pair()
    p1 = generator(reg, "Gm", "p1")
    mf_plain = vanishing_cycle(plain)
    e = EmbeddingDatum("x2-chart", "x2y-chart", 2, 2, p1)
    assert stabilize_pullback(mf_plain, e) == vanishing_cycle(twisted)


def test_stabilize_then_inverse_twist_restores(reg):
    rng = random.Random(37)
    for _ in range(100):
        mf = upsilon(reg, BundleClass("B", rng.randrange(4))).scale(
            HalfLaurent.power(rng.randrange(-3, 4)))
        p = BundleClass("B", rng.randrange(4))
        e = EmbeddingDatum("U", "V", 1, 2, p)
        back = stabilize_pullback(stabilize_pullback(mf, e), e)
        assert back == mf


def test_stabilize_space_mismatch(reg):
    mf = Motive.one(reg, "B2")
    e = EmbeddingDatum("U", "V", 2, 3, generator(reg, "B", "d"))
    with pytest.raises(SpaceMismatch):
        stabilize_pullback(mf, e)


def test_embedding_dims_must_be_monotone(reg):
    with pytest.raises(ValueError):
        EmbeddingDatum("U", "V", 3, 2, BundleClass("B", 0))


def test_composition_law_on_torsor_classes(reg):
    # composite transport carries the tensor of the two torsor classes
    rng = random.Random(41)
    for _ in range(200):
        p1 = BundleClass("B", rng.randrange(4))
        p2 = BundleClass("B", rng.randrange(4))
        e1 = EmbeddingDatum("U", "V", 1, 2, p1)
        e2 = EmbeddingDatum("V", "W", 2, 4, p2)
        e12 = compose_embeddings(reg, e1, e2)
        assert e12.p_phi == p1.tensor(p2)
        mf = upsilon(reg, BundleClass("B", rng.randrange(4)))
        assert stabilize_pullback(mf, e12) == \
            stabilize_pullback(stabilize_pullback(mf, e2), e1)


def _cylinder_sq():
    """atlas_cylinder's registry: ``sq: GmW -> Gm`` pulls ``p1`` back to
    the trivial class."""
    reg = fixtures.atlas_cylinder().registry
    return reg, generator(reg, "Gm", "p1"), BundleClass("GmW", 0)


def test_twist_transports_the_det_class():
    reg, p1, _ = _cylinder_sq()
    d = QuadraticBundleDatum("Gm", 1, p1)
    mf = Motive.half_power(reg, "GmW", -1)
    with pytest.raises(MissingTransport):
        twist_by_quadratic(mf, d)
    assert twist_by_quadratic(mf, d, transport="sq") == mf
    on_gm = Motive.half_power(reg, "Gm", -1)
    assert twist_by_quadratic(on_gm, d) == on_gm.odot(upsilon(reg, p1))


def test_compose_embeddings_transports_the_second_torsor():
    reg, p1, trivial = _cylinder_sq()
    first = EmbeddingDatum("U", "V", 1, 2, trivial)
    second = EmbeddingDatum("V", "W", 2, 3, p1)
    with pytest.raises(MissingTransport):
        compose_embeddings(reg, first, second)
    assert compose_embeddings(reg, first, second, transport="sq") == \
        EmbeddingDatum("U", "W", 1, 3, trivial)
    with pytest.raises(ValueError, match="^embeddings do not compose$"):
        compose_embeddings(reg, second, first, transport="sq")
