"""F2 bundle-class algebra, the Y-embedding, and square-root bookkeeping."""

import random

import pytest

from motivic import (BundleClass, HalfLaurent, MissingTransport, Motive,
                     Registry, SpaceMismatch, UnknownDatum, bundle_class,
                     bundle_pullback, bundle_tensor, from_square_root,
                     generator, mot_equal, pullback, symbol_motive,
                     tensor_square_roots, trivial, upsilon)


@pytest.fixture
def reg():
    r = Registry()
    r.declare_space("X", dim=1)
    r.declare_generators("X", tuple(f"e{i}" for i in range(8)))
    r.declare_symbol("covE0", "X", 2, cover_bits=1)
    r.declare_square_root("X", "O_X", "canonical", 0)
    r.declare_square_root("X", "lam", "detq", 1)
    r.declare_square_root("X", "lam2", "detq2", 1)
    return r


def test_tensor_identity_and_self_inverse(reg):
    p = bundle_class(reg, "X", ("e0", "e3"))
    assert bundle_tensor(p, trivial("X")) == p
    assert bundle_tensor(p, p) == trivial("X")


def test_tensor_basis(reg):
    e1 = generator(reg, "X", "e1")
    e2 = generator(reg, "X", "e2")
    assert bundle_tensor(e1, e2) == bundle_class(reg, "X", ("e1", "e2"))


def test_bundle_text_names_generators_or_zero(reg):
    assert BundleClass("X", 0).text(reg) == "Y(0)"
    assert bundle_class(reg, "X", ("e0", "e3")).text(reg) == "Y(e0+e3)"


def test_tensor_space_mismatch(reg):
    reg.declare_space("Y")
    reg.declare_generators("Y", ("f0",))
    with pytest.raises(SpaceMismatch):
        bundle_tensor(generator(reg, "X", "e0"), generator(reg, "Y", "f0"))


def test_vector_space_laws_randomized(reg):
    rng = random.Random(13)
    for _ in range(500):
        p = BundleClass("X", rng.randrange(256))
        q = BundleClass("X", rng.randrange(256))
        r_ = BundleClass("X", rng.randrange(256))
        assert bundle_tensor(p, q) == bundle_tensor(q, p)
        assert bundle_tensor(bundle_tensor(p, q), r_) == \
            bundle_tensor(p, bundle_tensor(q, r_))
        assert bundle_tensor(p, p).is_zero()


def test_upsilon_identity(reg):
    assert upsilon(reg, trivial("X")).is_one()


def test_upsilon_group_homomorphism(reg):
    rng = random.Random(17)
    for _ in range(500):
        p = BundleClass("X", rng.randrange(256))
        q = BundleClass("X", rng.randrange(256))
        assert upsilon(reg, p).odot(upsilon(reg, q)) == \
            upsilon(reg, bundle_tensor(p, q))


def test_upsilon_consistent_with_cover_expansion(reg):
    # L^(1/2) . Y(p) - 1 and -[cover p] normalize identically
    p = generator(reg, "X", "e0")
    lhs = upsilon(reg, p).scale(HalfLaurent.half()) - Motive.one(reg, "X")
    rhs = -symbol_motive(reg, "covE0")
    assert mot_equal(lhs, rhs)


def test_square_root_lookup(reg):
    assert from_square_root(reg, "X", "O_X", "canonical").is_zero()
    assert from_square_root(reg, "X", "lam", "detq") == generator(reg, "X", "e0")
    with pytest.raises(UnknownDatum):
        from_square_root(reg, "X", "nope", "nope")


def test_square_roots_differing_by_global_square_agree(reg):
    # two data recorded with the same class stay equal under lookup
    assert from_square_root(reg, "X", "lam", "detq") == \
        from_square_root(reg, "X", "lam2", "detq2")


def test_tensor_of_data_multiplies_classes(reg):
    got = tensor_square_roots(reg, "X", ("lam", "detq"), ("lam2", "detq2"))
    assert got.is_zero()


def test_bundle_pullback_linear_and_functorial(reg):
    reg.declare_space("W", dim=1)
    reg.declare_generators("W", ("w0", "w1"))
    reg.declare_morphism("r1", "W", "X", "open-inclusion",
                         pull_bundles={f"e{i}": (i % 2) + 1 for i in range(8)})
    rng = random.Random(19)
    for _ in range(200):
        p = BundleClass("X", rng.randrange(256))
        q = BundleClass("X", rng.randrange(256))
        fp = bundle_pullback(reg, "r1", p)
        fq = bundle_pullback(reg, "r1", q)
        assert bundle_pullback(reg, "r1", p.tensor(q)) == fp.tensor(fq)
    reg.declare_space("V", dim=1)
    reg.declare_generators("V", ("v0",))
    reg.declare_morphism("r2", "V", "W", "open-inclusion",
                         pull_bundles={"w0": 1, "w1": 0})
    reg.compose("r2", "r1", "r12")
    for _ in range(100):
        p = BundleClass("X", rng.randrange(256))
        assert bundle_pullback(reg, "r12", p) == \
            bundle_pullback(reg, "r2", bundle_pullback(reg, "r1", p))


def test_transport_errors_agree(reg):
    # "r" has no image for e5, and its source has no generator e5
    reg.declare_space("W", dim=1)
    reg.declare_generators("W", ("w0",))
    reg.declare_morphism("r", "W", "X", "open-inclusion",
                         pull_bundles={"e0": 1})
    reg.declare_space("V", dim=1)
    reg.declare_generators("V", ("v0",))
    reg.declare_morphism("s", "X", "V", "open-inclusion",
                         pull_bundles={"v0": 0b100001})
    message = "morphism 'r' has no image for generator 'e5'"
    p = bundle_class(reg, "X", ("e0", "e5"))
    with pytest.raises(MissingTransport, match=message):
        bundle_pullback(reg, "r", p)
    with pytest.raises(MissingTransport, match=message):
        pullback(reg, "r", upsilon(reg, p))
    with pytest.raises(MissingTransport, match=message):
        reg.compose("r", "s", "rs")


@pytest.fixture
def refusing_chain():
    """S -f-> T -g-> V with empty tables.  V and S carry a generator ``a``
    and the symbol ``A`` (on V, a stratum of S); T carries neither, so ``g``
    refuses both and the composite must refuse them too."""
    r = Registry()
    r.declare_space("V")
    r.declare_space("T")
    r.declare_space("S", strata=("V",))
    r.declare_generators("V", ("a",))
    r.declare_generators("T", ("b",))
    r.declare_generators("S", ("a",))
    r.declare_symbol("A", "V")
    r.declare_morphism("g", "T", "V")
    r.declare_morphism("f", "S", "T")
    r.compose("f", "g", "fg")
    return r


def test_composite_refuses_the_generator_its_steps_refuse(refusing_chain):
    r = refusing_chain
    message = "morphism 'g' has no image for generator 'a'"
    ya = generator(r, "V", "a")
    for mor in ("g", "fg"):
        with pytest.raises(MissingTransport, match=message):
            bundle_pullback(r, mor, ya)
        with pytest.raises(MissingTransport, match=message):
            pullback(r, mor, upsilon(r, ya))


def test_composite_refuses_the_symbol_its_steps_refuse(refusing_chain):
    r = refusing_chain
    assert r.symbol_allowed_on(r.symbol("A"), "S")
    for mor in ("g", "fg"):
        with pytest.raises(MissingTransport,
                           match="morphism 'g' has no image for symbol 'A'"):
            pullback(r, mor, symbol_motive(r, "A"))


def test_compose_refuses_a_listed_symbol_image_the_inner_step_refuses(
        refusing_chain):
    r = refusing_chain
    r.declare_symbol("B", "T")
    r.declare_morphism("h", "T", "V", pull_symbols={"A": "B"})
    with pytest.raises(MissingTransport,
                       match="morphism 'f' has no image for symbol 'B'"):
        r.compose("f", "h", "fh")
