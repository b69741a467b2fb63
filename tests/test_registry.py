"""Registry declaration contracts: uniqueness, lookups, strata, products."""

import pytest

from motivic import (BundleClass, HalfLaurent, Motive, NoUnderlyingClass,
                     Registry, RegistryError, SpaceMismatch, mot_boxdot,
                     pi_forget, symbol_motive, upsilon)
from motivic.dcrit import validate_atlas
from motivic import fixtures
from motivic.jobs import parse_job


def test_point_space_is_builtin():
    reg = Registry()
    assert reg.space("K").dim == 0


def test_duplicate_declarations_rejected():
    reg = Registry()
    reg.declare_space("X")
    with pytest.raises(RegistryError):
        reg.declare_space("X")
    reg.declare_generators("X", ("p",))
    with pytest.raises(RegistryError):
        reg.declare_generators("X", ("p",))
    reg.declare_symbol("A", "X")
    with pytest.raises(RegistryError):
        reg.declare_symbol("A", "X")
    reg.declare_morphism("f", "X", "K", "to-point")
    with pytest.raises(RegistryError):
        reg.declare_morphism("f", "X", "K", "to-point")


def test_unknown_names_rejected():
    reg = Registry()
    with pytest.raises(RegistryError):
        reg.space("nope")
    with pytest.raises(RegistryError):
        reg.declare_symbol("A", "nope")
    with pytest.raises(RegistryError):
        reg.declare_morphism("f", "nope", "K")
    with pytest.raises(RegistryError):
        reg.dim("nope")
    reg.declare_space("undimmed")
    with pytest.raises(RegistryError):
        reg.dim("undimmed")


def test_symbol_order_and_cover_constraints():
    reg = Registry()
    reg.declare_space("X")
    with pytest.raises(RegistryError):
        reg.declare_symbol("bad", "X", 0)
    with pytest.raises(RegistryError):
        reg.declare_symbol("bad3", "X", 3, cover_bits=0)


def test_morphism_kind_validated():
    reg = Registry()
    reg.declare_space("X")
    with pytest.raises(RegistryError):
        reg.declare_morphism("f", "X", "K", "weird-kind")


def test_generator_bits_range_checked():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p",))
    assert reg.names_of("X", 1) == ("p",)
    with pytest.raises(RegistryError):
        reg.names_of("X", 2)
    with pytest.raises(RegistryError):
        Motive(reg, "X", {((), 2): HalfLaurent.const(1)})


@pytest.mark.parametrize("read", [
    lambda reg: reg.names_of("W", 0),
    lambda reg: BundleClass("W", 0).text(reg),
], ids=["names_of", "text"])
def test_bits_on_an_undeclared_space_are_refused(read):
    # upsilon's case is in test_transport.py
    reg = Registry()
    reg.declare_space("X")
    with pytest.raises(RegistryError, match="unknown space 'W'"):
        read(reg)


def test_stratum_symbols_usable_on_ambient_space():
    reg = Registry()
    reg.declare_space("open_part")
    reg.declare_space("X", strata=("open_part",))
    reg.declare_symbol("S", "open_part")
    m = Motive(reg, "X", {(("S",), 0): HalfLaurent.const(1)})
    assert not m.is_zero()
    # but not the other way around
    reg.declare_symbol("T", "X")
    with pytest.raises(SpaceMismatch):
        Motive(reg, "open_part", {(("T",), 0): HalfLaurent.const(1)})


def test_cover_symbols_never_stored():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p",))
    reg.declare_symbol("cov", "X", 2, cover_bits=1)
    with pytest.raises(RegistryError):
        Motive(reg, "X", {(("cov",), 0): HalfLaurent.const(1)})
    assert len(symbol_motive(reg, "cov").terms()) == 2


def test_product_images_are_namespaced():
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_generators("X", ("p",))
    reg.declare_symbol("A", "X")
    reg.declare_product("XX", "X", "X")
    assert reg.space("XX").dim == 2
    prod = reg.product_of("X", "X")
    # self-product: the two factor copies get distinct image names
    assert prod.symbol_images[(0, "A")] == "XX.A"
    assert prod.symbol_images[(1, "A")] == "XX.1.A"
    assert prod.bundle_images == {(0, "p"): "XX.p", (1, "p"): "XX.1.p"}
    assert reg.generators["XX"] == ("XX.p", "XX.1.p")


def test_right_factor_cover_image_names_right_factor_bits():
    reg = Registry()
    for space, gen, cover in (("X", "p", "c"), ("Y", "q", "d")):
        reg.declare_space(space)
        reg.declare_generators(space, (gen,))
        reg.declare_symbol(cover, space, order=2, cover_bits=1)
    reg.declare_product("P", "X", "Y")
    assert reg.symbol("P.c").cover_bits == 0b01
    assert reg.symbol("P.d").cover_bits == 0b10
    assert symbol_motive(reg, "P.d") == mot_boxdot(Motive.one(reg, "X"),
                                                   symbol_motive(reg, "d"))
    assert symbol_motive(reg, "P.c") == mot_boxdot(symbol_motive(reg, "c"),
                                                   Motive.one(reg, "Y"))
    assert symbol_motive(reg, "P.d").text() == "1 - L^(1/2) ⊙ Y(P.q)"


def test_boxdot_refuses_stratum_symbol_with_registry_error():
    # products image the symbols of a factor, not those of its strata
    reg = Registry()
    reg.declare_space("S")
    reg.declare_space("X", strata=("S",))
    reg.declare_symbol("T", "S")
    reg.declare_product("XX", "X", "X")
    m = Motive(reg, "X", {(("T",), 0): HalfLaurent.const(1)})
    one = Motive.one(reg, "X")
    for a, b in ((m, one), (one, m)):
        with pytest.raises(RegistryError) as err:
            mot_boxdot(a, b)
        assert str(err.value) == "symbol 'T' on 'S' has no image on product 'XX'"


def test_product_images_carry_the_products_underlying_class():
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_space("Y", dim=1)
    reg.declare_symbol("mu3", "X", 3,
                       underlying=Motive.coefficient(reg, "X", HalfLaurent.const(3)))
    reg.declare_product("XY", "X", "Y")
    m = mot_boxdot(symbol_motive(reg, "mu3"), Motive.one(reg, "Y"))
    assert pi_forget(m) == Motive.coefficient(reg, "XY", HalfLaurent.const(3))


def test_product_underlying_classes_follow_their_side():
    # in a self-product the underlying class [B] of A maps to the image of B
    # on A's own side; a class naming a stratum symbol has no image
    reg = Registry()
    reg.declare_space("S")
    reg.declare_space("X", strata=("S",))
    reg.declare_symbol("B", "X")
    reg.declare_symbol("T", "S")
    reg.declare_symbol("A", "X", 2, underlying=symbol_motive(reg, "B"))
    reg.declare_symbol("C", "X", 2, underlying=symbol_motive(reg, "T"))
    reg.declare_product("XX", "X", "X")
    assert reg.symbol("XX.A").underlying == symbol_motive(reg, "XX.B")
    assert reg.symbol("XX.1.A").underlying == symbol_motive(reg, "XX.1.B")
    assert reg.symbol("XX.C").underlying is None
    with pytest.raises(NoUnderlyingClass):
        pi_forget(symbol_motive(reg, "XX.1.C"))


def test_frozen_registry_refuses_every_declaration():
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_generators("X", ("p",))
    reg.declare_symbol("A", "X")
    reg.freeze()
    declarations = [
        lambda: reg.declare_space("Y"),
        lambda: reg.declare_generators("X", ("q",)),
        lambda: reg.declare_symbol("B", "X"),
        lambda: reg.set_underlying("A", Motive.one(reg, "X")),
        lambda: reg.declare_morphism("f", "X", "K", "to-point"),
        lambda: reg.declare_product("XX", "X", "X"),
        lambda: reg.declare_square_root("X", "O", "s", 1),
    ]
    for declare in declarations:
        with pytest.raises(RegistryError, match="registry is frozen"):
            declare()
    assert list(reg.spaces) == ["K", "X"] and list(reg.symbols) == ["A"]
    assert reg.generators["X"] == ("p",) and reg.symbols["A"].underlying is None
    assert not reg.morphisms and not reg.products and not reg.square_roots
    # a parsed job's registry is frozen
    job = parse_job(fixtures.load_fixture_job("x2y"))
    with pytest.raises(RegistryError, match="registry is frozen"):
        job.registry.declare_generators("Gm", ("q",))


def test_product_factors_take_no_more_generators_or_symbols():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p",))
    reg.declare_space("Y")
    reg.declare_product("P", "X", "Y")
    for factor in ("X", "Y"):
        with pytest.raises(RegistryError, match="factor of a declared product"):
            reg.declare_generators(factor, ("q",))
        with pytest.raises(RegistryError, match="factor of a declared product"):
            reg.declare_symbol("B", factor)
    assert reg.generators["X"] == ("p",) and "B" not in reg.symbols
    # the product space itself still takes generators after its images
    reg.declare_generators("P", ("r",))
    out = mot_boxdot(upsilon(reg, BundleClass("X", 1)), Motive.one(reg, "Y"))
    assert out == upsilon(reg, BundleClass("P", 1))


def test_generator_index_follows_declaration_order():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p", "q"))
    reg.declare_generators("X", ("r",))
    assert [reg.generator_index("X", g) for g in "pqr"] == [0, 1, 2]
    assert reg.bits_of("X", ("r", "p")) == 0b101
    with pytest.raises(RegistryError, match="unknown bundle generator 's'"):
        reg.generator_index("X", "s")
    # a name repeated within one declaration is a duplicate too, and a
    # refused declaration adds none of its names
    with pytest.raises(RegistryError, match="generator 's' already declared"):
        reg.declare_generators("X", ("s", "s"))
    assert reg.generators["X"] == ("p", "q", "r")
    with pytest.raises(RegistryError, match="unknown bundle generator 's'"):
        reg.generator_index("X", "s")


def test_cover_symbol_lookup_by_bits():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p", "q"))
    reg.declare_symbol("covq", "X", 2, cover_bits=2)
    assert reg.cover_symbol_for_bits("X", 2).name == "covq"
    assert reg.cover_symbol_for_bits("X", 1) is None


def test_validate_atlas_reports_missing_overlap():
    fx = fixtures.atlas_cylinder()
    assert validate_atlas(fx.atlas) == []
    from motivic import Atlas

    stripped = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts, [],
                     True, fx.atlas.scissor)
    diags = validate_atlas(stripped)
    assert diags and "share region" in diags[0]
