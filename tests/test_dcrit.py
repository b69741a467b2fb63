"""Atlas gluing: cocycle checks, descent, covariance, locality, pushforward."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import (Atlas, BundleClass, CriticalChart, DescentFailure,
                     EmbeddingDatum, GlobalMotive, HalfLaurent,
                     MissingScissorTable, Motive, MotivicError,
                     OrientationMissing, OverlapDatum, Registry, RegistryError,
                     ScissorPiece, SpaceMismatch, bundle_pullback,
                     check_orientation, compose_embeddings, fixtures,
                     generator, glue, pullback, pushforward_to_point,
                     stabilize_pullback, upsilon)
from motivic.bundles import pull_class_bits
from motivic.motive import mot_sum
from motivic.registry import POINT

from conftest import random_consistent_atlas

ONE = HalfLaurent.const(1)
L = HalfLaurent.L()


def test_single_chart_no_overlaps_clean():
    fx = fixtures.atlas_z2()
    assert check_orientation(fx.atlas) == []
    glued = glue(fx.atlas)
    assert glued.values["R0"].is_one()
    assert glued.provenance["R0"] == "c0"
    assert glued.checked_overlaps == []


def test_cylinder_fixture_consistent():
    fx = fixtures.atlas_cylinder()
    assert check_orientation(fx.atlas) == []
    glued = glue(fx.atlas)
    assert glued.values["R"] == Motive.half_power(fx.registry, "Gm", -1)
    assert glued.checked_overlaps == ["cA|cB@R"]


def test_orientation_diagnostic_names_overlap():
    fx = fixtures.atlas_cylinder()
    p1 = generator(fx.registry, "Gm", "p1")
    bad_overlaps = [OverlapDatum(o.chart_a, o.chart_b, o.region, o.p_a, o.p_b,
                                 o.q_t.tensor(p1))
                    for o in fx.atlas.overlaps]
    bad = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts, bad_overlaps,
                True, fx.atlas.scissor)
    diags = check_orientation(bad)
    assert diags and "cA|cB@R" in diags[0]
    with pytest.raises(DescentFailure):
        glue(bad)


def test_unoriented_atlas_refuses():
    fx = fixtures.atlas_z2()
    bare = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts,
                 fx.atlas.overlaps, oriented=False)
    with pytest.raises(OrientationMissing):
        glue(bare)


def test_glue_permutation_invariant():
    rng = random.Random(43)
    for _ in range(30):
        _reg, atlas, _dim = random_consistent_atlas(rng)
        base = glue(atlas)
        charts = list(atlas.charts)
        overlaps = list(atlas.overlaps)
        rng.shuffle(charts)
        rng.shuffle(overlaps)
        shuffled = Atlas(atlas.registry, dict(atlas.regions), charts,
                         overlaps, True, atlas.scissor)
        assert glue(shuffled) == base


def test_random_consistent_atlases_glue():
    rng = random.Random(47)
    for _ in range(100):
        _reg, atlas, _dim = random_consistent_atlas(rng)
        glued = glue(atlas)
        assert set(glued.values) == {"RA", "RB"}


def _flip_one_bit(atlas: Atlas, rng: random.Random) -> Atlas:
    """Flip a single orientation bit (one Q of a chart or the shared Q_T)."""
    reg = atlas.registry
    dim = len(reg.generators["S"])
    bit = 1 << rng.randrange(dim)
    which = rng.randrange(3)
    charts = list(atlas.charts)
    overlaps = list(atlas.overlaps)
    if which < 2:
        c = charts[which]
        charts[which] = CriticalChart(c.id, c.region, c.dim_u, c.mf,
                                      BundleClass(c.q.space, c.q.bits ^ bit))
    else:
        o = overlaps[0]
        overlaps[0] = OverlapDatum(o.chart_a, o.chart_b, o.region, o.p_a,
                                   o.p_b,
                                   BundleClass(o.q_t.space, o.q_t.bits ^ bit))
    return Atlas(reg, dict(atlas.regions), charts, overlaps, True,
                 atlas.scissor)


def test_single_bit_flips_break_descent():
    rng = random.Random(53)
    for _ in range(250):
        reg, atlas, _dim = random_consistent_atlas(rng)
        bad = _flip_one_bit(atlas, rng)
        with pytest.raises(DescentFailure) as err:
            glue(bad)
        # the diagnostic names the flipped generator inside a Y(...) class
        old_t, new_t = atlas.overlaps[0].q_t, bad.overlaps[0].q_t
        flipped = max([a.q.bits ^ b.q.bits
                       for a, b in zip(atlas.charts, bad.charts)]
                      + [old_t.bits ^ new_t.bits])
        (name,) = reg.names_of("S", flipped)
        assert re.search(rf"Y\([^)]*\b{name}\b", str(err.value))


def test_orientation_change_covariance_fixture():
    fx = fixtures.atlas_cylinder()
    reg = fx.registry
    p1 = generator(reg, "Gm", "p1")
    base = glue(fx.atlas)
    shifted = glue(fx.atlas.tensor_orientations({"R": p1}))
    for region, value in base.values.items():
        assert shifted.values[region] == value.odot(upsilon(reg, p1))


def test_orientation_change_covariance_random():
    rng = random.Random(59)
    for _ in range(100):
        reg, atlas, dim = random_consistent_atlas(rng)
        p = BundleClass("S", rng.randrange(1 << dim))
        base = glue(atlas)
        shifted = glue(atlas.tensor_orientations({"RA": p, "RB": p}))
        for region, value in base.values.items():
            assert shifted.values[region] == value.odot(upsilon(reg, p))


def test_locality_of_subatlas():
    # gluing a sub-cover agrees with restricting the glued family
    reg = Registry()
    reg.declare_space("U1", dim=0)
    reg.declare_space("U2", dim=0)
    charts = [CriticalChart("c1", "R1", 1, Motive.one(reg, "U1"),
                            BundleClass("U1", 0)),
              CriticalChart("c2", "R2", 1,
                            Motive.half_power(reg, "U2", -1),
                            BundleClass("U2", 0))]
    atlas = Atlas(reg, {"R1": "U1", "R2": "U2"}, charts, [], True)
    full = glue(atlas)
    sub = glue(atlas.subatlas(["R2"]))
    assert sub.values == {"R2": full.values["R2"]}


def test_pushforward_to_point_fixture():
    fx = fixtures.atlas_cylinder()
    glued = glue(fx.atlas)
    total = pushforward_to_point(fx.atlas, glued)
    # L^(-1/2) times the declared torus class L - 1
    assert total == Motive.coefficient(fx.registry, POINT,
                                       HalfLaurent.power(-1) * (L - ONE))


def test_pushforward_additive_over_disjoint_regions():
    fx = fixtures.localize_two_points()
    glued = glue(fx.direct_atlas)
    total = pushforward_to_point(fx.direct_atlas, glued)
    assert total == Motive.coefficient(fx.registry, POINT,
                                       HalfLaurent.power(-1, 2))


def test_pushforward_missing_scissor_entry():
    fx = fixtures.atlas_cylinder()
    glued = glue(fx.atlas)
    stripped = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts,
                     fx.atlas.overlaps, True, None)
    with pytest.raises(MissingScissorTable):
        pushforward_to_point(stripped, glued)
    empty = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts,
                  fx.atlas.overlaps, True,
                  [ScissorPiece("R", {})])
    with pytest.raises(MissingScissorTable):
        pushforward_to_point(empty, glued)


def _regrouped_pushforward(atlas: Atlas, glued: GlobalMotive) -> Motive:
    """Reference: regroup each region value with ``terms()``, scale each
    coefficient by the piece sign and add the entries through ``mot_sum``,
    piece by piece.  Of the pieces that fail, the fault that sorts first by
    (region, text) is raised."""
    reg = atlas.registry
    if atlas.scissor is None:
        raise MissingScissorTable("atlas declares no scissor table")

    def terms(piece):
        if piece.region not in glued.values:
            raise MissingScissorTable(
                f"scissor piece over unglued region {piece.region!r}")
        for (mon, bits), coeff in glued.values[piece.region].terms():
            entry = piece.entries.get((mon, bits))
            if entry is None:
                raise MissingScissorTable(
                    f"region {piece.region!r}: no scissor entry for term "
                    f"({mon}, bits={bits})")
            yield entry, coeff * piece.sign

    sums, faults = [], []
    for piece in atlas.scissor:
        try:
            sums.append((mot_sum(reg, POINT, terms(piece)), {0: 1}))
        except MotivicError as exc:
            faults.append((piece.region, str(exc), exc))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    return mot_sum(reg, POINT, sums)


@st.composite
def scissor_sums(draw):
    """Glued values on regions ``A`` (over ``U``) and ``B`` (over ``V``) and
    scissor pieces with signs +-1 over them.  A piece may be repeated with
    the opposite sign, so that the sum cancels; it may lie over the unglued
    region ``Z``.  A piece carries up to two faults, at different keys: it
    may lack the entry of one key, and carry an entry over another space or
    from another registry at another, so the sorted key order decides which
    of them is raised."""
    reg = Registry()
    keys = {}
    for space in ("U", "V"):
        reg.declare_space(space, dim=1)
        reg.declare_generators(space, (f"{space}p", f"{space}q"))
        reg.declare_symbol(f"S{space}", space)
        reg.declare_symbol(f"T{space}", space)
        keys[space] = [(mon, bits) for bits in range(4) for mon in
                       ((), (f"S{space}",), (f"S{space}", f"T{space}"),
                        (f"T{space}", f"T{space}"))]
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                             min_size=1, max_size=3)
    regions = {"A": "U", "B": "V"}
    values = {r: Motive(reg, space, draw(st.lists(
        st.tuples(st.sampled_from(keys[space]), coeffs), max_size=5)))
        for r, space in regions.items()}
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        region = "Z" if draw(st.integers(0, 9)) == 0 else \
            draw(st.sampled_from(sorted(regions)))
        entries = {key: Motive(reg, POINT, {((), 0): draw(coeffs)})
                   for key in keys[regions.get(region, "U")]}
        used = sorted(key for key, _ in values.get(region, values["A"]).terms())
        faults = draw(st.sampled_from(
            [()] * 7 + [("missing",), ("space",), ("registry",),
                        ("missing", "space"), ("missing", "registry")]))
        for fault, key in zip(faults, draw(st.permutations(used))):
            if fault == "missing":
                del entries[key]
            else:
                entries[key] = Motive(reg if fault == "space" else Registry(),
                                      "U" if fault == "space" else POINT)
        pieces.append(ScissorPiece(region, entries, draw(st.sampled_from((1, -1)))))
        if draw(st.integers(0, 3)) == 0:
            pieces.append(ScissorPiece(region, entries, -pieces[-1].sign))
    scissor = None if draw(st.integers(0, 19)) == 0 else pieces
    atlas = Atlas(reg, regions, [], [], True, scissor)
    return atlas, GlobalMotive(values, {}, [])


def _outcome(push, atlas, glued):
    try:
        total = push(atlas, glued)
    except MotivicError as exc:
        return type(exc), str(exc)
    assert total.reg is atlas.registry and 0 not in total._flat.values()
    return total.space, total._flat


@settings(max_examples=150, deadline=None)
@given(scissor_sums())
def test_pushforward_matches_the_regrouped_sum(drawn):
    # the one flat pass sums what the regrouped terms summed, and it fails
    # where they failed, with the same exception and message, whatever the
    # order of the pieces
    atlas, glued = drawn
    outcome = _outcome(pushforward_to_point, atlas, glued)
    assert outcome == _outcome(_regrouped_pushforward, atlas, glued)
    if atlas.scissor is not None:
        atlas.scissor.reverse()
        assert _outcome(pushforward_to_point, atlas, glued) == outcome


def test_pushforward_names_the_first_missing_key_in_sorted_order():
    # the value lists its keys out of sorted order; two of them have no entry
    reg = Registry()
    reg.declare_space("U", dim=1)
    reg.declare_generators("U", ("p", "q"))
    reg.declare_symbol("S", "U")
    value = Motive(reg, "U", [((("S",), 0), {0: 1}), (((), 2), {1: 1}),
                              (((), 1), {0: 1})])
    piece = ScissorPiece("A", {((), 1): Motive.one(reg, POINT)})
    atlas = Atlas(reg, {"A": "U"}, [], [], True, [piece])
    with pytest.raises(MissingScissorTable, match=re.escape(
            "region 'A': no scissor entry for term ((), bits=2)")):
        pushforward_to_point(atlas, GlobalMotive({"A": value}, {}, []))


@pytest.mark.parametrize("fault,error,message", [
    ("space", SpaceMismatch, "'K' vs 'U'"),
    ("registry", RegistryError, "operands come from different registries"),
], ids=["entry_over_another_space", "entry_from_another_registry"])
def test_a_scissor_entry_must_be_a_class_of_the_registry_over_the_point(
        fault, error, message):
    # every term has its entry, so the entry's own operand check is the
    # piece's one fault
    reg = Registry()
    reg.declare_space("U", dim=1)
    entry = (Motive.one(reg, "U") if fault == "space"
             else Motive.one(Registry(), POINT))
    atlas = Atlas(reg, {"A": "U"}, [], [], True,
                  [ScissorPiece("A", {((), 0): entry})])
    with pytest.raises(error) as err:
        pushforward_to_point(atlas, GlobalMotive({"A": Motive.one(reg, "U")},
                                                 {}, []))
    assert str(err.value) == message


def test_a_piece_counts_with_its_sign():
    # 1 . Y(0) + 2 . Y(p) through the entries 3 and 5, with sign -1
    reg = Registry()
    reg.declare_space("U", dim=1)
    reg.declare_generators("U", ("p",))
    entries = {((), bits): Motive.coefficient(reg, POINT, HalfLaurent.const(c))
               for bits, c in ((0, 3), (1, 5))}
    value = Motive(reg, "U", [(((), 0), ONE), (((), 1), HalfLaurent.const(2))])
    atlas = Atlas(reg, {"A": "U"}, [], [], True,
                  [ScissorPiece("A", entries, -1)])
    assert pushforward_to_point(atlas, GlobalMotive({"A": value}, {}, [])) \
        == Motive.coefficient(reg, POINT, HalfLaurent.const(-13))


def test_scissor_entry_monomial_is_sorted():
    # the entry names [b].[a]; the glued value stores that term as ('a', 'b')
    reg = Registry()
    reg.declare_space("U", dim=1)
    reg.declare_symbol("a", "U")
    reg.declare_symbol("b", "U")
    img = Motive.coefficient(reg, POINT, HalfLaurent.const(3))
    piece = ScissorPiece("R", {(("b", "a"), 0): img})
    assert piece.entries == {(("a", "b"), 0): img}
    value = Motive(reg, "U", [((("a", "b"), 0), {0: 1})])
    atlas = Atlas(reg, {"R": "U"}, [], [], True, [piece])
    assert pushforward_to_point(atlas, GlobalMotive({"R": value}, {}, [])) == img
    with pytest.raises(RegistryError, match=re.escape(
            "region 'R': two entries for term (('a', 'b'), bits=0)")):
        ScissorPiece("R", {(("b", "a"), 0): img, (("a", "b"), 0): img})


@pytest.mark.parametrize("restrict,error", [
    ("nosuch", (RegistryError, "unknown morphism 'nosuch'")),
    ("r2w", (SpaceMismatch,
             "class on 'R1' cannot be pulled along 'r2w' with target 'R2'")),
], ids=["unknown_morphism", "target_not_the_chart_space"])
def test_orientation_refuses_a_restriction_as_pull_class_bits_does(restrict,
                                                                   error):
    # chart cA lies on R1; its restriction names no morphism, or r2w: W -> R2
    reg = Registry()
    for space in ("R1", "R2", "W"):
        reg.declare_space(space, dim=1)
        reg.declare_generators(space, ("p",))
    reg.declare_morphism("r1w", "W", "R1", pull_bundles={"p": 1})
    reg.declare_morphism("r2w", "W", "R2", pull_bundles={"p": 1})
    q = BundleClass("R1", 1)
    charts = [CriticalChart("cA", "RA", 1, Motive.one(reg, "R1"), q),
              CriticalChart("cB", "RB", 1, Motive.one(reg, "R2"),
                            BundleClass("R2", 1))]
    w = BundleClass("W", 0)
    atlas = Atlas(reg, {"RA": "R1", "RB": "R2", "OV": "W"}, charts,
                  [OverlapDatum("cA", "cB", "OV", w, w, w, restrict, "r2w")],
                  True)
    assert check_orientation(Atlas(
        reg, atlas.regions, charts,
        [OverlapDatum("cA", "cB", "OV", w, w, BundleClass("W", 1), "r1w",
                      "r2w")], True)) == []
    for _ in range(2):  # the second pass reads the memo tables
        with pytest.raises(MotivicError) as err:
            check_orientation(atlas)
        assert (type(err.value), str(err.value)) == error
        with pytest.raises(MotivicError) as err:
            pull_class_bits(reg, restrict, q)
        assert (type(err.value), str(err.value)) == error


def test_overlap_with_restriction_morphisms():
    # two charts on different regions whose values differ globally but agree
    # on the overlap, where the restriction trivializes the torsor class
    reg = Registry()
    reg.declare_space("R1", dim=1)
    reg.declare_generators("R1", ("p",))
    reg.declare_space("R2", dim=1)
    reg.declare_generators("R2", ("p",))
    reg.declare_space("W", dim=1)  # overlap: square root exists here
    reg.declare_morphism("r1w", "W", "R1", "open-inclusion",
                         pull_bundles={"p": 0})
    reg.declare_morphism("r2w", "W", "R2", "open-inclusion",
                         pull_bundles={"p": 0})
    p1 = generator(reg, "R1", "p")
    p2 = generator(reg, "R2", "p")
    mf_a = Motive.half_power(reg, "R1", -1)
    mf_b = Motive.half_power(reg, "R2", -1).odot(upsilon(reg, p2))
    charts = [CriticalChart("cA", "RA", 2, mf_a, p1),
              CriticalChart("cB", "RB", 2, mf_b, p2)]
    zero_w = BundleClass("W", 0)
    overlaps = [OverlapDatum("cA", "cB", "OV", p_a=zero_w, p_b=zero_w,
                             q_t=zero_w, restrict_a="r1w", restrict_b="r2w")]
    atlas = Atlas(reg, {"RA": "R1", "RB": "R2", "OV": "W"}, charts, overlaps,
                  True)
    assert check_orientation(atlas) == []
    glued = glue(atlas)
    # per-chart values mf . Y(Q); they differ globally by the torsor units
    # but both restrict to L^(-1/2) on the overlap
    assert glued.values["RA"] == mf_a.odot(upsilon(reg, p1))
    assert glued.values["RB"] == mf_b.odot(upsilon(reg, p2))
    assert glued.values["RB"] == Motive.half_power(reg, "R2", -1)
    # breaking the restricted cocycle is detected
    bad_overlaps = [OverlapDatum("cA", "cB", "OV", p_a=zero_w, p_b=zero_w,
                                 q_t=BundleClass("W", 0), restrict_a="r1w",
                                 restrict_b=None)]
    bad = Atlas(reg, {"RA": "R1", "RB": "R2", "OV": "W"}, charts,
                bad_overlaps, True)
    diags = check_orientation(bad)
    assert diags and "mismatched spaces" in diags[0]


def test_structurally_broken_atlas_is_a_validation_error():
    from motivic import ValidationFailed

    fx = fixtures.atlas_cylinder()
    bad_overlaps = [OverlapDatum("cA", "ghost", "R",
                                 p_a=generator(fx.registry, "Gm", "p1"),
                                 p_b=BundleClass("Gm", 0),
                                 q_t=BundleClass("Gm", 0))]
    bad = Atlas(fx.registry, fx.atlas.regions, fx.atlas.charts, bad_overlaps,
                True)
    with pytest.raises(ValidationFailed):
        glue(bad)
    # regions the job reader would refuse first reach the structural check
    # only from Python
    cA, cB = fx.atlas.charts
    off = CriticalChart(cA.id, "R_nowhere", cA.dim_u, cA.mf, cA.q)
    o = fx.atlas.overlaps[0]
    gone = OverlapDatum(o.chart_a, o.chart_b, "R_gone", o.p_a, o.p_b, o.q_t)
    with pytest.raises(ValidationFailed) as err:
        glue(Atlas(fx.registry, fx.atlas.regions, [off, cB], [gone], True))
    assert err.value.diagnostics == [
        "chart 'cA' on undeclared region 'R_nowhere'",
        "overlap cA|cB on undeclared region 'R_gone'"]


def test_two_charts_same_region_must_agree():
    reg = Registry()
    reg.declare_space("U", dim=0)
    charts = [CriticalChart("c1", "R", 1, Motive.one(reg, "U"),
                            BundleClass("U", 0)),
              CriticalChart("c2", "R", 1, Motive.half_power(reg, "U", -1),
                            BundleClass("U", 0))]
    atlas = Atlas(reg, {"R": "U"}, charts, [], True)
    with pytest.raises(DescentFailure):
        glue(atlas)


@st.composite
def restricted_atlases(draw):
    """Two charts meeting on an overlap region over ``W``, each restricted to
    it by a morphism with a random pull table (chart B may instead live on
    ``W`` itself).  Chart values are ``c . [A] . Y(Q + y)``, where the symbol
    ``A`` of each chart's space pulls to one shared image.  The orientation
    classes satisfy the cocycle identities, and the transported values agree
    when ``y_a`` and ``y_b`` restrict alike.  Then one datum is perturbed,
    or none.  Returns the atlas and whether ``glue`` must succeed on it.
    """
    reg = Registry()
    ngen = {}
    for space in ("R1", "R2", "W"):
        reg.declare_space(space, dim=1)
        ngen[space] = draw(st.integers(1, 3))
        reg.declare_generators(space, [f"{space}g{i}" for i in range(ngen[space])])
        reg.declare_symbol(f"A{space}", space)

    def bits(space):
        return draw(st.integers(0, (1 << ngen[space]) - 1))

    space_b = draw(st.sampled_from(("R2", "W")))
    image = "AW" if space_b == "W" else draw(st.sampled_from(["AW", Motive(
        reg, "W", {(("AW",), bits("W")): HalfLaurent.const(1),
                   ((), bits("W")): HalfLaurent.power(draw(st.integers(-2, 2)))})]))
    restrict = {}
    for space in [s for s in ("R1", space_b) if s != "W"]:
        restrict[space] = f"r{space}"
        reg.declare_morphism(f"r{space}", "W", space, "open-inclusion",
                             pull_symbols={f"A{space}": image},
                             pull_bundles={g: bits("W") for g in reg.generators[space]})

    def pull(space, b):
        if space not in restrict:
            return b
        return bundle_pullback(reg, restrict[space], BundleClass(space, b)).bits

    q_a, y_a, p_a = bits("R1"), bits("R1"), bits("W")
    q_b, y_b = bits(space_b), bits(space_b)
    q_t = p_a ^ pull("R1", q_a)
    d = {"q_a": q_a, "q_b": q_b, "p_a": p_a, "p_b": q_t ^ pull(space_b, q_b),
         "q_t": q_t, "b_b": q_b ^ y_b}
    space_of = {"q_a": "R1", "q_b": space_b, "b_b": space_b}
    how = draw(st.sampled_from((None, "coeff", *d)))
    if how in d:
        d[how] ^= 1 << draw(st.integers(0, ngen[space_of.get(how, "W")] - 1))
    coeff = HalfLaurent({draw(st.integers(-3, 3)): draw(st.integers(1, 4))})
    with_symbol = draw(st.booleans())

    def chart(cid, space, b, c, q):
        value = Motive(reg, space, {((f"A{space}",) if with_symbol else (), b): c})
        return CriticalChart(cid, f"region_{cid}", 2, value, BundleClass(space, q))

    charts = [chart("cA", "R1", q_a ^ y_a, coeff, d["q_a"]),
              chart("cB", space_b, d["b_b"],
                    coeff * HalfLaurent.const(2) if how == "coeff" else coeff,
                    d["q_b"])]
    overlaps = [OverlapDatum("cA", "cB", "OV", *(BundleClass("W", d[k])
                                               for k in ("p_a", "p_b", "q_t")),
                             restrict.get("R1"), restrict.get(space_b))]
    atlas = Atlas(reg, {"region_cA": "R1", "region_cB": space_b, "OV": "W"},
                  charts, overlaps, True)
    return atlas, how is None and pull("R1", y_a) == pull(space_b, y_b)


@settings(max_examples=120, deadline=None)
@given(restricted_atlases())
def test_glued_values_agree_on_every_overlap(drawn):
    # glue checks the transported chart classes, not the glued values; the
    # cocycle identities and multiplicativity of pullback make them agree
    atlas, must_glue = drawn
    try:
        glued = glue(atlas)
    except DescentFailure:
        assert not must_glue
        return
    reg, charts = atlas.registry, atlas.chart_index()
    for o in atlas.overlaps:
        va = glued.values[charts[o.chart_a].region]
        vb = glued.values[charts[o.chart_b].region]
        if o.restrict_a is not None:
            va = pullback(reg, o.restrict_a, va)
        if o.restrict_b is not None:
            vb = pullback(reg, o.restrict_b, vb)
        assert va == vb


# -- a redundant stabilized chart (the glued class is chart-independent) ------------


@st.composite
def stabilized_atlases(draw):
    """A two-chart atlas that glues, with a scissor table over its glued
    values, and the same atlas with one redundant chart added: one chart's
    class ``mf`` stabilized along a composite of two embeddings, with
    torsor class P, on the same region, oriented by ``q + P`` (``q`` that
    chart's orientation).  The overlap joining the two has ``P_a = P``,
    ``P_b = 0``, ``Q_T = q + P`` and the new class as the shared chart's.
    ``change`` perturbs only the P the class is stabilized by (``"P"``),
    only the q in the new orientation and in ``Q_T`` (``"q"``), only the P
    of the shared chart's class (``"mf_t"``), or nothing (None).  Returns
    both atlases, ``change`` and the two steps with the class they
    stabilize."""
    reg, atlas, dim = random_consistent_atlas(
        draw(st.randoms(use_true_random=False)))
    glued = glue(atlas)
    scissor = [ScissorPiece(region, {
        key: Motive.coefficient(reg, POINT, HalfLaurent({i: 1, -1: i + 2}))
        for i, (key, _) in enumerate(value.terms())})
        for region, value in glued.values.items()]
    base = Atlas(reg, atlas.regions, atlas.charts, atlas.overlaps, True,
                 scissor)
    chart = draw(st.sampled_from(base.charts))
    bits, rank = st.integers(0, (1 << dim) - 1), st.integers(0, 2)
    new_id = draw(st.sampled_from(("c0", "cS")))  # glued before or after
    mid = chart.dim_u + draw(rank)
    steps = (EmbeddingDatum(chart.id, "mid", chart.dim_u, mid,
                            BundleClass("S", draw(bits))),
             EmbeddingDatum("mid", new_id, mid, mid + draw(rank),
                            BundleClass("S", draw(bits))))
    change = draw(st.sampled_from((None, "P", "q", "mf_t")))
    delta = BundleClass("S", draw(st.integers(1, (1 << dim) - 1)))
    e = compose_embeddings(reg, *steps)
    p = e.p_phi
    if change == "P":
        e = EmbeddingDatum(chart.id, new_id, e.dim_source, e.dim_target,
                           p.tensor(delta))
    q = chart.q.tensor(delta) if change == "q" else chart.q
    mf = stabilize_pullback(chart.mf, e)
    mf_t = (chart.mf.odot(upsilon(reg, p.tensor(delta))) if change == "mf_t"
            else mf)
    stable = CriticalChart(new_id, chart.region, e.dim_target, mf, q.tensor(p))
    overlap = OverlapDatum(chart.id, new_id, chart.region, p,
                           BundleClass("S", 0), q.tensor(p), mf_t=mf_t)
    stabilized = Atlas(reg, base.regions, base.charts + [stable],
                       base.overlaps + [overlap], True, scissor)
    return base, stabilized, change, (chart.mf, *steps)


@settings(max_examples=120, deadline=None)
@given(stabilized_atlases())
def test_a_redundant_stabilized_chart_changes_nothing(drawn):
    # the class of a critical chart stabilized by P is mf . Y(P) (result
    # (b)); oriented by q + P its candidate is mf . Y(q) again, so gluing
    # accepts it and no region value or the pushforward moves
    base, stabilized, change, (mf, first, second) = drawn
    if change is not None:
        with pytest.raises(DescentFailure):
            glue(stabilized)
        return
    # the composite embedding stabilizes as its two steps do
    assert stabilized.charts[-1].mf == stabilize_pullback(
        stabilize_pullback(mf, first), second)
    before, after = glue(base), glue(stabilized)
    assert after.values == before.values
    assert (pushforward_to_point(stabilized, after)
            == pushforward_to_point(base, before))


# -- pinned diagnostics of the cocycle check and of descent ----------------------


def _restricted_pair(q_b=0, p_a=1, restrict_b="r2w", scale_b=1):
    """Charts cA on R1 and cB on R2 meeting over W, each restricted to it
    by a morphism taking the generator p to w.  With the defaults both
    cocycle identities hold (Q_T = 0) and both lifts are L^(-1/2) ⊙ Y(w)."""
    reg = Registry()
    for space, gen in (("R1", "p"), ("R2", "p"), ("W", "w")):
        reg.declare_space(space, dim=1)
        reg.declare_generators(space, (gen,))
    reg.declare_morphism("r1w", "W", "R1", pull_bundles={"p": 1})
    reg.declare_morphism("r2w", "W", "R2", pull_bundles={"p": 1})
    half = HalfLaurent.power(-1)
    charts = [CriticalChart("cA", "RA", 2, Motive(reg, "R1", {((), 0): half}),
                            BundleClass("R1", 1)),
              CriticalChart("cB", "RB", 2,
                            Motive(reg, "R2", {((), 1): half}).scale(scale_b),
                            BundleClass("R2", q_b))]
    overlaps = [OverlapDatum("cA", "cB", "OV", BundleClass("W", p_a),
                             BundleClass("W", 0), BundleClass("W", 0),
                             "r1w", restrict_b)]
    return Atlas(reg, {"RA": "R1", "RB": "R2", "OV": "W"}, charts, overlaps,
                 True)


def test_restricted_pair_glues():
    glued = glue(_restricted_pair())
    assert [v.text() for v in glued.values.values()] == ["L^(-1/2) ⊙ Y(p)"] * 2
    assert glued.checked_overlaps == ["cA|cB@OV"]


@pytest.mark.parametrize("atlas,diags", [
    (_restricted_pair(p_a=0),
     ["overlap cA|cB@OV: Q_T != P + Q for chart cA (got Y(0), expected Y(w))"]),
    (_restricted_pair(q_b=1),
     ["overlap cA|cB@OV: Q_T != P + Q for chart cB (got Y(0), expected Y(w))"]),
    (_restricted_pair(p_a=0, q_b=1),
     ["overlap cA|cB@OV: Q_T != P + Q for chart cA (got Y(0), expected Y(w))",
      "overlap cA|cB@OV: Q_T != P + Q for chart cB (got Y(0), expected Y(w))"]),
    (_restricted_pair(restrict_b=None),
     ["overlap cA|cB@OV: classes on mismatched spaces"]),
], ids=["side_a", "side_b", "both_sides", "mismatched_spaces"])
def test_orientation_diagnostics_are_pinned(atlas, diags):
    assert check_orientation(atlas) == diags
    with pytest.raises(DescentFailure) as err:
        glue(atlas)
    assert str(err.value) == (f"descent failure on overlap orientation: "
                              f"{diags[0]!r} != '' (cocycle identity broken)")


def test_a_shared_chart_class_must_be_the_lift():
    # both lifts are L^(-1/2) ⊙ Y(w); a shared chart's class without Y(w)
    # is refused
    atlas = _restricted_pair()
    o = atlas.overlaps[0]

    def glue_with(mf_t):
        atlas.overlaps = [OverlapDatum(o.chart_a, o.chart_b, o.region, o.p_a,
                                       o.p_b, o.q_t, o.restrict_a,
                                       o.restrict_b, mf_t)]
        return glue(atlas)

    half = HalfLaurent.power(-1)
    assert glue_with(Motive(atlas.registry, "W", {((), 1): half})) \
        .checked_overlaps == ["cA|cB@OV"]
    with pytest.raises(DescentFailure) as err:
        glue_with(Motive(atlas.registry, "W", {((), 0): half}))
    assert str(err.value) == (
        "descent failure on overlap cA|cB@OV: 'L^(-1/2) ⊙ Y(w)' != "
        "'L^(-1/2)' (transported class disagrees with shared chart)")


def test_disagreeing_overlap_failure_is_pinned():
    atlas = _restricted_pair(scale_b=2)
    assert check_orientation(atlas) == []
    with pytest.raises(DescentFailure) as err:
        glue(atlas)
    assert str(err.value) == (
        "descent failure on overlap cA|cB@OV: 'L^(-1/2) ⊙ Y(w)' != "
        "'2*L^(-1/2) ⊙ Y(w)' (transported chart classes disagree)")
