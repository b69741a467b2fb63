"""Transport along morphisms against a by-name reference.

Registries are drawn at random: a chain of spaces ``V0 <- V1 <- ... <- Vn``
(n = 1..3) with morphisms ``f_i: V_i -> V_(i-1)``.  Each space has one to
three bundle generators from a shared name pool, so the same-name rule for
generators applies wherever a table leaves a name out, and every earlier
space is a stratum of every later one, so the same-name rule for symbols
applies too.  Each space carries a plain symbol ``P<i>``, an opaque one
``O<i>`` (order 3) and a Z2-cover ``C<i>``.

The reference transport reads the declared tables by name and rebuilds each
term through the public constructors; it shares no loop with ``pullback``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import (BundleClass, HalfLaurent, Motive, MissingTransport,
                     Registry, RegistryError, SpaceMismatch, pullback,
                     symbol_motive, upsilon)

POOL = ("a", "b", "c", "d")

coeffs = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5).filter(bool),
                         min_size=1, max_size=3).map(HalfLaurent)


@st.composite
def motives(draw, reg: Registry, i: int, opaque: bool = True) -> Motive:
    """A random motive over ``V<i>``: sums of coefficient . Y(bits) .
    monomial, each monomial with at most one opaque symbol, some terms
    times the cover class ``C<i>`` and some with the empty monomial."""
    space = f"V{i}"
    mons = [(), (f"P{i}",), (f"P{i}", f"P{i}")]
    if opaque:
        mons += [(f"O{i}",), (f"O{i}", f"P{i}")]
    out = Motive.zero(reg, space)
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.integers(0, (1 << len(reg.generators[space])) - 1))
        term = Motive(reg, space, {(draw(st.sampled_from(mons)), bits):
                                   draw(coeffs)})
        if draw(st.booleans()):
            term = term.odot(symbol_motive(reg, f"C{i}"))
        out = out + term
    return out


@st.composite
def chains(draw):
    n = draw(st.integers(1, 3))
    reg = Registry()
    for i in range(n + 1):
        space = f"V{i}"
        reg.declare_space(space, strata=tuple(f"V{j}" for j in range(i)))
        gens = draw(st.lists(st.sampled_from(POOL), unique=True,
                             min_size=1, max_size=3))
        reg.declare_generators(space, gens)
        reg.declare_symbol(f"P{i}", space)
        reg.declare_symbol(f"O{i}", space, 3)
        reg.declare_symbol(f"C{i}", space, 2, cover_bits=draw(
            st.integers(0, (1 << len(gens)) - 1)))
    for i in range(1, n + 1):
        source, target = f"V{i}", f"V{i - 1}"
        nsource = len(reg.generators[source])
        bundles = {g: draw(st.integers(0, (1 << nsource) - 1))
                   for g in reg.generators[target]
                   if g not in reg.generators[source] or draw(st.booleans())}
        symbols = {}
        for j in range(i):  # every symbol a motive over the target may carry
            for kind in ("P", "O"):
                how = draw(st.sampled_from(("same", "name", "motive")))
                if how == "name":
                    symbols[f"{kind}{j}"] = f"{kind}{i}"
                elif how == "motive" and kind == "P":
                    symbols[f"{kind}{j}"] = draw(motives(reg, i, opaque=False))
                elif how == "motive":
                    symbols[f"{kind}{j}"] = draw(motives(reg, i, opaque=False)) \
                        .odot(Motive(reg, source, {((f"O{i}",), 0): draw(coeffs)}))
        reg.declare_morphism(f"f{i}", source, target, pull_symbols=symbols,
                             pull_bundles=bundles)
    return reg, n, draw(motives(reg, 0))


def reference_pullback(reg: Registry, morphism: str, m: Motive) -> Motive:
    mor = reg.morphisms[morphism]
    source_gens = reg.generators[mor.source]
    out = Motive.zero(reg, mor.source)
    for (mon, bits), coeff in m.terms():
        image_bits = 0
        for name in reg.names_of(m.space, bits):
            image_bits ^= (mor.pull_bundles[name] if name in mor.pull_bundles
                           else 1 << source_gens.index(name))
        term = Motive(reg, mor.source, {((), image_bits): coeff})
        for name in mon:
            image = mor.pull_symbols.get(name, name)
            if isinstance(image, str):
                image = Motive(reg, mor.source,
                               {((image,), 0): HalfLaurent.const(1)})
            term = term.odot(image)
        out = out + term
    return out


@settings(max_examples=40, deadline=None)
@given(chains())
def test_pullback_matches_by_name_reference(chain):
    reg, n, m = chain
    for i in range(1, n + 1):
        got = pullback(reg, f"f{i}", m)
        assert got == reference_pullback(reg, f"f{i}", m)
        m = got


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pullback_is_multiplicative(data):
    reg, n, a = data.draw(chains())
    b = data.draw(motives(reg, 0, opaque=False))
    for i in range(1, n + 1):
        f = f"f{i}"
        assert pullback(reg, f, a.odot(b)) == \
            pullback(reg, f, a).odot(pullback(reg, f, b))
        a, b = pullback(reg, f, a), pullback(reg, f, b)


@settings(max_examples=40, deadline=None)
@given(chains())
def test_pullback_along_composite_is_pullback_of_pullback(chain):
    reg, n, m = chain
    steps = [m]
    for i in range(1, n + 1):
        steps.append(pullback(reg, f"f{i}", steps[-1]))
    outer = "f1"
    for i in range(2, n + 1):  # f1 . f2, then (f1 . f2) . f3
        reg.compose(f"f{i}", outer, f"c{i}")
        outer = f"c{i}"
        assert pullback(reg, outer, m) == steps[i]
    if n == 3:  # f1 . (f2 . f3)
        reg.compose("f3", "f2", "g32")
        reg.compose("g32", "f1", "g31")
        assert pullback(reg, "g31", m) == steps[3]


# -- error paths the fast paths must keep ---------------------------------------


@pytest.fixture
def small():
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("p", "q"))
    reg.declare_symbol("A", "X")
    reg.declare_space("Z")
    reg.declare_generators("Z", ("z",))
    reg.declare_morphism("f", "Z", "X", pull_bundles={"p": 1})
    return reg


def test_upsilon_refuses_out_of_range_bits(small):
    with pytest.raises(RegistryError, match="bundle bits 4 out of range on 'X'"):
        upsilon(small, BundleClass("X", 0b100))
    with pytest.raises(RegistryError, match="bundle bits -1 out of range"):
        upsilon(small, BundleClass("X", -1))
    with pytest.raises(RegistryError, match="unknown space 'W'"):
        upsilon(small, BundleClass("W", 0))
    assert upsilon(small, BundleClass("X", 0b11)).terms() == \
        [(((), 0b11), HalfLaurent.const(1))]


def test_one_refuses_unknown_space(small):
    with pytest.raises(RegistryError, match="unknown space 'W'"):
        Motive.one(small, "W")
    assert Motive.one(small, "X").is_one()


def test_pullback_missing_images_raise(small):
    # q has no table image and Z has no generator q
    with pytest.raises(MissingTransport,
                       match="morphism 'f' has no image for generator 'q'"):
        pullback(small, "f", upsilon(small, BundleClass("X", 0b10)))
    # A has no table image and is not allowed on Z
    with pytest.raises(MissingTransport,
                       match="morphism 'f' has no image for symbol 'A'"):
        pullback(small, "f", symbol_motive(small, "A"))


def test_pullback_refuses_motive_on_wrong_space(small):
    with pytest.raises(SpaceMismatch, match="cannot be pulled along 'f'"):
        pullback(small, "f", Motive.one(small, "Z"))
