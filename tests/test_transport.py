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
Its bundle half, ``reference_bits``, is also the reference for the
morphisms' memo tables (``Registry.pull_tables``) over repeated pulls.
``pullback`` given a twist ``P`` is checked against that reference times
``Y(P)``, and its failures against the two-step form
``pullback(...).odot(upsilon(...))``.
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


def reference_bits(reg: Registry, morphism: str, bits: int) -> int:
    """The by-name walk: each named generator goes to its table image, else
    to its namesake on the source; a composite walks its steps in order."""
    mor = reg.morphisms[morphism]
    if mor.steps:
        for step in mor.steps:
            bits = reference_bits(reg, step, bits)
        return bits
    source_gens = reg.generators[mor.source]
    out = 0
    for name in reg.names_of(mor.target, bits):
        if name in mor.pull_bundles:
            out ^= mor.pull_bundles[name]
        elif name in source_gens:
            out ^= 1 << source_gens.index(name)
        else:
            raise MissingTransport(f"morphism {morphism!r} has no image for "
                                   f"generator {name!r}")
    return out


def reference_pullback(reg: Registry, morphism: str, m: Motive) -> Motive:
    mor = reg.morphisms[morphism]
    out = Motive.zero(reg, mor.source)
    for (mon, bits), coeff in m.terms():
        term = Motive(reg, mor.source,
                      {((), reference_bits(reg, morphism, bits)): coeff})
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


def _morphisms_to_v0(reg: Registry, n: int) -> dict[int, list]:
    """Index i -> the names of morphisms V<i> -> V0 in the chain: None (the
    identity) for i = 0, then ``f1`` and composites, nested on both sides
    when n = 3."""
    names: dict[int, list] = {0: [None], 1: ["f1"]}
    outer = "f1"
    for i in range(2, n + 1):  # f1 . f2, then (f1 . f2) . f3
        reg.compose(f"f{i}", outer, f"c{i}")
        outer = f"c{i}"
        names[i] = [outer]
    if n == 3:  # f1 . (f2 . f3)
        reg.compose("f3", "f2", "g32")
        reg.compose("g32", "f1", "g31")
        names[3].append("g31")
    return names


@settings(max_examples=40, deadline=None)
@given(chains())
def test_pullback_along_composite_is_pullback_of_pullback(chain):
    reg, n, m = chain
    steps = [m]
    for i in range(1, n + 1):
        steps.append(pullback(reg, f"f{i}", steps[-1]))
    for i, names in _morphisms_to_v0(reg, n).items():
        for name in names:
            if name is not None:
                assert pullback(reg, name, m) == steps[i]


# -- the memo tables of bundle transport -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memoized_pull_bits_matches_by_name_walk(data):
    # every class in range, one past it and -1, each read twice through the
    # morphism's table in a drawn order, so hits follow misses and a
    # composite reads its steps' tables on one class after another;
    # Registry.pull_bits, which only computes, agrees with each read
    reg, n, _ = data.draw(chains())
    _morphisms_to_v0(reg, n)
    reg.declare_morphism("g", "V1", "V0")  # same-name rule only: may miss
    for name in data.draw(st.permutations(sorted(reg.morphisms))):
        mor = reg.morphisms[name]
        order = data.draw(st.permutations(
            range(-1, (1 << len(reg.generators[mor.target])) + 1)))
        table = reg.pull_tables[name]
        for bits in order + order:
            expected = outcome(reference_bits, reg, name, bits)
            assert outcome(table.__getitem__, bits) == expected, (name, bits)
            assert outcome(reg.pull_bits, mor, bits) == expected, (name, bits)


def test_failed_pull_is_not_memoized(small):
    # Y -> Z -> X; neither Z nor Y has q, so q misses on the first step
    small.declare_space("Y")
    small.declare_generators("Y", ("q", "z"))
    small.declare_morphism("e", "Y", "Z")
    small.compose("e", "f", "c")
    f, c = small.morphisms["f"], small.morphisms["c"]
    for mor in (f, c, f, c):
        with pytest.raises(MissingTransport) as err:
            small.pull_tables[mor.name][0b11]
        assert str(err.value) == "morphism 'f' has no image for generator 'q'"
        assert 0b11 not in small.pull_tables[mor.name]
        assert small.pull_tables[mor.name][0b01] == (1 if mor is f else 0b10)
    small.declare_generators("Z", ("q",))
    assert small.pull_tables["f"][0b11] == 0b11
    assert small.pull_tables["c"][0b11] == 0b11


def test_out_of_range_pull_raises_every_time(small):
    small.declare_space("Y")
    small.declare_generators("Y", ("z",))
    small.declare_morphism("e", "Y", "Z")
    small.compose("e", "f", "c")
    for _ in range(3):
        for name, bits, space in (("f", 0b100, "X"), ("f", -1, "X"),
                                  ("c", 0b100, "X"), ("e", -2, "Z"),
                                  ("e", 0b10, "Z")):
            with pytest.raises(RegistryError) as err:
                small.pull_tables[name][bits]
            assert str(err.value) == f"bundle bits {bits} out of range on {space!r}"
        assert small.pull_tables["c"][0b01] == 1


def test_pull_bits_stays_correct_past_the_memo_cap():
    gens = [f"g{i}" for i in range(10)]
    reg = Registry()
    reg.declare_space("T")
    reg.declare_generators("T", gens)
    reg.declare_space("S")
    reg.declare_generators("S", gens[::-1])
    reg.declare_morphism("f", "S", "T", pull_bundles={
        g: (i * 37 + 5) % 1024 for i, g in enumerate(gens[::3])})
    mor = reg.morphisms["f"]
    classes = list(range(1 << len(gens)))
    table = reg.pull_tables["f"]
    for bits in classes + classes[::-1]:
        expected = reference_bits(reg, "f", bits)
        assert table[bits] == expected
        assert reg.pull_bits(mor, bits) == expected


def test_repeated_pullbacks_transport_each_class_once_per_registry(monkeypatch):
    gens = [f"g{i}" for i in range(10)]
    reg = Registry()
    for space in ("T", "S"):
        reg.declare_space(space)
        reg.declare_generators(space, gens)
    reg.declare_morphism("f", "S", "T")
    classes = range(1 << len(gens))
    # every class of T, each with three powers of L
    m = Motive(reg, "T", [(((), b), HalfLaurent({0: 1, 1: 2, 2: 3}))
                          for b in classes])
    calls = 0
    pull_bits = Registry.pull_bits

    def counted(self, mor, bits):
        nonlocal calls
        calls += 1
        return pull_bits(self, mor, bits)

    monkeypatch.setattr(Registry, "pull_bits", counted)
    for _ in range(3):
        assert pullback(reg, "f", m) == Motive(
            reg, "S", [(((), b), HalfLaurent({0: 1, 1: 2, 2: 3}))
                       for b in classes])
    assert calls == len(classes)
    assert len(reg.pull_tables["f"]) == len(classes)


# -- the twist folded into the pullback pass ------------------------------------


def two_step(reg: Registry, morphism, m: Motive, p: BundleClass) -> Motive:
    """The twist as two passes: the pullback, then the product with Y(p)."""
    pulled = m if morphism is None else pullback(reg, morphism, m)
    return pulled.odot(upsilon(reg, p))


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_with_twist_matches_reference_twist(data):
    reg, n, m = data.draw(chains())
    names = _morphisms_to_v0(reg, n)
    i = data.draw(st.integers(0, n))
    morphism = data.draw(st.sampled_from(names[i]))
    space = f"V{i}"
    p = BundleClass(space, data.draw(
        st.integers(0, (1 << len(reg.generators[space])) - 1)))
    expected = m
    for j in range(1, i + 1):
        expected = reference_pullback(reg, f"f{j}", expected)
    assert pullback(reg, morphism, m, p) == \
        expected.odot(upsilon(reg, p))


def _foreign_motive(draw) -> Motive:
    """A motive over a space ``V0`` of another registry, which declares
    every pooled generator on it."""
    other = Registry()
    other.declare_space("V0")
    other.declare_generators("V0", POOL)
    other.declare_symbol("P0", "V0")
    return Motive(other, "V0", {(draw(st.sampled_from(((), ("P0",)))),
                                 draw(st.integers(0, (1 << len(POOL)) - 1))):
                                draw(coeffs)})


BREAKS = ("unknown morphism", "missing image", "m on another space",
          "m from another registry", "p out of range", "p on another space",
          "p on an unknown space")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pullback_with_twist_fails_as_the_two_step_form(data):
    # each break alone or two at once, so the order of the checks shows
    reg, n, m = data.draw(chains())
    names = _morphisms_to_v0(reg, n)
    # no tables: each generator of V0 pulls only to its namesake on V1
    reg.declare_morphism("g", "V1", "V0")
    i = data.draw(st.integers(0, n))
    morphism, space = data.draw(st.sampled_from(names[i])), f"V{i}"
    broken = data.draw(st.lists(st.sampled_from(BREAKS), max_size=2,
                                unique=True))
    if "missing image" in broken:
        morphism, space = "g", "V1"
        every = (1 << len(reg.generators["V0"])) - 1
        m = m + upsilon(reg, BundleClass("V0", every))
    if "unknown morphism" in broken:
        morphism = "h"
    if "m on another space" in broken:
        m = data.draw(motives(reg, 1))
    if "m from another registry" in broken:
        m = _foreign_motive(data.draw)
    ngen = len(reg.generators[space])
    bits = data.draw(st.integers(0, (1 << ngen) - 1))
    if "p out of range" in broken:
        bits = data.draw(st.sampled_from((1 << ngen, -1)))
    if "p on another space" in broken:
        space = data.draw(st.sampled_from(
            [f"V{j}" for j in range(n + 1) if f"V{j}" != space]))
    if "p on an unknown space" in broken:
        space = "W"
    p = BundleClass(space, bits)
    assert outcome(pullback, reg, morphism, m, p) == \
        outcome(two_step, reg, morphism, m, p)


@pytest.mark.parametrize("bits,error", [
    (0b0101, RegistryError), (1 << len(POOL), RegistryError)])
def test_identity_twist_refuses_a_foreign_motive_as_the_product_does(bits,
                                                                       error):
    # the foreign motive lies on a space of the same name, so only the
    # registry check tells the two apart; P out of range is refused first
    reg, other = Registry(), Registry()
    for r in (reg, other):
        r.declare_space("V0")
        r.declare_generators("V0", POOL)
    m = Motive(other, "V0", {((), 0b11): HalfLaurent.const(1)})
    p = BundleClass("V0", bits)
    got = outcome(pullback, reg, None, m, p)
    assert got == outcome(two_step, reg, None, m, p)
    assert got[0] is error


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


def test_twist_refuses_class_on_another_space(small):
    # p passes its range check on X, so only the space check can refuse it
    one = Motive.one(small, "X")
    for fn in (two_step, pullback):
        with pytest.raises(SpaceMismatch) as err:
            fn(small, "f", one, BundleClass("X", 1))
        assert str(err.value) == "'Z' vs 'X'"
    assert pullback(small, "f", one, BundleClass("Z", 1)) == \
        upsilon(small, BundleClass("Z", 1))


def test_a_composite_twists_in_its_last_step(small):
    # fg: V -> Z -> X takes Y(p) to Y(z) to Y(v); the twist by Y(v) cancels it
    small.declare_space("V")
    small.declare_generators("V", ("v",))
    small.declare_morphism("g", "V", "Z", pull_bundles={"z": 1})
    small.compose("g", "f", "fg")
    m = upsilon(small, BundleClass("X", 0b01))
    assert pullback(small, "fg", m) == upsilon(small, BundleClass("V", 1))
    assert pullback(small, "fg", m, BundleClass("V", 1)) == \
        Motive.one(small, "V")


# -- the relabel and the walk it falls back to -----------------------------------


@pytest.fixture
def meet():
    """``f: Z -> X`` sends both generators ``a`` and ``b`` of X to ``c``;
    the symbol ``A`` on X pulls back to ``C`` on Z."""
    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", ("a", "b"))
    reg.declare_symbol("A", "X")
    reg.declare_space("Z")
    reg.declare_generators("Z", ("c",))
    reg.declare_symbol("C", "Z")
    reg.declare_morphism("f", "Z", "X", pull_bundles={"a": 1, "b": 1},
                         pull_symbols={"A": symbol_motive(reg, "C")})
    return reg


def _y(reg: Registry, space: str, bits: int, mon=(), coeff=1) -> Motive:
    return Motive(reg, space, {(mon, bits): HalfLaurent.const(coeff)})


def test_colliding_images_add_up(meet):
    m = _y(meet, "X", 0b01) + _y(meet, "X", 0b10)
    assert pullback(meet, "f", m) == _y(meet, "Z", 1, coeff=2)
    assert pullback(meet, "f", m, BundleClass("Z", 1)) == _y(meet, "Z", 0,
                                                             coeff=2)


def test_cancelling_images_leave_an_empty_flat_form(meet):
    got = pullback(meet, "f", _y(meet, "X", 0b01) - _y(meet, "X", 0b10))
    assert got.is_zero() and got._flat == {}


def test_a_monomial_term_is_pulled_by_the_walk(meet, monkeypatch):
    from motivic import motive

    calls = []
    pull_monomial = motive._pull_monomial

    def counted(reg, mor, mon):
        calls.append(mon)
        return pull_monomial(reg, mor, mon)

    monkeypatch.setattr(motive, "_pull_monomial", counted)
    m = _y(meet, "X", 0b01, ("A",), 3) + _y(meet, "X", 0b11, coeff=-2)
    assert pullback(meet, "f", m) == \
        _y(meet, "Z", 1, ("C",), 3) + _y(meet, "Z", 0, coeff=-2)
    assert calls == [("A",)]


def test_the_first_fault_in_term_order_is_raised(small):
    # A has no image on Z; q has no image and Z has no generator q.  The
    # relabel meets q alone, so only the walk names A first.
    a, q = _y(small, "X", 0, ("A",)), _y(small, "X", 0b10)
    for first, second, name in ((a, q, "symbol 'A'"),
                                (q, a, "generator 'q'")):
        m = Motive(small, "X", [*first.terms(), *second.terms()])
        with pytest.raises(MissingTransport) as err:
            pullback(small, "f", m)
        assert str(err.value) == f"morphism 'f' has no image for {name}"
        assert 0b10 not in small.pull_tables["f"]
