"""Round-trips, schema validation, and fixture-file stability."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic import (HalfLaurent, Motive, MotivicError, Registry,
                     RegistryError, ValidationFailed, fixtures, pullback,
                     symbol_motive)
from motivic.cli import main
from motivic.jobs import job_validator, parse_job
from motivic.render import bundle_text, symbol_text, term_text
from motivic.schemas import JOB, MOTIVE, all_schemas, write_schema_files
from motivic.serialize import (JOB_SCHEMA, atlas_from_json, atlas_to_json,
                               coeff_to_json, fixedpoints_to_json,
                               monomial_to_json,
                               motive_from_json, motive_to_json,
                               registry_from_json, registry_to_json,
                               resolution_from_json, resolution_to_json,
                               ts_to_json)

from conftest import rand_fragment_motive

ALL_SCHEMAS = all_schemas()


def test_motive_round_trip_randomized(ring_registry):
    rng = random.Random(71)
    validator = jsonschema.Draft7Validator(MOTIVE)
    for _ in range(200):
        m = rand_fragment_motive(ring_registry, rng, allow_opaque=True,
                                 opaque="w3")
        doc = motive_to_json(m)
        validator.validate(doc)
        assert motive_from_json(ring_registry, doc) == m


def test_motive_json_is_deterministic(ring_registry):
    rng = random.Random(73)
    for _ in range(50):
        m = rand_fragment_motive(ring_registry, rng)
        a = json.dumps(motive_to_json(m), sort_keys=True)
        b = json.dumps(motive_to_json(m.normalized()), sort_keys=True)
        assert a == b


# -- the grouped writer and renderer against the per-term ones ---------------------
#
# The writer and the renderer group the flat form once into plain
# ``{k2: c}`` dicts.  The references below are the per-term versions they
# replaced: each term through ``terms()`` (a HalfLaurent per term), the
# writer's coefficients through ``coeff_to_json``, the renderer's head
# picked by an if chain and the pieces joined by ``+=``.


def _per_term_to_json(m) -> dict:
    terms = []
    for (mon, bits), coeff in m.terms():
        terms.append({"monomial": list(mon),
                      "bundle": list(m.reg.names_of(m.space, bits)),
                      "coeff": coeff_to_json(coeff)})
    return {"space": m.space, "terms": terms}


def _per_term_text(reg, space, mon, bits, coeff: HalfLaurent) -> str:
    parts = [bundle_text(reg, space, bits)] if bits else []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        body = symbol_text(reg, mon[i])
        parts.append(body if j - i == 1 else f"{body}^{j - i}")
        i = j
    ctext = coeff.text()
    if not parts:
        return ctext
    if " " in ctext:
        head = f"({ctext})"
    elif ctext == "1":
        head = ""
    elif ctext == "-1":
        head = "-"
    else:
        head = ctext
    body = " ⊙ ".join(parts)
    return head + body if head in ("", "-") else head + " ⊙ " + body


def _per_term_motive_text(m) -> str:
    items = m.terms()
    if not items:
        return "0"
    rendered = [_per_term_text(m.reg, m.space, mon, bits, coeff)
                for (mon, bits), coeff in items]
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def test_grouped_writer_and_renderer_match_the_per_term_ones(ring_registry):
    rng = random.Random(79)
    motives = [Motive.zero(ring_registry, "S")] + [
        rand_fragment_motive(ring_registry, rng, allow_opaque=True,
                             opaque="w3") for _ in range(300)]
    for m in motives:
        doc = motive_to_json(m)
        assert doc == _per_term_to_json(m)
        assert m.text() == _per_term_motive_text(m)
        for (mon, bits), coeff in m.terms():
            assert term_text(m.reg, m.space, mon, bits, coeff._coeffs) == \
                _per_term_text(m.reg, m.space, mon, bits, coeff)
        assert motive_from_json(ring_registry, doc) == m


def test_writer_output_is_pinned():
    # terms and exponents built out of order come out sorted
    m = Motive(_loader_registry(), "S", [((("B",), 0), {2: 1, 0: 3}),
                                         ((("A",), 0b101), {0: -1})])
    assert motive_to_json(m) == {"space": "S", "terms": [
        {"monomial": ["A"], "bundle": ["g0", "g2"], "coeff": [[0, -1]]},
        {"monomial": ["B"], "bundle": [], "coeff": [[0, 3], [2, 1]]}]}


@pytest.mark.parametrize("terms,text", [
    ([((("A",), 0), {1: 1}), (((), 0), {0: -3})], "-3 + L^(1/2) ⊙ [A]"),
    ([((("B",), 0), {0: -1}), ((("A",), 1), {0: 1})], "Y(g0) ⊙ [A] - [B]"),
    ([(((), 0b110), {0: -1})], "-Y(g1+g2)"),
    ([((("w3",), 1), {0: 5}), ((("A", "A"), 0), {-2: -1})],
     "-L^-1 ⊙ [A]^2 + 5 ⊙ Y(g0) ⊙ [mu_3:w3]"),
    ([((("B",), 1), {1: -1, 0: 1}), (((), 0), {2: 2, 0: -1})],
     "-1 + 2*L + (1 - L^(1/2)) ⊙ Y(g0) ⊙ [B]"),
    ([((("A",), 0), {0: -1, 3: 2})], "(-1 + 2*L^(3/2)) ⊙ [A]"),
    ([], "0"),
], ids=["negative_lead", "unit_heads", "minus_one_lead", "k_zero",
        "parenthesized_sum", "parenthesized_negative_sum", "zero"])
def test_motive_text_is_pinned(terms, text):
    assert Motive(_loader_registry(), "S", terms).text() == text


@cache
def _loader_registry() -> Registry:
    """Two plain symbols, one opaque one and three generators on ``S``."""
    reg = Registry()
    reg.declare_space("S", dim=2)
    reg.declare_generators("S", ("g0", "g1", "g2"))
    for name, order in (("A", 1), ("B", 1), ("w3", 3)):
        reg.declare_symbol(name, "S", order)
    reg.freeze()
    return reg


def _reference_load(reg, doc) -> Motive:
    """Reference loader: each coefficient a checked ``HalfLaurent``, then
    the checking ``Motive`` constructor."""
    space = doc["space"]
    return Motive(reg, space, [
        ((tuple(t["monomial"]), reg.bits_of(space, t["bundle"])),
         HalfLaurent((int(k), int(c)) for k, c in t["coeff"]))
        for t in doc["terms"]])


# few exponents, monomials and bundles, so that exponents and (monomial,
# bundle) entries repeat and cancel; some coefficients are integral floats
_pairs = st.lists(st.tuples(st.integers(-3, 3), st.one_of(
    st.integers(-2, 2), st.integers(-2, 2).map(float))), max_size=5)
_terms = st.fixed_dictionaries({
    "monomial": st.lists(st.sampled_from(("A", "B", "w3")), max_size=3),
    "bundle": st.lists(st.sampled_from(("g0", "g1", "g2")), max_size=2,
                       unique=True),
    "coeff": _pairs.map(lambda pairs: [list(p) for p in pairs])})


@settings(max_examples=200, deadline=None)
@given(st.lists(_terms, max_size=6).map(
    lambda terms: {"space": "S", "terms": terms}))
@example({"space": "S", "terms": [
    {"monomial": ["B", "A"], "bundle": ["g1"], "coeff": [[0, 1], [0, 2]]},
    {"monomial": ["A", "B"], "bundle": ["g1"], "coeff": [[0, 1.0], [2, 1]]},
    {"monomial": [], "bundle": [], "coeff": [[1, 1], [1, -1], [3, 0]]}]})
def test_motive_from_json_matches_halflaurent_reference(doc):
    reg = _loader_registry()
    loaded = motive_from_json(reg, doc)
    assert loaded == _reference_load(reg, doc)
    assert 0 not in loaded._flat.values()
    assert all(list(mon) == sorted(mon) for mon, _, _ in loaded._flat)
    assert motive_to_json(motive_from_json(reg, motive_to_json(loaded))) \
        == motive_to_json(loaded)


def test_motive_from_json_builds_no_halflaurent(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the loader built a HalfLaurent")

    reg = _loader_registry()
    doc = {"space": "S", "terms": [
        {"monomial": ["B", "A"], "bundle": ["g0", "g2"],
         "coeff": [[1, 2], [-1, 3], [1, -2]]},
        {"monomial": ["w3"], "bundle": [], "coeff": [[0, 5]]}]}
    monkeypatch.setattr(HalfLaurent, "__init__", refuse)
    loaded = motive_from_json(reg, doc)
    monkeypatch.undo()
    assert loaded == _reference_load(reg, doc)


@pytest.mark.parametrize("pairs", [[(0, 1.5)], [(0.5, 1)], [(0, 1.0)],
                                   {0: 1.5}, [(0, True)]],
                         ids=["float_coeff", "float_exponent",
                              "integral_float", "dict", "bool"])
def test_motive_refuses_non_integer_pairs(pairs):
    reg = _loader_registry()
    with pytest.raises(TypeError, match="integer exponent keys and coeff"):
        Motive(reg, "S", [((("A",), 0), pairs)])


@pytest.mark.parametrize("entry,shown", [
    ([0, 1.5], "1.5"), ([0.5, 1], "0.5"), ([0, True], "True"),
    ([False, 1], "False"), ([0, "2"], "'2'"), ([0, None], "None"),
    ([0, float("inf")], "inf")],
    ids=["float_coeff", "float_exponent", "bool_coeff", "bool_exponent",
         "string", "null", "infinite"])
def test_motive_from_json_refuses_non_integer_entries(entry, shown):
    # exactly what a draft-07 "integer" accepts, and no int() coercion
    doc = {"space": "S", "terms": [
        {"monomial": ["A"], "bundle": [], "coeff": [[0, 1], entry]}]}
    with pytest.raises(ValidationFailed) as exc:
        motive_from_json(_loader_registry(), doc)
    assert exc.value.diagnostics == [
        f"coefficient entry {shown} is not an integer"]


def test_motive_from_json_reads_integral_floats_as_ints():
    doc = {"space": "S", "terms": [
        {"monomial": ["A"], "bundle": [], "coeff": [[2.0, -3.0], [1, 5]]}]}
    flat = motive_from_json(_loader_registry(), doc)._flat
    assert flat == {(("A",), 0, 2): -3, (("A",), 0, 1): 5}
    assert all(type(k) is int and type(c) is int
               for (_, _, k), c in flat.items())


def test_motive_takes_a_dict_of_integers_as_coefficient():
    reg = _loader_registry()
    assert Motive(reg, "S", [((("A",), 0), {0: 2, 3: -1})]) \
        == Motive(reg, "S", [((("A",), 0), HalfLaurent({0: 2, 3: -1}))])


def test_motive_from_json_refuses_a_stored_cover_symbol():
    reg = parse_job(fixtures.load_fixture_job("x2y")).registry
    sym = reg.symbols["cov_y"]
    assert sym.cover_bits is not None
    doc = {"space": sym.space, "terms": [
        {"monomial": ["cov_y"], "bundle": [], "coeff": [[0, 1]]}]}
    with pytest.raises(RegistryError, match="cover symbol 'cov_y' must be"):
        motive_from_json(reg, doc)


def test_registry_round_trip_cylinder():
    fx = fixtures.x2y()
    doc = registry_to_json(fx.registry)
    jsonschema.validate(doc, ALL_SCHEMAS["registry"])
    reg2 = registry_from_json(doc)
    assert set(reg2.spaces) == set(fx.registry.spaces)
    assert reg2.generators["Gm"] == fx.registry.generators["Gm"]
    assert reg2.symbols["cov_y"].cover_bits == 1
    assert reg2.symbols["cov_y"].underlying is not None
    assert reg2.morphisms["sq"].pull_bundles == {"p1": 0}
    assert reg2.square_roots == fx.registry.square_roots


def test_registry_round_trip_keeps_symbol_named_like_an_image():
    # "XX.A" is a user symbol on X, not an image on the product XX, so the
    # image of A on the left factor stays "XX.0.A" after a round trip
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_generators("X", ("p",))
    reg.declare_symbol("A", "X")
    reg.declare_symbol("XX.A", "X")
    reg.declare_product("XX", "X", "X")
    doc = registry_to_json(reg)
    reg2 = registry_from_json(doc)
    assert list(reg2.symbols) == list(reg.symbols)
    assert reg2.products["XX"] == reg.products["XX"]
    assert reg2.products["XX"].symbol_images[(0, "A")] == "XX.0.A"
    assert registry_to_json(reg2) == doc


def _registry_with_name_images() -> Registry:
    """``f: Z -> X`` maps ``A`` to the symbol ``D`` (stored as its monomial)
    and ``B`` to the Z2-cover ``covZ`` (stored as its class)."""
    reg = Registry()
    reg.declare_space("X", dim=1)
    reg.declare_symbol("A", "X")
    reg.declare_symbol("B", "X")
    reg.declare_space("Z", dim=1)
    reg.declare_generators("Z", ("z",))
    reg.declare_symbol("D", "Z")
    reg.declare_symbol("covZ", "Z", 2, cover_bits=1)
    reg.declare_morphism("f", "Z", "X", pull_symbols={"A": "D", "B": "covZ"})
    return reg


def test_registry_round_trip_keeps_name_images():
    reg = _registry_with_name_images()
    doc = registry_to_json(reg)
    jsonschema.validate(doc, ALL_SCHEMAS["registry"])
    reg2 = registry_from_json(doc)
    assert registry_to_json(reg2) == doc
    for name in ("A", "B"):
        assert motive_to_json(pullback(reg2, "f", symbol_motive(reg2, name))) \
            == motive_to_json(pullback(reg, "f", symbol_motive(reg, name)))


def test_registry_with_a_composite_has_no_json_form():
    reg = _registry_with_name_images()
    reg.declare_space("W", dim=1, strata=("Z",))
    reg.declare_generators("W", ("z",))
    reg.declare_morphism("g", "W", "Z")
    reg.compose("g", "f", "fg")
    with pytest.raises(RegistryError,
                       match="composite morphism 'fg' has no JSON form"):
        registry_to_json(reg)


def _job_with_underlying(name, underlying):
    """The fixture job with each ``symbol: [monomial names]`` entry of
    ``underlying`` set as that symbol's underlying class."""
    data = fixtures.load_fixture_job(name)
    for sym in data["registry"]["symbols"]:
        if sym["name"] in underlying:
            sym["underlying"] = {"space": sym["space"], "terms": [
                {"monomial": underlying[sym["name"]], "bundle": [],
                 "coeff": [[0, 1]]}]}
    return data


def test_underlying_class_may_name_any_symbol():
    # cov_y listed before the Pfib its underlying class names
    data = fixtures.load_fixture_job("x2y")
    data["registry"]["symbols"].reverse()
    assert [s["name"] for s in data["registry"]["symbols"]] == ["cov_y", "Pfib"]
    reg = parse_job(data).registry
    assert reg.symbols["cov_y"].underlying == symbol_motive(reg, "Pfib")
    # two trivial-monodromy symbols whose underlying classes name each other
    reg = parse_job(_job_with_underlying(
        "x2_line", {"Gm0": ["pt0"], "pt0": ["Gm0"]})).registry
    assert reg.symbols["Gm0"].underlying == symbol_motive(reg, "pt0")
    assert reg.symbols["pt0"].underlying == symbol_motive(reg, "Gm0")


def test_resolution_round_trip_all_fixtures():
    for builder in (fixtures.z2, fixtures.z3, fixtures.z4, fixtures.x2,
                    fixtures.x2y, fixtures.x2y_plane):
        fx = builder()
        doc = resolution_to_json(fx.resolution)
        jsonschema.validate(doc, ALL_SCHEMAS["resolution"])
        reg2 = registry_from_json(registry_to_json(fx.registry))
        res2 = resolution_from_json(reg2, doc)
        assert resolution_to_json(res2) == doc


def test_atlas_round_trip():
    for builder in (fixtures.atlas_z2, fixtures.atlas_cylinder):
        fx = builder()
        doc = atlas_to_json(fx.atlas)
        jsonschema.validate(doc, ALL_SCHEMAS["atlas"])
        reg2 = registry_from_json(registry_to_json(fx.registry))
        a2 = atlas_from_json(reg2, doc)
        assert atlas_to_json(a2) == doc


def test_atlas_chart_by_zeta_reference():
    # a chart may reference a resolution; its class is the computed
    # vanishing cycle, and gluing agrees with the inline fixture
    from motivic import glue

    fx = fixtures.atlas_cylinder()
    doc = atlas_to_json(fx.atlas)
    _reg, plain, twisted = fixtures.cylinder_pair()
    doc["charts"][0]["mf"] = {"vanishing_of": resolution_to_json(plain)}
    doc["charts"][1]["mf"] = {"vanishing_of": resolution_to_json(twisted),
                              "critical_value": "0"}
    jsonschema.validate(doc, ALL_SCHEMAS["atlas"])
    reg2 = registry_from_json(registry_to_json(fx.registry))
    a2 = atlas_from_json(reg2, doc)
    assert glue(a2).values == glue(fx.atlas).values


def _payload_to_json(kind: str, payload) -> dict:
    """The payload writer of each job kind, applied to its parse."""
    if kind == "resolution":
        return resolution_to_json(payload)
    if kind == "arc-check":
        (monomial, context), resolution = payload
        return {"kind": kind, "monomial": monomial_to_json(monomial, context),
                "resolution": resolution_to_json(resolution)}
    if kind == "atlas":
        return atlas_to_json(payload)
    if kind == "fixedpoints":
        return fixedpoints_to_json(*payload)
    return ts_to_json(payload)


def test_fixture_files_round_trip_bit_for_bit():
    # each shipped job is what the writers make of its own parse
    for name in fixtures.FIXTURE_NAMES:
        shipped = fixtures.fixture_path(name).read_text(encoding="utf-8")
        job = parse_job(json.loads(shipped))
        doc = {"schema": JOB_SCHEMA, "registry": registry_to_json(job.registry),
               "payload": _payload_to_json(job.kind, job.payload)}
        if job.params:
            doc["params"] = job.params
        written = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert written == shipped, f"fixture {name} does not round-trip"


def test_ts_chain_is_the_shipped_ts_job():
    reg, factors, _last = fixtures.ts_chain(10)
    job = fixtures.load_fixture_job("ts_z2_10")
    assert registry_to_json(reg) == job["registry"]
    assert ts_to_json(factors) == job["payload"]


@pytest.mark.parametrize("first,second", [
    ("x2", "x2y"), ("x2_line", "x2_line_blowup"), ("z2", "arc_z2"),
    ("z3", "arc_z3"), ("z4", "arc_z4"), ("x2y", "arc_x2y")])
def test_jobs_read_together_ship_one_registry(first, second):
    # the builders read both jobs of a pair over the first one's registry,
    # and z^a and x^2 y through their arc jobs, whose resolution is the
    # plain job's payload
    a, b = (fixtures.load_fixture_job(name) for name in (first, second))
    assert a["registry"] == b["registry"]
    if second.startswith("arc_"):
        assert b["payload"]["resolution"] == a["payload"]


def test_all_fixture_jobs_validate_and_parse():
    for name in fixtures.FIXTURE_NAMES:
        data = fixtures.load_fixture_job(name)
        job_validator().validate(data)
        job = parse_job(data)
        assert job.kind in ("resolution", "arc-check", "atlas", "fixedpoints",
                            "ts")


def test_schemas_are_valid_draft07():
    # parse_job skips the metaschema check of the constant JOB schema
    assert ALL_SCHEMAS["job"] is JOB
    for schema in ALL_SCHEMAS.values():
        jsonschema.Draft7Validator.check_schema(schema)


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_jobs(draw):
    """A shipped fixture job with one schema-level mutation."""
    data = fixtures.load_fixture_job(draw(st.sampled_from(fixtures.FIXTURE_NAMES)))
    how = draw(st.sampled_from(("unknown_field", "wrong_kind", "retype",
                                "drop_key")))
    if how == "unknown_field":
        level = draw(st.sampled_from(("job", "payload", "registry", "params")))
        target = data if level == "job" else data.setdefault(level, {})
        target[draw(st.sampled_from(("surprise", "extra_1")))] = 1
    elif how == "wrong_kind":
        data["payload"]["kind"] = draw(st.sampled_from(
            ("resolution", "monomial", "arc-check", "atlas", "fixedpoints",
             "ts", "nonsense")).filter(lambda k: k != data["payload"]["kind"]))
    else:
        nodes = [(path, value) for path, value in _nodes(data) if path]
        if how == "drop_key":
            nodes = [(path, value) for path, value in nodes
                     if isinstance(path[-1], str)]
        path, value = draw(st.sampled_from(nodes))
        parent = _at(data, path[:-1])
        if how == "drop_key":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(
                (0, -1, 1.5, "x", None, True, [], {})).filter(
                    lambda new: type(new) is not type(value)))
    return data


@settings(max_examples=30, deadline=None)
@given(mutated_jobs())
def test_parse_job_diagnostics_match_jsonschema_validate(data):
    try:
        jsonschema.validate(data, JOB)
        want = None
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path)
        want = [f"job schema: {exc.message} (at /{path})"]
    try:
        parse_job(data)
        got = None
    except ValidationFailed as exc:
        got = exc.diagnostics
    except MotivicError:
        got = None
    if want is None:
        assert got is None or not got[0].startswith("job schema:")
    else:
        assert got == want


def test_parse_job_reports_the_best_match_of_two_schema_faults():
    # jsonschema lists the registry's fault first; best_match picks the
    # payload's, and so does ``jsonschema.validate``
    data = fixtures.load_fixture_job("x2y")
    data["registry"]["spaces"][0]["name"] = 1
    data["payload"]["dim_u"] = "x"
    with pytest.raises(ValidationFailed) as err:
        parse_job(data)
    assert err.value.diagnostics == [
        "job schema: 'x' is not of type 'integer' (at /payload/dim_u)"]


def _refs(doc):
    """The definition names of every ``$ref`` in ``doc``."""
    return [value.removeprefix("#/definitions/")
            for path, value in _nodes(doc) if path and path[-1] == "$ref"]


def _inline(node, definitions):
    """``node`` with every ``$ref`` replaced by the definition it names."""
    if isinstance(node, dict):
        if "$ref" in node:
            name = node["$ref"].removeprefix("#/definitions/")
            return _inline(definitions[name], definitions)
        return {key: _inline(value, definitions) for key, value in node.items()
                if key != "definitions"}
    if isinstance(node, list):
        return [_inline(value, definitions) for value in node]
    return node


def _shipped_documents(kind):
    """Documents of one schema kind taken from the shipped fixture jobs."""
    jobs = [fixtures.load_fixture_job(name) for name in fixtures.FIXTURE_NAMES]
    payloads = [job["payload"] for job in jobs]
    if kind == "job":
        return jobs
    if kind == "registry":
        return [job["registry"] for job in jobs]
    if kind == "monomial":
        return [p["monomial"] for p in payloads if p["kind"] == "arc-check"]
    if kind == "motive":
        return [s["class"] for p in payloads if p["kind"] == "resolution"
                for s in p["strata"]]
    return [p for p in payloads if p["kind"] == kind]


@pytest.mark.parametrize("name", list(ALL_SCHEMAS))
def test_shipped_schema_definitions_are_closed_and_used(name):
    # check_schema does not follow $ref, so a dropped definition would
    # otherwise surface only when a document reached it
    schema = ALL_SCHEMAS[name]
    definitions = schema.get("definitions", {})
    refs = _refs(schema)
    assert all(ref in definitions for ref in refs), name
    assert set(refs) == set(definitions), name
    assert json.dumps(schema, indent=1).count('"coeff": {') <= 1, name
    documents = _shipped_documents(name)
    assert documents
    validator = jsonschema.Draft7Validator(schema)
    for doc in documents:
        validator.validate(doc)


@cache
def _inlined_job_validator():
    return jsonschema.Draft7Validator(_inline(JOB, JOB["definitions"]))


def _job_diagnostic(validator, data):
    exc = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if exc is None:
        return None
    path = "/".join(str(p) for p in exc.absolute_path)
    return f"job schema: {exc.message} (at /{path})"


def test_inlined_job_schema_accepts_every_fixture():
    for name in fixtures.FIXTURE_NAMES:
        data = fixtures.load_fixture_job(name)
        assert _job_diagnostic(_inlined_job_validator(), data) is None


@settings(max_examples=60, deadline=None)
@given(mutated_jobs())
def test_job_schema_refs_match_inlined_schema(data):
    assert (_job_diagnostic(job_validator(), data)
            == _job_diagnostic(_inlined_job_validator(), data))


def test_unknown_fields_rejected():
    data = fixtures.load_fixture_job("z2")
    data["surprise"] = 1
    with pytest.raises(ValidationFailed):
        parse_job(data)
    data = fixtures.load_fixture_job("z2")
    data["payload"]["bogus_field"] = True
    with pytest.raises(ValidationFailed):
        parse_job(data)


def test_every_job_object_schema_is_closed():
    objects = [path for path, node in _nodes(JOB)
               if isinstance(node, dict) and node.get("type") == "object"]
    assert len(objects) > 30
    open_ = [path for path in objects
             if _at(JOB, path).get("additionalProperties") is not False]
    assert open_ == [("definitions", "monomial", "properties", "cover_symbols")]


@st.composite
def jobs_with_an_unknown_field(draw):
    """A shipped fixture job with ``"surprise": 1`` added to one object, at
    any depth.  The value is an int, so the open ``cover_symbols`` map,
    whose values are names, refuses it too."""
    data = fixtures.load_fixture_job(draw(st.sampled_from(fixtures.FIXTURE_NAMES)))
    objects = [node for _, node in _nodes(data) if isinstance(node, dict)]
    draw(st.sampled_from(objects))["surprise"] = 1
    return data


# a command that reads each payload kind
_COMMAND = {"resolution": "zeta", "arc-check": "arc-check", "atlas": "glue",
            "fixedpoints": "localize", "ts": "ts"}


@settings(max_examples=60, deadline=None)
@given(jobs_with_an_unknown_field())
def test_unknown_field_is_refused_at_every_depth(tmp_path_factory, data):
    with pytest.raises(ValidationFailed) as exc:
        parse_job(data)
    [diagnostic] = exc.value.diagnostics
    assert diagnostic.startswith("job schema: ")
    path = tmp_path_factory.mktemp("surprise") / "job.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([_COMMAND[data["payload"]["kind"]], "--job", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == \
        (2, "", f"validation: {diagnostic}\n")


def test_schema_files_on_disk_match_definitions():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "docs" / "schemas"
    for name, schema in ALL_SCHEMAS.items():
        path = root / f"{name}.json"
        assert path.exists(), f"missing shipped schema {name}"
        assert json.loads(path.read_text(encoding="utf-8")) == schema


def test_write_schema_files_reproduces_shipped_files(tmp_path):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "docs" / "schemas"
    write_schema_files(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in root.iterdir())
    for path in root.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
