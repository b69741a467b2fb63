"""Versioned JSON serialization for registries, motives and payloads.

Field names are fixed by the schemas in :mod:`motivic.schemas` (shipped as
files under ``docs/schemas/``); loaders validate against them and reject
unknown fields.  Serialization is deterministic: terms, generators and table
entries are emitted in canonical order, so equal in-memory values produce
byte-identical JSON.

Only the ring types are imported at module level.  Each payload builder
imports the records it constructs, so parsing a job loads the modules
of its own payload kind and no other.
"""

from __future__ import annotations

from contextlib import suppress
from typing import TYPE_CHECKING, Any

from .bundles import BundleClass
from .errors import RegistryError, UnsupportedShape, ValidationFailed
from .halflaurent import HalfLaurent
from .motive import Motive
from .registry import POINT, Registry

if TYPE_CHECKING:
    from .arcs import ArcContext, MonomialFunction
    from .dcrit import Atlas
    from .zeta import ResolutionData

MOTIVE_SCHEMA = "motivic.motive/1"
REGISTRY_SCHEMA = "motivic.registry/1"
JOB_SCHEMA = "motivic.job/1"
RESULT_SCHEMA = "motivic.result/1"


# -- motives ----------------------------------------------------------------


def coeff_to_json(c: HalfLaurent) -> list[list[int]]:
    return [[k, v] for k, v in c.items()]


def _integer(x) -> int:
    """``x`` as a JSON-schema (draft-07) integer: an int that is not a
    bool, or a float with no fractional part."""
    if type(x) is int:
        return x
    if type(x) is float and x.is_integer():
        return int(x)
    raise ValidationFailed([f"coefficient entry {x!r} is not an integer"])


def coeff_from_json(data) -> list[tuple[int, int]]:
    return [(_integer(k), _integer(v)) for k, v in data]


def motive_to_json(m: Motive) -> dict[str, Any]:
    terms = []
    for (mon, bits), coeff in m.terms():
        terms.append({
            "monomial": list(mon),
            "bundle": list(m.reg.names_of(m.space, bits)),
            "coeff": coeff_to_json(coeff),
        })
    return {"space": m.space, "terms": terms}


def motive_from_json(reg: Registry, data) -> Motive:
    space = data["space"]
    items = []
    for t in data["terms"]:
        key = (tuple(t["monomial"]), reg.bits_of(space, t["bundle"]))
        items.append((key, coeff_from_json(t["coeff"])))
    return Motive(reg, space, items)


def _opt_motive_to_json(m):
    return None if m is None else motive_to_json(m)


def _opt_motive_from_json(reg, data):
    return None if data is None else motive_from_json(reg, data)


def bundle_to_json(reg: Registry, b: BundleClass) -> list[str]:
    return list(reg.names_of(b.space, b.bits))


def _keyed(entries, fields, where: str, build, key=None) -> dict:
    """``{key(entry): build(entry)}``.  ``fields`` names the field, or the
    tuple of fields, that an entry is keyed by; ``key`` defaults to the
    value of the one field.  Each repeated key is one validation diagnostic
    that shows those fields; those an entry's own lists raise are collected
    too, so one run reports every repeat in the list and in its entries."""
    names = (fields,) if isinstance(fields, str) else fields
    table: dict = {}
    seen = set()
    repeated = []
    for e in entries:
        k = e[fields] if key is None else key(e)
        if k in seen:
            shown = " and ".join(f"{f} {e[f]!r}" for f in names)
            repeated.append(f"duplicate {shown} in {where}")
            continue
        seen.add(k)
        try:
            table[k] = build(e)
        except ValidationFailed as inner:
            repeated.extend(inner.diagnostics)
    if repeated:
        raise ValidationFailed(repeated)
    return table


def _collect(repeated: list[str], *args) -> dict:
    """``_keyed(*args)``, or ``{}`` with its diagnostics added to
    ``repeated``: a reader reads every keyed list before it raises, so one
    run reports the repeats of all of them, in order."""
    try:
        return _keyed(*args)
    except ValidationFailed as err:
        repeated.extend(err.diagnostics)
        return {}


def _term_key(reg: Registry, space: str, e) -> tuple[tuple[str, ...], int]:
    """The (sorted monomial, bundle bits) of a table entry over ``space``;
    a pushforward entry flagged ``cover`` has the monomial ``__cover__``."""
    mon = ("__cover__",) if e.get("cover") else tuple(sorted(e["monomial"]))
    return mon, reg.bits_of(space, e["bundle"])


def _classes_to_json(classes: dict) -> list[dict[str, Any]]:
    return [{"divisors": sorted(k), "class": motive_to_json(v)}
            for k, v in sorted(classes.items(), key=lambda kv: sorted(kv[0]))]


def _classes_from_json(reg: Registry, owner, where: str) -> dict:
    return _keyed(owner.get("classes", ()), "divisors", f"classes of {where}",
                  lambda e: motive_from_json(reg, e["class"]),
                  lambda e: frozenset(e["divisors"]))


# -- registry -----------------------------------------------------------------


def registry_to_json(reg: Registry) -> dict[str, Any]:
    for mor in reg.morphisms.values():
        if mor.steps:  # the format cannot say "no image"
            raise RegistryError(f"composite morphism {mor.name!r} has no JSON form")
    spaces = [{"name": s.name, "dim": s.dim, "strata": list(s.strata)}
              for s in reg.spaces.values() if s.name != "K"
              and s.name not in reg.products]
    generators = [{"space": sp, "names": list(names)}
                  for sp, names in reg.generators.items()
                  if names and sp not in reg.products]
    symbols = [{"name": sym.name, "space": sym.space, "order": sym.order,
                "underlying": _opt_motive_to_json(sym.underlying),
                "cover": None if sym.cover_bits is None
                else list(reg.names_of(sym.space, sym.cover_bits))}
               for sym in reg.symbols.values() if sym.space not in reg.products]
    morphisms = [{
        "name": mor.name, "source": mor.source, "target": mor.target,
        "kind": mor.kind,
        "pull_symbols": [{"symbol": k, "image": motive_to_json(v)}
                         for k, v in sorted(mor.pull_symbols.items())],
        "pull_bundles": [{"generator": k,
                          "image": list(reg.names_of(mor.source, v))}
                         for k, v in sorted(mor.pull_bundles.items())],
        "push_classes": [{"monomial": [] if mon == ("__cover__",) else list(mon),
                          "bundle": list(reg.names_of(mor.source, bits)),
                          "cover": mon == ("__cover__",),
                          "image": motive_to_json(img)}
                         for (mon, bits), img in sorted(mor.push_classes.items())],
    } for mor in reg.morphisms.values()]
    products = [{"name": p.name, "left": p.left, "right": p.right}
                for p in reg.products.values()]
    square_roots = [{"space": sp, "line_bundle": lb, "trivialization": tr,
                     "class": list(reg.names_of(sp, bits))}
                    for (sp, lb, tr), bits in sorted(reg.square_roots.items())]
    return {"schema": REGISTRY_SCHEMA, "spaces": spaces,
            "generators": generators, "symbols": symbols,
            "morphisms": morphisms, "products": products,
            "square_roots": square_roots}


def registry_from_json(data) -> Registry:
    reg = Registry()
    for s in data.get("spaces", ()):
        reg.declare_space(s["name"], s.get("dim"), tuple(s.get("strata", ())))
    for g in data.get("generators", ()):
        reg.declare_generators(g["space"], tuple(g["names"]))
    for sym in data.get("symbols", ()):
        cover = sym.get("cover")
        reg.declare_symbol(sym["name"], sym["space"], sym.get("order", 1),
                           cover_bits=None if cover is None
                           else reg.bits_of(sym["space"], cover))
    # underlying classes may name any symbol: attach them once all are declared
    for sym in data.get("symbols", ()):
        if sym.get("underlying") is not None:
            reg.set_underlying(sym["name"], motive_from_json(reg, sym["underlying"]))
    for p in data.get("products", ()):
        reg.declare_product(p["name"], p["left"], p["right"])
    repeated: list[str] = []
    for mor in data.get("morphisms", ()):
        source, where = mor["source"], f"of morphism {mor['name']!r}"
        pull_symbols = _collect(repeated, mor.get("pull_symbols", ()), "symbol",
                                f"pull_symbols {where}",
                                lambda e: motive_from_json(reg, e["image"]))
        pull_bundles = _collect(repeated, mor.get("pull_bundles", ()),
                                "generator", f"pull_bundles {where}",
                                lambda e: reg.bits_of(source, e["image"]))
        push_classes = _collect(
            repeated, mor.get("push_classes", ()), ("monomial", "bundle"),
            f"push_classes {where}",
            lambda e: motive_from_json(reg, e["image"]),
            lambda e: _term_key(reg, source, e))
        reg.declare_morphism(mor["name"], mor["source"], mor["target"],
                             mor.get("kind", "general"), pull_symbols,
                             pull_bundles, push_classes)
    if repeated:
        raise ValidationFailed(repeated)
    for sq in data.get("square_roots", ()):
        reg.declare_square_root(sq["space"], sq["line_bundle"],
                                sq["trivialization"],
                                reg.bits_of(sq["space"], sq["class"]))
    reg.freeze()
    return reg


# -- resolution payload -----------------------------------------------------------


def resolution_to_json(r: ResolutionData) -> dict[str, Any]:
    strata = [{"divisors": sorted(key), "cover_order": st.cover_order,
               "class": motive_to_json(st.cls)}
              for key, st in sorted(r.strata.items(), key=lambda kv: sorted(kv[0]))]
    values = []
    for c in r.critical_values:
        table = r.restrictions.get(c)
        if table is None:
            values.append({"value": c, "space": None, "ambient": None,
                           "classes": []})
            continue
        values.append({
            "value": c, "space": table.space,
            "ambient": _opt_motive_to_json(table.ambient),
            "classes": _classes_to_json(table.classes),
        })
    points = [{"label": lbl, "value": pt.value,
               "classes": _classes_to_json(pt.classes)}
              for lbl, pt in sorted(r.points.items())]
    return {"kind": "resolution", "space_u0": r.space_u0, "dim_u": r.dim_u,
            "divisors": [{"id": d.id, "N": d.N, "nu": d.nu,
                          "boundary": d.boundary} for d in r.divisors],
            "strata": strata, "critical_values": values, "points": points,
            "constant": r.constant}


def resolution_from_json(reg: Registry, data) -> ResolutionData:
    from .zeta import (Divisor, PointTable, ResolutionData, RestrictionTable,
                       Stratum)

    divisors = [Divisor(d["id"], d["N"], d["nu"], d.get("boundary", False))
                for d in data["divisors"]]
    repeated: list[str] = []
    strata = _collect(
        repeated, data["strata"], "divisors", "strata",
        lambda s: Stratum(motive_from_json(reg, s["class"]), s["cover_order"]),
        lambda s: frozenset(s["divisors"]))
    tables = _collect(
        repeated, data.get("critical_values", ()), "value", "critical_values",
        lambda v: None if v.get("space") is None else RestrictionTable(
            reg.space(v["space"]).name,
            _classes_from_json(reg, v, f"critical value {v['value']!r}"),
            _opt_motive_from_json(reg, v.get("ambient"))))
    points = _collect(repeated, data.get("points", ()), "label", "points",
                      lambda p: PointTable(p["value"], _classes_from_json(
                          reg, p, f"point {p['label']!r}")))
    if repeated:
        raise ValidationFailed(repeated)
    return ResolutionData(reg, data["space_u0"], data["dim_u"], divisors,
                          strata, list(tables) or ["0"],
                          {c: t for c, t in tables.items() if t is not None},
                          points, data.get("constant", False))


# -- monomial payload ----------------------------------------------------------------


def monomial_to_json(f: MonomialFunction, ctx: ArcContext) -> dict[str, Any]:
    return {"kind": "monomial", "exponents": list(f.exponents),
            "unit_vars": sorted(f.unit_vars), "base_space": ctx.base_space,
            "unit_generators": list(ctx.unit_generators),
            "cover_symbols": {str(k): v for k, v in sorted(ctx.cover_symbols.items())}}


def monomial_from_json(reg: Registry, data) -> tuple[MonomialFunction, ArcContext]:
    from .arcs import ArcContext, MonomialFunction, cover_class

    f = MonomialFunction(tuple(data["exponents"]),
                         frozenset(data.get("unit_vars", ())))
    # resolve every name now, so a dangling one fails the parse
    base = reg.space(data["base_space"]).name
    units = tuple(data.get("unit_generators", ()))
    reg.bits_of(base, units)
    covers = {}
    for k, v in data.get("cover_symbols", {}).items():
        try:
            order = int(k)
        except ValueError:
            raise ValidationFailed(
                [f"cover_symbols key {k!r} is not an integer order"]) from None
        covers[order] = reg.symbol(v).name
    ctx = ArcContext(reg, base, units, covers)
    with suppress(UnsupportedShape):  # reported when the oracle runs
        cover_class(f, ctx)  # resolves the cover symbol the oracle uses
    return f, ctx


# -- atlas payload --------------------------------------------------------------------


def atlas_to_json(a: Atlas) -> dict[str, Any]:
    reg = a.registry
    return {
        "kind": "atlas",
        "regions": [{"name": n, "space": s} for n, s in sorted(a.regions.items())],
        "charts": [{"id": c.id, "region": c.region, "dim_u": c.dim_u,
                    "mf": motive_to_json(c.mf),
                    "Q": bundle_to_json(reg, c.q)} for c in a.charts],
        "overlaps": [{"chart_a": o.chart_a, "chart_b": o.chart_b,
                      "region": o.region,
                      "p_a": bundle_to_json(reg, o.p_a),
                      "p_b": bundle_to_json(reg, o.p_b),
                      "q_t": bundle_to_json(reg, o.q_t),
                      "restrict_a": o.restrict_a, "restrict_b": o.restrict_b,
                      "mf_t": _opt_motive_to_json(o.mf_t)}
                     for o in a.overlaps],
        "oriented": a.oriented,
        "scissor": None if a.scissor is None else [
            {"region": p.region, "sign": p.sign,
             "entries": [{"monomial": list(mon),
                          "bundle": list(reg.names_of(
                              a.regions[p.region], bits)),
                          "class": motive_to_json(img)}
                         for (mon, bits), img in sorted(p.entries.items())]}
            for p in a.scissor],
    }


def _chart_mf_from_json(reg: Registry, data) -> Motive:
    """Inline motive, or a zeta-reference resolved through the pipeline."""
    if "vanishing_of" in data:
        from .zeta import vanishing_cycle

        res = resolution_from_json(reg, data["vanishing_of"])
        return vanishing_cycle(res, data.get("critical_value", "0"))
    return motive_from_json(reg, data)


def _undeclared_regions(data, regions: dict[str, str]) -> list[str]:
    """One diagnostic per chart, overlap or scissor piece on a region the
    atlas does not declare."""
    diags = [f"chart {c['id']!r} on undeclared region {c['region']!r}"
             for c in data["charts"] if c["region"] not in regions]
    diags += [f"overlap {o['chart_a']}|{o['chart_b']} on undeclared region "
              f"{o['region']!r}"
              for o in data.get("overlaps", ()) if o["region"] not in regions]
    diags += [f"scissor piece on undeclared region {p['region']!r}"
              for p in data.get("scissor") or () if p["region"] not in regions]
    return diags


def _restriction_diagnostics(reg: Registry, o, space: str,
                             chart_spaces: dict[str, str]) -> list[str]:
    """One diagnostic per restriction name of overlap ``o`` (on region space
    ``space``) that names no morphism, or a morphism whose source is not
    ``space`` or whose target is not the region space of the chart it
    restricts.  A side on an unknown chart id has no target to check; the
    unknown id is ``dcrit.check_orientation``'s to report."""
    diags = []
    for side in "ab":
        name, chart = o.get(f"restrict_{side}"), o[f"chart_{side}"]
        if name is None:
            continue
        try:
            mor = reg.morphism(name)
        except RegistryError as err:
            diags.append(str(err))
            continue
        label = (f"overlap {o['chart_a']}|{o['chart_b']}@{o['region']}: "
                 f"restrict_{side} {name!r}")
        if mor.source != space:
            diags.append(f"{label} has source {mor.source!r}, not the "
                         f"overlap's region space {space!r}")
        target = chart_spaces.get(chart)
        if target is not None and mor.target != target:
            diags.append(f"{label} has target {mor.target!r}, not the region "
                         f"space {target!r} of chart {chart!r}")
    return diags


def atlas_from_json(reg: Registry, data) -> Atlas:
    from .dcrit import Atlas, CriticalChart, OverlapDatum, ScissorPiece

    regions = _keyed(data["regions"], "name", "regions", lambda r: r["space"])
    undeclared = _undeclared_regions(data, regions)
    if undeclared:
        raise ValidationFailed(undeclared)
    charts = [CriticalChart(
        c["id"], c["region"], c["dim_u"], _chart_mf_from_json(reg, c["mf"]),
        BundleClass(regions[c["region"]],
                    reg.bits_of(regions[c["region"]], c["Q"])))
        for c in data["charts"]]
    chart_spaces = {c.id: regions[c.region] for c in charts}
    overlaps = []
    restrictions: list[str] = []
    for o in data.get("overlaps", ()):
        sp = regions[o["region"]]
        restrictions += _restriction_diagnostics(reg, o, sp, chart_spaces)
        overlaps.append(OverlapDatum(
            o["chart_a"], o["chart_b"], o["region"],
            *(BundleClass(sp, reg.bits_of(sp, o[k])) for k in ("p_a", "p_b", "q_t")),
            o.get("restrict_a"), o.get("restrict_b"),
            _opt_motive_from_json(reg, o.get("mf_t"))))
    scissor = None
    repeated: list[str] = []
    off_point: list[str] = []
    if data.get("scissor") is not None:
        scissor = []
        for p in data["scissor"]:
            sp = regions[p["region"]]
            entries = _collect(
                repeated, p["entries"], ("monomial", "bundle"),
                f"scissor entries of region {p['region']!r}",
                lambda e: motive_from_json(reg, e["class"]),
                lambda e: _term_key(reg, sp, e))
            scissor.append(ScissorPiece(p["region"], entries, p.get("sign", 1)))
            off_point += [f"region {p['region']!r}: scissor entry for term "
                          f"({mon}, bits={bits}) lives on {img.space!r}, "
                          f"not on the point {POINT!r}"
                          for (mon, bits), img in sorted(entries.items())
                          if img.space != POINT]
    if restrictions or repeated or off_point:
        raise ValidationFailed(restrictions + repeated + off_point)
    return Atlas(reg, regions, charts, overlaps, data.get("oriented", True),
                 scissor)


# -- fixed-point payload -----------------------------------------------------------------


def fixedpoints_to_json(components, direct, direct_atlas=None) -> dict[str, Any]:
    return {
        "kind": "fixedpoints",
        "components": [{"id": c.id, "weights": list(c.weights),
                        "motive": _opt_motive_to_json(c.motive),
                        "good": c.good, "circle_compact": c.circle_compact}
                       for c in components],
        "direct": _opt_motive_to_json(direct),
        "direct_atlas": None if direct_atlas is None
        else atlas_to_json(direct_atlas),
    }


def fixedpoints_from_json(reg: Registry, data):
    from .localize import FixedComponentDatum

    zeros = [f"component {c['id']!r} has a zero tangent weight; zero-weight "
             "directions belong to the fixed component"
             for c in data["components"] if 0 in c["weights"]]
    if zeros:
        raise ValidationFailed(zeros)
    components = [FixedComponentDatum(
        c["id"], tuple(c["weights"]), _opt_motive_from_json(reg, c.get("motive")),
        c.get("good", True), c.get("circle_compact", True))
        for c in data["components"]]
    direct = _opt_motive_from_json(reg, data.get("direct"))
    datlas = data.get("direct_atlas")
    atlas = None if datlas is None else atlas_from_json(reg, datlas)
    return components, direct, atlas


# -- ts payload ----------------------------------------------------------------------------


def ts_to_json(factors) -> dict[str, Any]:
    return {"kind": "ts", "factors": [motive_to_json(m) for m in factors]}


def ts_from_json(reg: Registry, data) -> list[Motive]:
    factors = [motive_from_json(reg, m) for m in data["factors"]]
    # resolve each product of the chain now, so a missing one fails the parse,
    # and refuse a factor symbol with no image on its product
    diags: list[str] = []
    space = factors[0].space
    for i, m in enumerate(factors[1:]):
        prod = reg.product_of(space, m.space)
        for side, factor in ((0, factors[0]), (1, m)) if i == 0 else ((1, m),):
            names = sorted({n for (mon, _), _ in factor.terms() for n in mon})
            diags += reg.missing_images(prod, side, names)
        space = prod.name
    if diags:
        raise ValidationFailed(diags)
    return factors
