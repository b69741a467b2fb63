"""Oriented d-critical atlases: orientation cocycles, gluing, pushforward.

An :class:`Atlas` is the combinatorial shadow of an oriented d-critical
locus: named regions covering it, critical charts (region, ambient chart
dimension, vanishing-cycle class, orientation-comparison class Q), and
overlap data recording, for each pair of charts, a common refinement region
together with the two square-root torsor classes P into a shared bigger
chart and that chart's own orientation class Q_T.

``glue`` produces the per-region values ``mf . Y(Q)`` and verifies descent
on every overlap: the F2 cocycle identities

    Q_T = P_a + Q_a,      Q_T = P_b + Q_b,

and the transported value identity

    mf_a . Y(P_a) = mf_b . Y(P_b)

(both sides are the shared chart's class pulled back).  Since pullback is
multiplicative, these force the glued candidates to agree on the overlap:
each restricts to ``mf_a . Y(P_a) . Y(Q_T)``.  Any failure raises
:class:`DescentFailure` carrying both normal forms.
"""

from __future__ import annotations

from typing import Optional

from .bundles import BundleClass, pull_class_bits
from .errors import (DescentFailure, MissingScissorTable, MotivicError,
                     OrientationMissing, ValidationFailed)
from .motive import Flat, Motive, _check_operand, _term_table, pullback
from .registry import POINT, FrozenRecord, Record, Registry, _set


class CriticalChart(FrozenRecord):
    def __init__(self, id: str, region: str, dim_u: int, mf: Motive,
                 q: BundleClass):
        _set(self, "id", id)
        _set(self, "region", region)
        _set(self, "dim_u", dim_u)
        _set(self, "mf", mf)
        _set(self, "q", q)


class OverlapDatum(FrozenRecord):
    def __init__(self, chart_a: str, chart_b: str, region: str,
                 p_a: BundleClass, p_b: BundleClass, q_t: BundleClass,
                 restrict_a: Optional[str] = None,
                 restrict_b: Optional[str] = None,
                 mf_t: Optional[Motive] = None):
        _set(self, "chart_a", chart_a)
        _set(self, "chart_b", chart_b)
        _set(self, "region", region)
        _set(self, "p_a", p_a)
        _set(self, "p_b", p_b)
        _set(self, "q_t", q_t)
        # morphism names restricting each chart's region to the overlap region;
        # None means the overlap region is the chart's own region
        _set(self, "restrict_a", restrict_a)
        _set(self, "restrict_b", restrict_b)
        _set(self, "mf_t", mf_t)  # optional shared-chart class for extra checks


class ScissorPiece(FrozenRecord):
    """One piece of a disjointification, with its pushforward table.

    ``entries`` maps term keys (monomial, bundle bits) of the region's value,
    monomials sorted on construction, to their absolute classes over the
    point; sign allows inclusion-exclusion over a region lattice.
    """

    def __init__(self, region: str,
                 entries: dict[tuple[tuple[str, ...], int], Motive],
                 sign: int = 1):
        _set(self, "region", region)
        _set(self, "entries", _term_table(entries, f"region {region!r}"))
        _set(self, "sign", sign)


class Atlas(Record):
    def __init__(self, registry: Registry, regions: dict[str, str],
                 charts: Optional[list[CriticalChart]] = None,
                 overlaps: Optional[list[OverlapDatum]] = None,
                 oriented: bool = True,
                 scissor: Optional[list[ScissorPiece]] = None):
        self.registry, self.regions = registry, regions  # region -> space name
        self.charts = [] if charts is None else charts
        self.overlaps = [] if overlaps is None else overlaps
        self.oriented, self.scissor = oriented, scissor

    def chart_index(self) -> dict[str, CriticalChart]:
        """Chart id -> chart; the first of charts sharing an id wins."""
        index: dict[str, CriticalChart] = {}
        for c in self.charts:
            index.setdefault(c.id, c)
        return index

    def subatlas(self, region_names) -> "Atlas":
        keep = set(region_names)
        charts = self.chart_index()
        return Atlas(
            self.registry,
            {r: s for r, s in self.regions.items() if r in keep},
            [c for c in self.charts if c.region in keep],
            [o for o in self.overlaps
             if o.region in keep and charts[o.chart_a].region in keep
             and charts[o.chart_b].region in keep],
            self.oriented,
            None if self.scissor is None
            else [p for p in self.scissor if p.region in keep])

    def tensor_orientations(self, cls_by_region: dict[str, BundleClass]) -> "Atlas":
        """Replace every orientation class Q by Q tensor the given global class."""
        def shift(region: str, b: BundleClass) -> BundleClass:
            return b.tensor(cls_by_region[region])

        charts = [CriticalChart(c.id, c.region, c.dim_u, c.mf,
                                shift(c.region, c.q)) for c in self.charts]
        overlaps = [OverlapDatum(o.chart_a, o.chart_b, o.region, o.p_a, o.p_b,
                                 shift(o.region, o.q_t), o.restrict_a,
                                 o.restrict_b, o.mf_t)
                    for o in self.overlaps]
        return Atlas(self.registry, dict(self.regions), charts, overlaps,
                     self.oriented, self.scissor)


class GlobalMotive(Record):
    def __init__(self, values: dict[str, Motive], provenance: dict[str, str],
                 checked_overlaps: list[str]):
        self.values, self.provenance = values, provenance
        self.checked_overlaps = checked_overlaps

    def __eq__(self, other):
        return (isinstance(other, GlobalMotive) and self.values == other.values
                and self.provenance == other.provenance)


def _label(o: OverlapDatum) -> str:
    return f"{o.chart_a}|{o.chart_b}@{o.region}"


def _structural_diagnostics(atlas: Atlas) -> list[str]:
    """Broken references and misplaced classes; gluing refuses on these."""
    diags: list[str] = []
    ids = set()
    for c in atlas.charts:
        if c.id in ids:
            diags.append(f"duplicate chart id {c.id!r}")
        ids.add(c.id)
        if c.region not in atlas.regions:
            diags.append(f"chart {c.id!r} on undeclared region {c.region!r}")
            continue
        space = atlas.regions[c.region]
        if c.mf.space != space or c.q.space != space:
            diags.append(f"chart {c.id!r}: classes not on region space "
                         f"{space!r}")
    for o in atlas.overlaps:
        for cid in (o.chart_a, o.chart_b):
            if cid not in ids:
                diags.append(f"overlap references unknown chart {cid!r}")
        if o.region not in atlas.regions:
            diags.append(f"overlap {o.chart_a}|{o.chart_b} on undeclared "
                         f"region {o.region!r}")
    return diags


def validate_atlas(atlas: Atlas) -> list[str]:
    """Structural plus data-completeness diagnostics (never raises).

    Beyond the structural checks, every pair of charts sharing a region
    must be covered by at least one overlap datum.
    """
    diags = _structural_diagnostics(atlas)
    covered = {frozenset((o.chart_a, o.chart_b)) for o in atlas.overlaps}
    for i, a in enumerate(atlas.charts):
        for b in atlas.charts[i + 1:]:
            if a.region == b.region and frozenset((a.id, b.id)) not in covered:
                diags.append(f"charts {a.id!r}, {b.id!r} share region "
                             f"{a.region!r} without an overlap datum")
    return diags


def check_orientation(atlas: Atlas) -> list[str]:
    """F2 cocycle check on every overlap; empty iff all identities hold.

    The diagnostics come sorted by overlap (chart a, chart b, region), then
    text, so the order of ``atlas.overlaps`` does not choose the fault that
    :func:`glue` names.
    """
    if not atlas.oriented:
        raise OrientationMissing("atlas carries no orientation")
    structural = _structural_diagnostics(atlas)
    if structural:
        raise ValidationFailed(structural)
    reg = atlas.registry
    charts = atlas.chart_index()
    faults: list[tuple[str, str, str, str]] = []
    for o in atlas.overlaps:
        for cid, p, mor in ((o.chart_a, o.p_a, o.restrict_a),
                            (o.chart_b, o.p_b, o.restrict_b)):
            q = charts[cid].q
            space, bits = ((q.space, q.bits) if mor is None
                           else pull_class_bits(reg, mor, q))
            expected = p.bits ^ bits
            if space != o.q_t.space or p.space != o.q_t.space:
                fault = "classes on mismatched spaces"
            elif o.q_t.bits != expected:
                fault = (f"Q_T != P + Q for chart {cid} "
                         f"(got {o.q_t.text(reg)}, "
                         f"expected {BundleClass(space, expected).text(reg)})")
            else:
                continue
            faults.append((o.chart_a, o.chart_b, o.region,
                           f"overlap {_label(o)}: {fault}"))
    return [text for *_, text in sorted(faults)] if faults else []


def glue(atlas: Atlas) -> GlobalMotive:
    """Per-chart candidates with descent verified on every overlap."""
    reg = atlas.registry
    diags = check_orientation(atlas)
    if diags:
        raise DescentFailure("orientation", diags[0], "", "cocycle identity broken")
    values: dict[str, Motive] = {}
    provenance: dict[str, str] = {}
    for chart in sorted(atlas.charts, key=lambda c: c.id):
        candidate = pullback(reg, None, chart.mf, chart.q)
        if chart.region in values:
            if values[chart.region] != candidate:
                raise DescentFailure(
                    f"region {chart.region}", values[chart.region].text(),
                    candidate.text(), "two charts disagree on one region")
        else:
            values[chart.region] = candidate
            provenance[chart.region] = chart.id
    charts = atlas.chart_index()
    checked: list[str] = []
    for o in sorted(atlas.overlaps,
                    key=lambda o: (o.chart_a, o.chart_b, o.region)):
        label = _label(o)
        lift_a = pullback(reg, o.restrict_a, charts[o.chart_a].mf, o.p_a)
        lift_b = pullback(reg, o.restrict_b, charts[o.chart_b].mf, o.p_b)
        if lift_a != lift_b:
            raise DescentFailure(label, lift_a.text(), lift_b.text(),
                                 "transported chart classes disagree")
        if o.mf_t is not None and lift_a != o.mf_t:
            raise DescentFailure(label, lift_a.text(), o.mf_t.text(),
                                 "transported class disagrees with shared chart")
        checked.append(label)
    return GlobalMotive(values, provenance, checked)


def pushforward_to_point(atlas: Atlas, glued: GlobalMotive) -> Motive:
    """Absolute class: sum the disjointified pieces through scissor tables.

    One pass over each piece's region value in flat form, in its stored
    order: a term ``c . L^(k/2) . [mon] . Y(bits)`` looks up the entry of
    ``(mon, bits)``, checks that it exists, is from this registry and lies
    over the point, and adds ``sign . c . L^(k/2)`` times it into one
    accumulator.  The keys whose sums cancel are swept once, at the end of
    the call.  Pieces are read in order.  When a piece's region is unglued
    or a term's entry fails its check, every piece is checked again
    (:func:`_refuse_scissor`) and the fault that sorts first is raised, so
    the order of the scissor list does not choose it.
    """
    reg = atlas.registry
    if atlas.scissor is None:
        raise MissingScissorTable("atlas declares no scissor table")
    acc: Flat = {}
    get = acc.get
    for piece in atlas.scissor:
        value = glued.values.get(piece.region)
        if value is None:
            _refuse_scissor(reg, atlas.scissor, glued)
        entries = piece.entries
        sign = piece.sign
        for (mon, bits, k), c in value._flat.items():
            entry = entries.get((mon, bits))
            if entry is None or entry.reg is not reg or entry.space != POINT:
                _refuse_scissor(reg, atlas.scissor, glued)
            c *= sign
            for (emon, ebits, ek), e in entry._flat.items():
                key = (emon, ebits, ek + k)
                acc[key] = get(key, 0) + c * e
    for key in [key for key, v in acc.items() if not v]:
        del acc[key]
    return Motive._wrap(reg, POINT, acc)


def _refuse_scissor(reg: Registry, scissor: list[ScissorPiece],
                    glued: GlobalMotive) -> None:
    """Raise the fault, among all failing pieces, that sorts first by
    (region, text).  A piece fails when its region is unglued, or at the
    first of its value's distinct ``(mon, bits)`` keys, in sorted order,
    whose entry is missing or is not a class of ``reg`` over the point."""
    faults = []
    for piece in scissor:
        try:
            _check_piece(reg, piece, glued.values.get(piece.region))
        except MotivicError as exc:
            faults.append((piece.region, str(exc), exc))
    raise min(faults, key=lambda fault: fault[:2])[2]


def _check_piece(reg: Registry, piece: ScissorPiece,
                 value: Optional[Motive]) -> None:
    if value is None:
        raise MissingScissorTable(
            f"scissor piece over unglued region {piece.region!r}")
    for mon, bits in sorted({(mon, bits) for mon, bits, _ in value._flat}):
        entry = piece.entries.get((mon, bits))
        if entry is None:
            raise MissingScissorTable(
                f"region {piece.region!r}: no scissor entry for term "
                f"({mon}, bits={bits})")
        _check_operand(reg, POINT, entry)
