"""Span tracer for the traced run, installed by patching module attributes.

Nothing here runs unless a traced run calls ``Tracer.install``; the library
is never edited.  Each wrapped function records a span (name, start, end,
parent span, op id) at the boundary of one library layer.  The hottest
methods (Laurent arithmetic, generator lookup, motive accumulation) run
hundreds of thousands of times per op, so they are only counted: a span
each would cost more than the call and swamp the memory.  Their time stays
in the self time of the layer that calls them.

Self time of a span is its duration minus the time of the wrapped calls
inside it.  Post-call hooks that read sizes off results run outside every
span and are reported as ``hook_ns``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  A dotted attribute is a method.
SPANS = [
    ("jobs", "parse_job", "jobs.parse_job"),
    ("jobs", "require_kind", "jobs.require_kind"),
    *[("serialize", f"{what}_to_json", "serialize.to_json")
      for what in ("coeff", "motive", "bundle", "registry", "resolution",
                   "monomial", "atlas", "fixedpoints", "ts")],
    *[("serialize", f"{what}_from_json", "serialize.from_json")
      for what in ("coeff", "motive", "registry", "resolution", "monomial",
                   "atlas", "fixedpoints", "ts")],
    ("render", "motive_text", "render.text"),
    ("render", "rational_text", "render.text"),
    ("motive", "Motive.odot", "motive.odot"),
    ("motive", "Motive.dot", "motive.dot"),
    ("motive", "mot_boxdot", "motive.boxdot"),
    ("motive", "pullback", "motive.pullback"),
    ("motive", "pushforward", "motive.pushforward"),
    ("motive", "pi_forget", "motive.pi_forget"),
    ("motive", "upsilon", "motive.upsilon"),
    ("motive", "symbol_motive", "motive.symbol_motive"),
    ("bundles", "bundle_pullback", "bundles.bundle_pullback"),
    ("bundles", "from_square_root", "bundles.from_square_root"),
    ("zeta", "zeta_function", "zeta.zeta_function"),
    ("zeta", "expand_series", "zeta.expand_series"),
    ("zeta", "nearby_cycle", "zeta.nearby_cycle"),
    ("zeta", "vanishing_cycle", "zeta.vanishing_cycle"),
    ("zeta", "milnor_fibre_at", "zeta.milnor_fibre_at"),
    ("zeta", "validate_resolution", "zeta.validate_resolution"),
    ("arcs", "zeta_truncated", "arcs.zeta_truncated"),
    ("arcs", "arc_class", "arcs.arc_class"),
    ("stabilize", "thom_sebastiani", "stabilize.thom_sebastiani"),
    ("stabilize", "twist_by_quadratic", "stabilize.twist_by_quadratic"),
    ("stabilize", "stabilize_pullback", "stabilize.stabilize_pullback"),
    ("dcrit", "check_orientation", "dcrit.check_orientation"),
    ("dcrit", "glue", "dcrit.glue"),
    ("dcrit", "pushforward_to_point", "dcrit.pushforward_to_point"),
    ("dcrit", "validate_atlas", "dcrit.validate_atlas"),
    ("localize", "localization_check", "localize.localization_check"),
    ("localize", "localize_sum", "localize.localize_sum"),
]

COUNTED = [
    ("halflaurent", "HalfLaurent.__init__", "halflaurent.new"),
    ("halflaurent", "HalfLaurent.__mul__", "halflaurent.mul"),
    ("motive", "Motive.__add__", "motive.add"),
    ("motive", "Motive.scale", "motive.scale"),
    ("registry", "Registry.generator_index", "registry.generator_index"),
]

# modules with spans; halflaurent and registry are only counted
MODULES = ("jobs", "serialize", "render", "motive", "bundles", "zeta", "arcs",
           "stabilize", "dcrit", "localize")

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # (name, start, end, parent, op)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.hook_ns = 0
        self.op = None
        self._stack: list = []         # [span index, child ns]
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.stats[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                self.self_ns[name] += end - start - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += end - start
            if post is not None:
                h0 = clock()
                post(args, result)
                spent = clock() - h0
                self.hook_ns += spent
                if stack:
                    stack[-1][1] += spent
            return result
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- result hooks --------------------------------------------------------------

    def _sizes(self, motives) -> None:
        for m in motives:
            terms = m.terms()
            self.stats["motive.terms.peak"] = max(
                self.stats["motive.terms.peak"], len(terms))
            for _, coeff in terms:
                for _, c in coeff.items():
                    if abs(c).bit_length() > self.stats["motive.coeff_bits.max"]:
                        self.stats["motive.coeff_bits.max"] = abs(c).bit_length()

    def _post_motive(self, args, result) -> None:
        self._sizes([result])

    def _post_list(self, args, result) -> None:
        self._sizes(result)

    def _post_odot(self, args, out) -> None:
        a, b = args[0], args[1]
        terms = out.terms()
        self.stats["motive.odot.pair_products"] += len(a.terms()) * len(b.terms())
        self.stats["motive.odot.out_terms"] += len(terms)
        self.stats["motive.odot.classes"] += len({bits for (_, bits), _ in terms})
        self.stats["motive.odot.class_space"] += \
            2 ** len(out.reg.generators.get(out.space, ()))
        self._sizes([out])

    def _post_series(self, args, result) -> None:
        self.stats["zeta.expand_series.coeff_terms"] += sum(
            len(m.terms()) for m in result)
        self._sizes(result)

    def _post_for(self, name: str):
        return {"motive.odot": self._post_odot,
                "motive.boxdot": self._post_motive,
                "motive.pullback": self._post_motive,
                "zeta.nearby_cycle": self._post_motive,
                "zeta.vanishing_cycle": self._post_motive,
                "dcrit.pushforward_to_point": self._post_motive,
                "zeta.expand_series": self._post_series,
                "arcs.zeta_truncated": self._post_list}.get(name)

    # -- install / uninstall ----------------------------------------------------------

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"motivic.{m}")
                for m, _, _ in SPANS + COUNTED}
        package = [mod for name, mod in sys.modules.items()
                   if name == "motivic" or name.startswith("motivic.")]
        for table, make in ((SPANS, None), (COUNTED, self._count)):
            for module, attr, name in table:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[module], cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = (make(name, orig) if make
                               else self._span(name, orig, self._post_for(name)))
                    for key, val in list(cls.__dict__.items()):
                        if val is orig:   # aliases such as __rmul__
                            self._patches.append((cls, key, orig))
                            setattr(cls, key, wrapped)
                    continue
                orig = getattr(mods[module], attr)
                wrapped = self._span(name, orig, self._post_for(name))
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output ---------------------------------------------------------------------------

    def merge(self, spans: list, totals: dict, op) -> None:
        """Append another process's spans and totals, as written by ``dump``."""
        base = len(self.spans)
        self.spans += [(name, start, end, None if parent is None else parent + base,
                        op) for name, start, end, parent, _ in spans]
        self.self_ns.update(totals["self_ns"])
        self.calls.update(totals["calls"])
        for key, value in totals["stats"].items():
            if key.endswith((".peak", ".max")):
                self.stats[key] = max(self.stats[key], value)
            else:
                self.stats[key] += value
        self.hook_ns += totals["hook_ns"]

    def dump(self, path) -> None:
        """Write the spans, one JSON list per line, plus the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"self_ns": self.self_ns, "calls": self.calls,
                                 "stats": self.stats,
                                 "hook_ns": self.hook_ns}) + "\n")


def load(path):
    """(spans, totals) as written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return lines[:-1], lines[-1]
