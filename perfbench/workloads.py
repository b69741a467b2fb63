"""Workload ops: build the generated inputs, run them, check each outcome.

An op's ``run`` is the timed user-level computation; it returns the output,
or the library raises and the benchmark loop records the exception as the
outcome.  ``check(outcome, expected)`` compares the outcome against the op's
expectation outside the timed region and returns True when it matches.  The
in-process ops get their expectations from ``oracle.expected`` (see
``attach``); ``cli_cold`` ops carry theirs from ``expected_cli.json``.

Only ``cli_cold`` avoids importing the library: its ops are fresh
``python -m motivic.cli`` processes on job files, and the benchmark process
itself must not pay (or warm) the imports that the op measures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen
import reference

HERE = Path(__file__).resolve().parent
EXPECTED_CLI = HERE / "expected_cli.json"
TRACE_CHILD = HERE / "trace_child.py"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    # the mismatch this op shows at the seed commit is a recorded defect
    known_defect: bool = False
    warmup: bool = False
    expected: Any = None


def attach(ops: list[Op], expected: list) -> list[Op]:
    """Give each op its expectation, in deck order."""
    assert len(ops) == len(expected)
    for op, want in zip(ops, expected):
        op.expected = want
    return ops



# -- cli_cold -----------------------------------------------------------------------

# An atlas chart on an undeclared region ends in an uncaught KeyError with a
# traceback and exit 1 instead of the validation exit 2 (ROADMAP item 5).
KNOWN_DEFECT_KINDS = ("undeclared_region",)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_ops(spec: list[dict], root: Path, workdir: Path,
            spans_dir: Path | None = None) -> list[Op]:
    """One op per deck entry; mutated jobs are written to ``workdir``."""
    expected = json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))
    env = cli_env(root)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, entry in enumerate(spec):
        argv = list(entry["argv"])
        if "job" in entry:
            path = workdir / f"job{i:03d}.json"
            path.write_text(entry["job"], encoding="utf-8")
            argv += ["--job", str(path)]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "motivic.cli", *argv]
        else:
            cmd = [sys.executable, str(TRACE_CHILD),
                   str(spans_dir / f"spans{i:03d}.json"), *argv]
        kind = entry["id"].split("#")[0] if "job" in entry else argv[0]
        want = {"code": entry["code"], "stderr": entry.get("stderr"),
                "stdout": expected.get(entry["id"])}
        ops.append(Op(kind, _cli_runner(cmd, root, env), _cli_check,
                      kind in KNOWN_DEFECT_KINDS, entry.get("warmup", False),
                      want))
    return ops


def _cli_runner(cmd: list[str], root: Path, env: dict) -> Callable:
    def run():
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    return run


def _cli_check(outcome, want: dict) -> bool:
    if not isinstance(outcome, tuple):
        return False
    code, out, err = outcome
    if code != want["code"] or "Traceback" in err:
        return False
    if want["stderr"] is not None:
        return want["stderr"] in err
    return out == want["stdout"]


# -- ring_dense ------------------------------------------------------------------------


def ring_registry(gens: int):
    from motivic import Registry

    reg = Registry()
    reg.declare_space("X")
    reg.declare_generators("X", tuple(f"x{i}" for i in range(gens)))
    for name in gen.RING_PLAIN:
        reg.declare_symbol(name, "X", 1)
    for name in gen.RING_OPAQUE:
        reg.declare_symbol(name, "X", int(name[2:]))
    return reg


def build_motive(reg, space: str, terms):
    from motivic import HalfLaurent, Motive

    return Motive(reg, space, [((tuple(mon), bits), HalfLaurent(coeff))
                               for mon, bits, coeff in terms])


def chain_inputs(n: int):
    """Registry with T_i = T_(i-1) x G and the nearby cycle 1 - L^(1/2) Y(p)."""
    from motivic import HalfLaurent, Motive, Registry

    reg = Registry()
    reg.declare_space("G")
    reg.declare_generators("G", ("p",))
    last = "G"
    for i in range(2, n + 1):
        reg.declare_product(f"T{i}", last, "G")
        last = f"T{i}"
    factor = Motive(reg, "G", {((), 0): HalfLaurent.const(1),
                               ((), 1): HalfLaurent.power(1, -1)})
    return reg, factor, last


def chain_product(factor, n: int):
    """The n-fold exterior product of ``factor`` with itself."""
    from motivic import stabilize

    out = factor
    for _ in range(n - 1):
        out = stabilize.thom_sebastiani(out, factor)
    return out


def ring_ops(spec: list[dict]) -> list[Op]:
    from motivic import Motive, OdotUndecidable

    regs = {}
    ops = []
    for entry in spec:
        if entry["op"] == "chain":
            n = entry["n"]
            _reg, factor, last = chain_inputs(n)

            def check(out, want, last=last):
                return (isinstance(out, Motive) and out.space == last
                        and reference.fingerprint(out) == want)
            ops.append(Op("chain", lambda f=factor, n=n: chain_product(f, n),
                          check, warmup=entry.get("warmup", False)))
            continue
        if entry["gens"] not in regs:
            regs[entry["gens"]] = ring_registry(entry["gens"])
        reg = regs[entry["gens"]]
        a = build_motive(reg, "X", entry["a"])
        b = build_motive(reg, "X", entry["b"])
        if entry["expect"] == "undecidable":
            ops.append(Op("odot_undecidable", lambda a=a, b=b: a.odot(b),
                          lambda out, _: isinstance(out, OdotUndecidable)))
            continue
        ops.append(Op("odot", lambda a=a, b=b: a.odot(b), _odot_check))
    return ops


def _odot_check(out, want) -> bool:
    from motivic import Motive

    return isinstance(out, Motive) and out.space == "X" and \
        reference.fingerprint(out) == want


# -- series_deep -----------------------------------------------------------------------


def series_registry(ndiv: int):
    from motivic import Registry

    reg = Registry()
    reg.declare_space("U", dim=ndiv)
    reg.declare_generators("U", gen.SERIES_GENS)
    for m in range(3, 7):
        reg.declare_symbol(f"mu{m}", "U", m)
    return reg


def resolution_from_spec(reg, spec: dict):
    from motivic import Divisor, ResolutionData, RestrictionTable, Stratum

    strata = {frozenset(names): Stratum(build_motive(reg, "U", terms), m)
              for names, m, terms in spec["strata"]}
    table = RestrictionTable("U", {key: st.cls for key, st in strata.items()})
    return ResolutionData(reg, "U", spec["dim_u"],
                          [Divisor(i, n, nu) for i, n, nu in spec["divisors"]],
                          strata, ["0"], {"0": table})


def arc_inputs(spec: dict):
    """Monomial, arc context and the matching single-divisor resolution."""
    from motivic import (ArcContext, Divisor, HalfLaurent, Motive,
                         MonomialFunction, Registry, ResolutionData, Stratum,
                         symbol_motive)

    a, *units = spec["exponents"]
    reg = Registry()
    reg.declare_space("B", dim=len(units))
    gens = tuple(f"u{i}" for i in range(len(units)))
    reg.declare_generators("B", gens)
    for m in range(3, 6):
        reg.declare_symbol(f"mu{m}", "B", m)
    f = MonomialFunction(tuple(spec["exponents"]),
                         frozenset(range(1, len(units) + 1)))
    ctx = ArcContext(reg, "B", gens if a == 2 else (),
                     {a: f"mu{a}"} if a >= 3 else {})
    if a == 1:
        cls = Motive.one(reg, "B")
    elif a == 2:
        bits = sum(1 << i for i, e in enumerate(units) if e % 2)
        cls = Motive(reg, "B", [(((), 0), HalfLaurent.const(1)),
                                (((), bits), HalfLaurent.power(1, -1))])
    else:
        cls = symbol_motive(reg, f"mu{a}")
    res = ResolutionData(reg, "B", len(spec["exponents"]), [Divisor("E1", a, 1)],
                         {frozenset({"E1"}): Stratum(cls, a)})
    return reg, f, ctx, res


class ArcTally:
    """Matched / compared arc coefficients, read by the traced run."""

    def __init__(self) -> None:
        self.matched = 0
        self.compared = 0


def series_ops(spec: list[dict], tally: ArcTally) -> list[Op]:
    from motivic import arcs, serialize, zeta

    ops = []
    for entry in spec:
        if entry["op"] == "arc":
            reg, f, ctx, res = arc_inputs(entry)

            def run(reg=reg, f=f, ctx=ctx, res=res, k=entry["k"]):
                return (arcs.zeta_truncated(f, k, ctx),
                        zeta.expand_series(zeta.zeta_function(res), k, reg))

            def check(out, _, k=entry["k"]):
                if not isinstance(out, tuple):
                    return False
                oracle, series = out
                matched = sum(oracle[n] == series[n] for n in range(1, k + 1))
                tally.matched += matched
                tally.compared += k
                return len(oracle) == len(series) == k + 1 and matched == k
            ops.append(Op("arc", run, check, warmup=entry.get("warmup", False)))
            continue
        reg = series_registry(len(entry["divisors"]))
        res = resolution_from_spec(reg, entry)

        def run(reg=reg, res=res, k=entry["k"]):
            z = zeta.zeta_function(res)
            classes = zeta.expand_series(z, k, reg) + [
                zeta.nearby_cycle(res), zeta.vanishing_cycle(res)]
            texts = [z.text()] + [m.text() for m in classes]
            docs = [serialize.motive_to_json(m) for m in classes]
            return classes, texts, [serialize.motive_from_json(reg, d)
                                    for d in docs]

        ops.append(Op("zeta", run, _zeta_check))
    return ops


def _zeta_check(out, want) -> bool:
    from motivic import Motive

    if not isinstance(out, tuple):
        return False
    classes, texts, back = out
    return (all(isinstance(m, Motive) for m in classes)
            and reference.fingerprint(*classes) == want
            and back == classes
            and all(isinstance(t, str) and t for t in texts))
    return ops


# -- atlas_glue ------------------------------------------------------------------------


def atlas_inputs(spec: dict):
    from motivic import (POINT, Atlas, BundleClass, CriticalChart,
                         FixedComponentDatum, HalfLaurent, Motive, OverlapDatum,
                         Registry, ScissorPiece)

    reg = Registry()
    for space, gens in spec["spaces"].items():
        reg.declare_space(space)
        reg.declare_generators(space, tuple(gens))
    for mor in spec["morphisms"]:
        reg.declare_morphism(mor["name"], mor["source"], mor["target"],
                             "open-inclusion", pull_bundles=mor["table"])
    regions = {c["region"]: c["space"] for c in spec["charts"]}
    regions.update({o["region"]: o["space"] for o in spec["overlaps"]})
    charts = []
    for c in spec["charts"]:
        mf = build_motive(reg, c["space"], [[mon, bits ^ c["alpha"], coeff]
                                            for mon, bits, coeff in spec["value"]])
        charts.append(CriticalChart(c["id"], c["region"], 2, mf,
                                    BundleClass(c["space"], c["q"])))
    overlaps = [OverlapDatum(o["a"], o["b"], o["region"],
                             BundleClass(o["space"], o["p_a"]),
                             BundleClass(o["space"], o["p_b"]),
                             BundleClass(o["space"], o["q_t"]),
                             o["restrict_a"], o["restrict_b"])
                for o in spec["overlaps"]]
    scissor = [ScissorPiece(p["region"], {
        ((), bits): Motive.coefficient(reg, POINT, HalfLaurent(coeff))
        for bits, coeff in p["entries"]}, p["sign"]) for p in spec["scissor"]]
    components = [FixedComponentDatum(
        c["id"], tuple(c["weights"]),
        Motive.coefficient(reg, POINT, HalfLaurent(c["coeff"])))
        for c in spec["components"]]
    return reg, Atlas(reg, regions, charts, overlaps, True, scissor), components


def atlas_ops(spec: list[dict]) -> list[Op]:
    from motivic import dcrit, localize

    ops = []
    for entry in spec:
        reg, atlas, components = atlas_inputs(entry)

        def run(reg=reg, atlas=atlas, components=components):
            diags = dcrit.check_orientation(atlas)
            glued = dcrit.glue(atlas)
            total = dcrit.pushforward_to_point(atlas, glued)
            verdict, _ = localize.localization_check(reg, components, total)
            return diags, glued, total, verdict

        ops.append(Op("atlas_broken" if entry["broken"] else "atlas", run,
                      _atlas_check, warmup=entry.get("warmup", False)))
    return ops


def _atlas_check(out, want) -> bool:
    from motivic import DescentFailure

    if want is None:
        return isinstance(out, DescentFailure)
    if not isinstance(out, tuple):
        return False
    diags, glued, total, verdict = out
    return (diags == []
            and sorted(glued.values) == want["regions"]
            and all(reference.fingerprint(m) == want["value"]
                    for m in glued.values.values())
            and reference.fingerprint(total) == want["pushforward"]
            and verdict == want["verdict"])
