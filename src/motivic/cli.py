"""File-driven command surface.

Subcommands: ``zeta | nearby | vanishing | arc-check | ts | glue | localize
| selftest``.  Jobs come from ``--job PATH`` or a shipped ``--fixture NAME``.
Output is deterministic text on stdout (or a JSON document with
``--machine-readable``); diagnostics go to stderr.

Exit codes are part of the contract: a refusal exits with the ``exit_code``
of its error class (README, "Exit codes") and prints its ``report()``.

Every job command runs through :func:`run`: its ``cmd_*`` takes the
parsed job and returns ``(text, machine, exit code)``, and imports the
modules it computes with, so a call loads only what its command runs.
"""

from __future__ import annotations

import gc

# ``python -m motivic.cli``: the collector is off for the imports too
# (see process_main)
if __name__ == "__main__":
    gc.disable()

import argparse
import json
import sys
from typing import NoReturn

from .errors import MotivicError, ValidationFailed
from .jobs import FIXTURE_NAMES, Job, load_fixture_job, parse_job, require_kind
from .serialize import RESULT_SCHEMA, motive_to_json

EXIT_OK = 0

# what a job command returns: text, machine-readable fields, exit code
Outcome = tuple[str, dict, int]


def _load_job(args) -> Job:
    if bool(args.job) == bool(args.fixture):
        raise ValidationFailed(["exactly one of --job and --fixture is required"])
    if args.fixture:
        data = load_fixture_job(args.fixture)
    else:
        try:
            with open(args.job, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationFailed(
                [f"cannot read job file {args.job!r}: {exc.strerror}"]) from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationFailed(
                [f"job file {args.job!r} is not valid JSON: {exc}"]) from None
    return parse_job(data)


def run(args) -> int:
    """The protocol of every job command: load the job, check its payload
    kind, run ``args.fn(args, job)`` and print the ``(text, machine, code)``
    it returns, as text or as a ``motivic.result/1`` document."""
    job = _load_job(args)
    require_kind(job, args.kind)
    text, machine, code = args.fn(args, job)
    if args.machine_readable:
        doc = {"schema": RESULT_SCHEMA, "command": args.command, **machine}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)
    return code


def _rational_json(z) -> dict:
    return {"space": z.space,
            "terms": [{"coeff": motive_to_json(t.coeff),
                       "factors": [list(f) for f in t.factors]}
                      for t in z.terms]}


def cmd_zeta(args, job: Job) -> Outcome:
    from . import zeta

    z = zeta.zeta_function(job.payload)
    machine = {"rational": _rational_json(z)}
    if args.series_order is None:
        return z.text(), machine, EXIT_OK
    series = zeta.expand_series(z, args.series_order, job.registry)
    lines = [z.text()]
    lines += [f"T^{n}: {m.text()}" for n, m in enumerate(series)]
    machine["series"] = [motive_to_json(m) for m in series]
    return "\n".join(lines), machine, EXIT_OK


def cmd_nearby(args, job: Job) -> Outcome:
    from . import zeta

    m = zeta.nearby_cycle(job.payload)
    return m.text(), {"motive": motive_to_json(m)}, EXIT_OK


def cmd_vanishing(args, job: Job) -> Outcome:
    from . import zeta

    c = args.critical_value or job.params.get("critical_value", "0")
    m = zeta.vanishing_cycle(job.payload, c)
    return m.text(), {"motive": motive_to_json(m)}, EXIT_OK


def cmd_arc_check(args, job: Job) -> Outcome:
    from . import arcs, zeta

    (mono, ctx), res = job.payload
    k = args.series_order
    if k is None:
        k = int(job.params.get("series_order", 12))
    oracle = arcs.zeta_truncated(mono, k, ctx)
    series = zeta.expand_series(zeta.zeta_function(res), k, job.registry)
    matches = [oracle[n] == series[n] for n in range(1, k + 1)]
    lines = [f"n={n:<3d} {'PASS' if match else 'FAIL'}  "
             f"arc: {oracle[n].text()}  resolution: {series[n].text()}"
             for n, match in enumerate(matches, 1)]
    ok = all(matches)
    machine = {"orders": k, "all_pass": ok,
               "coefficients": [{"n": n, "match": match}
                                for n, match in enumerate(matches, 1)]}
    table = "\n".join(lines) if lines else "vacuous PASS (k=0)"
    return table, machine, EXIT_OK if ok else 1


def cmd_ts(args, job: Job) -> Outcome:
    from .motive import mot_boxdot

    out, *rest = job.payload
    for m in rest:
        out = mot_boxdot(out, m)
    return out.text(), {"motive": motive_to_json(out)}, EXIT_OK


def cmd_glue(args, job: Job) -> Outcome:
    from . import dcrit

    atlas = job.payload
    glued = dcrit.glue(atlas)
    lines = [f"region {r}: {m.text()}" for r, m in sorted(glued.values.items())]
    if glued.checked_overlaps:
        lines.append("overlaps checked: " + ", ".join(glued.checked_overlaps))
    machine = {"regions": {r: motive_to_json(m)
                           for r, m in sorted(glued.values.items())},
               "checked_overlaps": glued.checked_overlaps}
    if atlas.scissor is not None:
        total = dcrit.pushforward_to_point(atlas, glued)
        lines.append(f"pushforward: {total.text()}")
        machine["pushforward"] = motive_to_json(total)
    return "\n".join(lines), machine, EXIT_OK


def cmd_localize(args, job: Job) -> Outcome:
    from . import dcrit, localize

    components, direct, direct_atlas = job.payload
    reg = job.registry
    total = localize.localize_sum(reg, components)
    if direct is None and direct_atlas is not None:
        glued = dcrit.glue(direct_atlas)
        direct = dcrit.pushforward_to_point(direct_atlas, glued)
    if direct is None:
        return f"sum = {total.text()}", {"sum": motive_to_json(total)}, EXIT_OK
    ok, diff = localize.localization_check(reg, components, direct)
    return (f"sum = {total.text()}; check: {'PASS' if ok else 'FAIL'}",
            {"sum": motive_to_json(total), "check": ok, "diff": diff},
            EXIT_OK if ok else 1)


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(verbose=not args.machine_readable)
    if args.machine_readable:
        print(json.dumps({"schema": RESULT_SCHEMA, "command": "selftest",
                          "failures": failures}, sort_keys=True))
    return EXIT_OK if failures == 0 else 1


def nonnegative_int(text: str) -> int:
    """argparse type for ``--series-order``: an integer >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"order must be >= 0, got {k}")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic",
        description="Exact motivic vanishing-cycle calculus on job files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, kind, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--job", help="path to a job JSON file")
        p.add_argument("--fixture", choices=FIXTURE_NAMES,
                       help="name of a shipped fixture job")
        p.add_argument("--machine-readable", action="store_true")
        p.set_defaults(run=run, fn=fn, kind=kind)
        return p

    p = add("zeta", cmd_zeta, "resolution",
            help="rational form of the motivic zeta function")
    p.add_argument("--series-order", type=nonnegative_int, default=None,
                   help="also print the exact expansion to this order")
    add("nearby", cmd_nearby, "resolution", help="motivic nearby cycle")
    p = add("vanishing", cmd_vanishing, "resolution",
            help="motivic vanishing cycle")
    p.add_argument("--critical-value", help="slice label (default '0')")
    p = add("arc-check", cmd_arc_check, "arc-check",
            help="cross-check resolution zeta against the arc oracle")
    p.add_argument("--series-order", type=nonnegative_int, default=None)
    add("ts", cmd_ts, "ts", help="exterior-sum product of the given classes")
    add("glue", cmd_glue, "atlas", help="descent-checked gluing over an atlas")
    add("localize", cmd_localize, "fixedpoints",
        help="torus localization sum and check")
    p = sub.add_parser("selftest",
                       help="run the invariant and regression battery")
    p.add_argument("--machine-readable", action="store_true")
    p.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MotivicError as exc:
        sys.stderr.writelines(f"{line}\n" for line in exc.report())
        return exc.exit_code


def process_main() -> NoReturn:
    """The entry point of a ``motivic`` process (the console script and
    ``python -m motivic.cli``): :func:`main` with no cyclic garbage
    collection, then ``sys.exit``.

    A call is one short process, so the collector is switched off, and
    before the exit every object left is frozen, out of the reach of the
    full collections that interpreter finalization runs.  Exit still flushes
    stdout and stderr and runs atexit handlers; garbage cycles are left to
    the operating system.  ``import motivic.cli`` and :func:`main` leave the
    collector as they found it.
    """
    gc.disable()
    try:
        code = main()
    finally:  # also on argparse's SystemExit
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    process_main()
