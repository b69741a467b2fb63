"""motivic benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Every op is a closed loop with one client on one core: the next op starts
when the previous one has returned and been checked.  With ``--trace 0`` the
run passes over the whole deck of ops again and again for up to S seconds
(at least once; see ``timed_loop``) and reports the end-to-end metrics from
the faster half of each op's passes.  Every op's wall time is scaled by a calibration
kernel timed right around it (``calibrate.py``), so the times read as
milliseconds of a reference machine.  With ``--trace 1`` it runs the deck
once untraced and once traced and reports the per-layer metrics in plain
wall time.  The last line of stdout is the result object; the line before
it holds the run's metadata, which is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_cold", "ring_dense", "series_deep", "atlas_glue")
SETUP_SAMPLES = 7            # forked children's set-ups and this process's
WARMUP_RUNS = 2
# the calibration kernel that scales each workload's op times, and the one
# that scales set-ups, which are mostly imports
OP_KERNEL = {"cli_cold": calibrate.PROCESS, "ring_dense": calibrate.IN_PROCESS,
             "series_deep": calibrate.IN_PROCESS,
             "atlas_glue": calibrate.IN_PROCESS}
SETUP_KERNEL = calibrate.PROCESS
TRACE_CLI_OPS = 24          # traced runs use the whole deck in-process
STARTUP_REPEATS = 5
OUT = ROOT / ".perfbench_out"


# -- set-up ----------------------------------------------------------------------


def in_child(fn, *args):
    """fn(*args) in a forked child process; its pickled result comes back
    through a pipe, and the child is waited for before this returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            data = pickle.dumps(fn(*args))
        except BaseException:  # noqa: BLE001 -- reported through the exit code
            traceback.print_exc()
            data, code = b"", 1
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        sys.stderr.flush()
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"child {fn.__name__} failed with status {status}")
    return pickle.loads(data)


def build_ops(workload: str, seed: int, workdir: Path, tally):
    """Import, generate the seeded inputs and build the ops."""
    if workload != "cli_cold":
        import motivic.serialize  # noqa: F401  (the import is part of set-up)
    spec = gen.generate(workload, seed, ROOT / "src")
    if workload == "cli_cold":
        return workloads.cli_ops(spec, ROOT, workdir)
    if workload == "ring_dense":
        return workloads.ring_ops(spec)
    if workload == "series_deep":
        return workloads.series_ops(spec, tally)
    return workloads.atlas_ops(spec)


def setup(workload: str, seed: int, workdir: Path, tally):
    """(ops, wall seconds): import, input generation and warm-up ops."""
    start = time.perf_counter()
    ops = build_ops(workload, seed, workdir, tally)
    warm(ops)
    return ops, time.perf_counter() - start


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    return setup(workload, seed, workdir, workloads.ArcTally())[1]


def warm(ops) -> None:
    for op in ops:
        if op.warmup:
            for _ in range(WARMUP_RUNS):
                try:
                    op.run()
                except Exception:  # noqa: BLE001 -- checked when timed
                    pass


def expectations(workload: str, seed: int) -> list:
    """Each op's expectation, from the reference arithmetic run on the
    regenerated spec.  ``cli_cold`` ops carry theirs already."""
    if workload == "cli_cold":
        return []
    return in_child(lambda: oracle.expected(
        workload, gen.generate(workload, seed, ROOT / "src")))


def with_expectations(ops, workload: str, seed: int):
    """The ops, each holding its expectation."""
    if workload != "cli_cold":
        workloads.attach(ops, expectations(workload, seed))
    return ops


# -- running ops -------------------------------------------------------------------


def run_op(op):
    """(outcome, ns, matched).  An exception the op raises is its outcome."""
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # noqa: BLE001 -- expected errors are outcomes
        out = exc
    elapsed = time.perf_counter_ns() - start
    return out, elapsed, op.check(out, op.expected)


class Tally:
    """Outcomes of a run: attempted, failed, and failures nobody expected."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexpected = 0
        self.examples: list[str] = []     # the first few unexpected outcomes

    def record(self, op, out, matched: bool) -> None:
        self.attempted += 1
        if matched:
            return
        self.failed += 1
        if op.known_defect:
            self.known += 1
            return
        self.unexpected += 1
        if len(self.examples) < 5:
            self.examples.append(f"{op.kind}: {str(out)[:300]!r}")


def timed_loop(ops, seconds: float, tally: Tally, kernel):
    """(each deck op's times over the passes, calibration probes).

    An op's time is its wall time scaled by ``kernel``, timed right before
    and right after it (``calibrate.Kernel.scale``), in reference-machine
    ns.  Passes cover the whole deck, so every run attempts every op the
    same number of times.  A run makes at least one pass, and starts
    another only if, at the speed of the last one, it would end within
    ``seconds``.  So a deck that takes more than half the run
    (``cli_cold``'s) gets one pass however fast the machine is at the
    moment.
    """
    start = now = time.perf_counter()
    times: list[list[float]] = [[] for _ in ops]
    probes = [kernel.probe()]
    while True:
        pass_start = now
        for i, op in enumerate(ops):
            out, ns, matched = run_op(op)
            probes.append(kernel.probe())
            times[i].append(kernel.scale(ns, probes[-2], probes[-1]))
            tally.record(op, out, matched)
        now = time.perf_counter()
        if 2 * now - pass_start > start + seconds:
            return times, probes


def calibrated_setups(workload: str, seed: int, workdir: Path, kernel):
    """(set-up wall seconds, ops, calibration probes).

    ``SETUP_SAMPLES - 1`` forked children set up one after another, each
    paying the whole set-up, imports included, then this process sets up
    for itself.  ``kernel`` is probed before the first set-up and after
    each, so that sample i was timed between probes i and i + 1."""
    probes = [kernel.probe()]
    walls = []
    for i in range(1, SETUP_SAMPLES):
        # forked first: this process has not imported the library yet
        walls.append(in_child(setup_seconds, workload, seed,
                              workdir / f"setup{i}"))
        probes.append(kernel.probe())
    ops, seconds = setup(workload, seed, workdir / "main",
                         workloads.ArcTally())
    walls.append(seconds)
    probes.append(kernel.probe())
    return walls, with_expectations(ops, workload, seed), probes


def scaled(kernel, walls, probes) -> list[float]:
    """Wall times, each timed between consecutive ``probes``, scaled."""
    return [kernel.scale(w, b, a) for w, b, a in zip(walls, probes, probes[1:])]


def fast_half(times: list[float]) -> float:
    """Mean of the faster half of an op's passes, the middle one included."""
    return statistics.fmean(sorted(times)[:(len(times) + 1) // 2])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced run ---------------------------------------------------------------------


def startup_probes() -> dict:
    """Bare interpreter wall time, and the import times of jsonschema and of
    the rest of motivic.cli read from ``-X importtime``; medians."""
    env = workloads.cli_env(ROOT)
    interp, schema, cli = [], [], []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        interp.append((time.perf_counter_ns() - start) / 1e6)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import motivic.cli"],
            cwd=ROOT, env=env, check=True, timeout=60, capture_output=True,
            text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        schema.append(cumulative["jsonschema"] / 1e3)
        cli.append((cumulative["motivic.cli"] - cumulative["jsonschema"]) / 1e3)
    return {"startup.interp_ms": statistics.median(interp),
            "startup.import_jsonschema_ms": statistics.median(schema),
            "startup.import_motivic_ms": statistics.median(cli)}


def baseline_table() -> dict:
    """ROADMAP item 1's scaling cases: untraced wall and traced self time."""
    import random

    from spantrace import Tracer

    from motivic import arcs, fixtures, zeta

    rng = random.Random("perfbench:baseline")
    reg = workloads.ring_registry(8)
    odot_in = {n: (workloads.build_motive(reg, "X", gen.ring_motive(rng, 8, n, False)),
                   workloads.build_motive(reg, "X", gen.ring_motive(rng, 8, n, False)))
               for n in (50, 200)}
    chains = {n: workloads.chain_inputs(n)[1] for n in gen.CHAIN_ORDERS}
    plane = fixtures.x2y_plane()
    x2y = fixtures.x2y()

    cases = {}
    for n, (a, b) in odot_in.items():
        cases[f"odot_{n}"] = (lambda a=a, b=b: a.odot(b), ["motive.odot"])
    for n, factor in chains.items():
        cases[f"boxdot_chain_{n}"] = (
            lambda f=factor, n=n: workloads.chain_product(f, n),
            ["motive.boxdot"])
    for k in (100, 400):
        cases[f"expand_series_{k}"] = (
            lambda k=k: zeta.expand_series(zeta.zeta_function(plane.resolution),
                                           k, plane.registry),
            ["zeta.expand_series"])
    for k in (200, 1000):
        cases[f"arc_x2y_{k}"] = (
            lambda k=k: (arcs.zeta_truncated(x2y.monomial, k, x2y.context),
                         zeta.expand_series(zeta.zeta_function(x2y.resolution),
                                            k, x2y.registry)),
            ["arcs.zeta_truncated", "zeta.expand_series"])
    out = {}
    for name, (fn, layers) in cases.items():
        start = time.perf_counter_ns()
        fn()
        out[f"baseline.{name}.ms"] = (time.perf_counter_ns() - start) / 1e6
        tracer = Tracer().install()
        try:
            fn()
        finally:
            tracer.uninstall()
        out[f"baseline.{name}.self_ms"] = sum(
            tracer.self_ns[layer] for layer in layers) / 1e6
    return out


def layer_metrics(tracer, nops: int, wall_ns: int) -> dict:
    """Per-layer metrics from tracer totals; self times are per op."""
    from spantrace import MODULES

    self_ns, calls, stats = tracer.self_ns, tracer.calls, tracer.stats

    def ms(name):
        return self_ns.get(name, 0) / 1e6 / nops

    m = {}
    for name in ("jobs.parse_job", "serialize.from_json", "serialize.to_json",
                 "render.text", "motive.odot", "motive.boxdot",
                 "zeta.expand_series", "zeta.zeta_function", "zeta.nearby_cycle",
                 "zeta.vanishing_cycle", "arcs.zeta_truncated",
                 "stabilize.thom_sebastiani", "motive.pullback",
                 "bundles.bundle_pullback", "dcrit.check_orientation",
                 "dcrit.glue", "dcrit.pushforward_to_point",
                 "localize.localization_check"):
        m[f"{name}.self_ms"] = ms(name)
    for name in ("render.text", "motive.odot", "motive.boxdot", "motive.add",
                 "motive.scale", "halflaurent.new", "halflaurent.mul",
                 "motive.pullback", "bundles.bundle_pullback",
                 "registry.generator_index"):
        m[f"{name}.calls"] = calls.get(name, 0)
    pairs = stats.get("motive.odot.pair_products", 0)
    m["motive.odot.pair_products"] = pairs
    m["motive.odot.yield"] = stats.get("motive.odot.out_terms", 0) / pairs \
        if pairs else 0.0
    space = stats.get("motive.odot.class_space", 0)
    m["motive.odot.y_density"] = stats.get("motive.odot.classes", 0) / space \
        if space else 0.0
    m["motive.terms.peak"] = stats.get("motive.terms.peak", 0)
    m["motive.coeff_bits.max"] = stats.get("motive.coeff_bits.max", 0)
    m["zeta.expand_series.coeff_terms"] = stats.get(
        "zeta.expand_series.coeff_terms", 0)
    m["dcrit.descent_failures"] = stats.get(
        "dcrit.glue.raised.DescentFailure", 0)
    m["jobs.validate_share"] = self_ns.get("jobs.parse_job", 0) / wall_ns
    for module in MODULES:
        m[f"layer.{module}.self_ms"] = sum(
            v for k, v in self_ns.items() if k.startswith(module + ".")) / 1e6 / nops
    m["unattributed.self_ms"] = (wall_ns - sum(self_ns.values())
                                 - tracer.hook_ns) / 1e6 / nops
    return m


def traced_run(workload: str, seed: int, workdir: Path, out_stem: Path):
    from spantrace import Tracer, load

    arc_tally = workloads.ArcTally()
    tally = Tally()
    if workload == "cli_cold":
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spec = gen.generate(workload, seed, ROOT / "src")
        plain = workloads.cli_ops(spec, ROOT, workdir / "plain")
        warm(plain)
        plain = plain[:TRACE_CLI_OPS]
        traced = workloads.cli_ops(spec[:TRACE_CLI_OPS], ROOT,
                                   workdir / "traced", spans_dir)
    else:
        plain = traced = with_expectations(
            setup(workload, seed, workdir, arc_tally)[0], workload, seed)
    n = len(traced)
    untraced_ns = [run_op(op)[1] for op in plain]

    tracer = Tracer()
    traced_ns = []
    for i, op in enumerate(traced):
        tracer.op = i
        if workload != "cli_cold":
            tracer.install()
        try:
            out, ns, matched = run_op(op)
        finally:
            tracer.uninstall()
        tracer.op = None
        traced_ns.append(ns)
        tally.record(op, out, matched)

    if workload == "cli_cold":
        for i in range(n):
            tracer.merge(*load(spans_dir / f"spans{i:03d}.json"), op=i)
    tracer.dump(out_stem.with_suffix(".spans.jsonl"))
    wall = sum(traced_ns)
    metrics = layer_metrics(tracer, n, wall)
    metrics["arcs.match_frac"] = arc_tally.matched / arc_tally.compared \
        if arc_tally.compared else 0.0
    metrics["trace.overhead_frac"] = wall / sum(untraced_ns) - 1
    metrics["trace.ops"] = n
    metrics.update(baseline_table())
    metrics.update(startup_probes())
    return metrics, tally


# -- entry point ------------------------------------------------------------------------


def commit() -> str:
    """The checkout's git commit when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else "unknown"
    return ref


def run_all(args) -> int:
    """Run every workload in its own process; print one row per metric."""
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload:<12} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"{workload:<12} {name:<40} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "motivic" / "cli.py",
                           workloads.EXPECTED_CLI) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from "
              "the root of a motivic checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    stem = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = OUT / "work" / stem
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    out_stem = OUT / "results" / stem
    try:
        if args.trace:
            metrics, tally = traced_run(args.workload, args.seed, workdir,
                                        out_stem)
            extra, op_times, probes = {}, None, None
        else:
            # one core for the run and every process it starts, so that the
            # calibration probes time the core the ops and set-ups ran on
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            walls, ops, setup_probes = calibrated_setups(
                args.workload, args.seed, workdir, SETUP_KERNEL)
            setups = scaled(SETUP_KERNEL, walls, setup_probes)
            kernel = OP_KERNEL[args.workload]
            tally = Tally()
            times, probes = timed_loop(ops, args.seconds, tally, kernel)
            best = [fast_half(t) for t in times]
            metrics = {
                "ops_per_s": len(best) / (sum(best) / 1e9),
                "op_ms.p50": statistics.median(best) / 1e6,
                "op_ms.p90": percentile(best, 90) / 1e6,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            # every pass of every deck op, in the results file only
            op_times = [[op.kind, [t / 1e6 for t in ts]]
                        for op, ts in zip(ops, times)]
            extra = {"deck_ops": len(best), "passes": len(times[0]),
                     "setup_samples_s": setups, "setup_wall_s": walls,
                     "machine_speed": kernel.speed(probes),
                     "setup_machine_speed": SETUP_KERNEL.speed(setup_probes)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "attempted": tally.attempted,
            "failed": tally.failed, "known_defect_failures": tally.known,
            "fail_frac": tally.failed / tally.attempted,
            "unexpected_failures": tally.unexpected,
            "unexpected_examples": tally.examples, **extra}
    result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    out_stem.with_suffix(".json").write_text(
        json.dumps({"meta": meta, "result": result, "op_ms": op_times,
                    "probes_ns": probes}, indent=1) + "\n")
    for line in tally.examples:
        print(f"perfbench: unexpected outcome: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    return {m["name"]: m["unit"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


UNITS = _units()

if __name__ == "__main__":
    sys.exit(main())
