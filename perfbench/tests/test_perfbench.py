"""Tests of the benchmark itself: seeded inputs, oracles and the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import calibrate  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import reference  # noqa: E402
from spantrace import Tracer  # noqa: E402

from motivic import HalfLaurent, Motive  # noqa: E402

SRC = ROOT / "src"


def _spec(workload, seed):
    return gen.generate(workload, seed, SRC)


# -- seeded inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = gen.spec_bytes(_spec(workload, 7))
    assert first == gen.spec_bytes(_spec(workload, 7))
    assert first != gen.spec_bytes(_spec(workload, 8))


def test_cli_job_files_are_byte_identical_per_seed(tmp_path):
    ops_a = workloads.cli_ops(_spec("cli_cold", 3), ROOT, tmp_path / "a")
    ops_b = workloads.cli_ops(_spec("cli_cold", 3), ROOT, tmp_path / "b")
    assert len(ops_a) == len(ops_b)
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))


def _opaque(terms):
    return any(name in gen.RING_OPAQUE for mon, _, _ in terms for name in mon)


def _cost_shape(workload, op):
    """What sets an op's cost; the seed may change only the order of ops."""
    if workload == "ring_dense":
        if op["op"] == "chain":
            return ("chain", op["n"])
        return (len(op["a"]), len(op["b"]), op["gens"], op["expect"],
                _opaque(op["a"]), _opaque(op["b"]))
    if workload == "series_deep":
        if op["op"] == "arc":
            return ("arc", op["exponents"][0], op["k"])
        return (tuple(tuple(d[1:]) for d in op["divisors"]), op["k"],
                tuple(len(terms) for _, _, terms in op["strata"]))
    return (len(op["charts"]), op["broken"],
            tuple(sorted(len(g) for g in op["spaces"].values())))


@pytest.mark.parametrize("workload", ["ring_dense", "series_deep", "atlas_glue"])
def test_deck_costs_do_not_depend_on_the_seed(workload):
    shapes = {tuple(sorted(repr(_cost_shape(workload, op))
                           for op in _spec(workload, s))) for s in range(4)}
    assert len(shapes) == 1


# -- cli oracle ------------------------------------------------------------------------


def _golden():
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "GOLDEN":
            return ast.literal_eval(node.value)
    raise AssertionError("GOLDEN table not found")


def test_expected_stdout_matches_golden_table():
    expected = json.loads(workloads.EXPECTED_CLI.read_text())
    golden = _golden()
    assert golden
    for (fixture, cmd), text in golden.items():
        assert expected[f"{cmd} --fixture {fixture}"] == text + "\n"


def test_expected_stdout_matches_readme_examples():
    expected = json.loads(workloads.EXPECTED_CLI.read_text())
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []     # (command, commented output lines)
    for line in block.splitlines():
        if line.startswith("motivic "):
            cmd, _, comment = line[len("motivic "):].partition("#")
            examples.append((cmd.strip(), [comment.strip()] if comment else []))
        elif line.startswith("# ") and examples:
            examples[-1][1].append(line[2:].strip())
    checked = 0
    for cmd, lines in examples:
        if cmd in expected and lines and not any("..." in l for l in lines):
            assert expected[cmd].splitlines() == lines, cmd
            checked += 1
    assert checked >= 6


def test_expected_machine_output_agrees_with_text():
    expected = json.loads(workloads.EXPECTED_CLI.read_text())
    from motivic.fixtures import load_fixture_job
    from motivic.serialize import motive_from_json, registry_from_json

    for key, out in expected.items():
        if not key.endswith("--machine-readable") or '"motive"' not in out:
            continue
        fixture = key.split()[2]
        reg = registry_from_json(load_fixture_job(fixture)["registry"])
        motive = motive_from_json(reg, json.loads(out)["motive"])
        assert motive.text() + "\n" == expected[key.replace(" --machine-readable", "")]


def test_cli_oracle_flags_wrong_outcomes(tmp_path):
    spec = _spec("cli_cold", 1)
    ops = workloads.cli_ops(spec, ROOT, tmp_path)
    op, entry = next((o, e) for o, e in zip(ops, spec)
                     if e["id"] == "vanishing --fixture x2y")
    right = (0, "L^(-1/2) ⊙ Y(p1)\n", "")
    want = op.expected
    assert op.check(right, want)
    assert not op.check((0, "L^(-1/2)\n", ""), want)
    assert not op.check((1, right[1], ""), want)
    assert not op.check((0, right[1], "Traceback (most recent call last):"), want)
    assert not op.check(RuntimeError("timeout"), want)
    mutated = [(o, e) for o, e in zip(ops, spec) if "job" in e]
    assert {e["id"].split("#")[0] for _, e in mutated} == set(gen.MUTATION_KINDS)
    op, entry = next((o, e) for o, e in mutated if e["code"] == 3)
    assert op.check((3, "", "missing restriction: 'c' is not declared"), op.expected)
    assert not op.check((1, "", "missing restriction: 'c' is not declared"),
                        op.expected)
    known = [o for o, e in mutated if o.known_defect]
    assert known and all(e["id"].startswith("undeclared_region")
                         for o, e in mutated if o.known_defect)


# -- in-process oracles ------------------------------------------------------------------


def _small_ring_spec():
    rng = gen.rng_for("test", 0)
    return [{"op": "odot", "gens": 10, "expect": "ok",
             "a": gen.ring_motive(rng, 10, 12, False),
             "b": gen.ring_motive(rng, 10, 9, opaque)} for opaque in (True, False)] + \
        [{"op": "odot", "gens": 10, "expect": "undecidable",
          "a": gen.ring_motive(rng, 10, 5, True),
          "b": gen.ring_motive(rng, 10, 5, True)},
         {"op": "chain", "n": 4}]


def _ops(workload, spec):
    make_ops = {"ring_dense": workloads.ring_ops,
                "series_deep": lambda sp: workloads.series_ops(sp, workloads.ArcTally()),
                "atlas_glue": workloads.atlas_ops}
    return workloads.attach(make_ops[workload](spec), oracle.expected(workload, spec))


def _bump(m):
    return m + Motive.coefficient(m.reg, m.space, HalfLaurent.power(1))


def _flip_bit(m, bit):
    """m with one term moved to the class whose generator ``bit`` is flipped."""
    terms = m.terms()
    keys = {key for key, _ in terms}
    for i, ((mon, bits), coeff) in enumerate(terms):
        if (mon, bits ^ 1 << bit) not in keys:
            terms[i] = ((mon, bits ^ 1 << bit), coeff)
            return Motive(m.reg, m.space, terms)
    raise AssertionError("no free class to move a term to")


def test_ring_oracles_flag_wrong_results():
    ops = _ops("ring_dense", _small_ring_spec())
    for op in ops:
        out, _, matched = run.run_op(op)
        assert matched, op.kind
        if op.kind != "odot_undecidable":
            assert not op.check(_bump(out), op.expected), op.kind
    assert not ops[2].check(ops[0].run(), ops[2].expected)


@pytest.mark.parametrize("bit", range(10))
def test_odot_oracle_flags_one_wrong_generator_bit(bit):
    op = _ops("ring_dense", _small_ring_spec())[0]
    out = op.run()
    assert op.check(out, op.expected)
    assert not op.check(_flip_bit(out, bit), op.expected)


def test_series_oracles_flag_wrong_results():
    rng = gen.rng_for("test", 1)
    spec = [{"op": "zeta", **gen.resolution_spec(rng, [2, 3, 4], [1, 2, 1], 12)},
            {"op": "arc", **gen.arc_spec(rng, 2, 30)}]
    zeta_op, arc_op = _ops("series_deep", spec)
    classes, texts, back = zeta_op.run()
    want = zeta_op.expected
    assert zeta_op.check((classes, texts, back), want)
    bad = list(classes)
    bad[5] = _bump(bad[5])
    assert not zeta_op.check((bad, texts, back), want)
    assert not zeta_op.check((classes, texts, bad), want)
    assert not zeta_op.check((classes[:-1], texts, back[:-1]), want)
    truncated, series = arc_op.run()
    assert arc_op.check((truncated, series), None)
    assert not arc_op.check((truncated, series[:-1] + [_bump(series[-1])]), None)


def test_atlas_oracles_flag_wrong_results():
    rng = gen.rng_for("test", 2)
    good = {"op": "atlas", **gen.atlas_spec(rng, 6, False)}
    broken = {"op": "atlas", **gen.atlas_spec(rng, 6, True)}
    ok_op, broken_op = _ops("atlas_glue", [good, broken])
    diags, glued, total, verdict = out = ok_op.run()
    want = ok_op.expected
    assert ok_op.check(out, want)
    assert not ok_op.check((diags, glued, _bump(total), verdict), want)
    assert not ok_op.check((diags, glued, total, not verdict), want)
    assert not ok_op.check((["overlap broken"], glued, total, verdict), want)
    region = next(iter(glued.values))
    glued.values[region] = _bump(glued.values[region])
    assert not ok_op.check(out, want)
    out, _, matched = run.run_op(broken_op)
    assert matched and type(out).__name__ == "DescentFailure"
    assert not broken_op.check((diags, glued, total, verdict), broken_op.expected)


def test_fingerprint_of_a_motive_matches_the_digest_of_its_flat_form():
    op = _ops("ring_dense", _small_ring_spec())[1]
    out = op.run()
    assert reference.fingerprint(out) == reference.digest(reference.flat(out))
    assert reference.fingerprint(out, out) != reference.fingerprint(out)


# -- the timed loop and child processes -----------------------------------------------


def _stub_deck(kinds, seen):
    def runner(i):
        def run_():
            seen.append(i)
            return i
        return run_
    return [workloads.Op(kind, runner(i), lambda out, want: out == want,
                         expected=i) for i, kind in enumerate(kinds)]


@pytest.mark.parametrize("seconds", [0.0, 0.05])
def test_timed_loop_attempts_whole_decks(seconds):
    kinds = [op["id"].split("#")[0] if "job" in op else op["argv"][0]
             for op in _spec("cli_cold", 4)]
    seen = []
    tally = run.Tally()
    times, probes = run.timed_loop(_stub_deck(kinds, seen), seconds, tally,
                                   calibrate.IN_PROCESS)
    passes = len(times[0])
    assert passes >= 1 and len(times) == len(kinds)
    assert all(len(t) == passes for t in times)
    assert len(probes) == passes * len(kinds) + 1
    assert tally.attempted == len(seen) == passes * len(kinds)
    assert tally.failed == 0
    assert sorted(seen) == sorted(list(range(len(kinds))) * passes)
    assert {kinds[i] for i in seen} >= set(gen.MUTATION_KINDS) | {"selftest"}
    assert passes == 1 or seconds > 0


class _Clock:
    """Stand-in for the time module: only ops move it, by 30 ms each."""

    def __init__(self):
        self.ns = 0

    def perf_counter_ns(self):
        return self.ns

    def perf_counter(self):
        return self.ns / 1e9

    def tick(self):
        self.ns += 30_000_000


@pytest.mark.parametrize("seconds, passes", [(0.01, 1), (0.1, 3), (0.119, 3),
                                              (0.12, 4)])
def test_timed_loop_starts_no_pass_it_cannot_finish(monkeypatch, seconds, passes):
    clock = _Clock()
    monkeypatch.setattr(run, "time", clock)
    kernel = calibrate.Kernel(None, reference_ns=1000, repeats=1)
    monkeypatch.setattr(kernel, "probe", lambda: 1000)
    deck = [workloads.Op("tick", clock.tick, lambda out, want: True)]
    times, _ = run.timed_loop(deck, seconds, run.Tally(), kernel)
    assert times == [[30_000_000] * passes]
    assert clock.ns <= max(seconds * 1e9, 30_000_000)


@pytest.mark.parametrize("kernel", [calibrate.IN_PROCESS, calibrate.PROCESS])
def test_calibration_cancels_the_machine_speed(kernel):
    ref = kernel.reference_ns
    assert kernel.scale(5_000_000, ref, ref) == 5_000_000
    # on a machine at half speed the op and the kernel both take twice as long
    assert kernel.scale(10_000_000, 2 * ref, 2 * ref) == 5_000_000
    assert kernel.scale(9_000_000, ref, 2 * ref) == 6_000_000
    assert kernel.speed([2 * ref, ref, 4 * ref]) == 0.5
    assert kernel.probe() > 0


def test_fast_half_is_the_mean_of_the_faster_passes():
    assert run.fast_half([7.0]) == 7.0
    assert run.fast_half([4.0, 2.0]) == 2.0
    assert run.fast_half([9.0, 1.0, 3.0]) == 2.0
    assert run.fast_half([8.0, 2.0, 6.0, 4.0]) == 3.0


def test_scaled_pairs_each_wall_time_with_the_probes_around_it():
    kernel = calibrate.Kernel(None, reference_ns=100, repeats=1)
    assert run.scaled(kernel, [1.0, 2.0], [100, 300, 100]) == [0.5, 1.0]


def test_in_child_returns_the_result_and_reports_failures():
    assert run.in_child(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(RuntimeError):
        run.in_child(int, "not a number")


def test_expectations_from_the_child_match_the_reference():
    spec = _spec("atlas_glue", 6)
    assert run.expectations("atlas_glue", 6) == oracle.expected("atlas_glue", spec)


# -- tracer -----------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["ring_dense", "series_deep", "atlas_glue"])
def test_traced_self_times_fit_in_op_wall(workload):
    ops = run.build_ops(workload, 5, None, workloads.ArcTally())[:4]
    tracer = Tracer()
    walls = []
    for i, op in enumerate(ops):
        tracer.op = i
        tracer.install()
        try:
            walls.append(run.run_op(op)[1])
        finally:
            tracer.uninstall()
    assert tracer.spans and all(s is not None for s in tracer.spans)
    for i, wall in enumerate(walls):
        spans = [s for s in tracer.spans if s[4] == i]
        total = 0
        for idx, span in enumerate(tracer.spans):
            if span[4] != i:
                continue
            children = sum(c[2] - c[1] for c in tracer.spans if c[3] == idx)
            total += span[2] - span[1] - children
        assert spans and 0 < total <= wall
    assert sum(tracer.self_ns.values()) <= sum(walls)


def test_tracer_restores_the_library():
    import motivic
    from motivic import motive, zeta

    before = (motive.Motive.odot, zeta.expand_series, motivic.glue)
    tracer = Tracer().install()
    assert zeta.expand_series is not before[1]
    tracer.uninstall()
    assert (motive.Motive.odot, zeta.expand_series, motivic.glue) == before


# -- the command ----------------------------------------------------------------------------


def test_run_reports_exactly_the_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas_glue",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert {"seed", "python", "nproc", "commit"} <= set(meta)


def test_per_layer_names_match_what_a_traced_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(run.layer_metrics(Tracer(), 1, 1))
    names |= {"arcs.match_frac", "trace.overhead_frac",
              "trace.ops", "startup.interp_ms", "startup.import_jsonschema_ms",
              "startup.import_motivic_ms"}
    names |= {f"baseline.{case}.{kind}" for case in
              ["odot_50", "odot_200", "expand_series_100", "expand_series_400",
               "arc_x2y_200", "arc_x2y_1000"]
              + [f"boxdot_chain_{n}" for n in gen.CHAIN_ORDERS]
              for kind in ("ms", "self_ms")}
    assert names == {m["name"] for m in bench["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
