"""The process entry path: ``python -m motivic.cli`` and the console script.

A CLI call is one short process, so ``cli.process_main`` runs it with the
cyclic garbage collector off and freezes what is left before the exit;
``python -m`` switches the collector off before the package's imports.  An
import of ``motivic.cli`` and an in-process ``main`` leave the collector as
they found it.  Runs through the process path give the bytes of the
in-process transcript.
"""

import gc
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import motivic
import motivic.cli
from motivic import fixtures

from test_cli import _run_process
from test_transcript import transcript

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_import_and_main_leave_the_collector_as_found(monkeypatch, capsys,
                                                      enabled):
    # a fresh import of the module, as a library caller or the benchmark's
    # probe makes it; the module the other tests imported is put back
    monkeypatch.delitem(sys.modules, "motivic.cli")
    monkeypatch.setattr(motivic, "cli", motivic.cli)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        cli = importlib.import_module("motivic.cli")
        after_import = gc.isenabled(), gc.get_freeze_count()
        code = cli.main(["vanishing", "--fixture", "x2y"])
        with pytest.raises(SystemExit):
            cli.main(["zeta", "--series-order", "-1"])
        after_main = gc.isenabled(), gc.get_freeze_count()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == 0 and capsys.readouterr().out == "L^(-1/2) ⊙ Y(p1)\n"
    assert after_import == after_main == (enabled, 0)


# the collector's state when atexit handlers run, and the number of
# collections it started once ``jsonschema`` was loaded
PROBE = """
import atexit, gc, sys
late = []
gc.callbacks.append(lambda phase, info: late.append(phase)
                    if phase == "start" and "jsonschema" in sys.modules
                    else None)
atexit.register(lambda: print("atexit:", gc.isenabled(),
                              gc.get_freeze_count() > 0, len(late)))
sys.argv = ["motivic", *sys.argv[1:]]
"""
LAUNCH = {
    "module": 'import runpy; runpy.run_module("motivic.cli", '
              'run_name="__main__", alter_sys=True)',
    # what the [project.scripts] wrapper runs
    "script": "from motivic.cli import process_main; sys.exit(process_main())",
}


@pytest.mark.parametrize("launch", LAUNCH)
@pytest.mark.parametrize("argv,code,out,err", [
    (["vanishing", "--fixture", "x2y"], 0, "L^(-1/2) ⊙ Y(p1)\n", ""),
    (["arc-check", "--fixture", "z2"], 2, "",
     "validation: command needs a arc-check payload, got 'resolution'\n"),
], ids=["exit_0", "exit_2"])
def test_process_runs_without_collections_and_exits_cleanly(launch, argv,
                                                            code, out, err):
    proc = _run_process("-c", PROBE + LAUNCH[launch], *argv)
    printed, _, probe = proc.stdout.rpartition("atexit: ")
    enabled, frozen, late = probe.split()
    assert (proc.returncode, printed, proc.stderr) == (code, out, err)
    assert (enabled, frozen) == ("False", "True")
    # ``python -m`` switches the collector off before jsonschema is loaded;
    # the console script imports motivic.cli before process_main runs
    assert late == "0" or launch == "script"


def test_argparse_exit_is_frozen_too():
    proc = _run_process("-c", PROBE + LAUNCH["module"], "zeta",
                        "--series-order", "-1")
    assert proc.returncode == 2 and "order must be >= 0" in proc.stderr
    assert proc.stdout == "atexit: False True 0\n"


def test_console_script_is_the_process_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:\n\[|\Z)",
                        pyproject, re.M | re.S).group(1)
    assert scripts.split() == ["motivic", "=", '"motivic.cli:process_main"']


# one run of each command, text and --machine-readable, an exit-2 run and
# both forms of selftest
SAMPLE = [
    ["zeta", "--fixture", "x2y_plane", "--series-order", "12"],
    ["nearby", "--fixture", "z3", "--machine-readable"],
    ["vanishing", "--fixture", "x2y"],
    ["arc-check", "--fixture", "arc_x2y", "--machine-readable"],
    ["arc-check", "--fixture", "z2"],
    ["ts", "--fixture", "ts_z2_10"],
    ["glue", "--fixture", "atlas_cylinder", "--machine-readable"],
    ["localize", "--fixture", "localize_two_points"],
    ["selftest"],
    ["selftest", "--machine-readable"],
]


def test_process_sample_matches_golden_transcript():
    golden = {block.splitlines()[0]: block for block in transcript.blocks(
        transcript.GOLDEN.read_text(encoding="utf-8"))}
    for argv in SAMPLE:
        block = transcript.record_process(argv)
        assert block == golden[block.splitlines()[0]], argv


def _atlas_job(entry, **fields):
    """atlas_cylinder with ``fields`` set on ``payload[entry][0]``."""
    job = fixtures.load_fixture_job("atlas_cylinder")
    job["payload"][entry][0].update(fields)
    return job


@pytest.mark.parametrize("job,code", [
    (_atlas_job("overlaps", restrict_a="sq"), 2),  # restriction off the overlap
    (_atlas_job("charts", Q=["p1"]), 5),  # cocycle identity broken
], ids=["exit_2", "exit_5"])
def test_process_job_runs_match_in_process(tmp_path, job, code):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    for argv in (["glue", "--job", str(path)],
                 ["glue", "--job", str(path), "--machine-readable"]):
        block = transcript.record_process(argv)
        assert block.splitlines()[1] == f"exit: {code}"
        assert block == transcript.record(argv)
