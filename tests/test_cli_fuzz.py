"""Exit-code fuzz: schema-valid single-value mutations of every shipped
fixture job, and resolution jobs with one optional key dropped, end in a
documented exit code, never in a traceback: exit 1 only with a FAIL
verdict on stdout."""

import contextlib
import copy
import io
import json
import re

import pytest

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import localize_z1z2_off_the_point, ts_with_opaque_factors
from motivic.cli import build_parser, main
from motivic.jobs import FIXTURE_NAMES, job_validator, load_fixture_job

COMMANDS = ("zeta", "nearby", "vanishing", "arc-check", "ts", "glue",
            "localize")
# the payload kind each command's subparser records for the CLI protocol
KIND = {c: build_parser().parse_args([c]).kind for c in COMMANDS}


def _sites(doc):
    """(container, key) of every object key, string and int of a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(doc, dict):
            yield doc, key, "key"
        if isinstance(value, (dict, list)):
            yield from _sites(value)
        elif isinstance(value, str) or type(value) is int:
            yield doc, key, "value"


def _strings(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)
    elif isinstance(doc, str):
        yield doc


# ints that may also jump to a large value: a divisor's multiplicity and
# discrepancy, and a symbol's order
LARGE_INT_KEYS = ("N", "nu", "order")


@st.composite
def mutated_jobs(draw):
    """A shipped fixture job with one value moved: a string replaced by
    another name of the job or a fresh one, an object key renamed, an int
    moved within its schema bounds (``series_order`` at most 20), or, in
    about half the jobs that have one, a ``LARGE_INT_KEYS`` value set
    anywhere up to 10^6."""
    job = load_fixture_job(draw(st.sampled_from(FIXTURE_NAMES)))
    names = sorted({*_strings(job), "fresh"})
    sites = list(_sites(job))
    large = [(c, k) for c, k, what in sites
             if what == "value" and k in LARGE_INT_KEYS]
    if large and draw(st.booleans()):
        container, key = draw(st.sampled_from(large))
        container[key] = draw(st.integers(1, 10 ** 6))
    else:
        container, key, what = draw(st.sampled_from(sites))
        if what == "key":
            new = draw(st.sampled_from(names))
            assume(new not in container)
            container[new] = container.pop(key)
        elif isinstance(container[key], str):
            container[key] = draw(st.sampled_from(names))
        else:
            container[key] += draw(st.integers(-3, 3))
    assume(job.get("params", {}).get("series_order", 0) <= 20)
    assume(job_validator().is_valid(job))
    return job


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call; an
    exception escaping ``main`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the stdout key and text line of each comparison verdict that exits 1
VERDICT = {"arc-check": ("all_pass", re.compile(r"^n=\d+ +FAIL ", re.M)),
           "localize": ("check", re.compile(r"; check: FAIL$", re.M))}


def _fails_its_check(command, out, machine):
    """Whether stdout carries the FAIL verdict of ``arc-check`` or
    ``localize``."""
    if command not in VERDICT:
        return False
    key, line = VERDICT[command]
    return json.loads(out)[key] is False if machine else bool(line.search(out))


# schema-valid jobs that once ended in ``error:``, exit 1
DANGLING_RESTRICTION = load_fixture_job("atlas_cylinder")
DANGLING_RESTRICTION["payload"]["overlaps"][0]["restrict_a"] = "nosuch"
UNORIENTED_ATLAS = load_fixture_job("atlas_cylinder")
UNORIENTED_ATLAS["payload"]["oriented"] = False
# a product whose coefficient has more digits than Python writes as text
# (sys.get_int_max_str_digits), refused as unsupported shape, exit 4
LONG_COEFFICIENT = load_fixture_job("ts_z2_10")
for factor in LONG_COEFFICIENT["payload"]["factors"][:2]:
    factor["terms"][0]["coeff"] = [[0, int("9" * 4000)]]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(job=mutated_jobs(), machine=st.booleans())
@example(job=DANGLING_RESTRICTION, machine=False)
@example(job=UNORIENTED_ATLAS, machine=False)
@example(job=ts_with_opaque_factors(), machine=True)
@example(job=LONG_COEFFICIENT, machine=False)
@example(job=LONG_COEFFICIENT, machine=True)
@example(job=localize_z1z2_off_the_point("component"), machine=False)
@example(job=localize_z1z2_off_the_point("direct"), machine=False)
def test_valid_jobs_end_in_a_documented_exit_code(tmp_path_factory, job,
                                                  machine):
    assert job_validator().is_valid(job)
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    for command in COMMANDS:
        if KIND[command] != job["payload"]["kind"]:
            continue
        argv = [command, "--job", str(path)]
        argv += ["--machine-readable"] if machine else []
        code, out, err = _run(argv)
        assert code in (0, 2, 3, 4, 5) or (
            code == 1 and err == "" and _fails_its_check(command, out, machine)
        ), (argv, code, out, err)
        assert _run(argv) == (code, out, err)


RESOLUTION_FIXTURES = [name for name in FIXTURE_NAMES
                       if load_fixture_job(name)["payload"]["kind"] == "resolution"]


def _optional_key_drops(job):
    """(label, copy of ``job`` with one optional key dropped) for the
    payload's ``points``, each critical value's ``classes``, ``ambient``
    and ``space``, and each divisor's ``boundary``."""
    payload = job["payload"]
    sites = [((), "points")] if "points" in payload else []
    for i, value in enumerate(payload.get("critical_values", ())):
        sites += [(("critical_values", i), key)
                  for key in ("classes", "ambient", "space") if key in value]
    for i, divisor in enumerate(payload["divisors"]):
        if "boundary" in divisor:
            sites.append((("divisors", i), "boundary"))
    for path, key in sites:
        dropped = copy.deepcopy(job)
        container = dropped["payload"]
        for step in path:
            container = container[step]
        del container[key]
        yield "/".join(map(str, (*path, key))), dropped


@pytest.mark.parametrize("fixture", RESOLUTION_FIXTURES)
def test_dropping_an_optional_key_never_exits_1(tmp_path, fixture):
    drops = list(_optional_key_drops(load_fixture_job(fixture)))
    assert drops
    path = tmp_path / "job.json"
    for label, job in drops:
        path.write_text(json.dumps(job), encoding="utf-8")
        for command in ("zeta", "nearby", "vanishing"):
            for machine in ([], ["--machine-readable"]):
                argv = [command, "--job", str(path), *machine]
                code, _, err = _run(argv)
                assert code in (0, 2, 3), (label, argv, code, err)
                assert "Traceback" not in err
