"""Order-canonical output: shuffling the set-like lists of a job changes no
byte of stdout, stderr or the exit code, for every shipped fixture under
every command that reads it.  The lists are those of a resolution
(divisors, strata, restriction classes), an atlas (charts,
overlaps, regions, scissor pieces and their entries), fixed-point data
(components), motives (terms and coefficient pairs) and the registry
(spaces, symbols, morphisms and the morphism tables).

Generator ``names`` keep their order: it fixes the bundle bit indices, so
it legitimately changes the output.  So do a ``ts`` chain's ``factors``.

A refused job names one fault; which one does not depend on list order
either, when two overlaps or two scissor pieces fail.
"""

import contextlib
import io
import json
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic.cli import main
from motivic.jobs import FIXTURE_NAMES, load_fixture_job

SET_LIKE = ("divisors", "strata", "classes", "terms", "coeff",
            "charts", "overlaps", "regions", "scissor", "entries", "components",
            "spaces", "symbols", "morphisms", "pull_symbols", "pull_bundles",
            "push_classes")
COMMANDS = {"resolution": (("zeta", "--series-order", "12"), ("nearby",),
                           ("vanishing",)),
            "atlas": (("glue",),),
            "fixedpoints": (("localize",),),
            "arc-check": (("arc-check",),),
            "ts": (("ts",),)}


def _shuffled(doc, rnd):
    """A copy of ``doc`` with every list under a ``SET_LIKE`` key shuffled."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            value = _shuffled(value, rnd)
            if key in SET_LIKE and isinstance(value, list):
                rnd.shuffle(value)
            out[key] = value
        return out
    if isinstance(doc, list):
        return [_shuffled(value, rnd) for value in doc]
    return doc


def _outputs(name: str, source: list[str], machine: bool):
    results = []
    for command in COMMANDS[load_fixture_job(name)["payload"]["kind"]]:
        argv = [*command, *source]
        argv += ["--machine-readable"] if machine else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append((command[0], code, out.getvalue(), err.getvalue()))
    return results


@cache
def _as_shipped(name: str, machine: bool):
    return _outputs(name, ["--fixture", name], machine)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES),
       rnd=st.randoms(use_true_random=False), machine=st.booleans())
def test_shuffled_set_like_lists_change_no_output(tmp_path_factory, name, rnd,
                                                  machine):
    path = tmp_path_factory.mktemp("order") / "job.json"
    path.write_text(json.dumps(_shuffled(load_fixture_job(name), rnd)),
                    encoding="utf-8")
    assert (_outputs(name, ["--job", str(path)], machine)
            == _as_shipped(name, machine))


def _cylinder_with_region_r2(key):
    """atlas_cylinder with a second region ``R2`` on ``Gm`` and two failing
    entries in ``payload[key]``: two overlaps that both break the cocycle,
    or a scissor piece with no entries next to one over the unglued ``R2``."""
    job = load_fixture_job("atlas_cylinder")
    payload = job["payload"]
    payload["regions"].append({"name": "R2", "space": "Gm"})
    first = payload[key][0]
    if key == "overlaps":
        first["q_t"] = []
        payload[key].append(dict(first, region="R2"))
    else:
        first["entries"] = []
        payload[key].append({"region": "R2", "sign": 1, "entries": []})
    return job


@pytest.mark.parametrize("key,code,stderr", [
    ("overlaps", 5,
     "descent failure:\n"
     "  left : overlap cA|cB@R: Q_T != P + Q for chart cA "
     "(got Y(0), expected Y(p1))\n"
     "  right: \n"
     "  (cocycle identity broken)\n"),
    ("scissor", 1, "error: region 'R': no scissor entry for term ((), bits=0)\n"),
], ids=["overlaps", "scissor"])
def test_two_faults_name_the_same_one_in_either_order(tmp_path, key, code,
                                                      stderr):
    job = _cylinder_with_region_r2(key)
    path = tmp_path / "job.json"
    for _ in range(2):
        path.write_text(json.dumps(job), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(["glue", "--job", str(path)])
        assert (got, out.getvalue(), err.getvalue()) == (code, "", stderr)
        job["payload"][key].reverse()
