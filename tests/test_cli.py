"""CLI surface: output text, exit-code contract, determinism, round-trips."""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import localize_z1z2_off_the_point, ts_with_opaque_factors
from motivic import fixtures
from motivic.cli import main
from motivic.errors import MotivicError
from motivic.serialize import motive_from_json, registry_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_z2_text(capsys):
    code, out, _ = run(capsys, "zeta", "--fixture", "z2")
    assert code == 0
    assert out.strip() == "(1 - L^(1/2)) * (L^-1 T^2)/(1 - L^-1 T^2)"


def test_zeta_series_order_flag(capsys):
    code, out, _ = run(capsys, "zeta", "--fixture", "z2",
                       "--series-order", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(1 - L^(1/2)) * (L^-1 T^2)/(1 - L^-1 T^2)"
    assert lines[1:] == ["T^0: 0", "T^1: 0", "T^2: L^-1 - L^(-1/2)",
                         "T^3: 0", "T^4: L^-2 - L^(-3/2)"]


def test_nearby_and_vanishing_z2(capsys):
    code, out, _ = run(capsys, "nearby", "--fixture", "z2")
    assert code == 0 and out.strip() == "1 - L^(1/2)"
    code, out, _ = run(capsys, "vanishing", "--fixture", "z2")
    assert code == 0 and out.strip() == "1"


def test_vanishing_x2y_text(capsys):
    code, out, _ = run(capsys, "vanishing", "--fixture", "x2y")
    assert code == 0
    assert out.strip() == "L^(-1/2) ⊙ Y(p1)"


def test_output_determinism(capsys):
    first = run(capsys, "glue", "--fixture", "atlas_cylinder")
    second = run(capsys, "glue", "--fixture", "atlas_cylinder")
    assert first == second
    assert first[0] == 0


def test_output_determinism_across_processes():
    # fresh interpreters get fresh hash seeds; output must still be identical
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "motivic.cli", "zeta", "--fixture",
           "x2y_plane", "--series-order", "6", "--machine-readable"]
    runs = {subprocess.run(cmd, capture_output=True).stdout for _ in range(3)}
    assert len(runs) == 1


def test_machine_readable_round_trip(capsys):
    code, out, _ = run(capsys, "vanishing", "--fixture", "x2y",
                       "--machine-readable")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "motivic.result/1"
    reg = registry_from_json(fixtures.load_fixture_job("x2y")["registry"])
    m = motive_from_json(reg, doc["motive"])
    from motivic import generator, upsilon, Motive

    assert m == Motive.half_power(reg, "Gm", -1).odot(
        upsilon(reg, generator(reg, "Gm", "p1")))


def test_arc_check_pass_table(capsys):
    code, out, _ = run(capsys, "arc-check", "--fixture", "arc_z2",
                       "--series-order", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert len(lines) == 12 and all("PASS" in l for l in lines)


def test_arc_check_vacuous_at_order_zero(capsys):
    code, out, _ = run(capsys, "arc-check", "--fixture", "arc_z2",
                       "--series-order", "0")
    assert code == 0
    assert "vacuous" in out


def test_arc_check_mismatch_fails(tmp_path, capsys):
    # z^3 oracle against the z^2 resolution: first divergence at n = 2
    job = fixtures.load_fixture_job("arc_z2")
    job["payload"]["monomial"]["exponents"] = [3]
    job["payload"]["monomial"]["cover_symbols"] = {"3": "mu2"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, _ = run(capsys, "arc-check", "--job", str(path),
                       "--series-order", "4")
    assert code == 1
    assert "n=2   FAIL" in out


def test_ts_fixture(capsys):
    code, out, _ = run(capsys, "ts", "--fixture", "ts_z2_10")
    assert code == 0 and out.strip() == "1"


def test_glue_prints_regions_and_ledger(capsys):
    code, out, _ = run(capsys, "glue", "--fixture", "atlas_cylinder")
    assert code == 0
    assert "region R: L^(-1/2)" in out
    assert "overlaps checked: cA|cB@R" in out
    assert "pushforward: -L^(-1/2) + L^(1/2)" in out


def test_glue_descent_failure_exit_code(tmp_path, capsys):
    job = fixtures.load_fixture_job("atlas_cylinder")
    job["payload"]["charts"][0]["Q"] = ["p1"]  # flip one orientation bit
    path = tmp_path / "bad_atlas.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, _, err = run(capsys, "glue", "--job", str(path))
    assert code == 5
    assert "descent failure" in err


def test_undeclared_region_exit_code(tmp_path, capsys):
    job = fixtures.load_fixture_job("atlas_cylinder")
    job["payload"]["charts"][0]["region"] = "R_nowhere"
    job["payload"]["overlaps"][0]["region"] = "R_gone"
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "glue", "--job", str(path))
    assert code == 2 and out == ""
    assert "validation: chart 'cA' on undeclared region 'R_nowhere'" in err
    assert "validation: overlap cA|cB on undeclared region 'R_gone'" in err


def _with_stratum(name, space=None, monomial=None):
    """The fixture job with its first stratum class changed."""
    job = fixtures.load_fixture_job(name)
    cls = job["payload"]["strata"][0]["class"]
    if space is not None:
        cls["space"] = space
    if monomial is not None:
        cls["terms"][0]["monomial"] = monomial
    return job


def _x2y_with_misplaced_symbol():
    """x2y with its first stratum class moved to ``GmW`` and its ``p1`` term
    made the monomial ``Pfib``, a symbol declared on ``Gm``."""
    job = _with_stratum("x2y", space="GmW")
    term = job["payload"]["strata"][0]["class"]["terms"][1]
    term["monomial"], term["bundle"] = ["Pfib"], []
    return job


def _fixture_with(name, *path_and_value):
    """The fixture job with ``payload[path...] = value`` set."""
    job = fixtures.load_fixture_job(name)
    *path, key, value = path_and_value
    target = job["payload"]
    for step in path:
        target = target[step]
    target[key] = value
    return job


def _x2y_on_gmw(ambient=False):
    """x2y whose critical-value table is declared on ``GmW`` while its class
    stays on ``Gm``; with ``ambient``, the class moves to ``GmW`` (as 1)
    and an ambient 1 on ``Gm`` is added.  Without the parse-time check both
    end in the ring's space mismatch, exit 1."""
    job = _fixture_with("x2y", "critical_values", 0, "space", "GmW")
    if ambient:
        one = {"monomial": [], "bundle": [], "coeff": [[0, 1]]}
        table = job["payload"]["critical_values"][0]
        table["classes"][0]["class"] = {"space": "GmW", "terms": [one]}
        table["ambient"] = {"space": "Gm", "terms": [one]}
    return job


def _localize_z1z2_asserting_false():
    """localize_z1z2 with a component that asserts neither hypothesis of
    the localization formula."""
    job = fixtures.load_fixture_job("localize_z1z2")
    job["payload"]["components"][0].update(good=False, circle_compact=False)
    return job


def _arc_z3_with_default_cover(a):
    """arc_z3 with exponent ``a`` and no named cover symbol: the oracle
    looks up the default ``mu<a>``."""
    job = _fixture_with("arc_z3", "monomial", "cover_symbols", {})
    job["payload"]["monomial"]["exponents"] = [a]
    return job


def _ts_without_products():
    job = fixtures.load_fixture_job("ts_z2_10")
    job["registry"]["products"] = []
    return job


def _ts_with_stratum_symbol():
    """ts_z2_10 whose first factor is the class of a symbol ``T`` declared
    on a stratum ``S`` of the factor space ``X0``."""
    job = fixtures.load_fixture_job("ts_z2_10")
    reg = job["registry"]
    reg["spaces"].append({"name": "S", "dim": 0, "strata": []})
    reg["spaces"][0]["strata"] = ["S"]
    reg["symbols"].append({"name": "T", "space": "S", "order": 1,
                           "underlying": None, "cover": None})
    job["payload"]["factors"][0]["terms"][0]["monomial"] = ["T"]
    return job


def _localize_with_restriction(side, name):
    """localize_two_points whose direct atlas gains a self-overlap of chart
    ``c1`` restricted along the morphism ``name`` on ``side``."""
    job = fixtures.load_fixture_job("localize_two_points")
    overlap = {"chart_a": "c1", "chart_b": "c1", "region": "P1", "p_a": [],
               "p_b": [], "q_t": [], "restrict_a": None, "restrict_b": None,
               "mf_t": None}
    overlap[side] = name
    job["payload"]["direct_atlas"]["overlaps"] = [overlap]
    return job


@pytest.mark.parametrize("command,job,message", [
    ("nearby", _with_stratum("z2", space="NOWHERE"), "unknown space 'NOWHERE'"),
    ("nearby", _with_stratum("x2y", space="NOWHERE"),
     "unknown space 'NOWHERE'"),
    ("nearby", _with_stratum("z2", monomial=["nosym"]), "unknown symbol 'nosym'"),
    ("vanishing",
     _fixture_with("x2y", "critical_values", 0, "space", "NOWHERE"),
     "unknown space 'NOWHERE'"),
    ("arc-check",
     _fixture_with("arc_x2y", "monomial", "base_space", "NOWHERE"),
     "unknown space 'NOWHERE'"),
    ("arc-check",
     _fixture_with("arc_x2y", "monomial", "unit_generators", ["nope"]),
     "unknown bundle generator 'nope' on 'Gm'"),
    ("arc-check",
     _fixture_with("arc_z3", "monomial", "cover_symbols", {"3": "nosym"}),
     "unknown symbol 'nosym'"),
    ("ts", _ts_without_products(), "no registered product of 'X0' and 'X0'"),
    ("arc-check", _arc_z3_with_default_cover(5), "unknown symbol 'mu5'"),
    ("ts", _ts_with_stratum_symbol(),
     "symbol 'T' on 'S' has no image on product 'T2'"),
    *[("arc-check",
       _fixture_with("arc_z3", "monomial", "cover_symbols", {key: "mu3"}),
       f"cover_symbols key {key!r} is not an integer order")
      # int() reads the middle four, which are not ASCII digits alone;
      # the last has more digits than int() converts
      for key in ("three", "1_0", " 3", "+3", "\u0663", "9" * 5000)],
    ("nearby", _x2y_with_misplaced_symbol(),
     "symbol 'Pfib' lives on 'Gm', not on 'GmW'"),
    ("glue",
     _fixture_with("atlas_cylinder", "overlaps", 0, "restrict_a", "nosuch"),
     "unknown morphism 'nosuch'"),
    ("localize", _localize_with_restriction("restrict_b", "nosuch"),
     "unknown morphism 'nosuch'"),
], ids=["space", "space_with_bundle", "symbol", "critical_value_space",
        "base_space", "unit_generator", "cover_symbol", "product",
        "default_cover_symbol", "stratum_symbol_in_product", "cover_symbol_key",
        "cover_symbol_key_underscore", "cover_symbol_key_space",
        "cover_symbol_key_plus", "cover_symbol_key_non_ascii",
        "cover_symbol_key_past_the_int_digit_limit",
        "symbol_on_another_space", "overlap_restriction",
        "direct_atlas_restriction"])
def test_unknown_space_or_symbol_exit_code(tmp_path, capsys, command, job,
                                           message):
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, command, "--job", str(path))
    assert code == 2 and out == ""
    assert err == f"validation: {message}\n"


def test_cover_symbols_keys_naming_one_order_are_repeats(tmp_path, capsys):
    job = _fixture_with("arc_z3", "monomial", "cover_symbols",
                        {"3": "mu3", "03": "mu3", "1": "mu3", "001": "mu3"})
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert run(capsys, "arc-check", "--job", str(path)) == (
        2, "", "validation: duplicate order 3 (key '03') in cover_symbols\n"
               "validation: duplicate order 1 (key '001') in cover_symbols\n")


def _with_morphism(job, name, source, target):
    """``job`` with a morphism ``name: source -> target`` declared."""
    job["registry"]["morphisms"].append(
        {"name": name, "source": source, "target": target, "kind": "general",
         "pull_symbols": [], "pull_bundles": [], "push_classes": []})
    return job


def _cylinder_restricted(*overlaps):
    """atlas_cylinder with ``up: Gm -> GmW`` declared besides its
    ``sq: GmW -> Gm``, and one copy of its overlap per ``(chart_b,
    restrict_a, restrict_b)``."""
    job = _with_morphism(fixtures.load_fixture_job("atlas_cylinder"), "up",
                         "Gm", "GmW")
    template = job["payload"]["overlaps"][0]
    job["payload"]["overlaps"] = [
        {**template, "chart_b": chart_b, "restrict_a": a, "restrict_b": b}
        for chart_b, a, b in overlaps]
    return job


def _cylinder_on_rw(restrict_b=None):
    """atlas_cylinder with a region ``RW`` on ``GmW`` that its overlap moves
    to, with ``p_a``, ``p_b`` and ``q_t`` empty and ``restrict_a`` null."""
    job = fixtures.load_fixture_job("atlas_cylinder")
    job["payload"]["regions"].append({"name": "RW", "space": "GmW"})
    job["payload"]["overlaps"][0].update(region="RW", p_a=[], p_b=[], q_t=[],
                                         restrict_b=restrict_b)
    return job


def _null_side(side, chart):
    return (f"validation: overlap cA|cB@RW: null restrict_{side}, but the "
            f"overlap's region space 'GmW' is not the region space 'Gm' of "
            f"chart {chart!r}\n")


SQ_SOURCE = ("validation: overlap cA|cB@R: restrict_a 'sq' has source 'GmW', "
             "not the overlap's region space 'Gm'\n")


@pytest.mark.parametrize("command,job,stderr", [
    ("glue", _fixture_with("atlas_cylinder", "overlaps", 0, "restrict_a",
                           "sq"), SQ_SOURCE),
    ("glue", _cylinder_restricted(("cB", None, "up")),
     "validation: overlap cA|cB@R: restrict_b 'up' has target 'GmW', not the "
     "region space 'Gm' of chart 'cB'\n"),
    ("glue", _cylinder_restricted(("cB", "sq", "sq"), ("cB", "nosuch", None),
                                  ("cB", None, "up")),
     SQ_SOURCE + SQ_SOURCE.replace("restrict_a", "restrict_b")
     + "validation: unknown morphism 'nosuch'\n"
     "validation: overlap cA|cB@R: restrict_b 'up' has target 'GmW', not the "
     "region space 'Gm' of chart 'cB'\n"),
    # the target of a side on an unknown chart is not checked; the unknown
    # chart is reported when the atlas is glued
    ("glue", _cylinder_restricted(("nochart", None, "sq")),
     "validation: overlap cA|nochart@R: restrict_b 'sq' has source 'GmW', "
     "not the overlap's region space 'Gm'\n"),
    ("glue", _cylinder_restricted(("nochart", None, "up")),
     "validation: overlap references unknown chart 'nochart'\n"),
    ("localize", _with_morphism(
        _localize_with_restriction("restrict_a", "m12"), "m12", "pt1", "pt2"),
     "validation: overlap c1|c1@P1: restrict_a 'm12' has target 'pt2', not "
     "the region space 'pt1' of chart 'c1'\n"),
    # a null side means the chart's own region; this job ended in exit 5
    ("glue", _cylinder_on_rw(), _null_side("a", "cA") + _null_side("b", "cB")),
    ("glue", _cylinder_on_rw("sq"), _null_side("a", "cA")),
], ids=["source", "target", "every_mismatch_in_order", "unknown_chart_source",
        "unknown_chart_target", "direct_atlas_target", "null_sides_off_region",
        "null_side_beside_a_restriction"])
def test_overlap_restriction_spaces_checked_at_parse(tmp_path, capsys,
                                                     command, job, stderr):
    path = tmp_path / "restricted.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert run(capsys, command, "--job", str(path)) == (2, "", stderr)


def _with_repeat(name, path, index, first):
    """The fixture job with entry ``index`` of the list at ``payload[path]``
    repeated at the front or the end; a repeated class is scaled by 7, so
    which entry wins would change the output."""
    job = fixtures.load_fixture_job(name)
    entries = job["payload"]
    for step in path:
        entries = entries[step]
    repeat = copy.deepcopy(entries[index])
    for term in repeat.get("class", {}).get("terms", ()):
        term["coeff"] = [[k, 7 * c] for k, c in term["coeff"]]
    entries.insert(0 if first else len(entries), repeat)
    return job


@pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
@pytest.mark.parametrize("name,path,index,message", [
    ("x2y_plane", ("strata",), 0, "duplicate divisors ['Ex'] in strata"),
    ("x2y_plane", ("critical_values", 0, "classes"), 1,
     "duplicate divisors ['Ex', 'Ey'] in classes of critical value '0'"),
    ("x2y_plane", ("points", 0, "classes"), 2,
     "duplicate divisors ['Ey'] in classes of point 'origin'"),
    ("x2y_plane", ("points",), 1, "duplicate label 'x0' in points"),
    ("x2y", ("critical_values",), 0, "duplicate value '0' in critical_values"),
    ("atlas_cylinder", ("regions",), 0, "duplicate name 'R' in regions"),
    ("atlas_cylinder", ("scissor", 0, "entries"), 0,
     "duplicate monomial [] and bundle [] in scissor entries of region 'R'"),
], ids=["strata", "critical_value_classes", "point_classes", "points",
        "critical_values", "regions", "scissor_entries"])
def test_repeated_key_exit_code(tmp_path, capsys, name, path, index, message,
                                first):
    job = _with_repeat(name, path, index, first)
    command = "glue" if job["payload"]["kind"] == "atlas" else "nearby"
    job_path = tmp_path / "repeated.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, command, "--job", str(job_path))
    assert code == 2 and out == ""
    assert err == f"validation: {message}\n"


@pytest.mark.parametrize("name, command, scissor", [
    ("atlas_z2", "glue", ("scissor",)),
    ("localize_two_points", "localize", ("direct_atlas", "scissor")),
])
def test_scissor_entry_off_the_point_exit_code(tmp_path, capsys, name,
                                               command, scissor):
    # a scissor entry must be a class over the point; one over a declared
    # space of the job is refused at parse time, one line per entry
    job = fixtures.load_fixture_job(name)
    pieces = job["payload"]
    for step in scissor:
        pieces = pieces[step]
    space = job["registry"]["spaces"][0]["name"]
    pieces[-1]["entries"][0]["class"]["space"] = space
    path = tmp_path / "off_point.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, command, "--job", str(path))
    assert code == 2 and out == ""
    assert err == (f"validation: region {pieces[-1]['region']!r}: scissor "
                   f"entry for term ((), bits=0) lives on {space!r}, not on "
                   "the point 'K'\n")


def test_each_repeated_key_is_one_diagnostic(tmp_path, capsys):
    # a divisor list keys by its set, so ["Ey", "Ex"] repeats ["Ex", "Ey"]
    job = fixtures.load_fixture_job("x2y_plane")
    strata = job["payload"]["strata"]
    strata.append(copy.deepcopy(strata[0]))
    strata.append(dict(copy.deepcopy(strata[1]), divisors=["Ey", "Ex"]))
    strata.append(copy.deepcopy(strata[0]))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "zeta", "--job", str(path))
    assert code == 2 and out == ""
    assert err == ("validation: duplicate divisors ['Ex'] in strata\n"
                   "validation: duplicate divisors ['Ey', 'Ex'] in strata\n"
                   "validation: duplicate divisors ['Ex'] in strata\n")


def test_repeated_keys_at_both_levels(tmp_path, capsys):
    # a repeat inside a point's classes does not hide a later repeated label
    job = fixtures.load_fixture_job("x2y_plane")
    points = job["payload"]["points"]
    classes = points[0]["classes"]
    classes.append(copy.deepcopy(classes[0]))
    points.append(copy.deepcopy(points[1]))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "nearby", "--job", str(path))
    assert code == 2 and out == ""
    divisors = classes[0]["divisors"]
    assert err == (
        f"validation: duplicate divisors {divisors!r} in classes of point "
        "'origin'\n"
        "validation: duplicate label 'x0' in points\n")


def test_every_resolution_list_reports_its_repeats(tmp_path, capsys):
    # a repeat in strata does not hide those in critical_values and points
    job = fixtures.load_fixture_job("x2y")
    for name in ("strata", "critical_values", "points"):
        entries = job["payload"][name]
        entries.append(copy.deepcopy(entries[0]))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "nearby", "--job", str(path))
    assert code == 2 and out == ""
    assert err == ("validation: duplicate divisors ['E1'] in strata\n"
                   "validation: duplicate value '0' in critical_values\n"
                   "validation: duplicate label 'y0' in points\n")


def _image(space):
    return {"space": space,
            "terms": [{"monomial": [], "bundle": [], "coeff": [[0, 1]]}]}


@pytest.mark.parametrize("table,entries,repeats", [
    ("pull_symbols", [{"symbol": "Pfib", "image": _image("GmW")}] * 3,
     ["symbol 'Pfib'"] * 2),
    ("pull_bundles", [{"generator": "p1", "image": []}] * 3,
     ["generator 'p1'"] * 2),
    # a pushforward entry keys by its sorted monomial
    ("push_classes", [{"monomial": m, "bundle": [], "image": _image("Gm")}
                      for m in (["Pfib", "cov_y"], ["cov_y", "Pfib"],
                                ["Pfib", "cov_y"])],
     ["monomial ['cov_y', 'Pfib'] and bundle []",
      "monomial ['Pfib', 'cov_y'] and bundle []"]),
    ("push_classes",
     [{"monomial": [], "bundle": [], "cover": True, "image": _image("Gm")}] * 3,
     ["monomial [] and bundle []"] * 2),
], ids=["pull_symbols", "pull_bundles", "push_classes", "push_classes_cover"])
def test_repeated_morphism_table_key_exit_code(tmp_path, capsys, table,
                                               entries, repeats):
    job = fixtures.load_fixture_job("x2y")
    job["registry"]["morphisms"][0][table] = entries
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "nearby", "--job", str(path))
    assert code == 2 and out == ""
    assert err == "".join(f"validation: duplicate {shown} in {table} of "
                          "morphism 'sq'\n" for shown in repeats)


def test_every_morphism_table_reports_its_repeats(tmp_path, capsys):
    # a repeat in one table of 'sq' hides neither its other table's repeat
    # nor those of a later morphism
    job = fixtures.load_fixture_job("x2y")
    sq = job["registry"]["morphisms"][0]
    sq["pull_bundles"] *= 2
    sq["push_classes"] = [{"monomial": [], "bundle": [], "cover": True,
                           "image": _image("Gm")}] * 2
    job["registry"]["morphisms"].append(dict(copy.deepcopy(sq), name="sq2"))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "nearby", "--job", str(path))
    assert code == 2 and out == ""
    assert err == "".join(
        f"validation: duplicate {shown} in {table} of morphism {name!r}\n"
        for name in ("sq", "sq2")
        for shown, table in (("generator 'p1'", "pull_bundles"),
                             ("monomial [] and bundle []", "push_classes")))


def test_every_scissor_piece_reports_its_repeats(tmp_path, capsys):
    # a repeat in the entries of piece 'P1' hides none of those of 'P2'
    job = fixtures.load_fixture_job("localize_two_points")
    for piece in job["payload"]["direct_atlas"]["scissor"]:
        piece["entries"] *= 3
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "localize", "--job", str(path))
    assert code == 2 and out == ""
    assert err == "".join(
        "validation: duplicate monomial [] and bundle [] in scissor entries "
        f"of region {region!r}\n" for region in ("P1", "P1", "P2", "P2"))


def test_cover_and_plain_pushforward_entries_are_two_keys(tmp_path, capsys):
    job = fixtures.load_fixture_job("x2y")
    job["registry"]["morphisms"][0]["push_classes"] = [
        {"monomial": [], "bundle": [], "cover": cover, "image": _image("Gm")}
        for cover in (False, True)]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert run(capsys, "nearby", "--job", str(path)) == run(
        capsys, "nearby", "--fixture", "x2y")


# one shipped fixture of each payload kind
KIND_FIXTURES = {"resolution": "z2", "arc-check": "arc_z2", "atlas": "atlas_z2",
                 "fixedpoints": "localize_z1z2", "ts": "ts_z2_10"}
COMMAND_KINDS = {"zeta": "resolution", "nearby": "resolution",
                 "vanishing": "resolution", "arc-check": "arc-check",
                 "ts": "ts", "glue": "atlas", "localize": "fixedpoints"}


@pytest.mark.parametrize("command,kind", [
    (command, kind) for command, needed in COMMAND_KINDS.items()
    for kind in KIND_FIXTURES if kind != needed])
def test_command_refuses_another_payload_kind(capsys, command, kind):
    code, out, err = run(capsys, command, "--fixture", KIND_FIXTURES[kind])
    assert code == 2 and out == ""
    assert err == (f"validation: command needs a {COMMAND_KINDS[command]} "
                   f"payload, got {kind!r}\n")


def test_non_plain_underlying_class_exit_code(tmp_path, capsys):
    # L^(1/2) . Y(p1) carries monodromy, so it cannot be an underlying class
    job = fixtures.load_fixture_job("x2y")
    cov = next(s for s in job["registry"]["symbols"] if s["name"] == "cov_y")
    cov["underlying"] = {"space": "Gm", "terms": [
        {"monomial": [], "bundle": ["p1"], "coeff": [[1, 1]]}]}
    path = tmp_path / "twisted_underlying.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "vanishing", "--job", str(path))
    assert code == 2 and out == ""
    assert err == ("validation: underlying class of 'cov_y' must have "
                   "trivial monodromy\n")


def test_symbol_image_off_the_source_exit_code(tmp_path, capsys):
    # a pullback image must be a motive over the morphism's source
    job = fixtures.load_fixture_job("x2y")
    job["registry"]["morphisms"][0]["pull_symbols"] = [
        {"symbol": "cov_y", "image": {"space": "Gm", "terms": []}}]
    path = tmp_path / "misplaced_image.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "zeta", "--job", str(path))
    assert code == 2 and out == ""
    assert err == ("validation: morphism 'sq': image of 'cov_y' is not a "
                   "motive over 'GmW'\n")


def test_zero_tangent_weight_exit_code(tmp_path, capsys):
    # a zero weight is refused at parse time, one line per component
    job = fixtures.load_fixture_job("localize_two_points")
    for comp in job["payload"]["components"]:
        comp["weights"] = [0]
    path = tmp_path / "zero_weight.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, out, err = run(capsys, "localize", "--job", str(path))
    assert code == 2 and out == ""
    assert err == "".join(
        f"validation: component {name!r} has a zero tangent weight; "
        "zero-weight directions belong to the fixed component\n"
        for name in ("x1", "x2"))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_process(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize("content,marker", [
    (None, "cannot read job file"),
    ("{bad", "is not valid JSON"),
    ("[" * 100000 + "]" * 100000, "is nested too deeply to read"),
], ids=["missing", "not_json", "too_deep"])
def test_bad_job_file_exit_code(tmp_path, content, marker):
    path = tmp_path / "job.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    proc = _run_process("-m", "motivic.cli", "nearby", "--job", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation: ") and marker in proc.stderr
    assert repr(str(path)) in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_import_of_cli_loads_jsonschema():
    # the benchmark's start-up probe reads this line of -X importtime
    proc = _run_process("-X", "importtime", "-c", "import motivic.cli")
    assert proc.returncode == 0
    assert any(line.split("|")[-1].strip() == "jsonschema"
               for line in proc.stderr.splitlines())


@pytest.mark.parametrize("command,fixture", [("zeta", "z2"),
                                             ("arc-check", "arc_z2")])
def test_negative_series_order_rejected(capsys, command, fixture):
    with pytest.raises(SystemExit) as exc:
        main([command, "--fixture", fixture, "--series-order", "-1"])
    assert exc.value.code == 2
    assert "order must be >= 0" in capsys.readouterr().err


def test_localize_fixture_verdict(tmp_path, capsys):
    code, out, _ = run(capsys, "localize", "--fixture", "localize_z1z2")
    assert code == 0
    assert out.strip() == "sum = 1; check: PASS"
    # with neither a direct class nor a direct atlas, the sum alone
    path = tmp_path / "sum_only.json"
    path.write_text(json.dumps(_fixture_with("localize_z1z2", "direct", None)),
                    encoding="utf-8")
    assert run(capsys, "localize", "--job", str(path)) == (0, "sum = 1\n", "")


def test_localize_two_points_uses_direct_atlas(capsys, monkeypatch):
    from motivic import localize

    sums = []
    localize_sum = localize.localize_sum

    def counted(*args):
        sums.append(args)
        return localize_sum(*args)

    monkeypatch.setattr(localize, "localize_sum", counted)
    code, out, _ = run(capsys, "localize", "--fixture", "localize_two_points")
    assert code == 0
    assert out.strip() == "sum = 2*L^(-1/2); check: PASS"
    assert len(sums) == 1  # the checked sum is the printed one


def test_validation_exit_code(tmp_path, capsys):
    job = fixtures.load_fixture_job("z2")
    job["payload"]["divisors"][0]["boundary"] = True  # N = 2 boundary: invalid
    path = tmp_path / "bad_res.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, _, err = run(capsys, "zeta", "--job", str(path))
    assert code == 2 and "boundary" in err
    # malformed document: schema rejection, exit 2
    path2 = tmp_path / "unknown_field.json"
    job2 = fixtures.load_fixture_job("z2")
    job2["payload"]["mystery"] = []
    path2.write_text(json.dumps(job2), encoding="utf-8")
    code, _, err = run(capsys, "zeta", "--job", str(path2))
    assert code == 2
    assert "validation" in err


def test_missing_restriction_exit_code(tmp_path, capsys):
    job = fixtures.load_fixture_job("z2")
    job["payload"]["critical_values"] = [{"value": "0", "space": None,
                                          "ambient": None, "classes": []}]
    path = tmp_path / "nores.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, _, err = run(capsys, "vanishing", "--job", str(path))
    assert code == 3
    assert "missing restriction" in err


def test_unsupported_shape_exit_code(tmp_path, capsys):
    job = fixtures.load_fixture_job("arc_x2y")
    job["payload"]["monomial"]["exponents"] = [3, 1]  # twisted cubic cover
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, _, err = run(capsys, "arc-check", "--job", str(path))
    assert code == 4
    assert "unsupported shape" in err


@pytest.mark.parametrize("command,job,code,stderr", [
    ("vanishing",
     _fixture_with("z2", "critical_values",
                   [{"value": "0", "space": None, "ambient": None,
                     "classes": []}]),
     3, "missing restriction: no restriction table for critical value '0'\n"),
    ("arc-check", _fixture_with("arc_x2y", "monomial", "exponents", [3, 1]),
     4, "unsupported shape: order-3 cover with nontrivial unit twisting is "
        "outside the oracle fragment\n"),
    ("glue", _fixture_with("atlas_cylinder", "charts", 0, "Q", ["p1"]),
     5, "descent failure:\n"
        "  left : overlap cA|cB@R: Q_T != P + Q for chart cA "
        "(got Y(p1), expected Y(0))\n"
        "  right: \n"
        "  (cocycle identity broken)\n"),
    ("glue", _fixture_with("atlas_cylinder", "charts", 1, "mf", "terms", 0,
                           "coeff", [[-1, 2]]),
     5, "descent failure:\n"
        "  left : L^(-1/2)\n"
        "  right: 2*L^(-1/2)\n"
        "  (two charts disagree on one region)\n"),
    ("ts", ts_with_opaque_factors(),
     4, "unsupported shape: external product of opaque monomials ('T2.m',) "
        "and ('T2.1.m',)\n"),
    ("glue", _fixture_with("atlas_cylinder", "oriented", False),
     2, "validation: atlas carries no orientation\n"),
    ("zeta", _fixture_with("z2", "divisors", 2 * [
        {"id": "E1", "N": 2, "nu": 1, "boundary": False}]),
     2, "validation: duplicate divisor id 'E1'\n"),
    ("zeta", _fixture_with("z2", "strata", 0, "divisors", []),
     2, "validation: empty divisor subset in strata\n"),
    ("glue", _fixture_with("atlas_cylinder", "charts", 1, "id", "cA"),
     2, "validation: duplicate chart id 'cA'\n"
        "validation: overlap references unknown chart 'cB'\n"),
    ("glue", _fixture_with("atlas_cylinder", "charts", 0, "mf", "space", "K"),
     2, "validation: chart 'cA': classes not on region space 'Gm'\n"),
    ("localize", _localize_z1z2_asserting_false(),
     2, "validation: component 'origin' asserts false: good, "
        "circle_compact\n"),
    ("localize", localize_z1z2_off_the_point("component"),
     2, "validation: component 'origin': absolute class expected over 'K', "
        "got 'X'\n"),
    ("localize", localize_z1z2_off_the_point("direct"),
     2, "validation: direct: absolute class expected over 'K', got 'X'\n"),
    ("vanishing", _x2y_on_gmw(),
     2, "validation: critical value '0': class of divisors ['E1'] lives on "
        "'Gm', not on the table's space 'GmW'\n"),
    ("vanishing", _x2y_on_gmw(ambient=True),
     2, "validation: critical value '0': ambient lives on 'Gm', not on the "
        "table's space 'GmW'\n"),
    ("nearby", _fixture_with("x2y", "points", 0, "classes", 0, "class",
                             "space", "Gm"),
     2, "validation: point 'y0': class of divisors ['E1'] lives on 'Gm', not "
        "on the point 'K'\n"),
], ids=["missing_restriction", "unsupported_shape", "descent_cocycle",
        "descent_disagreeing_charts", "opaque_product", "unoriented_atlas",
        "duplicate_divisor", "empty_stratum", "duplicate_chart",
        "chart_off_its_region", "localize_flags_false",
        "localize_component_off_the_point", "localize_direct_off_the_point",
        "restriction_class_off_its_space", "ambient_off_its_space",
        "point_class_off_the_point"])
def test_refusal_stderr_is_pinned(tmp_path, capsys, command, job, code,
                                  stderr):
    # the exact stderr lines and exit code of each refusal, through main
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    for machine in ([], ["--machine-readable"]):
        assert run(capsys, command, "--job", str(path), *machine) == (
            code, "", stderr)


def _error_classes(cls=MotivicError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_readme_exit_code_table_names_every_error_class():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    rows = {name: (int(code), prefix) for name, code, prefix in re.findall(
        r"^\| `(\w+)` \| (\d+) \| `([^`]*)` \|$", readme, re.M)}
    assert rows == {cls.__name__: (cls.exit_code, f"{cls.prefix}:")
                    for cls in _error_classes()}


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "16/16 checks passed" in out


def test_job_and_fixture_are_exclusive(capsys):
    code, _, err = run(capsys, "zeta", "--fixture", "z2", "--job", "x.json")
    assert code == 2
    assert "exactly one" in err
