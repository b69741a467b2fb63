"""The package surface, and which modules each entry point loads."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from itertools import chain
from pathlib import Path

import pytest

import motivic
from motivic import dcrit, jobs

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, by the submodule that defines them
SURFACE = {
    "arcs": ("ArcContext", "MonomialFunction", "arc_class", "zeta_truncated"),
    "bundles": ("BundleClass", "bundle_class", "bundle_pullback",
                "bundle_tensor", "from_square_root", "generator",
                "tensor_square_roots", "trivial"),
    "dcrit": ("Atlas", "CriticalChart", "GlobalMotive", "OverlapDatum",
              "ScissorPiece", "check_orientation", "glue",
              "pushforward_to_point", "validate_atlas"),
    "errors": ("DescentFailure", "DotUndefined", "MissingRestriction",
               "MissingScissorTable", "MissingTransport", "MotivicError",
               "NoUnderlyingClass", "OdotUndecidable", "OrientationMissing",
               "RegistryError", "SpaceMismatch", "UnknownDatum",
               "UnregisteredProduct", "UnsupportedShape", "ValidationFailed",
               "ZeroWeight"),
    "halflaurent": ("HalfLaurent",),
    "localize": ("FixedComponentDatum", "localization_check", "localize_sum",
                 "virtual_index"),
    "motive": ("Motive", "mot_add", "mot_boxdot", "mot_dot", "mot_equal",
               "mot_odot", "pi_forget", "pullback", "pushforward",
               "symbol_motive", "upsilon"),
    "registry": ("POINT", "Morphism", "Product", "Registry", "Space",
                 "Symbol"),
    "stabilize": ("EmbeddingDatum", "QuadraticBundleDatum",
                  "compose_embeddings", "quadratic_form_motive",
                  "stabilize_pullback", "thom_sebastiani",
                  "twist_by_quadratic"),
    "zeta": ("Divisor", "PointTable", "RationalMotive", "ResolutionData",
             "RestrictionTable", "Stratum", "expand_series",
             "inverse_series_constant_term", "milnor_fibre_at",
             "nearby_cycle", "validate_resolution", "vanishing_cycle",
             "zeta_function"),
}


def test_all_is_unchanged():
    assert motivic.__all__ == sorted([*SURFACE, *chain(*SURFACE.values())])
    assert motivic.__version__ == "1.0.0"


def test_names_are_the_submodule_objects():
    for module, names in SURFACE.items():
        sub = import_module(f"motivic.{module}")
        assert getattr(motivic, module) is sub
        for name in names:
            assert getattr(motivic, name) is getattr(sub, name), name


def test_names_are_looked_up_on_every_access(monkeypatch):
    assert motivic.glue is dcrit.glue
    assert "glue" not in vars(motivic)
    monkeypatch.setattr(dcrit, "glue", "patched")
    assert motivic.glue == "patched"


def test_star_import_and_fixtures_submodule():
    namespace = {}
    exec("from motivic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(motivic.__all__)
    exec("from motivic import fixtures", namespace)
    assert namespace["fixtures"].load_fixture_job is jobs.load_fixture_job


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        motivic.no_such_name
    with pytest.raises(ImportError):
        exec("from motivic import no_such_name", {})


def test_fixture_names_are_the_shipped_files():
    shipped = {p.stem for p in (SRC / "motivic" / "fixtures").glob("*.json")}
    assert sorted(jobs.FIXTURE_NAMES) == sorted(shipped)
    assert len(jobs.FIXTURE_NAMES) == len(shipped)


# -- what each entry point loads --------------------------------------------------


def _loaded(*args) -> set[str]:
    """The ``motivic.*`` submodules that ``python -X importtime ARGS`` imports,
    as short names."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    names = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {n.split(".", 1)[1] for n in names if n.startswith("motivic.")}


def test_import_of_package_loads_no_submodule():
    assert _loaded("-c", "import motivic") == set()


def test_vanishing_loads_no_other_payload_module():
    loaded = _loaded("-m", "motivic.cli", "vanishing", "--fixture", "x2y")
    assert "zeta" in loaded  # the parse sees a module imported by a command
    assert not loaded & {"dcrit", "arcs", "localize", "stabilize",
                         "fixtures", "selftest"}


@pytest.mark.parametrize("argv,runs", [
    (("zeta", "--fixture", "z2", "--series-order", "3"), "zeta"),
    (("nearby", "--fixture", "z3"), "zeta"),
    (("arc-check", "--fixture", "arc_z2"), "arcs"),
    (("ts", "--fixture", "ts_z2_10"), "motive"),
    (("glue", "--fixture", "atlas_cylinder"), "dcrit"),
    (("localize", "--fixture", "localize_two_points"), "localize"),
], ids=["zeta", "nearby", "arc-check", "ts", "glue", "localize"])
def test_only_selftest_loads_the_fixture_builders(argv, runs):
    loaded = _loaded("-m", "motivic.cli", *argv)
    assert runs in loaded
    assert not loaded & {"fixtures", "selftest"}


def test_selftest_loads_the_fixture_builders():
    loaded = _loaded("-m", "motivic.cli", "selftest", "--machine-readable")
    assert {"fixtures", "selftest"} <= loaded


# the motivic modules that every command loads
_COMMON = {"bundles", "errors", "halflaurent", "jobs", "motive", "registry",
           "render", "schemas", "serialize"}


@pytest.mark.parametrize("argv,modules,ceiling", [
    (("zeta", "--fixture", "z2", "--series-order", "3"), {"zeta"}, 3088),
    (("nearby", "--fixture", "z3"), {"zeta"}, 3088),
    (("arc-check", "--fixture", "arc_z2"), {"arcs", "zeta"}, 3238),
    (("ts", "--fixture", "ts_z2_10"), set(), 2754),
    (("glue", "--fixture", "atlas_cylinder"), {"dcrit"}, 3071),
    (("localize", "--fixture", "localize_two_points"), {"dcrit", "localize"},
     3158),
    (("vanishing", "--fixture", "x2y"), {"zeta"}, 3088),
    (("selftest",), {"arcs", "dcrit", "fixtures", "localize", "selftest",
                     "stabilize", "zeta"}, 4199),
], ids=["zeta", "nearby", "arc-check", "ts", "glue", "localize", "vanishing",
        "selftest"])
def test_import_path_budget(argv, modules, ceiling):
    # a call with no cached bytecode compiles each module it loads; the
    # ceiling is the summed source lines of those modules, the package and
    # the CLI, and it may only go down
    loaded = _loaded("-m", "motivic.cli", *argv)
    assert loaded == _COMMON | modules
    lines = sum(len((SRC / "motivic" / f"{name}.py").read_text(
        encoding="utf-8").splitlines()) for name in loaded | {"__init__", "cli"})
    assert lines <= ceiling


def test_selftest_checks_hold_no_assert():
    # ``python -O`` strips assert statements, and would pass every check
    source = Path(motivic.__file__).with_name("selftest.py").read_text(
        encoding="utf-8")
    assert not [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Assert)]


# the dataclasses defined in loaded ``motivic.*`` modules after a command runs
_DATACLASSES = """
import dataclasses, json, sys
from motivic.cli import main
main(sys.argv[1:])
print(json.dumps(sorted({
    name for module, mod in list(sys.modules.items())
    if module.startswith("motivic.") for name, obj in vars(mod).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)})))
"""


@pytest.mark.parametrize("argv", [
    ("vanishing", "--fixture", "x2y"),
    ("zeta", "--fixture", "x2_line_blowup"),
    ("arc-check", "--fixture", "arc_x2y"),
    ("glue", "--fixture", "atlas_cylinder"),
    ("localize", "--fixture", "localize_two_points"),
    ("ts", "--fixture", "ts_z2_10"),
    ("selftest",),
], ids=["vanishing", "zeta", "arc-check", "glue", "localize", "ts",
        "selftest"])
def test_a_command_builds_no_other_dataclass(argv):
    # each dataclass costs about a millisecond of code generation per call
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _DATACLASSES, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
