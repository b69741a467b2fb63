"""Every mutant listed in ``tools/mutants.py`` still finds its target node.

The mutants themselves run only under ``python tools/mutants.py``; this
check is fast and makes a refactor that moves a target fail here instead of
silently dropping the mutant.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_edit_finds_its_target(mutant):
    source = mutants.module_path(ROOT, mutant).read_text(encoding="utf-8")
    assert mutants.apply(mutant, source) != source
    for selection in mutant.tests:
        assert (ROOT / selection.split("::")[0]).is_file()


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def _pinned(path: Path) -> set[str]:
    """The test functions of a file that are not ``hypothesis`` properties
    (not decorated with ``given``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")
            and not any(isinstance(d, ast.Call)
                        and getattr(d.func, "id", None) == "given"
                        for d in node.decorator_list)}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_selection_has_a_test_that_is_not_a_property(mutant):
    # a property may miss the mutant on the examples it draws; a pinned
    # test kills it on every run
    assert any(name in ("", test)
               for path, _, name in (s.partition("::") for s in mutant.tests)
               for test in _pinned(ROOT / path))
