"""Replay a fixed list of mutants against the test suite.

Each mutant names a module under ``src/motivic``, a function in it (a
dotted name for a method), one AST edit inside that function and the pytest
selection that must catch it.  An edit replaces the one node whose source
(as ``ast.unparse`` prints it) equals ``find`` with the node(s) parsed from
``replace``; an edit that matches no node, or more than one, is an error.

For each mutant the repository's ``src``, ``tests``, ``docs``, ``tools``,
``pyproject.toml`` and ``README.md`` are copied to a temporary directory
(the drift tests read ``docs/schemas``, the exit-code table test reads
``README.md``, the process tests load ``tools/transcript.py``), the
mutated module is written there, and the selection runs in a fresh
interpreter.  The mutant is killed when pytest reports a failing test (exit
status 1).  The script first runs every selection on the unmutated copy,
which must pass.

    python tools/mutants.py            # all mutants; exit 1 if any survives
    python tools/mutants.py --list     # print the list and check the edits
    python tools/mutants.py NAME ...   # only the named mutants

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str        # file under src/motivic, without ".py"
    function: str      # "name" or "Class.method"
    find: str          # source of the node to replace
    replace: str       # source of its replacement (statements or expression)
    tests: tuple[str, ...]


FLAT = "tests/test_motive_flat.py"
ZETA = "tests/test_zeta.py"
LOADER = ("tests/test_serialize.py::"
          "test_motive_from_json_matches_halflaurent_reference")
TWIST = ("tests/test_transport.py::"
         "test_twisted_pullback_matches_reference_twist")
STDERR = "tests/test_cli.py::test_refusal_stderr_is_pinned"
# a series term's shift x = prod of its factors' L^(-nu) T^N, over %s
SHIFT_LOOP = "for N, nu in %s:\n    deg += N\n    e -= 2 * nu"

MUTANTS = [
    Mutant("product_or_for_xor", "motive", "_product",
           "b1 ^ b2", "b1 | b2", (FLAT,)),
    Mutant("product_keeps_zeros", "motive", "_product",
           "for key in [key for key, c in out.items() if not c]:\n"
           "    del out[key]", "pass", (FLAT,)),
    Mutant("add_stores_zero_on_cancel", "motive", "_add_scaled",
           "if v:\n    acc[key] = v\nelse:\n    acc.pop(key, None)",
           "acc[key] = v", (FLAT,)),
    Mutant("weaker_opaque_check", "motive", "_product",
           "op1 and op2", "op1 and op2 and mon1 == mon2", (FLAT,)),
    Mutant("relabel_or_for_xor", "motive", "_product",
           "bits2 ^ bits", "bits2 | bits", (FLAT,)),
    Mutant("relabel_skips_opacity_check", "motive", "_product",
           "_opaque(reg, mon2)", "False", (FLAT,)),
    Mutant("pullback_drops_exponent", "motive", "_pull_flat",
           "(mon2, bits2 ^ img, k + k2)", "(mon2, bits2 ^ img, k2)",
           (FLAT, "tests/test_transport.py")),
    Mutant("expand_series_first_0", "zeta", "expand_series",
           SHIFT_LOOP % "term.factors", SHIFT_LOOP % "term.factors[1:]",
           (ZETA,)),
    Mutant("inverse_constant_term_first_1", "zeta",
           "inverse_series_constant_term",
           "{0: (-1) ** len(term.factors)}", "{}", (ZETA,)),
    Mutant("series_denominator_from_first_term", "zeta", "expand_series",
           "for factors, _, _ in terms:\n    denom |= factors",
           "for factors, _, _ in terms[:1]:\n    denom |= factors", (ZETA,)),
    Mutant("series_flatten_keeps_zeros", "zeta", "expand_series",
           "{(mon, bits, e): c for e, c in sums.items() if c}",
           "{(mon, bits, e): c for e, c in sums.items()}", (ZETA,)),
    Mutant("nearby_sign_flipped", "zeta", "_restricted_sum",
           "HalfLaurent({0: 1, 2: -1})", "HalfLaurent({0: -1, 2: 1})", (ZETA,)),
    Mutant("factor_series_skips_first", "zeta", "expand_series",
           SHIFT_LOOP % "term.factors",
           SHIFT_LOOP % "term.factors + term.factors[:1]", (ZETA,)),
    Mutant("factor_series_strict_bound", "zeta", "expand_series",
           "range(N, k + 1)", "range(N, k)", (ZETA,)),
    Mutant("series_divides_once_per_factor", "zeta", "expand_series",
           "range(n)", "range(1)", (ZETA,)),
    Mutant("series_skips_operand_check", "zeta", "expand_series",
           "_check_operand(reg, z.space, term.coeff)", "pass",
           ("tests/test_zeta.py::"
            "test_foreign_coefficient_refused_below_its_lowest_degree",)),
    Mutant("parse_job_first_error", "jobs", "parse_job",
           "jsonschema.exceptions.best_match(job_validator().iter_errors(data))",
           "next(iter(job_validator().iter_errors(data)), None)",
           ("tests/test_serialize.py::"
            "test_parse_job_diagnostics_match_jsonschema_validate",)),
    Mutant("into_product_unshifted", "registry", "Registry.into_product",
           "shift = len(self.generators[prod.left]) if side else 0",
           "shift = 0", (FLAT,)),
    Mutant("vanishing_imports_dcrit", "cli", "cmd_vanishing",
           "from . import zeta", "from . import dcrit, zeta",
           ("tests/test_package.py::"
            "test_vanishing_loads_no_other_payload_module",)),
    Mutant("pullback_unit_path_drops_bits", "motive", "_pull_flat",
           "((), img, k)", "((), 0, k)", ("tests/test_transport.py",)),
    Mutant("upsilon_skips_range_check", "motive", "upsilon",
           "reg.check_bits(p.space, p.bits)", "pass",
           ("tests/test_transport.py",)),
    Mutant("right_cover_bits_unshifted", "registry", "Registry.declare_product",
           "shift = len(self.generators[left]) if side else 0",
           "shift = 0",
           ("tests/test_registry.py::"
            "test_right_factor_cover_image_names_right_factor_bits",)),
    Mutant("orientation_or_for_xor", "dcrit", "check_orientation",
           "p.bits ^ bits", "p.bits | bits", ("tests/test_dcrit.py",)),
    Mutant("virtual_index_counts_every_weight", "localize", "virtual_index",
           "1 if w > 0 else -1", "1", ("tests/test_localize.py",)),
    Mutant("arc_class_drops_unit_vars", "arcs", "_free_exponent",
           "n - n // a + n * len(f.unit_vars)", "n - n // a",
           ("tests/test_arcs.py", "tests/test_arcs_pointcount.py")),
    Mutant("zeta_truncated_cover_eager", "arcs", "zeta_truncated",
           "cover = None", "cover = cover_class(f, ctx)",
           ("tests/test_arcs.py",)),
    Mutant("document_skips_nested_definitions", "schemas", "document",
           "todo.append(reached[name])", "pass",
           ("tests/test_serialize.py::"
            "test_shipped_schema_definitions_are_closed_and_used",)),
    Mutant("record_left_open", "schemas", "_record", "False", "True",
           ("tests/test_serialize.py::"
            "test_unknown_field_is_refused_at_every_depth",
            "tests/test_serialize.py::"
            "test_schema_files_on_disk_match_definitions")),
    Mutant("run_skips_kind_check", "cli", "run",
           "require_kind(job, args.kind)", "pass",
           ("tests/test_cli.py::test_command_refuses_another_payload_kind",)),
    Mutant("product_keeps_factor_underlying", "registry",
           "Registry.declare_product",
           "Motive._wrap(self, name, self.into_product(prod, side, "
           "underlying._flat))", "underlying",
           ("tests/test_registry.py",)),
    Mutant("cover_key_unchecked", "serialize", "monomial_from_json",
           "try:\n    order = int(k)\nexcept ValueError:\n"
           "    raise ValidationFailed("
           "[f'cover_symbols key {k!r} is not an integer order']) from None",
           "order = int(k)",
           ("tests/test_cli.py::test_unknown_space_or_symbol_exit_code",)),
    Mutant("compose_skips_listed_check", "registry", "Registry.compose",
           "for bits in g.pull_bundles.values():\n    self.pull_bits(f, bits)",
           "pass", ("tests/test_bundles.py::test_transport_errors_agree",)),
    Mutant("composite_drops_inner_step", "registry", "Registry.compose",
           "(outer, inner)", "(outer,)",
           ("tests/test_transport.py::"
            "test_pullback_along_composite_is_pullback_of_pullback",)),
    Mutant("loader_keeps_last_exponent", "serialize", "coeff_from_json",
           "[(_integer(k), _integer(v)) for k, v in data]",
           "list({_integer(k): _integer(v) for k, v in data}.items())",
           (LOADER,)),
    Mutant("loader_coerces_with_int", "serialize", "coeff_from_json",
           "[(_integer(k), _integer(v)) for k, v in data]",
           "[(int(k), int(v)) for k, v in data]",
           ("tests/test_serialize.py::"
            "test_motive_from_json_refuses_non_integer_entries",)),
    Mutant("constructor_overwrites_repeats", "motive", "Motive.__init__",
           "flat.get(key, 0) + c", "c", (LOADER,)),
    Mutant("constructor_keeps_monomial_order", "motive", "Motive.__init__",
           "mon = tuple(sorted(mon))", "mon = tuple(mon)", (LOADER,)),
    Mutant("term_table_keeps_monomial_order", "motive", "_term_table",
           "tuple(sorted(mon))", "tuple(mon)",
           ("tests/test_motive_core.py::"
            "test_pushforward_table_key_monomial_is_sorted",
            "tests/test_dcrit.py::test_scissor_entry_monomial_is_sorted")),
    Mutant("keyed_skips_duplicate_check", "serialize", "_keyed",
           "k in seen", "False",
           ("tests/test_cli.py::test_repeated_key_exit_code",)),
    Mutant("keyed_drops_inner_diagnostics", "serialize", "_keyed",
           "repeated.extend(inner.diagnostics)", "raise",
           ("tests/test_cli.py::test_repeated_keys_at_both_levels",)),
    Mutant("resolution_stops_at_first_repeated_list", "serialize",
           "_collect", "repeated.extend(err.diagnostics)", "raise",
           ("tests/test_cli.py::"
            "test_every_resolution_list_reports_its_repeats",)),
    Mutant("registry_stops_at_first_repeated_morphism", "serialize",
           "registry_from_json",
           "reg.declare_morphism(mor['name'], mor['source'], mor['target'], "
           "mor.get('kind', 'general'), pull_symbols, pull_bundles, "
           "push_classes)",
           "if repeated:\n    raise ValidationFailed(repeated)\n"
           "reg.declare_morphism(mor['name'], mor['source'], mor['target'], "
           "mor.get('kind', 'general'), pull_symbols, pull_bundles, "
           "push_classes)",
           ("tests/test_cli.py::test_every_morphism_table_reports_its_repeats",)),
    Mutant("product_images_share_one_dict", "registry",
           "Registry.declare_product", "Product(name, left, right)",
           "Product(name, left, right, *[{}] * 2)",
           ("tests/test_records.py::test_records_never_share_a_container",)),
    Mutant("scissor_entries_last_wins", "serialize", "atlas_from_json",
           "_collect(repeated, p['entries'], ('monomial', 'bundle'), "
           "f\"scissor entries of region {p['region']!r}\", "
           "lambda e: motive_from_json(reg, e['class']), "
           "lambda e: _term_key(reg, sp, e))",
           "{_term_key(reg, sp, e): motive_from_json(reg, e['class']) "
           "for e in p['entries']}",
           ("tests/test_cli.py::test_repeated_key_exit_code",)),
    Mutant("parse_job_lets_space_mismatch_escape", "jobs", "parse_job",
           "(RegistryError, SpaceMismatch)", "RegistryError",
           ("tests/test_cli.py::test_unknown_space_or_symbol_exit_code",)),
    Mutant("pushforward_drops_piece_sign", "dcrit", "pushforward_to_point",
           "c *= sign", "pass",
           ("tests/test_dcrit.py::test_pushforward_matches_the_regrouped_sum",)),
    Mutant("constructor_skips_integer_check", "motive", "Motive.__init__",
           "if plain and (type(k2) is not int or type(c) is not int):\n"
           "    raise TypeError('a coefficient wants integer exponent keys and "
           "coefficients')", "pass",
           ("tests/test_serialize.py::test_motive_refuses_non_integer_pairs",)),
    Mutant("unknown_space_named_as_generator", "registry",
           "Registry.generator_index",
           "_get(self._index, space, 'space')[name]", "self._index[space][name]",
           ("tests/test_cli.py::test_unknown_space_or_symbol_exit_code",)),
    Mutant("glue_skips_transport_check", "dcrit", "glue",
           "if lift_a != lift_b:\n    raise DescentFailure(label, lift_a.text(), "
           "lift_b.text(), 'transported chart classes disagree')", "pass",
           ("tests/test_dcrit.py::test_glued_values_agree_on_every_overlap",
            "tests/test_dcrit.py::test_disagreeing_overlap_failure_is_pinned")),
    Mutant("glue_skips_shared_chart_check", "dcrit", "glue",
           "o.mf_t is not None and lift_a != o.mf_t", "False",
           ("tests/test_dcrit.py::"
            "test_a_redundant_stabilized_chart_changes_nothing",)),
    Mutant("restriction_spaces_unchecked", "serialize", "atlas_from_json",
           "restrictions += _restriction_diagnostics(reg, o, sp, chart_spaces)",
           "pass",
           ("tests/test_cli.py::"
            "test_overlap_restriction_spaces_checked_at_parse",)),
    Mutant("scissor_entry_space_unchecked", "serialize", "atlas_from_json",
           "img.space != POINT", "False",
           ("tests/test_cli.py::test_scissor_entry_off_the_point_exit_code",)),
    Mutant("scissor_stops_at_first_repeated_piece", "serialize",
           "atlas_from_json",
           "scissor.append(ScissorPiece(p['region'], entries, p.get('sign', 1)))",
           "if repeated:\n    raise ValidationFailed(repeated)\n"
           "scissor.append(ScissorPiece(p['region'], entries, p.get('sign', 1)))",
           ("tests/test_cli.py::test_every_scissor_piece_reports_its_repeats",)),
    Mutant("twist_dropped_from_flat_loop", "motive", "_pull_flat",
           "pull_bits(mor, bits) ^ twist", "pull_bits(mor, bits)",
           (TWIST,)),
    Mutant("twist_dropped_after_composite_steps", "motive", "_pull_flat",
           "_pull_flat(reg, reg.morphisms[mor.steps[-1]], flat, twist)",
           "_pull_flat(reg, reg.morphisms[mor.steps[-1]], flat, 0)", (TWIST,)),
    Mutant("twist_skips_space_check", "motive", "pullback",
           "p.space != mor.source", "False",
           ("tests/test_transport.py::"
            "test_twist_refuses_class_on_another_space",)),
    Mutant("pull_bits_index_off_by_one", "registry", "Registry.pull_bits",
           "low.bit_length() - 1", "low.bit_length()", (TWIST,)),
    Mutant("pull_memo_shared_across_morphisms", "registry", "Registry.pull_bits",
           "if memo is None:\n    memo = self._pulled[mor.name] = {}",
           "if memo is None:\n    memo = self._pulled.setdefault('', {})",
           ("tests/test_transport.py",)),
    Mutant("composite_memo_wrong_key", "registry", "Registry.pull_bits",
           "for step in mor.steps:\n"
           "    img = self.pull_bits(self.morphisms[step], img)",
           "for step in mor.steps:\n"
           "    img = self.pull_bits(self.morphisms[step], img)\n"
           "memo[img] = img\nreturn img",
           ("tests/test_transport.py::"
            "test_memoized_pull_bits_matches_by_name_walk",)),
    Mutant("orientation_expects_bare_p", "dcrit", "check_orientation",
           "BundleClass(space, expected)", "BundleClass(space, p.bits)",
           ("tests/test_dcrit.py::test_orientation_diagnostics_are_pinned",)),
    Mutant("descent_report_drops_detail", "errors", "DescentFailure.report",
           "[f'  ({self.detail})'] if self.detail else []", "[]", (STDERR,)),
    Mutant("main_exits_1_on_every_refusal", "cli", "main",
           "exc.exit_code", "1", (STDERR,)),
    Mutant("process_main_skips_freeze", "cli", "process_main",
           "gc.freeze()", "pass",
           ("tests/test_process.py::test_argparse_exit_is_frozen_too",)),
]


# -- applying an edit ---------------------------------------------------------------


def _source_of(snippet: str) -> str:
    """``snippet`` as ``ast.unparse`` prints it."""
    try:
        return ast.unparse(ast.parse(snippet, mode="eval"))
    except SyntaxError:
        return ast.unparse(ast.parse(snippet))


def _parsed(snippet: str):
    try:
        return ast.parse(snippet, mode="eval").body
    except SyntaxError:
        return ast.parse(snippet).body


def _function(tree: ast.Module, dotted: str) -> ast.FunctionDef:
    scope: list = tree.body
    parts = dotted.split(".")
    for depth, part in enumerate(parts):
        kind = ast.ClassDef if depth < len(parts) - 1 else ast.FunctionDef
        found = [n for n in scope if isinstance(n, kind) and n.name == part]
        if len(found) != 1:
            raise LookupError(f"no single {kind.__name__} {part!r}")
        node = found[0]
        scope = node.body
    return node


class _Edit(ast.NodeTransformer):
    def __init__(self, find: str, replace: str) -> None:
        self.find, self.replace, self.hits = _source_of(find), replace, 0

    def visit(self, node):
        if isinstance(node, (ast.expr, ast.stmt)) and ast.unparse(node) == self.find:
            self.hits += 1
            return _parsed(self.replace)
        return super().visit(node)


def apply(mutant: Mutant, source: str) -> str:
    """The module source with the mutant's edit made; LookupError when the
    edit does not find exactly one target node.  Only the lines of the
    mutated function change."""
    func = _function(ast.parse(source), mutant.function)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    edit = _Edit(mutant.find, mutant.replace)
    edit.visit(func)
    if edit.hits != 1:
        raise LookupError(f"{mutant.name}: {edit.hits} nodes match {mutant.find!r}")
    lines = source.splitlines(keepends=True)
    body = textwrap.indent(ast.unparse(ast.fix_missing_locations(func)),
                           " " * func.col_offset)
    return "".join(lines[:first]) + body + "\n" + "".join(lines[func.end_lineno:])


def module_path(root: Path, mutant: Mutant) -> Path:
    return root / "src" / "motivic" / f"{mutant.module}.py"


# -- running ------------------------------------------------------------------------------


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests", "docs", "tools"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)


def _pytest(root: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", help="run only these mutants")
    p.add_argument("--list", action="store_true",
                   help="check that every edit applies and print the list")
    args = p.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        p.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    for m in chosen:
        apply(m, module_path(ROOT, m).read_text(encoding="utf-8"))
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.module}.{m.function}: {m.find!r} -> "
                  f"{m.replace!r}  [{' '.join(m.tests)}]")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        _copy(root)
        selections = sorted({t for m in chosen for t in m.tests})
        code = _pytest(root, selections)
        if code != 0:
            print(f"unmutated selection fails (pytest exit {code})")
            return 1
        survivors = []
        for m in chosen:
            path = module_path(root, m)
            original = path.read_text(encoding="utf-8")
            path.write_text(apply(m, original), encoding="utf-8")
            code = _pytest(root, m.tests)
            path.write_text(original, encoding="utf-8")
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{m.name}: {verdict}", flush=True)
            if code != 1:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
