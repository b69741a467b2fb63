"""The summary step of ``tools/pairs.py`` on canned benchmark results."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = sys.modules["pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_ms.p50", "better": "lower", "bound": 0.25}]


def _result(ops_per_s, p50, failed=0, attempted=100, correct=True):
    return {"failed": failed, "attempted": attempted, "correct": correct,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
                        "op_ms.p50": {"value": p50, "unit": "ms"}}}


def test_summary_of_canned_runs():
    runs = {"parent": [_result(100, 10), _result(110, 9), _result(90, 11),
                       _result(105, 10)],
            "change": [_result(120, 8), _result(110, 9, failed=1),
                       _result(95, 13), _result(130, 7)]}
    block = pairs.summarize([1, 2, 3, 4], runs, END_TO_END)
    assert {k: block[k] for k in ("seeds", "pairs", "failed", "attempted",
                                  "correct")} == {
        "seeds": [1, 2, 3, 4], "pairs": 4,
        "failed": {"parent": 0, "change": 1},
        "attempted": {"parent": 400, "change": 400}, "correct": True}
    ops = block["metrics"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (102.5, 115)
    assert ops["change_vs_parent"] == round(115 / 102.5 - 1, 4)
    # statistics.quantiles(n=4), exclusive method: first and third quartile
    assert ops["parent_quartiles"] == [92.5, 108.75]
    assert ops["change_quartiles"] == [98.75, 127.5]
    assert ops["change_better"] == 3  # the tie at 110 counts for neither
    assert ops["bound"] == 0.25 and ops["within_bound"]
    assert ops["parent_runs"] == [100, 110, 90, 105]
    p50 = block["metrics"]["op_ms.p50"]
    assert (p50["better"], p50["change_better"]) == ("lower", 2)
    assert (p50["parent_median"], p50["change_median"]) == (10, 8.5)


def test_within_bound_reads_the_direction_of_each_metric():
    runs = {"parent": [_result(100, 10)] * 2,
            "change": [_result(74, 12.6)] * 2}
    metrics = pairs.summarize([1, 2], runs, END_TO_END)["metrics"]
    assert not metrics["ops_per_s"]["within_bound"]  # 26 % fewer ops
    assert not metrics["op_ms.p50"]["within_bound"]  # 26 % slower
    runs["change"] = [_result(76, 12.4)] * 2
    metrics = pairs.summarize([1, 2], runs, END_TO_END)["metrics"]
    assert metrics["ops_per_s"]["within_bound"]
    assert metrics["op_ms.p50"]["within_bound"]


def test_an_incorrect_run_marks_the_block():
    runs = {"parent": [_result(100, 10)],
            "change": [_result(100, 10, correct=False)]}
    block = pairs.summarize([7], runs, END_TO_END)
    assert not block["correct"]
    assert block["metrics"]["ops_per_s"]["parent_quartiles"] == [100, 100]


def test_seed_range():
    assert pairs.seed_range("801-804") == [801, 802, 803, 804]
    assert pairs.seed_range("5") == [5]
