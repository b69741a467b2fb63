"""Run a benchmark workload in alternating parent/change pairs and summarize.

For each seed the workload runs once on each side, ``python3
perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``, and
the side that runs first alternates from seed to seed.  Every run starts
in a fresh temporary copy of its side's tracked files, so no bytecode
cache or benchmark output of an earlier run is there:

* the parent is ``git archive`` of REV (``--parent``, default ``HEAD``);
* the change is the working tree's files that git tracks (``git
  ls-files``), as they are on disk, uncommitted edits included.

The runs inherit this process's environment unchanged.  The summary
printed on stdout is one JSON object: the machine and method, and under
``workloads.<W>`` the seeds, the pair count, the failed and attempted ops
of each side, whether every run was correct, and for each end-to-end
metric of ``BENCHMARK.json`` the median and quartiles of each side, the
number of pairs in which the change is better (ties count for neither),
the metric's bound and whether the change's median is within it.

    python tools/pairs.py --workload series_deep --seeds 801-808 --seconds 20
    python tools/pairs.py --workload ring_dense --seeds 5 --parent HEAD~1

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


# -- the copies ---------------------------------------------------------------------


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(side: str, rev: str, dest: Path) -> None:
    """A fresh copy of ``side``'s tracked files in ``dest``."""
    if side == "parent":
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
            tar.extractall(dest)
        return
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(side: str, rev: str, workload: str, seed: int,
             seconds: float) -> dict:
    """The result object (the last stdout line) of one benchmark run."""
    with tempfile.TemporaryDirectory(prefix=f"pairs-{side}-") as tmp:
        extract(side, rev, Path(tmp))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# -- the summary --------------------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def summarize(seeds: list[int], runs: dict[str, list[dict]],
              end_to_end: list[dict]) -> dict:
    """The ``workloads.<W>`` block of a BENCH file from the runs of each
    side, ``runs[side][i]`` being the result object for ``seeds[i]``."""
    block = {
        "seeds": seeds, "pairs": len(seeds),
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "correct": all(r["correct"] for s in SIDES for r in runs[s]),
        "metrics": {},
    }
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {s: [r["metrics"][name]["value"] for r in runs[s]]
                  for s in SIDES}
        parent, change = (statistics.median(values[s]) for s in SIDES)
        sign = 1 if higher else -1
        bound = metric["bound"]
        block["metrics"][name] = {
            "better": metric["better"],
            "parent_median": round(parent, 4),
            "change_median": round(change, 4),
            "change_vs_parent": round(change / parent - 1, 4) if parent else None,
            "parent_quartiles": _quartiles(values["parent"]),
            "change_quartiles": _quartiles(values["change"]),
            "change_better": sum(sign * (c - p) > 0 for p, c in
                                 zip(values["parent"], values["change"])),
            "bound": bound,
            "within_bound": (change >= parent * (1 - bound) if higher
                             else change <= parent * (1 + bound)),
            "parent_runs": [round(v, 4) for v in values["parent"]],
            "change_runs": [round(v, 4) for v in values["change"]],
        }
    return block


def machine() -> dict:
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


# -- entry point --------------------------------------------------------------------


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range,
                   help="A-B, both included, or one seed")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(side, args.parent, args.workload, seed,
                              args.seconds)
            runs[side].append(result)
            print(f"seed {seed} {side}: ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.4g}",
                  file=sys.stderr, flush=True)
    print(json.dumps({
        "parent": _git("rev-parse", "--short", args.parent).decode().strip(),
        "machine": machine(),
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {args.workload: summarize(args.seeds, runs,
                                               bench["end_to_end"])},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
