"""Record the CLI transcript over every shipped fixture.

One run per line of argv: the seven job commands (``zeta``, ``nearby``,
``vanishing``, ``arc-check``, ``ts``, ``glue``, ``localize``) on each
fixture, as text and with ``--machine-readable``; ``zeta --series-order 12``
on each fixture; and ``selftest`` in both forms.  Each run is called
in-process through ``motivic.cli.main`` and recorded as a block: a header
line with its argv, then its exit code, stdout and stderr.

    python tools/transcript.py --write   # rewrite tests/golden/cli_transcript.txt
    python tools/transcript.py           # exit 1 and name the first run that differs

``tests/test_transcript.py`` makes the same comparison in tier-1.
Standard library only, besides the package itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.txt"
COMMANDS = ("zeta", "nearby", "vanishing", "arc-check", "ts", "glue", "localize")
HEADER = "=== motivic "


def argvs() -> list[list[str]]:
    """Every recorded argv, in transcript order."""
    from motivic.jobs import FIXTURE_NAMES

    runs = []
    for name in FIXTURE_NAMES:
        for command in COMMANDS:
            runs.append([command, "--fixture", name])
            runs.append([command, "--fixture", name, "--machine-readable"])
        runs.append(["zeta", "--fixture", name, "--series-order", "12"])
    runs += [["selftest"], ["selftest", "--machine-readable"]]
    return runs


def record(argv: list[str]) -> str:
    """The block of one run: header, exit code, stdout, stderr."""
    from motivic.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"{HEADER}{' '.join(argv)}\nexit: {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def blocks(text: str) -> list[str]:
    """``text`` cut into blocks, one per header line."""
    lines = text.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line.startswith(HEADER)]
    return ["".join(lines[a:b]) for a, b in zip(starts, starts[1:] + [len(lines)])]


def first_difference(recorded: list[str], fresh: list[str]) -> str | None:
    """The header of the first block that differs, or None if all agree."""
    for old, new in zip(recorded, fresh):
        if old != new:
            return new.splitlines()[0]
    if len(recorded) != len(fresh):
        return f"{len(recorded)} recorded runs, {len(fresh)} fresh"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true",
                   help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = p.parse_args(argv)
    fresh = [record(a) for a in argvs()]
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("".join(fresh), encoding="utf-8")
        print(f"wrote {len(fresh)} runs to {GOLDEN.relative_to(ROOT)}")
        return 0
    diff = first_difference(blocks(GOLDEN.read_text(encoding="utf-8")), fresh)
    if diff is not None:
        print(f"transcript differs at: {diff}")
        return 1
    print(f"{len(fresh)} runs match")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
