"""The CLI transcript over every shipped fixture matches its golden file.

``tests/golden/cli_transcript.txt`` holds argv, exit code, stdout and stderr
of each run that ``tools/transcript.py`` lists; the runs are made again
in-process here, and the first one that differs is named.  Regenerate the
file with ``python tools/transcript.py --write`` after a change meant to
alter the output.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("transcript",
                                               ROOT / "tools" / "transcript.py")
transcript = sys.modules["transcript"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transcript)


def test_cli_transcript_matches_golden():
    recorded = transcript.blocks(transcript.GOLDEN.read_text(encoding="utf-8"))
    assert len(recorded) == 257
    fresh = [transcript.record(argv) for argv in transcript.argvs()]
    diff = transcript.first_difference(recorded, fresh)
    assert diff is None, f"first run that differs: {diff}"
