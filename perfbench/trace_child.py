"""Run the motivic CLI with the span tracer installed (traced cli_cold ops).

usage: python trace_child.py SPANS_OUT COMMAND [ARGS...]

Behaves like ``python -m motivic.cli COMMAND [ARGS...]`` and also writes the
spans of this process to SPANS_OUT, including the import of the CLI.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import motivic.cli

    end = time.perf_counter_ns()
    from spantrace import Tracer

    tracer = Tracer().install()
    tracer.op = 0
    tracer.spans.append(("startup.import_cli", start, end, None, 0))
    tracer.self_ns["startup.import_cli"] += end - start
    try:
        return motivic.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
