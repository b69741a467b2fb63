"""Machine-speed calibration: a fixed kernel timed next to every timed op.

On a shared virtual machine the speed can change by up to a factor of two
from one second to the next, for the benchmark's process and for a fixed
pure-Python loop alike (their CPU time tracks their wall time, so the loss
is not visible as steal).  A run therefore times a fixed kernel right
before and right after each op and divides the op's wall time by the mean
of the two, which cancels the machine's speed at that moment.
The ratio is multiplied back by the kernel's ``reference_ns``, so reported
times read as milliseconds and seconds of a machine on which the kernel
takes exactly that long.

Code slows down by different amounts on a busy machine, so each kind of
op is scaled by a kernel that does the same kind of work:

* ``IN_PROCESS`` for the library's own arithmetic: ``reference.product`` on
  two fixed 30-term flat motives, that is tuple sorting, dictionary
  updates, integer products and XOR;
* ``PROCESS`` for fresh interpreters (``cli_cold``'s ops and every set-up,
  which are mostly imports): an isolated interpreter (``-I``, so no
  environment variable, site directory or file of the checkout reaches it)
  that imports a fixed set of standard-library modules.

Neither kernel depends on a seed or on the library, so no change to the
library moves the unit.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import reference


class Kernel:
    """A fixed piece of work, its fastest time over ``repeats`` tries, and
    its time on the reference machine."""

    def __init__(self, work, reference_ns: int, repeats: int):
        self.work = work
        self.reference_ns = reference_ns
        self.repeats = repeats

    def probe(self) -> int:
        """The kernel's fastest wall time now, in ns."""
        best = None
        for _ in range(self.repeats):
            start = time.perf_counter_ns()
            self.work()
            ns = time.perf_counter_ns() - start
            best = ns if best is None else min(best, ns)
        return best

    def scale(self, ns: float, before: int, after: int) -> float:
        """``ns`` of wall time, timed between probes ``before`` and
        ``after``, in reference-machine ns."""
        return ns * self.reference_ns / ((before + after) / 2)

    def speed(self, probes) -> float:
        """The machine's median speed over ``probes``: 1.0 is the
        reference machine's."""
        return self.reference_ns / statistics.median(probes)


def _operand(rng: random.Random) -> dict:
    out = {}
    while len(out) < 30:
        key = (tuple(sorted(rng.sample(range(6), 2))), rng.randrange(64),
               rng.randrange(-6, 7))
        out[key] = rng.choice((-3, -2, -1, 1, 2, 3))
    return out


_RNG = random.Random("perfbench:calibrate")
_A, _B = _operand(_RNG), _operand(_RNG)

PROCESS_ARGV = [sys.executable, "-I", "-c",
                "import json, decimal, argparse, email.message"]


def _interpreter() -> None:
    subprocess.run(PROCESS_ARGV, check=True, capture_output=True, timeout=60)


# Reference times: roughly the kernels' times on a 2-vCPU Intel Xeon
# virtual machine (Python 3.11.7) at that machine's full speed.  Fixed
# constants: they are the units of the reported times.
IN_PROCESS = Kernel(lambda: reference.product(_A, _B),
                    reference_ns=700_000, repeats=3)
PROCESS = Kernel(_interpreter, reference_ns=70_000_000, repeats=1)
