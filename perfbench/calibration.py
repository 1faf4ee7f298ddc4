"""Host-speed calibration.

On a shared host the same simulation can take 30% longer from one second
to the next (another tenant on the sibling hyperthread), which swamps the
differences the benchmark exists to show.  The benchmark therefore times
a fixed pure-Python kernel alongside the work and expresses the work's
time in *reference seconds*: host seconds scaled by
``REFERENCE_SECONDS / kernel time``, i.e. the time the work would have
taken on a host where the kernel takes exactly :data:`REFERENCE_SECONDS`.

The kernel runs in a helper process of its own (:class:`Calibrator`),
never in the process being measured: the program's threads, heap and
garbage collector cannot slow it, so nothing the program does is divided
out of its figures.  The measured process blocks while the helper runs,
so the helper times the CPU the measured process has just left.

Run as a script, this file is that helper: it reads an iteration count
per line on stdin and answers each with the host speed.
"""

import subprocess
import sys
from time import perf_counter

#: Kernel iterations; about 4 ms on a 2-core Xeon VM with CPython 3.11.
ITERATIONS = 20_000
#: The kernel time that defines one reference second.
REFERENCE_SECONDS = 0.004


def kernel(iterations=ITERATIONS):
    """Dict and integer work typical of the simulator's inner loops."""
    table = {}
    total = 0
    for i in range(iterations):
        table[i & 1023] = i
        total += table.get(i & 511, 0) % 7
    return total


def speed(iterations=ITERATIONS):
    """Host speed now: reference seconds per host second."""
    started = perf_counter()
    kernel(iterations)
    elapsed = perf_counter() - started
    return REFERENCE_SECONDS * iterations / ITERATIONS / elapsed


class Calibrator:
    """A helper process that measures :func:`speed` on request.

    It inherits the caller's CPU affinity; closing it (or the caller's
    exit, which closes its stdin) ends it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.speed(1)  # returns once the helper is up

    def speed(self, iterations=ITERATIONS):
        """Host speed now, measured in the helper; blocks meanwhile."""
        self.proc.stdin.write(f"{iterations}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    for line in sys.stdin:
        print(repr(speed(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
