"""One ``ess`` CLI operation in a fresh process.

    python3 child.py SRC OUT MODE ARGV...

MODE is ``plain``, ``traced`` or ``import``.  The child imports ``ess.cli``
from SRC (timing the import) and runs the calibration five times.  For
``plain`` and ``traced`` it then times ``ess.cli.main(ARGV + ["--json"])``
alone and calibrates five times again; ``plain`` also calibrates every
``TICK_S`` seconds during the call (and subtracts that time), ``traced``
installs the spans of ``tracing.py`` first.  It writes a JSON result to OUT:
exit code, seconds, import seconds, calibration seconds, peak RSS in KiB,
captured stdout and stderr, and the spans when traced.

A fresh process per operation matters: ``ess`` caches the cyclic filtrations
and cyclotomic polynomials per process, and every real CLI call starts
without them.
"""

import contextlib
import gc
import io
import json
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction


TICK_S = 0.2  # interval of the calibrations taken during an operation


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind ``ess``
    does: Gauss-Jordan elimination over exact fractions on a fixed 8 x 10
    integer matrix.  It does not use ``ess``, so a change to ``ess`` cannot
    change it; only the host's speed does, and dividing by it removes most of
    the host's speed changes from a timing.  The collector is off so that the
    heap an operation left behind does not count."""
    rng = random.Random(7)
    rows, cols = 8, 10
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Ticker:
    """Calibrates every TICK_S seconds from a timer signal while an operation
    runs, so that a long operation is normalised by the host's speed during
    it, not only at its ends.  ``paused`` is the time spent in the handler,
    which the caller subtracts from the operation's time."""

    def __init__(self):
        self.cal: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.cal.append(calibrate())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrate_block() -> list[float]:
    return [calibrate() for _ in range(5)]


def main() -> int:
    src, out, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from ess import cli

    import_seconds = time.perf_counter() - start
    cal_import = calibrate_block()
    result = {"import_seconds": import_seconds, "cal_import": cal_import, "cal": cal_import}
    if mode != "import":
        recorder = None
        if mode == "traced":
            import tracing

            recorder = tracing.install()
        stdout, stderr = io.StringIO(), io.StringIO()
        # Ticks would land inside the spans of a traced run; traced runs are
        # normalised by the calibrations before and after alone.
        ticker = Ticker()
        timer = ticker if mode == "plain" else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), timer:
            start = time.perf_counter()
            try:
                code = cli.main(argv + ["--json"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is exit 1 under the CLI contract
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start - ticker.paused
        result.update({
            "exit": code,
            "seconds": seconds,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-2000:],
        })
        if recorder is not None:
            trace = recorder.dump()
            for span in trace["spans"]:
                span[1] -= start
                span[2] -= start
            result["trace"] = trace
        result["cal"] = cal_import + ticker.cal + calibrate_block()
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
