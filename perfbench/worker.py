"""Measured interpreter: import cyclores.cli, say "ready", run the argv lists.

    python3 worker.py OPS.json RESULT.json TRACE      (TRACE is 0 or 1)
    python3 worker.py --probe                         (import, say ready, exit)

OPS.json holds a JSON list of argv lists.  Each is passed to
``cyclores.cli.run`` in turn, closed loop, with stdout and stderr
captured.  RESULT.json receives per-op exit codes, latencies and
output, the batch wall time, the peak RSS and, with TRACE=1, the
per-layer table of ``trace.Tracer``.

Every worker also times the reference unit, fixed work of the
benchmark's own, to measure how fast the machine ran at the time.
Right after "ready" it runs the unit REFERENCE_BURST times and prints
the mean on a second line.  While untraced ops run, a SIGALRM handler
runs the unit every REFERENCE_EVERY_S of wall time, inside whatever op
is running.  Each op's record then carries its time without those
samples ("net_s") and the mean time of the unit over the samples
within REFERENCE_WINDOW_S of the op ("ref_s").
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import resource
import signal
import sys
import time

REFERENCE_BURST = 10
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW_S = 0.25
_MERSENNE = (1 << 607) - 1
clock = time.perf_counter


def reference_unit() -> int:
    """About 2 ms of the kinds of work the program does: an interpreted
    integer loop, dict and list traffic, and big-integer modular powers."""
    acc, table = 0, {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
    low = sorted(table.values())[0]
    big = pow(3, _MERSENNE - 2, _MERSENNE) * pow(5, _MERSENNE - 3, _MERSENNE) % _MERSENNE
    return acc ^ low ^ (big & 1)


class Sampler:
    """Times the reference unit every REFERENCE_EVERY_S from a SIGALRM
    handler, which runs between the bytecodes of whatever op is running.
    Samples are (start, end) pairs in ``clock()`` time."""

    def __init__(self, burst: list[tuple[float, float]]):
        self.samples = list(burst)

    def _sample(self, _signum, _frame) -> None:
        t0 = clock()
        reference_unit()
        self.samples.append((t0, clock()))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the handler took inside [t0, t1]."""
        return sum(min(e, t1) - max(s, t0) for s, e in self.samples if s < t1 and e > t0)

    def mean_near(self, t0: float, t1: float) -> float:
        """The unit's mean time over the samples that start within
        REFERENCE_WINDOW_S of [t0, t1] (the nearest one if none do)."""
        starts = [s for s, _ in self.samples]
        lo = bisect.bisect_left(starts, t0 - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + REFERENCE_WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            near = [min(self.samples, key=lambda se: abs(se[0] - t0))]
        return sum(e - s for s, e in near) / len(near)


def reference_burst() -> list[tuple[float, float]]:
    burst = []
    for _ in range(REFERENCE_BURST):
        t0 = clock()
        reference_unit()
        burst.append((t0, clock()))
    return burst


def main(argv: list[str]) -> int:
    import cyclores.cli

    print("ready", flush=True)
    burst = reference_burst()
    print(sum(e - s for s, e in burst) / len(burst), flush=True)
    if argv == ["--probe"]:
        return 0
    ops_path, result_path, traced = argv[0], argv[1], argv[2] == "1"
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if traced:
        from trace_layers import Tracer

        tracer = Tracer()
    sampler = Sampler(burst)
    spans = []
    results = []
    # traced repetitions only feed the per-layer table, which the
    # handler's time would inflate, so they run without samples
    with sampler if not traced else contextlib.nullcontext():
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cyclores.cli.run(op)
            t1 = clock()
            spans.append((t0, t1))
            results.append({"rc": rc, "s": t1 - t0, "stdout": out.getvalue(),
                            "stderr": err.getvalue()[-400:]})
    for res, (t0, t1) in zip(results, spans):
        res["net_s"] = res["s"] - sampler.spent(t0, t1)
        res["ref_s"] = sampler.mean_near(t0, t1)
    report = {
        "wall_s": sum(res["net_s"] for res in results),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "layers": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
