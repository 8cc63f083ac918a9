"""One workload process: set up, then run the request list with one client.

    python3 bench/child.py --workload NAME --seed N --mode setup|timed|traced
                           [--seconds S] [--quick]

``setup`` imports the package, builds the inputs and sends one warm-up
request of each kind.  ``timed`` then starts whole passes over the request
list while less than ``--seconds`` have gone by (at least one pass), with
tracing off.  ``traced`` sends one pass under the tracer.  The last line of
standard output is one JSON object; ``run.py`` aggregates it.

Except in the traced pass, a speed probe samples how fast the machine runs
while the package works (see ``SpeedProbe``); every timed stretch is
reported with the probe samples that fell inside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_work() -> None:
    """A fixed piece of pure-Python work: Fraction arithmetic, calls and
    small objects, like the package's inner loops (about 0.1 ms)."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i % 7 - 3, i % 5 + 1)


class SpeedProbe:
    """Samples the machine's speed while requests run.

    The host this benchmark was written on changes speed by up to 2x within
    a second and keeps a slow share for minutes, so raw times of identical
    runs differ by 30%.  An interval timer interrupts the main thread every
    PERIOD_S and times ``reference_work`` there, after one untimed round
    that brings it back into the caches; the samples that fall inside a
    timed stretch tell how fast the machine ran during it.  The time the
    probe takes is removed from the stretch's measured time.
    """

    PERIOD_S = 0.02

    def __init__(self):
        self.durations = array("d")
        self.costs = array("d")
        for _ in range(50):  # let the interpreter specialise the reference
            reference_work()

    def _sample(self, signum, frame) -> None:
        # a collection started by the sample's own allocations would time the
        # package's heap, not the machine
        collecting = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        reference_work()
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.durations.append(end - start)
        self.costs.append(end - entered)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.durations)

    def since(self, mark: int) -> tuple[int, float, float]:
        """(samples, their timed seconds, seconds the probe took) since ``mark``."""
        return len(self.durations) - mark, sum(self.durations[mark:]), sum(self.costs[mark:])


def send(req, probe: SpeedProbe):
    """Send one request: (seconds, probe samples, probe seconds, output,
    error).  The probe's own time is not in ``seconds``.  Never retried."""
    mark = probe.mark()
    start = time.perf_counter()
    try:
        out, error = req.call(), None
    except Exception as exc:  # a raising request is a failed request
        out, error = None, exc
    elapsed = time.perf_counter() - start
    samples, probe_s, cost = probe.since(mark)
    return elapsed - cost, samples, probe_s, out, error


def gate(req, out, error) -> bool:
    if error is not None:
        print(f"request {req.kind}/{req.label} raised {type(error).__name__}: {error}", file=sys.stderr)
        return False
    try:
        ok = bool(req.gate(out))
    except Exception as exc:
        print(f"gate {req.kind}/{req.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    if not ok:
        print(f"request {req.kind}/{req.label} failed its correctness gate", file=sys.stderr)
    return ok


def run_pass(requests, probe: SpeedProbe, tracer=None) -> list[list]:
    """[kind, label, seconds, ok, probe samples, probe seconds] for every
    request of one pass.

    All requests are sent first and gated afterwards, so that the gates run
    outside the timed regions and, in a traced pass, after the tracer is gone.
    """
    # the benchmark's own objects are frozen so that the collector does not
    # rescan them inside the package's timed calls
    gc.collect()
    gc.freeze()
    sent = []
    if tracer is not None:
        tracer.install()
    try:
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            sent.append(send(req, probe))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [
        [req.kind, req.label, seconds, gate(req, out, error), samples, probe_s]
        for req, (seconds, samples, probe_s, out, error) in zip(requests, sent)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true", help="one request of each kind")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    M = workloads.import_package()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        requests, warm = workloads.build(M, args.workload, args.seed, work)
        if args.quick:
            first = {}
            for req in requests:
                first.setdefault(req.kind, req)
            requests = list(first.values())
        warm_ok = [gate(req, *send(req, probe)[3:]) for req in warm]
        samples, probe_s, cost = probe.since(0)
        result = {
            "setup": [time.perf_counter() - start - cost, samples, probe_s],
            "attempted": len(warm_ok),
            "failed": warm_ok.count(False),
            "passes": [],
        }
        if args.mode == "timed":
            began = time.perf_counter()
            while not result["passes"] or time.perf_counter() - began < args.seconds:
                result["passes"].append(run_pass(requests, probe))
        elif args.mode == "traced":
            probe.stop()
            tracer = tracing.Tracer(M)
            rows = run_pass(requests, probe, tracer)
            result["passes"].append(rows)
            result["trace"] = tracer.metrics([(row[0], row[1], row[2]) for row in rows])
        for rows in result["passes"]:
            result["attempted"] += len(rows)
            result["failed"] += sum(1 for row in rows if not row[3])
        result["left_wrapped"] = tracing.is_traced()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another workload process still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
