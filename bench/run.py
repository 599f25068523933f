"""Run one workload of the fracbb benchmark and print its metrics as JSON.

    python3 bench/run.py --workload certify-corpus --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run is one single-threaded process driving a closed loop:
the next item starts only after the previous one finished and its output was
checked.

``--trace 0`` measures the end-to-end metrics: the workload's pool of inputs
runs over and over for ``--seconds`` (at least once through), and the set-up
(``import fracbb`` plus seeded input generation) is timed in this process and
in eight fresh interpreters.  Times are host-speed adjusted (see
``HostGauge``); the raw figures go into the record as well.  ``--trace 1``
runs a fixed number of items, each one untraced and then again with span
wrappers installed, and reports per-layer figures, the exact-count probe and
the Clifford micro-probe.  The last line of standard output is the result
object; the line before it records the run's conditions.  Spans, reports and
the full result are written under ``bench/results/``.
"""

import time

_STARTED = time.perf_counter()

import os

# Pinned before numpy loads, so that BLAS and the library stay single-threaded.
PINNED_ENV = {"FRACBB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse
import itertools
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from fracbb.errors import ToolkitError

import probes
from tracing import Tracer, layer_metrics, solve_gaps
from workloads import TOL, WORKLOADS

# The host-speed gauge: fixed small FFT round trips in numpy, timed next to
# every item.  On a shared host the core this process runs on is slowed by
# other tenants for seconds at a time, by up to a factor of two, and the gauge
# slows with it.  Over fourteen 2.5 s windows on a 2-vCPU VM an operator
# item's median latency moved between 8.4 and 17.0 ms, while its ratio to the
# gauge stayed within 24.4-26.9 (to a pure-Python dict loop: 34.4-40.2).
# Adjusted times are measured times scaled by GAUGE_NOMINAL_S / gauge, i.e.
# read at the speed where the gauge takes GAUGE_NOMINAL_S, about its time on
# an uncontended core of that VM.
GAUGE_SIGNAL = np.exp(1j * np.arange(256.0))
GAUGE_NOMINAL_S = 3.4e-4
# Period of the gauge readings taken inside items that run for longer.
GAUGE_PERIOD_S = 0.2

# Fresh interpreters timed for setup_s besides the run's own process.
SETUP_CHILDREN = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """Outcome of one closed-loop pass over items."""

    latencies: list[float] = field(default_factory=list)  # of items that passed
    adjusted: list[float] = field(default_factory=list)  # the same, host-speed adjusted
    passed: list = field(default_factory=list)  # the item of each latency
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0


def run_item(item, index: int, tracer: Tracer | None) -> list[str]:
    if tracer is None:
        return item.check(item.work())
    tracer.item = index
    first = len(tracer.spans)
    with tracer.region("bench.item", {"kind": item.kind}):
        outcome = item.work()
        with tracer.region("bench.check"):
            problems = item.check(outcome)
    gaps = solve_gaps(tracer.spans[first:])
    return problems + [f"{item.kind}: solve gap {g}" for g in gaps if not g <= TOL]


def gauge_once() -> float:
    t0 = perf_counter()
    x = GAUGE_SIGNAL
    for _ in range(15):
        x = np.fft.ifft(np.fft.fft(x) * 0.5) + 1.0
    return perf_counter() - t0


def host_gauge() -> float:
    """Seconds the gauge takes now: the median of three timings."""
    return statistics.median(gauge_once() for _ in range(3))


class HostGauge:
    """Gauge readings between items and, on a timer, during them.

    Between two items it reads :func:`host_gauge`.  While it is entered, a
    ``SIGALRM`` every ``GAUGE_PERIOD_S`` times the gauge once in the signal
    handler, which Python runs between two bytecodes of the item's code; the
    handler's time is taken out of the item's latency.  So a solve of several
    seconds is adjusted by the host's speed while it ran, not only at its ends.
    """

    def __init__(self):
        self.between = [host_gauge()]
        self.during: list[float] = []
        self.handler_s = 0.0

    def _read(self, signum, frame):
        t0 = perf_counter()
        self.during.append(gauge_once())
        self.handler_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start_item(self):
        self.during.clear()
        self.handler_s = 0.0

    def end_item(self, latency: float) -> tuple[float, float]:
        """The item's latency without the handler's time, and the same adjusted."""
        latency -= self.handler_s
        during = list(self.during)
        self.between.append(host_gauge())
        readings = [self.between[-2], *during, self.between[-1]]
        return latency, latency * GAUGE_NOMINAL_S / statistics.fmean(readings)


def run_pass(items, per_run_items, seconds: float | None, tracer: Tracer | None = None,
             min_items: int = 0, gauge: HostGauge | None = None, first_index: int = 0) -> Pass:
    """Run ``items`` (until ``seconds`` have passed and at least ``min_items``
    ran, if ``seconds`` is given), then ``per_run_items``.

    With ``gauge`` (a :class:`HostGauge`), each latency is also adjusted by
    the mean of the gauge readings just before, during and just after it.
    """
    result = Pass()
    start = perf_counter()

    def record(index, item):
        if gauge:
            gauge.start_item()
        t0 = perf_counter()
        try:
            problems = run_item(item, index, tracer)
        except ToolkitError as exc:
            problems = [f"{item.kind}: {type(exc).__name__}: {exc}"]
        latency = perf_counter() - t0
        if gauge:
            latency, latency_adjusted = gauge.end_item(latency)
        result.attempted += 1
        if problems:
            result.failed += 1
            result.problems += problems
        else:
            result.latencies.append(latency)
            result.adjusted.append(latency_adjusted if gauge else latency)
            result.passed.append(item)

    index = first_index
    for item in items:
        if seconds is not None and index >= min_items and perf_counter() - start >= seconds:
            break
        record(index, item)
        index += 1
    for item in per_run_items:
        record(index, item)
        index += 1
    result.wall_s = perf_counter() - start
    return result


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, run one after another."""
    samples = []
    command = [sys.executable, str(BENCH / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {name: os.environ[name] for name in PINNED_ENV},
    }


def percentile_ms(latencies: list[float], q: int) -> float:
    """The ``q``-th percentile of latencies by nearest rank, in ms: the
    smallest latency that at least ``q`` percent of them do not exceed."""
    ranked = sorted(latencies)
    return 1e3 * ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def per_input(workload, run: Pass) -> list[float]:
    """Each pool input's median adjusted latency, once per place in the pool.

    Taking each input's median over its repeats, and weighting it by the
    pool, keeps a run's figures independent of where the timed loop stopped.
    """
    repeats = {}
    for item, latency in zip(run.passed, run.adjusted):
        repeats.setdefault(id(item), []).append(latency)
    return [statistics.median(repeats[id(item)]) for item in workload.items
            if id(item) in repeats]


def measure_end_to_end(args, workload, own_setup_s):
    # Half of the fresh set-ups run before the timed phase and half after it,
    # so that one slow spell of a shared machine reaches few of the samples.
    setup = [own_setup_s] + setup_samples(args, SETUP_CHILDREN // 2)
    with HostGauge() as gauge:
        run = run_pass(workload.stream(), workload.per_run_items(), args.seconds,
                       min_items=len(workload.items), gauge=gauge)
    setup += setup_samples(args, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    latencies = per_input(workload, run)
    if not latencies:  # every input failed; the run is reported as not correct
        latencies = [run.wall_s]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": percentile_ms(latencies, 50),
        "item_p90_ms": percentile_ms(latencies, 90),
        # ru_maxrss is in KiB on Linux; set-up children are not included.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind = {}
    for item, latency in zip(run.passed, run.latencies):
        by_kind.setdefault(item.kind, []).append(1e3 * latency)
    raw = run.latencies or [run.wall_s]
    details = {"items": run.attempted, "items_passed": len(run.latencies),
               "pool": len(workload.items), "timed_s": run.wall_s, "setup_samples_s": setup,
               "gauge_median_s": statistics.median(gauge.between),
               "raw": {"items_per_s": len(run.latencies) / run.wall_s,
                       "item_p50_ms": percentile_ms(raw, 50),
                       "item_p90_ms": percentile_ms(raw, 90)},
               "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
               "count_by_kind": {k: len(v) for k, v in sorted(by_kind.items())}}
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def measure_layers(args, workload):
    count = workload.traced_item_count(args.seconds / 2.0)
    items = list(itertools.islice(workload.stream(), count))
    # A short untimed start, so that neither timed pass pays first-call costs.
    passes = [run_pass(items[: len(workload.cycle_kinds)], [], 1.0)]
    # Each item runs untraced and then traced, back to back, so that both see
    # the same host speed and the ratio of their times is the tracing overhead.
    tracer = Tracer()
    plain_s = traced_s = 0.0
    timed = items + workload.per_run_items()
    origin = perf_counter()
    for index, item in enumerate(timed):
        plain = run_pass([item], [], None)
        tracer.install()
        try:
            traced = run_pass([item], [], None, tracer, first_index=index)
        finally:
            tracer.uninstall()
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        passes += [plain, traced]
    tracer.write_jsonl(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl", origin)
    metrics = layer_metrics(tracer.spans, traced_s)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "1")
    counts, probe_problems = probes.oracle_iteration_counts()
    metrics.update(counts)
    metrics.update(probes.clifford_product_us(args.seed))
    run = Pass(
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=[problem for p in passes for problem in p.problems] + probe_problems,
    )
    metrics["failed_frac"] = (run.failed / run.attempted, "1")
    details = {"items_per_pass": len(timed), "untraced_s": plain_s, "traced_s": traced_s}
    return run, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then print the set-up time")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, RESULTS)
    own_setup_s = perf_counter() - _STARTED
    # Adjusted like item latencies, by the gauge right after the set-up.
    own_setup_s *= GAUGE_NOMINAL_S / host_gauge()
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        run, metrics, details = measure_layers(args, workload)
    else:
        run, metrics, details = measure_end_to_end(args, workload, own_setup_s)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"conditions": conditions(args), "details": details,
              "problems": run.problems, "result": result}
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"conditions": record["conditions"], "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
