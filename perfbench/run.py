"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_join --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: half of ``--seconds`` untraced,
then a traced cold set-up and half of ``--seconds`` traced; it prints the
per-layer metrics (and writes the kept spans under ``.bench_out/``).
End-to-end numbers never come from a traced run.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
summary goes to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from hostspeed import BURST, HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Cold set-ups per run, spread evenly over the timed window; ``setup_s``
#: is their median.
SETUP_REPEATS = 15

#: Directory, relative to the checkout root, for the traced run's spans.
OUTPUT_DIR = ".bench_out"


class NoSamples(RuntimeError):
    """A window completed no read or no write, so it has no percentiles."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(samples: List[float], fraction: float) -> float:
    """The ``fraction`` quantile (exclusive method) of at least one sample."""
    if len(samples) < 2:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100)
    return cuts[round(fraction * 100) - 1]


def reset_peak_rss() -> bool:
    """Restart the kernel's RSS high-water mark; False where that is not possible."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    """Peak RSS since :func:`reset_peak_rss`, or over the process lifetime."""
    if since_reset:
        with open("/proc/self/status") as handle:
            match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.MULTILINE)
        if match:
            return int(match.group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setup(workload: Any, rec: Any, tracer: Any = None) -> Tuple[Any, Tuple[float, float]]:
    """One cold set-up from fresh database objects, its first answer checked.

    Returns the live objects and the set-up's (start, end) times.
    """
    inputs = workload.inputs()
    gc.collect()
    started = time.perf_counter()
    live = workload.setup(inputs, tracer)
    ended = time.perf_counter()
    rec.check(live["first_ok"], f"{workload.name}: first answer at set-up")
    return live, (started, ended)


class BetweenCycles:
    """What runs between the window's cycles: host-speed probes and set-ups.

    A probe burst follows every cycle.  The cold set-ups are spread
    evenly over the window, each with a burst right after it, so every
    set-up has probes on either side; each set-up is closed at once, so
    the window's own session is never replaced.
    """

    def __init__(self, workload: Any, rec: Any, speed: HostSpeed, repeats: int, seconds: float) -> None:
        self.workload = workload
        self.rec = rec
        self.speed = speed
        self.repeats = repeats
        start = time.perf_counter()
        self.due = [start + seconds * (i + 0.5) / repeats for i in range(repeats)]
        self.setups: List[Tuple[float, float]] = []

    def run_setup(self) -> None:
        live, span = cold_setup(self.workload, self.rec)
        self.speed.probe(BURST)
        self.setups.append(span)
        self.workload.close(live)

    def __call__(self) -> None:
        self.speed.probe(BURST)
        if len(self.setups) < self.repeats and time.perf_counter() >= self.due[len(self.setups)]:
            self.run_setup()

    def finish(self) -> None:
        """Run the set-ups a window too short for them did not reach."""
        while len(self.setups) < self.repeats:
            self.run_setup()


def settle() -> None:
    """Collect garbage, then exempt everything alive from later collections.

    The instances, versions and references are the benchmark's own
    long-lived data; without this every full collection during a timed
    op would traverse them, adding pauses the library does not cause.
    """
    gc.collect()
    gc.freeze()


def end_to_end(workload: Any, rec: Any, seconds: float) -> Dict[str, Dict[str, Any]]:
    live, _ = cold_setup(workload, rec)
    speed = HostSpeed()
    settle()
    rss_reset = reset_peak_rss()
    between = BetweenCycles(workload, rec, speed, SETUP_REPEATS, seconds)
    rec.after_op = speed.probe
    try:
        speed.probe(BURST)
        workload.window(live, seconds, rec, between=between)
        between.finish()
    finally:
        workload.close(live)
        speed.close()
    if not rec.spans["read"] or not rec.spans["write"]:
        raise NoSamples(f"{workload.name}: {len(rec.spans['read'])} reads and {len(rec.spans['write'])} writes completed")
    reads = [speed.scale(*span) for span in rec.spans["read"]]
    writes = [speed.scale(*span) for span in rec.spans["write"]]
    busy = sum(speed.scale(*span) for span in rec.busy_spans)
    ms = 1000.0
    values = {
        "setup_s": (statistics.median(speed.scale(*span) for span in between.setups), "s"),
        "read_p50_ms": (percentile(reads, 0.5) * ms, "ms"),
        "read_p90_ms": (percentile(reads, 0.9) * ms, "ms"),
        "write_p50_ms": (percentile(writes, 0.5) * ms, "ms"),
        "write_p90_ms": (percentile(writes, 0.9) * ms, "ms"),
        "throughput_ops_s": ((len(reads) + len(writes)) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(rss_reset), "MB"),
    }
    raw_reads = rec.latencies["read"]
    slowness = [speed.slowness(*span) for span in rec.busy_spans]
    print(
        f"{workload.name}: {len(reads)} reads, {len(writes)} writes, "
        f"{SETUP_REPEATS} set-ups, error_rate {rec.failed}/{rec.attempted}; "
        f"host slowness median {statistics.median(slowness):.3f} (range {min(slowness):.3f}-{max(slowness):.3f}), "
        f"unscaled read p50 {percentile(raw_reads, 0.5) * ms:.3f} ms",
        file=sys.stderr,
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced(workload: Any, rec: Any, seconds: float, seed: int) -> Dict[str, Dict[str, Any]]:
    from repro.obs import Tracer

    import tracing
    from workloads import Recorder

    half = seconds / 2.0
    untraced_rec = Recorder()
    live, _ = cold_setup(workload, untraced_rec)
    settle()
    try:
        workload.window(live, half, untraced_rec)
    finally:
        workload.close(live)
    untraced_ops = len(untraced_rec.latencies["read"]) + len(untraced_rec.latencies["write"])

    setup_sink = tracing.LayerSink()
    sink = tracing.LayerSink()
    tracer = Tracer(sink=setup_sink)
    traced_rec = Recorder()
    with tracing.LayerHooks() as hooks:
        with tracer.span("bench.setup"):
            live, _ = cold_setup(workload, traced_rec, tracer)
        settle()
        try:
            before = workload.counters(live)
            hooks.loaded_rows = 0
            hooks.worlds = tracing.WorldTally()
            tracer.sink = sink
            workload.window(live, half, traced_rec, tracer)
            counters = tracing.counter_delta(workload.counters(live), before)
            kernel = workload.kernel_stats(live)
        finally:
            workload.close(live)
    for part in (untraced_rec, traced_rec):
        rec.attempted += part.attempted
        rec.errors += part.errors
        rec.wrong += part.wrong
    reads = len(traced_rec.latencies["read"])
    writes = len(traced_rec.latencies["write"])
    if not reads or not writes:
        raise NoSamples(f"{workload.name}: {reads} reads and {writes} writes completed in the traced window")
    metrics = tracing.per_layer_metrics(
        sink,
        hooks,
        counters,
        kernel,
        setup_sink,
        ops=reads + writes,
        reads=reads,
        writes=writes,
        untraced_throughput=untraced_ops / untraced_rec.busy if untraced_rec.busy else 0.0,
        traced_throughput=(reads + writes) / traced_rec.busy if traced_rec.busy else 0.0,
    )
    directory = os.path.join(ROOT, OUTPUT_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"trace-{workload.name}-{seed}.jsonl")
    sink.write(path)
    print(f"{workload.name}: traced window {reads} reads, {writes} writes; "
          f"{len(sink.kept)} spans written to {path} ({sink.dropped} aggregated only, "
          f"{sink.orphans} outside any op)", file=sys.stderr)
    print(f"{'layer':<10} {'self ms/op':>11} {'incl ms/op':>11}", file=sys.stderr)
    for layer in tracing.LAYERS:
        print(
            f"{layer:<10} {metrics[layer + '.self_ms']['value']:>11.3f} "
            f"{metrics[layer + '.incl_ms']['value']:>11.3f}",
            file=sys.stderr,
        )
    return metrics


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The library computes under the GIL, so its threads never run Python
    in parallel; spread over two CPUs of a shared virtual machine, each
    GIL hand-off became a cross-CPU wake-up, and serve_join's latency
    varied by up to 40% between otherwise identical runs.  A change that
    would use a second core cannot show a gain here.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"no library sources under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from workloads import WORKLOADS, GuardError, Recorder, load_records

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, load_records()[args.workload]["sizes"])
    rec = Recorder()
    try:
        workload.prepare(rec)
        settle()
        if args.trace:
            metrics = traced(workload, rec, args.seconds, args.seed)
        else:
            metrics = end_to_end(workload, rec, args.seconds)
    except GuardError as error:
        print(f"path guard failed: {error}", file=sys.stderr)
        return 1
    except NoSamples as error:
        print(f"no result: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
