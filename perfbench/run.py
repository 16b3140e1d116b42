"""Benchmark of record for the anti-combining MapReduce reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig9-prefix1 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs untraced units for the tracing-overhead baseline,
then installs the per-layer wrappers of ``perfbench/tracing.py`` and
reports exclusive seconds per layer.  Human-readable lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: ``unit_s.p90`` needs at least ten units beyond it.
MIN_UNITS = 100
#: The timed loop may run past ``--seconds`` to reach ``MIN_UNITS``, up
#: to this multiple of it.
MAX_OVERRUN = 1.5
#: Share of a traced run's time spent on the untraced baseline units.
UNTRACED_SHARE = 0.4
#: Traced units per traced run (spans of each are kept in memory).
MAX_TRACED_UNITS = 4
#: Self times plus ``unattributed_s`` must match each traced unit's
#: wall time within this share (plus half a millisecond of clock noise).
ACCOUNTING_TOLERANCE = 0.01
#: Where spans are written, relative to the checkout.
OUT_DIR = ".perfbench"
#: Seconds the calibration kernel takes on the reference host; reported
#: times are scaled to that host speed (see ``HostSpeed``).
REFERENCE_KERNEL_S = 0.0015

END_TO_END = (
    ("unit_s.p50", "s"),
    ("unit_s.p90", "s"),
    ("records_per_s", "rec/s"),
    ("cpu_s_per_unit", "s"),
    ("shuffle_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
)

FIG9, SORT, SERVED = "fig9-prefix1", "sort-spill", "served-pool"
IN_WORKERS = "runs in pool workers, seen from the parent as executor.wait_s"
NO_ANTI = "Original program only: the anti layers are bypassed"
SERIAL_EXECUTOR = "serial executor: tasks run inline, no shared-memory plane"
NO_SERVICE = "no job service or flight recorder in this workload"
NO_SPILL = "the sort buffer holds a whole map task's output"
ANTI_LAYER = {SORT: NO_ANTI, SERVED: IN_WORKERS}
SERVICE_ONLY = {FIG9: NO_SERVICE, SORT: NO_SERVICE}

#: ``(name, unit, {workload: why the metric reads 0 there})``.
PER_LAYER = (
    ("workloads.map_udf.self_s", "s", {SERVED: IN_WORKERS}),
    ("workloads.map_udf.calls", "count", {SERVED: IN_WORKERS}),
    ("workloads.map_udf.reexec_s", "s", ANTI_LAYER),
    ("workloads.reduce_udf.self_s", "s", {SERVED: IN_WORKERS}),
    ("workloads.partition_udf.self_s", "s", {SORT: "hash partitioning is framework code", SERVED: IN_WORKERS}),
    ("anti_mapper.self_s", "s", ANTI_LAYER),
    ("anti_mapper.eager_records", "count", {SORT: NO_ANTI, SERVED: "AdaptiveSH picks LazySH or plain here"}),
    ("anti_mapper.lazy_records", "count", {SORT: NO_ANTI}),
    ("anti_mapper.plain_records", "count", {SORT: NO_ANTI, FIG9: "under Prefix-1 each map call's records share one partition"}),
    ("anti_reducer.self_s", "s", ANTI_LAYER),
    ("anti_reducer.reexecutions", "count", {SORT: NO_ANTI}),
    ("shared.self_s", "s", ANTI_LAYER),
    ("shared.spills", "count", {w: "Shared stays within its memory budget" for w in (FIG9, SORT, SERVED)}),
    ("serde.encode_s", "s", {SERVED: IN_WORKERS}),
    ("serde.decode_s", "s", {SERVED: IN_WORKERS}),
    ("serde.encode_calls", "count", {SERVED: IN_WORKERS}),
    ("buffer.self_s", "s", {SERVED: IN_WORKERS}),
    ("merge.self_s", "s", {SERVED: IN_WORKERS}),
    ("maptask.self_s", "s", {SERVED: IN_WORKERS}),
    ("reducetask.self_s", "s", {SERVED: IN_WORKERS}),
    ("maptask.spills", "count", {FIG9: NO_SPILL, SERVED: NO_SPILL}),
    ("maptask.spilled_records", "count", {FIG9: NO_SPILL, SERVED: NO_SPILL}),
    ("reducetask.merge_segments", "count", {}),
    ("shuffle.skew", "ratio", {}),
    ("executor.start_s", "s", {}),
    ("executor.submit_s", "s", {}),
    ("executor.wait_s", "s", {FIG9: SERIAL_EXECUTOR, SORT: SERIAL_EXECUTOR}),
    ("executor.close_s", "s", {FIG9: SERIAL_EXECUTOR, SORT: SERIAL_EXECUTOR}),
    ("shm.publish_s", "s", {FIG9: SERIAL_EXECUTOR, SORT: SERIAL_EXECUTOR}),
    ("shm.bytes_published", "B", {FIG9: SERIAL_EXECUTOR, SORT: SERIAL_EXECUTOR}),
    ("shm.fallbacks", "count", {w: "no shared-memory allocation fails here" for w in (FIG9, SORT, SERVED)}),
    ("scheduler.self_s", "s", {}),
    ("scheduler.failed_attempts", "count", {w: "no faults are injected" for w in (FIG9, SORT, SERVED)}),
    ("engine.self_s", "s", {}),
    ("obs.record_s", "s", SERVICE_ONLY),
    ("obs.spans_per_job", "count", SERVICE_ONLY),
    ("obs.bundle_bytes", "B", SERVICE_ONLY),
    ("jobservice.self_s", "s", SERVICE_ONLY),
    ("jobservice.queue_wait_s", "s", SERVICE_ONLY),
    ("jobservice.overhead_s", "s", SERVICE_ONLY),
    ("bench.self_s", "s", {}),
    ("unattributed_s", "s", {}),
    ("trace.unit_s", "s", {}),
    ("trace.spans_per_unit", "count", {}),
    ("trace.overhead_ratio", "ratio", {}),
)

#: Per-layer metrics in seconds (scaled to reference seconds like the
#: end-to-end times).
TIME_METRICS = {entry[0] for entry in PER_LAYER if entry[1] == "s"}

#: Per-layer self-time metric → tracing layer.
SELF_METRICS = {
    "workloads.map_udf.self_s": "workloads.map_udf",
    "workloads.reduce_udf.self_s": "workloads.reduce_udf",
    "workloads.partition_udf.self_s": "workloads.partition_udf",
    "anti_mapper.self_s": "anti_mapper",
    "anti_reducer.self_s": "anti_reducer",
    "shared.self_s": "shared",
    "serde.encode_s": "serde.encode",
    "serde.decode_s": "serde.decode",
    "buffer.self_s": "buffer",
    "merge.self_s": "merge",
    "maptask.self_s": "maptask",
    "reducetask.self_s": "reducetask",
    "executor.start_s": "executor.start",
    "executor.submit_s": "executor.submit",
    "executor.wait_s": "executor.wait",
    "executor.close_s": "executor.close",
    "shm.publish_s": "shm",
    "scheduler.self_s": "scheduler",
    "engine.self_s": "engine",
    "obs.record_s": "obs",
    "jobservice.self_s": "jobservice",
    "bench.self_s": "bench",
}

#: Per-layer count metric → job counter, summed over a unit's jobs.
COUNTER_METRICS = {
    "anti_mapper.eager_records": "anti.eager.records",
    "anti_mapper.lazy_records": "anti.lazy.records",
    "anti_mapper.plain_records": "anti.plain.records",
    "anti_reducer.reexecutions": "anti.reduce.map.reexecutions",
    "shared.spills": "anti.shared.spills",
    "maptask.spills": "map.spills",
    "maptask.spilled_records": "map.spilled.records",
    "reducetask.merge_segments": "reduce.merge.segments",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program(root: Path):
    """Import the checkout's ``repro`` (and nothing installed elsewhere)."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program source at {src / 'repro'}; run from the root of a checkout")
    # The benchmark measures the default configuration: no environment
    # toggle may select another data plane, executor or run store.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        print(f"note: ignoring {name} from the environment")
        del os.environ[name]
    # After this script's own directory, so its modules come first.
    sys.path.insert(1, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {src}")
    import workloads

    return workloads


def cpu_seconds(include_children: bool = True) -> float:
    times = os.times()
    total = times.user + times.system
    if include_children:
        total += times.children_user + times.children_system
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_pids() -> set[int]:
    """Processes whose parent is this process (from Linux ``/proc``)."""
    me = os.getpid()
    pids: set[int] = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended meanwhile
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces and parentheses.
        if int(text[text.rindex(")") + 2 :].split()[1]) == me:
            pids.add(int(stat.parent.name))
    return pids


def stop_child_processes() -> list[str]:
    """Stop every process this run started and wait until each has ended.

    The program reaps its own pool workers.  What it leaves is the
    ``multiprocessing`` resource tracker that the first shared-memory
    block starts: left alone it outlives this process by seconds, so it
    is stopped here (closing its pipe, then waiting for it).  Any other
    child still alive is an error; it is killed and reaped first, since
    it may hold the tracker's pipe open."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    errors = []
    for pid in sorted(child_pids() - {tracker._pid}):
        errors.append(f"child process {pid} still running after the run")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()
    if child_pids():
        errors.append(f"child processes {sorted(child_pids())} did not end")
    return errors


def _calibration_kernel() -> int:
    table = {}
    for index in range(3000):
        key = "k%d" % index
        table[key] = len(key) + index
    return len(sorted(table, key=table.__getitem__))


class HostSpeed:
    """How fast the host runs pure-Python code right now.

    On a shared 2-vCPU virtual machine (see README.md) the speed of the
    same interpreted work drifted by up to 1.8x over tens of seconds,
    far more than any regression bound.  A fixed kernel (dict inserts,
    string formatting, a keyed sort) is timed before and after every
    unit; the mean of the two gives the factor that scales the unit's
    measured seconds to a host where the kernel takes
    ``REFERENCE_KERNEL_S``.  A slower program still reads slower, since
    the kernel never runs program code.
    """

    def __init__(self) -> None:
        self.last: float | None = None

    def measure(self) -> float:
        """Seconds the kernel takes now (median of 5 runs)."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - start)
        self.last = statistics.median(times)
        return self.last

    def around_unit(self) -> Callable[[], float]:
        """Take the kernel time before a unit (the last measurement, if
        any); the returned function measures again after the unit and
        returns the unit's factor."""
        before = self.last if self.last is not None else self.measure()
        return lambda: 2 * REFERENCE_KERNEL_S / (before + self.measure())


@dataclass
class Sample:
    """One unit as the runner saw it."""

    outcome: Any
    #: Host speed factor: measured seconds x factor = reference seconds.
    factor: float
    #: Wall and CPU seconds of the loop iteration (unit plus its checks).
    seconds: float
    cpu: float
    root_span: tuple | None = None


class Run:
    """One benchmark invocation: set-up, measured units, report."""

    def __init__(self, args, workloads_module, root: Path):
        self.args = args
        self.root = root
        self.out_dir = root / OUT_DIR
        cls = workloads_module.WORKLOADS[args.workload]
        self.workload = cls(args.seed, self.out_dir / f"work-{os.getpid()}")
        self.shm_blocks = workloads_module.shm_blocks
        self.speed = HostSpeed()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- units -------------------------------------------------------------
    def unit(self, index: int, tracer=None) -> Sample:
        factor_after = self.speed.around_unit()
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_unit(index)
        outcome = self.workload.run_unit(index)
        root_span = tracer.end_unit() if tracer is not None else None
        self.workload.after_unit(outcome)
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_before
        factor = factor_after()
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            print(
                f"FAILED unit {index} of {self.args.workload} on seed {self.args.seed}: {outcome.error}",
                file=sys.stderr,
            )
        if tracer is None:
            outcome.results = []  # only the traced report reads them
        return Sample(outcome, factor, seconds, cpu, root_span)

    def loop(self, first: int, seconds: float, min_units: int, max_units: int | None = None, tracer=None):
        samples: list[Sample] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if max_units is not None and len(samples) >= max_units:
                break
            enough = len(samples) >= min_units or (len(samples) >= 2 and elapsed >= seconds * MAX_OVERRUN)
            if elapsed >= seconds and enough:
                break
            samples.append(self.unit(first + len(samples), tracer))
        return samples, time.perf_counter() - start

    def setup(self) -> list[float]:
        """Set up ``SETUP_REPEATS`` times; the last set-up stays live.

        Returns each set-up's reference seconds: set-up plus the warm-up
        unit, scaled by the warm-up unit's host-speed factor."""
        times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                self.workload.close()
            before = time.perf_counter()
            self.workload.setup()
            prepared = time.perf_counter() - before
            parent_before = cpu_seconds(False)
            warm = self.unit(0)
            times.append((prepared + warm.seconds) * warm.factor)
            if warm.outcome.error is not None:
                self.errors.append(f"warm-up unit failed: {warm.outcome.error}")
            parent = cpu_seconds(False) - parent_before
            if self.workload.forks_workers and repeat == 0:
                print(f"cpu check (one unit): parent only {parent:.4f} s, with reaped pool workers {warm.cpu:.4f} s")
                if not warm.cpu > parent:
                    self.errors.append("pool-worker CPU is missing from the one-unit CPU check")
        # Warm-up units are set-up, not measured.
        self.attempted = self.failed = 0
        return times

    # -- modes ---------------------------------------------------------------
    def timed(self) -> dict:
        setup_times = self.setup()
        samples, elapsed = self.loop(1, self.args.seconds, MIN_UNITS)
        good = [s.outcome for s in samples if s.outcome.error is None]
        walls = [s.outcome.wall * s.factor for s in samples]
        if len(walls) < MIN_UNITS:
            print(f"warning: {len(walls)} units; unit_s.p90 has fewer than 10 units beyond it")
        shuffle = {o.shuffle_bytes for o in good}
        if len(shuffle) > 1:
            self.errors.append(f"shuffle bytes differ between units: {sorted(shuffle)[:4]}")
        raw = statistics.median(s.outcome.wall for s in samples)
        factor = statistics.median(s.factor for s in samples)
        print(f"host speed: factor {factor:.4f} (median), raw wall unit p50 {raw:.6f} s, "
              f"loop {elapsed:.3f} s, {elapsed - sum(s.seconds for s in samples):.3f} s of it outside units")
        return {
            "unit_s.p50": statistics.median(walls),
            "unit_s.p90": statistics.quantiles(walls, n=10, method="inclusive")[8],
            "records_per_s": sum(o.records for o in good) / sum(s.seconds * s.factor for s in samples),
            "cpu_s_per_unit": sum(s.cpu * s.factor for s in samples) / len(samples),
            "shuffle_bytes": max(shuffle) if shuffle else 0,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
            "success_rate": len(good) / len(samples),
        }

    def traced(self) -> dict:
        import tracing

        self.setup()
        budget = self.args.seconds
        untraced, spent = self.loop(1, budget * UNTRACED_SHARE, 5)
        tracer = tracing.LayerTracer()
        wrapped = tracer.install()
        print(f"tracing: {wrapped} callables wrapped")
        for name in tracer.missing:
            print(f"tracing: module {name} not found; its layer reads 0")
        self.workload.instrument(tracer)
        try:
            traced, _ = self.loop(1 + len(untraced), max(budget - spent, 0.0), 3, MAX_TRACED_UNITS, tracer)
        finally:
            tracer.uninstall()
        self.write_spans(tracer.spans)
        by_unit: dict = {}
        for span in tracer.spans:
            if span[6] is not None and span[2] != tracing.UNIT:
                by_unit.setdefault(span[6], []).append(span)
        per_unit = []
        for sample in traced:
            root = sample.root_span
            if sample.outcome.error is not None:
                continue
            analysis = tracing.self_times(by_unit.get(root[6], []), root)
            accounted = sum(analysis["layers"].values()) + analysis["unattributed"]
            if abs(accounted - analysis["wall"]) > ACCOUNTING_TOLERANCE * analysis["wall"] + 5e-4:
                self.errors.append(
                    f"unit {root[6]}: self times add up to {accounted:.6f} s, wall {analysis['wall']:.6f} s"
                )
            metrics = self.layer_metrics(analysis, sample.outcome, len(by_unit.get(root[6], [])))
            per_unit.append(
                {name: value * sample.factor if name in TIME_METRICS else value for name, value in metrics.items()}
            )
        if not per_unit:
            self.errors.append("no traced unit succeeded")
            return {}
        baseline = [s.outcome.shuffle_bytes for s in untraced if s.outcome.error is None]
        if any(s.outcome.shuffle_bytes not in baseline for s in traced if s.outcome.error is None):
            self.errors.append("tracing changed the shuffle bytes")
        metrics = {name: statistics.fmean(m[name] for m in per_unit) for name in per_unit[0]}
        metrics["trace.overhead_ratio"] = statistics.median(
            s.outcome.wall * s.factor for s in traced
        ) / statistics.median(s.outcome.wall * s.factor for s in untraced)
        return metrics

    def layer_metrics(self, analysis: dict, outcome, span_count: int) -> dict:
        layers = analysis["layers"]
        metrics = {name: layers[layer] for name, layer in SELF_METRICS.items()}
        metrics["unattributed_s"] = analysis["unattributed"]
        metrics["trace.unit_s"] = analysis["wall"]
        metrics["trace.spans_per_unit"] = span_count
        metrics["workloads.map_udf.reexec_s"] = analysis["reexec"]
        calls = analysis["calls"]
        metrics["workloads.map_udf.calls"] = sum(
            count for name, count in calls.items() if analysis["layer_of"][name] == "workloads.map_udf"
            and name.endswith(".map")
        )
        metrics["serde.encode_calls"] = sum(
            count for name, count in calls.items() if analysis["layer_of"][name] == "serde.encode"
        )
        results = outcome.results
        for name, counter in COUNTER_METRICS.items():
            metrics[name] = sum(r.counters.get_int(counter) for r in results)
        skews = []
        for result in results:
            per_reducer = result.shuffle_bytes_per_reducer
            if per_reducer and sum(per_reducer):
                skews.append(max(per_reducer) * len(per_reducer) / sum(per_reducer))
        metrics["shuffle.skew"] = statistics.fmean(skews) if skews else 0.0
        metrics["scheduler.failed_attempts"] = sum(
            len(r.events.failures()) + len(r.events.timeouts()) for r in results
        )
        gauges = [r.metrics.gauge_values() for r in results]
        metrics["shm.bytes_published"] = sum(g.get("mr.shm.bytes", 0.0) for g in gauges)
        metrics["shm.fallbacks"] = sum(g.get("mr.shm.fallbacks", 0.0) for g in gauges)
        metrics["obs.spans_per_job"] = statistics.fmean(len(r.spans) for r in results)
        facts = outcome.facts
        metrics["obs.bundle_bytes"] = facts.get("bundle_bytes", 0)
        metrics["jobservice.queue_wait_s"] = facts.get("queue_wait_s", 0.0)
        served_job = analysis["inclusive"].get("ServedPool.drive")
        metrics["jobservice.overhead_s"] = outcome.wall - served_job if served_job is not None else 0.0
        return metrics

    def write_spans(self, spans: list[tuple]) -> None:
        """One tab-separated line per span of a traced unit, times in
        seconds from the first traced unit's start; the file is
        overwritten by the next traced run of the same workload."""
        kept = [span for span in spans if span[6] is not None]
        if not kept:
            return
        origin = min(span[4] for span in kept)
        layers = sorted({(span[2], span[3]) for span in kept})
        self.out_dir.mkdir(exist_ok=True)
        path = self.out_dir / f"{self.args.workload}.spans.tsv"
        with path.open("w") as handle:
            handle.write(f"# workload={self.args.workload} seed={self.args.seed}\n")
            handle.writelines(f"# layer\t{name}\t{layer}\n" for name, layer in layers)
            handle.write("id\tparent\tunit\tname\tstart_s\tend_s\n")
            handle.writelines(
                f"{sid}\t{parent}\t{unit}\t{name}\t{start - origin:.7f}\t{end - origin:.7f}\n"
                for sid, parent, name, _, start, end, unit in kept
            )
        print(f"spans: {path.relative_to(self.root)}")

    # -- report --------------------------------------------------------------
    def execute(self) -> dict:
        shm_before = self.shm_blocks()
        default_ledger = self.root / ".repro"
        ledger_existed = default_ledger.exists()
        try:
            values = self.traced() if self.args.trace else self.timed()
        finally:
            try:
                self.workload.close()
            except RuntimeError as exc:
                self.errors.append(str(exc))
        leaked = self.shm_blocks() - shm_before
        if leaked:
            self.errors.append(f"shared-memory blocks left behind: {sorted(leaked)[:3]}")
        if default_ledger.exists() and not ledger_existed:
            self.errors.append("a run directory was written to .repro/ in the checkout")
        work = self.workload.workdir
        if work.exists():
            if any(work.iterdir()):
                self.errors.append(f"files left behind in {work}")
            work.rmdir()
        return values

    def report(self, values: dict) -> dict:
        table = PER_LAYER if self.args.trace else END_TO_END
        metrics = {}
        print(f"{self.args.workload} seed={self.args.seed} trace={self.args.trace} "
              f"units={self.attempted} failed={self.failed}")
        for entry in table:
            name, unit = entry[0], entry[1]
            value = values.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            why_zero = entry[2].get(self.args.workload) if self.args.trace else None
            note = f"  (does not apply: {why_zero})" if why_zero and not value else ""
            print(f"  {name:32s} {value:>16.6g} {unit}{note}")
        if not self.args.trace:
            error_rate = self.failed / self.attempted if self.attempted else 1.0
            print(f"  {'error_rate':32s} {error_rate:>16.6g} ratio")
        for error in self.errors:
            print(f"ERROR: {error}", file=sys.stderr)
        return {
            "correct": not self.errors and self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    workloads_module = load_program(root)
    if args.workload not in workloads_module.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads_module.WORKLOADS)}")
    run = Run(args, workloads_module, root)
    try:
        values = run.execute()
    finally:
        run.errors.extend(stop_child_processes())
    result = run.report(values)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
