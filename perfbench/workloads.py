"""The benchmark's workloads: seeded inputs, reference answers, units.

Each workload is a closed loop with one client: a unit starts only
after the previous one finished.  Inputs are generated here from the
seed (the program only receives them), and every unit's output is
compared with an answer computed in plain Python at set-up time, with
no MapReduce involved.  The program is driven through its public API
only: ``LocalJobRunner``, ``JobConf`` (via ``query_suggestion_job`` and
``sort_job``), ``enable_anti_combining``, ``JobService`` and
``RunStore``.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import Strategy, enable_anti_combining
from repro.mr import HashPartitioner, LocalJobRunner, split_records
from repro.obs import JobService, RunStore
from repro.workloads import PrefixPartitioner, query_suggestion_job, sort_job

#: Top-k of Query-Suggestion (the workload's default).
TOP_K = 5

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu "
    "ga ge gi go gu la le li lo lu ma me mi mo mu na ne ni no nu "
    "pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu"
).split()


# -- inputs ------------------------------------------------------------------
#: The *shape* of every input (how long each word is, how often each
#: query repeats, how long each line is) comes from this fixed seed, so
#: the record count and byte volume are the same for every workload
#: seed; ``--seed`` picks the letters, the words and the record order,
#: which is what varies how much the records share.
SHAPE_SEED = 20140622


def _zipf_counts(total: int, items: int, s: float) -> list[int]:
    """``total`` split over ``items`` ranks by Zipf weights (largest
    remainder rounding, so the counts sum to ``total`` exactly)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(items)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(items), key=lambda i: counts[i] - weights[i] * scale)
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _zipf_picker(rng: random.Random, items: list, s: float) -> Callable[[], Any]:
    cumulative = list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(len(items))))
    total = cumulative[-1]
    return lambda: items[bisect.bisect_left(cumulative, rng.random() * total)]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def query_log(seed: int, num_queries: int) -> list[tuple[int, str]]:
    """``(id, query)`` records from a Zipf-popular pool of distinct
    multi-word queries whose lead words are themselves Zipf-popular, so
    queries share prefixes and popular queries repeat.  Pool rank ``i``
    has the same word lengths and the same repeat count for every seed."""
    shape = random.Random(SHAPE_SEED)
    counts = [c for c in _zipf_counts(num_queries, int(num_queries * 0.9), 0.5) if c]
    shapes = [[shape.randint(2, 4) for _ in range(shape.randint(1, 4))] for _ in counts]
    rng = random.Random(seed)
    leads = {n: [_word(rng, n) for _ in range(100)] for n in (2, 3, 4)}
    pick_lead = {n: _zipf_picker(rng, words, 1.0) for n, words in leads.items()}
    pool: list[str] = []
    seen: set[str] = set()
    for syllables in shapes:
        while True:
            query = " ".join([pick_lead[syllables[0]]()] + [_word(rng, n) for n in syllables[1:]])
            if query not in seen:
                break
        seen.add(query)
        pool.append(query)
    log = [query for query, count in zip(pool, counts) for _ in range(count)]
    rng.shuffle(log)
    return list(enumerate(log))


def random_text(seed: int, num_lines: int, words_per_line: int = 10) -> list[tuple[int, str]]:
    """``(byte offset, line)`` records of Zipf-distributed words; word
    rank ``i`` has the same length for every seed."""
    shape = random.Random(SHAPE_SEED)
    lengths = [shape.randint(1, 4) for _ in range(1000)]
    rng = random.Random(seed)
    pick = _zipf_picker(rng, [_word(rng, n) for n in lengths], 0.8)
    records = []
    offset = 0
    for _ in range(num_lines):
        line = " ".join(pick() for _ in range(words_per_line))
        records.append((offset, line))
        offset += len(line) + 1
    return records


# -- reference answers -------------------------------------------------------
def top_k_suggestions(records: list[tuple[int, str]], k: int = TOP_K) -> dict[str, list[str]]:
    """Query-Suggestion by hand: for every prefix of a logged query, the
    ``k`` most frequent queries with that prefix (count descending,
    then lexicographic)."""
    frequency = Counter(query for _, query in records)
    by_prefix: dict[str, dict[str, int]] = defaultdict(dict)
    for query, count in frequency.items():
        for end in range(1, len(query) + 1):
            by_prefix[query[:end]][query] = count
    return {
        prefix: [q for q, _ in sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]]
        for prefix, counts in by_prefix.items()
    }


def check_suggestions(result, expected: dict[str, list[str]]) -> str | None:
    output = result.output
    if len(output) != len(expected):
        return f"{len(output)} output records, expected {len(expected)}"
    got = dict(output)
    if len(got) != len(output):
        return "a prefix was emitted more than once"
    for prefix, top in expected.items():
        if got.get(prefix) != top:
            return f"prefix {prefix!r}: got {got.get(prefix)!r}, expected {top!r}"
    return None


def check_sorted(result, expected: Counter) -> str | None:
    """Sort is correct when the output is the input multiset (keyed by
    line) and keys never decrease within a partition."""
    for partition, records in result.outputs_by_partition.items():
        for (left, _), (right, _) in zip(records, records[1:]):
            if right < left:
                return f"partition {partition}: {right!r} after {left!r}"
    if Counter(result.output) != expected:
        return "output multiset differs from the input"
    return None


# -- units -------------------------------------------------------------------
@dataclass
class UnitOutcome:
    """What one closed-loop request produced."""

    wall: float = 0.0
    records: int = 0
    shuffle_bytes: int = 0
    error: str | None = None
    results: list = field(default_factory=list)
    #: Workload-specific facts for the traced report.
    facts: dict = field(default_factory=dict)


class Workload:
    """One named workload: ``setup`` then repeated ``run_unit``."""

    name = ""
    #: Whether units run in forked pool workers (their CPU is only
    #: visible once the pool is closed and its workers reaped).
    forks_workers = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Extra ``LocalJobRunner`` arguments (the traced run passes a
        #: traced ``sleep`` so scheduler idle waits are visible).
        self.runner_kwargs: dict = {}
        #: Wraps the benchmark's own code inside a unit when tracing.
        self.bench_span: Callable[[str, Callable], Callable] = lambda name, fn: fn

    def instrument(self, tracer) -> None:
        """Route the benchmark's own calls inside a unit through ``tracer``."""
        self.runner_kwargs = {"sleep": tracer.traced("scheduler.idle_sleep", "executor.wait", time.sleep)}
        self.bench_span = lambda name, fn: tracer.traced(f"bench.{name}", "bench", fn)

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, unit: int) -> UnitOutcome:
        raise NotImplementedError

    def after_unit(self, outcome: UnitOutcome) -> None:
        """Checks made outside the unit's timed interval."""

    def close(self) -> None:
        """Release what set-up started."""

    def _run_jobs(self, jobs: dict, splits, check: Callable) -> UnitOutcome:
        outcome = UnitOutcome()
        runner = LocalJobRunner(**self.runner_kwargs)
        check = self.bench_span("check_output", check)
        start = time.perf_counter()
        for label, job in jobs.items():
            try:
                result = runner.run(job, splits)
            except Exception as exc:  # a failed unit is counted, never retried
                outcome.error = f"{label}: {type(exc).__name__}: {exc}"
                break
            error = check(result)
            if error is not None:
                outcome.error = f"{label}: {error}"
                break
            outcome.results.append(result)
            outcome.records += result.counters.get_int("map.input.records")
            outcome.shuffle_bytes += result.map_output_bytes
        outcome.wall = time.perf_counter() - start
        return outcome


class Fig9Prefix1(Workload):
    name = "fig9-prefix1"
    num_queries = 450
    num_splits = 4
    num_reducers = 4

    def setup(self) -> None:
        records = query_log(self.seed, self.num_queries)
        self.expected = top_k_suggestions(records)
        self.splits = split_records(records, num_splits=self.num_splits)
        job = query_suggestion_job(
            num_reducers=self.num_reducers, k=TOP_K, partitioner=PrefixPartitioner(1)
        )
        self.jobs = {"Original": job}
        for label, strategy in (
            ("EagerSH", Strategy.EAGER),
            ("LazySH", Strategy.LAZY),
            ("AdaptiveSH", Strategy.ADAPTIVE),
        ):
            self.jobs[label] = enable_anti_combining(job, strategy=strategy)

    def run_unit(self, unit: int) -> UnitOutcome:
        return self._run_jobs(
            self.jobs, self.splits, lambda result: check_suggestions(result, self.expected)
        )


class SortSpill(Workload):
    name = "sort-spill"
    num_lines = 6000
    num_splits = 8
    num_reducers = 4
    #: Small enough that every map task spills about 15 times (on the
    #: record-count limit) and both the map-side and the reduce-side
    #: merges take more than one pass.
    sort_buffer_bytes = 16 * 1024
    merge_factor = 4

    def setup(self) -> None:
        records = random_text(self.seed, self.num_lines)
        self.expected = Counter((line, offset) for offset, line in records)
        self.splits = split_records(records, num_splits=self.num_splits)
        self.jobs = {
            "Original": sort_job(
                num_reducers=self.num_reducers,
                sort_buffer_bytes=self.sort_buffer_bytes,
                merge_factor=self.merge_factor,
            )
        }

    def run_unit(self, unit: int) -> UnitOutcome:
        return self._run_jobs(
            self.jobs, self.splits, lambda result: check_sorted(result, self.expected)
        )


class ServedPool(Workload):
    name = "served-pool"
    num_queries = 800
    num_splits = 4
    num_reducers = 4
    max_workers = 2
    forks_workers = True
    experiment = "served-pool"
    #: The unit's wall time comes from the job record's timestamps, so
    #: polling only needs to be fast enough to keep the loop busy.
    poll_seconds = 0.002

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.service: JobService | None = None
        self.store_root: Path | None = None
        self._results: dict[int, Any] = {}

    def setup(self) -> None:
        records = query_log(self.seed, self.num_queries)
        self.expected = top_k_suggestions(records)
        self.splits = split_records(records, num_splits=self.num_splits)
        self.job = enable_anti_combining(
            query_suggestion_job(
                num_reducers=self.num_reducers,
                k=TOP_K,
                partitioner=HashPartitioner(),
                executor="process",
                max_workers=self.max_workers,
            ),
            strategy=Strategy.ADAPTIVE,
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store_root = Path(tempfile.mkdtemp(prefix="runstore-", dir=self.workdir))
        self.store = RunStore(self.store_root)
        self.service = JobService(
            self.store, experiments={self.experiment: self._dispatch}, workers=1, queue_depth=2
        ).start()
        self.shm_baseline = shm_blocks()

    def instrument(self, tracer) -> None:
        super().instrument(tracer)
        self.drive = tracer.traced("ServedPool.drive", "bench", self.drive)

    def _dispatch(self, unit: int = 0) -> None:
        self.drive(unit)

    def drive(self, unit: int) -> None:
        """The served job: what the service worker thread runs."""
        self._results[unit] = LocalJobRunner(**self.runner_kwargs).run(self.job, self.splits)

    def run_unit(self, unit: int) -> UnitOutcome:
        outcome = UnitOutcome()
        submitted = time.time()
        record = self.service.submit({"experiment": self.experiment, "params": {"unit": unit}})
        while record.state not in ("done", "failed"):
            time.sleep(self.poll_seconds)
        outcome.wall = record.finished_unix - submitted
        outcome.facts = {"record": record, "unit": unit}
        return outcome

    def after_unit(self, outcome: UnitOutcome) -> None:
        record = outcome.facts.pop("record")
        result = self._results.pop(outcome.facts["unit"], None)
        if record.state != "done" or result is None:
            outcome.error = f"job {record.job_id} {record.state}: {record.error}"
            return
        error = check_suggestions(result, self.expected)
        if error is not None:
            outcome.error = error
            return
        run_dir = self.store_root / record.run_id
        outcome.facts["bundle_bytes"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        outcome.facts["queue_wait_s"] = record.started_unix - record.submitted_unix
        status = self.store.load(record.run_id).status_name
        if status != "completed":
            outcome.error = f"run {record.run_id} recorded as {status}"
            return
        self.store.delete(record.run_id)
        leaked = shm_blocks() - self.shm_baseline
        if leaked:
            outcome.error = f"shared-memory blocks left behind: {sorted(leaked)[:3]}"
            return
        outcome.results.append(result)
        outcome.records = result.counters.get_int("map.input.records")
        outcome.shuffle_bytes = result.map_output_bytes

    def close(self) -> None:
        if self.service is not None:
            self.service.drain(timeout=60)
            self.service = None
        if self.store_root is not None:
            leftovers = [p.name for p in self.store_root.iterdir()]
            shutil.rmtree(self.store_root)
            self.store_root = None
            if leftovers:
                raise RuntimeError(f"run directories left behind: {leftovers[:3]}")


def shm_blocks() -> set[str]:
    """The program's shared-memory blocks currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-shm-")}
    except FileNotFoundError:
        return set()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig9Prefix1, SortSpill, ServedPool)
}
