"""Unit tests for the reduce task driver."""

from __future__ import annotations

import pytest

from repro.mr import counters as C
from repro.mr import fastpath
from repro.mr.api import Combiner, Mapper, Partitioner, Reducer
from repro.mr.comparators import (
    comparator_from_key,
    default_comparator,
    raw_bytes_comparator,
)
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter, TableCostMeter
from repro.mr.maptask import MapTask
from repro.mr.reducetask import ReduceTask


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        if isinstance(key, tuple):
            key = key[0]
        return key % num_partitions


class _CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, list(values))


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=Mapper,
        reducer=_CollectReducer,
        partitioner=_ModPartitioner(),
        num_reducers=2,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


def _run_map_tasks(job, splits):
    return [
        MapTask(job, f"map{i}").run(split) for i, split in enumerate(splits)
    ]


class TestReduceTask:
    def test_merges_segments_and_groups(self) -> None:
        job = _job()
        maps = _run_map_tasks(
            job, [[(0, "a"), (2, "b")], [(0, "c"), (4, "d")]]
        )
        segments = [m.segments[0] for m in maps if 0 in m.segments]
        result = ReduceTask(job, 0).run(segments)
        assert result.output == [(0, ["a", "c"]), (2, ["b"]), (4, ["d"])]
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == 3
        assert result.counters.get_int(C.REDUCE_INPUT_RECORDS) == 4

    def test_empty_input(self) -> None:
        result = ReduceTask(_job(), 1).run([])
        assert result.output == []
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == 0

    def test_shuffle_bytes_accounted(self) -> None:
        job = _job()
        maps = _run_map_tasks(job, [[(0, "payload")]])
        segments = [maps[0].segments[0]]
        result = ReduceTask(job, 0).run(segments)
        assert result.shuffle_bytes == segments[0].size_bytes

    def test_staging_when_fetch_exceeds_buffer(self) -> None:
        job = _job(reduce_buffer_bytes=1024)
        big_split = [(0, "x" * 100) for _ in range(100)]
        maps = _run_map_tasks(job, [big_split])
        segments = [maps[0].segments[0]]
        result = ReduceTask(job, 0).run(segments)
        # staged: fetched data written to the reduce task's local disk
        assert result.counters.get(C.DISK_WRITE_BYTES) > 0
        assert result.output[0][0] == 0

    def test_no_staging_when_fetch_fits(self) -> None:
        job = _job(reduce_buffer_bytes=1 << 20)
        maps = _run_map_tasks(job, [[(0, "small")]])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        assert result.counters.get(C.DISK_WRITE_BYTES) == 0

    def test_multi_pass_merge(self) -> None:
        job = _job(merge_factor=2)
        splits = [[(0, f"s{i}")] for i in range(5)]
        maps = _run_map_tasks(job, splits)
        segments = [m.segments[0] for m in maps]
        result = ReduceTask(job, 0).run(segments)
        # value order within a key is unspecified (as in Hadoop), but
        # the group must be complete and delivered in one reduce call
        assert len(result.output) == 1
        key, values = result.output[0]
        assert key == 0
        assert sorted(values) == [f"s{i}" for i in range(5)]

    def test_reduce_output_counters(self) -> None:
        job = _job()
        maps = _run_map_tasks(job, [[(0, "a")]])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        assert result.counters.get_int(C.REDUCE_OUTPUT_RECORDS) == 1
        assert result.counters.get(C.HDFS_WRITE_BYTES) > 0


class TestSecondarySort:
    def test_grouping_comparator_drives_reduce_calls(self) -> None:
        """Composite (key, seq) records grouped by key, sorted by seq."""

        class SecondaryMapper(Mapper):
            def map(self, key, value, context):
                context.write((value[0], value[1]), value[1])

        job = _job(
            mapper=SecondaryMapper,
            grouping_comparator=comparator_from_key(lambda key: key[0]),
        )
        split = [(i, (0, seq)) for i, seq in enumerate([3, 1, 2])]
        maps = _run_map_tasks(job, [split])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        # one reduce call for the whole group, values in seq order
        assert len(result.output) == 1
        key, values = result.output[0]
        assert key[0] == 0
        assert values == [1, 2, 3]


# -- raw-frame merge passes: byte identity with the reference tier ---------

#: Measured wall-clock counters: the only ones a tier may change.
_MEASURED = ("cpu.map.", "cpu.reduce.", "cpu.combine.", "cpu.partition.",
             "cpu.codec.")


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


def _reduce_on_tier(tier: str, **kwargs):
    """Six map tasks into one partition, reduced with merge factor 2 on
    one tier; returns the reduce output and analytic counters."""
    import random

    rng = random.Random(5)
    # Keys repeat across and within splits (even: all in partition 0).
    splits = [
        [(rng.randrange(40) * 2, split * 100 + i) for i in range(30)]
        for split in range(6)
    ]
    fast, batch = {"reference": (False, False), "batch": (True, True)}[tier]
    job = _job(merge_factor=2, sort_buffer_bytes=1024, **kwargs)
    with fastpath.forced(fast), fastpath.batch_forced(batch):
        maps = _run_map_tasks(job, splits)
        result = ReduceTask(job, 0).run([m.segments[0] for m in maps])
    analytic = {
        name: value
        for name, value in result.counters.as_dict().items()
        if not name.startswith(_MEASURED)
    }
    return result.output, analytic


class TestRawFrameMergePasses:
    @pytest.mark.parametrize(
        "comparator",
        [
            default_comparator,
            comparator_from_key(lambda key: -key, name="descending"),
            raw_bytes_comparator,
        ],
        ids=["natural", "keyed", "raw-bytes"],
    )
    @pytest.mark.parametrize("combiner", [None, _SumCombiner])
    def test_reduce_output_matches_reference_tier(
        self, comparator, combiner
    ) -> None:
        kwargs = dict(comparator=comparator, combiner=combiner)
        reference = _reduce_on_tier("reference", **kwargs)
        batched = _reduce_on_tier("batch", **kwargs)
        # Six runs, merge factor 2: the reduce side merged in passes,
        # and the passes wrote to the reduce task's local disk.
        assert reference[1][C.REDUCE_MERGE_SEGMENTS] == 6
        assert reference[1][C.DISK_WRITE_BYTES] > 0
        assert batched == reference

    @pytest.mark.parametrize("codec", [None, "gzip"])
    def test_merge_pass_compression_is_metered(self, codec) -> None:
        """A reduce-side pass charges its compression to the codec CPU
        counter, as the map side does."""
        job = _job(
            merge_factor=2,
            map_output_codec=codec,
            cost_meter=TableCostMeter({"compress": 1.0}),
        )
        maps = _run_map_tasks(job, [[(0, f"s{i}")] for i in range(3)])
        result = ReduceTask(job, 0).run([m.segments[0] for m in maps])
        # Three runs, factor 2: exactly one pass, one compression.
        assert result.counters.get(C.CPU_CODEC_SECONDS) == 1.0
