"""Unit coverage for the memory governor and spill structures
(:mod:`repro.exec.spill`) and the accounted temp files backing them
(:mod:`repro.storage.spillfile`)."""

from functools import partial

import pytest

from repro.errors import DiskMediaError, SpillCapacityError
from repro.exec.context import recovered
from repro.exec.spill import (
    MemoryBudget,
    SpillableAggregateStates,
    SpillableHashTable,
    SpillableSorter,
    partition_of,
    row_nbytes,
    value_nbytes,
)
from repro.faults import FaultInjector, FaultPlan
from repro.storage.disk import SimulatedDisk
from repro.storage.spillfile import SpillManager


def _factory(disk=None, manager=None, injector=None):
    manager = manager or SpillManager(injector=injector)
    disk = disk or SimulatedDisk("unit-disk")
    return manager.file_factory(disk), manager, disk


class _SumAgg:
    """Minimal aggregate with the merge() contract finish() relies on."""

    @staticmethod
    def merge(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a + b


class TestMemoryBudget:
    def test_charge_release_and_peak(self):
        budget = MemoryBudget(100)
        budget.charge(60)
        budget.charge(60)
        assert budget.over_budget
        assert budget.peak_bytes == 120
        budget.release(80)
        assert budget.used_bytes == 40
        assert not budget.over_budget
        budget.release(1000)  # floors at zero
        assert budget.used_bytes == 0
        assert budget.peak_bytes == 120

    def test_unlimited_budget_never_over(self):
        budget = MemoryBudget(None)
        budget.charge(10**9)
        assert not budget.over_budget
        assert budget.peak_bytes == 10**9

    def test_size_estimates_are_deterministic(self):
        assert value_nbytes(None) == 8
        assert value_nbytes(True) == 8
        assert value_nbytes(7) == 28
        assert value_nbytes(1.5) == 24
        assert value_nbytes("ab") == 51
        assert value_nbytes((1, "a")) == 24 + 28 + 50
        assert row_nbytes((1, 2)) == 24 + 56
        # Stable hash partitioning: same key, same partition, in range.
        assert partition_of(("k", 1), 8) == partition_of(("k", 1), 8)
        assert 0 <= partition_of(("k", 1), 8) < 8


class TestSpillableHashTable:
    def _reference(self, pairs):
        table = {}
        for key, row in pairs:
            table.setdefault(key, []).append(row)
        return table

    def _pairs(self, n=300):
        return [((i % 23,), (i, i * 3)) for i in range(n)]

    def test_in_memory_when_under_budget(self):
        factory, manager, _ = _factory()
        table = SpillableHashTable(MemoryBudget(None), factory, "t")
        pairs = self._pairs(50)
        for key, row in pairs:
            table.insert(key, row)
        assert table.build() == self._reference(pairs)
        assert not table.spilled
        assert manager.bytes_written == 0

    def test_spilled_build_matches_in_memory_exactly(self):
        factory, manager, disk = _factory()
        budget = MemoryBudget(1024)
        table = SpillableHashTable(budget, factory, "t")
        pairs = self._pairs()
        for key, row in pairs:
            table.insert(key, row)
        built = table.build()
        reference = self._reference(pairs)
        # Probe output depends only on lookups and per-key row-list
        # order, both preserved (key *iteration* order is partition
        # order — why FULL joins, which walk the table, never spill).
        assert built == reference
        assert table.spilled
        assert table.partitions_spilled > 0
        assert table.bytes_written > 0
        assert table.bytes_read == table.bytes_written
        assert disk.used_bytes == manager.live_bytes  # still accounted
        table.done()
        manager.release_all()
        assert disk.used_bytes == 0

    def test_budget_bounded_during_build(self):
        factory, _, _ = _factory()
        budget = MemoryBudget(1024)
        table = SpillableHashTable(budget, factory, "t")
        pairs = self._pairs(500)
        total = sum(row_nbytes(k) + row_nbytes(r) for k, r in pairs)
        for key, row in pairs:
            table.insert(key, row)
        table.build()
        table.done()
        # Grace-hash profile: the peak is one resident partition, a
        # fraction of the full working set an in-memory build holds.
        assert budget.peak_bytes < total // 3
        assert budget.used_bytes == 0


class TestSpillableAggregateStates:
    def _run(self, limit):
        factory, manager, _ = _factory()
        states = SpillableAggregateStates(
            MemoryBudget(limit), factory, "agg", [_SumAgg()]
        )
        for i in range(400):
            key = (i % 31,)
            entry = states.get(key)
            if entry is None:
                entry = [0]
                states[key] = entry
            entry[0] += i
        finished = states.finish()
        manager.release_all()
        return states, finished

    def _reference(self):
        out = {}
        for i in range(400):
            out.setdefault((i % 31,), [0])[0] += i
        return out

    def test_spilled_finish_matches_unbounded(self):
        states, finished = self._run(limit=512)
        reference = self._reference()
        assert states.spilled
        assert finished == reference
        # First-seen group order survives the flush/merge round trip.
        assert list(finished) == list(reference)

    def test_unspilled_finish_returns_self(self):
        states, finished = self._run(limit=None)
        assert finished is states
        assert not states.spilled

    def test_post_flush_mutation_updates_spilled_generation(self):
        """States spill by reference: accumulating into an entry the
        caller still holds after a flush updates the spilled bytes."""
        factory, manager, _ = _factory()
        states = SpillableAggregateStates(
            MemoryBudget(60), factory, "agg", [_SumAgg()]
        )
        entry = [1]
        states[("k0",)] = entry
        i = 1
        while not states.spilled:  # over budget once a generation fills
            states[(f"k{i}",)] = [10]
            i += 1
        assert not states  # map cleared by the flush
        entry[0] += 5  # caller-side accumulation after the flush
        finished = states.finish()
        manager.release_all()
        assert finished[("k0",)] == [6]
        assert finished[(f"k{i - 1}",)] == [10]
        # First-seen order survives the round trip.
        assert list(finished) == [(f"k{j}",) for j in range(i)]


class TestSpillableSorter:
    def test_external_merge_matches_in_memory_stable_sort(self):
        factory, manager, _ = _factory()
        rows = [(i * 7 % 50, i) for i in range(400)]
        key = lambda row: row[0]
        sorter = SpillableSorter(MemoryBudget(1024), factory, "sort")
        merged = sorter.sort(rows, lambda r: sorted(r, key=key), key)
        assert merged == sorted(rows, key=key)  # sorted() is stable
        assert sorter.spilled
        assert sorter.partitions_spilled > 1  # real multi-run merge
        manager.release_all()

    def test_under_budget_sorts_in_memory(self):
        factory, manager, _ = _factory()
        rows = [(3, "a"), (1, "b"), (2, "c")]
        sorter = SpillableSorter(MemoryBudget(None), factory, "sort")
        out = sorter.sort(rows, lambda r: sorted(r), lambda row: row)
        assert out == sorted(rows)
        assert not sorter.spilled
        assert manager.bytes_written == 0


class TestSpillFileAccounting:
    def test_used_bytes_include_live_temp_space(self):
        factory, manager, disk = _factory()
        spill_file = factory("a")
        spill_file.write([(1,)], 100)
        spill_file.write([(2,)], 50)
        assert disk.used_bytes == 150
        assert manager.live_bytes == 150
        assert spill_file.read() == [(1,), (2,)]
        spill_file.release()
        spill_file.release()  # idempotent
        assert disk.used_bytes == 0
        assert manager.live_bytes == 0

    def test_capacity_exhaustion_raises_typed_error(self):
        disk = SimulatedDisk("small", capacity_bytes=120)
        factory, manager, _ = _factory(disk=disk)
        spill_file = factory("a")
        spill_file.write([(1,)], 100)
        with pytest.raises(SpillCapacityError):
            spill_file.write([(2,)], 100)
        manager.release_all()
        assert disk.used_bytes == 0

    def test_disk_full_window_raises_typed_error(self):
        injector = FaultInjector(FaultPlan(seed=9).add_disk_full_window())
        factory, manager, disk = _factory(injector=injector)
        with pytest.raises(SpillCapacityError, match="disk_full"):
            factory("a").write([(1,)], 10)
        assert disk.used_bytes == 0
        assert any(e.kind == "disk_full" for e in injector.log)

    def _flaky(self, **manager):
        injector = FaultInjector(
            FaultPlan(seed=11).disk_media_errors(0.0, 1e9, rate=0.3)
        )
        disk = SimulatedDisk("flaky")
        disk.attach_injector(injector)
        manager = SpillManager(injector, **manager)
        return manager.create(disk, "a"), manager, disk, injector

    def test_media_errors_retried_with_backoff(self):
        """Spill IO recovers through the one helper every recoverable unit
        uses: each media fault is handed to the recovery handler and the
        write or read runs again, which the disk counts only once."""
        asked = []
        handler = lambda exc: asked.append(exc) or True  # noqa: E731
        spill_file, manager, disk, injector = self._flaky(
            recover=partial(recovered, handler)
        )
        for _ in range(10):  # enough draws to hit the 30% rate
            spill_file.write([(1,)], 10)
            spill_file.read()
        kinds = [e.kind for e in injector.log]
        assert asked and all(isinstance(e, DiskMediaError) for e in asked)
        assert kinds.count("disk_media_window") == len(asked)
        assert not any(kind.startswith("recovery:") for kind in kinds)
        assert (disk.stats.write_ops, disk.stats.bytes_written) == (10, 100)
        assert disk.stats.read_ops == 10
        manager.release_all()
        assert disk.used_bytes == 0

    def test_media_error_without_a_handler_surfaces_at_once(self):
        spill_file, manager, disk, injector = self._flaky()
        with pytest.raises(DiskMediaError):
            for _ in range(10):
                spill_file.write([(1,)], 10)
                spill_file.read()
        assert [e.kind for e in injector.log] == ["disk_media_window"]
        manager.release_all()
        assert disk.used_bytes == 0
