"""Zone-map pruning end to end: sorted data, sort styles, IO accounting."""

import pytest

from repro import Cluster


@pytest.fixture
def sorted_table():
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=100)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE events (ts int, region int, amount float) "
        "DISTSTYLE EVEN SORTKEY(ts)"
    )
    cluster.register_inline_source(
        "inline://events",
        [f"{i}|{i % 8}|{(i % 13) * 1.5}" for i in range(8000)],
    )
    s.execute("COPY events FROM 'inline://events'")
    return cluster, s


class TestPruning:
    def test_selective_range_skips_most_blocks(self, sorted_table):
        _, s = sorted_table
        r = s.execute("SELECT count(*) FROM events WHERE ts BETWEEN 7900 AND 7999")
        assert r.scalar() == 100
        stats = r.stats.scan
        assert stats.blocks_skipped > stats.blocks_read * 5

    def test_unselective_scan_reads_everything(self, sorted_table):
        _, s = sorted_table
        r = s.execute("SELECT count(*) FROM events WHERE ts >= 0")
        assert r.scalar() == 8000
        assert r.stats.scan.blocks_skipped == 0

    def test_equality_pinpoints_one_block_per_slice(self, sorted_table):
        _, s = sorted_table
        r = s.execute("SELECT amount FROM events WHERE ts = 4242")
        assert r.rowcount == 1
        # At most one block per slice per live chain (ts + amount = 2).
        assert r.stats.scan.blocks_read <= 8

    def test_predicate_on_unsorted_column_cannot_prune(self, sorted_table):
        _, s = sorted_table
        r = s.execute("SELECT count(*) FROM events WHERE region = 3")
        assert r.scalar() == 1000
        assert r.stats.scan.blocks_skipped == 0

    def test_pruning_reduces_bytes_not_just_blocks(self, sorted_table):
        cluster, s = sorted_table
        # Bytes are only read on a decode-cache miss, and COPY's
        # statistics pass leaves every block resident: read cold.
        cluster.block_cache.clear()
        narrow = s.execute("SELECT ts FROM events WHERE ts < 100")
        cluster.block_cache.clear()
        full = s.execute("SELECT ts FROM events")
        assert narrow.stats.scan.bytes_read < full.stats.scan.bytes_read / 5

    def test_skipping_is_semantically_invisible(self, sorted_table):
        _, s = sorted_table
        pruned = s.execute(
            "SELECT sum(amount) FROM events WHERE ts BETWEEN 1000 AND 2000"
        ).scalar()
        # Same computation forced through an unprunable expression.
        unpruned = s.execute(
            "SELECT sum(amount) FROM events WHERE ts + 0 BETWEEN 1000 AND 2000"
        ).scalar()
        assert pruned == pytest.approx(unpruned)


class TestInterleavedEndToEnd:
    @pytest.fixture
    def multi_dim(self):
        cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=64)
        s = cluster.connect()
        s.execute(
            "CREATE TABLE grid (x int, y int, v int) DISTSTYLE EVEN "
            "INTERLEAVED SORTKEY(x, y)"
        )
        lines = []
        n = 0
        for x in range(64):
            for y in range(64):
                lines.append(f"{x}|{y}|{n}")
                n += 1
        cluster.register_inline_source("inline://grid", lines)
        s.execute("COPY grid FROM 'inline://grid'")
        return cluster, s

    def test_prunes_on_leading_dimension(self, multi_dim):
        _, s = multi_dim
        r = s.execute("SELECT count(*) FROM grid WHERE x < 4")
        assert r.scalar() == 4 * 64
        assert r.stats.scan.blocks_skipped > 0

    def test_prunes_on_trailing_dimension_too(self, multi_dim):
        # The paper's z-curve claim: "still provides utility if leading
        # columns are not specified."
        _, s = multi_dim
        r = s.execute("SELECT count(*) FROM grid WHERE y < 4")
        assert r.scalar() == 4 * 64
        assert r.stats.scan.blocks_skipped > 0

    def test_compound_key_cannot_prune_trailing_only(self):
        cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=64)
        s = cluster.connect()
        s.execute(
            "CREATE TABLE grid (x int, y int, v int) DISTSTYLE EVEN "
            "SORTKEY(x, y)"
        )
        lines = [f"{x}|{y}|{0}" for x in range(64) for y in range(64)]
        cluster.register_inline_source("inline://grid", lines)
        s.execute("COPY grid FROM 'inline://grid'")
        r = s.execute("SELECT count(*) FROM grid WHERE y < 4")
        assert r.scalar() == 4 * 64
        # y is uncorrelated with block order under a compound (x, y) key.
        assert r.stats.scan.blocks_skipped == 0
