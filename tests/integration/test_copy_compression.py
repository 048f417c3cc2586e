"""COPY ingest: sources, formats, auto-compression, statistics."""

import pytest

from repro import Cluster
from repro.compression.analyzer import CompressionAnalyzer
from repro.errors import CopyError


@pytest.fixture
def copy_cluster():
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=128)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE logs (seq bigint, region varchar(16), hits int, "
        "rate float, ok boolean, day date) DISTKEY(seq) SORTKEY(seq)"
    )
    return cluster, s


def lines_for(n):
    return [
        f"{i}|region-{i % 4}|{i % 100}|{(i % 7) * 0.5}|{'t' if i % 2 else 'f'}|"
        f"2015-0{1 + i % 9}-15"
        for i in range(n)
    ]


class TestCopyBasics:
    def test_inline_source(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(500))
        r = s.execute("COPY logs FROM 'inline://logs'")
        assert r.rowcount == 500
        assert s.execute("SELECT count(*) FROM logs").scalar() == 500

    def test_unregistered_source_rejected(self, copy_cluster):
        _, s = copy_cluster
        with pytest.raises(CopyError):
            s.execute("COPY logs FROM 's3://nowhere/file'")

    def test_prefix_source_provider(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_source(
            "gen://", lambda uri: iter(lines_for(int(uri.rsplit("/", 1)[1])))
        )
        r = s.execute("COPY logs FROM 'gen://logs/250'")
        assert r.rowcount == 250

    def test_custom_delimiter_and_null_marker(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source(
            "inline://csv", ["1,east,5,0.5,t,2015-01-01", "2,\\N,6,0.5,f,2015-01-02"]
        )
        s.execute("COPY logs FROM 'inline://csv' DELIMITER ',' NULL AS '\\N'")
        r = s.execute("SELECT region FROM logs ORDER BY seq")
        assert r.column("region") == ["east", None]

    def test_field_count_mismatch(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://bad", ["1|east|5"])
        with pytest.raises(CopyError) as err:
            s.execute("COPY logs FROM 'inline://bad'")
        assert "line 1" in str(err.value)

    def test_bad_value_reports_line_number(self, copy_cluster):
        cluster, s = copy_cluster
        lines = lines_for(3) + ["oops|r|1|0.5|t|2015-01-01"]
        cluster.register_inline_source("inline://bad2", lines)
        with pytest.raises(CopyError) as err:
            s.execute("COPY logs FROM 'inline://bad2'")
        assert "line 4" in str(err.value)

    def test_column_subset(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://two", ["5|west", "6|east"])
        s.execute("COPY logs (seq, region) FROM 'inline://two'")
        r = s.execute("SELECT seq, region, hits FROM logs ORDER BY seq")
        assert r.rows == [(5, "west", None), (6, "east", None)]

    def test_json_format(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source(
            "inline://json",
            [
                '{"seq": 1, "region": "eu", "hits": 9, "rate": 0.5, '
                '"ok": true, "day": "2015-03-01"}',
                '{"seq": 2, "region": "us"}',
            ],
        )
        s.execute("COPY logs FROM 'inline://json' JSON")
        r = s.execute("SELECT seq, region, hits, ok FROM logs ORDER BY seq")
        assert r.rows[0] == (1, "eu", 9, True)
        assert r.rows[1] == (2, "us", None, None)

    def test_malformed_json_rejected(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://badjson", ["{not json"])
        with pytest.raises(CopyError):
            s.execute("COPY logs FROM 'inline://badjson' JSON")

    def test_copy_sorts_on_load(self, copy_cluster):
        cluster, s = copy_cluster
        # Enough rows that each slice seals several blocks, so sorting
        # produces prunable value ranges.
        shuffled = lines_for(3000)
        import random

        random.Random(5).shuffle(shuffled)
        cluster.register_inline_source("inline://shuffled", shuffled)
        s.execute("COPY logs FROM 'inline://shuffled'")
        # Sorted-on-load makes zone maps effective immediately.
        r = s.execute("SELECT count(*) FROM logs WHERE seq >= 2990")
        assert r.scalar() == 10
        assert r.stats.scan.blocks_skipped > 0


class TestAutoCompression:
    def test_compupdate_picks_codecs_on_first_load(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(2000))
        s.execute("COPY logs FROM 'inline://logs'")
        table = cluster.catalog.table("logs")
        encodings = {c.name: c.encode for c in table.columns}
        assert encodings["seq"] in ("delta", "delta32k", "mostly16", "mostly32")
        assert encodings["region"] != "raw"  # 4 distinct strings: dictionary-ish

    def test_compupdate_off_keeps_raw(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(500))
        s.execute("COPY logs FROM 'inline://logs' COMPUPDATE OFF")
        table = cluster.catalog.table("logs")
        assert all(c.encode is None for c in table.columns)

    def test_explicit_encode_respected(self, copy_cluster):
        cluster, _ = copy_cluster
        s = cluster.connect()
        s.execute("CREATE TABLE enc (a bigint ENCODE runlength, b bigint)")
        cluster.register_inline_source(
            "inline://enc", [f"{i}|{i}" for i in range(1000)]
        )
        s.execute("COPY enc FROM 'inline://enc'")
        table = cluster.catalog.table("enc")
        assert table.column("a").encode == "runlength"  # user's dusty knob
        assert table.column("b").encode in ("delta", "delta32k", "mostly16", "mostly32")

    def test_second_load_does_not_reanalyze(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(500))
        s.execute("COPY logs FROM 'inline://logs'")
        first = {c.name: c.encode for c in cluster.catalog.table("logs").columns}
        cluster.register_inline_source("inline://more", lines_for(100))
        s.execute("COPY logs FROM 'inline://more'")
        second = {c.name: c.encode for c in cluster.catalog.table("logs").columns}
        assert first == second

    def test_compression_reduces_footprint(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(4000))
        s.execute("COPY logs FROM 'inline://logs'")
        compressed = cluster.table_bytes("logs")
        # Same data without compression.
        s.execute(
            "CREATE TABLE logs_raw (seq bigint, region varchar(16), hits int,"
            " rate float, ok boolean, day date)"
        )
        cluster.register_inline_source("inline://logs2", lines_for(4000))
        s.execute("COPY logs_raw FROM 'inline://logs2' COMPUPDATE OFF")
        raw = cluster.table_bytes("logs_raw")
        assert compressed < raw * 0.6

    def test_analyze_compression_report(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(1000))
        s.execute("COPY logs FROM 'inline://logs' COMPUPDATE OFF")
        r = s.execute("ANALYZE COMPRESSION logs")
        assert r.columns == ["column", "encoding", "est_reduction_ratio"]
        assert len(r.rows) == 6
        by_column = {row[0]: row for row in r.rows}
        assert by_column["seq"][1] != "raw"


    def test_analyze_compression_samples_visible_rows_of_one_replica(
        self, monkeypatch
    ):
        cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
        s = cluster.connect()
        s.execute("CREATE TABLE dim (id int, name varchar(8)) DISTSTYLE ALL")
        s.execute(
            "INSERT INTO dim VALUES "
            + ",".join(f"({i}, 'n{i % 7}')" for i in range(200))
        )
        s.execute("DELETE FROM dim WHERE id >= 150")
        sampled = []
        analyze = CompressionAnalyzer.analyze

        def spy(self, specs, vectors):
            sampled.append([len(v) for v in vectors])
            return analyze(self, specs, vectors)

        monkeypatch.setattr(CompressionAnalyzer, "analyze", spy)
        s.execute("BEGIN")
        s.execute("INSERT INTO dim VALUES (500, 'own')")
        assert len(s.execute("ANALYZE COMPRESSION dim").rows) == 2
        count = s.execute("SELECT count(*) FROM dim").scalar()
        assert count == 151
        assert sampled == [[count, count]]


class TestStatistics:
    def test_statupdate_refreshes_stats(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(700))
        s.execute("COPY logs FROM 'inline://logs'")
        stats = cluster.catalog.table("logs").statistics
        assert stats.row_count == 700
        assert not stats.stale
        assert stats.columns["seq"].low == 0
        assert stats.columns["seq"].high == 699
        ndv = stats.columns["region"].distinct_count
        assert 3 <= ndv <= 5

    def test_statupdate_off(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(100))
        s.execute("COPY logs FROM 'inline://logs' STATUPDATE OFF")
        assert cluster.catalog.table("logs").statistics.stale

    def test_analyze_statement(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source("inline://logs", lines_for(100))
        s.execute("COPY logs FROM 'inline://logs' STATUPDATE OFF")
        s.execute("ANALYZE logs")
        assert cluster.catalog.table("logs").statistics.row_count == 100

    def test_null_fraction(self, copy_cluster):
        cluster, s = copy_cluster
        cluster.register_inline_source(
            "inline://n", ["1|", "2|x", "3|", "4|"],
        )
        s.execute("COPY logs (seq, region) FROM 'inline://n'")
        stats = cluster.catalog.table("logs").statistics
        assert stats.columns["region"].null_fraction == pytest.approx(0.75)
