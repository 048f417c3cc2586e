"""Unit tests for the operate-on-compressed scan path (DESIGN.md §13).

Covers the EncodedColumn kernels against hand-built blocks (dictionary
masks with escapes and NULL splicing, RLE folds, MOSTLY image
comparisons, late-materializing gather), the zone-map ``must_satisfy``
dual, the decode cache's non-decoding ``peek``, the ``accumulate_run``
fold contracts, and the observable surface: ``svl_scan_encoding``, the
svl_query_summary columns, EXPLAIN ANALYZE annotations and
``SET enable_encoded_scan`` validation.
"""

import pytest

from repro import Cluster
from repro.compression import codec_by_name
from repro.datatypes import INTEGER
from repro.errors import AnalysisError
from repro.exec.encoded import EncodedColumn, supports_block
from repro.sql.functions import make_aggregate
from repro.storage.block import Block
from repro.storage.blockcache import BlockDecodeCache
from repro.storage.chain import ScanStats
from repro.storage.zonemap import ZoneMap


def _block(values, codec, sql_type=INTEGER):
    return Block.build(values, sql_type, codec_by_name(codec))


def _decoded_mask(values, fn):
    return [v is not None and bool(fn(v)) for v in values]


class TestEncodedColumnKernels:
    def test_supports_block_whitelist(self):
        assert supports_block(_block([1, 1, 2], "runlength"))
        assert supports_block(_block([1, 1, 2], "bytedict"))
        assert not supports_block(_block([1, 1, 2], "raw"))
        assert not supports_block(_block([1, 2, 3], "delta"))

    def test_bytedict_mask_with_nulls(self):
        values = [3, None, 5, 3, None, 7, 5]
        col = EncodedColumn(_block(values, "bytedict"))
        assert col.compare_mask("=", 3) == _decoded_mask(
            values, lambda v: v == 3
        )
        assert col.compare_mask("<", 6) == _decoded_mask(
            values, lambda v: v < 6
        )

    def test_bytedict_mask_with_escapes(self):
        # >255 distinct values: the tail is stored as escape exceptions.
        values = list(range(300))
        col = EncodedColumn(_block(values, "bytedict"))
        assert col.vector.payload[2], "test needs dictionary overflow"
        assert col.compare_mask(">=", 280) == _decoded_mask(
            values, lambda v: v >= 280
        )

    def test_rle_mask_and_degenerate_runs(self):
        values = [1] * 5 + [2] * 4 + [None] * 2 + [3]
        col = EncodedColumn(_block(values, "runlength"))
        assert col.compare_mask("<>", 2) == _decoded_mask(
            values, lambda v: v != 2
        )
        # Degenerate: every run length 1.
        distinct = [9, 8, 7, 6]
        col = EncodedColumn(_block(distinct, "runlength"))
        assert col.compare_mask("<=", 7) == _decoded_mask(
            distinct, lambda v: v <= 7
        )

    def test_mostly_mask_including_exceptions(self):
        from repro.datatypes import BIGINT

        values = [5, -3, 10_000_000, 40, None]  # one mostly8 exception
        col = EncodedColumn(_block(values, "mostly8", BIGINT))
        assert col.compare_mask(">", 4) == _decoded_mask(
            values, lambda v: v > 4
        )

    def test_mostly_inexact_literal_falls_back(self):
        col = EncodedColumn(_block([1, 2, 3], "mostly8", INTEGER))
        # Unsupported literal type for the image map: refuse, don't guess.
        assert col.compare_mask("=", "nope") is None

    def test_zone_map_short_circuits(self):
        stats = ScanStats()
        col = EncodedColumn(_block([5] * 8, "runlength"), stats)
        assert col.compare_mask("=", 5) == [True] * 8     # must_satisfy
        assert col.compare_mask(">", 100) == [False] * 8  # might_satisfy
        assert stats.encoding["runlength"][3] == 2        # ENC_MASKS

    def test_is_null_mask(self):
        values = [1, None, 1, None]
        col = EncodedColumn(_block(values, "runlength"))
        assert col.is_null_mask() == [False, True, False, True]
        assert col.is_null_mask(negated=True) == [True, False, True, False]

    def test_gather_matches_decoded(self):
        for codec, values in (
            ("bytedict", [4, None, 4, 6, None, 8, 6]),
            ("runlength", [1, 1, None, 2, 2, 2, None]),
            ("mostly16", [500, None, -500, 0, 7]),
        ):
            col = EncodedColumn(_block(values, codec))
            selection = [0, 2, 3, 5, 6][: len(values) - 2]
            assert col.gather(selection) == [values[i] for i in selection], (
                codec
            )

    def test_gather_dict_overflow_falls_back_to_decode(self):
        values = list(range(300))
        col = EncodedColumn(_block(values, "bytedict"))
        assert col.gather([0, 299]) == [0, 299]

    def test_list_protocol_materializes(self):
        values = [2, 2, None, 3]
        col = EncodedColumn(_block(values, "runlength"))
        assert len(col) == 4
        assert list(col) == values
        assert col[3] == 3

    def test_foldable_runs_rejects_floats(self):
        from repro.datatypes import DOUBLE

        ints = EncodedColumn(_block([1, 1, 2], "runlength"))
        assert ints.is_rle and ints.foldable_runs()
        floats = EncodedColumn(_block([1.5, 1.5], "runlength", DOUBLE))
        assert not floats.foldable_runs()


class TestZoneMapMustSatisfy:
    def test_operators(self):
        zone = ZoneMap.build([5, 9, 7])
        assert zone.must_satisfy("<", 10)
        assert not zone.must_satisfy("<", 9)
        assert zone.must_satisfy("<=", 9)
        assert zone.must_satisfy(">", 4)
        assert zone.must_satisfy(">=", 5)
        assert zone.must_satisfy("<>", 4) and zone.must_satisfy("<>", 10)
        assert not zone.must_satisfy("<>", 7)
        assert not zone.must_satisfy("=", 7)
        assert ZoneMap.build([3, 3, 3]).must_satisfy("=", 3)

    def test_nulls_and_edge_cases_refuse(self):
        assert not ZoneMap.build([5, None, 9]).must_satisfy("<", 10)
        assert not ZoneMap.build([None, None]).must_satisfy("=", None)
        assert not ZoneMap.build([]).must_satisfy("<", 1)
        assert not ZoneMap.build([1]).must_satisfy("=", None)
        assert not ZoneMap.build([1]).must_satisfy("LIKE", 1)


class TestDecodeCachePeek:
    def test_peek_never_decodes_and_counts_no_miss(self):
        cache = BlockDecodeCache(capacity=4)
        block = _block([1, 2, 3], "raw")
        block.read_vector = lambda *a, **k: pytest.fail(
            "peek must not decode"
        )
        assert cache.peek(block) is None
        assert cache.misses == 0 and cache.hits == 0

    def test_peek_hit_after_lookup(self):
        cache = BlockDecodeCache(capacity=4)
        block = _block([1, 2, 3], "raw")
        cache.lookup(block)
        assert cache.peek(block) == [1, 2, 3]
        assert cache.hits == 1 and cache.misses == 1


class TestAccumulateRun:
    def test_folds_match_looped_accumulation(self):
        for name, value, count in (
            ("count", 7, 5),
            ("sum", 7, 5),
            ("min", 7, 5),
            ("max", 7, 5),
        ):
            agg = make_aggregate(name)
            looped = agg.create()
            for _ in range(count):
                looped = agg.accumulate(looped, value)
            assert agg.accumulate_run(agg.create(), value, count) == looped

    def test_null_runs_fold_to_nothing(self):
        for name in ("count", "sum", "min", "max"):
            agg = make_aggregate(name)
            assert agg.accumulate_run(agg.create(), None, 9) == agg.create()


def _encoded_cluster():
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=64)
    s = cluster.connect(executor="vectorized")
    s.execute(
        "CREATE TABLE t (k int encode bytedict, r int encode runlength)"
    )
    s.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i % 11}, {i // 40})" for i in range(400))
    )
    cluster.seal_table("t")
    return cluster, s


class TestObservability:
    def test_svl_scan_encoding_rows(self):
        cluster, s = _encoded_cluster()
        s.execute("SELECT count(*), sum(r) FROM t WHERE k = 3")
        rows = s.execute(
            "SELECT encoding, blocks, values_scanned, bytes_avoided, "
            "masks FROM svl_scan_encoding ORDER BY encoding"
        ).rows
        codecs = [r[0] for r in rows]
        assert codecs == ["bytedict", "runlength"]
        for _, blocks, values_scanned, bytes_avoided, masks in rows:
            assert blocks > 0 and values_scanned > 0 and bytes_avoided > 0
        assert rows[0][4] > 0  # the bytedict predicate produced masks

    def test_svl_query_summary_encoded_columns(self):
        cluster, s = _encoded_cluster()
        r = s.execute("SELECT count(*) FROM t WHERE k = 3")
        assert r.stats.scan.encoded_batches > 0
        batches, avoided = s.execute(
            "SELECT max(encoded_batches), max(decode_bytes_avoided) "
            "FROM svl_query_summary"
        ).rows[0]
        assert batches == r.stats.scan.encoded_batches
        assert avoided == r.stats.scan.decode_bytes_avoided > 0

    def test_explain_analyze_annotations(self):
        cluster, s = _encoded_cluster()
        plan = "\n".join(
            row[0]
            for row in s.execute(
                "EXPLAIN ANALYZE SELECT count(*), sum(r) FROM t WHERE k = 3"
            ).rows
        )
        assert "encoded_batches=" in plan
        assert "decode_saved=" in plan
        assert "Encoded scan:" in plan
        assert "dict-pushdown" in plan and "rle-fold" in plan

    def test_set_parameter_validation_and_off(self):
        cluster, s = _encoded_cluster()
        with pytest.raises(AnalysisError):
            s.execute("SET enable_encoded_scan = maybe")
        s.execute("SET enable_encoded_scan = off")
        r = s.execute("SELECT count(*) FROM t WHERE k = 3")
        assert r.stats.scan.encoded_batches == 0
        assert r.stats.scan.encoding == {}
        # No encoded work -> the snapshot table keeps its previous rows
        # (replace-style, like stv_query_spill), and SET on restores.
        s.execute("SET enable_encoded_scan = on")
        cluster.block_cache.clear()
        r = s.execute("SELECT count(*) FROM t WHERE k = 4")
        assert r.stats.scan.encoded_batches > 0
