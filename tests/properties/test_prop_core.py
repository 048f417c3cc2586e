"""Property tests on core invariants: z-order, hashing, zone maps,
chains, sort keys, aggregates."""

from hypothesis import given, settings, strategies as st

from repro.distribution import stable_hash
from repro.sortkeys import CompoundSortKey, ZOrderMapper, deinterleave, interleave
from repro.sql.functions import make_aggregate
from repro.storage import ZoneMap
from repro.storage.chain import ColumnChain
from repro.datatypes import INTEGER


class TestZOrderProperties:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=4),
    )
    @settings(max_examples=200)
    def test_interleave_bijective(self, coords):
        code = interleave(coords, 8)
        assert deinterleave(code, len(coords), 8) == coords

    @given(st.integers(0, 2 ** 16 - 1))
    def test_codes_bounded(self, code_input):
        coords = deinterleave(code_input, 2, 8)
        assert all(0 <= c < 256 for c in coords)
        assert interleave(coords, 8) == code_input

    @given(st.lists(st.integers(-(10 ** 9), 10 ** 9), min_size=2, max_size=500))
    @settings(max_examples=50)
    def test_mapper_rank_monotone(self, values):
        mapper = ZOrderMapper(6).fit([values])
        ordered = sorted(set(values))
        ranks = [mapper.rank(0, v) for v in ordered]
        assert ranks == sorted(ranks)


class TestHashProperties:
    @given(st.one_of(st.integers(), st.text(), st.booleans(), st.none()))
    def test_hash_stable(self, value):
        assert stable_hash(value) == stable_hash(value)

    @given(st.integers(-(10 ** 12), 10 ** 12))
    def test_int_float_agree(self, n):
        assert stable_hash(n) == stable_hash(float(n)) or abs(n) > 2 ** 53

    @given(st.lists(st.integers(), min_size=1), st.integers(1, 64))
    def test_targets_in_range(self, keys, slices):
        for key in keys:
            assert 0 <= stable_hash(key) % slices < slices


class TestZoneMapProperties:
    @given(st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=100))
    @settings(max_examples=100)
    def test_zone_map_is_conservative(self, values):
        zone = ZoneMap.build(values)
        present = [v for v in values if v is not None]
        for op, check in (
            ("=", lambda v, lit: v == lit),
            ("<", lambda v, lit: v < lit),
            (">=", lambda v, lit: v >= lit),
        ):
            for literal in (-1001, -5, 0, 7, 1001):
                has_match = any(check(v, literal) for v in present)
                if has_match:
                    # Never skip a block that contains a match.
                    assert zone.might_satisfy(op, literal)

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=50),
        st.lists(st.integers(-100, 100), min_size=1, max_size=50),
    )
    def test_merge_bounds(self, a, b):
        merged = ZoneMap.build(a).merge(ZoneMap.build(b))
        assert merged.low == min(a + b)
        assert merged.high == max(a + b)


class TestChainProperties:
    @given(
        st.lists(st.one_of(st.none(), st.integers(-(10 ** 6), 10 ** 6)), max_size=300),
        st.integers(1, 64),
        st.sampled_from(["raw", "delta", "lzo", "runlength", "bytedict"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_chain_preserves_content(self, values, capacity, codec):
        chain = ColumnChain("c", INTEGER, codec, block_capacity=capacity)
        chain.append(values)
        chain.seal()
        assert chain.read_all() == values
        assert chain.row_count == len(values)


class TestSortKeyProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_compound_sort_is_a_permutation_and_sorted(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        order = CompoundSortKey(["x", "y"]).sort_order([xs, ys])
        assert sorted(order) == list(range(len(pairs)))
        sorted_pairs = [(xs[i], ys[i]) for i in order]
        assert sorted_pairs == sorted(sorted_pairs)


class TestAggregateProperties:
    @given(
        st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=100),
        st.integers(1, 5),
        st.sampled_from(["count", "sum", "min", "max", "avg", "stddev"]),
    )
    @settings(max_examples=100)
    def test_merge_any_partitioning(self, values, parts, name):
        """Partial/merge must be partition-invariant: any split of the
        input merges to the same final answer."""
        agg = make_aggregate(name)
        whole = agg.create()
        for v in values:
            whole = agg.accumulate(whole, v)
        expected = agg.finalize(whole)

        chunk = max(1, len(values) // parts)
        states = []
        for i in range(0, max(len(values), 1), chunk):
            state = agg.create()
            for v in values[i:i + chunk]:
                state = agg.accumulate(state, v)
            states.append(state)
        merged = states[0]
        for state in states[1:]:
            merged = agg.merge(merged, state)
        actual = agg.finalize(merged)
        if isinstance(expected, float) and expected == expected:
            assert actual == pytest_approx(expected)
        else:
            assert actual == expected


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)
