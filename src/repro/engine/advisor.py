"""The tuning advisor: recommending distribution and sort keys.

§3.3: "The main things set by a customer are ... sort and distribution
model used for individual tables ... We are striving to make other
settings, such as sort column and distribution key equally dusty. The
database generally has as much or more information as available to the
customer to set these well, including query patterns, data distribution
and cost of compression."

The advisor combines the captured workload (join/predicate/group usage)
with catalog statistics (row counts, distinct counts) and recommends:

* ``DISTSTYLE ALL`` for small dimension tables that get joined,
* ``DISTKEY`` on the dominant equi-join column with enough distinct
  values to spread across slices,
* a compound ``SORTKEY`` when one column dominates predicates, or an
  ``INTERLEAVED SORTKEY`` when several columns share the predicate load
  (the z-curve trade-off of §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distribution.diststyle import DistStyle
from repro.engine.catalog import Catalog, TableInfo
from repro.engine.workload import GROUP, JOIN, PREDICATE, WorkloadLog

#: Tables at or below this row count are candidates for DISTSTYLE ALL.
SMALL_TABLE_ROWS = 10_000
#: A join column must hash to at least this many distinct values to
#: distribute without hot slices.
MIN_DISTKEY_DISTINCT = 16
#: Secondary predicate columns within this ratio of the top one argue for
#: an interleaved key.
INTERLEAVE_RATIO = 0.5


@dataclass(frozen=True)
class Recommendation:
    """One suggested change to a table's physical design."""

    table_name: str
    kind: str  # "diststyle" | "distkey" | "sortkey"
    current: str
    suggested: str
    rationale: str


class TuningAdvisor:
    """Derives design recommendations from workload + statistics."""

    def __init__(self, catalog: Catalog, workload: WorkloadLog):
        self._catalog = catalog
        self._workload = workload

    def recommend(self, table_name: str) -> list[Recommendation]:
        """Recommendations for one table (empty = design already fits)."""
        table = self._catalog.table(table_name)
        out: list[Recommendation] = []
        out.extend(self._distribution(table))
        out.extend(self._sortkey(table))
        return out

    def recommend_all(self) -> list[Recommendation]:
        out: list[Recommendation] = []
        for name in self._catalog.table_names():
            out.extend(self.recommend(name))
        return out

    # ---- distribution ------------------------------------------------------

    def _distribution(self, table: TableInfo) -> list[Recommendation]:
        joins = self._workload.usage(table.name, JOIN)
        current = table.distribution.describe()
        stats = table.statistics

        if not joins:
            return []
        top_column, top_count = joins[0]

        # Small, join-heavy tables: replicate.
        if (
            stats.row_count
            and stats.row_count <= SMALL_TABLE_ROWS
            and table.distribution.style is not DistStyle.ALL
        ):
            return [
                Recommendation(
                    table_name=table.name,
                    kind="diststyle",
                    current=current,
                    suggested="DISTSTYLE ALL",
                    rationale=(
                        f"{stats.row_count} rows, joined {top_count}x: "
                        f"replication makes every join co-located for "
                        f"{stats.row_count}-row storage per slice"
                    ),
                )
            ]

        # Larger tables: hash on the dominant join key if it spreads.
        column_stats = stats.columns.get(top_column)
        distinct = column_stats.distinct_count if column_stats else 0
        already = (
            table.distribution.style is DistStyle.KEY
            and getattr(table.distribution, "column", None) == top_column
        )
        if already or distinct < MIN_DISTKEY_DISTINCT:
            return []
        return [
            Recommendation(
                table_name=table.name,
                kind="distkey",
                current=current,
                suggested=f"DISTKEY({top_column})",
                rationale=(
                    f"{top_column!r} used in {top_count} joins with "
                    f"~{distinct} distinct values: co-locates the dominant "
                    f"join and spreads across slices"
                ),
            )
        ]

    # ---- sort keys -------------------------------------------------------------

    def _sortkey(self, table: TableInfo) -> list[Recommendation]:
        predicates = self._workload.usage(table.name, PREDICATE)
        if not predicates:
            return []
        current = table.sort_key.describe() if table.sort_key else "(none)"
        top_column, top_count = predicates[0]
        strong = [
            column
            for column, count in predicates[:4]
            if count >= top_count * INTERLEAVE_RATIO
        ]
        if len(strong) >= 2:
            suggested = f"INTERLEAVED SORTKEY({', '.join(strong)})"
            rationale = (
                f"predicates spread over {strong}: a z-curve prunes on "
                f"every dimension where a compound key serves only "
                f"{strong[0]!r}"
            )
        else:
            suggested = f"SORTKEY({top_column})"
            rationale = (
                f"{top_column!r} carries {top_count} of the table's "
                f"predicates: sorting on it enables zone-map pruning"
            )
        if table.sort_key is not None:
            same_columns = list(table.sort_key.columns) == strong or (
                len(strong) < 2
                and list(table.sort_key.columns) == [top_column]
            )
            if same_columns:
                return []
        return [
            Recommendation(
                table_name=table.name,
                kind="sortkey",
                current=current,
                suggested=suggested,
                rationale=rationale,
            )
        ]
