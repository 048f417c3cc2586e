"""Table health introspection.

Feeds the automatic-maintenance daemon (§3.2's future work: "The database
should be able to determine when data access performance is degrading and
take action to correct itself when load is otherwise light"). Health is
the two quantities VACUUM fixes: dead rows occupying blocks, and rows
appended after the sorted region (which defeat zone-map pruning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cluster import Cluster


@dataclass(frozen=True)
class TableHealth:
    """Degradation metrics for one table, aggregated over slices."""

    table_name: str
    total_rows: int
    dead_rows: int
    unsorted_rows: int
    has_sort_key: bool

    @property
    def dead_fraction(self) -> float:
        return self.dead_rows / self.total_rows if self.total_rows else 0.0

    @property
    def unsorted_fraction(self) -> float:
        if not self.has_sort_key or not self.total_rows:
            return 0.0
        return self.unsorted_rows / self.total_rows


def table_health(cluster: Cluster, table_name: str) -> TableHealth:
    """Measure one table's health across every slice."""
    info = cluster.catalog.table(table_name)
    total = dead = unsorted = 0
    for store in cluster.slice_stores:
        if not store.has_shard(table_name):
            continue
        version = store.shard(table_name).version
        total += version.row_count
        dead += sum(
            1
            for xid in version.delete_xids
            if xid is not None and cluster.transactions.is_committed(xid)
        )
        unsorted += max(0, version.row_count - version.sorted_prefix)
    return TableHealth(
        table_name=table_name,
        total_rows=total,
        dead_rows=dead,
        unsorted_rows=unsorted,
        has_sort_key=info.sort_key is not None,
    )


def cluster_health(cluster: Cluster) -> list[TableHealth]:
    """Health of every table, worst degradation first."""
    reports = [
        table_health(cluster, name) for name in cluster.catalog.table_names()
    ]
    return sorted(
        reports,
        key=lambda h: max(h.dead_fraction, h.unsorted_fraction),
        reverse=True,
    )
