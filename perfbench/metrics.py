"""The metric catalogue: every name the benchmark may print, with its unit.

``BENCHMARK.json`` at the checkout root lists the same names; the
self-check (``selfcheck.py``) fails when the two disagree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("failover_s", "s"),
]

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.  A
#: layer a workload does not exercise reports 0 there.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.executions_per_write", "count"),
    ("core.edges_created_per_write", "count"),
    ("core.order_shifts_per_write", "count"),
    ("core.partition_finds_per_op", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.exec_self_ms", "ms"),
    ("core.pycalls_per_write", "count"),
    ("core.pycalls_per_read", "count"),
    ("core.events_per_write", "count"),
    ("obs.handler_calls_per_write", "count"),
    ("spreadsheet.set_formula_self_ms", "ms"),
    ("spreadsheet.value_self_ms", "ms"),
    ("persist.wal_appends_per_write", "count"),
    ("persist.wal_bytes_per_write", "bytes"),
    ("persist.wal_append_ms", "ms"),
    ("persist.editlog_bytes_per_write", "bytes"),
    ("persist.fsyncs_per_write", "count"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.recoveries", "count"),
    ("persist.recover_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.apply_self_ms", "ms"),
    ("serve.acquire_ms", "ms"),
    ("serve.evictions_per_kreq", "count"),
    ("serve.resurrections_per_kreq", "count"),
    ("serve.rejections", "count"),
    ("replicate.ship_ms", "ms"),
    ("replicate.records_per_write", "count"),
    ("replicate.bytes_per_write", "bytes"),
    ("replicate.resyncs", "count"),
    ("replicate.resync_bytes", "bytes"),
    ("replicate.apply_ms", "ms"),
    ("replicate.promote_ms", "ms"),
    ("replicate.replayed_records", "count"),
    ("trace.ops_ratio", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
]


def complete(metrics: Dict[str, Tuple[float, str]], traced: bool) -> List[str]:
    """Fill the per-layer metrics a workload did not exercise with 0 and
    return what does not match the catalogue (missing, unknown, or a
    different unit)."""
    catalogue = PER_LAYER if traced else END_TO_END
    if traced:
        for name, unit in catalogue:
            metrics.setdefault(name, (0.0, unit))
    problems = []
    known = dict(catalogue)
    for name, (_value, unit) in metrics.items():
        if name not in known:
            problems.append(f"metric {name} is not in the catalogue")
        elif known[name] != unit:
            problems.append(f"metric {name} has unit {unit}, catalogue says {known[name]}")
    problems += [f"metric {name} was not measured" for name in known if name not in metrics]
    return problems
