"""LLVM ``-stats``-style named counters.

Any layer registers a counter once at module scope::

    from repro.instrument import get_statistic

    NODES_BUILT = get_statistic(
        "shadow", "nodes-built", "Shadow AST nodes constructed"
    )
    ...
    NODES_BUILT.inc()

and :func:`render_stats` renders the familiar aligned dump::

    ===-------------------------------------------------------------===
                          ... Statistics Collected ...
    ===-------------------------------------------------------------===
      142 shadow - Shadow AST nodes constructed

A statistic is a label-free :class:`~repro.instrument.telemetry.metrics.
Counter` named ``owner.name`` in the process-wide :data:`STATS`
registry, so statistics and service metrics share one snapshot, delta
and merge.  Counters are always live (a label-free ``inc`` is one
attribute add); *reporting* is what the driver flag controls.
Per-compilation deltas are taken with :meth:`STATS.counter_values()
<repro.instrument.telemetry.metrics.MetricsRegistry.counter_values>` /
``STATS.delta_since(...)`` so library users get the counts of one
``compile_source`` call even though the registry is process-global, the
same way LLVM statistics accumulate per ``llvm::Context``.
"""

from __future__ import annotations

from repro.instrument.telemetry.metrics import Counter, MetricsRegistry

#: the process-wide statistics registry (LLVM's ``StatisticInfo`` list)
STATS = MetricsRegistry()


def get_statistic(owner: str, name: str, desc: str = "") -> Counter:
    """Module-scope registration helper (LLVM's ``STATISTIC`` macro)."""
    return STATS.counter(f"{owner}.{name}", desc)


def render_stats(values: dict[str, int]) -> str:
    """The LLVM ``-stats`` dump of *values*, a flat ``owner.name ->
    count`` map such as ``STATS.delta_since(before)``."""
    if not values:
        return ""
    rows = []
    for key in sorted(values):
        counter = STATS.get(key)
        if counter is None:
            owner, desc = key, ""
        else:
            owner, _, name = key.partition(".")
            desc = counter.help or name
        rows.append((values[key], owner, desc))
    value_width = max(len(str(v)) for v, _, _ in rows)
    owner_width = max(len(o) for _, o, _ in rows)
    lines = [
        "===" + "-" * 61 + "===",
        "                    ... Statistics Collected ...",
        "===" + "-" * 61 + "===",
    ]
    for value, owner, desc in rows:
        lines.append(
            f"{value:>{value_width}} {owner:<{owner_width}} - {desc}"
        )
    return "\n".join(lines)
