"""Counters, gauges, and log-bucketed histograms: the one metrics model.

The :class:`MetricsRegistry` is the Prometheus-client analogue, and it
also backs LLVM-style compiler statistics: :data:`repro.instrument.stats.
STATS` is one process-wide registry of label-free counters named
``owner.name``.  Statistics are process-global monotone counters for
*compiler* work; the service's own registry describes *service*
behaviour — request latency distributions, queue depth, breaker
transitions — with label dimensions and quantile estimates.

Design constraints, in order:

* **exact cross-process merging** — histograms use *fixed* bucket
  boundaries (log-spaced, chosen at registration), so merging two
  histograms is element-wise addition of bucket counts: associative,
  commutative, and lossless.  Shard registries fold together with
  :meth:`MetricsRegistry.merge` — the merged p99 is exactly the p99 of
  the union stream (to bucket resolution);
* **bounded error quantiles** — :meth:`Histogram.quantile` returns the
  upper boundary of the bucket holding the target rank, so the estimate
  is within one bucket width of the exact order statistic (the classic
  Prometheus ``histogram_quantile`` guarantee);
* **two export formats** — :meth:`MetricsRegistry.snapshot` (JSON, the
  machine-readable artifact ``--metrics-json`` archives and
  ``tools/service_bench.py`` reads) and
  :meth:`MetricsRegistry.render_prometheus` (text exposition format for
  a scrape endpoint or ``--metrics-prom``);
* **a label-free fast path** — a label-free :class:`Counter` is its own
  series: ``inc`` is one attribute add, cheap enough for the shadow-AST
  hot path, and :meth:`MetricsRegistry.counter_values` /
  :meth:`MetricsRegistry.delta_since` give the flat ``name -> value``
  form statistics are reported in.

Everything is single-threaded plain python (the service event loop owns
the registry; workers own their private per-payload registries), so no
locking is needed anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence

#: default latency bucket boundaries in seconds: log-spaced 100us..60s.
#: Fixed at import time so every process buckets identically and
#: histogram merges are exact.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: the quantiles every histogram snapshot precomputes
SNAPSHOT_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def _label_key(
    label_names: tuple[str, ...], values: dict[str, str]
) -> tuple[str, ...]:
    missing = set(label_names) - set(values)
    extra = set(values) - set(label_names)
    if missing or extra:
        raise ValueError(
            f"labels {sorted(values)} do not match declared "
            f"label names {list(label_names)}"
        )
    return tuple(str(values[name]) for name in label_names)


class _Metric:
    """Base: one named metric family with 0+ label dimensions."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: dict[tuple[str, ...], object] = {}

    # -- series management ---------------------------------------------
    def labels(self, **values: str):
        """The series cell for one label-value combination (created on
        first use, like prometheus_client)."""
        key = _label_key(self.label_names, values)
        cell = self._series.get(key)
        if cell is None:
            cell = self._make_cell()
            self._series[key] = cell
        return cell

    def _default_cell(self):
        """The single series of a label-free metric."""
        if self.label_names:
            raise ValueError(
                f"metric {self.name} has labels "
                f"{list(self.label_names)}; use .labels(...)"
            )
        return self.labels()

    def _make_cell(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def series(self) -> Iterator[tuple[dict[str, str], object]]:
        for key, cell in sorted(self._series.items()):
            yield dict(zip(self.label_names, key)), cell


class _CounterCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Counter(_Metric):
    """Monotonically increasing count (``_total`` convention).

    A label-free counter is its own single series, so :meth:`inc` is
    one attribute add; a labelled one counts through
    ``.labels(...).inc()``.
    """

    kind = "counter"
    #: a label-free counter's count (the first ``inc`` shadows this)
    value = 0

    def _make_cell(self):
        return _CounterCell() if self.label_names else self

    def inc(self, n: float = 1) -> None:
        if n < 0 or self.label_names:
            if self.label_names:
                self._default_cell()  # raises: use .labels(...)
            raise ValueError("counters only go up")
        self.value += n

    def series(self) -> Iterator[tuple[dict[str, str], object]]:
        if self.label_names:
            return super().series()
        # the one series exists once counted or touched via labels()
        return iter([({}, self)] if self.value or self._series else [])


class _GaugeCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Gauge(_Metric):
    """A value that goes up and down (queue depth, in-flight work)."""

    kind = "gauge"

    def _make_cell(self) -> _GaugeCell:
        return _GaugeCell()

    def set(self, v: float) -> None:
        self._default_cell().set(v)

    def inc(self, n: float = 1.0) -> None:
        self._default_cell().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._default_cell().dec(n)

    @property
    def value(self) -> float:
        return self._default_cell().value


class _HistogramCell:
    """One histogram series: fixed boundaries + per-bucket counts.

    ``counts[i]`` counts observations in ``(bounds[i-1], bounds[i]]``;
    ``counts[-1]`` is the overflow bucket ``(bounds[-1], +Inf)``.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    # ------------------------------------------------------------------
    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """The ``(lo, hi]`` bucket interval containing the *q*-quantile
        rank; the exact order statistic is guaranteed to lie within it
        (``hi`` is ``+inf`` for the overflow bucket)."""
        if self.total == 0:
            return (0.0, 0.0)
        rank = max(1, min(self.total, -(-q * self.total // 1)))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else float("inf")
                )
                return (lo, hi)
        return (self.bounds[-1], float("inf"))  # pragma: no cover

    def quantile(self, q: float) -> float:
        """Upper bucket boundary holding the *q*-quantile rank (the
        estimate is within one bucket width of exact).  The overflow
        bucket reports the largest finite boundary, Prometheus-style."""
        lo, hi = self.quantile_bounds(q)
        if hi == float("inf"):
            return self.bounds[-1]
        return hi

    def percentiles(self) -> dict[str, float]:
        return {
            name: self.quantile(q) for name, q in SNAPSHOT_QUANTILES
        }

    def merge_counts(
        self, counts: Sequence[int], total: int, sum_: float
    ) -> None:
        if len(counts) != len(self.counts):
            raise ValueError(
                "histogram merge with mismatched bucket layout"
            )
        for i, c in enumerate(counts):
            self.counts[i] += c
        self.total += total
        self.sum += sum_


class Histogram(_Metric):
    """Log-bucketed distribution with exact merge semantics."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        if not bounds:
            raise ValueError("at least one bucket boundary required")
        self.bounds = bounds

    def _make_cell(self) -> _HistogramCell:
        return _HistogramCell(self.bounds)

    def observe(self, value: float) -> None:
        self._default_cell().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_cell().quantile(q)


class MetricsRegistry:
    """Registry of every metric family one process (or one service
    instance) exports.  Families are created on first use and reused on
    re-registration (kind and label names must agree)."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        #: the label-free counters, the ones with a flat value
        self._counters: dict[str, Counter] = {}

    # -- registration ---------------------------------------------------
    def _register(self, cls, name, help, label_names, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            if cls is Counter and not label_names:
                self._counters[name] = metric
            return metric
        if metric.kind != cls.kind:
            raise ValueError(
                f"metric {name} already registered as {metric.kind}"
            )
        if metric.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name} re-registered with different labels"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, tuple(labels))

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            Histogram, name, help, tuple(labels), buckets=buckets
        )
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name} re-registered with different buckets"
            )
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- flat counter values --------------------------------------------
    def counter_values(self) -> dict[str, float]:
        """Every label-free counter's value by name: the cheap flat
        snapshot a compile takes before it starts."""
        return {name: c.value for name, c in self._counters.items()}

    def delta_since(self, before: dict[str, float]) -> dict[str, float]:
        """The label-free counters that advanced since *before* (a
        :meth:`counter_values`), e.g. the statistics of one compile."""
        delta = {}
        for name, counter in self._counters.items():
            diff = counter.value - before.get(name, 0)
            if diff:
                delta[name] = diff
        return delta

    # -- JSON snapshot --------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of every series (the ``--metrics-json``
        artifact and the merge wire format)."""
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "series": [],
            }
            if metric.kind == "histogram":
                entry["bounds"] = list(metric.bounds)
            for label_values, cell in metric.series():
                row: dict = {"labels": label_values}
                if metric.kind == "histogram":
                    row["count"] = cell.total
                    row["sum"] = round(cell.sum, 9)
                    row["buckets"] = list(cell.counts)
                    row.update(
                        {
                            k: v
                            for k, v in cell.percentiles().items()
                        }
                    )
                else:
                    row["value"] = cell.value
                entry["series"].append(row)
            out[name] = entry
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counter and histogram series add (histograms require identical
        bucket boundaries — element-wise addition is then *exact*);
        gauges take the maximum (a merged instantaneous value has no
        single truth; max preserves the high-water mark).  A bare
        number in place of an entry is a label-free counter's value,
        the flat form of :meth:`delta_since` (a worker's statistics).
        """
        for name, entry in snapshot.items():
            if not isinstance(entry, dict):
                self.counter(name).inc(entry)
                continue
            labels = tuple(entry.get("labels", ()))
            kind = entry.get("type")
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""), labels)
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labels)
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    entry.get("help", ""),
                    labels,
                    buckets=entry["bounds"],
                )
            else:
                raise ValueError(f"unknown metric type {kind!r}")
            for row in entry.get("series", ()):
                cell = metric.labels(**row.get("labels", {}))
                if kind == "counter":
                    cell.inc(row["value"])
                elif kind == "gauge":
                    cell.set(max(cell.value, row["value"]))
                else:
                    cell.merge_counts(
                        row["buckets"], row["count"], row["sum"]
                    )

    # -- Prometheus text exposition ------------------------------------
    @staticmethod
    def _fmt_labels(label_values: dict[str, str]) -> str:
        if not label_values:
            return ""
        inner = ",".join(
            f'{k}="{v}"' for k, v in sorted(label_values.items())
        )
        return "{" + inner + "}"

    @staticmethod
    def _fmt_number(v: float) -> str:
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return repr(v)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for label_values, cell in metric.series():
                if metric.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                        metric.bounds, cell.counts
                    ):
                        cumulative += count
                        le = dict(label_values)
                        le["le"] = self._fmt_number(bound)
                        lines.append(
                            f"{name}_bucket{self._fmt_labels(le)} "
                            f"{cumulative}"
                        )
                    le = dict(label_values)
                    le["le"] = "+Inf"
                    lines.append(
                        f"{name}_bucket{self._fmt_labels(le)} "
                        f"{cell.total}"
                    )
                    lines.append(
                        f"{name}_sum{self._fmt_labels(label_values)} "
                        f"{self._fmt_number(round(cell.sum, 9))}"
                    )
                    lines.append(
                        f"{name}_count{self._fmt_labels(label_values)} "
                        f"{cell.total}"
                    )
                else:
                    lines.append(
                        f"{name}{self._fmt_labels(label_values)} "
                        f"{self._fmt_number(cell.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
