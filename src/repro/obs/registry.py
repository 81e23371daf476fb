"""Process-local metric registry: typed, mergeable, near-free when off.

DTM's runtime is a fleet of free-running processes, so any useful
telemetry has to satisfy three constraints at once:

* **typed and mergeable** — every instrument is a
  :class:`Counter`, :class:`Gauge` or :class:`Histogram` whose
  snapshot merges commutatively and associatively with snapshots from
  other processes (counters and histogram buckets sum; gauges sum
  too, so label per-process series — e.g. by shard — when a sum is
  not what you want).  Histograms use *fixed* log-scale buckets
  (:data:`DEFAULT_BUCKETS`), never data-derived ones, precisely so
  bucket-by-bucket merging is well defined across the fleet;
* **thread-safe** — instruments are incremented from reader threads,
  heartbeat timers and the solve loop concurrently;
* **near-zero cost when disabled** — observability is opt-in (the
  ``obs=`` kwargs or ``REPRO_OBS=1``), and the disabled default is a
  :class:`NullRegistry` of no-op singletons.  Hot paths additionally
  keep the idiom ``self._obs = reg if reg.enabled else None`` and
  guard with ``if self._obs is not None`` so the per-sweep cost of
  being off is one attribute test (gated at ≤2% of a kernel-micro
  sweep by ``benchmarks/bench_obs.py``).

The serving components (plan cache, disk store, plan store, server)
must always count, so that the ``metrics`` wire op answers on any
server: each owns a private always-enabled registry instead of the
process default, and the registry is the only place their counters
can be read.  The gate only governs the *hot-path* instruments and
the process-wide default.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from typing import Iterable, Optional

from ..errors import ConfigurationError

#: fixed log-scale latency buckets (seconds): half-decade steps from
#: 1 µs to 100 s.  Shared by every histogram that does not override
#: them, and deliberately constant so snapshots from any process of
#: any age merge bucket-by-bucket.
DEFAULT_BUCKETS = tuple(10.0 ** (e / 2.0) for e in range(-12, 5))


def _label_key(labels: dict) -> str:
    """Canonical series key: JSON of the sorted label pairs."""
    return json.dumps(sorted(labels.items()), separators=(",", ":"))


def _labels_from_key(key: str) -> dict:
    return dict(json.loads(key))


class Counter:
    """A monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def _sample(self):
        return self._value


class Gauge:
    """A value that can go up and down (merged across processes by
    summing — use per-process labels when a sum is not meaningful)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str, help: str = "", labels=None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def _sample(self):
        return self._value


class Histogram:
    """Fixed-bucket distribution (log-scale by default).

    ``observe`` files the value into the first bucket whose upper
    bound is >= the value (Prometheus ``le`` semantics); values above
    every bound land in the implicit +Inf bucket.  Bucket counts are
    *non-cumulative* in snapshots — the exporter accumulates — which
    keeps merging a plain elementwise sum.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "help",
        "labels",
        "buckets",
        "_lock",
        "_counts",
        "_sum",
        "_count",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labels=None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                "histogram buckets must be a non-empty ascending "
                "sequence"
            )
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _sample(self):
        with self._lock:
            return {
                "buckets": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsSnapshot:
    """A frozen, JSON-able, order-independently mergeable view.

    ``metrics`` maps metric name to ``{"type", "help", "bounds",
    "series"}`` where ``series`` maps a canonical label key (JSON of
    the sorted label pairs) to either a number (counter/gauge) or a
    ``{"buckets", "sum", "count"}`` dict (histogram).  Merging sums
    everything elementwise, so ``merge_all`` over any permutation of
    the same snapshots yields identical totals and bucket counts —
    the property the fleet-wide aggregation relies on (and the
    hypothesis suite pins).
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[dict] = None) -> None:
        self.metrics = metrics or {}

    # -- access helpers -------------------------------------------------
    def value(self, name: str, **labels):
        """The sample of one series, or ``None`` when absent."""
        met = self.metrics.get(name)
        if met is None:
            return None
        return met["series"].get(_label_key(labels))

    def total(self, name: str) -> float:
        """Sum of a counter/gauge over all label series (0 if absent)."""
        met = self.metrics.get(name)
        if met is None:
            return 0.0
        if met["type"] == "histogram":
            return float(
                sum(s["count"] for s in met["series"].values())
            )
        return float(sum(met["series"].values()))

    def series(self, name: str) -> dict:
        """``{labels_dict_as_tuple: sample}`` for one metric name."""
        met = self.metrics.get(name)
        if met is None:
            return {}
        return {
            tuple(sorted(_labels_from_key(k).items())): v
            for k, v in met["series"].items()
        }

    # -- wire form ------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {"metrics": self.metrics}

    @classmethod
    def from_jsonable(cls, obj) -> "MetricsSnapshot":
        if not isinstance(obj, dict) or "metrics" not in obj:
            raise ConfigurationError(
                f"not a metrics snapshot: {type(obj).__name__}"
            )
        return cls(obj["metrics"])

    # -- merging --------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot summing this one with *other*."""
        return merge_snapshots([self, other])

    def render_text(self) -> str:
        """Prometheus text exposition of this snapshot."""
        from .export import render_prometheus

        return render_prometheus(self)


def _merge_sample(kind: str, a, b):
    if kind == "histogram":
        if len(a["buckets"]) != len(b["buckets"]):
            raise ConfigurationError(
                "cannot merge histograms with different bucket counts"
            )
        return {
            "buckets": [x + y for x, y in zip(a["buckets"], b["buckets"])],
            "sum": a["sum"] + b["sum"],
            "count": a["count"] + b["count"],
        }
    return a + b


def merge_snapshots(snapshots) -> MetricsSnapshot:
    """Sum many snapshots into one (commutative and associative)."""
    out: dict = {}
    for snap in snapshots:
        if snap is None:
            continue
        if not isinstance(snap, MetricsSnapshot):
            snap = MetricsSnapshot.from_jsonable(snap)
        for name, met in snap.metrics.items():
            cur = out.get(name)
            if cur is None:
                out[name] = {
                    "type": met["type"],
                    "help": met.get("help", ""),
                    "bounds": list(met.get("bounds") or []),
                    "series": {
                        k: (dict(v) if isinstance(v, dict) else v)
                        for k, v in met["series"].items()
                    },
                }
                continue
            if cur["type"] != met["type"]:
                raise ConfigurationError(
                    f"metric {name!r} registered as {cur['type']} and "
                    f"{met['type']} in different snapshots"
                )
            if met.get("bounds") and cur["bounds"] \
                    and list(met["bounds"]) != cur["bounds"]:
                raise ConfigurationError(
                    f"metric {name!r} has mismatched histogram bounds"
                )
            for key, sample in met["series"].items():
                prev = cur["series"].get(key)
                if prev is None:
                    cur["series"][key] = (
                        dict(sample) if isinstance(sample, dict)
                        else sample
                    )
                else:
                    cur["series"][key] = _merge_sample(
                        cur["type"], prev, sample
                    )
    return MetricsSnapshot(out)


class MetricRegistry:
    """Process-local home of every instrument (thread-safe).

    One instrument exists per ``(name, labels)`` pair: asking again
    returns the same object, asking with a different type raises.
    """

    enabled = True

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict = {}

    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, help, labels, **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{inst.kind}, not {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(
            Histogram, name, help, labels, buckets=buckets
        )

    def snapshot(self) -> MetricsSnapshot:
        """A frozen, mergeable copy of every instrument's state."""
        metrics: dict = {}
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            met = metrics.get(inst.name)
            if met is None:
                met = metrics[inst.name] = {
                    "type": inst.kind,
                    "help": inst.help,
                    "bounds": list(inst.buckets)
                    if inst.kind == "histogram"
                    else [],
                    "series": {},
                }
            met["series"][_label_key(inst.labels)] = inst._sample()
        return MetricsSnapshot(metrics)


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    __slots__ = ()
    name = ""
    help = ""
    labels: dict = {}
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled default: every factory returns one no-op object."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels,
    ):
        return _NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


NULL_REGISTRY = NullRegistry()

_default: object = None
_default_lock = threading.Lock()


def obs_env_enabled() -> bool:
    """True when ``REPRO_OBS`` is set to a truthy value."""
    return os.environ.get("REPRO_OBS", "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
        "off",
    )


def default_registry():
    """The process-wide registry: real iff ``REPRO_OBS`` was set (or
    :func:`set_default_registry` installed one), else the null one."""
    global _default
    reg = _default
    if reg is None:
        with _default_lock:
            if _default is None:
                _default = (
                    MetricRegistry()
                    if obs_env_enabled()
                    else NULL_REGISTRY
                )
            reg = _default
    return reg


def set_default_registry(registry) -> None:
    """Install (or with ``None`` reset) the process-wide registry."""
    global _default
    with _default_lock:
        _default = registry


def resolve_obs(obs):
    """Normalize an ``obs=`` kwarg into a registry.

    ``None`` → the process default (gated on ``REPRO_OBS``);
    ``True`` → a fresh enabled :class:`MetricRegistry`;
    ``False`` → the null registry; a registry → itself.
    """
    if obs is None:
        return default_registry()
    if obs is True:
        return MetricRegistry()
    if obs is False:
        return NULL_REGISTRY
    if hasattr(obs, "snapshot") and hasattr(obs, "counter"):
        return obs
    raise ConfigurationError(
        f"obs must be None, bool or a MetricRegistry, got {obs!r}"
    )


def component_registry(obs):
    """An always-enabled registry for the serving components, whose
    counters must keep counting regardless of the observability gate
    so that the ``metrics`` wire op answers on any server: the
    resolved ``obs=`` registry when it is enabled, else a fresh
    private :class:`MetricRegistry` (never the null one)."""
    reg = resolve_obs(obs)
    return reg if reg.enabled else MetricRegistry()
