"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    Observability,
    Profiler,
    Tracer,
    metric_key,
    read_events,
)


# -- telemetry ---------------------------------------------------------------

def test_counter_math():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ConfigError):
        c.inc(-1)


def test_gauge_last_write_wins():
    g = Gauge()
    g.set(3)
    g.set(1.5)
    assert g.value == 1.5


def test_histogram_math():
    h = Histogram(bounds=(1, 10, 100))
    for value in (0, 1, 5, 50, 500):
        h.observe(value)
    assert h.count == 5
    assert h.total == 556
    assert h.min == 0
    assert h.max == 500
    assert h.mean == pytest.approx(111.2)
    # buckets: <=1 gets {0, 1}, <=10 gets {5}, <=100 gets {50}, inf {500}
    assert h.bucket_counts == [2, 1, 1, 1]
    snap = h.snapshot()
    assert snap["buckets"] == {"le_1": 2, "le_10": 1, "le_100": 1, "le_inf": 1}
    assert snap["count"] == 5
    json.dumps(snap)  # plain-dict contract


def test_histogram_quantile_and_empty():
    h = Histogram(bounds=(1, 2, 4))
    assert h.quantile(0.5) == 0.0
    assert h.snapshot()["min"] == 0.0
    for value in (1, 1, 2, 8):
        h.observe(value)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 8.0  # overflow bucket reports the max
    with pytest.raises(ConfigError):
        h.quantile(1.5)


def test_histogram_quantile_edge_cases():
    # Documented rule: result = upper bound of the bucket holding the
    # sample of 1-based rank ceil(q*count); q=0 -> min; overflow -> max;
    # empty -> 0.0 for every q.
    empty = Histogram(bounds=(1, 2, 4))
    for q in (0.0, 0.5, 0.99, 1.0):
        assert empty.quantile(q) == 0.0  # never ZeroDivision/IndexError

    single = Histogram(bounds=(1, 2, 4))
    single.observe(1.5)
    assert single.quantile(0.0) == 1.5   # q=0 reports the observed min
    for q in (0.01, 0.5, 0.99, 1.0):
        assert single.quantile(q) == 2.0  # its bucket's upper bound

    overflow_only = Histogram(bounds=(1, 2))
    overflow_only.observe(100.0)
    assert overflow_only.quantile(0.5) == 100.0  # overflow reports max
    assert overflow_only.quantile(0.0) == 100.0

    h = Histogram(bounds=(1, 2, 4))
    for value in (1, 1, 2, 8):
        h.observe(value)
    assert h.quantile(0.0) == 1.0        # observed min, not bucket bound
    assert h.quantile(0.25) == 1.0       # rank ceil(0.25*4)=1 -> le_1
    assert h.quantile(0.75) == 2.0       # rank 3 -> le_2
    assert h.quantile(0.76) == 8.0       # rank 4 -> overflow -> max
    with pytest.raises(ConfigError):
        h.quantile(-0.1)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ConfigError):
        Histogram(bounds=(4, 2, 1))


def test_metric_key_is_label_order_independent():
    assert metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
    assert metric_key("m", {}) == "m"


def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    assert reg.counter("x", level="LLC") is reg.counter("x", level="LLC")
    assert reg.counter("x", level="L2") is not reg.counter("x", level="LLC")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_scopes_merge_labels():
    reg = MetricsRegistry()
    scope = reg.scope(run="pf").scope(level="LLC")
    scope.counter("cache.hits").inc(7)
    snap = reg.snapshot()
    assert snap["counters"]["cache.hits{level=LLC,run=pf}"] == 7
    # call-site labels override scope labels
    scope.counter("cache.hits", level="L2").inc(1)
    assert reg.snapshot()["counters"]["cache.hits{level=L2,run=pf}"] == 1


def test_registry_snapshot_is_json_serialisable():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.gauge("g").set(0.5)
    reg.histogram("h").observe(3)
    round_tripped = json.loads(json.dumps(reg.snapshot()))
    assert round_tripped["counters"]["c"] == 2
    assert round_tripped["histograms"]["h"]["count"] == 1


# -- tracing -----------------------------------------------------------------

def test_null_sink_tracer_is_disabled_noop():
    tracer = Tracer()
    assert isinstance(tracer.sink, NullSink)
    assert tracer.enabled is False
    tracer.emit("anything", x=1)  # must not raise or record
    assert tracer._seq == 0
    with tracer.span("s"):
        pass
    assert tracer._seq == 0
    tracer.close()


def test_memory_sink_records_ordered_events():
    sink = MemorySink()
    tracer = Tracer(sink)
    assert tracer.enabled is True
    tracer.emit("a", x=1)
    tracer.emit("b", y="z")
    assert [e["event"] for e in sink.events] == ["a", "b"]
    assert [e["seq"] for e in sink.events] == [1, 2]
    assert sink.events[1]["y"] == "z"


def test_tracer_bound_context_tags_every_record():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.bind(run_id="r1")
    tracer.emit("a")
    with tracer.context(cell="000:cc-5:spp"):
        tracer.emit("b")
        with tracer.span("replay"):
            pass
    tracer.emit("c")
    a, b, span, c = sink.events
    assert a == {"event": "a", "seq": 1, "gseq": 1, "run_id": "r1"}
    assert b["cell"] == "000:cc-5:spp" and b["run_id"] == "r1"
    assert span["cell"] == "000:cc-5:spp"  # spans inherit the context
    assert "cell" not in c, "context must restore on exit"
    assert c["run_id"] == "r1", "bind is permanent"


def test_tracer_context_restores_on_exception():
    tracer = Tracer(MemorySink())
    with pytest.raises(RuntimeError):
        with tracer.context(cell="x"):
            raise RuntimeError("boom")
    tracer.emit("after")
    assert "cell" not in tracer.sink.events[-1]


def test_tracer_ingest_restamps_global_sequence():
    # Shipped-back worker records keep their own per-worker seq and
    # tags, but the parent assigns each a fresh gseq so the merged
    # stream has one deterministic total order.
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.emit("parent")
    worker_records = [{"event": "w", "seq": 1, "gseq": 1, "cell": "000"},
                      {"event": "w", "seq": 2, "gseq": 2, "cell": "000"}]
    tracer.ingest(worker_records)
    tracer.emit("parent2")
    assert [e["event"] for e in sink.events] == \
        ["parent", "w", "w", "parent2"]
    # Worker-local seq survives verbatim; gseq is parent-assigned.
    assert [e["seq"] for e in sink.events] == [1, 1, 2, 4]
    assert [e["gseq"] for e in sink.events] == [1, 2, 3, 4]
    # Ingest must not mutate the caller's records.
    assert worker_records[0]["gseq"] == 1

    disabled = Tracer()
    disabled.ingest(worker_records)  # no-op, must not raise


def test_span_records_wall_time():
    sink = MemorySink()
    tracer = Tracer(sink)
    with tracer.span("phase", tag="t"):
        pass
    (event,) = sink.events
    assert event["event"] == "span"
    assert event["name"] == "phase"
    assert event["tag"] == "t"
    assert event["wall_s"] >= 0.0


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sink)
        tracer.emit("pf.issued", block=42, cycle=1.5)
        tracer.emit("run.end", trace="cc-5")
    events = read_events(path)
    assert events == [
        {"event": "pf.issued", "seq": 1, "gseq": 1, "block": 42,
         "cycle": 1.5},
        {"event": "run.end", "seq": 2, "gseq": 2, "trace": "cc-5"},
    ]


def test_jsonl_sink_coerces_numpy_scalars(tmp_path):
    import numpy as np

    path = tmp_path / "events.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("e", value=np.float64(0.25), count=np.int64(3))
    tracer.close()
    (event,) = read_events(path)
    assert event["value"] == 0.25
    assert event["count"] == 3


def test_read_events_tolerates_torn_tail(tmp_path):
    # A malformed FINAL line is a torn tail (crash mid-write): dropped,
    # parsed prefix kept — mirroring the run ledger.
    path = tmp_path / "torn.jsonl"
    path.write_text('{"event": "ok"}\n{"event": "tr')
    assert read_events(path) == [{"event": "ok"}]
    with pytest.raises(ValueError, match="malformed"):
        read_events(path, tolerate_torn_tail=False)


def test_read_events_rejects_malformed_interior_lines(tmp_path):
    # Corruption anywhere BEFORE the tail is real damage, not a torn
    # write, and must raise even with tail tolerance on.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "ok"}\nnot json\n{"event": "ok2"}\n')
    with pytest.raises(ValueError, match="malformed"):
        read_events(path)


def test_read_events_torn_tail_ignores_trailing_blank_lines(tmp_path):
    # The torn record may be followed by blank lines; it is still the
    # last payload line and still dropped.
    path = tmp_path / "torn.jsonl"
    path.write_text('{"event": "ok"}\n{"bad\n\n\n')
    assert read_events(path) == [{"event": "ok"}]


# -- profiler ----------------------------------------------------------------

def test_profiler_phase_nesting_and_accumulation():
    profiler = Profiler()
    with profiler.phase("outer"):
        with profiler.phase("inner"):
            pass
        with profiler.phase("inner"):
            pass
    with profiler.phase("outer"):
        pass
    report = profiler.report()
    (outer,) = report["children"]
    assert outer["name"] == "outer"
    assert outer["calls"] == 2
    (inner,) = outer["children"]
    assert inner["calls"] == 2
    assert outer["wall_s"] >= inner["wall_s"] >= 0.0
    flat = profiler.flat()
    assert set(flat) == {"outer", "outer.inner"}


def test_profiler_memory_capture_opt_in():
    off = Profiler(capture_memory=False)
    with off.memory():
        pass
    assert off.peak_memory_bytes is None
    on = Profiler(capture_memory=True)
    with on.memory():
        blob = [0] * 50_000
        del blob
    assert on.peak_memory_bytes is not None
    assert on.peak_memory_bytes > 0


def test_profiler_report_is_json_serialisable():
    profiler = Profiler()
    with profiler.phase("p"):
        pass
    json.dumps(profiler.report())


# -- the bundle --------------------------------------------------------------

def test_disabled_bundle_is_inert_and_private():
    a = Observability.disabled()
    b = Observability.disabled()
    assert a.enabled is False
    assert a.tracer.enabled is False
    assert a.registry is not b.registry  # never shared state
    a.registry.counter("c").inc()
    assert b.registry.snapshot()["counters"] == {}


def test_default_bundle_enabled_with_null_tracer():
    obs = Observability()
    assert obs.enabled is True
    assert obs.tracer.enabled is False  # events need an explicit sink
    snap = obs.snapshot()
    assert set(snap) == {"metrics", "profile"}
    obs.close()
