"""Observability layer: tracer span nesting, sinks, metrics, report
rendering, and the end-to-end acceptance trace of an agent run."""

import json
import threading

import pytest

from repro import obs
from repro.config import ENV_TRACE, ENV_TRACE_FILE
from repro.obs import report as obs_report


@pytest.fixture(autouse=True)
def _isolated_tracer(monkeypatch):
    """Each test starts from the env-default tracer and a clean registry."""
    monkeypatch.delenv(ENV_TRACE, raising=False)
    monkeypatch.delenv(ENV_TRACE_FILE, raising=False)
    obs.reset_tracer()
    obs.reset_metrics()
    yield
    obs.reset_tracer()
    obs.reset_metrics()


def _memory_tracer():
    sink = obs.InMemorySink()
    tracer = obs.Tracer(sink, enabled=True)
    obs.install_tracer(tracer)
    return sink, tracer


class TestTracer:
    def test_disabled_by_default(self):
        tracer = obs.get_tracer()
        assert not tracer.enabled
        assert not obs.enabled()

    def test_disabled_tracer_is_noop(self):
        tracer = obs.get_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        # One shared immutable span: no allocation, no records.
        assert outer is inner is obs.NOOP_SPAN
        assert outer.set(key="value") is obs.NOOP_SPAN

    def test_span_nesting_and_attrs(self):
        sink, tracer = _memory_tracer()
        with tracer.span("outer", phase="x") as outer:
            with tracer.span("inner") as inner:
                inner.set(detail=42)
        spans = {s["name"]: s for s in sink.spans()}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["attrs"] == {"phase": "x"}
        assert spans["inner"]["attrs"] == {"detail": 42}
        # Children are emitted on exit, so inner lands before outer.
        assert [s["name"] for s in sink.spans()] == ["inner", "outer"]

    def test_span_duration_uses_injected_clock(self):
        sink = obs.InMemorySink()
        ticks = iter([10.0, 13.5])
        tracer = obs.Tracer(sink, enabled=True, clock=lambda: next(ticks))
        with tracer.span("timed"):
            pass
        [span] = sink.spans()
        assert span["duration_s"] == pytest.approx(3.5)

    def test_exception_marks_span_and_propagates(self):
        sink, tracer = _memory_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        [span] = sink.spans()
        assert span["attrs"]["error"] == "ValueError"

    def test_threads_get_independent_stacks(self):
        sink, tracer = _memory_tracer()
        ready = threading.Event()

        def worker():
            with tracer.span("thread-span"):
                ready.wait(5.0)

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            ready.set()
            t.join(5.0)
        spans = {s["name"]: s for s in sink.spans()}
        # The worker's span must not adopt the main thread's open span.
        assert spans["thread-span"]["parent_id"] is None

    def test_env_knobs_build_jsonl_tracer(self, monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_TRACE, "1")
        monkeypatch.setenv(ENV_TRACE_FILE, str(path))
        obs.reset_tracer()
        with obs.span("from-env", tag="t"):
            pass
        obs.get_tracer().close()
        [record] = obs.read_jsonl(str(path))
        assert record["name"] == "from-env"
        assert record["attrs"] == {"tag": "t"}


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = obs.JsonlSink(str(path))
        records = [{"type": "span", "name": "a", "duration_s": 0.25},
                   {"type": "metrics", "counters": {"n": 3}}]
        for r in records:
            sink.emit(r)
        sink.close()
        assert obs.read_jsonl(str(path)) == records

    def test_in_memory_filters(self):
        sink = obs.InMemorySink()
        sink.emit({"type": "span", "name": "s"})
        sink.emit({"type": "metrics", "counters": {}})
        assert [r["name"] for r in sink.spans()] == ["s"]
        assert len(sink.metrics()) == 1
        sink.clear()
        assert sink.records == []


class TestMetrics:
    def test_counter_and_histogram(self):
        reg = obs.MetricsRegistry()
        reg.counter("hits").add(2)
        reg.counter("hits").add(3)
        for v in (1.0, 3.0):
            reg.histogram("lat").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["mean"] == pytest.approx(2.0)
        assert snap["histograms"]["lat"]["max"] == pytest.approx(3.0)

    def test_flush_metrics_noop_when_disabled(self):
        obs.get_metrics().counter("x").add(1)
        assert obs.flush_metrics() is None

    def test_flush_metrics_includes_cache_gauges(self):
        sink, _ = _memory_tracer()
        obs.get_metrics().counter("x").add(7)
        record = obs.flush_metrics()
        assert record["counters"]["x"] == 7
        # One gauge family: hdl.cache.<layer>.<stat> for all four layers,
        # from the process-wide counters (present before any lookup).
        cache_keys = {k for k in record["gauges"] if k.startswith("hdl.")}
        assert cache_keys == {
            f"hdl.cache.{layer}.{stat}"
            for layer in ("parse", "design", "program", "result")
            for stat in ("hits", "misses", "evictions", "corrupt",
                         "hit_rate")}
        assert sink.metrics() == [record]


class TestReport:
    def _records(self):
        return [
            {"type": "span", "name": "a", "span_id": 1, "parent_id": None,
             "start_s": 0.0, "duration_s": 0.2, "attrs": {}},
            {"type": "span", "name": "b", "span_id": 2, "parent_id": 1,
             "start_s": 0.05, "duration_s": 0.1, "attrs": {"k": 1}},
            {"type": "span", "name": "b", "span_id": 3, "parent_id": 1,
             "start_s": 0.15, "duration_s": 0.3, "attrs": {}},
            {"type": "metrics", "counters": {"c": 4},
             "histograms": {"h": {"count": 1, "total": 2.0, "min": 2.0,
                                  "max": 2.0, "mean": 2.0}},
             "gauges": {"g": 0.5}},
        ]

    def test_aggregate_spans(self):
        agg = {e["name"]: e for e in obs_report.aggregate_spans(
            self._records())}
        assert agg["b"]["count"] == 2
        assert agg["b"]["total_s"] == pytest.approx(0.4)
        assert agg["b"]["max_s"] == pytest.approx(0.3)

    def test_render_mentions_spans_and_metrics(self):
        text = obs_report.render(self._records())
        assert "telemetry: 3 spans" in text
        for token in ("a", "b", "c", "h", "g"):
            assert token in text

    def test_span_tree_indents_children(self):
        tree = obs_report.span_tree(self._records())
        lines = tree.splitlines()
        assert lines[0].startswith("a ")
        assert all(line.startswith("  b ") for line in lines[1:])

    def test_cli_renders_jsonl(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in self._records():
                fh.write(json.dumps(r) + "\n")
        assert obs_report.main([str(path), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: 3 spans" in out
        assert "counter" in out


class TestEndToEndTrace:
    """Acceptance: a traced agent run + parallel evaluation produces a JSONL
    trace with nested spans for every pipeline stage plus compile-cache and
    evaluator metrics, all renderable by ``repro.obs.report``."""

    def test_agent_run_trace(self, monkeypatch, tmp_path):
        from repro.bench import all_problems, evaluate_model
        from repro.core import AgentConfig, EdaAgent
        from repro.hdl import CompileCache, get_default_cache, \
            set_default_cache

        path = tmp_path / "agent.jsonl"
        monkeypatch.setenv(ENV_TRACE, "1")
        monkeypatch.setenv(ENV_TRACE_FILE, str(path))
        obs.reset_tracer()
        obs.reset_metrics()
        old_cache = get_default_cache()
        set_default_cache(CompileCache())
        try:
            problem = all_problems()[0]
            report = EdaAgent(AgentConfig(model="gpt-4o"), seed=1).run(problem)
            runs_before = obs.get_metrics().counter("sim.runs").value
            # The agent's own serial maps time their tasks too.
            task_run_s = obs.get_metrics().histogram("exec.task_run_s")
            tasks_before = task_run_s.count
            evaluate_model("gpt-4o", all_problems()[:2], k=2, seed=3,
                           jobs=2)
            pooled_tasks = task_run_s.count - tasks_before
            # The pool's workers simulate; their counts ship back.
            pooled_runs = obs.get_metrics().counter("sim.runs").value \
                - runs_before
            obs.flush_metrics()
            obs.get_tracer().close()
        finally:
            set_default_cache(old_cache)

        records = obs.read_jsonl(str(path))
        spans = {r["name"]: r for r in records if r.get("type") == "span"}
        run_id = spans["agent.run"]["span_id"]
        for stage in ("specification", "rtl_generation", "static_analysis",
                      "verification", "synthesis", "qor"):
            name = f"stage.{stage}"
            assert name in spans, f"missing span for pipeline stage {stage}"
            assert spans[name]["parent_id"] == run_id
        assert spans["agent.run"]["attrs"]["success"] == report.success
        assert "bench.evaluate_model" in spans
        assert "exec.map" in spans
        assert "hdl.compile" in spans

        # agent.run flushes one snapshot itself; the explicit flush above
        # adds the final cumulative one.
        metrics = [r for r in records if r.get("type") == "metrics"][-1]
        assert metrics["counters"]["exec.tasks"] >= 4
        assert metrics["counters"]["sim.runs"] >= 1
        assert pooled_runs >= 1
        # Each pooled task's own run time, measured in its worker.
        run_s = metrics["histograms"]["exec.task_run_s"]
        assert pooled_tasks == 4 and run_s["min"] > 0
        assert "exec.task_latency_s" not in metrics["histograms"]
        assert metrics["gauges"]["hdl.cache.parse.hits"] >= 1

        rendered = obs_report.render(str(path))
        assert "stage.verification" in rendered
        assert "hdl.cache.parse.hit_rate" in rendered

    def test_disabled_tracing_keeps_statistics_identical(self, monkeypatch):
        """REPRO_TRACE=0 (the default) must not perturb experiment stats."""
        import pickle

        from repro.bench import all_problems, evaluate_model
        from repro.hdl import CompileCache, set_default_cache

        def signature(suite):
            return [(p.problem_id,
                     [(s.passed, s.score, pickle.dumps(s.result))
                      for s in p.samples]) for p in suite.problems]

        problems = all_problems()[:2]
        monkeypatch.setenv(ENV_TRACE, "0")
        obs.reset_tracer()
        set_default_cache(CompileCache())
        untraced = signature(evaluate_model("gpt-4", problems, k=2, seed=9))
        sink, _ = _memory_tracer()
        set_default_cache(CompileCache())
        traced = signature(evaluate_model("gpt-4", problems, k=2, seed=9))
        assert untraced == traced
        assert sink.spans()  # the traced run actually recorded spans
