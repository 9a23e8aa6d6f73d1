"""Compile-cache correctness: hits equal cold compiles, eviction is
bounded, and no consumer mutates the live objects the cache hands out."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.bench.problems import all_problems, get_problem
from repro.hdl import (CompileCache, HdlError, compile_design,
                       get_default_cache, run_testbench, set_default_cache,
                       source_key)
from repro.store import LruCache


PROBLEM = all_problems()[3]


@pytest.fixture()
def cache():
    return CompileCache()


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)


class TestCacheEquivalence:
    def test_hit_equals_cold_compile(self, cache):
        units = (PROBLEM.reference, PROBLEM.testbench)
        cold = compile_design(units, PROBLEM.tb_name, cache=cache)
        hit = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert not cold.from_cache
        assert hit.from_cache
        assert pickle.dumps(cold.design) == pickle.dumps(hit.design)
        assert cold.key == hit.key

    def test_cached_run_matches_cold_run(self, cache):
        cold = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                             tb_source=PROBLEM.testbench, cache=cache)
        warm = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                             tb_source=PROBLEM.testbench, cache=cache)
        assert pickle.dumps(cold) == pickle.dumps(warm)
        assert cache.stats_dict()["result"]["hits"] >= 1

    def test_split_compile_matches_concatenated(self, cache):
        """DUT+TB compiled as separate units elaborates identically to the
        legacy single concatenated source."""
        legacy = run_testbench(
            PROBLEM.reference + "\n" + PROBLEM.testbench, PROBLEM.tb_name)
        split = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
        assert pickle.dumps(legacy) == pickle.dumps(split)

    def test_compile_error_text_matches_legacy(self, cache):
        """Feedback text feeds seeded repair loops, so the split-compile
        path must report byte-identical compile errors."""
        broken = "module broken(input a, output y); assign y = ; endmodule"
        split = run_testbench(broken, PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
        legacy = run_testbench(broken + "\n" + PROBLEM.testbench,
                               PROBLEM.tb_name)
        assert pickle.dumps(split) == pickle.dumps(legacy)
        assert split.feedback() == legacy.feedback()

    def test_testbench_compiles_once_per_suite(self, cache):
        """Distinct candidates against the same bench re-parse only the
        candidate: the testbench parse is a hit from the second run on."""
        tmpl = ("module cand(input [3:0] a, output [3:0] y); "
                "assign y = a ^ 4'd{};\nendmodule")
        for i in range(4):
            try:
                run_testbench(tmpl.format(i), PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
            except HdlError:
                pass  # candidate/TB port mismatch is fine; parses still count
        assert cache.stats_dict()["parse"]["hits"] >= 3  # TB reused, runs 2..4


class TestBoundedEviction:
    def test_parse_cache_is_bounded(self):
        cache = CompileCache(parse_capacity=4)
        for i in range(10):
            src = f"module m{i}(input a, output y); assign y = a; endmodule"
            cache.parse(src)
        stats = cache.stats_dict()["parse"]
        assert stats["size"] <= 4
        assert stats["evictions"] >= 6

    def test_result_cache_is_bounded(self):
        cache = CompileCache(result_capacity=3)
        for i in range(8):
            cache.put_result(("tb", f"k{i}"), {"i": i})
        assert cache.stats_dict()["result"]["size"] <= 3
        assert cache.get_result(("tb", "k0")) is None
        assert cache.get_result(("tb", "k7")) == {"i": 7}

    def test_evicted_entry_recompiles_correctly(self):
        cache = CompileCache(design_capacity=1, parse_capacity=2)
        units = (PROBLEM.reference, PROBLEM.testbench)
        first = compile_design(units, PROBLEM.tb_name, cache=cache)
        baseline = pickle.dumps(first.design)
        other = all_problems()[4]
        compile_design((other.reference, other.testbench), other.tb_name,
                       cache=cache)
        again = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert not again.from_cache
        assert pickle.dumps(again.design) == baseline


def _digest(value: object) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


def _run_every_consumer(problems) -> None:
    """Every path that reads compile-cache objects: each registered flow,
    the agent, HLS cosim, CEC against simulation and ``exercise_module``."""
    from repro.bench.workloads import REPAIR_WORKLOADS, TESTER_WORKLOADS
    from repro.core.agent import run_agent_sweep
    from repro.flows import detection_sweep, list_flows, run_flow
    from repro.hdl import StimulusRunner, exercise_module, parse_module
    from repro.hls import c_rtl_cosim, cparse
    from repro.synth import synthesize_module
    from repro.synth.cec import check_against_simulation

    for spec in list_flows():
        run_flow(spec.name, problems, "gpt-4", seed=3, jobs=1)
    run_agent_sweep(problems, seeds=(3,), jobs=1)
    detection_sweep(problems, seeds=(3,), jobs=1)
    for p in problems:
        runner = StimulusRunner(p.reference, p.module_name)
        clk = "clk" if "clk" in runner.inputs else None
        vectors = [{name: (7 * i + j) % (1 << runner.width_of(name))
                    for j, name in enumerate(runner.inputs) if name != clk}
                   for i in range(8)]
        assert exercise_module(p.reference, p.module_name, vectors, clk=clk,
                               reset="rst" if clk else None) is not None
        if clk is None:
            module = parse_module(p.reference, p.module_name)
            cec = check_against_simulation(synthesize_module(module),
                                           p.reference, module, vectors=16)
            assert cec.equivalent
    cosims = [w for w in REPAIR_WORKLOADS + TESTER_WORKLOADS
              if w.workload_id in ("clean_already", "mac_overflow")]
    assert len(cosims) == 2
    for w in cosims:
        assert c_rtl_cosim(cparse(w.source), w.top).vectors_run > 0


class TestPoisonSafety:
    def test_mutating_result_does_not_poison(self, cache):
        """The result memo shares one instance, so mutation raises."""
        result = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                               tb_source=PROBLEM.testbench, cache=cache)
        assert isinstance(result.output, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.runtime_error = "vandalized"

    def test_consumers_never_mutate_cached_objects(self, monkeypatch):
        """The live-object contract: hash every value as the cache stores
        it, run every consumer on two problems, and re-hash every entry
        still live — nothing may have changed."""
        stored: dict[tuple, tuple] = {}
        real_put = LruCache.put

        def recording_put(lru, key, value):
            stored[(id(lru), key)] = (lru, key, _digest(value))
            real_put(lru, key, value)

        monkeypatch.setattr(LruCache, "put", recording_put)
        big = 1 << 20   # nothing is evicted, so every entry is re-hashed
        set_default_cache(CompileCache(big, big, big))
        _run_every_consumer([get_problem("c1_and4"),
                             get_problem("c2_counter")])
        layers = {layer for layer, s in get_default_cache().stats().items()
                  if s.lookups}
        assert layers == {"parse", "design", "program", "result"}
        changed = [key for lru, key, digest in stored.values()
                   if _digest(lru.get(key)) != digest]
        assert len(stored) > 100
        assert changed == []


class TestLayers:
    def test_roundtrip_and_stats(self, cache):
        assert cache.get_result(("tb", "k")) is None
        value = ("a", "live", "object")
        cache.put_result(("tb", "k"), value)
        assert cache.get_result(("tb", "k")) is value
        stats = cache.stats()["result"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_layers_are_independent(self, cache):
        cache.put_result(("k",), "result")
        cache.put_program(("k",), ("ineligible", "program"))
        assert cache.get_result(("k",)) == "result"
        assert cache.get_program(("k",)) == ("ineligible", "program")


class TestKnobs:
    def test_source_key_is_content_hash(self):
        assert source_key("module m; endmodule") == \
            source_key("module m; endmodule")
        assert source_key("module m; endmodule") != \
            source_key("module n; endmodule")

    def test_stats_shape(self, cache):
        units = (PROBLEM.reference, PROBLEM.testbench)
        compile_design(units, PROBLEM.tb_name, cache=cache)
        compile_design(units, PROBLEM.tb_name, cache=cache)
        stats = cache.stats_dict()
        assert set(stats) == {"parse", "design", "result", "program"}
        assert stats["design"]["hits"] == 1
        assert stats["design"]["misses"] == 1
        assert 0.0 < stats["design"]["hit_rate"] <= 1.0


class TestThreadSafety:
    def test_lru_blob_cache_hammer(self):
        # Many threads hitting a small LRU concurrently: stats must stay
        # consistent (hits + misses == lookups issued), entries must never
        # be torn, and the cache must respect its capacity bound.
        import threading

        cache = LruCache(capacity=16)
        threads_n, iters, keyspace = 8, 400, 48
        errors: list[str] = []
        barrier = threading.Barrier(threads_n)

        def worker(tid: int) -> None:
            rng = __import__("random").Random(tid)
            barrier.wait()
            for i in range(iters):
                key = f"k{rng.randrange(keyspace)}"
                value = cache.get(key)
                if value is None:
                    cache.put(key, key.encode())
                elif value != key.encode():
                    errors.append(f"torn read: {key!r} -> {value!r}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        stats = cache.stats
        assert stats.hits + stats.misses == threads_n * iters
        assert stats.hits > 0 and stats.misses > 0
        assert len(cache) <= 16
        # Entries still serve correct values after the stampede.
        for key in [f"k{i}" for i in range(keyspace)]:
            value = cache.get(key)
            assert value is None or value == key.encode()
