"""Parallel evaluation engine: deterministic ordering, jobs resolution,
timeouts, and serial/parallel equivalence of full suite evaluations."""

import pickle
import time

import pytest

from repro.bench import all_problems, evaluate_model
from repro.config import reset_warned_values
from repro.exec import (EvaluationTimeout, ParallelEvaluator, parallel_map,
                        resolve_jobs)
from repro.hdl import CompileCache, get_default_cache, set_default_cache


def _square(x):
    return x * x


def _slow_identity(x):
    time.sleep(0.4)
    return x


def _hang_or_echo(x):
    if x == "hang":
        time.sleep(60)
    return x


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)


class TestJobsResolution:
    def test_default_is_serial(self):
        assert resolve_jobs() == 1

    def test_auto_uses_cpu_count(self):
        import os
        assert resolve_jobs("auto") == max(1, os.cpu_count() or 1)
        assert resolve_jobs(-1) == max(1, os.cpu_count() or 1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(2, mode="gpu")


class TestOrderingAndModes:
    ITEMS = list(range(17))

    def test_serial_ordering(self):
        assert ParallelEvaluator(1).map(_square, self.ITEMS) == \
            [x * x for x in self.ITEMS]

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pool_preserves_submission_order(self, mode):
        out = ParallelEvaluator(4, mode=mode).map(_square, self.ITEMS)
        assert out == [x * x for x in self.ITEMS]

    def test_auto_falls_back_to_threads_for_closures(self):
        # A lambda cannot cross a process boundary; auto mode must degrade
        # to threads rather than crash.
        out = ParallelEvaluator(2, mode="auto").map(lambda x: x + 1, [1, 2, 3])
        assert out == [2, 3, 4]

    def test_process_mode_propagates_pickling_error(self):
        with pytest.raises((TypeError, AttributeError)):
            ParallelEvaluator(2, mode="process").map(lambda x: x, [1, 2])

    def test_single_item_runs_inline(self):
        assert ParallelEvaluator(8, mode="process").map(_square, [5]) == [25]

    def test_parallel_map_convenience(self):
        assert parallel_map(_square, [1, 2, 3], jobs=2, mode="thread") == \
            [1, 4, 9]


class TestTimeouts:
    def test_timeout_raises_without_handler(self):
        ev = ParallelEvaluator(2, mode="thread", timeout=0.05)
        with pytest.raises(EvaluationTimeout):
            ev.map(_slow_identity, [1, 2])

    def test_timeout_result_fills_slot(self):
        ev = ParallelEvaluator(2, mode="thread", timeout=0.05)
        out = ev.map(_slow_identity, [1, 2],
                     timeout_result=lambda item: ("timeout", item))
        assert out == [("timeout", 1), ("timeout", 2)]

    def test_fast_tasks_unaffected_by_timeout(self):
        ev = ParallelEvaluator(2, mode="thread", timeout=30.0)
        assert ev.map(_square, [3, 4]) == [9, 16]

    def test_hung_worker_does_not_wedge_sweep(self):
        # Regression: ``with executor:`` used to block on the hung worker
        # at shutdown, so one stuck task turned a 1.5s sweep into a 60s
        # one.  The pool must be abandoned (wait=False) and stuck process
        # workers forcibly reaped.
        import multiprocessing

        ev = ParallelEvaluator(2, mode="process", timeout=1.5)
        t0 = time.monotonic()
        out = ev.map(_hang_or_echo, ["hang", "a", "b", "c"],
                     timeout_result=lambda item: ("TO", item))
        elapsed = time.monotonic() - t0
        assert out == [("TO", "hang"), "a", "b", "c"]
        assert elapsed < 2 * 1.5, f"sweep wedged for {elapsed:.1f}s"
        # The hung fork worker must actually be dead, not leaked.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()


class TestBadJobsWarning:
    def test_garbage_value_warns_once_naming_value(self):
        import warnings as warnings_mod

        reset_warned_values()
        with pytest.warns(RuntimeWarning, match="garbage-49") as caught:
            assert ParallelEvaluator("garbage-49").jobs == 1
        assert len(caught) == 1
        # Deduplicated: the same bad value never warns twice.
        with warnings_mod.catch_warnings(record=True) as again:
            warnings_mod.simplefilter("always")
            assert resolve_jobs("garbage-49") == 1
        assert not again

    def test_garbage_argument_warns_with_source(self):
        reset_warned_values()
        with pytest.warns(RuntimeWarning, match="jobs argument"):
            assert resolve_jobs("many") == 1


def _suite_signature(suite):
    return [
        (p.problem_id,
         [(s.passed, s.score, s.generation.text,
           pickle.dumps(s.result)) for s in p.samples])
        for p in suite.problems
    ]


class TestSuiteEquivalence:
    PROBLEMS = all_problems()[:6]

    def test_parallel_evaluate_model_matches_serial(self):
        serial = evaluate_model("gpt-4", self.PROBLEMS, k=3,
                                temperature=1.1, seed=11, jobs=1)
        set_default_cache(CompileCache())
        threaded = evaluate_model("gpt-4", self.PROBLEMS, k=3,
                                  temperature=1.1, seed=11, jobs=4,
                                  mode="thread")
        set_default_cache(CompileCache())
        forked = evaluate_model("gpt-4", self.PROBLEMS, k=3,
                                temperature=1.1, seed=11, jobs=4,
                                mode="process")
        assert _suite_signature(serial) == _suite_signature(threaded)
        assert _suite_signature(serial) == _suite_signature(forked)

    def test_warm_cache_does_not_change_results(self):
        cold = evaluate_model("gpt-4o", self.PROBLEMS, k=2, seed=5, jobs=1)
        warm = evaluate_model("gpt-4o", self.PROBLEMS, k=2, seed=5, jobs=1)
        assert _suite_signature(cold) == _suite_signature(warm)
