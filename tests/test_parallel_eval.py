"""Parallel evaluation engine: deterministic ordering, jobs resolution,
the serial fallback, worker counters, and serial/pooled equivalence of
full suite evaluations."""

import pickle
import warnings

import pytest

from repro.bench import all_problems, evaluate_model
from repro.exec import ParallelEvaluator, resolve_jobs
from repro.exec import parallel as parallel_mod
from repro.exec.parallel import reset_warned_values
from repro.hdl import CompileCache, get_default_cache, set_default_cache
from repro.obs import get_metrics, reset_metrics


def _square(x):
    return x * x


def _raise_oserror(x):
    raise OSError(f"task {x} failed")


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


class TestOrderingAndModes:
    ITEMS = list(range(17))

    def test_serial_ordering(self):
        assert ParallelEvaluator(1).map(_square, self.ITEMS) == \
            [x * x for x in self.ITEMS]

    def test_pool_preserves_submission_order(self):
        out = ParallelEvaluator(4).map(_square, self.ITEMS)
        assert out == [x * x for x in self.ITEMS]

    def test_process_mode_propagates_pickling_error(self):
        # A lambda cannot cross a process boundary: a programming error,
        # not a reason to fall back.
        with pytest.raises((TypeError, AttributeError)):
            ParallelEvaluator(2).map(lambda x: x, [1, 2])

    def test_single_item_runs_inline(self):
        assert ParallelEvaluator(8).map(_square, [5]) == [25]

    def test_pool_start_failure_degrades_to_serial_once(self, monkeypatch):
        # A task's own OSError is the task's, not a pool-start failure.
        with pytest.raises(OSError, match="task 1 failed"):
            ParallelEvaluator(2).map(_raise_oserror, [1, 2])

        def no_pool(*_args, **_kwargs):
            raise OSError("no room for workers")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        reset_warned_values()
        seen = []

        def record(index, item, result):
            seen.append((index, item, result))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = ParallelEvaluator(2).map(_square, [3, 4, 5],
                                             on_result=record)
            second = ParallelEvaluator(2).map(_square, [6, 7])
        assert first == [9, 16, 25] and second == [36, 49]
        assert seen == [(0, 3, 9), (1, 4, 16), (2, 5, 25)]
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(messages) == 1
        assert "no room for workers" in messages[0]


class TestWorkerCounters:
    def test_critic_counters_match_serial(self, monkeypatch):
        """Counters a pooled task records in its worker reach the parent:
        the structured flow's critic counters read the same at jobs=1 and
        jobs=2."""
        from repro.flows import run_flow

        monkeypatch.setenv("REPRO_CRITIC", "1")
        problems = all_problems()[:6]
        counts = []
        for jobs in (1, 2):
            reset_metrics()
            set_default_cache(CompileCache())
            run_flow("structured", problems, "gpt-4", seed=0, jobs=jobs)
            counters = get_metrics().snapshot()["counters"]
            counts.append({name: value for name, value in counters.items()
                           if name.startswith("critic.")})
        reset_metrics()
        assert counts[0]["critic.candidates"] > 0
        assert counts[0]["critic.rejected"] > 0
        assert counts[1] == counts[0]


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
        forked = evaluate_model("gpt-4", self.PROBLEMS, k=3,
                                temperature=1.1, seed=11, jobs=4)
        assert _suite_signature(serial) == _suite_signature(forked)

    def test_warm_cache_does_not_change_results(self):
        cold = evaluate_model("gpt-4o", self.PROBLEMS, k=2, seed=5, jobs=1)
        warm = evaluate_model("gpt-4o", self.PROBLEMS, k=2, seed=5, jobs=1)
        assert _suite_signature(cold) == _suite_signature(warm)
