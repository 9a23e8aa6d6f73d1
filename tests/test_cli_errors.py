"""Error-path coverage for the repo's CLIs.

The happy paths are smoke-tested elsewhere; these tests pin down the
failure contracts — exit code 2 plus a stderr message, never a raw
traceback — for ``python -m repro.flows`` and ``python -m repro.obs.report``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.flows.__main__ import main as flows_main
from repro.fuzz.__main__ import main as fuzz_main
from repro.obs.report import main as report_main


class TestFlowsCli:
    def test_unknown_flow_name(self, capsys):
        assert flows_main(["definitely-not-a-flow"]) == 2
        err = capsys.readouterr().err
        assert "unknown flow" in err
        assert "known flows" in err  # actionable: lists what exists

    def test_bad_seed_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            flows_main(["vrank", "--seed", "not-an-int"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_problem_id(self, capsys):
        assert flows_main(["vrank", "--problems", "no_such_problem"]) == 2
        err = capsys.readouterr().err
        assert "unknown problem" in err
        assert "known" in err  # actionable: lists valid ids

    def test_list_exits_zero(self, capsys):
        assert flows_main(["--list"]) == 0
        assert "vrank" in capsys.readouterr().out

    def test_no_arguments_lists_flows(self, capsys):
        assert flows_main([]) == 0
        assert "vrank" in capsys.readouterr().out


class TestFlowsCliBudget:
    def test_nonpositive_budget_tokens(self, capsys):
        assert flows_main(["autochip", "--problems", "c2_gray",
                           "--budget-tokens", "0"]) == 2
        err = capsys.readouterr().err
        assert "invalid budget" in err
        assert "max_tokens" in err

    def test_negative_deadline(self, capsys):
        assert flows_main(["autochip", "--problems", "c2_gray",
                           "--deadline-s", "-1.5"]) == 2
        err = capsys.readouterr().err
        assert "invalid budget" in err
        assert "deadline_s" in err

    def test_non_integer_budget_evals(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            flows_main(["autochip", "--budget-evals", "three"])
        assert excinfo.value.code == 2
        assert "--budget-evals" in capsys.readouterr().err

    def test_budget_on_flow_without_support(self, capsys):
        assert flows_main(["vrank", "--problems", "c2_gray",
                           "--budget-tokens", "1000"]) == 2
        err = capsys.readouterr().err
        assert "does not support" in err

    def test_budget_truncates_autochip(self, capsys):
        # One eval allowed: the run stops after its first round.
        assert flows_main(["autochip", "--problems", "c2_gray",
                           "--model", "chatgpt-3.5",
                           "--budget-evals", "1"]) == 0
        out = capsys.readouterr().out
        assert "c2_gray" in out


class TestStoreFlagConventions:
    """``--store``/``--resume`` behave identically across the CLIs."""

    def test_flows_resume_without_store(self, capsys):
        assert flows_main(["vrank", "--problems", "c1_mux2",
                           "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires an active artifact store" in err

    def test_fuzz_resume_without_store(self, capsys):
        assert fuzz_main(["--budget", "1", "--no-corpus", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires an active artifact store" in err

    def test_resume_ignores_retired_store_env(self, tmp_path, monkeypatch,
                                              capsys):
        """Only ``--store`` opens a checkpoint store; the retired
        environment knobs do not."""
        monkeypatch.setenv("REPRO_" + "STORE", "1")
        monkeypatch.setenv("REPRO_" + "STORE_DIR", str(tmp_path))
        assert fuzz_main(["--budget", "2", "--no-corpus", "--quiet",
                          "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires an active artifact store" in err
        assert os.listdir(tmp_path) == []

    def test_store_flag_leaves_environment_alone(self, tmp_path,
                                                 monkeypatch, capsys):
        for key in [k for k in os.environ if k.startswith("REPRO_STORE")]:
            monkeypatch.delenv(key)
        assert fuzz_main(["--budget", "2", "--no-corpus", "--quiet",
                          "--store", str(tmp_path / "s")]) == 0
        assert not [k for k in os.environ if k.startswith("REPRO_STORE")]

    def test_fuzz_resume_extends_a_campaign(self, tmp_path, capsys):
        """A resumed, longer campaign prints what a fresh one prints and
        says how many cases it restored."""
        store = ["--store", str(tmp_path)]
        base = ["--seed", "4", "--no-corpus", "--quiet"]
        assert fuzz_main(base + ["--budget", "3"] + store) == 0
        capsys.readouterr()
        assert fuzz_main(base + ["--budget", "5", "--resume"] + store) == 0
        resumed = capsys.readouterr()
        assert fuzz_main(base + ["--budget", "5"]) == 0
        assert resumed.out == capsys.readouterr().out
        assert "3 cases restored from the journal, 2 run" in resumed.err

    def test_store_flag_takes_optional_directory(self, tmp_path, capsys):
        assert fuzz_main(["--budget", "2", "--no-corpus", "--quiet",
                          "--store", str(tmp_path / "s")]) == 0
        assert os.path.isdir(tmp_path / "s" / "campaign")


class TestSeedConvention:
    """Every CLI rejects a non-integer --seed with exit status 2."""

    @pytest.mark.parametrize("main,argv", [
        (flows_main, ["vrank", "--seed", "x"]),
        (fuzz_main, ["--seed", "x"]),
    ])
    def test_bad_seed_exits_two(self, main, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestObsReportCli:
    def test_no_arguments_prints_usage(self, capsys):
        assert report_main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            report_main(["trace.jsonl", "--bogus"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_trace_file(self, capsys):
        assert report_main(["/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "cannot read trace" in err

    def test_malformed_jsonl(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"type": "span", "name": "x"\nnot json at all\n')
        assert report_main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not a JSONL trace" in err

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_valid_trace_renders(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        records = [
            {"type": "span", "name": "fuzz.case", "span_id": 1,
             "parent_id": None, "start_s": 0.0, "duration_s": 0.002},
            {"type": "metrics", "counters": {"fuzz.cases": 1},
             "histograms": {}, "gauges": {}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert report_main([str(trace), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "fuzz.case" in out
        assert "fuzz.cases" in out
