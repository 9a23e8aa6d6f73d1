"""Checkpoint-store suite: the disk store, journals, and resume identity.

The contract under test has three layers:

* **the disk store** — the on-disk content-addressed
  :class:`repro.store.DiskStore` (atomic writes, corruption tolerated as
  counted misses);
* **cross-process reuse** — a subprocess reads what its parent wrote;
* **resume identity** — an interrupted sweep or fuzz campaign restarted
  with ``resume`` produces byte-identical results to an uninterrupted
  run, and corrupt checkpoints silently fall back to recomputation.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading

import pytest

import repro
from repro import obs
from repro.exec import sweep_map
from repro.fuzz.runner import campaign_fingerprint, run_campaign
from repro.store import (MISS, CampaignJournal, DiskStore, campaign_scope,
                         content_key, current_journal)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestContentKey:
    def test_stable_across_equal_keys(self):
        key = ("tb", "abc123", None, 10_000, 7, "auto")
        assert content_key(key) == content_key(
            ("tb", "abc123", None, 10_000, 7, "auto"))

    def test_distinct_keys_distinct_digests(self):
        assert content_key(("a", 1)) != content_key(("a", 2))

    def test_string_keys_hash_raw_text(self):
        # A plain string is digested as-is (no repr quoting), so callers
        # can pre-hash and the digest is reproducible from the text.
        import hashlib
        assert content_key("hello") == \
            hashlib.sha256(b"hello").hexdigest()

    def test_digest_shape(self):
        digest = content_key(("x",))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestDiskStore:
    def test_roundtrip(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        assert store.get("parse", content_key("k")) is None
        store.put("parse", content_key("k"), b"payload")
        assert store.get("parse", content_key("k")) == b"payload"
        stats = store.stats()["parse"]
        assert (stats.hits, stats.misses, stats.corrupt) == (1, 1, 0)

    def test_structured_keys_land_on_digest_paths(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("r", content_key(("tb", "hash", 5)), b"v")
        (digest,) = store.keys("r")
        assert len(digest) == 64
        # Two-char fan-out directory matches the digest prefix.
        path = os.path.join(str(tmp_path), "r", digest[:2],
                            digest + ".blob")
        assert os.path.exists(path)

    def test_truncated_blob_is_a_counted_miss(self, tmp_path):
        store = DiskStore(str(tmp_path))
        key = content_key("artifact")
        store.put("r", key, b"x" * 100)
        path = os.path.join(str(tmp_path), "r", key[:2], key + ".blob")
        with open(path, "r+b") as fh:
            fh.truncate(10)  # torn write: header survives, payload cut
        assert store.get("r", key) is None
        assert store.stats()["r"].corrupt == 1

    def test_garbage_blob_is_a_counted_miss(self, tmp_path):
        store = DiskStore(str(tmp_path))
        key = content_key("artifact")
        store.put("r", key, b"good")
        path = os.path.join(str(tmp_path), "r", key[:2], key + ".blob")
        with open(path, "wb") as fh:
            fh.write(b"vandalism, not a framed blob")
        assert store.get("r", key) is None
        assert store.stats()["r"].corrupt == 1
        # The slot heals on the next write.
        store.put("r", key, b"good")
        assert store.get("r", key) == b"good"

    def test_unpicklable_payload_is_a_counted_miss(self, tmp_path):
        """A whole frame whose payload does not unpickle: ``get`` returns
        the bytes, ``load`` a counted corrupt miss."""
        store = DiskStore(str(tmp_path))
        key = content_key("artifact")
        store.put("r", key, b"not a pickle")
        assert store.get("r", key) == b"not a pickle"
        assert store.load("r", key) is None
        stats = store.stats()["r"]
        assert (stats.hits, stats.misses, stats.corrupt) == (1, 1, 1)
        store.save("r", key, {"v": 1})
        assert store.load("r", key) == {"v": 1}

    def test_corrupt_miss_increments_obs_counter(self, tmp_path):
        sink = obs.InMemorySink()
        obs.install_tracer(obs.Tracer(sink, enabled=True))
        obs.reset_metrics()
        try:
            store = DiskStore(str(tmp_path))
            key = content_key("artifact")
            store.put("r", key, b"x" * 50)
            path = os.path.join(str(tmp_path), "r", key[:2],
                                key + ".blob")
            with open(path, "wb") as fh:
                fh.write(b"junk")
            assert store.get("r", key) is None
            metrics = obs.get_metrics()
            assert metrics.counter("store.corrupt").value == 1
            assert metrics.counter("store.misses").value == 1
            assert metrics.counter("store.writes").value == 1
        finally:
            obs.reset_tracer()
            obs.reset_metrics()

    def test_failed_write_degrades_to_passthrough(self, tmp_path,
                                                  monkeypatch):
        """A full (or read-only) disk silently disables persistence; it
        never takes the run down."""
        import repro.store.backend as backend_mod
        store = DiskStore(str(tmp_path))

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(backend_mod.tempfile, "mkstemp", disk_full)
        store.put("r", content_key("k"), b"v")  # must not raise
        assert store.get("r", content_key("k")) is None

    def test_concurrent_writers_never_expose_torn_blobs(self, tmp_path):
        """Writers race on one key; readers may see either payload (or
        nothing, before the first publish) but never a torn mix."""
        store = DiskStore(str(tmp_path))
        key = content_key("contended")
        payloads = [bytes([i]) * 50_000 for i in range(4)]
        stop = threading.Event()
        bad: list[bytes] = []

        def writer(payload: bytes) -> None:
            while not stop.is_set():
                store.put("r", key, payload)

        def reader() -> None:
            while not stop.is_set():
                blob = store.get("r", key)
                if blob is not None and blob not in payloads:
                    bad.append(blob)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        threading.Event().wait(0.4)
        stop.set()
        for t in threads:
            t.join()
        assert not bad
        assert store.stats()["r"].corrupt == 0


class TestCrossProcessReuse:
    def test_subprocess_reads_parent_artifacts(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.put("r", content_key("shared"), b"from-parent")
        script = (
            "import sys\n"
            "from repro.store import DiskStore, content_key\n"
            "store = DiskStore(sys.argv[1])\n"
            "blob = store.get('r', content_key('shared'))\n"
            "assert blob == b'from-parent', blob\n"
            "print('ok')\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=_subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestCampaignJournal:
    def test_record_then_resume_lookup(self, tmp_path):
        store = DiskStore(str(tmp_path))
        writer = CampaignJournal(store, ("camp", 1))
        writer.record("cell", 0, {"value": 42})
        assert writer.written == 1
        reader = CampaignJournal(store, ("camp", 1), resume=True)
        assert reader.lookup("cell", 0) == {"value": 42}
        assert reader.restored == 1

    def test_fresh_journal_never_reads(self, tmp_path):
        store = DiskStore(str(tmp_path))
        CampaignJournal(store, "c").record("cell", 0, "done")
        fresh = CampaignJournal(store, "c", resume=False)
        assert fresh.lookup("cell", 0) is MISS

    def test_campaigns_do_not_collide(self, tmp_path):
        store = DiskStore(str(tmp_path))
        CampaignJournal(store, ("camp", "a")).record("cell", 0, "a-result")
        other = CampaignJournal(store, ("camp", "b"), resume=True)
        assert other.lookup("cell", 0) is MISS

    def test_unpicklable_checkpoint_is_a_miss(self, tmp_path):
        store = DiskStore(str(tmp_path))
        journal = CampaignJournal(store, "c", resume=True)
        store.put(journal.region, journal.key("cell", 0), b"not a pickle")
        assert journal.lookup("cell", 0) is MISS
        assert journal.restored == 0
        stats = store.stats()[journal.region]
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)

    def test_journaled_none_is_restored(self, tmp_path):
        """``None`` is a result like any other, distinct from a miss."""
        store = DiskStore(str(tmp_path))
        CampaignJournal(store, "c").record("cell", 0, None)
        journal = CampaignJournal(store, "c", resume=True)
        assert journal.lookup("cell", 0) is None
        assert journal.restored == 1

    def test_campaign_scope_installs_and_restores(self, tmp_path):
        journal = CampaignJournal(DiskStore(str(tmp_path)), "c")
        assert current_journal() is None
        with campaign_scope(journal):
            assert current_journal() is journal
            with campaign_scope(None):
                assert current_journal() is None
            assert current_journal() is journal
        assert current_journal() is None


def _cell_outcome(payload):
    return {"cell": payload, "score": payload * payload}


def _dumps_each(results):
    """Per-element pickles: element identity is the contract.  (Pickling
    the whole list would also compare the *memo sharing* between elements
    — an artifact of which objects happen to be interned together, not of
    the results.)"""
    return [pickle.dumps(r) for r in results]


class TestSweepResume:
    def test_resume_equals_fresh(self, tmp_path):
        cells = list(range(6))
        fresh = sweep_map(_cell_outcome, cells)

        store = DiskStore(str(tmp_path))
        fingerprint = ("sweep", "unit", 0)
        # Interrupted run: only the first three cells complete.
        with campaign_scope(CampaignJournal(store, fingerprint)):
            sweep_map(_cell_outcome, cells[:3])
        journal = CampaignJournal(store, fingerprint, resume=True)
        with campaign_scope(journal):
            resumed = sweep_map(_cell_outcome, cells)

        assert _dumps_each(resumed) == _dumps_each(fresh)
        assert journal.restored == 3
        assert journal.written == 3  # only the remainder was recomputed

    def test_corrupt_checkpoint_recomputes_cell(self, tmp_path):
        cells = list(range(4))
        fresh = sweep_map(_cell_outcome, cells)
        store = DiskStore(str(tmp_path))
        with campaign_scope(CampaignJournal(store, "corrupt-test")):
            sweep_map(_cell_outcome, cells)
        # Vandalize one checkpoint on disk.
        digest = store.keys("campaign")[0]
        path = os.path.join(store.root, "campaign", digest[:2],
                            digest + ".blob")
        with open(path, "wb") as fh:
            fh.write(b"zap")
        journal = CampaignJournal(store, "corrupt-test", resume=True)
        with campaign_scope(journal):
            resumed = sweep_map(_cell_outcome, cells)
        assert _dumps_each(resumed) == _dumps_each(fresh)
        assert journal.restored == 3
        assert journal.written == 1  # the vandalized cell was recomputed

    def test_parallel_resume_equals_fresh(self, tmp_path):
        cells = list(range(8))
        fresh = sweep_map(_cell_outcome, cells, jobs=3)
        store = DiskStore(str(tmp_path))
        fingerprint = ("sweep", "parallel", 0)
        with campaign_scope(CampaignJournal(store, fingerprint)):
            sweep_map(_cell_outcome, cells[:5], jobs=3)
        journal = CampaignJournal(store, fingerprint, resume=True)
        with campaign_scope(journal):
            resumed = sweep_map(_cell_outcome, cells, jobs=3)
        assert _dumps_each(resumed) == _dumps_each(fresh)
        assert journal.restored == 5


class TestFuzzResume:
    @pytest.mark.slow
    def test_hundred_case_resume_equals_fresh(self, tmp_path):
        """An interrupted 100-case campaign resumed from its journal is
        byte-identical to the uninterrupted run."""
        seed = 1
        fresh = run_campaign(100, seed, corpus_dir=None)

        store = DiskStore(str(tmp_path))
        fingerprint = campaign_fingerprint(seed, None, None, True)
        # Interrupted run: the first 40 cases complete and checkpoint.
        run_campaign(40, seed, corpus_dir=None,
                     journal=CampaignJournal(store, fingerprint))
        journal = CampaignJournal(store, fingerprint, resume=True)
        resumed = run_campaign(100, seed, corpus_dir=None, journal=journal)

        assert journal.restored == 40
        assert pickle.dumps(resumed) == pickle.dumps(fresh)

    def test_short_resume_equals_fresh_with_findings_machinery(
            self, tmp_path):
        seed = 2
        fresh = run_campaign(12, seed, corpus_dir=None)
        store = DiskStore(str(tmp_path))
        fingerprint = campaign_fingerprint(seed, None, None, True)
        run_campaign(5, seed, corpus_dir=None,
                     journal=CampaignJournal(store, fingerprint))
        journal = CampaignJournal(store, fingerprint, resume=True)
        resumed = run_campaign(12, seed, corpus_dir=None, journal=journal)
        assert journal.restored == 5
        assert pickle.dumps(resumed) == pickle.dumps(fresh)

    def test_budget_extension_reuses_journal(self, tmp_path):
        """The fingerprint excludes the budget, so a finished campaign
        seeds a longer one."""
        store = DiskStore(str(tmp_path))
        fingerprint = campaign_fingerprint(3, None, None, True)
        run_campaign(6, 3, corpus_dir=None,
                     journal=CampaignJournal(store, fingerprint))
        journal = CampaignJournal(store, fingerprint, resume=True)
        extended = run_campaign(10, 3, corpus_dir=None, journal=journal)
        assert journal.restored == 6
        assert extended.cases_run == 10
