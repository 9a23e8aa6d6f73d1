"""``repro.store`` — persistent content-addressed artifacts.

The ROADMAP's warm-restart story: every cache and campaign ledger in the
repo used to die with the process, so sweeps, fuzz campaigns, and CI
always started cold.  This package provides

* :class:`DiskStore` — the on-disk content-addressed store (atomic
  writes, corruption-tolerant reads) behind the :class:`CacheBackend`
  blob protocol; ``hdl.compile``'s layers keep live objects in
  :class:`LruCache` s and pickle only on the way to it;
* :class:`CampaignJournal` + :func:`campaign_scope` — checkpointed
  campaigns: sweeps and fuzz runs journal completed cells and
  ``--resume`` restarts mid-campaign byte-identically.

Enable persistence with ``REPRO_STORE=1`` (artifacts under
``REPRO_STORE_DIR``, default ``.repro-store``); everything stays
memory-only when the knob is off.  Disk caching cannot change results:
keys are content hashes of everything a computation depends on, and a
disk hit unpickles to a value equal to the one that was stored
(DESIGN.md §11).
"""

from __future__ import annotations

import threading

from .backend import (CacheBackend, CacheStats, DiskStore, LruCache,
                      content_key)
from .journal import (CAMPAIGN_REGION, MISS, CampaignJournal, campaign_scope,
                      current_journal)

__all__ = [
    "CAMPAIGN_REGION", "CacheBackend", "CacheStats", "CampaignJournal",
    "DiskStore", "LruCache", "MISS", "campaign_scope", "content_key",
    "current_journal", "get_default_store", "reset_default_store",
    "set_default_store", "store_gauges",
]

_default_store: DiskStore | None = None
_default_key: tuple | None = None
_override: DiskStore | None = None
_lock = threading.Lock()


def get_default_store() -> DiskStore | None:
    """The process-wide :class:`DiskStore`, or ``None`` when disabled.

    Resolved live from ``REPRO_STORE`` / ``REPRO_STORE_DIR`` so flipping
    the knobs mid-process (tests, operators) takes effect immediately;
    the instance is cached per directory so stats accumulate.
    """
    global _default_store, _default_key
    with _lock:
        if _override is not None:
            return _override
        from ..config import get_settings
        settings = get_settings()
        key = (settings.store_enabled, settings.store_dir)
        if key == _default_key:
            return _default_store
        _default_key = key
        _default_store = DiskStore(settings.store_dir) \
            if settings.store_enabled else None
        return _default_store


def set_default_store(store: DiskStore | None) -> DiskStore | None:
    """Install an explicit store (tests); ``None`` restores env resolution."""
    global _override, _default_key
    with _lock:
        _override = store
        _default_key = None
    return store


def reset_default_store() -> None:
    """Drop the cached instance so the next access re-reads the env."""
    global _default_store, _default_key, _override
    with _lock:
        _default_store = None
        _default_key = None
        _override = None


def store_gauges() -> dict[str, float]:
    """Flat ``store.region.stat`` gauges for telemetry snapshots
    (merged by :func:`repro.obs.flush_metrics`); empty when disabled."""
    store = get_default_store()
    return store.gauges() if store is not None else {}
