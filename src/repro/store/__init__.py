"""``repro.store`` — campaign checkpoints on disk, and the compile LRU.

Sweeps and fuzz campaigns used to die with their process.  This package
provides

* :class:`DiskStore` — an on-disk content-addressed store of pickled
  values (atomic writes, corruption-tolerant reads);
* :class:`CampaignJournal` + :func:`campaign_scope` — checkpointed
  campaigns: sweeps and fuzz runs journal completed cells in a
  :class:`DiskStore`, and ``--resume`` restarts mid-campaign
  byte-identically.  This is the only path by which finished work
  crosses processes (DESIGN.md §11);
* :class:`LruCache` — the bounded in-process LRU of live objects behind
  each layer of ``hdl.compile``.

The campaign CLIs open a store with ``--store [DIR]`` (default
``.repro-store``); without it everything stays in memory.
"""

from __future__ import annotations

from .backend import CacheStats, DiskStore, LruCache, content_key
from .journal import (CAMPAIGN_REGION, MISS, CampaignJournal, campaign_scope,
                      current_journal)

__all__ = [
    "CAMPAIGN_REGION", "CacheStats", "CampaignJournal", "DiskStore",
    "LruCache", "MISS", "campaign_scope", "content_key", "current_journal",
]
