"""Campaign checkpoints: journal completed cells, resume mid-campaign.

A campaign — a sweep grid or a fuzz run — is a deterministic sequence of
independent cells.  :class:`CampaignJournal` records each completed cell's
result in a :class:`~repro.store.DiskStore` under a key derived from
the campaign fingerprint and the cell's content, so an interrupted
campaign restarted with ``--resume`` replays the finished prefix from the
store and computes only the remainder.  It is the only path by which
finished work crosses processes.  Because every cell is a pure function of its key and
journaled values round-trip through pickle, a resumed campaign's results
are byte-identical to an uninterrupted run (pinned by the identity tests
in ``tests/test_store.py``).

The journal's read side is gated by ``resume``: a fresh campaign always
*writes* checkpoints (so a later ``--resume`` has something to pick up)
but never *reads* them — reruns stay honest recomputations unless resume
was requested explicitly.

:func:`campaign_scope` installs a journal as the process-wide current
campaign; :class:`~repro.exec.scheduler.SweepScheduler` picks it up
automatically, so every registered flow's sweep becomes checkpointable
without touching flow signatures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .backend import DiskStore, content_key

#: Store region holding campaign checkpoints.
CAMPAIGN_REGION = "campaign"

#: Sentinel distinguishing "no checkpoint" from a journaled ``None``.
MISS = object()


class CampaignJournal:
    """Checkpoint ledger for one campaign in a :class:`DiskStore`.

    ``campaign`` is the campaign fingerprint — everything that determines
    the cell stream (flow/fuzzer name, model, seed, problem set, config).
    Cell keys mix the fingerprint with per-cell parts, so two campaigns
    can share one store directory without collisions.
    """

    def __init__(self, store: DiskStore, campaign: object, *,
                 resume: bool = False, region: str = CAMPAIGN_REGION):
        self.store = store
        self.campaign = content_key(campaign)
        self.resume = resume
        self.region = region
        self._written = 0
        self._restored = 0

    def key(self, *parts: object) -> str:
        return content_key((self.campaign,) + parts)

    def lookup(self, *parts: object) -> object:
        """The journaled value for a cell, or :data:`MISS`.

        Always a miss when ``resume`` is off — fresh campaigns recompute.
        A corrupt checkpoint (truncated blob, unpicklable payload) is a
        miss too, counted in the store's ``corrupt`` statistic: the cell
        is simply recomputed.
        """
        if not self.resume:
            return MISS
        value = self.store.load(self.region, self.key(*parts), MISS)
        if value is MISS:
            return MISS
        self._restored += 1
        return value

    def record(self, *parts_and_value: object) -> None:
        """Journal one completed cell: ``record(*parts, value)``."""
        *parts, value = parts_and_value
        self.store.save(self.region, self.key(*parts), value)
        self._written += 1

    @property
    def written(self) -> int:
        return self._written

    @property
    def restored(self) -> int:
        return self._restored


_current: CampaignJournal | None = None
_current_lock = threading.Lock()


def current_journal() -> CampaignJournal | None:
    """The journal installed by the innermost :func:`campaign_scope`."""
    return _current


@contextmanager
def campaign_scope(journal: CampaignJournal | None):
    """Install ``journal`` as the process-wide current campaign.

    One campaign runs at a time (the CLI launches exactly one); nested
    scopes restore the outer journal on exit.  ``None`` is accepted and
    means "no checkpointing", so callers can pass an optional journal
    straight through.
    """
    global _current
    with _current_lock:
        previous = _current
        _current = journal
    try:
        yield journal
    finally:
        with _current_lock:
            _current = previous
