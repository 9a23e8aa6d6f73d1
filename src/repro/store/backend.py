"""The disk store and the memory LRU.

* :class:`DiskStore` — an on-disk content-addressed store of pickled
  values over named regions (``<root>/<region>/<aa>/<digest>`` files);
  campaign journals checkpoint through :meth:`DiskStore.save` and
  :meth:`DiskStore.load`.  Writes are atomic (temp file + ``os.replace``
  in the same directory), so concurrent writers — including
  :class:`~repro.exec.parallel.ParallelEvaluator` process workers sharing
  one store directory — can never expose a torn blob.  Reads are
  corruption-tolerant: a truncated or garbage file, or a whole frame that
  does not unpickle (:meth:`DiskStore.load`), is treated as a miss (and
  counted), never an exception.
* :class:`LruCache` — a bounded, thread-safe LRU of live objects; the
  in-process cache behind each of ``hdl.compile``'s layers.  Nothing on
  it is serialized.

Keys are strings; :func:`content_key` maps the repo's structured keys
(tuples of hashes, names, seeds) to a stable SHA-256 hex digest, so the
same checkpoint lands at the same path in every process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..obs import get_metrics, get_tracer


def content_key(key: object) -> str:
    """Stable SHA-256 digest of a structured cache key.

    ``repr`` of the repo's key shapes (nested tuples of str/int/bool/None,
    frozen dataclasses) is deterministic across processes — unlike
    ``hash()``, which is randomized, and unlike ``pickle``, whose memo
    layout can differ for equal values.
    """
    if isinstance(key, str):
        raw = key
    else:
        raw = repr(key)
    return hashlib.sha256(raw.encode("utf-8", "replace")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction/corruption counters for one cache region."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "corrupt": self.corrupt,
                "hit_rate": self.hit_rate}


class LruCache:
    """Bounded LRU of live objects (thread-safe).

    ``cumulative`` optionally shares process-wide counters that survive
    the cache (see ``repro.hdl.compile``'s per-layer registry).
    """

    def __init__(self, capacity: int, cumulative: CacheStats | None = None):
        self.capacity = max(1, int(capacity))
        self._data: OrderedDict[object, object] = OrderedDict()
        self.stats = CacheStats()
        self._cum = cumulative or CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: object) -> object | None:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.stats.misses += 1
                self._cum.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            self._cum.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evictions += 1
                self._cum.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class DiskStore:
    """Content-addressed on-disk blob store; see the module docstring.

    Layout: ``<root>/<region>/<digest[:2]>/<digest>.blob``.  The two-char
    fan-out keeps directory listings tractable for large campaigns.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._stats: dict[str, CacheStats] = {}
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    # -- internals ----------------------------------------------------------

    def _region_stats(self, region: str) -> CacheStats:
        with self._lock:
            stats = self._stats.get(region)
            if stats is None:
                stats = self._stats[region] = CacheStats()
            return stats

    def _path(self, region: str, key: str) -> str:
        digest = key if _is_digest(key) else content_key(key)
        return os.path.join(self.root, region, digest[:2], digest + ".blob")

    @staticmethod
    def _observe(event: str) -> None:
        if get_tracer().enabled:
            get_metrics().counter(f"store.{event}").add(1)

    # -- reads and writes ----------------------------------------------------

    def get(self, region: str, key: str) -> bytes | None:
        return self._read(region, key, None, None)

    def load(self, region: str, key: str,
             default: object = None) -> object:
        """The unpickled object under ``key``, or ``default`` on a miss.

        A whole frame whose payload does not unpickle (garbage in a valid
        frame, a class that changed shape) is a counted corrupt miss too.
        """
        return self._read(region, key, pickle.loads, default)

    def save(self, region: str, key: str, value: object) -> None:
        """Pickle ``value`` and :meth:`put` it."""
        self.put(region, key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

    def _read(self, region: str, key: str,
              decode: Callable[[bytes], object] | None,
              default: object) -> object:
        stats = self._region_stats(region)
        try:
            with open(self._path(region, key), "rb") as fh:
                blob = fh.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return self._miss(stats, False, default)
        except OSError:
            # Unreadable entry (permissions, I/O error): a miss, not a crash.
            return self._miss(stats, True, default)
        if not _blob_ok(blob):
            # Truncated or garbage entry — e.g. a crash mid-write on a
            # filesystem without atomic rename, or external vandalism.
            return self._miss(stats, True, default)
        value: object = _strip_frame(blob)
        if decode is not None:
            try:
                value = decode(value)
            except Exception:
                # Unpickling garbage can raise almost any exception type.
                return self._miss(stats, True, default)
        stats.hits += 1
        self._observe("hits")
        return value

    def _miss(self, stats: CacheStats, corrupt: bool,
              default: object) -> object:
        stats.misses += 1
        self._observe("misses")
        if corrupt:
            stats.corrupt += 1
            self._observe("corrupt")
        return default

    def put(self, region: str, key: str, blob: bytes) -> None:
        path = self._path(region, key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            # Atomic publish: write to a private temp file in the *same*
            # directory, then rename over the final name.  Readers see
            # either nothing or the complete framed blob; concurrent
            # writers of the same key race benignly (same content).
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_frame(blob))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A full or read-only disk degrades the store to a pass-through;
            # it never takes the run down.
            return
        self._region_stats(region)  # materialize the region row
        self._observe("writes")

    def stats(self) -> dict[str, CacheStats]:
        with self._lock:
            return dict(self._stats)

    # -- management ---------------------------------------------------------

    def keys(self, region: str) -> list[str]:
        """Digests present in one region (journal inspection, tests)."""
        region_dir = os.path.join(self.root, region)
        out: list[str] = []
        if not os.path.isdir(region_dir):
            return out
        for shard in sorted(os.listdir(region_dir)):
            shard_dir = os.path.join(region_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".blob"):
                    out.append(name[:-len(".blob")])
        return out


# Blob framing: an 8-byte header carrying a magic tag and the payload
# length.  ``_blob_ok`` validates both, which is what turns a truncated
# write (or arbitrary garbage dropped into the store directory) into a
# clean miss instead of a pickle exception deep inside a flow.
_MAGIC = b"RPS1"


def _frame(blob: bytes) -> bytes:
    return _MAGIC + len(blob).to_bytes(4, "big") + blob


def _blob_ok(framed: bytes) -> bool:
    if len(framed) < 8 or not framed.startswith(_MAGIC):
        return False
    return int.from_bytes(framed[4:8], "big") == len(framed) - 8


def _strip_frame(framed: bytes) -> bytes:
    return framed[8:]


def _is_digest(key: str) -> bool:
    return len(key) == 64 and all(c in "0123456789abcdef" for c in key)
