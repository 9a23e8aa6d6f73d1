"""Content-addressed compile front-end: ``parse -> elaborate`` with caching.

Every flow in the repo bottoms out in "compile this candidate against that
testbench and simulate" — and the front-end (lexing and parsing) is repeated
for the *same* sources thousands of times per suite: the testbench is fixed
per problem, and a seeded :class:`~repro.llm.model.SimulatedLLM` at low
temperature emits duplicate candidates.  Over two ``rtl_gen`` rounds of the
end-to-end benchmark (seed 5, 2-vCPU host), an average source took 0.42 ms
to lex and 0.21 ms to parse, against 2.0 ms per
:func:`repro.hdl.run_testbench` call, cache hits included.  This module
splits compilation into explicit, separately-cacheable stages:

* :meth:`CompileCache.parse` — source text -> :class:`~repro.hdl.ast.SourceFile`,
  keyed by content hash,
* :meth:`CompileCache.compile` — one *or several* compilation units linked
  (module-dict merge, later units win, mirroring concatenated parsing) and
  elaborated into a :class:`~repro.hdl.elaborate.Design`, keyed by the tuple
  of unit hashes plus the top module, and
* a result memo used by :func:`repro.hdl.run_testbench` — a testbench run is
  a pure function of ``(sources, top, max_time, seed)``, so repeated
  identical runs are served from cache.

Poison safety: cache entries are stored as pickled blobs and every lookup —
hit *or* cold — materializes fresh objects from the blob, so mutating a
returned ``CompiledDesign`` (or the AST reachable from it) cannot corrupt
later hits.  ``pickle.loads`` of a design is ~12x cheaper than re-parsing.

Each layer is a named region of one shared :class:`repro.store.CacheBackend`
— a bounded in-memory LRU front by default, tiered over the on-disk
content-addressed :class:`repro.store.DiskStore` when ``REPRO_STORE=1``, so
a second process starts warm from the first one's artifacts.  Capacities
can be tuned with ``REPRO_COMPILE_CACHE`` (designs/parses/programs) and
``REPRO_RESULT_CACHE`` (testbench results), and the whole layer disabled
with ``REPRO_HDL_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass
from typing import Sequence

from . import ast as A
from ..obs import get_tracer
from ..store import (CacheStats, MemoryBackend, TieredBackend, content_key,
                     get_default_store)
from ..store import LruBlobCache as _LruBlobCache  # noqa: F401 (re-export)
from .elaborate import Design, elaborate
from .parser import parse


def source_key(source: str) -> str:
    """Stable content hash used as the cache key for one compilation unit."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


# Process-wide per-layer counters that survive cache replacement.  Bench
# harnesses (and some tests) build private ``CompileCache`` instances or
# reset the default cache mid-run, which used to zero the per-instance
# stats before the telemetry snapshot was taken — every ``hdl.cache.*``
# gauge read 0.0 despite thousands of lookups.  The cumulative registry
# accumulates across *all* instances and is what ``flush_metrics`` merges
# into snapshots (as ``hdl.cache_cumulative.*``).
_CUMULATIVE: dict[str, CacheStats] = {}
_CUM_LOCK = threading.Lock()


def _cum(layer: str) -> CacheStats:
    with _CUM_LOCK:
        stats = _CUMULATIVE.get(layer)
        if stats is None:
            stats = _CUMULATIVE[layer] = CacheStats()
        return stats


def cumulative_gauges(prefix: str = "hdl.cache_cumulative") -> dict[str, float]:
    """Flat gauge view of the process-wide cache counters."""
    with _CUM_LOCK:
        layers = sorted(_CUMULATIVE)
    return {f"{prefix}.{layer}.{key}": round(float(value), 6)
            for layer in layers
            for key, value in _cum(layer).as_dict().items()}


class _LayerView:
    """One compile-cache layer as a named-region view over the shared
    :class:`~repro.store.CacheBackend`.

    Keys stay the structured tuples the call sites use; the view hashes
    them to the backend's string keyspace with
    :func:`~repro.store.content_key` (parse keys are already digests).
    Stats, capacity and size report the in-memory tier — in-process cache
    effectiveness — while disk-tier hits/misses/corruption accumulate in
    the :class:`~repro.store.DiskStore`'s own ``store.*`` counters.
    """

    __slots__ = ("_backend", "_memory", "name")

    def __init__(self, backend: TieredBackend | MemoryBackend, name: str):
        self._backend = backend
        self._memory = backend.memory \
            if isinstance(backend, TieredBackend) else backend
        self.name = name

    @staticmethod
    def _skey(key: object) -> str:
        return key if isinstance(key, str) else content_key(key)

    @property
    def stats(self) -> CacheStats:
        return self._memory.region(self.name).stats

    @property
    def capacity(self) -> int:
        return self._memory.region(self.name).capacity

    def __len__(self) -> int:
        return len(self._memory.region(self.name))

    def get(self, key: object) -> bytes | None:
        return self._backend.get(self.name, self._skey(key))

    def put(self, key: object, blob: bytes) -> None:
        self._backend.put(self.name, self._skey(key), blob)

    def record_live_hit(self) -> None:
        """Count a hit served from a live (unpickled) side table."""
        lru = self._memory.region(self.name)
        lru.stats.hits += 1
        lru._cum.hits += 1

    def clear(self) -> None:
        """Drop the in-memory tier; persisted artifacts survive."""
        self._memory.region(self.name).clear()


@dataclass(frozen=True)
class CompiledSource:
    """One parsed compilation unit.  ``source_file`` is caller-owned."""

    key: str
    source_file: A.SourceFile


@dataclass
class CompiledDesign:
    """An elaborated design plus its cache identity.

    ``design`` is a fresh materialization — callers may mutate it freely
    without affecting later cache hits.
    """

    key: tuple
    top: str
    design: Design
    from_cache: bool = False
    units: tuple[str, ...] = ()


def cache_enabled() -> bool:
    from ..config import get_settings
    return get_settings().hdl_cache_enabled


class CompileCache:
    """Four-layer compile cache: parse, link+elaborate, programs, results.

    The layers are views over one shared :class:`~repro.store.CacheBackend`
    — memory-only by default, tiered over the process-wide
    :class:`~repro.store.DiskStore` when ``REPRO_STORE=1`` (resolved live,
    so flipping the knob mid-process takes effect on the next lookup).  A
    custom ``backend`` (any :class:`~repro.store.TieredBackend` or
    :class:`~repro.store.MemoryBackend`) overrides both.
    """

    def __init__(self, parse_capacity: int | None = None,
                 design_capacity: int | None = None,
                 result_capacity: int | None = None,
                 backend: TieredBackend | MemoryBackend | None = None):
        from ..config import get_settings
        settings = get_settings()
        cap = settings.compile_cache_capacity
        if backend is None:
            capacities = {
                "parse": parse_capacity or cap,
                "design": design_capacity or cap,
                "program": design_capacity or cap,
                "result": result_capacity or settings.result_cache_capacity,
            }
            backend = TieredBackend(
                MemoryBackend(capacities,
                              cumulative={r: _cum(r) for r in capacities}),
                disk=get_default_store)
        self._backend = backend
        self._parses = _LayerView(backend, "parse")
        self._designs = _LayerView(backend, "design")
        self._results = _LayerView(backend, "result")
        self._programs = _LayerView(backend, "program")
        # Live ASTs for internal linking only (never handed to callers):
        # avoids an unpickle on the design-miss path.  Bounded alongside
        # the parse LRU by periodic pruning.
        self._live: dict[str, A.SourceFile] = {}
        # Live compiled-program entries: keeps the exec'd namespace warm
        # (re-exec'ing generated source is the expensive half of a program
        # unpickle).  Bounded the same way as ``_live``.
        self._live_programs: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    # -- parse layer --------------------------------------------------------

    def _parse_shared(self, source: str) -> tuple[str, A.SourceFile]:
        """Parse with caching; the returned AST is shared and must not be
        mutated (internal use only)."""
        key = source_key(source)
        with self._lock:
            live = self._live.get(key)
        if live is not None:
            self._parses.record_live_hit()
            return key, live
        blob = self._parses.get(key)
        if blob is not None:
            sf = pickle.loads(blob)
        else:
            sf = parse(source)
            self._parses.put(key, pickle.dumps(sf, pickle.HIGHEST_PROTOCOL))
        with self._lock:
            if len(self._live) >= self._parses.capacity:
                self._live.clear()
            self._live[key] = sf
        return key, sf

    def parse(self, source: str) -> CompiledSource:
        """Parse one unit; the returned AST is a private copy."""
        key, _ = self._parse_shared(source)
        blob = self._parses.get(key)
        assert blob is not None
        return CompiledSource(key, pickle.loads(blob))

    # -- link + elaborate layer --------------------------------------------

    def compile(self, sources: str | Sequence[str], top: str) -> CompiledDesign:
        """Compile one or more units and elaborate ``top``.

        Multiple units are linked by merging their module tables in order
        (later definitions win), which is exactly what parsing the
        concatenated text would produce — so a DUT and a testbench can be
        compiled separately and cached independently.
        """
        with get_tracer().span("hdl.compile", top=top) as sp:
            compiled = self._compile_impl(sources, top)
            sp.set(cached=compiled.from_cache, units=len(compiled.units))
            return compiled

    def _compile_impl(self, sources: str | Sequence[str],
                      top: str) -> CompiledDesign:
        unit_list = [sources] if isinstance(sources, str) else list(sources)
        keys = tuple(source_key(s) for s in unit_list)
        dkey = (keys, top)
        blob = self._designs.get(dkey)
        if blob is not None:
            return CompiledDesign(dkey, top, pickle.loads(blob),
                                  from_cache=True, units=keys)
        merged = A.SourceFile()
        for unit in unit_list:
            _, sf = self._parse_shared(unit)
            merged.modules.update(sf.modules)
        design = elaborate(merged, top)
        blob = pickle.dumps(design, pickle.HIGHEST_PROTOCOL)
        self._designs.put(dkey, blob)
        # Materialize from the blob even on the cold path: the freshly
        # elaborated design references the shared parse-cache AST, and the
        # caller is allowed to mutate what we hand out.
        return CompiledDesign(dkey, top, pickle.loads(blob),
                              from_cache=False, units=keys)

    # -- compiled-program layer ---------------------------------------------

    def get_program(self, design_key: tuple) -> tuple | None:
        """Cached compiled-engine entry for a design key.

        Returns ``("ok", CompiledProgram)``, ``("ineligible", reason)`` —
        negative results are cached too, so an unsupported design is
        analysed once — or ``None`` on a miss.
        """
        with self._lock:
            live = self._live_programs.get(design_key)
        if live is not None:
            self._programs.record_live_hit()
            return live
        blob = self._programs.get(design_key)
        if blob is None:
            return None
        entry = pickle.loads(blob)
        with self._lock:
            if len(self._live_programs) >= self._programs.capacity:
                self._live_programs.clear()
            self._live_programs[design_key] = entry
        return entry

    def put_program(self, design_key: tuple, entry: tuple) -> None:
        """Store a ``("ok", program)`` / ``("ineligible", reason)`` entry."""
        self._programs.put(
            design_key, pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
        with self._lock:
            if len(self._live_programs) >= self._programs.capacity:
                self._live_programs.clear()
            self._live_programs[design_key] = entry

    # -- result memo --------------------------------------------------------

    def get_result(self, key: tuple) -> object | None:
        blob = self._results.get(key)
        return pickle.loads(blob) if blob is not None else None

    def put_result(self, key: tuple, result: object) -> None:
        self._results.put(key, pickle.dumps(result, pickle.HIGHEST_PROTOCOL))

    # -- management ---------------------------------------------------------

    def stats(self) -> dict[str, CacheStats]:
        return {"parse": self._parses.stats, "design": self._designs.stats,
                "result": self._results.stats,
                "program": self._programs.stats}

    def stats_dict(self) -> dict[str, dict[str, float]]:
        layers = {"parse": self._parses, "design": self._designs,
                  "result": self._results, "program": self._programs}
        return {name: {**lru.stats.as_dict(), "size": len(lru)}
                for name, lru in layers.items()}

    def metrics_gauges(self, prefix: str = "hdl.cache") -> dict[str, float]:
        """Flat ``prefix.layer.stat`` gauge view of :meth:`stats` for
        telemetry snapshots (see :func:`repro.obs.flush_metrics`)."""
        return {f"{prefix}.{layer}.{key}": round(float(value), 6)
                for layer, stats in self.stats_dict().items()
                for key, value in stats.items()}

    def clear(self) -> None:
        self._parses.clear()
        self._designs.clear()
        self._results.clear()
        self._programs.clear()
        with self._lock:
            self._live.clear()
            self._live_programs.clear()


_default_cache = CompileCache()


def get_default_cache() -> CompileCache:
    return _default_cache


def set_default_cache(cache: CompileCache) -> CompileCache:
    global _default_cache
    _default_cache = cache
    return cache


def compile_design(sources: str | Sequence[str], top: str,
                   cache: CompileCache | None = None) -> CompiledDesign:
    """Compile (and link) ``sources``; elaborate ``top``.  Cached by content.

    With ``REPRO_HDL_CACHE=0`` this degrades to a plain parse+elaborate.
    """
    if not cache_enabled():
        unit_list = [sources] if isinstance(sources, str) else list(sources)
        merged = A.SourceFile()
        for unit in unit_list:
            merged.modules.update(parse(unit).modules)
        design = elaborate(merged, top)
        return CompiledDesign((tuple(source_key(s) for s in unit_list), top),
                              top, design)
    return (cache or _default_cache).compile(sources, top)
