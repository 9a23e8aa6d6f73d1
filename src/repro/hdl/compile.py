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

Each layer is one bounded :class:`~repro.store.LruCache` of *live* objects
(``parse``, ``design``, ``program``, ``result``): a hit hands back the
object that was stored, so what the cache returns is shared and no caller
may mutate it (``TestbenchResult`` is frozen; ``SourceFile``, ``Design``
and ``CompiledProgram`` are read-only by contract, pinned by
``tests/test_compile_cache.py``).  Nothing is pickled and nothing
outlives the process: the campaign journal (:mod:`repro.store`) is the
only path by which finished work crosses processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from . import ast as A
from ..obs import get_tracer
from ..store import CacheStats, LruCache
from .elaborate import Design, elaborate
from .parser import parse

#: Capacity of the parse, design and program layers.
COMPILE_CACHE_CAPACITY = 256
#: Capacity of the testbench-result memo.
RESULT_CACHE_CAPACITY = 1024

LAYERS = ("parse", "design", "program", "result")

# Process-wide per-layer counters that survive cache replacement: bench
# harnesses and tests build private ``CompileCache`` instances or reset the
# default cache mid-run, and the telemetry snapshot must still see every
# lookup.  ``flush_metrics`` reports these as ``hdl.cache.*``.
_CUMULATIVE = {layer: CacheStats() for layer in LAYERS}


def source_key(source: str) -> str:
    """Stable content hash used as the cache key for one compilation unit."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


def cache_gauges() -> dict[str, float]:
    """Flat ``hdl.cache.<layer>.<stat>`` gauges of the process-wide
    counters."""
    return {f"hdl.cache.{layer}.{key}": round(float(value), 6)
            for layer in LAYERS
            for key, value in _CUMULATIVE[layer].as_dict().items()}


@dataclass(frozen=True)
class CompiledSource:
    """One parsed compilation unit.  ``source_file`` is the cached AST,
    shared with every other hit: read it, never mutate it."""

    key: str
    source_file: A.SourceFile


@dataclass(frozen=True)
class CompiledDesign:
    """An elaborated design plus its cache identity.

    ``design`` is the cached object, shared with every other hit (and with
    the compiled program built from it): read it, never mutate it.
    """

    key: tuple
    top: str
    design: Design
    from_cache: bool = False
    units: tuple[str, ...] = ()


class CompileCache:
    """Four-layer compile cache: parse, link+elaborate, programs, results.

    Each layer is an LRU of live objects.
    """

    def __init__(self, parse_capacity: int | None = None,
                 design_capacity: int | None = None,
                 result_capacity: int | None = None):
        capacities = {
            "parse": parse_capacity or COMPILE_CACHE_CAPACITY,
            "design": design_capacity or COMPILE_CACHE_CAPACITY,
            "program": design_capacity or COMPILE_CACHE_CAPACITY,
            "result": result_capacity or RESULT_CACHE_CAPACITY,
        }
        self._layers = {layer: LruCache(capacities[layer], _CUMULATIVE[layer])
                        for layer in LAYERS}

    # -- parse layer --------------------------------------------------------

    def parse(self, source: str) -> CompiledSource:
        """Parse one unit, served from the parse layer when possible."""
        key = source_key(source)
        sf = self._layers["parse"].get(key)
        if sf is None:
            sf = parse(source)
            self._layers["parse"].put(key, sf)
        return CompiledSource(key, sf)

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
        design = self._layers["design"].get(dkey)
        if design is not None:
            return CompiledDesign(dkey, top, design, from_cache=True,
                                  units=keys)
        merged = A.SourceFile()
        for unit in unit_list:
            merged.modules.update(self.parse(unit).source_file.modules)
        design = elaborate(merged, top)
        self._layers["design"].put(dkey, design)
        return CompiledDesign(dkey, top, design, from_cache=False, units=keys)

    # -- compiled-program layer ---------------------------------------------

    def get_program(self, design_key: tuple) -> tuple | None:
        """Cached compiled-engine entry for a design key.

        Returns ``("ok", CompiledProgram)``, ``("ineligible", reason)`` —
        negative results are cached too, so an unsupported design is
        analysed once — or ``None`` on a miss.
        """
        return self._layers["program"].get(design_key)

    def put_program(self, design_key: tuple, entry: tuple) -> None:
        """Store a ``("ok", program)`` / ``("ineligible", reason)`` entry."""
        self._layers["program"].put(design_key, entry)

    # -- result memo --------------------------------------------------------

    def get_result(self, key: tuple) -> object | None:
        return self._layers["result"].get(key)

    def put_result(self, key: tuple, result: object) -> None:
        self._layers["result"].put(key, result)

    # -- management ---------------------------------------------------------

    def stats(self) -> dict[str, CacheStats]:
        """This instance's counters per layer."""
        return {layer: lru.stats for layer, lru in self._layers.items()}

    def stats_dict(self) -> dict[str, dict[str, float]]:
        return {layer: {**lru.stats.as_dict(), "size": len(lru)}
                for layer, lru in self._layers.items()}

    def clear(self) -> None:
        """Drop every layer's entries (the counters survive)."""
        for lru in self._layers.values():
            lru.clear()


_default_cache = CompileCache()


def get_default_cache() -> CompileCache:
    return _default_cache


def set_default_cache(cache: CompileCache) -> CompileCache:
    global _default_cache
    _default_cache = cache
    return cache


def compile_design(sources: str | Sequence[str], top: str,
                   cache: CompileCache | None = None) -> CompiledDesign:
    """Compile (and link) ``sources``; elaborate ``top``.  Cached by content."""
    return (cache or _default_cache).compile(sources, top)
