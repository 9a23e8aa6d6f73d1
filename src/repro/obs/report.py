"""Render a telemetry run summary from spans and metrics records.

Reuses :func:`repro.core.report.format_table` so observability output
matches the repo's experiment tables.  Accepts records from an
:class:`~repro.obs.sinks.InMemorySink`, a JSONL trace file, or any list
of record dicts:

>>> from repro import obs
>>> from repro.obs import report
>>> print(report.render(obs.get_tracer().sink.records))  # doctest: +SKIP

Also usable as a CLI on a ``REPRO_TRACE_FILE`` dump::

    PYTHONPATH=src python -m repro.obs.report trace.jsonl
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.report import format_table
from .sinks import InMemorySink, read_jsonl


def _coerce_records(source) -> list[dict]:
    if isinstance(source, InMemorySink):
        return list(source.records)
    if isinstance(source, str):
        return read_jsonl(source)
    return list(source)


def aggregate_spans(records: Iterable[dict]) -> list[dict]:
    """Aggregate span records by name: count, total/mean/max duration."""
    agg: dict[str, dict] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        entry = agg.setdefault(record["name"], {
            "name": record["name"], "count": 0, "total_s": 0.0, "max_s": 0.0})
        duration = float(record.get("duration_s", 0.0))
        entry["count"] += 1
        entry["total_s"] += duration
        entry["max_s"] = max(entry["max_s"], duration)
    out = sorted(agg.values(), key=lambda e: -e["total_s"])
    for entry in out:
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return out


def span_table(records: Iterable[dict]) -> str:
    rows = [[e["name"], e["count"], f"{e['total_s'] * 1e3:.1f}",
             f"{e['mean_s'] * 1e3:.2f}", f"{e['max_s'] * 1e3:.2f}"]
            for e in aggregate_spans(records)]
    if not rows:
        return "(no spans recorded)"
    return format_table(["span", "count", "total ms", "mean ms", "max ms"],
                        rows)


def metrics_table(records: Iterable[dict]) -> str:
    """Table of the *last* metrics snapshot (cumulative totals)."""
    snapshots = [r for r in records if r.get("type") == "metrics"]
    if not snapshots:
        return "(no metrics recorded)"
    snap = snapshots[-1]
    rows: list[list[object]] = []
    for name, value in snap.get("counters", {}).items():
        rows.append([name, "counter", value])
    for name, h in snap.get("histograms", {}).items():
        rows.append([name, "histogram",
                     f"n={h['count']} mean={h['mean']:.4g} max={h['max']:.4g}"])
    for name, value in snap.get("gauges", {}).items():
        rows.append([name, "gauge", value])
    if not rows:
        return "(metrics snapshot is empty)"
    return format_table(["metric", "kind", "value"], rows)


def engine_table(records: Iterable[dict]) -> str:
    """Per-engine simulation breakdown from ``sim.backend.*`` counters.

    Rows come from the last metrics snapshot: one per backend (event,
    compiled) plus the selector outcomes (fallbacks, ineligible designs).
    Returns ``""`` when no engine counters were recorded.
    """
    snapshots = [r for r in _coerce_records(records)
                 if r.get("type") == "metrics"]
    if not snapshots:
        return ""
    counters = snapshots[-1].get("counters", {})
    backends: dict[str, dict[str, object]] = {}
    selector_rows: list[list[object]] = []
    for name, value in counters.items():
        if not name.startswith("sim.backend."):
            continue
        rest = name[len("sim.backend."):]
        if "." in rest:
            backend, stat = rest.split(".", 1)
            backends.setdefault(backend, {})[stat] = value
        else:
            selector_rows.append([rest, "-", "-", value])
    rows = [[backend, stats.get("runs", 0), stats.get("events", 0), "-"]
            for backend, stats in sorted(backends.items())]
    rows += sorted(selector_rows)
    if not rows:
        return ""
    return format_table(["sim backend", "runs", "events", "count"], rows)


def critic_table(records: Iterable[dict]) -> str:
    """Critic verdict breakdown from ``critic.*`` metrics.

    One row per counter: candidates reviewed, rejections, and
    per-taxonomy flag counts (``critic.flag.<label>``) from the last
    metrics snapshot.  Returns ``""`` when the run never ran the critic.
    """
    snapshots = [r for r in _coerce_records(records)
                 if r.get("type") == "metrics"]
    if not snapshots:
        return ""
    snap = snapshots[-1]
    rows: list[list[object]] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        if name.startswith("critic."):
            rows.append([name, "counter", value])
    if not rows:
        return ""
    return format_table(["critic metric", "kind", "value"], rows)


def store_table(records: Iterable[dict]) -> str:
    """Artifact-store breakdown from ``store.*`` gauges and counters.

    One row per region/stat gauge (hits, misses, corrupt blobs, writes)
    from the last metrics snapshot, plus any live ``store.*`` counters.
    Returns ``""`` when the run never touched the persistent store.
    """
    snapshots = [r for r in _coerce_records(records)
                 if r.get("type") == "metrics"]
    if not snapshots:
        return ""
    snap = snapshots[-1]
    rows: list[list[object]] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        if name.startswith("store."):
            rows.append([name, "counter", value])
    for name, value in sorted(snap.get("gauges", {}).items()):
        if name.startswith("store."):
            rows.append([name, "gauge", value])
    if not rows:
        return ""
    return format_table(["store metric", "kind", "value"], rows)


def render(source) -> str:
    """Full run summary: span aggregation plus the latest metrics snapshot.

    ``source`` is an :class:`InMemorySink`, a JSONL trace path, or a list
    of record dicts.
    """
    records = _coerce_records(source)
    spans = [r for r in records if r.get("type") == "span"]
    lines = [f"telemetry: {len(spans)} spans, "
             f"{len(records) - len(spans)} other records", ""]
    lines.append(span_table(records))
    lines.append("")
    lines.append(metrics_table(records))
    engines = engine_table(records)
    if engines:
        lines.append("")
        lines.append(engines)
    critic = critic_table(records)
    if critic:
        lines.append("")
        lines.append(critic)
    store = store_table(records)
    if store:
        lines.append("")
        lines.append(store)
    return "\n".join(lines)


def span_tree(records: Iterable[dict], max_depth: int = 6) -> str:
    """Indented parent/child view of individual spans (debugging aid)."""
    records = [r for r in _coerce_records(records)
               if r.get("type") == "span"]
    children: dict[object, list[dict]] = {}
    for r in records:
        children.setdefault(r.get("parent_id"), []).append(r)
    lines: list[str] = []

    def walk(parent_id, depth: int) -> None:
        if depth > max_depth:
            return
        for r in sorted(children.get(parent_id, ()),
                        key=lambda x: x.get("start_s", 0.0)):
            attrs = r.get("attrs") or {}
            attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
            lines.append(f"{'  ' * depth}{r['name']} "
                         f"[{float(r.get('duration_s', 0.0)) * 1e3:.2f}ms]"
                         + (f" {attr_text}" if attr_text else ""))
            walk(r["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def main(argv: Sequence[str] | None = None) -> int:
    import json

    from ..cli import build_parser, fail
    parser = build_parser(
        prog="python -m repro.obs.report",
        description="Render span/metrics tables from a JSONL trace dump.")
    parser.add_argument("trace", nargs="?", metavar="trace.jsonl",
                        help="trace file written via REPRO_TRACE_FILE")
    parser.add_argument("--tree", action="store_true",
                        help="also print the indented span tree")
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.trace is None:
        parser.print_usage()
        return 2
    path = args.trace
    try:
        print(render(path))
        if args.tree:
            print()
            print(span_tree(path))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    except OSError as exc:
        return fail(f"error: cannot read trace '{path}': {exc}")
    except json.JSONDecodeError as exc:
        return fail(f"error: '{path}' is not a JSONL trace: {exc}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
