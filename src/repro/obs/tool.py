"""``fedcons-obs``: inspect and combine exported telemetry artifacts.

Operates purely on files the other entry points already produce -- metrics
snapshot JSON (``--metrics``), trace JSONL (``--trace-out`` and
``fedcons-analyze --explain``) and flight dumps (``--flight-dir``) -- so
telemetry can be examined after the fact on a machine that never ran the
workload::

    fedcons-obs show trace.jsonl            # render span trees
    fedcons-obs diff before.json after.json # what changed between snapshots
    fedcons-obs merge w1.json w2.json -o total.json   # fold worker snapshots
    fedcons-obs prom snapshot.json          # Prometheus text exposition
    fedcons-obs flight dump.json            # summarize a post-mortem dump

``show`` groups spans by ``trace_id`` and prints each trace as an indented
tree with durations, attributes and decision events; ``diff`` prints
counter/timer deltas between two snapshots; ``merge`` folds any number of
snapshots with the same exact-histogram semantics the parallel engine uses;
``prom`` converts a stored snapshot to Prometheus exposition without
re-running anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.cli import add_observability_arguments, configure_from_args
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import load_spans

__all__ = ["obs_main"]


def _load_snapshot(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- show: span trees -------------------------------------------------------


def _format_attributes(attributes: dict) -> str:
    if not attributes:
        return ""
    body = " ".join(f"{key}={value}" for key, value in attributes.items())
    return f"  [{body}]"


def _print_span_tree(
    span: dict,
    children: dict[str | None, list[dict]],
    depth: int,
    out,
) -> None:
    indent = "  " * depth
    duration_ms = span["duration_seconds"] * 1e3
    print(
        f"{indent}{span['name']}  {duration_ms:.3f}ms"
        f"{_format_attributes(span.get('attributes', {}))}",
        file=out,
    )
    for event in span.get("events", []):
        offset_ms = event["offset"] * 1e3
        print(
            f"{indent}  * {event['name']} @{offset_ms:.3f}ms"
            f"{_format_attributes(event.get('attributes', {}))}",
            file=out,
        )
    for child in children.get(span["span_id"], []):
        _print_span_tree(child, children, depth + 1, out)


def _show(args: argparse.Namespace) -> int:
    spans = load_spans(args.trace)
    if not spans:
        print(f"{args.trace}: no spans", file=sys.stderr)
        return 1
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    # Parents finish after their children in the JSONL, so order roots by
    # wall-clock start to present traces chronologically.
    roots = sorted(children.get(None, []), key=lambda s: s["wall_start"])
    shown = 0
    for root in roots:
        if args.trace_id and root["trace_id"] != args.trace_id:
            continue
        if args.name and root["name"] != args.name:
            continue
        print(f"trace {root['trace_id']}", file=sys.stdout)
        _print_span_tree(root, children, 1, sys.stdout)
        shown += 1
    if (args.trace_id or args.name) and not shown:
        wanted = args.trace_id or args.name
        print(f"no trace matching {wanted!r}", file=sys.stderr)
        return 1
    print(f"{shown} trace(s), {len(spans)} span(s)", file=sys.stdout)
    return 0


# -- diff: snapshot deltas --------------------------------------------------


def _diff(args: argparse.Namespace) -> int:
    before = _load_snapshot(args.before)
    after = _load_snapshot(args.after)
    names = sorted(
        set(before.get("counters", {})) | set(after.get("counters", {}))
    )
    for name in names:
        old = before.get("counters", {}).get(name, 0)
        new = after.get("counters", {}).get(name, 0)
        if old != new:
            print(f"counter {name}: {old} -> {new} ({new - old:+d})")
    names = sorted(set(before.get("timers", {})) | set(after.get("timers", {})))
    for name in names:
        old = before.get("timers", {}).get(name, {})
        new = after.get("timers", {}).get(name, {})
        old_count = old.get("count", 0)
        new_count = new.get("count", 0)
        if old_count != new_count:
            print(
                f"timer {name}: count {old_count} -> {new_count}, "
                f"total {old.get('total_seconds', 0.0):.6f}s -> "
                f"{new.get('total_seconds', 0.0):.6f}s"
            )
    names = sorted(
        set(before.get("histograms", {})) | set(after.get("histograms", {}))
    )
    for name in names:
        old = before.get("histograms", {}).get(name, {})
        new = after.get("histograms", {}).get(name, {})
        if old.get("count", 0) != new.get("count", 0):
            print(
                f"histogram {name}: count {old.get('count', 0)} -> "
                f"{new.get('count', 0)}, p99 {old.get('p99', 0.0):.6f} -> "
                f"{new.get('p99', 0.0):.6f}"
            )
    return 0


# -- merge: fold snapshots --------------------------------------------------


def _merge(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    for path in args.snapshots:
        registry.merge_snapshot(_load_snapshot(path))
    if args.out:
        registry.to_json(args.out)
        print(f"merged {len(args.snapshots)} snapshot(s) -> {args.out}")
    else:
        print(json.dumps(registry.snapshot(), indent=2))
    return 0


# -- prom: exposition from a stored snapshot --------------------------------


def _prom(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    registry.merge_snapshot(_load_snapshot(args.snapshot))
    sys.stdout.write(registry.to_prometheus())
    return 0


# -- flight: summarize a post-mortem dump -----------------------------------


def _flight(args: argparse.Namespace) -> int:
    dump = _load_snapshot(args.dump)
    print(
        f"flight dump: reason={dump.get('reason')} pid={dump.get('pid')} "
        f"capacity={dump.get('capacity')} recorded={dump.get('total_recorded')} "
        f"evicted={dump.get('evicted')}"
    )
    entries = dump.get("entries", [])
    tail = entries[-args.tail :] if args.tail else entries
    for entry in tail:
        data = entry.get("data", {})
        kind = entry.get("kind")
        if kind == "span":
            # Decisions ride on their spans' attributes (seq, accepted, ...).
            detail = (
                f"{data.get('name', '?')} "
                f"{data.get('duration_seconds', 0.0) * 1e3:.3f}ms"
                f"{_format_attributes(data.get('attributes', {}))}"
            )
        elif kind in ("timer", "histogram"):
            value = data.get("seconds", data.get("value"))
            detail = f"{data.get('name', '?')}={value}"
        else:
            detail = json.dumps(data, sort_keys=True)
        print(f"  #{entry.get('seq')} {kind}: {detail}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcons-obs",
        description="inspect exported telemetry: span traces, metric "
        "snapshots, flight-recorder dumps",
    )
    add_observability_arguments(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render span trees from trace JSONL")
    show.add_argument("trace", help="trace JSONL file (from --trace-out)")
    show.add_argument(
        "--trace-id", default=None, help="render only this trace id"
    )
    show.add_argument(
        "--name", default=None,
        help="render only traces whose root span has this name",
    )
    show.set_defaults(func=_show)

    diff = sub.add_parser("diff", help="delta between two metrics snapshots")
    diff.add_argument("before", help="earlier snapshot JSON")
    diff.add_argument("after", help="later snapshot JSON")
    diff.set_defaults(func=_diff)

    merge = sub.add_parser("merge", help="fold metrics snapshots into one")
    merge.add_argument("snapshots", nargs="+", help="snapshot JSON files")
    merge.add_argument(
        "-o", "--out", default=None, help="write merged snapshot here "
        "(default: print to stdout)"
    )
    merge.set_defaults(func=_merge)

    prom = sub.add_parser(
        "prom", help="Prometheus text exposition of a stored snapshot"
    )
    prom.add_argument("snapshot", help="snapshot JSON file")
    prom.set_defaults(func=_prom)

    flight = sub.add_parser(
        "flight", help="summarize a flight-recorder dump"
    )
    flight.add_argument("dump", help="flight dump JSON file")
    flight.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="show only the last N entries (default: all)",
    )
    flight.set_defaults(func=_flight)
    return parser


def obs_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``fedcons-obs`` telemetry inspector."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    configure_from_args(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(obs_main())
