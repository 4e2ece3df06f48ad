"""The traced primary's launcher, and the per-layer report of its spans.

Run as a script, this module starts a traced primary::

    python svcbench/tracing.py serve --journal J ... --trace-out SPANS.jsonl

``--trace-out`` is the program's own span tracer
(:class:`repro.obs.spans.SpanTracer`); it already opens spans for the
commit loop (``service.commit_batch``), the durable controller
(``online.commit``/``online.commit_group``), the controller
(``online.admit``/``online.depart``), MINPROCS (``minprocs``) and the
journal (``online.journal.append``), and writes them as JSONL when the
server returns from its SIGTERM shutdown.  The launcher adds the spans the
program lacks by wrapping functions where their callers look them up
(protocol decode/encode, ``task_from_dict``, ``task_to_dict``,
``Journal.sync``), then calls the normal ``fedcons-serve`` entry point; no
file of the program changes.  Decode and encode spans carry the request id
(``"admit:<task id>"`` or ``"depart:<task id>"``) in the ``request``
attribute.

Hot calls (shard probes and ledger builds, millions per run) get no span of
their own: each is counted, and its time added, under the ``hot`` attribute
of the span it runs in (``{name: [calls, seconds]}``), so that span's self
time excludes it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from stats import mean, quantile

#: Span name -> the layer (module) it times.
LAYERS = {
    "protocol.decode": "protocol",
    "protocol.encode": "protocol",
    "serialization.task_from_dict": "serialization",
    "serialization.task_to_dict": "serialization",
    "service.commit_batch": "server",
    "online.admit": "controller",
    "online.admit_many": "controller",
    "online.depart": "controller",
    "minprocs": "minprocs",
    "online.commit": "journal",
    "online.commit_group": "journal",
    "online.journal.append": "journal",
    "journal.sync": "journal",
}
#: The layer whose calls are all hot.
HOT_LAYER = "shard"
SHARD_PROBE = "shard.fits_all_points"
SHARD_BUILD = "shard.build"
SHARD_BATCHED = "shard.probe_many"

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "serialization.task_from_dict_us": "us",
    "serialization.task_to_dict_us": "us",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p99": "ms",
    "server.ops_per_commit": "count",
    "server.unattributed_share": "share",
    "controller.admit_self_us": "us",
    "controller.depart_self_us": "us",
    "controller.accept_ratio": "ratio",
    "controller.migrations_per_depart": "count",
    "minprocs.calls": "count",
    "minprocs.ms_per_call": "ms",
    "minprocs.ls_runs_per_call": "count",
    "shard.probes_per_admit": "count",
    "shard.probes_per_depart": "count",
    "shard.probe_us": "us",
    "shard.states_built_per_depart": "count",
    "shard.batched_probe_calls": "count",
    "journal.append_us": "us",
    "journal.sync_ms": "ms",
    "journal.bytes_per_op": "B/op",
    **{f"{layer}.share": "share" for layer in (
        "protocol", "serialization", "server", "controller", "minprocs",
        "shard", "journal",
    )},
    "trace.capacity_ratio": "ratio",
    "trace.cpu_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# the launcher
# ---------------------------------------------------------------------------
def traced(name, fn, request=None):
    """Wrap *fn* so that each call opens a span named *name*.

    *request* maps ``(args, result)`` to the request id stored in the
    span's ``request`` attribute.
    """
    from repro.obs.spans import span

    def wrapper(*args, **kwargs):
        with span(name) as sp:
            result = fn(*args, **kwargs)
            if request is not None:
                sp.set(request=request(args, result))
            return result

    return wrapper


def hot(name, fn):
    """Wrap *fn* as a hot call, tallied on the span it runs in."""
    from repro.obs.spans import current_span

    perf = time.perf_counter

    def wrapper(*args, **kwargs):
        start = perf()
        result = fn(*args, **kwargs)
        elapsed = perf() - start
        active = current_span()
        if active is not None:
            tally = active.attributes.setdefault("hot", {}).setdefault(
                name, [0, 0.0]
            )
            tally[0] += 1
            tally[1] += elapsed
        return result

    return wrapper


def _decoded_request(_args, message):
    if not isinstance(message, dict):
        return None
    if message.get("op") == "admit" and isinstance(message.get("task"), dict):
        return f"admit:{message['task'].get('name')}"
    if message.get("op") == "depart":
        return f"depart:{message.get('task_id')}"
    return None


def _response_request(args, _result):
    response = args[0]
    if "decision" in response:
        return f"admit:{response['decision']['task_id']}"
    if "receipt" in response:
        return f"depart:{response['receipt']['task_id']}"
    return None


def install() -> None:
    """Add the missing spans and the hot-call tallies."""
    import repro.online.persist as persist
    import repro.service.server as server
    from repro.core.shard import ShardProbeMatrix, ShardState

    ShardState.fits_all_points = hot(SHARD_PROBE, ShardState.fits_all_points)
    ShardState.__init__ = hot(SHARD_BUILD, ShardState.__init__)
    ShardState.add = hot("shard.add", ShardState.add)
    ShardState.remove = hot("shard.remove", ShardState.remove)
    ShardProbeMatrix.probe_many = hot(SHARD_BATCHED, ShardProbeMatrix.probe_many)
    server.decode = traced("protocol.decode", server.decode, _decoded_request)
    server.encode = traced("protocol.encode", server.encode, _response_request)
    server.task_from_dict = traced(
        "serialization.task_from_dict", server.task_from_dict,
        lambda args, _: f"admit:{args[0].get('name')}",
    )
    persist.task_to_dict = traced(
        "serialization.task_to_dict", persist.task_to_dict
    )
    persist.Journal.sync = traced("journal.sync", persist.Journal.sync)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def start(span: dict) -> float:
    return span["wall_start"]


def end(span: dict) -> float:
    return span["wall_start"] + span["duration_seconds"]


def request_of(span: dict) -> str | None:
    """The request a span serves, if it names one."""
    attributes = span["attributes"]
    if "request" in attributes:
        return attributes["request"]
    if span["name"] == "online.commit" and attributes.get("op") == "depart":
        return f"depart:{attributes['task']}"
    return None


def request_window(spans: list[dict]) -> tuple[list[dict], float]:
    """The spans whose trace lies within the load.

    The window runs from the start of the first to the end of the last
    root span of a trace that serves a request, which leaves out the
    readiness ping and the metrics read that bracket the load.  Returns
    ``(window spans, wall seconds)``.
    """
    roots = {s["trace_id"]: s for s in spans if s["parent_id"] is None}
    served = [roots[s["trace_id"]] for s in spans if s["attributes"].get("request")]
    lo = min(start(r) for r in served)
    hi = max(end(r) for r in served)
    window = [
        s for s in spans
        if start(roots[s["trace_id"]]) >= lo and end(roots[s["trace_id"]]) <= hi
    ]
    return window, hi - lo


def hot_seconds(span: dict) -> float:
    return sum(seconds for _, seconds in span["attributes"].get("hot", {}).values())


def self_seconds(window: list[dict]) -> dict[str, float]:
    """Span id -> the span's duration less its children's and its hot calls'."""
    covered = Counter()
    for s in window:
        if s["parent_id"] is not None:
            covered[s["parent_id"]] += s["duration_seconds"]
    return {
        s["span_id"]: s["duration_seconds"] - covered[s["span_id"]] - hot_seconds(s)
        for s in window
    }


def layer_busy(window: list[dict]) -> Counter:
    """Self seconds per layer; hot time goes to :data:`HOT_LAYER`."""
    busy: Counter = Counter()
    own = self_seconds(window)
    for s in window:
        busy[LAYERS[s["name"]]] += own[s["span_id"]]
        busy[HOT_LAYER] += hot_seconds(s)
    return busy


def hot_counts(spans: list[dict]) -> Counter:
    """``(hot call, enclosing span name)`` -> calls."""
    counts: Counter = Counter()
    for s in spans:
        for name, (calls, _) in s["attributes"].get("hot", {}).items():
            counts[name, s["name"]] += calls
    return counts


def queue_waits(window: list[dict]) -> list[float]:
    """Seconds from the end of a request's decode to the commit loop's first
    call on it: ``task_from_dict`` for an admit, the durable depart for a
    depart."""
    decoded = {}
    applied = {}
    for s in window:
        request = request_of(s)
        if request is None:
            continue
        if s["name"] == "protocol.decode":
            decoded[request] = end(s)
        elif s["name"] in ("serialization.task_from_dict", "online.commit"):
            applied.setdefault(request, start(s))
    return [applied[r] - decoded[r] for r in applied if r in decoded]


def layer_metrics(spans: list[dict], facts: dict) -> dict:
    """Every per-layer metric of one traced pass.

    *facts* carries what the client and the server's own counters saw:
    ``requests``, ``admits``, ``accepted``, ``departs`` (successful),
    ``migrations``, ``journal_bytes``, ``ls_runs`` and ``group_syncs``.
    """
    window, wall = request_window(spans)
    by_name = defaultdict(list)
    for s in window:
        by_name[s["name"]].append(s)
    own = self_seconds(window)

    def mean_us(name):
        return 1e6 * mean(s["duration_seconds"] for s in by_name[name])

    def self_us(name):
        return 1e6 * mean(
            own[s["span_id"]] for s in by_name[name]
            if "error" not in s["attributes"]
        )

    calls = hot_counts(window)
    probes = sum(n for (name, _), n in calls.items() if name == SHARD_PROBE)
    probe_seconds = sum(
        s["attributes"]["hot"][SHARD_PROBE][1] for s in window
        if SHARD_PROBE in s["attributes"].get("hot", {})
    )
    busy = layer_busy(window)
    waits = queue_waits(window)
    minprocs_calls = len(by_name["minprocs"])
    admits, departs = facts["admits"], facts["departs"]
    metrics = {
        "protocol.decode_us": mean_us("protocol.decode"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "serialization.task_from_dict_us": mean_us("serialization.task_from_dict"),
        "serialization.task_to_dict_us": mean_us("serialization.task_to_dict"),
        "server.queue_wait_ms_p50": 1e3 * quantile(waits, 0.50),
        "server.queue_wait_ms_p99": 1e3 * quantile(waits, 0.99),
        "server.ops_per_commit": (
            facts["requests"] / max(1, len(by_name["service.commit_batch"]))
        ),
        "server.unattributed_share": (wall - sum(busy.values())) / wall,
        "controller.admit_self_us": self_us("online.admit"),
        "controller.depart_self_us": self_us("online.depart"),
        "controller.accept_ratio": facts["accepted"] / max(1, admits),
        "controller.migrations_per_depart": facts["migrations"] / max(1, departs),
        "minprocs.calls": minprocs_calls,
        "minprocs.ms_per_call": mean_us("minprocs") / 1e3,
        "minprocs.ls_runs_per_call": facts["ls_runs"] / max(1, minprocs_calls),
        "shard.probes_per_admit": calls[SHARD_PROBE, "online.admit"] / max(1, admits),
        "shard.probes_per_depart": (
            calls[SHARD_PROBE, "online.depart"] / max(1, departs)
        ),
        "shard.probe_us": 1e6 * probe_seconds / max(1, probes),
        "shard.states_built_per_depart": (
            calls[SHARD_BUILD, "online.depart"] / max(1, departs)
        ),
        "shard.batched_probe_calls": sum(
            n for (name, _), n in calls.items() if name == SHARD_BATCHED
        ),
        "journal.append_us": mean_us("online.journal.append"),
        "journal.sync_ms": 1e3 * sum(
            s["duration_seconds"] for s in by_name["journal.sync"]
        ) / max(1, facts["group_syncs"]),
        "journal.bytes_per_op": facts["journal_bytes"] / facts["requests"],
    }
    for layer in sorted(set(LAYERS.values()) | {HOT_LAYER}):
        metrics[f"{layer}.share"] = busy[layer] / wall
    return metrics


def exact_counts(spans: list[dict]) -> dict:
    """The trace's work counts, which must repeat exactly between passes."""
    return {
        "hot_counts": sorted(
            [name, parent, n] for (name, parent), n in hot_counts(spans).items()
        ),
        "minprocs_calls": sum(1 for s in spans if s["name"] == "minprocs"),
    }


def main(argv: list[str]) -> int:
    """``tracing.py <fedcons-serve arguments>``."""
    install()
    from repro.service.cli import serve_main

    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
