"""End-to-end benchmark of the FEDCONS admission service.

    python3 svcbench/run.py --workload fill --seed 0 --seconds 40 --trace 0

A run sends the workload's ``SEGMENTS`` independent traces, generated from
``(--seed, segment)``, to fresh ``fedcons-serve serve`` primaries
(``--fsync batch``, a fresh journal per pass) over one TCP connection.
Every segment gets its mandatory passes; further ``saturated`` passes
repeat the segments in turn while the run is within ``--seconds``.

* ``--trace 0``: ``saturated`` passes (a window of pipelined requests)
  give throughput, server CPU per op and peak RSS; ``serial`` passes (one
  request in flight, on the first ``SERIAL_SEGMENTS`` segments) give
  unloaded latency and CPU per op.  The last line printed is a JSON object
  with every gated end-to-end metric; the other end-to-end metrics are
  printed above it.
* ``--trace 1``: plain and traced ``saturated`` passes alternate; the
  traced primary records the program's spans plus a few more
  (``tracing.py``), and the last line carries the per-layer metrics plus
  the tracing overhead.

Times that depend on the host's speed (set-up, CPU per op, the layers'
times) are scaled to a reference host with a fixed calibration loop timed
around every pass (``calibration.py``); the raw end-to-end times are
printed too.

Every response is checked against an in-process replay, each segment's
journal is replayed through ``controller_from_records``, and the work
counts (accepted tasks, shard probes, LS runs, journal bytes and digest,
and in traced passes every shard call) must repeat exactly across the
passes of a segment.  A mismatch, a count that drifts or cannot be read
exits with code 1.  ``--workload all`` runs every workload in turn.
Results are appended to ``svcbench/out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Pipelined requests in flight during ``saturated`` passes.
WINDOW = 128
#: Segments that also get a ``serial`` pass: enough requests for a p99
#: with at least ten samples beyond it on every workload.
SERIAL_SEGMENTS = 2

#: The gated end-to-end metrics; times are scaled to the reference host.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}
#: Printed with every ``--trace 0`` run, not gated.  On the 2-core VM this
#: benchmark was built on, co-tenant load (CPU steal between 1% and 20%,
#: varying by the minute) moved the wall-clock ones more than the largest
#: regression bound the benchmark may set: over ten seeded runs the
#: quartile spread reached 33% of the median for ``capacity_ops_s``, 32%
#: for ``latency_p50_ms`` and 79% for ``latency_p99_ms`` (which tracks the
#: disk's fsync tail).  In the saturated phase the server is CPU-bound, so
#: ``cpu_ms_per_op`` carries the throughput signal.
REPORTED = {
    "capacity_ops_s": "ops/s",
    "serial_cpu_ms_per_op": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "raw_setup_s": "s",
    "raw_cpu_ms_per_op": "ms",
    "calibration_ms": "ms",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "repro" / "service" / "cli.py").is_file():
    _fail(f"no program source under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from calibration import loop_seconds, to_reference  # noqa: E402
from check import (  # noqa: E402
    check_journal,
    check_responses,
    reference,
    work_counts,
)
from load import drive, host_cpu_times, start_server  # noqa: E402
from repro.obs.spans import load_spans  # noqa: E402
from stats import median, quantile, tail  # noqa: E402
from tracing import UNITS, exact_counts, layer_metrics  # noqa: E402
from workloads import SEGMENTS, WORKLOADS, make_trace, request_line  # noqa: E402


def run_context() -> dict:
    import numpy

    from repro.core.kernels import kernel_backend

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
    }


class Segment:
    """One trace of a run: its requests, its reference and its passes."""

    def __init__(self, workload, seed: int, index: int) -> None:
        self.index = index
        self.processors = workload.config.processors
        self.events = make_trace(workload, seed, index)
        self.lines = [request_line(e) for e in self.events]
        self.ref = reference(self.events, self.processors)
        self.passes: list[dict] = []

    def facts(self, phase, counts: dict) -> dict:
        """What the client and the server's counters saw in one pass."""
        admits = departs = migrations = 0
        for event, response in zip(self.events, phase.responses):
            if event.op == "admit":
                admits += 1
            elif isinstance(response, dict) and response.get("ok"):
                departs += 1
                migrations += response["receipt"]["migrations"]
        return {
            "requests": len(self.lines),
            "admits": admits,
            "departs": departs,
            "migrations": migrations,
            "accepted": counts["accepted"],
            "journal_bytes": counts["journal_bytes"],
            "ls_runs": phase.counters.get("minprocs_ls_runs_total", 0),
            "group_syncs": phase.counters.get(
                "online_journal_group_syncs_total", 0
            ),
        }

    def median_of(self, kind: str, traced: bool, key: str) -> float:
        return median(
            r[key] for r in self.passes
            if r["kind"] == kind and r["traced"] == traced
        )


class Run:
    """One workload at one seed: its segments and every check."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.segments = [
            Segment(workload, seed, i) for i in range(SEGMENTS)
        ]
        self.workdir = workdir
        self.log = workdir / "server.log"
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.loop = loop_seconds()

    def run_pass(self, segment: Segment, kind: str, traced: bool = False) -> None:
        """One fresh primary, one pass of *segment*'s trace, all checks."""
        tag = (f"s{segment.index}-{len(segment.passes):02d}-{kind}"
               f"{'-traced' if traced else ''}")
        journal = self.workdir / f"{tag}.journal"
        spans = self.workdir / f"{tag}.spans.jsonl"
        launcher, options = None, ()
        if traced:
            launcher = [sys.executable, str(HERE / "tracing.py")]
            options = ("--trace-out", str(spans))
        server = start_server(
            SRC, journal, segment.processors, self.log, launcher, options
        )
        try:
            phase = drive(
                server, segment.lines, WINDOW if kind == "saturated" else 1
            )
        finally:
            code = server.stop()
        # The host's speed around this pass: the mean of the calibration
        # readings taken just before and just after it.
        after = loop_seconds()
        loop, self.loop = (self.loop + after) / 2, after
        if code != 0:
            self.problems.append(f"pass {tag}: primary exited with code {code}")
        if phase.counters_error:
            self.problems.append(f"pass {tag}: {phase.counters_error}")
        verdicts = check_responses(segment.ref, phase.responses)
        self.attempted += len(segment.lines)
        self.failed += verdicts.failed
        if verdicts.mismatched:
            self.problems.append(
                f"pass {tag}: {verdicts.mismatched} decision mismatch(es); "
                f"first: {verdicts.first_mismatch}"
            )
        counts = work_counts(phase.responses, phase.counters, journal)
        record = {
            "kind": kind, "traced": traced, "phase": phase,
            "verdicts": verdicts.counts, "counts": counts, "loop": loop,
            "wall": phase.wall_seconds, "cpu": phase.server_cpu_seconds,
            "setup": server.setup_seconds,
            "ref_cpu": to_reference(phase.server_cpu_seconds, loop),
            "ref_wall": to_reference(phase.wall_seconds, loop),
            "ref_setup": to_reference(server.setup_seconds, loop),
        }
        if traced:
            dump = load_spans(spans)
            record["trace_counts"] = exact_counts(dump)
            layers = layer_metrics(dump, segment.facts(phase, counts))
            record["layers"] = {
                name: to_reference(value, loop) if UNITS[name] in ("us", "ms")
                else value
                for name, value in layers.items()
            }
            spans.unlink()
        if not segment.passes:
            problem = check_journal(segment.ref, journal)
            if problem:
                self.problems.append(problem)
        journal.unlink()
        segment.passes.append(record)

    def check_counts(self) -> None:
        """Exact-count check across the passes of each segment."""
        for segment in self.segments:
            first = segment.passes[0]["counts"]
            for record in segment.passes[1:]:
                if record["counts"] != first:
                    self.problems.append(
                        f"segment {segment.index}: work counts drifted: "
                        f"{first} vs {record['counts']}"
                    )
                    break
            traced = [r["trace_counts"] for r in segment.passes if r["traced"]]
            if any(counts != traced[0] for counts in traced[1:]):
                self.problems.append(
                    f"segment {segment.index}: traced shard/MINPROCS counts "
                    "drifted"
                )

    def measure(self, started: float, seconds: float, trace: bool) -> None:
        """Every segment's mandatory passes, then more ``saturated`` rounds
        while the run, counted from *started*, stays within *seconds*."""
        plain, traced = ("saturated", False), ("saturated", True)
        for segment in self.segments:
            kinds = [plain, traced] if trace else [plain]
            if not trace and segment.index < SERIAL_SEGMENTS:
                kinds.append(("serial", False))
            for kind in kinds:
                self.run_pass(segment, *kind)
        extra = [plain, traced] if trace else [plain]
        spent = 0.0  # how long the last segment's extra passes took
        while True:
            for segment in self.segments:
                before = time.perf_counter()
                if before - started + spent > seconds:
                    return
                for kind in extra:
                    self.run_pass(segment, *kind)
                spent = time.perf_counter() - before


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the reported ones.

    Saturated figures are summed over segments from each segment's median
    pass; latencies pool every serial request of the run.
    """
    segments = run.segments
    serial = segments[:SERIAL_SEGMENTS]
    operations = sum(len(s.lines) for s in segments)
    serial_operations = sum(len(s.lines) for s in serial)
    latencies = [
        x for s in serial for r in s.passes if r["kind"] == "serial"
        for x in r["phase"].latencies
    ]
    supported = tail(latencies)
    if supported is None or supported.percentile < 99.0:
        run.problems.append(
            f"{len(latencies)} serial samples cannot support a p99"
        )
    passes = [r for s in segments for r in s.passes]

    def saturated(key: str) -> float:
        return sum(s.median_of("saturated", False, key) for s in segments)

    metrics = {
        "setup_s": median(r["ref_setup"] for r in passes),
        "cpu_ms_per_op": 1e3 * saturated("ref_cpu") / operations,
        "peak_rss_mb": median(r["phase"].peak_rss_mb for r in passes),
    }
    notes = {
        "capacity_ops_s": operations / saturated("wall"),
        "serial_cpu_ms_per_op": 1e3 * sum(
            s.median_of("serial", False, "ref_cpu") for s in serial
        ) / serial_operations,
        "latency_p50_ms": 1e3 * quantile(latencies, 0.50),
        "latency_p99_ms": 1e3 * quantile(latencies, 0.99),
        "raw_setup_s": median(r["setup"] for r in passes),
        "raw_cpu_ms_per_op": 1e3 * saturated("cpu") / operations,
        "calibration_ms": 1e3 * median(r["loop"] for r in passes),
    }
    if supported is not None:
        notes["latency_tail"] = {
            "percentile": supported.percentile,
            "ms": 1e3 * supported.value,
            "samples": supported.count,
            "beyond": supported.beyond,
        }
    return metrics, notes


def per_layer(run: Run) -> dict:
    """Per-layer metrics: the median over traced passes, plus the tracing
    overhead from the segments' median plain and traced passes, with both
    scaled to the reference host since the host's speed may change
    between them."""
    traced = [r for s in run.segments for r in s.passes if r["traced"]]
    metrics = {
        name: median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }

    def total(traced: bool, key: str) -> float:
        return sum(s.median_of("saturated", traced, key) for s in run.segments)

    metrics["trace.capacity_ratio"] = (
        total(False, "ref_wall") / total(True, "ref_wall")
    )
    metrics["trace.cpu_ratio"] = total(True, "ref_cpu") / total(False, "ref_cpu")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[name], seed, workdir)
    # The traces and references are large and live for the whole run:
    # keep the collector from rescanning them while the client drives load.
    gc.collect()
    gc.freeze()
    steal0, total0 = host_cpu_times()
    run.measure(started, seconds, trace)
    steal1, total1 = host_cpu_times()
    run.check_counts()
    context = run_context()
    context["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    notes = {}
    if trace:
        metrics = per_layer(run)
    else:
        metrics, notes = end_to_end(run)
    verdicts = Counter()
    for segment in run.segments:
        for record in segment.passes:
            verdicts.update(record["verdicts"])
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "events": [len(s.events) for s in run.segments],
        "passes": [
            f"s{s.index}:{r['kind']}{'+traced' if r['traced'] else ''}:"
            f"{r['wall']:.2f}s"
            for s in run.segments for r in s.passes
        ],
        "verdicts": dict(verdicts),
        "counts": [s.passes[0]["counts"] for s in run.segments],
        "context": context,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        **notes,
    }
    if not run.problems:
        shutil.rmtree(workdir)
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['events']} events, passes: {' '.join(result['passes'])})")
    print(f"   context: {json.dumps(result['context'])}")
    print(f"   verdicts: {json.dumps(result['verdicts'])}")
    for counts in result["counts"]:
        print(f"   counts: {json.dumps(counts)}")
    for name, value in result["metrics"].items():
        unit = END_TO_END.get(name) or UNITS[name]
        print(f"   {name} = {value:.6g} {unit}")
    print(f"   failed_share = {result['failed'] / result['attempted']:.6g} "
          f"share ({result['failed']} of {result['attempted']}; not gated)")
    for name, unit in REPORTED.items():
        if name in result:
            print(f"   {name} = {result[name]:.6g} {unit} (not gated)")
    if "latency_tail" in result:
        t = result["latency_tail"]
        print(f"   serial latency p{t['percentile']:g} = {t['ms']:.4g} ms is "
              f"the highest percentile with {t['beyond']} of {t['samples']} "
              "samples beyond it")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result) + "\n")
    units = {**END_TO_END, **UNITS}
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = not any(result["problems"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
