"""Correctness checks: every service decision against an in-process replay.

The reference is :func:`repro.online.trace.replay` of the same trace on a
fresh :class:`~repro.online.controller.AdmissionController`.  A depart the
replay calls ``absent`` (its task was rejected earlier) must be answered
with an ``online_error``; any other error or a missing response is a
*failure*, and any decision that differs from the replay is a *mismatch*,
which fails the run.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.online.controller import AdmissionController
from repro.online.persist import Journal
from repro.online.trace import ABSENT, ReplayRecord, replay
from repro.service.drill import controller_from_records

OK, EXPECTED_ERROR, FAILED, MISMATCH = "ok", "absent", "failed", "mismatch"


@dataclass
class Reference:
    """The in-process replay every pass is checked against."""

    records: list[ReplayRecord]
    snapshot: dict


def reference(events, processors: int) -> Reference:
    controller = AdmissionController(processors)
    report = replay(controller, events)
    return Reference(report.records, controller.snapshot())


def classify(record: ReplayRecord, response: dict | None) -> str:
    """One of ``ok``, ``absent``, ``failed`` or ``mismatch``."""
    if not isinstance(response, dict):
        return FAILED
    if record.outcome == ABSENT:
        if response.get("ok"):
            return MISMATCH
        return EXPECTED_ERROR if response.get("code") == "online_error" else FAILED
    if not response.get("ok"):
        return FAILED
    if record.op == "admit":
        body = response.get("decision") or {}
        got = (
            body.get("accepted"), body.get("kind"),
            tuple(body.get("processors") or ()), body.get("reason") or "",
        )
        want = (
            record.outcome == "accepted", record.kind,
            record.processors, record.reason,
        )
    else:
        body = response.get("receipt") or {}
        got = (
            body.get("kind"), tuple(body.get("released") or ()),
            body.get("migrations"),
        )
        want = (record.kind, record.processors, record.migrations)
    return OK if got == want else MISMATCH


@dataclass
class Verdicts:
    """Tally of one pass's responses against the reference."""

    counts: Counter = field(default_factory=Counter)
    first_mismatch: str = ""

    @property
    def failed(self) -> int:
        return self.counts[FAILED]

    @property
    def mismatched(self) -> int:
        return self.counts[MISMATCH]


def check_responses(ref: Reference, responses: list) -> Verdicts:
    verdicts = Verdicts()
    for record, response in zip(ref.records, responses, strict=True):
        verdict = classify(record, response)
        verdicts.counts[verdict] += 1
        if verdict == MISMATCH and not verdicts.first_mismatch:
            verdicts.first_mismatch = (
                f"event {record.seq} ({record.op} {record.task_id}): replay "
                f"says {record.outcome} {record.kind} {record.processors}, "
                f"service answered {response}"
            )
    return verdicts


def check_journal(ref: Reference, path: Path) -> str:
    """Replay *path* through ``controller_from_records`` (which cross-checks
    every recorded outcome) and compare the final state with the
    reference; returns an error message, or ``""`` when it holds."""
    try:
        records, torn = Journal.read(path)
        if torn:
            return f"{path.name}: torn final record"
        restored = controller_from_records(records)
    except ReproError as exc:
        return f"{path.name}: journal does not replay: {exc}"
    if restored.snapshot() != ref.snapshot:
        return f"{path.name}: replayed state differs from the reference"
    return ""


def work_counts(responses: list, counters: dict, journal: Path) -> dict:
    """What one pass did; with one connection it repeats exactly."""
    return {
        "accepted": sum(
            1 for r in responses
            if isinstance(r, dict) and (r.get("decision") or {}).get("accepted")
        ),
        "placement_probes": counters.get("online_placement_probes_total"),
        "ls_runs": counters.get("minprocs_ls_runs_total"),
        "journal_bytes": journal.stat().st_size,
        "journal_sha256": hashlib.sha256(journal.read_bytes()).hexdigest(),
    }
