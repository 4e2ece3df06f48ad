"""Service-layer tests: wire protocol, batched admits, replication, failover.

The load-bearing guarantees pinned here:

* **batch = sequential** -- ``admit_many`` is bit-identical to a loop of
  ``admit``: same decisions (wall-clock latency aside), same lossless
  snapshot (shard ledgers included), same sequence counter -- driven by
  hypothesis over random DAG-task batches, by random generated traces, and
  by the adversarial gadget frontier;
* **journal tail-follow** -- :class:`JournalFollower` delivers exactly the
  committed records in order, never consumes a torn tail, and rejects
  gaps/garbage with the typed error;
* **replication cursors** -- streamed/acked offsets are monotone and an
  acknowledgement beyond what was streamed is a protocol violation;
* **the server** -- admits/departs/queries over a real socket, batching
  under pipelining, per-request error responses that never tear the
  connection down, ack convergence, and the HTTP shim;
* **warm standby** -- streamed records applied through the oracle-checked
  replay path; promotion == ``recover(verify=True)`` of the journal
  prefix, at *every* record boundary of the golden 200-event trace
  (the service-level twin of the crash-recovery boundary sweep in
  ``test_persist.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError, ServiceError
from repro.generation.adversarial import chen_gadget
from repro.generation.traces import TraceConfig, generate_trace
from repro.model.serialization import task_to_dict
from repro.obs import collecting
from repro.online import (
    AdmissionController,
    DurableController,
    Journal,
    JournalFollower,
    ReplicationCursor,
    load_trace,
    recover,
    replay,
)
from repro.service import (
    AdmissionServer,
    StandbyReplica,
    controller_from_records,
    decision_from_dict,
    decision_to_dict,
    decode,
    encode,
    receipt_from_dict,
    receipt_to_dict,
)
from repro.service.protocol import error_response, ok_response

from strategies import dag_tasks, high_task, low_task

DATA = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA / "online_trace.jsonl"
M = 16  # platform size the golden trace was generated for


def _named(tasks) -> list:
    """Unique names for strategy-drawn tasks (admission requires them)."""
    return [
        dataclasses.replace(task, name=f"t{i}") for i, task in enumerate(tasks)
    ]


def _no_latency(decision):
    return dataclasses.replace(decision, latency_seconds=0.0)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "admit", "task": {"name": "a"}, "n": 3}
        assert decode(encode(message)) == message
        assert encode(message).endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError):
            decode(b"{truncated")
        with pytest.raises(ServiceError):
            decode(b"[1, 2, 3]\n")  # an array is not a request

    def test_decode_rejects_invalid_utf8(self):
        # Replacing the byte would admit a name the client never sent.
        with pytest.raises(ServiceError, match="UTF-8"):
            decode(b'{"op":"admit","task":{"name":"a\xff"}}\n')
        assert decode('{"name":"a\u00ff"}'.encode()) == {"name": "a\u00ff"}

    def test_response_shapes(self):
        ok = ok_response("ping", extra=1)
        assert ok["ok"] and ok["op"] == "ping" and ok["extra"] == 1
        err = error_response("bad_request", "nope")
        assert not err["ok"] and err["code"] == "bad_request"

    def test_decision_round_trip(self):
        controller = AdmissionController(8)
        decision = controller.admit(high_task("h", width=3))
        back = decision_from_dict(
            json.loads(json.dumps(decision_to_dict(decision)))
        )
        assert back == decision
        assert isinstance(back.processors, tuple)

    def test_receipt_round_trip(self):
        controller = AdmissionController(8)
        controller.admit(low_task("a"))
        receipt = controller.depart("a")
        back = receipt_from_dict(
            json.loads(json.dumps(receipt_to_dict(receipt)))
        )
        assert back == receipt
        assert isinstance(back.released, tuple)

    def test_wire_dicts_match_dataclass_fields(self):
        controller = AdmissionController(8)
        decision = controller.admit(high_task("h", width=3))
        receipt = controller.depart("h")
        for obj, wire, seq_field in (
            (decision, decision_to_dict(decision), "processors"),
            (receipt, receipt_to_dict(receipt), "released"),
        ):
            expected = dataclasses.asdict(obj)
            expected[seq_field] = list(expected[seq_field])
            assert list(wire) == list(expected)  # same keys, same order
            assert wire == expected
            assert encode(wire) == encode(expected)

    def test_malformed_payloads_raise_typed_error(self):
        with pytest.raises(ServiceError):
            decision_from_dict({"accepted": True})
        with pytest.raises(ServiceError):
            receipt_from_dict({"task_id": "a"})


# ---------------------------------------------------------------------------
# admit_many == sequential admits (the coalescing correctness core)
# ---------------------------------------------------------------------------
def _assert_batch_equals_sequential(processors: int, tasks: list) -> None:
    batched = AdmissionController(processors)
    sequential = AdmissionController(processors)
    batch_decisions = batched.admit_many(tasks)
    seq_decisions = [sequential.admit(task) for task in tasks]
    assert [_no_latency(d) for d in batch_decisions] == [
        _no_latency(d) for d in seq_decisions
    ]
    # Snapshots are lossless (shard ledgers bit for bit) and exclude
    # wall-clock, so equality here is the bit-identity claim.
    assert batched.snapshot() == sequential.snapshot()
    assert batched.seq == sequential.seq


class TestAdmitManyEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batch=st.lists(dag_tasks(), min_size=1, max_size=8),
        processors=st.integers(min_value=1, max_value=24),
    )
    def test_random_batches(self, batch, processors):
        _assert_batch_equals_sequential(processors, _named(batch))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_traces(self, seed):
        config = TraceConfig(events=120, processors=16)
        tasks = [
            e.task for e in generate_trace(config, rng=seed)
            if e.op == "admit" and e.task is not None
        ]
        _assert_batch_equals_sequential(config.processors, tasks)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("hardness", [0.4, 1.0])
    def test_gadget_frontier(self, k, hardness):
        gadget = chen_gadget(k, hardness=hardness)
        _assert_batch_equals_sequential(
            gadget.processors, list(gadget.system)
        )

    def test_mixed_with_departures_interleaved(self):
        """Batched groups between departures match the sequential history."""
        batched = AdmissionController(16)
        sequential = AdmissionController(16)
        first = [low_task(f"a{i}", 0.3) for i in range(6)]
        second = [high_task("h", width=3)] + [
            low_task(f"b{i}", 0.5) for i in range(4)
        ]
        batched.admit_many(first)
        for task in first:
            sequential.admit(task)
        for controller in (batched, sequential):
            controller.depart("a2")
            controller.depart("a4")
        batched.admit_many(second)
        for task in second:
            sequential.admit(task)
        assert batched.snapshot() == sequential.snapshot()

    def test_durable_batches_journal_identically(self, tmp_path):
        """The journal of one admit_many == the journal of N admits."""
        tasks = [low_task(f"x{i}", 0.4) for i in range(5)]
        with Journal(tmp_path / "batch.jsonl", fsync="batch") as journal:
            DurableController(
                AdmissionController(8), journal
            ).admit_many(tasks)
        with Journal(tmp_path / "seq.jsonl", fsync="off") as journal:
            durable = DurableController(AdmissionController(8), journal)
            for task in tasks:
                durable.admit(task)
        batch_records, _ = Journal.read(tmp_path / "batch.jsonl")
        seq_records, _ = Journal.read(tmp_path / "seq.jsonl")
        assert batch_records == seq_records

    def test_admit_many_raises_mid_batch_but_journals_prefix(self, tmp_path):
        """A caller error mid-batch keeps the committed prefix durable."""
        tasks = [low_task("ok0"), low_task("ok0")]  # duplicate name
        with Journal(tmp_path / "j.jsonl", fsync="batch") as journal:
            durable = DurableController(AdmissionController(8), journal)
            with pytest.raises(Exception):
                durable.admit_many(tasks)
            records, _ = Journal.read(tmp_path / "j.jsonl")
            assert [r["kind"] for r in records] == ["genesis", "admit"]


# ---------------------------------------------------------------------------
# journal tail-following + replication cursors
# ---------------------------------------------------------------------------
class TestJournalFollower:
    def test_streams_appends_in_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(8), journal)
            follower = JournalFollower(path)
            first = follower.poll()
            assert [r["kind"] for r in first] == ["genesis"]
            durable.admit(low_task("a"))
            durable.admit(low_task("b"))
            journal.sync()
            second = follower.poll()
            assert [r["id"] for r in second] == ["a", "b"]
            assert follower.poll() == []
            assert follower.position == journal.entries

    def test_start_offset_skips_backlog(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(8), journal)
            durable.admit(low_task("a"))
            journal.sync()
            follower = JournalFollower(path, start=1)
            assert [r["id"] for r in follower.poll()] == ["a"]
        with pytest.raises(PersistenceError):
            JournalFollower(path, start=99)  # beyond the journal

    def test_never_consumes_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            DurableController(
                AdmissionController(8), journal
            ).admit(low_task("a"))
        follower = JournalFollower(path)
        complete = path.read_bytes()
        path.write_bytes(complete + b'{"n": 2, "kind": "adm')  # torn record
        assert len(follower.poll()) == 2  # genesis + admit, not the tail
        path.write_bytes(complete)

    def test_garbage_between_records_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            DurableController(
                AdmissionController(8), journal
            ).admit(low_task("a"))
        path.write_bytes(path.read_bytes() + b"not json at all\n")
        follower = JournalFollower(path)
        with pytest.raises(PersistenceError):
            follower.poll()


class TestReplicationCursor:
    def test_monotone_progress_and_lag(self):
        cursor = ReplicationCursor()
        cursor.advance(5)
        cursor.advance(3)  # stale advance is a no-op
        assert cursor.streamed == 5
        cursor.acknowledge(4)
        cursor.acknowledge(2)  # stale ack is a no-op
        assert cursor.acked == 4
        assert cursor.lag == 1

    def test_over_acknowledgement_rejected(self):
        cursor = ReplicationCursor()
        cursor.advance(3)
        with pytest.raises(PersistenceError):
            cursor.acknowledge(4)


# ---------------------------------------------------------------------------
# the asyncio server over a real socket
# ---------------------------------------------------------------------------
async def _start_server(tmp_path, processors=16, http=False, max_batch=128):
    journal = Journal(tmp_path / "server.jsonl", fsync="batch")
    durable = DurableController(AdmissionController(processors), journal)
    server = AdmissionServer(
        durable, http_port=0 if http else None, max_batch=max_batch
    )
    await server.start()
    return server


async def _rpc(port: int, *requests: dict) -> list[dict]:
    """Pipeline *requests* on one connection; collect one response each."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for request in requests:
        writer.write(encode(request))
    await writer.drain()
    responses = [decode(await reader.readline()) for _ in requests]
    writer.close()
    return responses


async def _subscribe(port: int, start: int):
    """Open a replication stream from record *start*; returns its ack too."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode({"op": "subscribe", "from": start}))
    await writer.drain()
    ack = decode(await reader.readline())
    assert ack["ok"], ack
    return reader, writer, ack


async def _lines(reader: asyncio.StreamReader, count: int) -> list[bytes]:
    return [
        await asyncio.wait_for(reader.readline(), timeout=10)
        for _ in range(count)
    ]


async def _assert_drained(reader: asyncio.StreamReader) -> None:
    """Nothing beyond what was read arrives: no duplicate at the tail."""
    with pytest.raises(asyncio.TimeoutError):
        await asyncio.wait_for(reader.readline(), timeout=0.2)


async def _admit_batches(port: int, prefix: str, batches: int, size: int = 2):
    """Commit *batches* separate batches (each ``_rpc`` awaits its acks)."""
    for b in range(batches):
        responses = await _rpc(port, *(
            {"op": "admit", "task": task_to_dict(low_task(f"{prefix}{b}.{i}", 0.05))}
            for i in range(size)
        ))
        assert all(r["ok"] for r in responses)


async def _until(predicate) -> None:
    for _ in range(400):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


class TestFollowerHandoff:
    """The journal is read back only while someone subscribes; each stream
    is exactly ``Journal.read`` from its offset, byte for byte."""

    @staticmethod
    def _expected(tmp_path, start: int) -> list[bytes]:
        records, _ = Journal.read(tmp_path / "server.jsonl")
        return [encode({"record": r}) for r in records[start:]]

    def test_late_subscriber_after_unsubscribed_batches(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                await _admit_batches(server.tcp_port, "a", batches=3)
                assert server._follower is None
                reader, writer, ack = await _subscribe(server.tcp_port, 0)
                assert ack["backlog"] == 7  # genesis + 3 batches of 2
                lines = await _lines(reader, ack["backlog"])
                await _admit_batches(server.tcp_port, "b", batches=2)
                lines += await _lines(reader, 4)
                await _assert_drained(reader)
                writer.close()
                return lines
            finally:
                await server.aclose()

        lines = asyncio.run(scenario())
        assert lines == self._expected(tmp_path, 0)

    def test_second_subscriber_from_mid_journal(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            port = server.tcp_port
            try:
                await _admit_batches(port, "a", batches=2)
                first, first_w, ack = await _subscribe(port, 1)
                first_lines = await _lines(first, ack["backlog"])
                await _admit_batches(port, "b", batches=2)
                first_lines += await _lines(first, 4)
                second, second_w, ack = await _subscribe(port, 3)
                assert ack["backlog"] == 6
                second_lines = await _lines(second, ack["backlog"])
                await _admit_batches(port, "c", batches=1)
                first_lines += await _lines(first, 2)
                second_lines += await _lines(second, 2)
                await _assert_drained(first)
                await _assert_drained(second)
                first_w.close()
                second_w.close()
                return first_lines, second_lines
            finally:
                await server.aclose()

        first_lines, second_lines = asyncio.run(scenario())
        assert first_lines == self._expected(tmp_path, 1)
        assert second_lines == self._expected(tmp_path, 3)

    def test_new_subscriber_after_the_last_one_left(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            port = server.tcp_port
            try:
                reader, writer, ack = await _subscribe(port, 0)
                gone = await _lines(reader, ack["backlog"])
                await _admit_batches(port, "a", batches=2)
                gone += await _lines(reader, 4)
                writer.close()
                await _until(lambda: not server.replication_cursors)
                assert server._follower is None
                await _admit_batches(port, "b", batches=2)
                reader, writer, ack = await _subscribe(port, 2)
                assert ack["backlog"] == 7
                lines = await _lines(reader, ack["backlog"])
                await _admit_batches(port, "c", batches=1)
                lines += await _lines(reader, 2)
                await _assert_drained(reader)
                writer.close()
                await _until(lambda: server._follower is None)
                return gone, lines
            finally:
                await server.aclose()

        gone, lines = asyncio.run(scenario())
        assert gone == self._expected(tmp_path, 0)[:5]
        assert lines == self._expected(tmp_path, 2)


class TestAdmissionServer:
    def test_admit_depart_query_round_trip(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                responses = await _rpc(
                    server.tcp_port,
                    {"op": "ping"},
                    {"op": "admit", "task": task_to_dict(low_task("a"))},
                    {"op": "admit", "task": task_to_dict(high_task("h"))},
                    {"op": "depart", "task_id": "a"},
                    {"op": "query"},
                )
            finally:
                await server.aclose()
            return responses

        ping, admit_a, admit_h, depart, query = asyncio.run(scenario())
        assert ping["ok"]
        assert admit_a["ok"] and admit_a["decision"]["accepted"]
        assert admit_h["ok"] and admit_h["decision"]["kind"] == "high_density"
        assert depart["ok"] and depart["receipt"]["task_id"] == "a"
        state = query["state"]
        assert state["admitted_ids"] == ["h"]
        assert state["seq"] == 3
        assert state["journal_entries"] == 4  # genesis + 2 admits + depart
        assert state["fsync_policy"] == "batch"

    def test_responses_are_durable_before_acknowledgement(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                await _rpc(server.tcp_port, {
                    "op": "admit", "task": task_to_dict(low_task("a")),
                })
                # The response is out; the journal must already hold the
                # record (batch policy syncs before futures resolve).
                records, _ = Journal.read(tmp_path / "server.jsonl")
                return records
            finally:
                await server.aclose()

        records = asyncio.run(scenario())
        assert [r["kind"] for r in records] == ["genesis", "admit"]

    def test_errors_do_not_tear_the_connection(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(b"this is not json\n")
                writer.write(encode({"op": "launch_missiles"}))
                writer.write(encode({"op": "depart", "task_id": "ghost"}))
                writer.write(encode({"op": "admit", "task": {"bad": 1}}))
                writer.write(encode(
                    {"op": "admit", "task": task_to_dict(low_task("a"))}
                ))
                writer.write(encode(
                    {"op": "admit", "task": task_to_dict(low_task("a"))}
                ))
                await writer.drain()
                responses = [decode(await reader.readline()) for _ in range(6)]
                writer.close()
                return responses
            finally:
                await server.aclose()

        garbage, unknown, ghost, malformed, good, duplicate = asyncio.run(
            scenario()
        )
        assert not garbage["ok"] and garbage["code"] == "bad_request"
        assert not unknown["ok"] and unknown["code"] == "bad_request"
        assert not ghost["ok"] and ghost["code"] == "online_error"
        assert not malformed["ok"] and malformed["code"] == "bad_request"
        assert good["ok"] and good["decision"]["accepted"]
        assert not duplicate["ok"] and duplicate["code"] == "online_error"
        assert "already admitted" in duplicate["error"]

    def test_invalid_utf8_is_a_bad_request_on_both_front_ends(self, tmp_path):
        bad_task = json.dumps(task_to_dict(low_task("PLACEHOLDER"))).encode()
        bad_task = bad_task.replace(b"PLACEHOLDER", b"a\xff")

        async def scenario():
            server = await _start_server(tmp_path, http=True)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(b'{"op":"admit","task":' + bad_task + b"}\n")
                writer.write(encode(
                    {"op": "admit", "task": task_to_dict(low_task("good"))}
                ))
                await writer.drain()
                tcp = [decode(await reader.readline()) for _ in range(2)]
                writer.close()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.http_port
                )
                writer.write((
                    "POST /admit HTTP/1.0\r\n"
                    f"Content-Length: {len(bad_task)}\r\n\r\n"
                ).encode() + bad_task)
                await writer.drain()
                head, _, body = (await reader.read()).partition(b"\r\n\r\n")
                writer.close()
                return tcp, head.split(b"\r\n")[0], json.loads(body)
            finally:
                await server.aclose()

        (bad, good), status, http_body = asyncio.run(scenario())
        assert not bad["ok"] and bad["code"] == "bad_request"
        assert "UTF-8" in bad["error"]
        # The connection stayed usable and nothing else was admitted.
        assert good["ok"] and good["decision"]["accepted"]
        assert status.endswith(b"400 Bad Request")
        assert not http_body["ok"] and http_body["code"] == "bad_request"
        records, _ = Journal.read(tmp_path / "server.jsonl")
        assert [r["kind"] for r in records] == ["genesis", "admit"]
        assert records[1]["task"]["name"] == "good"

    def test_pipelined_admits_coalesce_into_batches(self, tmp_path):
        tasks = [low_task(f"p{i}", 0.1) for i in range(24)]

        async def scenario():
            server = await _start_server(tmp_path, processors=32)
            try:
                responses = await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in tasks
                ))
                return responses, server.durable.controller.seq
            finally:
                await server.aclose()

        with collecting() as registry:
            responses, seq = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert seq == len(tasks)
        # Decisions arrive in request order with contiguous seq numbers.
        assert [r["decision"]["seq"] for r in responses] == list(
            range(1, len(tasks) + 1)
        )
        batches = registry.counter("service.batches")
        assert 1 <= batches < len(tasks), (
            f"{len(tasks)} pipelined admits should coalesce, got "
            f"{batches} batches"
        )
        assert registry.counter("service.admits") == len(tasks)

    def test_subscriber_acks_converge(self, tmp_path):
        tasks = [low_task(f"s{i}", 0.2) for i in range(8)]

        async def scenario():
            server = await _start_server(tmp_path, processors=16)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(encode({"op": "subscribe", "from": 0}))
                await writer.drain()
                ack = decode(await reader.readline())
                assert ack["ok"] and ack["backlog"] == 1  # genesis
                streamed = [
                    decode(await reader.readline())["record"]["kind"]
                ]
                await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in tasks
                ))
                applied = 1
                while applied < len(tasks) + 1:
                    message = decode(await reader.readline())
                    streamed.append(message["record"]["kind"])
                    applied += 1
                writer.write(encode({"op": "ack", "n": applied}))
                await writer.drain()
                for _ in range(200):
                    cursor, = server.replication_cursors
                    if cursor.acked == applied:
                        break
                    await asyncio.sleep(0.005)
                cursor, = server.replication_cursors
                writer.close()
                return streamed, cursor
            finally:
                await server.aclose()

        streamed, cursor = asyncio.run(scenario())
        assert streamed == ["genesis"] + ["admit"] * len(tasks)
        assert cursor.streamed == len(tasks) + 1
        assert cursor.acked == cursor.streamed and cursor.lag == 0

    def test_http_shim(self, tmp_path):
        async def http(port, raw):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            response = await reader.read()
            writer.close()
            head, _, body = response.partition(b"\r\n\r\n")
            status = head.split(b"\r\n")[0].decode().split(" ", 1)[1]
            return status, body

        def post(path, payload):
            body = json.dumps(payload).encode()
            return (
                f"POST {path} HTTP/1.0\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body

        async def scenario():
            server = await _start_server(tmp_path, http=True)
            port = server.http_port
            try:
                results = {
                    # A bare serialized task works as the /admit body.
                    "admit": await http(
                        port, post("/admit", task_to_dict(low_task("web")))
                    ),
                    "depart": await http(
                        port, post("/depart", {"task_id": "web"})
                    ),
                    "state": await http(
                        port, b"GET /state HTTP/1.0\r\n\r\n"
                    ),
                    "metrics": await http(
                        port, b"GET /metrics HTTP/1.0\r\n\r\n"
                    ),
                    "missing": await http(
                        port, b"GET /nope HTTP/1.0\r\n\r\n"
                    ),
                    "bad_json": await http(port, (
                        b"POST /admit HTTP/1.0\r\nContent-Length: 4\r\n\r\n{{{{"
                    )),
                }
            finally:
                await server.aclose()
            return results

        with collecting():
            results = asyncio.run(scenario())
        status, body = results["admit"]
        assert status == "200 OK"
        assert json.loads(body)["decision"]["accepted"]
        status, body = results["depart"]
        assert status == "200 OK" and json.loads(body)["receipt"]["clean"]
        status, body = results["state"]
        assert status == "200 OK"
        assert json.loads(body)["journal_entries"] == 3
        status, body = results["metrics"]
        assert status == "200 OK"
        assert b"service_admits" in body  # Prometheus exposition
        assert results["missing"][0] == "404 Not Found"
        assert results["bad_json"][0] == "400 Bad Request"


# ---------------------------------------------------------------------------
# warm standby + promotion
# ---------------------------------------------------------------------------
def _journal_from_golden(directory: Path) -> Path:
    """Replay the committed golden trace through a journaling controller."""
    path = directory / "golden.journal"
    with Journal(path, fsync="off") as journal:
        durable = DurableController(AdmissionController(M), journal)
        replay(durable, load_trace(GOLDEN_TRACE))
    return path


@pytest.fixture(scope="module")
def golden_records(tmp_path_factory) -> list[dict]:
    path = _journal_from_golden(tmp_path_factory.mktemp("golden"))
    records, torn = Journal.read(path)
    assert not torn
    return records


class TestStandbyReplica:
    def test_replication_gap_rejected(self, tmp_path, golden_records):
        replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
        replica.apply(golden_records[0])
        with pytest.raises(ServiceError, match="replication gap"):
            replica.apply(golden_records[2])  # skipped record 1

    def test_records_before_genesis_rejected(self, tmp_path, golden_records):
        replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
        with pytest.raises(ServiceError):
            replica.apply(golden_records[1])
        with pytest.raises(ServiceError):
            replica.promote()

    def test_resume_from_existing_local_journal(
        self, tmp_path, golden_records
    ):
        path = tmp_path / "standby.jsonl"
        replica = StandbyReplica(path, fsync="off")
        for record in golden_records[:10]:
            replica.apply(record)
        replica.close()
        resumed = StandbyReplica(path, fsync="off")
        assert resumed.applied == 10
        for record in golden_records[10:]:
            resumed.apply(record)
        controller, report = resumed.promote(verify=True)
        assert report.verified
        oracle = controller_from_records(golden_records)
        assert controller.snapshot() == oracle.snapshot()
        resumed.close()

    def test_divergent_stream_rejected(self, tmp_path, golden_records):
        """A tampered streamed record fails the replay oracle, not silently."""
        replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
        replica.apply(golden_records[0])
        admit = next(
            dict(r) for r in golden_records[1:]
            if r["kind"] == "admit" and r["accepted"]
        )
        admit["n"] = 1
        admit["accepted"] = False  # primary said accept; stream says reject
        admit["decided"] = None
        admit["processors"] = []
        admit["reason"] = "tampered"
        with pytest.raises(PersistenceError):
            replica.apply(admit)


class TestGoldenBoundaryFailover:
    def test_promotion_at_every_record_boundary(
        self, tmp_path, golden_records
    ):
        """Acceptance: kill the primary after *any* committed record of the
        golden trace and the promoted standby equals a fresh verified
        recovery of the primary's journal prefix."""
        replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
        prefix_path = tmp_path / "prefix.jsonl"
        prefix_journal = Journal(prefix_path, fsync="off")
        for boundary, record in enumerate(golden_records):
            replica.apply(record)
            prefix_journal.append(record)  # keeps the record's verbatim n
            prefix_journal.sync()
            controller, report = replica.promote(
                verify=True, staleness=len(golden_records) - boundary - 1
            )
            assert report.verified
            assert report.replicated == boundary + 1
            fresh, _ = recover(None, prefix_path, verify=True)
            assert fresh.snapshot() == controller.snapshot(), (
                f"promotion diverges from verified recovery at record "
                f"boundary {boundary}"
            )
        prefix_journal.close()
        replica.close()


# ---------------------------------------------------------------------------
# depart-path + service telemetry surfaces
# ---------------------------------------------------------------------------
class TestServiceTelemetry:
    def test_depart_histogram_and_compaction_counter(self):
        with collecting() as registry:
            controller = AdmissionController(16, repack_on_departure=True)
            controller.admit_many(
                [low_task(f"d{i}", 0.3) for i in range(8)]
            )
            controller.admit(high_task("h", width=3))
            for task_id in ("d1", "d3", "h", "d5"):
                controller.depart(task_id)
            snapshot = registry.snapshot()
        histogram = registry.histogram("online.depart_seconds")
        assert histogram.count == 4
        assert registry.counter("online.compaction_freed_processors") >= 1
        assert "online.depart_seconds" in snapshot["histograms"]
        merged = type(registry)(enabled=True)
        merged.merge_snapshot(snapshot)
        assert merged.histogram("online.depart_seconds").count == 4
        prometheus = registry.to_prometheus()
        assert "online_depart_seconds" in prometheus
        assert "online_compaction_freed_processors" in prometheus

    def test_batch_commit_metrics(self, tmp_path):
        with collecting() as registry:
            with Journal(tmp_path / "j.jsonl", fsync="batch") as journal:
                durable = DurableController(AdmissionController(8), journal)
                durable.admit_many([low_task(f"m{i}", 0.2) for i in range(4)])
        assert registry.counter("online.journal.group_syncs") >= 1
        assert registry.histogram("online.journal.sync_seconds").count >= 1
