"""Drive a real ``fedcons-serve serve`` primary with a closed-loop load.

One process, one TCP connection.  With a single connection the server
commits requests in the order they were sent, so the work it does and every
decision it makes repeat exactly from run to run.  The two phases differ
only in how many requests are in flight: ``saturated`` keeps a fixed window
of pipelined requests (many waiting callers), ``serial`` keeps one.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.protocol import encode

_TICKS = os.sysconf("SC_CLK_TCK")
_TIMEOUT = 60.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of process *pid*.

    Summed over its threads from ``/proc/<pid>/task/*/schedstat`` (run time
    in nanoseconds); where the kernel has no schedstat, from the
    ``/proc/<pid>/stat`` clock ticks.
    """
    try:
        return sum(
            int(path.read_text().split()[0])
            for path in Path(f"/proc/{pid}/task").glob("*/schedstat")
        ) / 1e9 or _stat_cpu_seconds(pid)
    except (OSError, ValueError, IndexError):
        return _stat_cpu_seconds(pid)


def _stat_cpu_seconds(pid: int) -> float:
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process *pid* in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def host_cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host from the first ``/proc/stat`` line."""
    with open("/proc/stat", encoding="ascii") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


@dataclass
class Server:
    """A running primary and what it cost to bring it up."""

    process: subprocess.Popen
    sock: socket.socket
    reader: object
    setup_seconds: float = 0.0

    def request(self, message: dict) -> dict:
        self.sock.sendall(encode(message))
        return json.loads(self.reader.readline())

    def stop(self) -> int:
        """SIGTERM the primary and wait for it to exit; returns its exit code."""
        try:
            self.reader.close()
            self.sock.close()
            self.process.stdout.close()
        finally:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                code = self.process.wait(timeout=_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                code = self.process.wait()
        return code


def start_server(
    src: Path, journal: Path, processors: int, log: Path,
    launcher: list[str] | None = None, options: tuple[str, ...] = (),
) -> Server:
    """Spawn a primary on a fresh journal and wait until it answers a ping.

    ``setup_seconds`` runs from the spawn to the first ``ping`` answered.
    *launcher* replaces ``python -m repro.service.cli`` (the traced run
    uses a wrapper that adds spans, then calls the same entry point);
    *options* are further ``serve`` options.
    """
    command = (launcher or [sys.executable, "-m", "repro.service.cli"]) + [
        "serve", "--journal", str(journal), "-m", str(processors),
        "--port", "0", "--fsync", "batch", "--announce", *options,
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.perf_counter()
    with open(log, "ab") as err:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=err, env=env,
        )
    sock = None
    try:
        ready, _, _ = select.select([process.stdout], [], [], _TIMEOUT)
        line = process.stdout.readline() if ready else b""
        announce = json.loads(line) if line else {}
        if not announce.get("ready"):
            raise RuntimeError(f"primary did not announce readiness: {line!r}")
        sock = socket.create_connection(
            ("127.0.0.1", int(announce["tcp_port"])), timeout=_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server = Server(process, sock, sock.makefile("rb"))
        if not server.request({"op": "ping"}).get("ok"):
            raise RuntimeError("primary did not answer the first ping")
    except BaseException:
        if sock is not None:
            sock.close()
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    server.setup_seconds = time.perf_counter() - started
    return server


@dataclass
class Phase:
    """What one pass of the trace through one fresh primary measured."""

    responses: list = field(default_factory=list)  # dict | None per request
    latencies: list = field(default_factory=list)  # seconds per request
    wall_seconds: float = 0.0
    server_cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    counters: dict = field(default_factory=dict)
    #: Why the counters could not be read, or ``""``.
    counters_error: str = ""


#: Server counters read from the ``metrics`` op after each pass.
COUNTERS = (
    "online_placement_probes_total",
    "minprocs_ls_runs_total",
    "online_journal_group_syncs_total",
)


def _counters(text: str) -> dict:
    """The :data:`COUNTERS` found in a Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name in COUNTERS:
            values[name] = int(float(value))
    return values


def drive(server: Server, lines: list[bytes], window: int) -> Phase:
    """Send *lines* keeping at most *window* requests in flight.

    A missing or unparsable response is recorded as ``None``.
    """
    pid = server.process.pid
    phase = Phase()
    sent_at = [0.0] * len(lines)
    cpu_before = cpu_seconds(pid)
    started = time.perf_counter()
    sent = 0
    try:
        while sent < min(window, len(lines)):
            sent_at[sent] = time.perf_counter()
            server.sock.sendall(lines[sent])
            sent += 1
        for received in range(len(lines)):
            raw = server.reader.readline()
            now = time.perf_counter()
            try:
                phase.responses.append(json.loads(raw) if raw else None)
            except ValueError:
                phase.responses.append(None)
            phase.latencies.append(now - sent_at[received])
            if not raw:
                break
            if sent < len(lines):
                sent_at[sent] = time.perf_counter()
                server.sock.sendall(lines[sent])
                sent += 1
    except OSError:
        pass
    phase.wall_seconds = time.perf_counter() - started
    phase.server_cpu_seconds = cpu_seconds(pid) - cpu_before
    phase.responses += [None] * (len(lines) - len(phase.responses))
    try:
        phase.peak_rss_mb = peak_rss_mb(pid)
        phase.counters = _counters(server.request({"op": "metrics"})["text"])
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        phase.counters_error = f"metrics read failed: {exc!r}"
    else:
        missing = sorted(set(COUNTERS) - set(phase.counters))
        if missing:
            phase.counters_error = f"counters missing: {', '.join(missing)}"
    return phase
