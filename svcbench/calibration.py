"""Host speed reference: a fixed CPU loop that uses none of the program's code.

On a shared virtual machine the speed of a CPU second drifts: on the 2-core
VM the benchmark was built on, the server's CPU per operation and its
start-up time both halved within ten minutes, with no CPU steal to show
for it.  The benchmark therefore times this loop in the client right after
every pass and scales the pass's times to the loop's reference time,
:data:`REFERENCE_SECONDS`.  A change in the host's speed moves the loop and
the server alike and cancels; a change in the program moves only the
server.

The loop mixes what the server spends its time on: interpreted Python
over dicts and lists, the C JSON codec and small NumPy array operations.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

#: The loop's median CPU time on the reference host (2-core Xeon VM,
#: Python 3.11, NumPy 2.4).
REFERENCE_SECONDS = 0.016
#: Loop repetitions per reading; the reading is their median.
REPEATS = 5


def _loop() -> float:
    rows = [
        {"id": i, "w": (i * 7919) % 1000, "name": f"t{i:05d}", "xs": [i, i + 1]}
        for i in range(3000)
    ]
    rows = json.loads(json.dumps(rows))
    rows.sort(key=lambda row: (row["w"], row["id"]))
    index = {}
    total = 0
    for row in rows:
        total += row["w"] * 3 % 11
        index[row["name"]] = row["xs"][1]
    values = np.arange(64, dtype=float)
    hits = 0.0
    for i in range(3000):
        hits += float(np.cumsum(values)[-1] > i)
        values[i % 64] += 1.0
    return total + len(index) + hits


def loop_seconds() -> float:
    """The loop's median thread CPU time over :data:`REPEATS` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            started = time.thread_time()
            _loop()
            times.append(time.thread_time() - started)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def to_reference(seconds: float, loop: float) -> float:
    """*seconds* measured while the loop took *loop* seconds, scaled to a
    host on which it takes :data:`REFERENCE_SECONDS`."""
    return seconds * REFERENCE_SECONDS / loop
