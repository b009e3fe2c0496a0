"""Shared pieces of the benchmark: results, spans, statistics, process stats."""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


@dataclass
class Result:
    """What one workload run hands back to the command line.

    ``metrics`` maps a metric name to ``(value, unit)``; ``checks`` maps a
    correctness check to whether it held; ``spans`` is the in-memory span
    log of a traced run, written out when the run ends.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    spans: "SpanLog | None" = None
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, held: bool) -> None:
        # A check that runs more than once must hold every time.
        self.checks[name] = self.checks.get(name, True) and bool(held)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


class SpanLog:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent]`` rows.

    :meth:`begin`/:meth:`end` nest through a stack, so a span opened while
    another is open becomes its child.
    """

    def __init__(self) -> None:
        self.rows: list[list[Any]] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.rows) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> int:
        self.rows[index][2] = time.perf_counter_ns()
        self._stack.pop()
        return self.rows[index][2] - self.rows[index][1]

    def children_s(self, index: int) -> float:
        """Seconds the direct children of span ``index`` last, summed."""
        return sum(row[2] - row[1] for row in self.rows if row[3] == index) / 1e9

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(count, total seconds, self seconds)``.

        A span's self time is its duration minus the part of it its
        children cover: each child is clipped to the parent, and time two
        children share counts once.  So the self times add up to the root
        spans' durations only if every child lies inside its parent and no
        two siblings overlap; a span log that double-counts time sums to
        more (see :func:`self_times_cover`).
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for row in self.rows:
            if row[3] >= 0:
                children.setdefault(row[3], []).append((row[1], row[2]))
        out: dict[str, list[float]] = {}
        for index, (name, start, end, _) in enumerate(self.rows):
            covered = 0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start, child_end = max(child_start, reach), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) / 1e9
            entry[2] += (end - start - covered) / 1e9
        return {name: (int(c), total, own) for name, (c, total, own) in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )


def self_times_cover(spans: SpanLog, wall_s: float, slack: float) -> bool:
    """Whether the spans' self times add up to ``wall_s`` within ``slack``.

    ``wall_s`` is timed outside the span log, around the calls the root
    spans enclose.  The sum misses it when time is double-counted (a child
    outside its parent, overlapping siblings) or when the roots do not
    cover the timed calls.
    """
    self_sum = sum(own for _, _, own in spans.totals().values())
    return abs(self_sum - wall_s) <= slack * wall_s


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Peak resident set of this process (plus ``extra_kb``), in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + extra_kb) / 1024.0


def proc_peak_rss_kb(pid: int) -> int:
    """Peak resident set of another process so far (``VmHWM``), in kB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM line for process {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used, read from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


#: Iterations of the calibration loop, a fixed pure-Python loop that no
#: change to the program can speed up.
CALIBRATION_LOOPS = 100_000
#: The reference host speed: the one at which the calibration loop takes
#: this long.
REFERENCE_S = 0.008


def calibration_s() -> float:
    """Seconds the calibration loop takes now: the median of three runs."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        samples.append(time.perf_counter() - started)
    return median(samples)


class ReferenceClock:
    """Scales host walls to the reference speed.

    On a shared machine the host's speed drifts by a third within a minute,
    and process CPU time drifts with the wall: the work is slowed, not
    descheduled.  So every timed piece of work is followed by the
    calibration loop, and its wall is scaled by :data:`REFERENCE_S` over
    the mean of the calibrations just before and just after it.  Nothing
    of the program may run while the loop does.
    """

    def __init__(self) -> None:
        self._before = calibration_s()
        self.calibrations = [self._before]

    def scale(self, wall_s: float) -> float:
        """``wall_s`` of the work that just ended, at the reference speed."""
        after = calibration_s()
        self.calibrations.append(after)
        speed_s = (self._before + after) / 2
        self._before = after
        return wall_s * REFERENCE_S / speed_s

    def note(self) -> str:
        return (
            f"host speed: calibration loop median {median(self.calibrations) * 1e3:.2f} ms "
            f"over {len(self.calibrations)} runs (reference {REFERENCE_S * 1e3:g} ms)"
        )


class Deadline:
    """The measuring window of one run: ``seconds`` from construction."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.stop = self.start + seconds

    def left(self) -> float:
        return self.stop - time.perf_counter()
