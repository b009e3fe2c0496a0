"""Workload ``wire-live``: an open-loop Poisson generator against a live ``NetServer``.

The server (:mod:`perfbench.wire_server`, analytical pricing, 2 ms batch
window) runs in its own process; this process is the generator, with at
most one connection per usable CPU.  Requests are sent on a seeded Poisson
schedule whatever the server does, and each is timed from when it was due.

The run first holds the base rate for several one-second windows, then
climbs a ramp of rungs ``RUNG_STEP`` apart (see :func:`_climb`).  A rung
passes when its p99 is at or under :data:`SLO_P99_MS`
with no failures and no growing backlog; a rung where the generator itself
ran late is invalid and never passes.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.common import (
    Deadline,
    ReferenceClock,
    Result,
    median,
    pct,
    proc_cpu_s,
    proc_peak_rss_kb,
)
from repro.apps.traffic import steady_trace
from repro.flow.retry import RequestTimeoutError, ServerBusyError
from repro.net.client import AsyncNetClient, NetError
from repro.serve import Request, Server
from repro.serve.request import RequestKind

BASE_RPS = 1000.0
#: Latency limit of the ramp (host clock): p99 at or under it passes.
SLO_P99_MS = 20.0
#: Ratio between consecutive rungs of the coarse and the fine climb.
RUNG_STEP = 1.1
FINE_STEP = 1.03
#: Requests sent per ramp rung (at least), so every rung's p99 has ten
#: samples past it, and the shortest rung in seconds, so fast rungs still
#: measure sustained load rather than one burst.
RUNG_REQUESTS = 1000
RUNG_SECONDS = 0.3
#: Rungs run at one rate before it counts as missed.
RUNG_TRIES = 3
#: Seconds of the run kept back for the two fine rungs above the top.
FINE_RESERVE_S = 2.0
#: Share of the run spent at the base rate (in one-second windows).
BASE_SHARE = 0.2
#: A rung whose generator lag p99 exceeds this was limited by the
#: generator, not the server: it is invalid.
LAG_LIMIT_MS = 10.0
#: A rung whose answers trail its sends by more than this many seconds of
#: arrivals when sending stops is not keeping up.
BACKLOG_LIMIT_S = 0.05
#: Client-side bound on waiting for answers once a rung stops sending; a
#: request still unanswered then is given up as timed out (a typed
#: failure).  One bound per rung rather than per request, because a
#: per-request timeout adds a task and a timer to every send and makes the
#: generator a quarter more expensive.
TIMEOUT_S = 2.0
TENANTS = 16
SETUP_REPEATS = 5
#: The default kind mix without whole-model inference: pricing on this
#: path is analytical, so one heavy request kind would only make the PBS
#: counts swing with the seed.
LIVE_MIX = {
    RequestKind.BOOTSTRAP: 0.5, RequestKind.GATE: 0.3, RequestKind.ENCRYPT: 0.15,
}
#: The errors a request may be answered with instead of an outcome: a BUSY
#: reply, the client-side timeout, a typed ERROR frame, or a lost connection.
TYPED_ERRORS = (ServerBusyError, RequestTimeoutError, NetError, ConnectionError)
SERVER_SCRIPT = Path(__file__).resolve().parent / "wire_server.py"


@dataclass
class Rung:
    rate: float
    sent: int
    answered: int
    failed: int
    pbs: int
    latency_ms: list[float]
    lag_ms: list[float]
    backlog: int
    wall_s: float
    client_cpu_s: float
    server_cpu_s: float
    #: Every request sent, with its due time from the rung's start.
    schedule: list[tuple[Request, float]]

    @property
    def p99_ms(self) -> float:
        return pct(self.latency_ms, 99) if self.latency_ms else float("inf")

    @property
    def valid(self) -> bool:
        return bool(self.lag_ms) and pct(self.lag_ms, 99) <= LAG_LIMIT_MS

    @property
    def sustained(self) -> bool:
        """Valid, nothing failed, and answers kept pace with the offered load."""
        return (
            self.valid and self.failed == 0
            and self.backlog <= max(10, self.rate * BACKLOG_LIMIT_S)
        )

    @property
    def passed(self) -> bool:
        return self.sustained and self.p99_ms <= SLO_P99_MS


#: Generator connections: one per usable CPU, at most 4.
CONNECTIONS = max(1, min(len(os.sched_getaffinity(0)), 4))


class Generator:
    """Open-loop sender over a fixed set of connections."""

    def __init__(self, clients, mix, rng: np.random.Generator, server_pid: int,
                 corrupt: str | None = None):
        self.clients = clients
        self.mix = mix
        self.rng = rng
        self.server_pid = server_pid
        #: Corrupted inputs for the self-tests: every tenth request carries
        #: a deadline no server can meet (``"deadline"``) or a kind no
        #: server knows (``"kind"``).
        self.corrupt = corrupt
        self.sent = 0

    async def _one(self, client, request, kind: str, due: float, rung: dict, deadline_s) -> None:
        """Send one request; it is answered by an outcome or a typed error.

        Any other exception leaves it unanswered (and failed) instead of
        ending the run, so the ``every_request_answered`` check sees it.
        """
        loop = asyncio.get_running_loop()
        rung["lag"].append((loop.time() - due) * 1e3)
        try:
            await client.submit(
                request.tenant, kind, request.items,
                model=request.model, deadline_s=deadline_s,
            )
        except TYPED_ERRORS:
            rung["answered"] += 1
            rung["failed"] += 1
            return
        except Exception:
            rung["failed"] += 1
            return
        rung["answered"] += 1
        rung["latency"].append((loop.time() - due) * 1e3)
        rung["pbs"] += request.total_pbs

    async def rung(self, rate: float, count: int | None = None, seconds: float | None = None) -> Rung:
        """Offer ``rate`` for ``count`` requests or ``seconds``, then wait for answers."""
        loop = asyncio.get_running_loop()
        state = {"lag": [], "latency": [], "failed": 0, "answered": 0, "pbs": 0}
        tasks = []
        schedule = []
        cpu0 = time.process_time()
        server0 = proc_cpu_s(self.server_pid)
        start = loop.time()
        due = start
        while True:
            due += float(self.rng.exponential(1.0 / rate))
            if (count is not None and len(tasks) >= count) or (
                seconds is not None and due - start >= seconds
            ):
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request = self.mix[self.sent % len(self.mix)]
            client = self.clients[self.sent % len(self.clients)]
            self.sent += 1
            tenth = self.corrupt is not None and self.sent % 10 == 0
            kind = "no-such-kind" if tenth and self.corrupt == "kind" else request.kind.value
            deadline_s = 1e-9 if tenth and self.corrupt == "deadline" else None
            schedule.append((request, due - start))
            tasks.append(asyncio.ensure_future(
                self._one(client, request, kind, due, state, deadline_s)
            ))
        backlog = sum(not task.done() for task in tasks)
        wall = loop.time() - start
        if tasks:
            _, late = await asyncio.wait(tasks, timeout=TIMEOUT_S)
            state["answered"] += len(late)
            state["failed"] += len(late)
            for task in late:
                task.cancel()
            await asyncio.gather(*late, return_exceptions=True)
        return Rung(
            rate=rate,
            sent=len(tasks),
            answered=state["answered"],
            failed=state["failed"],
            pbs=state["pbs"],
            latency_ms=state["latency"],
            lag_ms=state["lag"],
            backlog=backlog,
            wall_s=wall,
            client_cpu_s=time.process_time() - cpu0,
            server_cpu_s=proc_cpu_s(self.server_pid) - server0,
            schedule=schedule,
        )


def start_server(params: str) -> tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [sys.executable, str(SERVER_SCRIPT), "--params", params],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    if not line.startswith("READY "):
        process.kill()
        process.wait(timeout=30)
        raise RuntimeError(f"wire server failed to start: {line!r}")
    return process, int(line.split()[1])


def stop_server(process: subprocess.Popen) -> dict:
    """Close the server's stdin, read its summary line, reap it."""
    try:
        out, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate(timeout=30)
        raise
    if process.returncode != 0:
        raise RuntimeError(f"wire server exited with code {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


async def _connect(port: int, count: int):
    clients = [await AsyncNetClient.connect("127.0.0.1", port) for _ in range(count)]
    for client in clients:
        await client.ping()
    return clients


async def _connect_once(port: int) -> None:
    for client in await _connect(port, CONNECTIONS):
        await client.close()


async def _drive(port, pid, seed, seconds, size, corrupt):
    clients = await _connect(port, CONNECTIONS)
    mix = steady_trace(
        rate_rps=BASE_RPS, duration_s=10.0, seed=seed, tenants=TENANTS, kind_mix=LIVE_MIX
    )
    generator = Generator(clients, mix, np.random.default_rng(seed), pid, corrupt)
    # Freeze the generator's own heap so its collections stay short; the
    # server process is left as it is.
    gc.collect()
    gc.freeze()
    try:
        deadline = Deadline(seconds)
        windows = max(2, int(seconds * BASE_SHARE)) if size == "full" else 1
        base = [await generator.rung(BASE_RPS, seconds=_window_s(size)) for _ in range(windows)]
        # Memory while serving the base rate: server plus generator.
        base_rss_kb = proc_peak_rss_kb(pid) + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ramp, max_rps = await _climb(
            generator, deadline, RUNG_REQUESTS if size == "full" else 50, base
        )
        pings = []
        for client in clients:
            for _ in range(5):
                await client.ping()
            pings.extend(client.ping_rtts_s)
        rtts = [sample for client in clients for sample in client.rtts_s]
    finally:
        for client in clients:
            await client.close()
    return base, base_rss_kb, ramp, max_rps, pings, rtts


async def _climb(generator: Generator, deadline: Deadline, count: int, base: list[Rung]):
    """Climb from the base rate; returns every rung run and the top passing rate.

    A rate passes when one of up to ``RUNG_TRIES`` rungs at it passes; on
    this single-threaded server one collector pause is enough to push a
    short rung's p99 past the limit, so one missed rung says little.  The
    base rate counts as passed when at least half its windows passed.  Then
    the ramp climbs in ``RUNG_STEP`` rungs, and a climb ends at the first
    rate that does not pass.  While time is left, the ramp climbs again
    from two rungs below the top passing rate, so one noisy spell cannot
    end it for good; the top is the highest rate any climb passed.  When
    the base rate did not pass, the ramp descends in ``RUNG_STEP`` rungs
    until a rate passes instead, so the figure can fall below the base rate
    (it is 0 if none passes in time).  Two ``FINE_STEP`` rungs above the top
    passing rate then refine it.
    """
    rungs: list[Rung] = []

    async def passes(rate: float) -> bool:
        for _ in range(RUNG_TRIES):
            rungs.append(await generator.rung(rate, count=max(count, int(rate * RUNG_SECONDS))))
            if rungs[-1].passed:
                return True
            if deadline.left() <= 0:
                break
        return False

    rate = BASE_RPS
    if 2 * sum(rung.passed for rung in base) >= len(base):
        best = start = rate
        while deadline.left() > FINE_RESERVE_S:
            rate = start
            while deadline.left() > FINE_RESERVE_S:
                rate *= RUNG_STEP
                if not await passes(rate):
                    break
                best = max(best, rate)
            start = best / RUNG_STEP**2
    else:
        best = 0.0
        while deadline.left() > 0 and not best:
            rate /= RUNG_STEP
            if await passes(rate):
                best = rate
    top = best
    for _ in range(2 if best else 0):
        top *= FINE_STEP
        if deadline.left() > 0 and await passes(top):
            best = top
    return rungs, best


def run(seed: int, seconds: float, trace: bool, size: str = "full", corrupt: str | None = None) -> Result:
    result = Result()
    setup = []
    # Set-up is at the reference speed (see ``ReferenceClock``); the clock
    # runs while no server process is starting or serving.
    clock = ReferenceClock()
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        process, port = start_server("I" if size == "full" else "TOY")
        try:
            asyncio.run(_connect_once(port))
        except BaseException:
            stop_server(process)
            raise
        elapsed = time.perf_counter() - started
        if attempt < SETUP_REPEATS - 1:
            stop_server(process)
        setup.append(clock.scale(elapsed))
    try:
        base, base_rss_kb, ramp, max_rps, pings, rtts = asyncio.run(
            _drive(port, process.pid, seed, seconds, size, corrupt)
        )
    finally:
        summary = stop_server(process)

    rungs = base + ramp
    result.attempted = sum(rung.sent for rung in rungs)
    result.failed = sum(rung.failed for rung in rungs)
    result.check("every_request_answered", all(rung.answered == rung.sent for rung in rungs))
    result.check("server_saw_every_success", summary["requests"] == result.attempted - result.failed)

    base_wall = sum(rung.wall_s for rung in base)
    completed = [len(rung.latency_ms) for rung in base]
    base_pbs = _sum(base, "pbs")
    result.put("setup_s", median(setup), "s")
    # Latency comes from the least disturbed one-second window: on a shared
    # machine a whole run can sit in a slow spell (one of ten runs read a
    # median-window p99 of 20.7 ms against about 6 ms for the rest).
    result.put("live_latency_ms_p50", min(pct(rung.latency_ms, 50) for rung in base), "ms")
    result.put("live_latency_ms_p99", min(rung.p99_ms for rung in base), "ms")
    result.put("live_max_rps_at_slo", max_rps, "req/s")
    result.put("host_requests_per_s", sum(completed) / base_wall, "req/s")
    result.put("pbs_per_s", base_pbs / base_wall, "PBS/s")
    result.put("pbs_latency_ms_p50", base_wall / base_pbs * 8 * 1e3, "ms")
    model = _model_report(base, _window_s(size), "I" if size == "full" else "TOY").metrics
    result.put("model_latency_ms_p50", model.latency.p50_s * 1e3, "ms")
    result.put("model_latency_ms_p99", model.latency.p99_s * 1e3, "ms")
    result.put("model_goodput_rps", model.requests_per_s, "req/s")
    result.put("served_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.put("peak_rss_mb", base_rss_kb / 1024.0, "MB")
    result.notes.append(clock.note())
    if trace:
        top = max((rung for rung in ramp if rung.passed), key=lambda r: r.rate, default=base[-1])
        result.put("net.ping_ms_p50", pct(pings, 50) * 1e3, "ms")
        result.put("net.rtt_ms_p50", pct(rtts, 50) * 1e3, "ms")
        result.put("net.server_cpu_util", _sum(base, "server_cpu_s") / base_wall, "ratio")
        result.put(
            "net.server_cpu_ms_per_1k_requests",
            _sum(base, "server_cpu_s") / sum(rung.sent for rung in base) * 1e6, "ms",
        )
        result.put("net.server_cpu_util_at_max", top.server_cpu_s / top.wall_s, "ratio")
        result.put("bench.generator_lag_ms_p99", median([pct(r.lag_ms, 99) for r in base]), "ms")
        result.put("bench.client_cpu_util", _sum(base, "client_cpu_s") / base_wall, "ratio")
        result.put("bench.ramp_rungs", len(ramp), "count")
    return result


def _window_s(size: str) -> float:
    return 1.0 if size == "full" else 0.2


def _model_report(base: list[Rung], window_s: float, params: str):
    """The base-rate stream as offered, priced in-process on the model clock.

    Windows are laid end to end and every request keeps its seeded due
    time, so the figures depend on the seed alone, not on the host.
    """
    offered = [
        (request, index * window_s + due)
        for index, rung in enumerate(base)
        for request, due in rung.schedule
    ]
    trace = [
        Request.make(
            number + 1, request.tenant, request.kind, request.items,
            arrival_s=arrival, model=request.model,
        )
        for number, (request, arrival) in enumerate(offered)
    ]
    return Server(devices=4, params=params).simulate(trace, label="wire-live-model")


def _sum(rungs, field_name: str) -> float:
    return sum(getattr(rung, field_name) for rung in rungs)

