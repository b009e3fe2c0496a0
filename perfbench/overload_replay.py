"""Workload ``overload-replay``: a saturated trace replayed over loopback TCP.

A bootstrap-only trace at twice the cluster's capacity streams through a
replay-mode ``NetServer`` on one connection.  The server admits with
``reject-newest`` against a bounded queue and flushes on the batch
deadline only, so about half the work is refused rather than served.  The
capacity is derived at set-up from the model (an unbounded in-process run),
never typed in.

Checks: the replayed outcomes equal the in-process ``simulate`` of the same
trace, completed + rejected + shed + expired + lost equals submitted, and
every submitted request gets exactly one answer on the wire.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from perfbench.common import Deadline, ReferenceClock, Result, SpanLog, median, pct, peak_rss_mb
from perfbench.serve_event import fingerprint, serve_layer_metrics
from repro.apps.traffic import steady_trace
from repro.flow.control import RequestRejectedError
from repro.flow.retry import ServerBusyError
from repro.net import codec
from repro.net.client import AsyncNetClient
from repro.net.server import NetServer
from repro.serve import Server
from repro.serve.request import RequestKind, RequestOutcome

BOOTSTRAP_ONLY = {RequestKind.BOOTSTRAP: 1.0}
#: Serving configuration: deadline-only flush behind a bounded queue.
CONFIG = dict(devices=4, params="I", queue_capacity=64, batch_capacity=4096)
ADMISSION = "reject-newest"
#: Offered load as a multiple of the model-derived capacity.
SATURATION = 2.0
TENANTS = 16
#: Far past any plausible capacity: the unbounded probe only measures
#: how fast the cluster drains the backlog it builds.
PROBE_RATE_RPS = 200_000.0
PROBE_DURATION_S = 0.05
PINGS = 20
SETUP_REPEATS = 5
#: Distinct traces an untraced run cycles through (sub-seeds of its seed).
#: The host cost per request and the model figures depend on the trace:
#: over ten seeds, one trace per run spread by 0.09 on the host figures,
#: against 0.05 for ten runs of one seed.
TRACES = 4


def derive_capacity_rps(seed: int) -> float:
    """Sustained completions per model second of an unbounded in-process run."""
    probe = steady_trace(
        rate_rps=PROBE_RATE_RPS, duration_s=PROBE_DURATION_S, seed=seed,
        tenants=TENANTS, kind_mix=BOOTSTRAP_ONLY,
    )
    unbounded = {**CONFIG, "queue_capacity": None}
    report = Server(**unbounded).simulate(probe, label="capacity-probe")
    return report.metrics.requests / report.metrics.horizon_s


def make_trace(seed: int, duration_s: float):
    return steady_trace(
        rate_rps=SATURATION * derive_capacity_rps(seed), duration_s=duration_s, seed=seed,
        tenants=TENANTS, kind_mix=BOOTSTRAP_ONLY,
    )


async def replay_over_tcp(trace, server: Server, pings: int = 0):
    """Stream ``trace`` (in the given order) through a replay ``NetServer``.

    Returns the server's report, the client, one answer per request (an
    outcome, or the typed exception the client raised for it) and the
    replay's wall: from the first SUBMIT to the last answer, so server
    start, connect and close are left out.  Unlike
    :func:`repro.net.loadgen.replay_trace` it keeps the order it is given
    (so the self-tests can offer a reordered trace) and hands back the
    client, whose round-trip samples and BUSY count the metrics need.
    """
    async with NetServer(server=server, mode="replay", label="overload-replay") as net:
        client = await AsyncNetClient.connect(*net.address)
        try:
            for _ in range(pings):
                await client.ping()
            started = time.perf_counter()
            futures = [client.submit_nowait(request) for request in trace]
            await client.drain()
            answers = await asyncio.gather(*futures, return_exceptions=True)
            wall = time.perf_counter() - started
        finally:
            await client.close()
    return net.last_report, client, answers, wall


async def _connect_once() -> None:
    async with NetServer(server=Server(admission=ADMISSION, **CONFIG), mode="replay") as net:
        client = await AsyncNetClient.connect(*net.address)
        await client.ping()
        await client.close()


def in_process_replay_s(trace) -> float:
    """Wall of the replay loop with no socket: ``replay_begin/offer/finish``."""
    server = Server(admission=ADMISSION, **CONFIG)
    started = time.perf_counter()
    server.replay_begin()
    for request in trace:
        try:
            server.replay_offer(request)
        except RequestRejectedError:
            pass
    server.replay_finish()
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, size: str = "full", corrupt: str | None = None) -> Result:
    duration_s = 0.1 if size == "full" else 0.01
    result = Result()
    count = 1 if trace else TRACES
    # Set-up is building one trace and connecting to a replay server; every
    # trace the run needs is built that way, and setup_s is the median of
    # those builds.
    setup = []
    traces = []
    clock = ReferenceClock()
    for index in range(max(SETUP_REPEATS, count)):
        started = time.perf_counter()
        requests = make_trace(seed * TRACES + index % count, duration_s)
        asyncio.run(_connect_once())
        setup.append(clock.scale(time.perf_counter() - started))
        if index < count:
            traces.append(requests)
    result.put("setup_s", median(setup), "s")

    expected = [
        fingerprint(
            Server(admission=ADMISSION, **CONFIG).simulate(list(requests), label="overload-replay")
        )
        for requests in traces
    ]
    offered = [list(requests) for requests in traces]
    if corrupt == "reorder":
        offered[0][0], offered[0][-1] = offered[0][-1], offered[0][0]

    walls: dict[str, list[float]] = {"plain": [], "timed": []}
    # The plain walls at the reference speed, for the host figures.
    scaled: list[float] = []
    # Per trace, the first plain replay's report, for the model figures.
    reports = {}
    replayed = replayed_pbs = 0
    spans = SpanLog() if trace else None
    deadline = Deadline(seconds)
    clock = ReferenceClock()
    variants = ("plain", "timed") if trace else ("plain",)
    order = itertools.cycle(range(count))
    done = 0
    while done < count or deadline.left() > 0:
        index = next(order)
        for variant in variants:
            server = Server(admission=ADMISSION, **CONFIG)
            if variant == "timed":
                _time_admission(server, spans)
            report, client, answers, wall = asyncio.run(
                replay_over_tcp(offered[index], server, pings=PINGS if variant == "timed" else 0)
            )
            walls[variant].append(wall)
            if variant == "plain":
                scaled.append(clock.scale(wall))
                replayed += len(offered[index])
                replayed_pbs += sum(outcome.request.total_pbs for outcome in report.outcomes)
                reports.setdefault(index, report)
            _check(result, traces[index], report, answers, expected[index])
        done += 1

    submitted = sum(len(requests) for requests in traces)
    completed = sum(first.metrics.requests for first in reports.values())
    result.attempted = submitted
    result.failed = submitted - completed
    # Host figures are at the reference speed (see ``ReferenceClock``) and
    # taken over every replay of the run.
    wall = sum(scaled)
    result.put("host_requests_per_s", replayed / wall, "req/s")
    result.put("pbs_per_s", replayed_pbs / wall, "PBS/s")
    result.put("pbs_latency_ms_p50", wall / replayed_pbs * 8 * 1e3, "ms")
    # Every request of the recorded trace is handed over when the replay
    # starts and its answer is in hand when the replay returns.
    result.put("live_latency_ms_p50", median(scaled) * 1e3, "ms")
    result.put("live_latency_ms_p99", median(scaled) * 1e3, "ms")
    result.put("live_max_rps_at_slo", replayed / wall, "req/s")
    # Model figures pool the admitted requests of the run's traces.
    latencies = [outcome.latency_s for first in reports.values() for outcome in first.outcomes]
    result.put("model_latency_ms_p50", pct(latencies, 50) * 1e3, "ms")
    result.put("model_latency_ms_p99", pct(latencies, 99) * 1e3, "ms")
    result.put(
        "model_goodput_rps", median([first.metrics.requests_per_s for first in reports.values()]),
        "req/s",
    )
    result.put("served_ratio", completed / submitted, "ratio")
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.notes.append(clock.note())
    if trace:
        _layer_metrics(result, traces[0], report, client, spans, walls)
        result.spans = spans
    return result


def _check(result: Result, requests, report, answers, expected_print: str) -> None:
    metrics = report.metrics
    overload = metrics.overload
    lost = metrics.availability.get("requests_lost", 0)
    accounted = (
        metrics.requests + overload.get("rejected", 0) + overload.get("shed", 0)
        + overload.get("expired", 0) + lost
    )
    result.check("conservation", accounted == len(requests))
    result.check("replay_equals_simulate", fingerprint(report) == expected_print)
    outcomes = sum(isinstance(answer, RequestOutcome) for answer in answers)
    busy = sum(isinstance(answer, ServerBusyError) for answer in answers)
    result.check(
        "one_answer_per_request",
        len(answers) == len(requests) and outcomes == metrics.requests
        and outcomes + busy == len(requests) == outcomes + overload.get("busy_replies", 0),
    )


def _time_admission(server: Server, spans: SpanLog) -> None:
    """Span every ``FlowController.try_admit`` call of ``server``."""
    try_admit = server.flow.try_admit

    def timed(queue, request):
        index = spans.begin("flow.try_admit")
        decision = try_admit(queue, request)
        spans.end(index)
        return decision

    server.flow.try_admit = timed


def codec_us_per_request(requests) -> float:
    """SUBMIT and RESULT encode plus decode, per request, standalone."""
    started = time.perf_counter()
    for request in requests:
        codec.decode_submit(codec.submit_from_request(request, with_arrival=True))
        outcome = RequestOutcome(request, 1, 0, request.arrival_s, request.arrival_s + 1e-3)
        codec.decode_result(codec.result_from_outcome(outcome))
    return (time.perf_counter() - started) / len(requests) * 1e6


def _layer_metrics(result: Result, requests, report, client, spans: SpanLog, walls) -> None:
    totals = spans.totals()
    overload = report.metrics.overload
    submitted = len(requests)
    calls, admit_s, _ = totals["flow.try_admit"]
    result.put("flow.admit_ratio", overload.get("admitted", 0) / submitted, "ratio")
    result.put("flow.rejected", overload.get("rejected", 0), "count")
    result.put("flow.busy_replies", client.busy_replies, "count")
    result.put("flow.admit_us_per_request", admit_s / calls * 1e6, "us")
    loop_s = min(in_process_replay_s(requests) for _ in range(3))
    result.put("serve.replay_offer_us_per_request", loop_s / submitted * 1e6, "us")
    result.put("net.transport_overhead_ratio", median(walls["plain"]) / loop_s, "ratio")
    result.put("net.codec_us_per_request", codec_us_per_request(requests[:2000]), "us")
    wire = report.wire
    result.put(
        "net.bytes_per_request", (wire["bytes_received"] + wire["bytes_sent"]) / submitted, "B"
    )
    result.put(
        "net.frames_per_request", (wire["frames_received"] + wire["frames_sent"]) / submitted, "count"
    )
    result.put("net.ping_ms_p50", pct(client.ping_rtts_s, 50) * 1e3, "ms")
    result.put("net.rtt_ms_p50", pct(client.rtts_s, 50) * 1e3, "ms")
    serve_layer_metrics(result, report)
    result.put(
        "bench.trace_overhead_ratio", median(walls["timed"]) / median(walls["plain"]), "ratio"
    )
