"""Workload ``serve-event``: in-process ``Server.simulate`` priced by the event model.

A steady Poisson trace at 1500 req/s from 16 tenants with the default kind
mix (NN-20 inference included) runs on a fresh 4-device set-I server with
``cost_model="event"`` each time, so every repetition starts with a cold
schedule cache, as a one-shot user pays.  The working set overflows the
512-entry cache, so both pricing and cache behaviour show.

The traced run passes timing wrappers in through ``ServeConfig``: a
:class:`~repro.sched.cost.CostModel` around the schedule cache (every price
call), an event model inside it (misses only: lowering and scheduling) and
a :class:`~repro.sched.layouts.PlacementLayout` (every dispatch).  Its
outcomes must be byte-identical to the untraced ones.
"""

from __future__ import annotations

import itertools
import json
import time

from perfbench.common import (
    Deadline,
    ReferenceClock,
    Result,
    SpanLog,
    median,
    pct,
    peak_rss_mb,
    self_times_cover,
)
from repro.apps.traffic import steady_trace
from repro.sched.cost import CostModel, EventDrivenCostModel, batch_graph
from repro.sched.layouts import DataParallelLayout
from repro.sched.memo import DEFAULT_COST_CACHE_CAPACITY, ScheduleCache
from repro.serve import Server

RATE_RPS = 1500.0
TENANTS = 16
#: Relative slack allowed between the layer self times' sum and the
#: ``simulate`` wall time of the traced run, timed outside the span log.
SELF_TIME_SLACK = 0.02
SETUP_REPEATS = 5
#: Distinct traces an untraced run cycles through (sub-seeds of its seed);
#: the model percentiles pool their requests.  One 10 s trace's p50 and
#: p99 swing widely with the seed, because the inference batches set how
#: long the other requests queue.
TRACES = 24


class TimedCostModel(CostModel):
    """Every price call, spanned as ``sched.price``; otherwise transparent."""

    def __init__(self, inner: CostModel, spans: SpanLog) -> None:
        self.inner = inner
        self.spans = spans

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    def batch_cost(self, batch, params, device):
        index = self.spans.begin("sched.price")
        cost = self.inner.batch_cost(batch, params, device)
        self.spans.end(index)
        return cost

    def stage_cost(self, stage_graph, params, device):
        index = self.spans.begin("sched.price")
        cost = self.inner.stage_cost(stage_graph, params, device)
        self.spans.end(index)
        return cost

    def reset(self) -> None:
        self.inner.reset()

    @property
    def cache_stats(self) -> dict[str, int]:
        return self.inner.cache_stats


class TimedEventModel(EventDrivenCostModel):
    """The event model with lowering and scheduling spanned (cache misses)."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans

    def batch_cost(self, batch, params, device):
        index = self.spans.begin("sched.lower")
        graph = batch_graph(batch, params)
        self.spans.end(index)
        return self.stage_cost(graph, params, device)

    def stage_cost(self, stage_graph, params, device):
        index = self.spans.begin("sim.schedule")
        cost = super().stage_cost(stage_graph, params, device)
        self.spans.end(index)
        return cost


class TimedLayout(DataParallelLayout):
    """The data-parallel layout with every dispatch spanned."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans

    def dispatch(self, cluster, batch, now, params):
        index = self.spans.begin("sched.dispatch")
        placed = super().dispatch(cluster, batch, now, params)
        self.spans.end(index)
        return placed


def make_trace(seed: int, duration_s: float):
    return steady_trace(rate_rps=RATE_RPS, duration_s=duration_s, seed=seed, tenants=TENANTS)


def fingerprint(report) -> str:
    """Byte-exact identity of a serving report and its outcomes.

    The transport's counters (``wire``, and the BUSY replies the wire
    sent for refused work) are left out: they describe how the trace
    travelled, not what the serving core decided.
    """
    snapshot = {key: value for key, value in report.to_dict().items() if key != "wire"}
    if "overload" in snapshot:
        snapshot["overload"] = {
            key: value for key, value in snapshot["overload"].items() if key != "busy_replies"
        }
    return json.dumps(snapshot, sort_keys=True) + repr(report.outcomes)


def _server(spans: SpanLog | None = None) -> Server:
    if spans is None:
        return Server(devices=4, params="I", cost_model="event")
    cost = TimedCostModel(
        ScheduleCache(TimedEventModel(spans), capacity=DEFAULT_COST_CACHE_CAPACITY), spans
    )
    return Server(devices=4, params="I", cost_model=cost, layout=TimedLayout(spans))


def _simulate(server: Server, trace, spans: SpanLog | None = None):
    """Simulate ``trace``; the wall is timed outside the span log."""
    trace = list(trace)
    started = time.perf_counter()
    index = spans.begin("serve.simulate") if spans is not None else -1
    report = server.simulate(trace, label="serve-event")
    if spans is not None:
        spans.end(index)
    return report, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, size: str = "full", corrupt: str | None = None) -> Result:
    duration_s = 10.0 if size == "full" else 0.2
    result = Result()
    # Set-up is building one trace and one server; every trace the run
    # needs is built that way, and setup_s is the median of those builds.
    setup = []
    traces = []
    clock = ReferenceClock()
    for index in range(max(SETUP_REPEATS, 1 if trace else TRACES)):
        started = time.perf_counter()
        requests = make_trace(seed * TRACES + index % TRACES, duration_s)
        _server()
        setup.append(clock.scale(time.perf_counter() - started))
        if index < (1 if trace else TRACES):
            traces.append(requests)
    result.put("setup_s", median(setup), "s")

    spans = SpanLog() if trace else None
    variants = ("plain", "timed", "obs") if trace else ("plain",)
    walls: dict[str, list[float]] = {variant: [] for variant in variants}
    # The plain walls at the reference speed, for the host figures.
    scaled: list[float] = []
    # Per trace, the first run's fingerprint and model figures; reports
    # themselves are not kept, so the heap does not grow across repetitions.
    prints: dict[int, str] = {}
    latencies: list[float] = []
    completed: list[int] = []
    goodput: list[float] = []
    first_report = None
    plain_requests = plain_pbs = 0
    deadline = Deadline(seconds)
    clock = ReferenceClock()
    order = itertools.cycle(range(len(traces)))
    done = 0
    while done < len(traces) or deadline.left() > 0:
        index = next(order)
        requests = traces[index]
        for variant in variants:
            server = _server(spans if variant == "timed" else None)
            if variant == "obs":
                server.enable_tracing()
            offered = requests[:-1] if corrupt == "drop" and variant != "plain" else requests
            report, wall = _simulate(server, offered, spans if variant == "timed" else None)
            walls[variant].append(wall)
            printed = fingerprint(report)
            if index not in prints:
                prints[index] = printed
                latencies.extend(outcome.latency_s for outcome in report.outcomes)
                completed.append(report.metrics.requests)
                goodput.append(report.metrics.requests_per_s)
                first_report = first_report or report
            check = "model_repeats_exactly" if variant == "plain" else "traced_byte_identical"
            result.check(check, printed == prints[index])
            if variant == "plain":
                scaled.append(clock.scale(wall))
                plain_requests += len(requests)
                plain_pbs += sum(request.total_pbs for request in requests)
        done += 1

    result.attempted = sum(len(requests) for requests in traces)
    result.failed = result.attempted - sum(completed)
    result.check("every_request_completed", result.failed == 0)
    # Host figures are at the reference speed (see ``ReferenceClock``) and
    # taken over the whole run.
    wall = sum(scaled)
    result.put("host_requests_per_s", plain_requests / wall, "req/s")
    result.put("pbs_per_s", plain_pbs / wall, "PBS/s")
    result.put("pbs_latency_ms_p50", wall / plain_pbs * 8 * 1e3, "ms")
    result.put("live_latency_ms_p50", median(scaled) * 1e3, "ms")
    result.put("live_latency_ms_p99", median(scaled) * 1e3, "ms")
    result.put("live_max_rps_at_slo", plain_requests / wall, "req/s")
    # Model figures pool every request of the run's traces.
    result.put("model_latency_ms_p50", pct(latencies, 50) * 1e3, "ms")
    result.put("model_latency_ms_p99", pct(latencies, 99) * 1e3, "ms")
    result.put("model_goodput_rps", median(goodput), "req/s")
    result.put("served_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.notes.append(clock.note())
    if trace:
        _layer_metrics(result, first_report, spans, walls)
        result.spans = spans
    return result


def serve_layer_metrics(result: Result, report) -> None:
    """The serving core's and devices' counters, read off a report (model)."""
    metrics = report.metrics
    result.put("serve.queue_delay_ms_p50", metrics.queue_delay.p50_s * 1e3, "ms")
    result.put("serve.batches", metrics.batches, "count")
    result.put("serve.mean_batch_fill", metrics.mean_batch_fill, "ratio")
    result.put(
        "serve.deadline_flush_ratio",
        metrics.flush_reasons.get("deadline", 0) / max(metrics.batches, 1),
        "ratio",
    )
    result.put("serve.peak_queue_depth", metrics.peak_queue_depth, "count")
    utilization = metrics.device_utilization
    result.put(
        "arch.device_utilization_mean", sum(utilization.values()) / max(len(utilization), 1), "ratio"
    )


def _layer_metrics(result: Result, report, spans: SpanLog, walls) -> None:
    totals = spans.totals()
    reps = len(walls["timed"])
    simulate = totals["serve.simulate"][1]
    own = {name: entry[2] for name, entry in totals.items()}
    cache = report.metrics.cost_cache
    misses = max(cache.get("misses", 0), 1)
    price_calls, price_total, _ = totals.get("sched.price", (0, 0.0, 0.0))
    dispatches, _, dispatch_self = totals.get("sched.dispatch", (0, 0.0, 0.0))
    result.put("sched.price_calls", price_calls / reps, "count")
    result.put(
        "sched.cache_hit_ratio",
        cache.get("hits", 0) / max(cache.get("hits", 0) + cache.get("misses", 0), 1),
        "ratio",
    )
    result.put("sched.cache_evictions", cache.get("evictions", 0), "count")
    result.put("sched.lower_us_per_miss", own.get("sched.lower", 0.0) / reps / misses * 1e6, "us")
    result.put("sched.price_share", price_total / simulate, "ratio")
    result.put("sched.dispatch_self_us_per_batch", dispatch_self / max(dispatches, 1) * 1e6, "us")
    result.put("sim.schedule_us_per_miss", own.get("sim.schedule", 0.0) / reps / misses * 1e6, "us")
    result.put("serve.self_share", own["serve.simulate"] / simulate, "ratio")
    serve_layer_metrics(result, report)
    result.put("obs.tracing_overhead_ratio", median(walls["obs"]) / median(walls["plain"]), "ratio")
    result.put("bench.trace_overhead_ratio", median(walls["timed"]) / median(walls["plain"]), "ratio")
    result.check(
        "self_times_sum_to_simulate", self_times_cover(spans, sum(walls["timed"]), SELF_TIME_SLACK)
    )
