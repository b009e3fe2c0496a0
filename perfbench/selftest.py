"""Self-tests of the benchmark: every workload at tiny size, plus its checks.

Run from the repository root (they spawn a server process and a few
sockets, so they sit outside the default test collection)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import overload_replay, pbs, serve_event, wire_live  # noqa: E402
from perfbench import common  # noqa: E402
from perfbench.common import ReferenceClock, SpanLog, self_times_cover  # noqa: E402
from perfbench.run import WORKLOADS, catalogue, select_metrics  # noqa: E402

MODULES = {
    "pbs-I": pbs,
    "serve-event": serve_event,
    "wire-live": wire_live,
    "overload-replay": overload_replay,
}
#: Per-layer metrics each workload's traced run must measure as nonzero
#: even at tiny size.
LAYERS = {
    "pbs-I": (
        "runtime.encrypt_us_per_ct", "runtime.decrypt_us_per_ct", "tfhe.blind_rotate_ms",
        "tfhe.keyswitch_ms", "tfhe.br_iterations", "tfhe.stage_coverage",
        "tfhe.decompose_us_per_call", "fft.forward_us_per_call", "fft.inverse_us_per_call",
        "fft.share_of_blind_rotate", "bench.trace_overhead_ratio",
    ),
    "serve-event": (
        "sched.price_calls", "sched.lower_us_per_miss", "sched.price_share",
        "sched.dispatch_self_us_per_batch", "sim.schedule_us_per_miss", "serve.self_share",
        "serve.batches", "arch.device_utilization_mean", "obs.tracing_overhead_ratio",
        "bench.trace_overhead_ratio",
    ),
    "wire-live": (
        "net.ping_ms_p50", "net.rtt_ms_p50", "bench.generator_lag_ms_p99", "bench.client_cpu_util",
    ),
    "overload-replay": (
        "flow.admit_ratio", "flow.rejected", "flow.busy_replies", "flow.admit_us_per_request",
        "net.codec_us_per_request", "net.transport_overhead_ratio", "net.bytes_per_request",
        "net.frames_per_request", "serve.replay_offer_us_per_request", "serve.batches",
        "bench.trace_overhead_ratio",
    ),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(workload: str, trace: bool, corrupt: str | None = None):
    return MODULES[workload].run(1, 0.5, trace, size="tiny", corrupt=corrupt)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = tiny(workload, trace=False)
    assert result.correct, result.checks
    metrics = select_metrics(result, trace=False)
    assert list(metrics) == list(catalogue(trace=False))
    for name, (value, unit) in metrics.items():
        assert value > 0, name
    line = json.loads(result.to_json())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = tiny(workload, trace=True)
    assert result.correct, result.checks
    metrics = select_metrics(result, trace=True)
    assert list(metrics) == list(catalogue(trace=True))
    for name in LAYERS[workload]:
        assert metrics[name][0] > 0, name


def test_flipped_ciphertext_bit_fails_the_decrypt_check():
    result = tiny("pbs-I", trace=False, corrupt="flip")
    assert not result.checks["decrypt_equals_lut"]
    assert result.failed >= 1 and not result.correct


def test_reordered_replay_fails_the_replay_check():
    result = tiny("overload-replay", trace=False, corrupt="reorder")
    assert not result.correct
    assert not result.checks["replay_equals_simulate"]


def test_traced_run_on_other_input_fails_the_identity_check():
    result = tiny("serve-event", trace=True, corrupt="drop")
    assert not result.checks["traced_byte_identical"]
    assert not result.correct


def test_expired_wire_requests_are_answered_and_counted_failed():
    result = tiny("wire-live", trace=False, corrupt="deadline")
    assert result.checks["every_request_answered"]
    assert result.failed >= 1
    assert select_metrics(result, trace=False)["served_ratio"][0] < 1.0


def test_wire_request_without_outcome_or_typed_error_fails_the_answer_check():
    result = tiny("wire-live", trace=False, corrupt="kind")
    assert not result.checks["every_request_answered"]
    assert result.failed >= 1 and not result.correct


def test_reference_clock_scales_a_slow_host_down(monkeypatch):
    # The calibration loop took twice the reference time before and after
    # the work, so the host ran at half the reference speed.
    monkeypatch.setattr(common, "calibration_s", lambda: 2 * common.REFERENCE_S)
    clock = ReferenceClock()
    assert clock.scale(1.0) == pytest.approx(0.5)
    # A host that sped up halfway: the mean of the two calibrations.
    monkeypatch.setattr(common, "calibration_s", lambda: common.REFERENCE_S)
    assert clock.scale(1.0) == pytest.approx(1 / 1.5)


def _spans(rows):
    spans = SpanLog()
    spans.rows = [list(row) for row in rows]
    return spans


def test_self_times_cover_holds_for_nested_spans():
    spans = _spans([("root", 0, 100, -1), ("a", 10, 40, 0), ("b", 40, 90, 0), ("c", 50, 60, 2)])
    assert self_times_cover(spans, 100e-9, 0.02)
    totals = spans.totals()
    assert totals["root"][2] == pytest.approx(20e-9) and totals["b"][2] == pytest.approx(40e-9)


def test_self_times_cover_fails_on_double_counted_or_missing_time():
    # A child that runs past its parent, and two overlapping siblings.
    escaped = _spans([("root", 0, 100, -1), ("a", 0, 50, 0), ("b", 60, 90, 1)])
    overlapping = _spans([("root", 0, 100, -1), ("a", 0, 60, 0), ("b", 40, 100, 0)])
    assert not self_times_cover(escaped, 100e-9, 0.02)
    assert not self_times_cover(overlapping, 100e-9, 0.02)
    # The timed call lasted longer than the spans that should enclose it.
    assert not self_times_cover(_spans([("root", 0, 100, -1)]), 150e-9, 0.02)


def test_benchmark_json_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        spec["command"] + ["--workload", "pbs-I", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
