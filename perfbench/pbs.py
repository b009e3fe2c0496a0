"""Workload ``pbs-I``: functional programmable bootstrapping at parameter set I.

A seeded stream of ciphertext batches alternating 8 and 64 (the paper's
device batch and core batch), each with its own seeded lookup table, runs
encrypt -> ``Session.bootstrap_batch`` (vectorized kernels) -> decrypt.
Every decrypt must equal f(m), and the staged kernel chain
(``batch_modulus_switch`` -> ``batch_blind_rotate`` ->
``batch_sample_extract`` -> ``batch_keyswitch``) must be bit-equal to the
one-shot ``batch_programmable_bootstrap``.

The traced run times each stage of that chain on 8-ciphertext batches,
plus the FFT and digit decomposition standalone at the blind-rotate
shapes.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from perfbench.common import Deadline, ReferenceClock, Result, SpanLog, median, pct, peak_rss_mb
from repro.runtime.session import Session
from repro.serve import Request, Server
from repro.tfhe.batch import (
    LweBatch,
    batch_blind_rotate,
    batch_keyswitch,
    batch_modulus_switch,
    batch_programmable_bootstrap,
    batch_sample_extract,
)
from repro.tfhe.blind_rotate import make_test_vector
from repro.tfhe.decomposition import decompose_rows
from repro.tfhe.polynomial import get_transform

#: Device batch and core batch of the paper's two-level batching.
BATCH_SIZES = (8, 64)
#: The untraced stream: each core batch is followed by three device
#: batches, so the device-batch latency gets more samples than the few
#: core batches a run has time for.
STREAM = (64, 8, 8, 8)
#: Batches of the seeded stream priced on the Strix model (host-independent).
MODEL_BATCHES = 16384
#: Mean arrival rate of that stream on the model clock (batches per second).
MODEL_BATCH_RATE = 2000.0
#: Relative slack allowed between the staged chain's stage spans, summed,
#: and the one-shot kernel's wall time on the same batch (median over the
#: traced batches).
STAGE_SLACK = 0.25
#: Traced batches whose staged chain is re-run one-shot for that check.
CHECKED_BATCHES = 5
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _lut(rng: np.random.Generator, modulus: int):
    table = rng.integers(0, modulus, size=modulus)
    return table, lambda message: int(table[message % modulus])


def _keys(session: Session):
    keys = session.generate_server_keys()
    return keys.bootstrapping_key, keys.keyswitching_key


def staged_chain(batch: LweBatch, function, session: Session, spans: SpanLog | None):
    """The one-shot PBS as its public stages, each optionally spanned.

    Returns the output batch and the number of blind-rotation iterations
    that did work (iterations whose switched mask column is all zero are
    skipped by the kernel).
    """
    params = session.params
    bsk, ksk = _keys(session)

    def stage(name, call):
        index = spans.begin(name) if spans is not None else -1
        out = call()
        if spans is not None:
            spans.end(index)
        return out

    masks_2n, _ = stage("tfhe.modswitch", lambda: batch_modulus_switch(batch, params))
    test_vector = stage("tfhe.test_vector", lambda: make_test_vector(function, params))
    rotated = stage(
        "tfhe.blind_rotate", lambda: batch_blind_rotate(test_vector, batch, bsk, params)
    )
    extracted = stage("tfhe.sample_extract", lambda: batch_sample_extract(rotated))
    switched = stage("tfhe.keyswitch", lambda: batch_keyswitch(extracted, ksk, params))
    return switched, int(np.count_nonzero(masks_2n.any(axis=0)))


def _same(a: LweBatch, b: LweBatch) -> bool:
    return bool(np.array_equal(a.masks, b.masks) and np.array_equal(a.bodies, b.bodies))


def _flip_bit(ciphertexts, params) -> None:
    """Corrupt the first ciphertext: flip the second-highest bit of its body.

    That adds q/4 to the phase, which moves the message by p/2; the top
    bit alone would only toggle the padding bit, which decoding ignores.
    """
    ciphertexts[0].body ^= 1 << (params.q_bits - 2)


def _model_metrics(result: Result, rng: np.random.Generator, params: str) -> None:
    """Price the stream's first batches on the Strix cluster model.

    Sizes alternate between the device and the core batch, and arrivals
    are seeded, so the figures depend on the seed and never on host speed.
    """
    now = 0.0
    trace = []
    for index, size in zip(range(MODEL_BATCHES), itertools.cycle(BATCH_SIZES)):
        now += float(rng.exponential(1.0 / MODEL_BATCH_RATE))
        trace.append(Request.make(index + 1, "client", "bootstrap", size, arrival_s=now))
    report = Server(devices=4, params=params).simulate(trace, label="pbs-model")
    metrics = report.metrics
    result.put("model_latency_ms_p50", metrics.latency.p50_s * 1e3, "ms")
    result.put("model_latency_ms_p99", metrics.latency.p99_s * 1e3, "ms")
    result.put("model_goodput_rps", metrics.requests_per_s, "req/s")


def _setup(seed: int, params: str) -> tuple[Session, float]:
    """Keygen plus a one-ciphertext warm-up bootstrap; median of repeats."""
    times = []
    session = None
    clock = ReferenceClock()
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        session = Session(params, seed=seed * 7919 + repeat, kernels="vectorized")
        session.generate_server_keys()
        warm = session.encrypt_batch([0])
        session.bootstrap_batch(warm, lambda m: m)
        times.append(clock.scale(time.perf_counter() - started))
    return session, median(times)


def run(seed: int, seconds: float, trace: bool, size: str = "full", corrupt: str | None = None) -> Result:
    params = "I" if size == "full" else "TOY"
    result = Result()
    session, setup_s = _setup(seed, params)
    modulus = session.params.message_modulus
    rng = np.random.default_rng(seed)
    result.put("setup_s", setup_s, "s")
    _model_metrics(result, np.random.default_rng(seed + 1), params)

    spans = SpanLog() if trace else None
    # Untraced runs follow ``STREAM``.  The traced run alternates
    # 8-ciphertext batches run one-shot ("plain") and as the spanned stage
    # chain ("staged"), so both see the same host conditions; its first
    # staged batches are re-run one-shot right away, for the bit-equality
    # and span-coverage checks.
    phases = itertools.cycle(("plain", "staged") if trace else ("plain",))
    deadline = Deadline(seconds * 2 / 3 if trace else seconds)
    clock = ReferenceClock()
    sizes = itertools.cycle((8,) if trace else STREAM)
    latencies = {8: [], 64: []}
    # The same walls at the reference speed, for the host figures.
    scaled = {8: [], 64: []}
    per_pbs = {"plain": [], "staged": []}
    encrypt_s, decrypt_s, cts = 0.0, 0.0, 0
    last_check = None
    stage_rows = []
    one_shot_s = []
    done = 0
    while True:
        batch_size, phase = next(sizes), next(phases)
        # Start a batch only if the last one of its size would still fit
        # in the window (every size and phase runs at least once).
        previous = latencies[batch_size]
        if done >= 4 and previous[-1] > deadline.left():
            break
        messages = rng.integers(0, modulus, size=batch_size)
        table, function = _lut(rng, modulus)
        started = time.perf_counter()
        ciphertexts = session.encrypt_batch(messages.tolist())
        encrypted = time.perf_counter()
        if phase == "plain":
            outputs = session.bootstrap_batch(ciphertexts, function)
        else:
            top = spans.begin("tfhe.pbs")
            switched, iterations = staged_chain(
                LweBatch.from_ciphertexts(ciphertexts), function, session, spans
            )
            spans.end(top)
            outputs = switched.to_ciphertexts()
        bootstrapped = time.perf_counter()
        if corrupt == "flip":
            _flip_bit(outputs, session.params)
        decoded = session.decrypt_batch(outputs)
        finished = time.perf_counter()
        result.attempted += batch_size
        wrong = int(np.count_nonzero(np.asarray(decoded) != table[messages]))
        result.failed += wrong
        result.check("decrypt_equals_lut", wrong == 0)
        wall = finished - started
        latencies[batch_size].append(wall)
        scaled[batch_size].append(clock.scale(wall))
        per_pbs[phase].append(wall / batch_size)
        if phase == "staged":
            encrypt_s += encrypted - started
            decrypt_s += finished - bootstrapped
            cts += batch_size
            stage_rows.append((iterations, top))
            if len(one_shot_s) < CHECKED_BATCHES:
                bsk, ksk = _keys(session)
                started = time.perf_counter()
                reference = batch_programmable_bootstrap(
                    LweBatch.from_ciphertexts(ciphertexts), function, bsk,
                    session.params, ksk,
                )
                one_shot_s.append(time.perf_counter() - started)
                result.check(
                    "staged_chain_bit_equal", _same(switched, reference.ciphertexts)
                )
        elif batch_size == 8:
            last_check = (ciphertexts, function, outputs)
        done += 1

    # The staged chain must be bit-equal to the one-shot kernel.
    if not trace:
        ciphertexts, function, outputs = last_check
        staged, _ = staged_chain(LweBatch.from_ciphertexts(ciphertexts), function, session, None)
        result.check(
            "staged_chain_bit_equal", _same(staged, LweBatch.from_ciphertexts(outputs))
        )

    result.put("served_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.notes.append(clock.note())
    if trace:
        _layer_metrics(result, session, spans, stage_rows, one_shot_s, per_pbs, encrypt_s, decrypt_s, cts)
        result.spans = spans
        return result
    # Host figures are at the reference speed (see ``ReferenceClock``).  The
    # stream's throughput is one ``STREAM`` cycle of batches, each at the
    # mean wall of its size over the run, so where the window cut the cycle
    # does not matter.
    typical = {size: sum(walls) / len(walls) for size, walls in scaled.items()}
    cycle_s = sum(typical[size] for size in STREAM)
    result.put("pbs_per_s", sum(STREAM) / cycle_s, "PBS/s")
    result.put("host_requests_per_s", len(STREAM) / cycle_s, "req/s")
    result.put("live_max_rps_at_slo", len(STREAM) / cycle_s, "req/s")
    result.put("pbs_latency_ms_p50", median(scaled[8]) * 1e3, "ms")
    # Per ciphertext over one cycle: 64 of its 88 ciphertexts sit in the
    # core batch, so both percentiles read its latency.
    per_ct = [typical[size] for size in STREAM for _ in range(size)]
    result.put("live_latency_ms_p50", pct(per_ct, 50) * 1e3, "ms")
    result.put("live_latency_ms_p99", pct(per_ct, 99) * 1e3, "ms")
    return result


def _time_call(call, repeats: int) -> float:
    """Median seconds of ``repeats`` calls of ``call``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return median(samples)


def _layer_metrics(result, session, spans, stage_rows, one_shot_s, per_pbs, encrypt_s, decrypt_s, cts):
    params = session.params
    totals = spans.totals()
    batches = len(stage_rows)
    for name in ("modswitch", "test_vector", "blind_rotate", "sample_extract", "keyswitch"):
        result.put(f"tfhe.{name}_ms", totals[f"tfhe.{name}"][1] / batches * 1e3, "ms")
    iterations = sum(row[0] for row in stage_rows) / batches
    result.put("tfhe.br_iterations", iterations, "count")
    # Per batch, the stage spans (children of the batch's ``tfhe.pbs``
    # span) must sum to the one-shot kernel's wall on the same batch.
    coverage = median([
        spans.children_s(row[1]) / one_shot for row, one_shot in zip(stage_rows, one_shot_s)
    ])
    result.put("tfhe.stage_coverage", coverage, "ratio")
    result.check("stage_spans_cover_one_shot", abs(coverage - 1.0) <= STAGE_SLACK)
    result.put("runtime.encrypt_us_per_ct", encrypt_s / cts * 1e6, "us")
    result.put("runtime.decrypt_us_per_ct", decrypt_s / cts * 1e6, "us")

    # Standalone kernels at the blind-rotate shapes of an 8-ciphertext batch.
    rng = np.random.default_rng(0)
    batch = 8
    diff = rng.integers(0, params.q, size=(batch, params.k + 1, params.N), dtype=np.int64)
    transform = get_transform(params.N)
    decompose = _time_call(
        lambda: decompose_rows(diff, params.lb, params.log2_base_pbs, params.q_bits), 50
    )
    digits = decompose_rows(diff, params.lb, params.log2_base_pbs, params.q_bits).reshape(
        batch, (params.k + 1) * params.lb, params.N
    )
    forward = _time_call(lambda: transform.forward(digits), 50)
    spectra = transform.forward(digits)
    key_spectra = session.generate_server_keys().bootstrapping_key[0].spectra
    accumulated = np.einsum("brf,rcf->bcf", spectra, key_spectra)
    inverse = _time_call(lambda: transform.inverse(accumulated), 50)
    result.put("tfhe.decompose_us_per_call", decompose * 1e6, "us")
    result.put("fft.forward_us_per_call", forward * 1e6, "us")
    result.put("fft.inverse_us_per_call", inverse * 1e6, "us")
    blind_rotate_s = totals["tfhe.blind_rotate"][1] / batches
    result.put(
        "fft.share_of_blind_rotate", iterations * (forward + inverse) / blind_rotate_s, "ratio"
    )
    result.put("bench.trace_overhead_ratio", median(per_pbs["staged"]) / median(per_pbs["plain"]), "ratio")
