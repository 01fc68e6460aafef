"""Percentiles, the scheduled arrival process, the due-time ledger, compare.py."""

import json
import os

import pytest

from bench import compare
from bench.openloop import NS, DueTimeLedger, Rung, ScheduledArrivals, build_schedule
from bench.live import Mark, window_metrics
from bench.stats import (
    MAX_SLICES, SLICE_SAMPLES, TooFewSamples, percentile, slice_count, spread, steady_p99,
)

MS = 1_000_000
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_percentile_is_refused_without_ten_samples_beyond_it():
    assert percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)


def _window(ops_per_slice: list[int], latency_ms: list[float]) -> dict[str, float]:
    """End-to-end metrics of a window of one-second slices on a busy CPU."""
    seconds, ops = len(ops_per_slice), sum(ops_per_slice)
    samples = [ms for count, ms in zip(ops_per_slice, latency_ms) for _ in range(count)]
    return window_metrics(Mark(0, 0, 0), Mark(seconds * NS, seconds * NS, ops), samples)


def test_a_stall_in_two_fifths_of_the_window_moves_the_whole_window_metrics():
    healthy = _window([1000] * 10, [50.0] * 10)
    # four of the ten seconds run ten times slower: a periodic checkpoint, GC, linger
    stalled = _window([1000, 100, 1000, 100, 1000, 1000, 100, 1000, 100, 1000],
                      [50.0, 500.0, 50.0, 500.0, 50.0, 50.0, 500.0, 50.0, 500.0, 50.0])
    assert healthy["throughput_ops"] == 1000.0 and healthy["cpu_us_per_op"] == 1000.0
    assert stalled["throughput_ops"] == 640.0
    assert stalled["cpu_us_per_op"] == pytest.approx(1000.0 / 0.64)
    # the median latency is over every sample: it moves once half the requests are slow
    assert _window([1000] * 10, [50.0] * 4 + [60.0] * 6)["latency_p50_ms"] == 60.0


def _slices(stalled: set[int], per_slice: int = 1000) -> list[float]:
    """A window of MAX_SLICES slices in time order; in the stalled ones a
    round of 64 outstanding requests waited out a 450 ms stall."""
    samples: list[float] = []
    for index in range(MAX_SLICES):
        slow = 64 if index in stalled else 0
        samples += [50.0] * (per_slice - slow) + [500.0] * slow
    return samples


def test_steady_p99_is_the_lower_quartile_over_slices_and_what_that_costs():
    assert steady_p99(_slices(set())) == 50.0
    # a stall that recurs in every slice, or in more than three quarters of them, moves it
    assert steady_p99(_slices(set(range(MAX_SLICES)))) == 500.0
    assert steady_p99(_slices(set(range(MAX_SLICES * 3 // 4 + 1)))) == 500.0
    # the documented blind spot: hiccups in fewer of the slices do not, although
    # together they are more than 1 % of the window
    rare = _slices(set(range(0, MAX_SLICES, 2)))
    assert steady_p99(rare) == 50.0 and percentile(rare, 99) == 500.0
    # the gateway's window: 20 slices of 250 samples, a burst of the host in six of them
    quiet = [5.0] * 240 + [15.0] * 10
    burst = [5.0] * 240 + [40.0] * 10
    assert steady_p99((quiet * 7 + burst * 3) * 2) == 15.0
    assert slice_count(5000) == MAX_SLICES and slice_count(SLICE_SAMPLES * 4) == 4
    # a window that cannot support a p99 at all is refused, like any percentile
    with pytest.raises(TooFewSamples):
        steady_p99([50.0] * 999)
    # the shortest window that can is four slices
    assert steady_p99(([50.0] * 245 + [500.0] * 5) * 4) == 500.0


def test_schedule_is_seeded_and_offers_the_same_count_for_every_seed():
    rungs = [Rung(500, 0, NS, 4 * NS), Rung(1000, 6 * NS, NS, 2 * NS)]
    first, again, other = (build_schedule(rungs, seed) for seed in (7, 7, 8))
    assert first == again != other
    assert len(first) == len(other) == 500 * 5 + 1000 * 3
    assert first == sorted(first)
    measured = [t for t in first if rungs[0].measure_start_ns <= t < rungs[0].end_ns]
    assert len(measured) == 500 * 4


def _drive(arrivals: ScheduledArrivals, stall_at_ns: int, stall_ns: int, until_ns: int):
    """A gateway's arrival loop under a fake clock: returns (fire time, due time) pairs."""
    now, fired, stalled = 0, [], False
    gap = arrivals.next_gap_ns(now)
    while True:
        now += gap
        if now >= until_ns:
            return fired
        if not stalled and now >= stall_at_ns:
            now += stall_ns  # the event loop was busy elsewhere: the timer fires late
            stalled = True
        fired.append((now, arrivals.due_ns[len(fired)]))
        gap = arrivals.next_gap_ns(now)


def test_scheduled_arrivals_catch_up_after_a_stall_and_charge_it_to_lag():
    due = build_schedule([Rung(1000, 0, 0, 2 * NS)], seed=3)
    fired = _drive(ScheduledArrivals(due), stall_at_ns=500 * MS, stall_ns=200 * MS, until_ns=2 * NS)
    lags = [at - due_at for at, due_at in fired]
    # every arrival due before the end was offered: the generator did not drift
    assert len(fired) >= len([t for t in due if t < 2 * NS]) - 1
    # the stall is visible as lag on the arrivals that were due during it ...
    assert 199 * MS <= max(lags) <= 201 * MS
    during = [lag for (at, due_at), lag in zip(fired, lags) if 500 * MS <= due_at < 700 * MS]
    assert len(during) > 150 and min(during) > 0
    # ... and is gone once the backlog has been fired off
    after = [lag for (at, due_at), lag in zip(fired, lags) if due_at >= 800 * MS]
    assert max(after) <= 1


def test_ledger_times_requests_from_the_due_time():
    arrivals = ScheduledArrivals([10 * MS, 20 * MS, 30 * MS])
    clock = {"now": 1_000 * MS}
    ledger = DueTimeLedger(arrivals, clock=lambda: clock["now"])
    arrivals.next_gap_ns(clock["now"])  # the gateway starts: origin = 1000 ms
    workloads = ledger.workload_factory(lambda client_id, index: _Null())
    session_a, session_b = workloads("gw0:gateway/s0", 0), workloads("gw0:gateway/s1", 1)

    clock["now"] = 1_210 * MS           # first arrival fires 200 ms late
    session_a.next_operation(0)
    clock["now"] = 1_211 * MS           # second arrival: shed at admission
    session_b.next_operation(0)
    ledger.tracer.emit(clock["now"], "gw0/gateway", "gateway-shed", ("gw0:gateway/s1", None))
    clock["now"] = 1_212 * MS           # third arrival, same session as the shed one
    session_b.next_operation(0)
    ledger.tracer.emit(1_215 * MS, "gw0/gateway", "client-complete", ("gw0:gateway/s0", 0, None, None))

    outcome = ledger.outcome(0, 40 * MS)
    assert (outcome.scheduled, outcome.offered, outcome.shed, outcome.unfinished) == (3, 3, 1, 1)
    assert outcome.latencies_ns == [205 * MS]        # 5 ms of service + 200 ms of stall
    assert outcome.lags_ns == [200 * MS, 191 * MS, 182 * MS]
    # the shed arrival did not consume a request id: request 0 of s1 is the third arrival
    ledger.tracer.emit(1_230 * MS, "gw0/gateway", "client-complete", ("gw0:gateway/s1", 0, None, None))
    assert ledger.outcome(0, 40 * MS).latencies_ns == [205 * MS, 200 * MS]


class _Null:
    def setup_operations(self):
        return []

    def next_operation(self, request_index):
        return None, 0


# ----------------------------------------------------------------------
def _result(**workloads):
    return {"workloads": {
        name: {"runs": [
            {"seed": seed, "attempted": 100, "failed": failed, "correct": True,
             "metrics": {metric: {"value": value, "unit": ""} for metric, value in metrics.items()}}
            for seed, (failed, metrics) in enumerate(runs, start=1)
        ]}
        for name, runs in workloads.items()
    }}


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _runs(throughputs, failed=0):
    return [(failed, {"throughput_ops": value, "latency_p50_ms": 10.0}) for value in throughputs]


def test_compare_verdicts():
    contract = _contract()
    bound = next(e["bound"] for e in contract["end_to_end"] if e["name"] == "throughput_ops")
    steady_runs = [1000, 1005, 995, 1002, 998]
    noisy_runs = [1000, 1000 * (1 + 2 * bound), 1000 * (1 - 2 * bound), 1000 * (1 + bound), 1000 * (1 - bound)]
    cases = {
        "same": (steady_runs, [v * (1 + bound / 4) for v in steady_runs], False),
        "worse": (steady_runs, [v * (1 - 1.5 * bound) for v in steady_runs], True),
        "better": (steady_runs, [v * (1 + 1.5 * bound) for v in steady_runs], False),
        "unresolved": (noisy_runs, [v * (1 + bound / 4) for v in noisy_runs], False),
    }
    for expected, (a, b, bad) in cases.items():
        rows, is_bad = compare.compare(
            _result(live_unbatched=_runs(a)), _result(live_unbatched=_runs(b)), contract
        )
        by_metric = {row[1]: row[-1] for row in rows}
        assert by_metric["throughput_ops"] == expected, expected
        assert by_metric["latency_p50_ms"] == "same"
        assert is_bad == bad


def test_compare_flags_a_higher_failed_share_and_a_changed_model():
    steady = [1000, 1005, 995]
    rows, bad = compare.compare(
        _result(live_unbatched=_runs(steady)), _result(live_unbatched=_runs(steady, failed=2)),
        _contract(),
    )
    assert bad and rows[-1][1] == "failed share"
    rows, bad = compare.compare(
        _result(sim_fig5a=_runs([164000.0])), _result(sim_fig5a=_runs([164000.5])), _contract()
    )
    assert bad and rows[0][-1] == "model changed"
    rows, bad = compare.compare(
        _result(sim_fig5a=_runs([164000.0])), _result(sim_fig5a=_runs([164000.0])), _contract()
    )
    assert not bad


def _with_traced(result: dict, workload: str, metric: str, value: float, seed: int = 1) -> dict:
    result["workloads"][workload]["traced"] = {
        "seed": seed, "metrics": {metric: {"value": value, "unit": ""}},
    }
    return result


def test_compare_gates_the_slo_rate_and_the_time_without_service_from_the_traced_runs():
    contract = _contract()

    def gate(workload, metric, a, b, seed_b=1):
        rows, bad = compare.compare(
            _with_traced(_result(**{workload: _runs([1000])}), workload, metric, a),
            _with_traced(_result(**{workload: _runs([1000])}), workload, metric, b, seed_b),
            contract,
        )
        return {row[1]: row[-1] for row in rows}[metric], bad

    assert gate("gateway_openloop", "gateway.slo_rate_ops", 600, 300) == ("worse", True)
    assert gate("gateway_openloop", "gateway.slo_rate_ops", 600, 600) == ("same", False)
    assert gate("gateway_openloop", "gateway.slo_rate_ops", 600, 1500) == ("better", False)
    assert gate("sim_leader_crash", "core.unavailable_ms", 552.2, 552.2) == ("same", False)
    assert gate("sim_leader_crash", "core.unavailable_ms", 552.2, 552.3) == ("model changed", True)
    assert gate("sim_leader_crash", "core.unavailable_ms", 552.2, 552.3, seed_b=2) == ("unresolved", False)
    # a file without a traced run is not gated
    rows, bad = compare.compare(
        _result(gateway_openloop=_runs([300])),
        _with_traced(_result(gateway_openloop=_runs([300])), "gateway_openloop", "gateway.slo_rate_ops", 300),
        contract,
    )
    assert not bad and "gateway.slo_rate_ops" not in {row[1] for row in rows}


def test_spread_is_the_interquartile_range_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
