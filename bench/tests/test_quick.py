"""The command itself, at --quick length: every workload runs, passes its
checks, and emits exactly the metrics BENCHMARK.json declares."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import sim

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
QUICK_SECONDS = 2
# one traced run per kind of deployment covers every per-layer metric
TRACED = ("live_unbatched", "gateway_openloop", "sim_leader_crash")
# counters of things that must not happen read 0 in a healthy run
ZERO_WHEN_HEALTHY = {
    "net.send_queue_drops", "net.decode_errors", "net.reconnects", "gateway.shed",
    "gateway.timeouts", "gateway.failed", "gateway.max_queue_depth", "runtime.handler_errors",
    "scenarios.safety_violations",
}


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "4", "--seconds",
         str(QUICK_SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick():
    contract = _contract()
    untraced = {entry["name"]: _run(entry["name"], 0) for entry in contract["workloads"]}
    traced = {name: _run(name, 1) for name in TRACED}
    return contract, untraced, traced


def test_benchmark_json_is_well_formed():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"] and contract["command"][-1] == "bench/run.py"
    assert 2 <= len(contract["workloads"]) <= 8 and len(contract["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in contract["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in contract["end_to_end"])
    # the driver's 114 runs must fit its cap: a live run costs its window, 2 s of
    # warm-up, five set-up probes and the drain; a sim run less than --seconds
    seconds = contract["run_seconds"]
    live = sum(1 for entry in contract["workloads"] if not entry["name"].startswith("sim_"))
    sims = len(contract["workloads"]) - live
    per_run = (live * (seconds + 6) + sims * seconds) / len(contract["workloads"])
    assert (4 + 22 * len(contract["workloads"])) * per_run <= 3420


def test_quick_runs_pass_and_emit_every_end_to_end_metric(quick):
    contract, untraced, _traced = quick
    declared = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    for workload, result in untraced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, workload
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(metric["value"] > 0 for metric in result["metrics"].values()), workload


def test_every_declared_per_layer_metric_is_measured_by_some_workload(quick):
    contract, _untraced, traced = quick
    declared = {entry["name"] for entry in contract["per_layer"]}
    measured = set()
    for workload, result in traced.items():
        assert result["correct"], workload
        assert set(result["metrics"]) == declared
        measured |= {name for name, metric in result["metrics"].items() if metric["value"] != 0}
    assert declared - measured <= ZERO_WHEN_HEALTHY
    # the microbenchmark pass runs once, in the traced run of live_unbatched
    assert traced["live_unbatched"]["metrics"]["wire.encode_ns.request"]["value"] > 0
    assert traced["gateway_openloop"]["metrics"]["wire.encode_ns.request"]["value"] == 0


def test_traced_ledger_sums_to_the_time_per_request(quick):
    _contract_, _untraced, traced = quick
    metrics = {name: m["value"] for name, m in traced["sim_leader_crash"]["metrics"].items()}
    ledger = sum(value for name, value in metrics.items()
                 if name.startswith("trace.") and name.endswith("_us_per_op"))
    # the whole traced scenario run is one window: the ledger is its host time per request
    assert ledger == pytest.approx(metrics["sim.host_us_per_op"], rel=0.02)


def test_tracing_does_not_move_the_model(quick):
    _contract_, untraced, traced = quick
    plain = untraced["sim_leader_crash"]["metrics"]
    spans_on = traced["sim_leader_crash"]["metrics"]
    assert plain["throughput_ops"]["value"] == spans_on["model.throughput_ops"]["value"]
    assert plain["latency_p50_ms"]["value"] == spans_on["model.latency_p50_ms"]["value"]
    assert spans_on["core.unavailable_ms"]["value"] > 500


def test_two_tiny_sim_runs_give_identical_modelled_numbers():
    first, again, other = (sim.run_fig5a(seed, QUICK_SECONDS, None) for seed in (9, 9, 10))
    modelled = ("throughput_ops", "latency_p50_ms", "latency_p99_ms")
    assert [first.end_to_end[m] for m in modelled] == [again.end_to_end[m] for m in modelled]
    assert [first.end_to_end[m] for m in modelled] != [other.end_to_end[m] for m in modelled]
    model_layer = {k: v for k, v in first.per_layer.items() if k.startswith(("model.", "sim.events_per_op"))}
    assert model_layer == {k: again.per_layer[k] for k in model_layer}


def test_it_refuses_to_run_where_the_program_is_missing(tmp_path):
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_fig5a", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0 and "{" not in done.stdout
