"""Tests for the scenario engine: spec loading, safety checking, execution."""

from __future__ import annotations

import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    FaultSpec,
    PassCriteria,
    ScenarioSpec,
    check_safety,
    load_scenario,
    load_scenarios,
    run_scenario,
)
from repro.sim.tracing import Tracer


# ----------------------------------------------------------------------
# Spec loading
# ----------------------------------------------------------------------
def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_load_scenario_parses_full_spec(tmp_path):
    path = _write(
        tmp_path,
        "demo.toml",
        """
        name = "demo"
        description = "a demo"
        mode = "sim"
        tags = ["smoke"]

        [deployment]
        protocol = "hybster-s"
        service = "kv"
        num_clients = 2

        [workload]
        kind = "kv"
        keys = 4

        [run]
        duration_ms = 50
        seed = 9
        trinx_verification = false

        [[faults]]
        kind = "loss"
        rate = 0.1
        end_ms = 30

        [[faults]]
        kind = "partition"
        nodes = ["r2"]
        start_ms = 10
        end_ms = 20

        [pass]
        min_completed = 5
        expect_safety_violation = true
        """,
    )
    spec = load_scenario(path)
    assert spec.name == "demo"
    assert spec.mode == "sim"
    assert spec.tags == ("smoke",)
    assert spec.duration_ms == 50
    assert spec.seed == 9
    assert not spec.trinx_verification
    assert [fault.kind for fault in spec.faults] == ["loss", "partition"]
    assert spec.criteria.min_completed == 5
    assert spec.criteria.expect_safety_violation

    deployment = spec.deployment_spec()
    assert deployment.protocol == "hybster-s"
    assert deployment.seed == 9
    assert deployment.workload_factory is not None

    filters = spec.build_filters()
    assert len(filters) == 2
    # same seed -> identical chaos schedule, bit for bit
    rebuilt = spec.build_filters()[0]
    a = [filters[0].decide("r0", "r1", None, 0, 0).drop for _ in range(32)]
    b = [rebuilt.decide("r0", "r1", None, 0, 0).drop for _ in range(32)]
    assert a == b


def test_load_scenario_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigurationError):
        load_scenario(_write(tmp_path, "a.toml", 'mode = "teleport"\n'))
    with pytest.raises(ConfigurationError):
        load_scenario(
            _write(tmp_path, "b.toml", '[deployment]\nprotocol = "raft"\n')
        )
    with pytest.raises(ConfigurationError):
        load_scenario(
            _write(tmp_path, "c.toml", '[deployment]\nwarp_factor = 9\n')
        )
    with pytest.raises(ConfigurationError):
        load_scenario(
            _write(tmp_path, "d.toml", '[[faults]]\nkind = "gremlins"\n')
        )
    with pytest.raises(ConfigurationError):
        # a partition without nodes fails at filter-build time
        load_scenario(
            _write(tmp_path, "e.toml", '[[faults]]\nkind = "partition"\n')
        ).build_filters()


def test_load_scenarios_reads_a_directory(tmp_path):
    _write(tmp_path, "one.toml", 'name = "one"\n')
    _write(tmp_path, "two.toml", 'name = "two"\n')
    _write(tmp_path, "ignored.txt", "not a scenario")
    specs = load_scenarios(str(tmp_path))
    assert [spec.name for spec in specs] == ["one", "two"]


def test_repo_scenario_matrix_is_well_formed():
    import os

    directory = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    specs = load_scenarios(directory)
    assert len(specs) >= 12, "the shipped matrix must stay >= 12 scenarios"
    protocols = {spec.deployment.get("protocol") for spec in specs}
    assert len(protocols) >= 2
    fault_kinds = {fault.kind for spec in specs for fault in spec.faults}
    assert {"loss", "partition", "crash", "equivocate"} <= fault_kinds
    assert {spec.mode for spec in specs} == {"sim", "live"}
    smoke = [spec for spec in specs if "smoke" in spec.tags]
    assert len(smoke) >= 4
    for spec in specs:  # every fault schedule must instantiate
        assert len(spec.build_filters()) == len(spec.faults)


# ----------------------------------------------------------------------
# Safety checker
# ----------------------------------------------------------------------
def _tracer(records):
    tracer = Tracer(enabled=True)
    for time_ns, node, category, detail in records:
        tracer.emit(time_ns, node, category, detail)
    return tracer


def test_agreement_passes_on_identical_executions():
    report = check_safety(
        _tracer(
            [
                (10, "r0/exec", "execute", (0, 1, "abcd", [["c", 1]])),
                (11, "r1/exec", "execute", (0, 1, "abcd", [["c", 1]])),
                (12, "r2/exec", "execute", (0, 1, "abcd", [["c", 1]])),
            ]
        )
    )
    assert report.ok
    assert report.orders_checked == 1


def test_agreement_flags_divergent_batch_content():
    report = check_safety(
        _tracer(
            [
                (10, "r0/exec", "execute", (0, 7, "aaaa", [["c", 1]])),
                (11, "r1/exec", "execute", (0, 7, "bbbb", [["c", 1]])),
            ]
        )
    )
    assert not report.ok
    assert report.violations[0].kind == "agreement"
    assert "order 7" in report.violations[0].detail


def test_double_execution_flagged_across_orders():
    # the same request landing at two order numbers applies it twice —
    # exactly what a view change re-proposing a half-assembled batch
    # must never produce
    report = check_safety(
        _tracer(
            [
                (10, "r0/exec", "execute", (0, 1, "aaaa", [["c", 1], ["c", 2]])),
                (20, "r0/exec", "execute", (0, 2, "bbbb", [["c", 2], ["c", 3]])),
            ]
        )
    )
    assert [v.kind for v in report.violations] == ["double-execution"]
    assert "order 1" in report.violations[0].detail
    assert "order 2" in report.violations[0].detail
    assert report.requests_checked == 3


def test_double_execution_tolerates_redelivered_records():
    # a merged live trace can contain the same execute record from a
    # replay or duplicated JSONL line; only a *different* order is a bug
    report = check_safety(
        _tracer(
            [
                (10, "r0/exec", "execute", (0, 1, "aaaa", [["c", 1]])),
                (11, "r0/exec", "execute", (0, 1, "aaaa", [["c", 1]])),
                (12, "r1/exec", "execute", (0, 1, "aaaa", [["c", 1]])),
            ]
        )
    )
    assert report.ok
    assert report.requests_checked == 2  # one per (replica, request)


def test_counter_monotonicity_flags_reuse_and_decrease():
    ok = check_safety(
        _tracer(
            [
                (1, "r0/pillar0", "counter-cert", (0, 1)),
                (2, "r0/pillar0", "counter-cert", (0, 2)),
                (3, "r1/pillar0", "counter-cert", (0, 1)),  # distinct node: fine
                (4, "r0/pillar1", "counter-cert", (1, 1)),  # distinct counter: fine
            ]
        )
    )
    assert ok.ok
    assert ok.certificates_checked == 4

    reuse = check_safety(
        _tracer(
            [
                (1, "r0/pillar0", "counter-cert", (0, 5)),
                (2, "r0/pillar0", "counter-cert", (0, 5)),
            ]
        )
    )
    assert [v.kind for v in reuse.violations] == ["counter"]

    decrease = check_safety(
        _tracer(
            [
                (1, "r0/pillar0", "counter-cert", (0, 5)),
                (2, "r0/pillar0", "counter-cert", (0, 3)),
            ]
        )
    )
    assert [v.kind for v in decrease.violations] == ["counter"]


def test_linearizability_accepts_a_legal_history():
    report = check_safety(
        _tracer(
            [
                (0, "clients0/c0", "client-invoke", ("a", 0, ("put", "k", 1))),
                (10, "clients0/c0", "client-complete", ("a", 0, ("put", "k", 1), None)),
                (20, "clients0/c1", "client-invoke", ("b", 0, ("get", "k"))),
                (30, "clients0/c1", "client-complete", ("b", 0, ("get", "k"), 1)),
            ]
        )
    )
    assert report.ok
    assert report.reads_checked == 1


def test_linearizability_flags_lost_update():
    # the put completed before the get began, yet the get saw the old value
    report = check_safety(
        _tracer(
            [
                (0, "clients0/c0", "client-invoke", ("a", 0, ("put", "k", 1))),
                (10, "clients0/c0", "client-complete", ("a", 0, ("put", "k", 1), None)),
                (20, "clients0/c1", "client-invoke", ("b", 0, ("get", "k"))),
                (30, "clients0/c1", "client-complete", ("b", 0, ("get", "k"), None)),
            ]
        )
    )
    assert [v.kind for v in report.violations] == ["linearizability"]


def test_linearizability_flags_stale_and_phantom_reads():
    stale = check_safety(
        _tracer(
            [
                (0, "x", "client-invoke", ("a", 0, ("put", "k", 1))),
                (10, "x", "client-complete", ("a", 0, ("put", "k", 1), None)),
                (20, "x", "client-invoke", ("a", 1, ("put", "k", 2))),
                (30, "x", "client-complete", ("a", 1, ("put", "k", 2), None)),
                (40, "y", "client-invoke", ("b", 0, ("get", "k"))),
                (50, "y", "client-complete", ("b", 0, ("get", "k"), 1)),  # overwritten
            ]
        )
    )
    assert [v.kind for v in stale.violations] == ["linearizability"]

    phantom = check_safety(
        _tracer(
            [
                (0, "y", "client-invoke", ("b", 0, ("get", "k"))),
                (10, "y", "client-complete", ("b", 0, ("get", "k"), 777)),
            ]
        )
    )
    assert [v.kind for v in phantom.violations] == ["linearizability"]
    assert "phantom" in phantom.violations[0].detail


def test_linearizability_tolerates_concurrent_and_pending_puts():
    report = check_safety(
        _tracer(
            [
                # a put that never completed may still have taken effect
                (0, "x", "client-invoke", ("a", 0, ("put", "k", 1))),
                (5, "y", "client-invoke", ("b", 0, ("get", "k"))),
                (15, "y", "client-complete", ("b", 0, ("get", "k"), 1)),
            ]
        )
    )
    assert report.ok


def test_checker_normalizes_jsonl_round_trip(tmp_path):
    tracer = _tracer(
        [
            (10, "r0/exec", "execute", (0, 1, "aaaa", [["c", 1]])),
            (11, "r1/exec", "execute", (0, 1, "bbbb", [["c", 1]])),
            (12, "x", "client-invoke", ("a", 0, ("put", "k", 1))),
            (13, "x", "client-complete", ("a", 0, ("put", "k", 1), None)),
        ]
    )
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    loaded = Tracer.load_jsonl(str(path))  # details become JSON lists
    report = check_safety(loaded)
    assert [v.kind for v in report.violations] == ["agreement"]


# ----------------------------------------------------------------------
# Engine (small fast sim runs)
# ----------------------------------------------------------------------
def _mini_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="mini",
        mode="sim",
        deployment={
            "protocol": "hybster-s",
            "service": "kv",
            "cores": 2,
            "num_clients": 2,
            "client_window": 2,
            "checkpoint_interval": 32,
        },
        workload={"kind": "kv", "keys": 4},
        duration_ms=120,
        seed=3,
        criteria=PassCriteria(min_completed=20),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_engine_runs_fault_free_sim_scenario():
    result = run_scenario(_mini_spec())
    assert result.verdict == "PASS", result.failures
    assert result.completed >= 20
    assert result.safety.ok
    assert result.safety.orders_checked > 0
    assert result.safety.certificates_checked > 0
    assert result.safety.reads_checked > 0


def test_engine_reports_an_unknown_crypto_profile_as_a_scenario_error():
    spec = _mini_spec()
    result = run_scenario(_mini_spec(deployment={**spec.deployment, "crypto_profile": "rot13"}))
    assert result.verdict == "ERROR"
    assert "crypto profile" in result.error


def test_engine_applies_chaos_and_reports_counters():
    result = run_scenario(
        _mini_spec(
            faults=[FaultSpec("loss", {"rate": 0.05, "end_ms": 80})],
            criteria=PassCriteria(min_completed=5),
        )
    )
    assert result.verdict == "PASS", result.failures
    assert result.chaos_dropped > 0


def test_engine_is_deterministic_for_a_seed():
    first = run_scenario(_mini_spec(faults=[FaultSpec("loss", {"rate": 0.05})]))
    second = run_scenario(_mini_spec(faults=[FaultSpec("loss", {"rate": 0.05})]))
    assert first.completed == second.completed
    assert first.chaos_dropped == second.chaos_dropped


def test_engine_catches_equivocation_when_verification_disabled():
    spec = _mini_spec(
        trinx_verification=False,
        faults=[
            FaultSpec(
                "equivocate",
                {
                    "source": "r0",
                    "victims": ["r1"],
                    "forged_operation": ["put", "poison", 999],
                    "start_ms": 5,
                    "max_attempts": 2,
                },
            )
        ],
        criteria=PassCriteria(min_completed=5, expect_safety_violation=True),
    )
    result = run_scenario(spec)
    assert result.verdict == "PASS", result.failures
    assert result.chaos_injected == 2
    assert any(v.kind == "agreement" for v in result.safety.violations)


def test_engine_rejects_equivocation_when_verification_enabled():
    spec = _mini_spec(
        duration_ms=200,
        faults=[
            FaultSpec(
                "equivocate",
                {
                    "source": "r0",
                    "victims": ["r1"],
                    "forged_operation": ["put", "poison", 999],
                    "start_ms": 5,
                    "max_attempts": 2,
                },
            )
        ],
        criteria=PassCriteria(min_completed=5),
    )
    result = run_scenario(spec)
    assert result.verdict == "PASS", result.failures
    assert result.chaos_injected == 2
    assert result.safety.ok  # certificates exposed the forgery; no divergence


def test_engine_fails_when_expected_violation_does_not_happen():
    result = run_scenario(
        _mini_spec(criteria=PassCriteria(min_completed=5, expect_safety_violation=True))
    )
    assert result.verdict == "FAIL"
    assert any("expected a safety violation" in failure for failure in result.failures)


def test_engine_writes_trace_jsonl(tmp_path):
    path = tmp_path / "mini.jsonl"
    result = run_scenario(_mini_spec(), trace_out=str(path))
    assert result.passed
    loaded = Tracer.load_jsonl(str(path))
    assert check_safety(loaded).ok
    assert any(record.category == "execute" for record in loaded.records)

# ----------------------------------------------------------------------
# Leader crash forcing a view change mid-batch
# ----------------------------------------------------------------------
def _leader_crash_spec():
    import dataclasses
    import os

    path = os.path.join(
        os.path.dirname(__file__),
        "..",
        "scenarios",
        "sim-hybster-s-leader-crash-viewchange.toml",
    )
    spec = load_scenario(path)
    # the shipped scenario runs 1.8 s of sim time; shrink the load and
    # duration for the test while keeping the crash/suspicion timeline
    # (crash at 100 ms, client retry at ~500 ms, suspicion at ~650 ms)
    return dataclasses.replace(
        spec,
        deployment={**spec.deployment, "num_clients": 2, "client_window": 1},
        duration_ms=1000,
        faults=(FaultSpec("crash", {"node": "r0", "windows_ms": [[100, 700]]}),),
        criteria=PassCriteria(min_completed=500, safety=True),
    )


def test_leader_crash_scenario_is_shipped_and_well_formed():
    spec = _leader_crash_spec()
    assert spec.deployment["protocol"] == "hybster-s"
    assert spec.deployment["batch_size"] > 1  # the crash must land mid-batch
    assert "viewchange" in load_scenario(
        __file__.replace(
            "tests/test_scenarios.py",
            "scenarios/sim-hybster-s-leader-crash-viewchange.toml",
        )
    ).tags


def test_leader_crash_forces_view_change_without_losing_batches(tmp_path):
    path = tmp_path / "leader-crash.jsonl"
    result = run_scenario(_leader_crash_spec(), trace_out=str(path))
    assert result.verdict == "PASS", result.failures

    trace = Tracer.load_jsonl(str(path))
    installed = [
        (record.node.split("/", 1)[0], int(record.detail))
        for record in trace.records
        if record.category == "view-installed"
    ]
    # both survivors elected r1 (view 1); r0 catches up after reviving
    assert ("r1", 1) in installed and ("r2", 1) in installed

    # agreement held across the view change and no batched request was
    # lost to the crash or executed at two different order numbers
    report = check_safety(trace)
    assert report.ok, str(report)
    assert report.orders_checked > 0
    assert report.requests_checked > 0

    # progress resumed under the new leader: executions exist after the
    # view change completed on the survivors
    vc_done_ns = max(
        record.time_ns
        for record in trace.records
        if record.category == "view-installed" and record.node.startswith(("r1", "r2"))
    )
    assert any(
        record.category == "execute" and record.time_ns > vc_done_ns
        for record in trace.records
    )
