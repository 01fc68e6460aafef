"""Tests for the deployment builder and the one driver that runs it."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.calibration import CalibrationProfile
from repro.runtime.deployment import PROTOCOLS, DeploymentSpec, build_deployment
from repro.runtime.live import build_live_deployment
from repro.runtime.run import RunResult, run

MS = 1_000_000


class TestDeploymentBuilder:
    def test_hybster_s_is_single_pillar(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=2))
        assert all(len(replica.pillars) == 1 for replica in deployment.replicas)
        assert len(deployment.replicas) == 3

    def test_hybster_x_one_pillar_per_core(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-x", cores=4, num_clients=2))
        assert all(len(replica.pillars) == 4 for replica in deployment.replicas)

    def test_pbft_uses_four_replicas(self):
        deployment = build_deployment(DeploymentSpec(protocol="pbft", num_clients=2))
        assert len(deployment.replicas) == 4

    def test_minbft_single_thread(self):
        deployment = build_deployment(DeploymentSpec(protocol="minbft", num_clients=2))
        assert len(deployment.replicas) == 3
        assert all(len(replica.machine.threads) == 1 for replica in deployment.replicas)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_deployment(DeploymentSpec(protocol="raft"))

    def test_unknown_service_rejected(self):
        with pytest.raises(ConfigurationError):
            build_deployment(DeploymentSpec(service="mysql"))

    def test_clients_spread_over_machines(self):
        deployment = build_deployment(DeploymentSpec(num_clients=10, client_machines=2))
        nodes = {client.endpoint.node for client in deployment.clients}
        assert nodes == {"clients0", "clients1"}

    def test_calibration_applied_to_stages(self):
        calibration = CalibrationProfile(send_cost_ns=9_999)
        deployment = build_deployment(
            DeploymentSpec(protocol="hybster-s", num_clients=2, calibration=calibration)
        )
        pillar = deployment.replicas[0].pillars[0]
        assert pillar.send_cost_ns == 9_999

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_builds_and_runs(self, protocol):
        deployment = build_deployment(
            DeploymentSpec(protocol=protocol, num_clients=4, client_window=2)
        )
        result = run(deployment, warmup_ns=10 * MS, duration_ns=20 * MS)
        assert result.completed > 0
        assert result.throughput_ops > 0


class TestBenchmarkHarness:
    def test_measurement_excludes_warmup(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=4))
        result = run(deployment, warmup_ns=20 * MS, duration_ns=30 * MS)
        assert result.elapsed_ns == 30 * MS
        # completions during warmup are not counted
        assert result.completed < deployment.total_completed()

    def test_latency_collected_fresh(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=4))
        result = run(deployment, warmup_ns=10 * MS, duration_ns=20 * MS)
        assert result.latency.count == result.completed

    def test_utilization_and_network_reported(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=8))
        result = run(deployment, warmup_ns=10 * MS, duration_ns=20 * MS)
        assert 0 < result.replica_cpu_utilization <= 1
        assert result.bytes_sent > 0
        assert len(result.replica_stats) == 3

    def test_result_renders(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=2))
        result = run(deployment, warmup_ns=10 * MS, duration_ns=10 * MS)
        text = str(result)
        assert "hybster-s" in text and "ops/s" in text

    @pytest.mark.parametrize("builder", [build_deployment, build_live_deployment],
                             ids=["sim", "live"])
    def test_one_driver_runs_both_modes_to_a_request_target(self, builder):
        spec = DeploymentSpec(
            protocol="hybster-s", cores=2, service="counter", num_clients=2,
            client_window=2, client_machines=1, seed=5,
        )
        result = run(builder(spec), duration_ns=30_000 * MS, requests=50)
        assert result.mode == ("sim" if builder is build_deployment else "live")
        assert result.completed >= 50
        assert result.latency.count == result.completed
        assert len(result.state_digests) == 3 and not result.diverged
        assert result.bytes_sent > 0

    def test_result_round_trips_through_json(self):
        deployment = build_deployment(DeploymentSpec(protocol="hybster-s", num_clients=4))
        result = run(deployment, duration_ns=20 * MS)
        again = RunResult.from_json(result.to_json())
        assert again.to_json() == result.to_json()
        merged = RunResult(protocol="hybster-s", mode="sim")
        merged.merge(result)
        merged.merge(again)
        assert merged.completed == 2 * result.completed
        assert merged.latency.count == 2 * result.latency.count
        assert merged.elapsed_ns == result.elapsed_ns


class TestReportRendering:
    def test_figure_result_render(self):
        from repro.experiments.report import FigureResult, Series

        result = FigureResult("figX", "Title", "cores", "kops/s")
        series = result.add_series(Series("A"))
        series.add(1, 10.0)
        series.add(4, 40.0)
        result.paper_reference["A @4"] = 42
        result.notes.append("shape holds")
        text = result.render()
        assert "figX" in text and "A @4=42" in text and "shape holds" in text

    def test_series_helpers(self):
        from repro.experiments.report import Series

        series = Series("s", [(1, 5.0), (2, 9.0)])
        assert series.value_at(2) == 9.0
        assert series.value_at(3) is None
        assert series.peak == 9.0
        assert series.final == 9.0

    def test_missing_series_raises(self):
        from repro.experiments.report import FigureResult

        with pytest.raises(KeyError):
            FigureResult("f", "t", "x", "y").series_by_label("nope")
