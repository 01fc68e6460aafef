"""Deployments and the one driver that runs them.

This layer reproduces the paper's testbed (§6, "Setup"): six machines
with quad-core i7-6700 CPUs (Hyper-Threading on, Turbo Boost off) on
switched gigabit Ethernet — 3 or 4 replica machines depending on the
protocol plus two client machines — and the measurement methodology
(saturating clients with bounded asynchronous request windows, average
latency/throughput over a measurement interval after warm-up).

One assembly, two substrates: :func:`~repro.runtime.deployment.assemble`
builds the cluster, :func:`build_deployment` on the simulator and
:func:`repro.runtime.live.build_live_deployment` on asyncio over
localhost TCP, and :func:`run` drives either one to a
:class:`RunResult`.
"""

from repro.runtime.calibration import CalibrationProfile, DEFAULT_CALIBRATION
from repro.runtime.deployment import Deployment, DeploymentSpec, build_deployment
from repro.runtime.run import RunResult, run, run_async

__all__ = [
    "CalibrationProfile",
    "DEFAULT_CALIBRATION",
    "Deployment",
    "DeploymentSpec",
    "build_deployment",
    "RunResult",
    "run",
    "run_async",
]
