"""Client-multiplexing gateway tier (the serving front door).

A gateway terminates many *logical* client sessions and funnels their
requests over a small set of shared protocol connections to the replica
group, the way real coordination services sit behind connection-pooling
proxies rather than giving every application thread its own TCP link.
Load is *open-loop*: arrivals come from a :mod:`repro.loadgen` process
and do not wait for previous completions, so overload manifests as
queueing, shedding, and timeouts instead of silently slowing the
offered rate.

Pieces:

* :class:`~repro.gateway.config.GatewayConfig` — sessions, arrival
  process, admission queue, in-flight window, read leases, pooling;
* :class:`~repro.gateway.gateway.GatewayStage` — the stage that runs on
  a gateway node (sim and live share it, like every other stage);
* :mod:`~repro.gateway.cli` — the ``repro-gateway`` entry point.

A deployment whose spec carries a ``GatewayConfig`` runs through the one
driver, :func:`repro.runtime.run.run`, whose result then holds the
gateways' :class:`~repro.loadgen.slo.SLOReport`.
"""

from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import GatewaySession, GatewayStage, GatewayStats

__all__ = [
    "GatewayConfig",
    "GatewaySession",
    "GatewayStage",
    "GatewayStats",
]
