"""Golden traces: the modelled protocol behaviour, pinned byte for byte.

Each case runs a short fixed-seed simulation with a small checkpoint
interval (so checkpoints become stable and the window advances) and
hashes the ``Tracer`` JSONL.  Trace records carry modelled timestamps,
so a changed message, certificate, enclave call or charged cost shows up
as a different digest.  A refactor of the ordering layer that claims
"model unchanged" must keep every pin; a deliberate model change
regenerates them (``python tests/test_protocol_golden_traces.py`` prints
the current digests) and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos import LossRate, Partition
from repro.clients.workload import KeyValueWorkload
from repro.runtime.deployment import DeploymentSpec, build_deployment
from repro.runtime.run import run
from repro.sim.tracing import Tracer

MS = 1_000_000


def _kv(client_id: str, index: int) -> KeyValueWorkload:
    return KeyValueWorkload(client_id, keys=8, seed=index)


# name -> (spec overrides, simulated run ms, fault)
CASES = {
    "hybster-s": (dict(protocol="hybster-s", cores=2), 40, None),
    "hybster-x-rotation": (dict(protocol="hybster-x", cores=4, rotation=True), 30, None),
    "pbft": (dict(protocol="pbft", cores=4), 30, None),
    "hybrid-pbft": (dict(protocol="hybrid-pbft", cores=4), 30, None),
    "minbft": (dict(protocol="minbft", cores=1), 40, None),
    # PBFTcop stalls about 37 ms into this run (one replica's state
    # transfer, then an instance the leader never completes); the pin
    # covers its checkpoint, fill-gap and fetch path up to there
    "pbft-loss": (dict(protocol="pbft", cores=2), 120, "loss"),
    "hybster-s-leader-crash": (dict(protocol="hybster-s", cores=2), 700, "crash"),
}

GOLDEN = {
    "hybster-s": "01a17bae79ffff0a7629de2a1ff041ff986194654884ce8851e3192383de1e43",
    "hybster-x-rotation": "d5f210c4be8ad45f03c92e8d061bdfe7123df3bd7f8a4141161b6d5df24eddf5",
    "pbft": "7f406924ba5b17656562ab113a63b767e05f793c0610affb40577a6fd2f6ce64",
    "hybrid-pbft": "b52a420ac95fe90ddecc33ad66c92bc5170e91e225f795da39641908dd7360b1",
    "minbft": "eefac4b9a4f0d7434fb85cc66f010b565031e03d1a65d3349679d1da0310d7fa",
    "pbft-loss": "fe0dfd6db8880ed70f6ae8a678ab376bf9abfec328115f73fbdd0419588c3ae4",
    "hybster-s-leader-crash": "0a3d896fdd51c96a92027001d88c6ad7d36c7790097fa06d61c49511af4dcf7a",
}


def trace_digest(name: str, tmp_dir) -> str:
    overrides, run_ms, fault = CASES[name]
    spec = DeploymentSpec(
        service="kv",
        workload_factory=_kv,
        num_clients=6,
        client_window=2,
        batch_size=2,
        checkpoint_interval=8,
        window_size=32,
        seed=7,
        **overrides,
    )
    tracer = Tracer()
    deployment = build_deployment(spec, tracer=tracer)
    if fault == "loss":
        deployment.network.add_filter(LossRate(0.02, seed=11))
    elif fault == "crash":
        deployment.network.add_filter(Partition({"r0"}, start_ns=20 * MS))
    run(deployment, duration_ns=run_ms * MS)
    path = tmp_dir / f"{name}.jsonl"
    tracer.write_jsonl(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, tmp_path):
    assert trace_digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regenerates the pins
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": "{trace_digest(case, pathlib.Path(tmp))}",')
