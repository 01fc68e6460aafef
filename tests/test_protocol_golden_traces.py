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
from repro.sim.tracing import NULL_TRACER, Tracer

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
    # lost PRE-PREPAREs, votes and CHECKPOINTs: the pin covers PBFTcop's
    # look-ahead, state transfer, fill-gap and fetch path, its proposer's
    # 60 ms retransmission and the followers' re-sent votes
    "pbft-loss": (dict(protocol="pbft", cores=2), 120, "loss"),
    "hybster-s-leader-crash": (dict(protocol="hybster-s", cores=2), 700, "crash"),
}

GOLDEN = {
    "hybster-s": "01a17bae79ffff0a7629de2a1ff041ff986194654884ce8851e3192383de1e43",
    "hybster-x-rotation": "d5f210c4be8ad45f03c92e8d061bdfe7123df3bd7f8a4141161b6d5df24eddf5",
    "pbft": "7f406924ba5b17656562ab113a63b767e05f793c0610affb40577a6fd2f6ce64",
    "hybrid-pbft": "b52a420ac95fe90ddecc33ad66c92bc5170e91e225f795da39641908dd7360b1",
    "minbft": "eefac4b9a4f0d7434fb85cc66f010b565031e03d1a65d3349679d1da0310d7fa",
    "pbft-loss": "70628fffbba8960467eca53f52be2405b688e0d78bc36943d323a9c4bbf066b0",
    "hybster-s-leader-crash": "0a3d896fdd51c96a92027001d88c6ad7d36c7790097fa06d61c49511af4dcf7a",
}


def _deployment(name: str, tracer: Tracer = NULL_TRACER):
    overrides, _run_ms, fault = CASES[name]
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
    deployment = build_deployment(spec, tracer=tracer)
    if fault == "loss":
        deployment.network.add_filter(LossRate(0.02, seed=11))
    elif fault == "crash":
        deployment.network.add_filter(Partition({"r0"}, start_ns=20 * MS))
    return deployment


def trace_digest(name: str, tmp_dir) -> str:
    tracer = Tracer()
    run(_deployment(name, tracer), duration_ns=CASES[name][1] * MS)
    path = tmp_dir / f"{name}.jsonl"
    tracer.write_jsonl(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, tmp_path):
    assert trace_digest(name, tmp_path) == GOLDEN[name]


def test_pbft_stays_live_under_loss():
    """Requests keep completing long after the first lost COMMITs.

    A PBFTcop proposer whose instance loses its votes rebroadcasts the
    PRE-PREPARE, and followers answer with their PREPARE and COMMIT;
    without that the group stalled for good about 37 ms in (368 requests
    completed at 400 ms, 458 at 2 s).
    """
    deployment = _deployment("pbft-loss")
    deployment.start_clients()

    def completed_at(ms: int) -> int:
        deployment.sim.run(until=ms * MS)
        return sum(client.completed for client in deployment.clients)

    early = completed_at(400)
    assert completed_at(2000) >= 2 * early


if __name__ == "__main__":  # pragma: no cover - regenerates the pins
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": "{trace_digest(case, pathlib.Path(tmp))}",')
