"""Latency-SLO reporting for open-loop runs.

An open-loop run is judged the way a serving system is judged: goodput
(completions per second of *offered* traffic) and the latency tail from
arrival to completion — queueing delay included — plus how much traffic
was shed at admission or abandoned after retries.  :class:`SLOReport`
aggregates those numbers across gateways and renders them for run
summaries, ``repro-gateway --json`` reports, and scenario pass criteria;
:func:`repro.runtime.run.run` attaches one to the result of every run
with gateways.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clients.stats import LatencyStats


@dataclass
class SLOReport:
    """Aggregated outcome of one open-loop measurement interval."""

    elapsed_s: float = 0.0
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    timeouts: int = 0
    failed: int = 0
    leased_reads: int = 0
    sessions: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def offered_rate_ops(self) -> float:
        return self.offered / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def goodput_ops(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def merge(self, other: "SLOReport") -> None:
        self.offered += other.offered
        self.admitted += other.admitted
        self.shed += other.shed
        self.completed += other.completed
        self.timeouts += other.timeouts
        self.failed += other.failed
        self.leased_reads += other.leased_reads
        self.sessions += other.sessions
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)
        self.latency.merge(other.latency)

    def to_json(self) -> dict:
        return {
            "elapsed_s": round(self.elapsed_s, 3),
            "sessions": self.sessions,
            "offered": self.offered,
            "offered_rate_ops": round(self.offered_rate_ops, 1),
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_fraction": round(self.shed_fraction, 4),
            "completed": self.completed,
            "goodput_ops": round(self.goodput_ops, 1),
            "timeouts": self.timeouts,
            "failed": self.failed,
            "leased_reads": self.leased_reads,
            "latency_ms": self.latency.percentiles_ms() if self.latency.count else None,
        }

    def __str__(self) -> str:
        if self.latency.count:
            p = self.latency.percentiles_ms()
            tail = (
                f"latency p50 {p['p50']:.3f} / p99 {p['p99']:.3f} / "
                f"p999 {p['p999']:.3f} ms"
            )
        else:
            tail = "latency n/a"
        return (
            f"open-loop: offered {self.offered} ({self.offered_rate_ops:.0f} ops/s), "
            f"goodput {self.goodput_ops:.0f} ops/s ({self.completed} completed), "
            f"shed {self.shed}, timeouts {self.timeouts}, "
            f"leased reads {self.leased_reads}, {tail}"
        )
