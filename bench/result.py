"""What one run of one workload hands back to bench/run.py."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Measured:
    attempted: int = 0
    failed: int = 0
    samples: int = 0                                            # latency samples behind the percentiles
    end_to_end: dict[str, float] = field(default_factory=dict)  # measured over the whole window
    per_layer: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)           # output checks that did not hold
    notes: list[str] = field(default_factory=list)              # printed above the metrics
