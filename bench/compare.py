"""Compare two result files of bench/run.py, metric by metric and workload by workload.

    python3 bench/compare.py A.json B.json

A is the reference (the parent commit, or the first of two sets of runs
of the same code), B the candidate.  For every pairing of workload and
end-to-end metric the medians over each file's runs are compared against
the bound BENCHMARK.json fixes for the metric:

* ``worse``       B's median is worse than A's by more than the bound
* ``better``      B's median is better than A's by more than the bound
* ``unresolved``  neither, but the run-to-run spread (distance between the
                  quartiles as a share of the median, the wider of A and B)
                  exceeds the bound, so "no change" cannot be claimed
* ``same``        neither, and the spread is within the bound

The simulator's modelled numbers repeat exactly for a seed, so where both
files ran a ``sim_*`` workload with the same seed, any difference in them
is reported as ``model changed`` whatever the bound.

Two headline numbers exist on one workload each, so the driver's contract
keeps them out of ``end_to_end``; they are gated here from the traced run
of each file (``run.py --traced``): ``gateway.slo_rate_ops`` of
``gateway_openloop`` is a rung of the ladder and may not drop at all, and
``core.unavailable_ms`` of ``sim_leader_crash`` is modelled and must be
equal at equal seed (``unresolved`` where the seeds differ).

Exit code 1 on any ``worse`` or ``model changed``, or if a workload's
share of failed operations rose; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.stats import median, spread  # noqa: E402

# modelled (simulated-clock) metrics of the sim_* workloads
MODELLED = ("throughput_ops", "latency_p50_ms", "latency_p99_ms")
# per-layer metrics of the traced run that gate a change: workload -> (metric, rule)
TRACED_GATES = {
    "gateway_openloop": ("gateway.slo_rate_ops", "no drop"),
    "sim_leader_crash": ("core.unavailable_ms", "exact at equal seed"),
}


def _values(entry: dict, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"] if metric in run["metrics"]]


def _failed_share(entry: dict) -> float:
    attempted = sum(run["attempted"] for run in entry["runs"])
    return sum(run["failed"] for run in entry["runs"]) / attempted if attempted else 1.0


def traced_gate(workload: str, entry_a: dict, entry_b: dict) -> tuple | None:
    """The row of ``workload``'s gated per-layer metric, if both files traced it."""
    name, rule = TRACED_GATES.get(workload, ("", ""))
    runs = [entry.get("traced", {}) for entry in (entry_a, entry_b)]
    if any(name not in run.get("metrics", {}) for run in runs):
        return None
    a, b = (run["metrics"][name]["value"] for run in runs)
    if rule == "exact at equal seed":
        if runs[0].get("seed") != runs[1].get("seed"):
            outcome = "unresolved"
        else:
            outcome = "same" if a == b else "model changed"
        worse_by = (b - a) / abs(a) if a else 0.0
    else:
        outcome = "worse" if b < a else "better" if b > a else "same"
        worse_by = (a - b) / abs(a) if a else 0.0
    return (workload, name, a, b, worse_by, 0.0, 0.0, outcome)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """Returns (verdict, relative change of the median in the 'worse' direction, spread)."""
    mid_a, mid_b = median(a), median(b)
    change = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    worse_by = change if better == "lower" else -change
    wide = max(spread(a), spread(b))
    if worse_by > bound:
        return "worse", worse_by, wide
    if worse_by < -bound:
        return "better", worse_by, wide
    return ("unresolved" if wide > bound else "same"), worse_by, wide


def compare(a: dict, b: dict, contract: dict) -> tuple[list[tuple], bool]:
    rows, bad = [], False
    for workload in (entry["name"] for entry in contract["workloads"]):
        entry_a, entry_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if not entry_a or not entry_b:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values_a, values_b = _values(entry_a, name), _values(entry_b, name)
            if not values_a or not values_b:
                continue
            outcome, worse_by, wide = verdict(values_a, values_b, metric["better"], metric["bound"])
            if workload.startswith("sim_") and name in MODELLED:
                by_seed = {run["seed"]: run["metrics"][name]["value"] for run in entry_a["runs"]}
                if any(
                    run["seed"] in by_seed and by_seed[run["seed"]] != run["metrics"][name]["value"]
                    for run in entry_b["runs"]
                ):
                    outcome = "model changed"
            bad = bad or outcome in ("worse", "model changed")
            rows.append((workload, name, median(values_a), median(values_b), worse_by,
                         metric["bound"], wide, outcome))
        gate = traced_gate(workload, entry_a, entry_b)
        if gate:
            bad = bad or gate[-1] in ("worse", "model changed")
            rows.append(gate)
        share_a, share_b = _failed_share(entry_a), _failed_share(entry_b)
        if share_b > share_a:
            bad = True
            rows.append((workload, "failed share", share_a, share_b, share_b - share_a, 0.0, 0.0,
                         "worse"))
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    rows, bad = compare(files[0], files[1], contract)
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, name, mid_a, mid_b, worse_by, bound, wide, outcome in rows:
        print(f"{workload:18s} {name:20s} {mid_a:12.4f} {mid_b:12.4f} "
              f"{worse_by:+9.2%} {bound:6.0%} {wide:7.2%}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
