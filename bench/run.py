"""The benchmark's one command.

One workload, as the driver of BENCHMARK.json runs it::

    python3 bench/run.py --workload live_unbatched --seed 1 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name with its unit, checks the outputs, and ends with
one JSON line.  Without ``--workload`` it is the suite: every workload in
a fresh subprocess of the form above, collected into one result file::

    python3 bench/run.py [--seed N] [--only W] [--traced] [--quick] [--repeats N] --out results.json

Exit code 0 only if every output check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "bench-setup-ready"
# Group B, the microbenchmarks of bench/layers.py, does not depend on the
# workload: it runs once, in the traced run of this workload, and the other
# workloads report 0 under its names.
LAYERS_PASS_WORKLOAD = "live_unbatched"

DEPLOYMENT = {
    "live": "3 replicas, clients and gateway in ONE process on one asyncio loop over loopback "
            "TCP, no injected delay; wall clock",
    "sim": "discrete-event simulator, 35 us one-way latency, 4 x 1 GbE NICs, java crypto "
           "profile; latency and throughput in SIMULATED time, cpu_us_per_op in host time",
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Make ``repro`` (the program) and ``bench`` importable, or give up."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench/run.py: the program is not here ({SRC}/repro is missing)")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _kind(workload: str) -> str:
    return "sim" if workload.startswith("sim_") else "live"


def probe_setup(workload: str, seed: int, seconds: float) -> None:
    """Child process: set the workload up, say so, tear it down."""
    def announce() -> None:
        print(READY, flush=True)

    if _kind(workload) == "sim":
        from bench import sim

        sim.setup_probe(workload, seed, seconds)
        announce()
        return
    import asyncio

    from bench import live

    spec = live.gateway_spec(seed) if workload == "gateway_openloop" else live.closed_loop_spec(workload, seed)
    asyncio.run(live.setup_probe(spec, announce))


def measure_setup_s(workload: str, seed: int, seconds: float) -> list[float]:
    """Seconds from starting a fresh interpreter to the workload's first
    completed request (live) or first simulated event (sim), ``SETUP_PROBES`` times."""
    timings = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--probe-setup"],
            stdout=subprocess.PIPE, text=True,
        )
        # a probe that hangs, before or after it says READY, is killed, which ends the reads below
        watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            timings.append(time.perf_counter() - started)
            child.stdout.read()
            code = child.wait()
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe of {workload} failed (exit {code}, said {line!r})")
    return timings


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    from bench.spans import SpanRecorder

    recorder = SpanRecorder() if traced else None
    if workload == "sim_fig5a":
        from bench import sim

        measured = sim.run_fig5a(seed, seconds, recorder)
    elif workload == "sim_leader_crash":
        from bench import sim

        measured = sim.run_leader_crash(seed, seconds, recorder)
    else:
        import asyncio

        from bench import live

        if workload == "gateway_openloop":
            measured = asyncio.run(live.run_open_loop(seed, seconds, recorder))
        else:
            measured = asyncio.run(live.run_closed_loop(workload, seed, seconds, recorder))
    if recorder:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}.jsonl")
        kept = recorder.write_jsonl(path)
        measured.notes.append(f"{kept} spans written to {os.path.relpath(path, ROOT)}")
    return measured


def run_one(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload not in names:
        sys.exit(f"bench/run.py: unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    _import_program()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one source of run-to-run difference less: str hashes, and with them
        # set and dict orders, are the same in every run and every probe
        os.environ["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.seconds)
        return 0

    traced = args.trace == 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"deployment under test: {DEPLOYMENT[_kind(args.workload)]}")
    values: dict[str, float] = {}
    if not traced:
        probes = measure_setup_s(args.workload, args.seed, args.seconds)
        values["setup_s"] = sorted(probes)[len(probes) // 2]
        print("set-up probes: " + ", ".join(f"{t:.3f} s" for t in probes))
    measured = run_workload(args.workload, args.seed, args.seconds, traced)
    if traced:
        values.update(measured.per_layer)
        if args.workload == LAYERS_PASS_WORKLOAD:
            from bench import layers

            values.update(layers.run_all())
        declared = contract["per_layer"]
    else:
        declared = contract["end_to_end"]
        values.update(measured.end_to_end)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    undeclared = sorted(set(values) - {entry["name"] for entry in declared})
    if undeclared:
        measured.failures.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {}
    for entry in declared:
        # a per-layer metric of a layer this workload does not run reads 0
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if not traced and value == 0.0:
            measured.failures.append(f"end-to-end metric {entry['name']} was not measured")

    for note in measured.notes:
        print(note)
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:16.4f} {metric['unit']}")
    print(f"attempted {measured.attempted}  failed {measured.failed}  "
          f"latency samples {measured.samples}")
    for failure in measured.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not measured.failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(measured.attempted),
        "failed": int(measured.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write(done.stdout if done.returncode else "\n".join(lines[:-1]) + "\n")
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "seed": seed}
    return {**json.loads(lines[-1]), "seed": seed}


def run_suite(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = 2 if args.quick else contract["run_seconds"]
    workloads = [entry["name"] for entry in contract["workloads"]]
    if args.only:
        if args.only not in workloads:
            sys.exit(f"bench/run.py: unknown workload {args.only!r}; BENCHMARK.json has {workloads}")
        workloads = [args.only]
    results: dict = {
        "machine": machine_record(), "seed": args.seed, "seconds": seconds, "workloads": {},
    }
    ok = True
    for workload in workloads:
        entry: dict = {"runs": [_run_child(workload, args.seed + i, seconds, 0) for i in range(args.repeats)]}
        if args.traced:
            entry["traced"] = _run_child(workload, args.seed, seconds, 1)
        ok = ok and all(run["correct"] for run in entry["runs"] + [entry.get("traced", {"correct": True})])
        results["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"results written to {args.out}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--only", help="suite: run only this workload")
    parser.add_argument("--traced", action="store_true", help="suite: add the traced run of each workload")
    parser.add_argument("--quick", action="store_true", help="suite: 2 s runs")
    parser.add_argument("--repeats", type=int, default=1, help="suite: untraced runs per workload, seeds N, N+1, ...")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = float(load_contract()["run_seconds"])
        return run_one(args)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
