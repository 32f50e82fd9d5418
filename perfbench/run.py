#!/usr/bin/env python3
"""Benchmark of the CoServe reproduction: three single-process workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shift --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Its
timings are host wall times scaled to a fixed host speed by probes taken
while each span runs (:class:`HostClock`); the raw wall times are kept
in the run's record.
``--trace 1`` is the separate traced run: it alternates untraced passes
with passes whose calls into each layer are recorded as spans, checks
that both give identical rows, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(machine, seed, every pass) and the traced run's spans are written under
``perfbench/out/``.

``python3 perfbench/run.py --all`` runs every workload untraced and then
traced in this one process and prints every metric by name and unit.

See ``perfbench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Callable, List

import spans
from workloads import WORKLOADS, geomean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_throughput_rps": "req/s",
    "sim_switches": "count",
    "sim_speedup": "x",
    "paper_err_pct": "%",
}

#: Per-call timings of the traced run: metric, span, ns per unit, unit.
#: Each gives ``<metric>`` (p50), ``<metric>_tail`` and ``<base>_calls``.
PER_CALL = (
    ("core.assign_us", "core.assign", 1e3, "us"),
    ("serving.build_ms", "serving.build", 1e6, "ms"),
    ("serving.usage_profile_ms", "serving.usage_profile", 1e6, "ms"),
    ("policies.select_victims_us", "policies.select_victims", 1e3, "us"),
    ("surrogate.features_ms", "surrogate.features", 1e6, "ms"),
    ("surrogate.estimate_us", "surrogate.estimate", 1e3, "us"),
    ("surrogate.recalibrate_ms", "surrogate.recalibrate", 1e6, "ms"),
    ("sweeps.cell_ms", "sweeps.cell", 1e6, "ms"),
    ("sweeps.cache_load_ms", "sweeps.cache_load", 1e6, "ms"),
    ("sweeps.cache_store_ms", "sweeps.cache_store", 1e6, "ms"),
)

#: Per-layer metrics that are not per-call timings, with units.
PER_LAYER = {
    "workload.specs_per_s": "1/s",
    "workload.model_build_s": "s",
    "core.profile_s": "s",
    "simulation.run_s": "s",
    "simulation.run_s.coserve-best": "s",
    "simulation.run_s.samba-coe": "s",
    "simulation.sessions": "count",
    "simulation.events": "count",
    "simulation.events.arrival": "count",
    "simulation.events.dispatch": "count",
    "simulation.events.batch": "count",
    "simulation.events.load": "count",
    "simulation.events.evict": "count",
    "simulation.events.migration": "count",
    "simulation.events.completion": "count",
    "simulation.events_per_s": "1/s",
    "simulation.req_per_s": "1/s",
    "simulation.live_peak": "count",
    "policies.evictions": "count",
    "simulation.expert_loads": "count",
    "simulation.loads_from_ssd": "count",
    "simulation.host_cache_hit_ratio": "ratio",
    "simulation.avg_batch_size": "count",
    "simulation.switching_share": "ratio",
    "samba.sim_throughput_rps": "req/s",
    "samba.sim_switches": "count",
    "surrogate.rung1_spearman": "ratio",
    "sweeps.cells": "count",
    "sweeps.cells_full": "count",
    "sweeps.cells_low": "count",
    "sweeps.cells_pruned": "count",
    "sweeps.requests_simulated": "count",
    "sweeps.useful_ratio": "ratio",
    "sweeps.cache_hits": "count",
    "sweeps.cache_misses": "count",
    "sweeps.warm_cells_simulated": "count",
    "sweeps.cold_s": "s",
    "sweeps.warm_s": "s",
    "sweeps.sweep_s": "s",
    "experiments.assembly_s": "s",
    "experiments.figure17_s": "s",
    "experiments.figure18_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer_units():
    units = {}
    for metric, span, _, unit in PER_CALL:
        units[metric] = unit
        units[metric + "_tail"] = unit
        units[metric.rsplit("_", 1)[0] + "_calls"] = "count"
    units.update(PER_LAYER)
    for layer in spans.LAYERS:
        units[f"self_s.{layer}"] = "s"
    return units


#: Phase splits the traced run reads from its untraced passes (tracing
#: would inflate them), as medians.
UNTRACED_PHASES = (
    "sweeps.cold_s",
    "sweeps.warm_s",
    "sweeps.sweep_s",
    "experiments.assembly_s",
    "experiments.figure17_s",
    "experiments.figure18_s",
)


# ----------------------------------------------------------------------
def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def purge_program() -> None:
    for name in [name for name in sys.modules if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int):
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "nproc": cores,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
#: Seconds between host-speed probes while a span is timed.
PROBE_INTERVAL_S = 0.1
#: Probe time that scaled timings refer to: a scaled second is a second
#: on a host that runs :func:`probe_loop` in this time.
PROBE_REFERENCE_S = 1e-3


def probe_loop() -> float:
    """Time a fixed pure-Python loop (about 1 ms): the host's speed now."""
    start = time.perf_counter()
    total, table = 0, {}
    for index in range(10_000):
        total += index * index % 7
        table[index & 1023] = total
    return time.perf_counter() - start


class HostClock:
    """Times spans of work and scales them to a fixed host speed.

    A shared virtual machine can change speed under the benchmark: the
    2-core reference VM in ``NOTES.md`` switches between two speeds about
    1.7x apart for seconds to a minute at a time, so raw wall times drift
    with it from run to run.  While a span
    runs, a ``SIGALRM`` every :data:`PROBE_INTERVAL_S` times
    :func:`probe_loop` in the main thread; one more probe is taken just
    before and just after the span.  The span's scaled time is its wall
    time less the probes inside it, times the mean of
    ``PROBE_REFERENCE_S / probe`` over its probes.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe_loop())

    def time(self, work: Callable[[], object]):
        """Run ``work()``; return its result, wall time and scaled time."""
        self.probes = [probe_loop()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        timer = signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            signal.setitimer(signal.ITIMER_REAL, *timer)
        inside = sum(self.probes[1:])
        self.probes.append(probe_loop())
        speed = statistics.fmean(PROBE_REFERENCE_S / probe for probe in self.probes)
        return result, wall, (wall - inside) * speed


#: Set-up rounds before each timed pass; ``setup_s`` is the median of
#: every round of the run.  Spreading the rounds over the run, between
#: the passes, makes them see the same host speed as the passes.
SETUP_ROUNDS = 3


def build(workload_cls, seed: int, scratch: str, rounds: int, clock: HostClock):
    """Set the workload up ``rounds`` times, re-importing the program each time.

    Returns the last workload and each round's wall and scaled set-up
    time: importing ``repro`` plus everything the workload builds before
    its timed run.  Third-party and standard-library modules stay
    imported after the first round, so later rounds time the program's
    own import.
    """
    walls, scaled = [], []
    workload = None

    def set_up():
        import_program()
        built = workload_cls(seed, scratch)
        built.setup()
        return built

    for _ in range(rounds):
        purge_program()
        gc.collect()
        workload, wall, seconds = clock.time(set_up)
        walls.append(wall)
        scaled.append(seconds)
    return workload, walls, scaled


def keep_going(started: float, durations, seconds: float) -> bool:
    """Whether another pass of typical length still fits the time budget."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def no_mark(label: str) -> None:
    pass


def same_outputs(first, other) -> bool:
    return other.fingerprint == first.fingerprint and other.sim == first.sim


def run_untraced(workload_cls, seed: int, scratch: str, seconds: float):
    """Alternate set-up rounds and timed passes until ``seconds`` are used.

    Each pass runs on the workload its preceding set-up rounds built, so
    every pass also checks that a fresh import reproduces the first.
    Returns the wall and scaled times of the set-up rounds and of the
    passes, and the passes' outcomes.
    """
    clock = HostClock()
    times = {"setup_wall": [], "setup": [], "pass_wall": [], "pass": []}
    outcomes, iterations = [], []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        workload, walls, scaled = build(workload_cls, seed, scratch, SETUP_ROUNDS, clock)
        times["setup_wall"] += walls
        times["setup"] += scaled
        gc.collect()
        outcome, wall, scaled_pass = clock.time(lambda: workload.run_pass(no_mark))
        times["pass_wall"].append(wall)
        times["pass"].append(scaled_pass)
        # Rows keep their import of ``repro`` alive; the checks need none.
        outcomes.append(dataclasses.replace(outcome, best_rows=[], samba_rows=[]))
        iterations.append(time.perf_counter() - begin)
        if not keep_going(started, iterations, seconds):
            return times, outcomes


def summarise(outcomes, problems):
    """A run's operation totals; failed checks go to ``problems``.

    The totals are the first pass's.  Every later pass must reproduce it
    exactly, so counting them again would only scale the totals by how
    many passes the host's speed let fit in the time budget.
    """
    for index, outcome in enumerate(outcomes):
        problems.extend(outcome.problems)
        if not same_outputs(outcomes[0], outcome):
            problems.append(f"pass {index + 1} did not reproduce pass 1 at the same seed")
    return outcomes[0].attempted, outcomes[0].failed


def end_to_end(workload_cls, seed: int, seconds: float, scratch: str):
    times, outcomes = run_untraced(workload_cls, seed, scratch, seconds)
    problems = []
    attempted, failed = summarise(outcomes, problems)
    values = {
        "wall_s": statistics.median(times["pass"]),
        "setup_s": statistics.median(times["setup"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    values.update(outcomes[0].sim)
    record = {
        "passes_s": times["pass"],
        "passes_wall_s": times["pass_wall"],
        "setups_s": times["setup"],
        "setups_wall_s": times["setup_wall"],
        "problems": sorted(set(problems)),
    }
    return values, END_TO_END, attempted, failed, not problems, record


# ----------------------------------------------------------------------
def traced(workload_cls, seed: int, seconds: float, scratch: str, spans_path: str):
    workload, _, _ = build(workload_cls, seed, scratch, 1, HostClock())
    untraced_s, traced_s, untraced, layers = [], [], [], []
    problems = []
    started = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        untraced.append(workload.run_pass(no_mark))
        untraced_s.append(time.perf_counter() - start)

        gc.collect()
        recorder, ledger = spans.SpanRecorder(), spans.SessionLedger()
        marks = {}

        def mark(label: str) -> None:
            marks[label] = (len(recorder), len(ledger.sessions))

        restore = spans.install(recorder, ledger)
        try:
            root = recorder.open("bench.setup")
            traced_workload = workload_cls(seed, scratch)
            traced_workload.setup()
            recorder.close(root)
            root = recorder.open("bench.pass")
            outcome = traced_workload.run_pass(mark)
            recorder.close(root)
            drained = 0
            if hasattr(traced_workload, "streams"):
                # The lazy streams drained alone: generation without serving.
                root = recorder.open("workload.drain")
                drained = sum(sum(1 for _ in stream) for stream in traced_workload.streams())
                recorder.close(root)
        finally:
            restore()
        pass_span = recorder.names.index("bench.pass")
        traced_s.append((recorder.ends[pass_span] - recorder.starts[pass_span]) / 1e9)
        if not same_outputs(untraced[0], outcome):
            problems.append("rows differ with tracing on")
        layers.append(layer_metrics(recorder, ledger, marks, outcome, drained))
        if not keep_going(started, [a + b for a, b in zip(untraced_s, traced_s)], seconds):
            break

    attempted, failed = summarise(untraced, problems)
    values = {}
    units = per_layer_units()
    for key in layers[0]:
        samples = [layer[key] for layer in layers]
        values[key] = statistics.median(samples)
        if units[key] in ("count", "ratio") and len(set(samples)) > 1:
            problems.append(f"{key} differs between traced passes at one seed")
    for key in UNTRACED_PHASES:
        samples = [outcome.layer.get(key, 0.0) for outcome in untraced]
        values[key] = statistics.median(samples)
    untraced_median = statistics.median(untraced_s)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) - untraced_median) / untraced_median
    recorder.dump(spans_path, {"workload": workload_cls.name, "seed": seed})
    record = {
        "untraced_passes_s": untraced_s,
        "traced_passes_s": traced_s,
        "problems": sorted(set(problems)),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return values, units, attempted, failed, not problems, record


def layer_metrics(recorder, ledger, marks, outcome, drained):
    """Per-layer values of one traced pass."""
    values = {}
    for metric, span, scale, _ in PER_CALL:
        p50, tail, calls = spans.per_call(recorder.durations_ns(span), scale)
        values[metric] = p50
        values[metric + "_tail"] = tail
        values[metric.rsplit("_", 1)[0] + "_calls"] = calls

    generated = ledger.specs_generated + drained
    generate_s = recorder.total_s("workload.generate") + recorder.total_s("workload.drain")
    values["workload.specs_per_s"] = generated / generate_s if generate_s else 0.0
    values["workload.model_build_s"] = recorder.total_s("workload.model_build") + recorder.total_s(
        "workload.board_build"
    )
    values["core.profile_s"] = recorder.total_s("core.profile")

    # Sessions, in run order, each with its duration and enclosing cell.
    run_spans = [index for index, name in enumerate(recorder.names) if name == "simulation.run"]
    in_cell = []
    for index in run_spans:
        parent = recorder.parents[index]
        while parent >= 0 and recorder.names[parent] != "sweeps.cell":
            parent = recorder.parents[parent]
        in_cell.append(parent >= 0)
    run_s = [(recorder.ends[i] - recorder.starts[i]) / 1e9 for i in run_spans]
    counts = ledger.counts()
    total_run_s = sum(run_s)
    values["simulation.run_s"] = total_run_s
    for name in ("coserve-best", "samba-coe"):
        label = spans.system_label(name)
        values[f"simulation.run_s.{name}"] = sum(
            seconds for seconds, (session, _) in zip(run_s, ledger.sessions) if session == label
        )
    values["simulation.sessions"] = float(len(ledger.sessions))
    values["simulation.events"] = float(sum(counts.values()))
    for kind, value in counts.items():
        values[f"simulation.events.{kind}"] = float(value)
    values["simulation.events_per_s"] = values["simulation.events"] / total_run_s if total_run_s else 0.0
    values["simulation.req_per_s"] = counts["arrival"] / total_run_s if total_run_s else 0.0
    values["simulation.live_peak"] = float(ledger.live_peak())
    values["policies.evictions"] = float(counts["evict"])

    best, samba = outcome.best_rows, outcome.samba_rows
    loads = sum(row.expert_loads for row in best)
    execution = sum(row.total_execution_ms for row in best)
    switching = sum(row.total_switching_ms for row in best)
    batches = sum(summary.batches_executed for row in best for summary in row.executors)
    stages = sum(summary.stages_executed for row in best for summary in row.executors)
    values["simulation.expert_loads"] = loads / len(best)
    values["simulation.loads_from_ssd"] = sum(row.loads_from_ssd for row in best) / len(best)
    values["simulation.host_cache_hit_ratio"] = (
        sum(row.loads_from_cache for row in best) / loads if loads else 0.0
    )
    values["simulation.avg_batch_size"] = stages / batches if batches else 0.0
    values["simulation.switching_share"] = switching / (execution + switching)
    values["samba.sim_throughput_rps"] = geomean([row.throughput_rps for row in samba])
    values["samba.sim_switches"] = statistics.fmean(row.expert_switches for row in samba)

    layer = outcome.layer
    arrivals = [observer.counts["arrival"] for _, observer in ledger.sessions]
    cell_requests = sum(value for value, cell in zip(arrivals, in_cell) if cell)
    if "warm" in marks:
        cold_end = marks["warm"][1]
        cold_requests = sum(
            value for value, cell in zip(arrivals[:cold_end], in_cell[:cold_end]) if cell
        )
        warm_cells = recorder.names[marks["warm"][0] : marks["end"][0]].count("sweeps.cell")
    else:
        cold_requests, warm_cells = cell_requests, 0
    values["sweeps.requests_simulated"] = float(cell_requests)
    finalist = layer.get("sweeps.finalist_requests", float(cold_requests))
    values["sweeps.useful_ratio"] = finalist / cold_requests if cold_requests else 0.0
    values["sweeps.warm_cells_simulated"] = float(warm_cells)
    for key in (
        "sweeps.cells",
        "sweeps.cells_full",
        "sweeps.cells_low",
        "sweeps.cells_pruned",
        "sweeps.cache_hits",
        "sweeps.cache_misses",
        "surrogate.rung1_spearman",
    ):
        values[key] = layer.get(key, 0.0)
    for layer_name, seconds in recorder.self_s_by_layer().items():
        values[f"self_s.{layer_name}"] = seconds
    values["trace.spans"] = float(len(recorder))
    return values


# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: bool):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    scratch = stem + ".scratch"
    os.makedirs(scratch, exist_ok=True)
    try:
        if trace:
            result = traced(WORKLOADS[name], seed, seconds, scratch, stem + ".spans.json")
        else:
            result = end_to_end(WORKLOADS[name], seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values, units, attempted, failed, correct, record = result
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    record.update({"workload": name, "trace": int(trace), "machine": machine(seed), "metrics": metrics})
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--all",
        action="store_true",
        help="every workload, untraced then traced, in this process "
        "(peak_rss_mb is then the process's peak so far)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not arguments.all and arguments.workload is None:
        parser.error("pass --workload NAME or --all")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program source at {SRC}; run from the root of a full checkout")
    if not arguments.all:
        summary, record = run_one(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))
        print("# machine " + json.dumps(record["machine"]))
        for problem in record["problems"]:
            print("# problem " + problem)
        print(json.dumps(summary))
        return 0

    for name in WORKLOADS:
        for trace in (False, True):
            summary, record = run_one(name, arguments.seed, arguments.seconds, trace)
            kind = "per-layer (traced run)" if trace else "end-to-end"
            print(f"\n{name}: {kind}; correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']}")
            for problem in record["problems"]:
                print(f"  problem: {problem}")
            for key, metric in summary["metrics"].items():
                print(f"  {key:<40} {metric['value']:>16.6g} {metric['unit']}")
    print("\n# machine " + json.dumps(record["machine"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
