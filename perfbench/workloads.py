"""The benchmark's three single-process workloads.

Each workload has a ``setup()`` (everything built before the timed
run) and a ``run_pass()`` (one timed unit of work) returning a
:class:`PassOutcome`: the simulated end-to-end values, operation
accounting, the failed checks, and the rows the per-layer metrics are
derived from.  Every pass of one workload at one seed does identical
work, so a run repeats passes and reports medians, and checks that each
repeat reproduces the first pass exactly.

``repro`` is imported inside the methods, never at module level: the
runner times the imports as part of set-up, repeatedly.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import astuple, dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Factory names of the two systems every workload compares.
BEST, SAMBA = "coserve-best", "samba-coe"


@dataclass
class PassOutcome:
    """What one pass produced and how it fared."""

    #: Exactly comparable summary of the pass's outputs (repeat check).
    fingerprint: object
    #: End-to-end simulated values (``sim_*`` and ``paper_err_pct``).
    sim: Dict[str, float]
    #: Operations attempted and failed (a failed operation is counted,
    #: not reported as an incorrect output).
    attempted: int
    failed: int
    #: Failed output checks; any entry makes the run incorrect.
    problems: List[str]
    #: Full-fidelity CoServe-Best and Samba-CoE rows (modelled design).
    best_rows: List[object]
    samba_rows: List[object]
    #: Per-layer values the pass measures itself, without tracing.
    layer: Dict[str, float] = field(default_factory=dict)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def relative_error_pct(pairs: Sequence[Tuple[float, float]]) -> float:
    """Mean absolute relative error of (reproduced, paper) pairs, in %."""
    return 100.0 * statistics.fmean(abs(ours - paper) / paper for ours, paper in pairs)


def comparison_values(best_rows, samba_rows) -> Dict[str, float]:
    """``sim_throughput_rps``, ``sim_switches`` and ``sim_speedup``."""
    return {
        "sim_throughput_rps": geomean([row.throughput_rps for row in best_rows]),
        "sim_switches": statistics.fmean(row.expert_switches for row in best_rows),
        "sim_speedup": geomean(
            [best.throughput_rps / samba.throughput_rps for best, samba in zip(best_rows, samba_rows)]
        ),
    }


def beats_baseline(best_rows, samba_rows, where: Sequence[str]) -> List[str]:
    """The paper's headline claim, per pair: CoServe-Best out-serves Samba-CoE."""
    return [
        f"{label}: CoServe-Best {best.throughput_rps:.2f} req/s does not beat "
        f"Samba-CoE {samba.throughput_rps:.2f} req/s"
        for label, best, samba in zip(where, best_rows, samba_rows)
        if best.throughput_rps <= samba.throughput_rps
    ]


def row_fingerprint(row) -> Tuple[object, ...]:
    """Every aggregate of a simulated row (the request records are dropped).

    Plain values only: the runner re-imports ``repro`` between passes,
    and instances of two imports of one dataclass never compare equal.
    """
    return (
        row.system_name,
        row.num_requests,
        row.makespan_ms,
        row.total_execution_ms,
        row.total_switching_ms,
        row.expert_loads,
        row.expert_switches,
        row.loads_from_ssd,
        row.loads_from_cache,
        tuple(astuple(summary) for summary in row.executors),
        row.aborted,
        row.abort_reason,
    )


# ----------------------------------------------------------------------
# regen-full: coserve-experiments --all --full-scale, in-process
# ----------------------------------------------------------------------
class RegenFull:
    """Full-scale regeneration of every experiment, serial, without a cache.

    It runs at the tasks' built-in seeds, where the figures are defined;
    the run's seed is recorded but does not change the inputs.
    """

    name = "regen-full"

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.experiments import EXPERIMENTS
        from repro.experiments.base import EvaluationSettings
        from repro.experiments.cli import collect_grid

        self.names = sorted(EXPERIMENTS)
        self.settings = EvaluationSettings(full_scale=True)
        self.grid = collect_grid(self.names, self.settings)

    def run_pass(self, mark: Callable[[str], None]) -> PassOutcome:
        from repro.analysis.paper_reference import (
            PAPER_FIGURE13_THROUGHPUT,
            PAPER_FIGURE14_SWITCHES,
            PAPER_FIGURE15_THROUGHPUT,
            PAPER_FIGURE16_SWITCHES,
            paper_baseline_throughput,
        )
        from repro.experiments.base import ABLATION_SYSTEMS, COMPARISON_SYSTEMS
        from repro.experiments.cli import run_experiments
        from repro.sweeps import SweepResults
        from repro.workload.tasks import task_by_name

        results = SweepResults()
        start = time.perf_counter()
        outcomes = run_experiments(self.names, self.settings, results=results)
        wall_s = time.perf_counter() - start
        failed = sum(1 for _, result, _ in outcomes if not result.rows)
        for cell in self.grid:
            row = results[cell] if cell in results else None
            expected = self.settings.requests_for(task_by_name(cell.task))
            if row is None or row.aborted or row.num_requests != expected:
                failed += 1

        pairs = [(device, task) for device in self.settings.devices for task in self.settings.task_names]
        best_rows = [results.get(BEST, device, task) for device, task in pairs]
        samba_rows = [results.get(SAMBA, device, task) for device, task in pairs]
        problems = beats_baseline(best_rows, samba_rows, [f"{d}/{t}" for d, t in pairs])
        errors: List[Tuple[float, float]] = []
        for device, task in pairs:
            paper = dict(PAPER_FIGURE13_THROUGHPUT[(device, task)])
            paper.update(paper_baseline_throughput(device, task))
            paper["coserve-best"] = paper.pop("coserve_best")
            paper["coserve-casual"] = paper.pop("coserve_casual")
            for index, system in enumerate(COMPARISON_SYSTEMS):
                row = results.get(system, device, task)
                errors.append((row.throughput_rps, paper[system]))
                errors.append((row.expert_switches, PAPER_FIGURE14_SWITCHES[(device, task)][index]))
            for index, system in enumerate(ABLATION_SYSTEMS):
                row = results.get(system, device, task)
                errors.append((row.throughput_rps, PAPER_FIGURE15_THROUGHPUT[(device, task)][index]))
                errors.append((row.expert_switches, PAPER_FIGURE16_SWITCHES[(device, task)][index]))
        sim = comparison_values(best_rows, samba_rows)
        sim["paper_err_pct"] = relative_error_pct(errors)

        seconds = {name: elapsed for name, _, elapsed in outcomes}
        return PassOutcome(
            fingerprint=tuple((name, result.to_json()) for name, result, _ in outcomes),
            sim=sim,
            attempted=len(outcomes) + len(self.grid),
            failed=failed,
            problems=problems,
            best_rows=best_rows,
            samba_rows=samba_rows,
            layer={
                "sweeps.cells": float(len(self.grid)),
                "sweeps.cells_full": float(len(self.grid)),
                "sweeps.sweep_s": wall_s - sum(seconds.values()),
                "experiments.assembly_s": sum(seconds.values()),
                "experiments.figure17_s": seconds["figure17"],
                "experiments.figure18_s": seconds["figure18"],
            },
        )


# ----------------------------------------------------------------------
# shift: one long lazily generated production shift per task
# ----------------------------------------------------------------------
class Shift:
    """A long NUMA shift per paper task, served by CoServe-Best and Samba-CoE.

    Each task's stream is seeded from the run's seed and the task's own
    seed, so the four shifts are four distinct production runs.
    Sessions keep aggregates only.
    """

    name = "shift"
    #: Requests per shift.
    REQUESTS = 25_000
    DEVICE = "numa"

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.core.profiler import OfflineProfiler
        from repro.hardware.presets import make_device
        from repro.serving.base import ServingSystem
        from repro.simulation.engine import SimulationOptions
        from repro.workload.tasks import standard_tasks

        self.device = make_device(self.DEVICE)
        self.options = SimulationOptions(keep_request_records=False, keep_stage_records=False)
        self.tasks = []
        for task in standard_tasks():
            board = task.board()
            model = task.model(board)
            stream = task.request_stream(
                board,
                model,
                num_requests=self.REQUESTS,
                seed=self.seed * 100 + task.seed,
                streaming=True,
            )
            self.tasks.append(
                (
                    task.name,
                    model,
                    stream,
                    ServingSystem.usage_profile_from_stream(model, stream),
                    OfflineProfiler(self.device, model).build_performance_matrix(),
                )
            )

    def streams(self):
        return [stream for _, _, stream, _, _ in self.tasks]

    def run_pass(self, mark: Callable[[str], None]) -> PassOutcome:
        from repro.analysis.paper_reference import PAPER_FIGURE13_THROUGHPUT, paper_baseline_throughput
        from repro.serving.factory import build_system

        best_rows, samba_rows = [], []
        failed = 0
        for _, model, stream, usage, matrix in self.tasks:
            for name, rows in ((BEST, best_rows), (SAMBA, samba_rows)):
                system = build_system(
                    name, self.device, model, usage, performance_matrix=matrix, options=self.options
                )
                row = system.serve(stream)
                rows.append(row)
                # An aborted row's num_requests counts the completed ones.
                failed += self.REQUESTS - row.num_requests
        labels = [name for name, _, _, _, _ in self.tasks]
        problems = beats_baseline(best_rows, samba_rows, labels)
        sim = comparison_values(best_rows, samba_rows)
        errors = []
        for label, best, samba in zip(labels, best_rows, samba_rows):
            errors.append((best.throughput_rps, PAPER_FIGURE13_THROUGHPUT[(self.DEVICE, label)]["coserve_best"]))
            errors.append((samba.throughput_rps, paper_baseline_throughput(self.DEVICE, label)[SAMBA]))
        sim["paper_err_pct"] = relative_error_pct(errors)
        return PassOutcome(
            fingerprint=tuple(row_fingerprint(row) for row in best_rows + samba_rows),
            sim=sim,
            attempted=2 * len(self.tasks) * self.REQUESTS,
            failed=failed,
            problems=problems,
            best_rows=best_rows,
            samba_rows=samba_rows,
        )


# ----------------------------------------------------------------------
# sweep-guided: a cold then a warm pass of one halving ladder
# ----------------------------------------------------------------------
def bench_grid_cells(device: str, task: str):
    """The 49-cell grid shape of ``benchmarks/test_bench_sweep_halving.py``.

    The plain CoServe-Best and Samba-CoE cells are pinned, so every
    ladder ends with their full-fidelity rows.
    """
    from repro.sweeps import SweepCell

    systems = (
        "samba-coe",
        "samba-coe-fifo",
        "samba-coe-parallel",
        "coserve-best",
        "coserve-casual",
        "coserve-none",
        "coserve-em",
        "coserve-em-ra",
        "coserve",
    )
    cells = []
    for system in systems:
        cell = SweepCell.make(system, device, task)
        cells.append(cell.pinned() if system in (BEST, SAMBA) else cell)
    for latency in (0.0, 1.0, 2.0, 4.0, 8.0):
        for gpus in (1, 2, 3, 4):
            cells.append(
                SweepCell.make(BEST, device, task, scheduling_latency_ms=latency, gpu_executors=gpus)
            )
    for fraction in (0.25, 0.5, 0.6, 0.75, 0.9):
        for cpus in (1, 2):
            cells.append(
                SweepCell.make(
                    "coserve-casual", device, task, gpu_expert_fraction=fraction, cpu_executors=cpus
                )
            )
    for system in ("coserve-none", "coserve-em"):
        for gpus in (1, 2, 3, 4):
            cells.append(SweepCell.make(system, device, task, gpu_executors=gpus))
    for latency in (0.0, 2.0):
        cells.append(SweepCell.make("coserve", device, task, scheduling_latency_ms=latency))
    return cells


class SweepGuided:
    """A guided sweep run cold against a fresh cache, then warm against it.

    Each pass starts from an empty cache directory and fresh contexts, as
    two consecutive ``coserve-experiments --cache DIR`` invocations would.
    The warm pass should return the cold pass's rows; each grid cell
    whose warm row differs counts as a failed operation.

    The cells simulate the tasks' built-in workloads: a global workload
    seed moves the pinned rows' simulated values by up to a third, and
    with only two boards in the grid that spread would swamp every
    simulated metric.  The run's seed orders the grid instead, which is
    what the ladder's tie-breaks and the surrogate's refits read.
    """

    name = "sweep-guided"
    DEVICES = ("numa", "uma")
    TASKS = ("A2", "B2")

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        from repro.experiments.base import EvaluationSettings
        from repro.sweeps import HalvingConfig, SweepGrid

        self.settings = EvaluationSettings(
            full_scale=True, devices=self.DEVICES, task_names=self.TASKS
        )
        self.config = HalvingConfig(rungs=3, keep_fraction=0.5, min_requests=150)
        cells = [
            cell
            for device in self.DEVICES
            for task in self.TASKS
            for cell in bench_grid_cells(device, task)
        ]
        random.Random(self.seed).shuffle(cells)
        self.grid = SweepGrid(tuple(cells))

    def _ladder(self, directory: str):
        from repro.experiments.base import EvaluationContext
        from repro.sweeps import HalvingRunner, SweepCache, SweepResults

        cache = SweepCache(directory, self.settings)
        runner = HalvingRunner(context=EvaluationContext(self.settings), cache=cache, config=self.config)
        results = SweepResults()
        start = time.perf_counter()
        runner.run(self.grid, results=results)
        return results, runner, cache, time.perf_counter() - start

    def run_pass(self, mark: Callable[[str], None]) -> PassOutcome:
        from repro.analysis.paper_reference import (
            PAPER_FIGURE13_THROUGHPUT,
            PAPER_FIGURE14_SWITCHES,
            paper_baseline_throughput,
        )
        from repro.experiments.base import COMPARISON_SYSTEMS

        directory = tempfile.mkdtemp(prefix="sweep-cache-", dir=self.scratch)
        try:
            mark("cold")
            cold, cold_runner, _, cold_s = self._ladder(directory)
            mark("warm")
            warm, _, warm_cache, warm_s = self._ladder(directory)
            mark("end")
        finally:
            shutil.rmtree(directory, ignore_errors=True)

        problems: List[str] = []
        differing = [cell for cell in self.grid if row_fingerprint(cold[cell]) != row_fingerprint(warm[cell])]
        for cell in self.grid:
            if cell.pin and (cold.is_pruned(cell) or cold[cell].aborted):
                problems.append(f"pinned cell {cell.label()} has no full-fidelity row")
        pairs = [(device, task) for device in self.DEVICES for task in self.TASKS]
        best_rows = [cold.get(BEST, device, task) for device, task in pairs]
        samba_rows = [cold.get(SAMBA, device, task) for device, task in pairs]
        problems += beats_baseline(best_rows, samba_rows, [f"{d}/{t}" for d, t in pairs])
        sim = comparison_values(best_rows, samba_rows)
        errors = []
        for (device, task), best, samba in zip(pairs, best_rows, samba_rows):
            switches = PAPER_FIGURE14_SWITCHES[(device, task)]
            errors.append((best.throughput_rps, PAPER_FIGURE13_THROUGHPUT[(device, task)]["coserve_best"]))
            errors.append((samba.throughput_rps, paper_baseline_throughput(device, task)[SAMBA]))
            errors.append((best.expert_switches, switches[COMPARISON_SYSTEMS.index(BEST)]))
            errors.append((samba.expert_switches, switches[COMPARISON_SYSTEMS.index(SAMBA)]))
        sim["paper_err_pct"] = relative_error_pct(errors)

        schedule = cold_runner.last_schedule
        low_cells = sum(
            1 for plan in schedule[1:-1] for count in plan.request_counts if count is not None
        )
        finalists = [cell for cell in self.grid if not cold.is_pruned(cell)]
        drift = cold.drift_report
        return PassOutcome(
            fingerprint=(
                tuple(row_fingerprint(cold[cell]) for cell in self.grid),
                tuple(row_fingerprint(warm[cell]) for cell in self.grid),
            ),
            sim=sim,
            attempted=len(self.grid),
            failed=len(differing),
            problems=problems,
            best_rows=best_rows,
            samba_rows=samba_rows,
            layer={
                "sweeps.cells": float(len(self.grid)),
                "sweeps.cells_full": float(len(finalists)),
                "sweeps.cells_low": float(low_cells),
                "sweeps.cells_pruned": float(len(cold.pruned_keys())),
                "sweeps.finalist_requests": float(sum(cold[cell].num_requests for cell in finalists)),
                "sweeps.cache_hits": float(warm_cache.hits),
                "sweeps.cache_misses": float(warm_cache.misses),
                "sweeps.cold_s": cold_s,
                "sweeps.warm_s": warm_s,
                "sweeps.sweep_s": cold_s + warm_s,
                "surrogate.rung1_spearman": drift.rungs[0].makespan_spearman if drift else 0.0,
            },
        )


WORKLOADS = {workload.name: workload for workload in (RegenFull, Shift, SweepGuided)}

