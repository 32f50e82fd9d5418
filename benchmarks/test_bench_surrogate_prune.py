"""Benchmark: two-stage surrogate pruning vs exhaustive sweeping.

The tentpole claim of the two-stage sweep is wall-clock: scoring a cell
with the queueing surrogate costs milliseconds (pure arithmetic over a
features bundle) while simulating it costs seconds, so pruning the
predictably-bad 75% of a large one-(device, task) grid should shrink
the sweep by nearly 4x.  This benchmark times an exhaustive serial
sweep and a 75 % prune — the one-rung halving ladder
``HalvingConfig(rungs=1, keep_fraction=0.25)``, which is what the CLI's
``--prune-fraction 0.75`` runs — over the same ~49-cell grid —
nine registered systems plus CoServe configuration variants (scheduler
latency, executor counts, expert-placement fractions) on (numa, A1) —
and asserts:

- the pruned sweep is at least :data:`MIN_PRUNE_SPEEDUP` times faster
  (the floor leaves room for surrogate scoring and shared profiling,
  which both runs pay);
- every surviving cell's result is byte-identical to the exhaustive
  run's (pruning must never perturb what it keeps);
- the pruned fraction is exactly what was asked for.

Measured numbers are recorded to ``BENCH_sweeps.json`` alongside the
executor benchmarks.  ``COSERVE_BENCH_FULL_SCALE=1`` uses the paper's
full request counts.
"""

from __future__ import annotations

import os
import pickle
import time

from recorder import BENCH_SWEEPS_FILE, record_bench_result
from repro.experiments.base import EvaluationSettings
from repro.sweeps import HalvingConfig, HalvingRunner, SweepCell, SweepGrid, SweepRunner

#: Required wall-clock reduction of the pruned sweep (the ISSUE's floor).
MIN_PRUNE_SPEEDUP = 3.0

#: Fraction of each (device, task) group the surrogate stage cuts.
PRUNE_FRACTION = 0.75


def _full_scale() -> bool:
    return os.environ.get("COSERVE_BENCH_FULL_SCALE", "0") not in ("", "0", "false", "False")


def _settings() -> EvaluationSettings:
    return EvaluationSettings(
        full_scale=_full_scale(),
        reduced_requests=3500,
        devices=("numa",),
        task_names=("B2",),
    )


def _large_grid() -> SweepGrid:
    """~49 cells on one (device, task) pair.

    A single pair keeps board/model/matrix profiling identical across
    both timed runs, so the measured difference is purely
    simulate-everything vs simulate-survivors.
    """
    cells = [
        SweepCell.make(system, "numa", "B2")
        for system in (
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
    ]
    for scheduling_latency_ms in (0.0, 1.0, 2.0, 4.0, 8.0):
        for gpu_executors in (1, 2, 3, 4):
            cells.append(
                SweepCell.make(
                    "coserve-best",
                    "numa",
                    "B2",
                    scheduling_latency_ms=scheduling_latency_ms,
                    gpu_executors=gpu_executors,
                )
            )
    for gpu_expert_fraction in (0.25, 0.5, 0.6, 0.75, 0.9):
        for cpu_executors in (1, 2):
            cells.append(
                SweepCell.make(
                    "coserve-casual",
                    "numa",
                    "B2",
                    gpu_expert_fraction=gpu_expert_fraction,
                    cpu_executors=cpu_executors,
                )
            )
    for system in ("coserve-none", "coserve-em"):
        for gpu_executors in (1, 2, 3, 4):
            cells.append(
                SweepCell.make(system, "numa", "B2", gpu_executors=gpu_executors)
            )
    for scheduling_latency_ms in (0.0, 2.0):
        cells.append(
            SweepCell.make(
                "coserve", "numa", "B2", scheduling_latency_ms=scheduling_latency_ms
            )
        )
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


def _warm_caches() -> None:
    """Warm OS/profiling caches outside the timed regions.

    The first simulation of a (device, task) pair pays one-time costs
    (imports, profiled-matrix construction, page cache) that would land
    asymmetrically on whichever timed run goes first.
    """
    warm = EvaluationSettings(
        full_scale=False,
        reduced_requests=100,
        devices=("numa",),
        task_names=("B2",),
    )
    SweepRunner(settings=warm).run(
        SweepGrid.single(SweepCell.make("coserve", "numa", "B2"))
    )


def test_surrogate_prune_speedup():
    settings = _settings()
    grid = _large_grid()
    _warm_caches()

    start = time.perf_counter()
    exhaustive = SweepRunner(settings=settings).run(grid)
    exhaustive_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    pruned_runner = HalvingRunner(
        settings=settings,
        config=HalvingConfig(rungs=1, keep_fraction=1.0 - PRUNE_FRACTION),
    )
    pruned = pruned_runner.run(grid)
    pruned_elapsed = time.perf_counter() - start

    pruned_cells = [cell for cell in grid if pruned.is_pruned(cell)]
    survivors = [cell for cell in grid if not pruned.is_pruned(cell)]
    assert len(pruned_cells) == int(len(grid) * PRUNE_FRACTION)
    assert len(pruned) == len(exhaustive) == len(grid)

    for cell in survivors:
        assert pickle.dumps(pruned[cell]) == pickle.dumps(exhaustive[cell]), (
            f"surviving cell {cell.label()} diverged from the exhaustive run"
        )

    speedup = exhaustive_elapsed / pruned_elapsed
    print(
        f"\nsurrogate prune: exhaustive {exhaustive_elapsed:.2f}s, "
        f"pruned ({PRUNE_FRACTION:.0%}) {pruned_elapsed:.2f}s, "
        f"speedup {speedup:.2f}x "
        f"({len(grid)} cells, {len(survivors)} simulated)"
    )
    record_bench_result(
        "sweep_surrogate_prune",
        {
            "cells": len(grid),
            "pruned_cells": len(pruned_cells),
            "simulated_cells": len(survivors),
            "prune_fraction": PRUNE_FRACTION,
            "exhaustive_seconds": round(exhaustive_elapsed, 3),
            "pruned_seconds": round(pruned_elapsed, 3),
            "speedup": round(speedup, 3),
            "min_speedup_asserted": MIN_PRUNE_SPEEDUP,
        },
        path=BENCH_SWEEPS_FILE,
    )
    assert speedup >= MIN_PRUNE_SPEEDUP, (
        f"surrogate pruning speedup regressed: {speedup:.2f}x < {MIN_PRUNE_SPEEDUP}x "
        f"(exhaustive {exhaustive_elapsed:.2f}s, pruned {pruned_elapsed:.2f}s at "
        f"prune_fraction={PRUNE_FRACTION})"
    )
