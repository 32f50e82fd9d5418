"""cProfile driver for the engine's million-request hot paths.

Profiles the same workload shape as ``benchmarks/test_bench_engine_scale.py``
(one saturated GPU executor, scan-order stream, eviction kept hot) so
its output answers the question the benchmarks raise: *where* does the
remaining wall time go.  Three modes:

* ``generation`` — drain the vectorised spec stream (no serving);
* ``serving`` — a full arrival-cursor ``session.run()`` over a lazy
  stream (generation inlined, the production shape);
* ``preredesign`` — the preserved pre-PR pipeline (scalar reference
  generation + heap-seeded monolithic loop) for before/after diffs;
* ``sweep`` — a serial multi-system sweep over one (device, task)
  pair, optionally pruned (``--prune-fraction``, a one-rung ladder) or
  guided through the successive-halving ladder (``--halving-rungs`` /
  ``--halving-keep-fraction``), so the split between surrogate
  scoring, shared profiling, low-fidelity rungs, and per-cell
  simulation shows up in one stats table.

Usage::

    PYTHONPATH=src python tools/profile_engine.py --mode serving --requests 200000
    PYTHONPATH=src python tools/profile_engine.py --mode generation --reference
    PYTHONPATH=src python tools/profile_engine.py --mode serving --million --sort tottime
    PYTHONPATH=src python tools/profile_engine.py --mode sweep --prune-fraction 0.5
    PYTHONPATH=src python tools/profile_engine.py --mode sweep --halving-rungs 2

The profile prints to stdout; ``--output`` additionally dumps the raw
stats for ``snakeviz``/``pstats`` post-processing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from collections import deque


def _build_case():
    from repro.workload.circuit_board import build_inspection_model, make_board

    board = make_board("HP", component_types=120, detection_groups=12, detection_fraction=0.3)
    return board, build_inspection_model(board)


def _stream_kwargs(num_requests: int) -> dict:
    return dict(
        num_requests=num_requests,
        arrival_interval_ms=140.0,
        seed=17,
        order="scan",
        active_fraction=0.5,
    )


def _build_simulation(model):
    from repro.hardware.presets import make_numa_device
    from repro.hardware.processor import ProcessorKind
    from repro.hardware.units import GB
    from repro.policies.lru import LRUPolicy
    from repro.scheduling.fcfs import FCFSScheduling
    from repro.simulation.engine import ServingSimulation, SimulationOptions
    from repro.simulation.executor import ExecutorConfig

    return ServingSimulation(
        device=make_numa_device(),
        model=model,
        executor_configs=[ExecutorConfig("gpu-0", ProcessorKind.GPU, 8 * GB, 1 * GB)],
        scheduling_policy=FCFSScheduling(batch_size=8),
        eviction_policy=LRUPolicy(),
        options=SimulationOptions(keep_request_records=False, keep_stage_records=False),
    )


def _run_generation(board, model, num_requests: int, reference: bool) -> None:
    if reference:
        from repro.workload.generator_reference import iter_request_stream_reference as iterate
    else:
        from repro.workload.generator import iter_request_stream as iterate
    deque(iterate(board, model, **_stream_kwargs(num_requests)), maxlen=0)


def _run_serving(board, model, num_requests: int) -> None:
    from repro.workload.generator import RequestStream

    stream = RequestStream.lazy(board, model, **_stream_kwargs(num_requests))
    _build_simulation(model).session(stream).run()


def _run_preredesign(board, model, num_requests: int) -> None:
    from repro.simulation.reference import preredesign_run
    from repro.workload.generator import RequestStream
    from repro.workload.generator_reference import iter_request_stream_reference

    kwargs = _stream_kwargs(num_requests)
    stream = RequestStream(
        name=f"profile-{num_requests}",
        requests=tuple(iter_request_stream_reference(board, model, **kwargs)),
        arrival_interval_ms=kwargs["arrival_interval_ms"],
        board_name=board.name,
        seed=kwargs["seed"],
    )
    preredesign_run(_build_simulation(model), stream)


#: Sweep mode profiles every registered system on one (device, task)
#: pair — the same shape the sweep benchmarks time, small enough that
#: the profile turns around in seconds.
_SWEEP_SYSTEMS = (
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


def _run_sweep(
    num_requests: int,
    prune_fraction: float,
    halving_rungs=None,
    halving_keep_fraction: float = 0.5,
) -> None:
    from repro.experiments.base import EvaluationSettings
    from repro.sweeps import HalvingConfig, HalvingRunner, SweepCell, SweepGrid, SweepRunner

    settings = EvaluationSettings(
        full_scale=False,
        reduced_requests=num_requests,
        devices=("numa",),
        task_names=("A1",),
    )
    grid = SweepGrid.union(
        *(
            SweepGrid.single(SweepCell.make(system, "numa", "A1"))
            for system in _SWEEP_SYSTEMS
        )
    )
    if halving_rungs is not None:
        config = HalvingConfig(
            rungs=halving_rungs,
            keep_fraction=halving_keep_fraction,
            # Keep the cheap rungs cheap relative to the clamped count.
            min_requests=max(1, num_requests // 10),
        )
        HalvingRunner(settings=settings, config=config).run(grid)
    elif prune_fraction > 0.0:
        # The one-shot prune is a one-rung ladder.
        config = HalvingConfig(rungs=1, keep_fraction=1.0 - prune_fraction)
        HalvingRunner(settings=settings, config=config).run(grid)
    else:
        SweepRunner(settings=settings).run(grid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=("generation", "serving", "preredesign", "sweep"),
        default="serving",
        help="what to profile (default: serving — the production shape)",
    )
    parser.add_argument(
        "--requests", type=int, default=200_000, help="stream length (default: 200000)"
    )
    parser.add_argument(
        "--prune-fraction",
        type=float,
        default=0.0,
        help="sweep mode: surrogate-prune this fraction before simulating "
        "(a one-rung halving ladder)",
    )
    parser.add_argument(
        "--halving-rungs",
        type=int,
        default=None,
        help="sweep mode: run the grid through a successive-halving ladder "
        "of this many simulated rungs instead of one-shot pruning",
    )
    parser.add_argument(
        "--halving-keep-fraction",
        type=float,
        default=0.5,
        help="sweep mode: fraction of each group kept at every halving "
        "selection point (default: 0.5; requires --halving-rungs)",
    )
    parser.add_argument(
        "--million", action="store_true", help="shorthand for --requests 1000000"
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="generation mode: drain the preserved scalar reference instead",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (default: cumulative; try tottime)",
    )
    parser.add_argument(
        "--limit", type=int, default=30, help="rows of the stats table to print"
    )
    parser.add_argument(
        "--output", default=None, help="also dump raw stats to this file"
    )
    args = parser.parse_args(argv)

    num_requests = 1_000_000 if args.million else args.requests

    if args.mode == "sweep":
        # The sweep builds its own workloads; the request count is
        # clamped by the task definition, so pass something sweep-sized.
        num_requests = min(num_requests, 2_000)
        target = lambda: _run_sweep(
            num_requests,
            args.prune_fraction,
            halving_rungs=args.halving_rungs,
            halving_keep_fraction=args.halving_keep_fraction,
        )
    else:
        board, model = _build_case()
        if args.mode == "generation":
            target = lambda: _run_generation(board, model, num_requests, args.reference)
        elif args.mode == "serving":
            target = lambda: _run_serving(board, model, num_requests)
        else:
            target = lambda: _run_preredesign(board, model, num_requests)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    target()
    profiler.disable()
    elapsed = time.perf_counter() - start

    label = args.mode + (" (reference)" if args.mode == "generation" and args.reference else "")
    print(f"{label}: {num_requests} requests in {elapsed:.2f} s (instrumented)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw stats written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
