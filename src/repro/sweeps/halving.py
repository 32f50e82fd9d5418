"""Guided multi-fidelity sweeps: the successive-halving scheduler.

This is the one place where the queueing surrogate steers which cells
a sweep simulates.  :class:`HalvingRunner` runs a grid through a *rung
ladder*:

1. **Rung 0 (free)** — every cell is scored by the
   :class:`~repro.surrogate.model.QueueingSurrogate`; cells predicted
   to miss the optional ``slo_ms`` target are dropped, then each
   (device, task) group keeps its predicted-best ``keep_fraction``.
2. **Low-fidelity rungs** — survivors are simulated at a reduced
   request count (geometrically escalating from ``min_requests`` toward
   full fidelity).  Rung cells are ordinary
   :class:`~repro.sweeps.spec.SweepCell`s carrying a
   :meth:`~repro.sweeps.spec.SweepCell.at_fidelity` override, so rung
   rows flow through the unchanged cache/executor machinery — they
   cache under their own identity and distribute across ``--jobs``
   pools or ``--hosts`` fleets like any other cell.  After each rung
   the survivors are **re-ranked on measured makespans** (prediction
   error can no longer drop a cell the measurements like) and the
   surrogate's calibration constants are **refit from the rung's
   (predicted, measured) pairs**
   (:meth:`~repro.surrogate.model.QueueingSurrogate.recalibrated`).
3. **Final rung** — the remaining cells run at full fidelity with no
   override, byte-identical to an exhaustive run of the same cells.

A one-rung ladder (``rungs=1``) is the one-shot surrogate prune: the
experiments CLI turns ``--prune-fraction f`` / ``--prune-slo-ms`` into
``HalvingConfig(rungs=1, keep_fraction=1 - f, slo_ms=...)``.

Dropped cells keep aborted placeholder rows (never cached), annotated
with the rung that dropped them; pinned cells ride through every rung
un-droppable.  The cache is read only through each rung's
:meth:`~repro.sweeps.runner.SweepRunner.run_iter`, never to decide what
gets ranked, so the rows depend on the grid, the settings and the
config alone — a warm rerun returns the cold run's rows.  A
:class:`~repro.surrogate.validation.DriftReport` recording
predicted-vs-measured error per rung lands on the results store
(:attr:`~repro.sweeps.results.SweepResults.drift_report`) and flows
into the CLI's figure tables and JSON output.

Compared to a one-rung ladder at the same final cell count, a measured
rung buys its confidence cheaply: ranking mistakes are corrected by
low-fidelity *measurements* costing a few percent of a full simulation,
so the full-fidelity budget shrinks to the genuinely contested cells —
``benchmarks/test_bench_sweep_halving.py`` guards the resulting
wall-clock win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.simulation.results import SimulationResult
from repro.surrogate import (
    DriftReport,
    QueueingSurrogate,
    RungDrift,
    extract_features,
    rung_drift,
)
from repro.sweeps.cache import PRUNED_ABORT_PREFIX, SweepCache
from repro.sweeps.results import SweepResults
from repro.sweeps.runner import SerialExecutor, SweepExecutor, SweepRunner
from repro.sweeps.spec import CellKey, SweepCell, SweepGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import EvaluationContext, EvaluationSettings
    from repro.surrogate.features import CellFeatures
    from repro.surrogate.model import SurrogateEstimate


def _pruned_placeholder(
    cell: SweepCell,
    features: "CellFeatures",
    estimate: "SurrogateEstimate",
    reason: str,
) -> SimulationResult:
    """A synthetic aborted result standing in for a dropped cell's run.

    The whole-run aggregates are the surrogate's predictions (so reports
    still show a ranked number for the cell) and the per-executor
    breakdown is empty — nothing was simulated at full fidelity.  The
    ``abort_reason`` prefix is what :meth:`SweepCache.store` refuses,
    keeping placeholders out of the on-disk cache.
    """
    return SimulationResult(
        system_name=cell.system,
        device_name=cell.device,
        workload_name=cell.task,
        num_requests=features.num_requests,
        makespan_ms=estimate.makespan_ms,
        total_execution_ms=estimate.exec_work_ms,
        total_switching_ms=estimate.switch_work_ms,
        total_scheduling_ms=estimate.sched_work_ms,
        expert_loads=estimate.predicted_loads,
        expert_switches=estimate.predicted_loads,
        loads_from_ssd=0,
        loads_from_cache=0,
        executors=(),
        aborted=True,
        abort_reason=f"{PRUNED_ABORT_PREFIX}: {reason}",
    )


@dataclass(frozen=True, slots=True)
class HalvingConfig:
    """Shape of a successive-halving schedule.

    Parameters
    ----------
    rungs:
        Number of *simulated* rungs.  ``1`` is the one-shot surrogate
        prune: the rung-0 cut, then full fidelity; ``2`` (the
        default) inserts one measured low-fidelity rung between the
        surrogate and the final full-fidelity rung; higher values add
        intermediate fidelities on a geometric ramp.
    keep_fraction:
        Fraction of each (device, task) group's unpinned cells escalated
        past each selection point (one after the surrogate scoring, one
        after each low-fidelity rung).  At least one unpinned cell per
        group always survives the fractional cut; pinned cells are
        never dropped.  Each cut keeps ``ceil(unpinned * keep_fraction)``
        cells.
    min_requests:
        Request count of the cheapest simulated rung.  Later rungs
        escalate geometrically toward each task's full count; a rung
        whose computed count reaches the full count simply runs at full
        fidelity (no override), and its rows are carried into the final
        rung rather than re-simulated.
    percentile:
        Latency percentile the rung-0 surrogate ranking and ``slo_ms``
        cut read (the CLI's ``--prune-percentile``; measured rungs rank
        on makespan).
    slo_ms:
        Optional rung-0 SLO cut (the CLI's ``--prune-slo-ms``): every
        unpinned cell whose predicted ``percentile`` latency exceeds
        this target is dropped before the fractional cut, which then
        applies to what remains — an impossible target can drop every
        unpinned cell of a group.
    recalibrate:
        Refit the surrogate's calibration constants from each measured
        rung's (predicted, measured) pairs.  On by default; disable to
        measure how much auto-recalibration buys.
    """

    rungs: int = 2
    keep_fraction: float = 0.5
    min_requests: int = 150
    percentile: float = 99.0
    slo_ms: Optional[float] = None
    recalibrate: bool = True

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ValueError("rungs must be at least 1 (the full-fidelity rung)")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be within (0, 1]")
        if self.min_requests < 1:
            raise ValueError("min_requests must be a positive request count")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be within (0, 100]")
        if self.slo_ms is not None and self.slo_ms <= 0.0:
            raise ValueError("slo_ms must be positive")

    def request_count(self, rung: int, full_requests: int) -> Optional[int]:
        """The request count of ``rung`` (1-based) for a task's full count.

        Counts escalate geometrically from ``min_requests`` (rung 1) to
        the full count (the final rung, returned as ``None`` — no
        override).  A computed count at or above full fidelity also
        returns ``None``.
        """
        if rung < 1 or rung > self.rungs:
            raise ValueError(f"rung must be within [1, {self.rungs}]")
        if rung == self.rungs or self.min_requests >= full_requests:
            return None
        steps = self.rungs - 1
        ratio = (full_requests / self.min_requests) ** ((rung - 1) / steps)
        count = int(round(self.min_requests * ratio))
        if count >= full_requests:
            return None
        return max(self.min_requests, count)


@dataclass(frozen=True, slots=True)
class RungPlan:
    """One executed rung, for introspection and tests.

    ``cells`` are the cell keys alive when the rung started (rung 0 is
    the surrogate scoring pass over every to-run cell) and
    ``request_counts`` the per-cell fidelity each ran at — ``None``
    meaning no override: analytically scored on rung 0, full fidelity on
    later rungs.  Successive plans shrink monotonically: each rung's
    cell set is a subset of the previous rung's.
    """

    rung: int
    cells: Tuple[CellKey, ...]
    request_counts: Tuple[Optional[int], ...]


class HalvingRunner:
    """Execute a grid through a successive-halving rung ladder.

    Construction mirrors :class:`~repro.sweeps.runner.SweepRunner` —
    the same ``jobs``/``hosts``/``executor`` knobs pick the backend that
    executes each rung's cells, the same ``cache`` persists every
    genuinely simulated row (full- and low-fidelity alike, under their
    own identities) — plus a :class:`HalvingConfig` describing the
    ladder.

    ``run``/``run_iter`` keep the runner contract: every yielded
    ``(cell, result)`` pair is a cell of the *caller's* grid (cache
    hits, dropped-cell placeholders, final-fidelity rows) already added
    to the results store; low-fidelity rung rows stay internal (and in
    the cache).  After a run, :attr:`last_schedule` holds the executed
    :class:`RungPlan` ladder and the results store carries a
    :class:`~repro.surrogate.validation.DriftReport`.
    """

    def __init__(
        self,
        settings: Optional["EvaluationSettings"] = None,
        jobs: int = 1,
        context: Optional["EvaluationContext"] = None,
        cache: Optional[SweepCache] = None,
        hosts: Optional[Sequence[str]] = None,
        executor: Optional[SweepExecutor] = None,
        config: Optional[HalvingConfig] = None,
    ) -> None:
        self.config = config if config is not None else HalvingConfig()
        self._runner = SweepRunner(
            settings=settings,
            jobs=jobs,
            context=context,
            cache=cache,
            hosts=hosts,
            executor=executor,
        )
        self.settings = self._runner.settings
        #: The rung ladder of the most recent ``run``/``run_iter``.
        self.last_schedule: List[RungPlan] = []

    @property
    def executor(self) -> SweepExecutor:
        """The executor every rung's cells are dispatched through."""
        return self._runner.executor

    # ------------------------------------------------------------------
    def _scoring_context(self) -> "EvaluationContext":
        """A context for feature extraction (shared with serial executors).

        Feature extraction builds systems but runs no events, so it is
        milliseconds per cell; sharing the serial executor's context (or
        seeding it with ours) means the artefacts are built once either
        way.  Pool/distributed executors keep their own worker contexts
        — scoring just needs any local one.
        """
        from repro.experiments.base import EvaluationContext

        executor = self.executor
        context = getattr(executor, "_context", None)
        if context is None:
            context = EvaluationContext(self.settings)
            if isinstance(executor, SerialExecutor):
                executor._context = context
        return context

    def _full_requests(self, context: "EvaluationContext", task_name: str) -> int:
        """A task's full-fidelity request count under the runner's settings."""
        return self.settings.requests_for(context.task(task_name))

    def _select(
        self,
        alive: List[SweepCell],
        scores: Dict[CellKey, float],
        order: Dict[CellKey, int],
        limit: Optional[float] = None,
    ) -> Tuple[List[SweepCell], List[SweepCell]]:
        """Split ``alive`` into survivors and dropped cells, per group.

        Lower score is better (predicted tail latency on rung 0,
        measured makespan afterwards).  Unpinned cells scoring above
        ``limit`` are dropped outright; of the rest, each (device, task)
        group keeps ``ceil(unpinned * keep_fraction)`` (at least one)
        plus every pinned cell.  Ties break on grid order — the earlier
        cell is kept — so the selection is deterministic and
        backend-independent.
        """
        groups: Dict[Tuple[str, str], List[SweepCell]] = {}
        for cell in alive:
            groups.setdefault((cell.device, cell.task), []).append(cell)
        kept_keys: Dict[CellKey, None] = {}
        for group in groups.values():
            unpinned = [
                cell
                for cell in group
                if not cell.pin and (limit is None or scores[cell.key] <= limit)
            ]
            for cell in group:
                if cell.pin:
                    kept_keys[cell.key] = None
            if not unpinned:
                continue
            keep = max(1, math.ceil(len(unpinned) * self.config.keep_fraction))
            ranked = sorted(unpinned, key=lambda c: (scores[c.key], order[c.key]))
            for cell in ranked[:keep]:
                kept_keys[cell.key] = None
        survivors = [cell for cell in alive if cell.key in kept_keys]
        dropped = [cell for cell in alive if cell.key not in kept_keys]
        return survivors, dropped

    # ------------------------------------------------------------------
    def run(
        self, grid: SweepGrid, results: Optional[SweepResults] = None
    ) -> SweepResults:
        """Execute the rung ladder over ``grid``, draining :meth:`run_iter`."""
        results = results if results is not None else SweepResults()
        for _ in self.run_iter(grid, results=results):
            pass
        return results

    def run_iter(
        self, grid: SweepGrid, results: Optional[SweepResults] = None
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Execute a grid through the ladder, yielding grid cells as resolved.

        Yield order: each selection point's dropped-cell placeholders as
        rungs complete, then final-rung rows (cache hits first, then the
        backend's completion order).  Exactly the grid cells missing
        from ``results`` at entry are yielded, which is what CLI
        progress counts rely on; low-fidelity rung rows are internal
        (but cached, so a repeated guided sweep simulates nothing).
        Every missing cell is ranked whether or not the cache holds it,
        so the rows never depend on what the cache holds.
        """
        results = results if results is not None else SweepResults()
        self.last_schedule = []
        todo = results.missing(grid)
        if not todo:
            return

        context = self._scoring_context()
        surrogate = QueueingSurrogate()
        q = self.config.percentile
        order = {cell.key: index for index, cell in enumerate(todo)}

        # ------------------------------------------------------------------
        # Rung 0: analytical scoring, free of simulation.
        # ------------------------------------------------------------------
        features_full: Dict[CellKey, "CellFeatures"] = {}
        scores: Dict[CellKey, float] = {}
        for cell in todo:
            features = extract_features(context, cell)
            features_full[cell.key] = features
            estimate = surrogate.estimate(features)
            results.record_estimate(cell, estimate)
            scores[cell.key] = estimate.latency_ms(q)
        self.last_schedule.append(
            RungPlan(0, tuple(cell.key for cell in todo), (None,) * len(todo))
        )
        slo_ms = self.config.slo_ms
        alive, dropped = self._select(todo, scores, order, limit=slo_ms)
        for cell in dropped:
            predicted = f"predicted p{q:g} latency {scores[cell.key]:.0f} ms"
            if slo_ms is not None and scores[cell.key] > slo_ms:
                verdict = f"exceeds the {slo_ms:g} ms target"
            else:
                verdict = (
                    f"ranks outside the kept {self.config.keep_fraction:.0%} "
                    "of its (device, task) group"
                )
            reason = f"successive halving dropped it at rung 0: {predicted} {verdict}"
            placeholder = _pruned_placeholder(
                cell, features_full[cell.key], results.estimate_for(cell), reason
            )
            if results.add(cell, placeholder):
                results.mark_pruned(cell)
                yield cell, placeholder

        # ------------------------------------------------------------------
        # Low-fidelity rungs: simulate, re-rank on measurements, refit.
        # ------------------------------------------------------------------
        drift_rungs: List[RungDrift] = []
        full_rows: Dict[CellKey, SimulationResult] = {}
        for rung in range(1, self.config.rungs):
            rung_cells: Dict[CellKey, SweepCell] = {}
            rung_counts: List[Optional[int]] = []
            for cell in alive:
                count = self.config.request_count(
                    rung, self._full_requests(context, cell.task)
                )
                rung_counts.append(count)
                rung_cells[cell.key] = (
                    cell if count is None else cell.at_fidelity(count)
                )
            self.last_schedule.append(
                RungPlan(rung, tuple(cell.key for cell in alive), tuple(rung_counts))
            )
            rung_results = SweepResults()
            rung_grid = SweepGrid(tuple(rung_cells.values()))
            for _ in self._runner.run_iter(rung_grid, results=rung_results):
                pass
            measured: Dict[CellKey, SimulationResult] = {}
            pairs: List[Tuple["CellFeatures", SimulationResult]] = []
            estimates = []
            for cell in alive:
                rung_cell = rung_cells[cell.key]
                row = rung_results[rung_cell]
                measured[cell.key] = row
                if rung_cell.key == cell.key:
                    # The ramp reached full fidelity early for this
                    # task: the row *is* the final-rung row; carry it
                    # forward instead of re-simulating.
                    full_rows[cell.key] = row
                    rung_features = features_full[cell.key]
                else:
                    rung_features = extract_features(context, rung_cell)
                pairs.append((rung_features, row))
                estimates.append(surrogate.estimate(rung_features))
            recalibrated = False
            if self.config.recalibrate:
                refit = surrogate.recalibrated(pairs)
                recalibrated = refit is not surrogate
                surrogate = refit
                if recalibrated:
                    for cell in alive:
                        results.record_estimate(
                            cell, surrogate.estimate(features_full[cell.key])
                        )
            drift_rungs.append(
                rung_drift(
                    rung,
                    rung_counts[0] if rung_counts else None,
                    list(zip(estimates, (measured[c.key] for c in alive))),
                    recalibrated=recalibrated,
                )
            )
            scores = {key: row.makespan_ms for key, row in measured.items()}
            alive, dropped = self._select(alive, scores, order)
            for cell in dropped:
                count = rung_cells[cell.key].fidelity
                fidelity = "full fidelity" if count is None else f"{count} requests"
                reason = (
                    f"successive halving dropped it at rung {rung}: measured "
                    f"makespan {scores[cell.key]:.0f} ms at {fidelity} ranks "
                    f"outside the kept {self.config.keep_fraction:.0%} of its "
                    "(device, task) group"
                )
                placeholder = _pruned_placeholder(
                    cell, features_full[cell.key], results.estimate_for(cell), reason
                )
                if results.add(cell, placeholder):
                    results.mark_pruned(cell)
                    yield cell, placeholder

        # ------------------------------------------------------------------
        # Final rung: full fidelity, byte-identical to an exhaustive run.
        # ------------------------------------------------------------------
        self.last_schedule.append(
            RungPlan(
                self.config.rungs,
                tuple(cell.key for cell in alive),
                (None,) * len(alive),
            )
        )
        for cell in alive:
            carried = full_rows.get(cell.key)
            if carried is not None and results.add(cell, carried):
                yield cell, carried
        final_grid = SweepGrid(tuple(cell for cell in alive if cell.key not in full_rows))
        for cell, result in self._runner.run_iter(final_grid, results=results):
            yield cell, result
        final_pairs = [
            (results.estimate_for(cell), results[cell]) for cell in alive
        ]
        drift_rungs.append(
            rung_drift(self.config.rungs, None, final_pairs)
        )
        results.set_drift_report(DriftReport(percentile=q, rungs=tuple(drift_rungs)))

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        self._runner.close()
