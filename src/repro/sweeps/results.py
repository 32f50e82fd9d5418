"""Keyed store for sweep outcomes.

:class:`SweepResults` maps :class:`~repro.sweeps.spec.SweepCell` keys to
:class:`~repro.simulation.results.SimulationResult` objects.  Experiment
modules assemble their rows by looking cells up here instead of calling
the simulator directly, which is what lets one execution of the unioned
grid feed every figure.

Surrogate-guided sweeps (pruned or halving) annotate the store further: every
scored cell can carry its
:class:`~repro.surrogate.model.SurrogateEstimate` alongside the
simulated result, and cells the surrogate pruned are marked so reports
can separate predicted-only placeholders from simulated rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.simulation.results import SimulationResult
from repro.sweeps.spec import CellKey, SweepCell, SweepGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.model import SurrogateEstimate
    from repro.surrogate.validation import DriftReport


class SweepResults:
    """Results of executed sweep cells, keyed by cell identity.

    Repeated additions of the same cell are deduplicated: the first
    stored result wins, so merging the outcome of overlapping grids is
    idempotent.
    """

    def __init__(self) -> None:
        self._by_key: Dict[CellKey, SimulationResult] = {}
        self._estimates: Dict[CellKey, "SurrogateEstimate"] = {}
        self._pruned: Set[CellKey] = set()
        self._drift: Optional["DriftReport"] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, cell: SweepCell, result: SimulationResult) -> bool:
        """Store one cell's result; returns False if the cell was present."""
        if cell.key in self._by_key:
            return False
        self._by_key[cell.key] = result
        return True

    def merge(self, other: "SweepResults") -> None:
        """Fold another store in; on overlap this store's result wins."""
        for key, result in other._by_key.items():
            if key not in self._by_key:
                self._by_key[key] = result
                # The pruned mark travels with the winning result.
                if key in other._pruned:
                    self._pruned.add(key)
        for key, estimate in other._estimates.items():
            self._estimates.setdefault(key, estimate)
        if self._drift is None:
            self._drift = other._drift

    def record_estimate(self, cell: SweepCell, estimate: "SurrogateEstimate") -> None:
        """Attach a surrogate estimate to a cell (simulated or not)."""
        self._estimates[cell.key] = estimate

    def mark_pruned(self, cell: SweepCell) -> None:
        """Flag the cell's stored result as a surrogate-pruned placeholder."""
        self._pruned.add(cell.key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, system: str, device: str, task: str, **overrides: object) -> SimulationResult:
        """Look one cell up by coordinates (the figure-module API)."""
        return self[SweepCell.make(system, device, task, **overrides)]

    def __getitem__(self, cell: SweepCell) -> SimulationResult:
        try:
            return self._by_key[cell.key]
        except KeyError:
            raise KeyError(f"no result for sweep cell {cell.label()}") from None

    def __contains__(self, cell: SweepCell) -> bool:
        return cell.key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[CellKey]:
        return iter(self._by_key)

    def missing(self, grid: SweepGrid) -> List[SweepCell]:
        """Cells of ``grid`` that have no stored result yet."""
        return [cell for cell in grid if cell.key not in self._by_key]

    def items(self) -> Iterator[Tuple[CellKey, SimulationResult]]:
        """Iterate ``(cell key, result)`` pairs in insertion order."""
        return iter(self._by_key.items())

    # ------------------------------------------------------------------
    # Early-abort and pruning markers
    # ------------------------------------------------------------------
    def is_aborted(self, cell: SweepCell) -> bool:
        """Whether the cell's stored run stopped early (e.g. SLO abort)."""
        return self[cell].aborted

    def aborted_keys(self) -> List[CellKey]:
        """Keys of every stored cell whose run stopped early.

        Sweep-level early aborts (cells declaring ``slo_target_ms``)
        store the partial result of the violated run; this surfaces
        them so harnesses and reports can separate doomed cells from
        completed ones.  Surrogate-pruned placeholders are aborted too;
        :meth:`pruned_keys` narrows to just those.
        """
        return [key for key, result in self._by_key.items() if result.aborted]

    def is_pruned(self, cell: SweepCell) -> bool:
        """Whether the cell's stored result is a surrogate-pruned placeholder."""
        return cell.key in self._pruned

    def pruned_keys(self) -> List[CellKey]:
        """Keys whose stored result was predicted, not simulated."""
        return [key for key in self._by_key if key in self._pruned]

    def estimate_for(self, cell: SweepCell) -> Optional["SurrogateEstimate"]:
        """The cell's surrogate estimate, if the sweep scored it."""
        return self._estimates.get(cell.key)

    def estimates(self) -> Iterator[Tuple[CellKey, "SurrogateEstimate"]]:
        """Iterate ``(cell key, estimate)`` pairs in recording order."""
        return iter(self._estimates.items())

    # ------------------------------------------------------------------
    # Guided-sweep drift
    # ------------------------------------------------------------------
    def set_drift_report(self, report: "DriftReport") -> None:
        """Attach the guided sweep's predicted-vs-measured drift report."""
        self._drift = report

    @property
    def drift_report(self) -> Optional["DriftReport"]:
        """Per-rung predicted-vs-measured drift of a guided sweep, if any.

        Set by :class:`~repro.sweeps.halving.HalvingRunner` after its
        final rung; the experiments CLI surfaces it in the figure tables
        and ``--format json`` output.
        """
        return self._drift
