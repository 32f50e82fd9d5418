"""Analytical queueing surrogate for sweep design-space pruning.

This package predicts a sweep cell's serving metrics — throughput,
makespan, latency percentiles — in microseconds of arithmetic instead
of seconds of discrete-event simulation, from inputs the repository
already computes: the :class:`~repro.core.profiler.OfflineProfiler`'s
per-architecture latency fits and loading latencies, the preload plans
of the built serving system, and the request stream's exact stage mix.

Three modules:

* :mod:`repro.surrogate.features` — probe a cell's built system (no
  events processed) into an arrival-rate-independent
  :class:`~repro.surrogate.features.CellFeatures` bundle;
* :mod:`repro.surrogate.model` — the
  :class:`~repro.surrogate.model.QueueingSurrogate`, an M/G/k-style
  work-decomposition model with an overload ramp, monotone in arrival
  rate by construction;
* :mod:`repro.surrogate.validation` — per-grid fidelity reports
  (Spearman rank correlation + relative-error quantiles) against full
  simulation, asserted by ``tests/test_surrogate.py``, plus the
  :class:`~repro.surrogate.validation.DriftReport` guided sweeps use to
  surface predicted-vs-measured drift per rung.

The sweep layer consumes this package in one place:
:class:`~repro.sweeps.halving.HalvingRunner`, the successive-halving
scheduler whose rung 0 ranks cells on this model's predictions (a
one-rung ladder is the one-shot prune behind the CLI's
``--prune-fraction`` / ``--prune-slo-ms``) and whose measured rungs
refit the model's calibration constants via
:meth:`~repro.surrogate.model.QueueingSurrogate.recalibrated`; see the
"One-shot pruned sweeps" and "Guided successive-halving sweeps"
sections of ``docs/sweeps.md``.
"""

from repro.surrogate.features import CellFeatures, StageClass, extract_features
from repro.surrogate.model import (
    ESTIMATE_PERCENTILES,
    RECALIBRATION_BATCH_PRESSURES,
    RECALIBRATION_ETAS,
    QueueingSurrogate,
    SurrogateEstimate,
)
from repro.surrogate.validation import (
    CellValidation,
    DriftReport,
    GridValidationReport,
    RungDrift,
    rung_drift,
    spearman_rank_correlation,
    validate_grid,
    validate_grids,
)

__all__ = [
    "CellFeatures",
    "StageClass",
    "extract_features",
    "ESTIMATE_PERCENTILES",
    "RECALIBRATION_BATCH_PRESSURES",
    "RECALIBRATION_ETAS",
    "QueueingSurrogate",
    "SurrogateEstimate",
    "CellValidation",
    "DriftReport",
    "GridValidationReport",
    "RungDrift",
    "rung_drift",
    "spearman_rank_correlation",
    "validate_grid",
    "validate_grids",
]
