"""Declarative sweep grids and the pluggable experiment runner.

The paper's figures replay hundreds of independent (system, device,
task, overrides) simulations.  This package turns that replay into
data:

- :class:`SweepCell` / :class:`SweepGrid` declare *what* to simulate;
- :class:`SweepRunner` executes a grid behind the
  :class:`SweepExecutor` strategy interface — in-process
  (:class:`SerialExecutor`), across a local process pool
  (:class:`ProcessPoolExecutor`, the CLI's ``--jobs N``), or sharded
  over worker hosts (:class:`DistributedExecutor`, the CLI's
  ``--hosts``) — and streams ``(cell, result)`` pairs through
  ``run_iter`` as they complete;
- :class:`SweepResults` stores outcomes keyed by cell so every figure
  assembles its rows from one shared, deduplicated execution —
  byte-identical whichever executor ran it;
- :class:`SweepCache` persists executed cells on disk, keyed by cell
  identity plus a settings fingerprint, so repeated regenerations skip
  already-simulated cells across processes and invocations; it doubles
  as the shared result store of distributed sweeps (workers write, the
  coordinator verifies-on-load).

Surrogate-guided sweeps run through :class:`HalvingRunner`
(:mod:`repro.sweeps.halving`), a successive-halving rung ladder on top
of :class:`SweepRunner`: rung 0 scores every cell with
:mod:`repro.surrogate`'s queueing model and drops the predictably-bad
ones (aborted placeholder results, never simulated, never cached),
optional measured low-fidelity rungs (reduced ``num_requests``
overrides) re-rank survivors and recalibrate the surrogate, and a
final full-fidelity rung is byte-identical to an exhaustive run.  A
one-rung ladder (``HalvingConfig(rungs=1, keep_fraction=1 - f)``) is
the one-shot prune.

The distributed worker process lives in :mod:`repro.sweeps.worker`
(console script ``coserve-sweep-worker``); ``docs/sweeps.md`` has a
runnable multi-host walkthrough.
"""

from repro.sweeps.spec import FIDELITY_OVERRIDE_KEY, SweepCell, SweepGrid
from repro.sweeps.cache import PRUNED_ABORT_PREFIX, SweepCache, settings_fingerprint
from repro.sweeps.halving import HalvingConfig, HalvingRunner, RungPlan
from repro.sweeps.results import SweepResults
from repro.sweeps.runner import (
    ProcessPoolExecutor,
    SerialExecutor,
    SweepExecutor,
    SweepRunner,
    batch_cells,
    ensure_results,
    execute_cell,
)
from repro.sweeps.distributed import DistributedExecutor, parse_hosts

__all__ = [
    "DistributedExecutor",
    "FIDELITY_OVERRIDE_KEY",
    "HalvingConfig",
    "HalvingRunner",
    "PRUNED_ABORT_PREFIX",
    "ProcessPoolExecutor",
    "RungPlan",
    "SerialExecutor",
    "SweepCell",
    "SweepExecutor",
    "SweepGrid",
    "SweepCache",
    "SweepResults",
    "SweepRunner",
    "batch_cells",
    "ensure_results",
    "execute_cell",
    "parse_hosts",
    "settings_fingerprint",
]
