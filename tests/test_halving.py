"""Tests for the successive-halving sweep scheduler.

The contracts pinned here are the ones that make guided sweeps safe to
substitute for exhaustive ones:

1. **Schedule shape** — the rung ladder is monotone (each rung's cell
   set is a subset of the previous rung's) and pinned cells ride
   through every rung un-droppable.
2. **Row fidelity** — final-rung rows are byte-identical to an
   exhaustive run of the same cells, on every executor backend
   (serial, ``jobs=2`` process pool, two distributed workers), and the
   surviving set itself is backend-independent.
3. **Recalibration** — refitting the surrogate from measured rung rows
   never worsens Spearman rank correlation on those same rows.
4. **Cache hygiene** — dropped-cell placeholders are refused by the
   on-disk cache, while genuinely simulated rows (full- and
   low-fidelity alike) cache and reload normally.
"""

import dataclasses
import pickle

import pytest

from repro.experiments.base import EvaluationContext, EvaluationSettings
from repro.surrogate import QueueingSurrogate, extract_features, spearman_rank_correlation
from repro.sweeps import (
    FIDELITY_OVERRIDE_KEY,
    HalvingConfig,
    HalvingRunner,
    PRUNED_ABORT_PREFIX,
    SweepCache,
    SweepCell,
    SweepGrid,
    SweepRunner,
)
from repro.sweeps.worker import spawn_local_workers

TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1", "A2"),
)

_SYSTEMS = (
    "coserve",
    "samba-coe",
    "samba-coe-fifo",
    "samba-coe-parallel",
    "coserve-none",
    "coserve-em",
)

#: Two simulated rungs with a cheap 40-request first rung: rung 0 keeps
#: ceil(5 * 0.5) = 3 unpinned + 1 pinned, rung 1 keeps ceil(3 * 0.5) = 2
#: unpinned + 1 pinned, so the final rung simulates 3 of 6 cells.
_CONFIG = HalvingConfig(rungs=2, keep_fraction=0.5, min_requests=40)


def _grid(pin_first: bool = True) -> SweepGrid:
    cells = [SweepCell.make(system, "numa", "A1") for system in _SYSTEMS]
    if pin_first:
        cells[0] = cells[0].pinned()
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


@pytest.fixture(scope="module")
def context():
    return EvaluationContext(TINY_SETTINGS)


@pytest.fixture(scope="module")
def exhaustive_results():
    return SweepRunner(settings=TINY_SETTINGS).run(_grid())


@pytest.fixture(scope="module")
def halving_run(context):
    runner = HalvingRunner(context=context, config=_CONFIG)
    results = runner.run(_grid())
    return runner, results


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="rungs"):
            HalvingConfig(rungs=0)
        with pytest.raises(ValueError, match="keep_fraction"):
            HalvingConfig(keep_fraction=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            HalvingConfig(keep_fraction=1.5)
        with pytest.raises(ValueError, match="min_requests"):
            HalvingConfig(min_requests=0)
        with pytest.raises(ValueError, match="percentile"):
            HalvingConfig(percentile=0.0)

    def test_request_counts_escalate_geometrically(self):
        config = HalvingConfig(rungs=3, min_requests=100)
        first = config.request_count(1, 10_000)
        second = config.request_count(2, 10_000)
        assert first == 100
        assert second == 1000  # sqrt step of the 100 -> 10000 ramp
        assert config.request_count(3, 10_000) is None  # final rung: full

    def test_counts_clamp_to_full_fidelity(self):
        config = HalvingConfig(rungs=2, min_requests=500)
        # min_requests at or above the full count: no override at all.
        assert config.request_count(1, 120) is None
        with pytest.raises(ValueError, match="rung"):
            config.request_count(3, 120)


class TestFidelityOverride:
    def test_at_fidelity_changes_identity(self):
        cell = SweepCell.make("coserve", "numa", "A1")
        reduced = cell.at_fidelity(40)
        assert reduced.key != cell.key
        assert reduced.fidelity == 40
        assert cell.fidelity is None
        assert dict(reduced.overrides)[FIDELITY_OVERRIDE_KEY] == 40

    def test_at_fidelity_rejects_non_positive_counts(self):
        cell = SweepCell.make("coserve", "numa", "A1")
        with pytest.raises(ValueError, match="positive"):
            cell.at_fidelity(0)

    def test_reduced_cell_simulates_fewer_requests(self):
        cell = SweepCell.make("coserve", "numa", "A1").at_fidelity(40)
        result = SweepRunner(settings=TINY_SETTINGS).run(SweepGrid.single(cell))[cell]
        assert result.num_requests == 40


class TestSchedule:
    def test_rung_cell_sets_shrink_monotonically(self, halving_run):
        runner, _ = halving_run
        schedule = runner.last_schedule
        assert len(schedule) == _CONFIG.rungs + 1  # scoring + simulated rungs
        for earlier, later in zip(schedule, schedule[1:]):
            assert set(later.cells) <= set(earlier.cells)
            assert len(later.cells) < len(earlier.cells)

    def test_rung_fidelities_escalate(self, halving_run):
        runner, _ = halving_run
        schedule = runner.last_schedule
        assert set(schedule[0].request_counts) == {None}  # surrogate scoring
        assert set(schedule[1].request_counts) == {40}
        assert set(schedule[-1].request_counts) == {None}  # full fidelity

    def test_pinned_cells_survive_every_rung(self, halving_run):
        runner, results = halving_run
        pinned = next(cell for cell in _grid() if cell.pin)
        for plan in runner.last_schedule:
            assert pinned.key in plan.cells
        assert not results.is_pruned(pinned)
        assert not results[pinned].aborted


class TestRows:
    def test_every_grid_cell_gets_a_row(self, halving_run):
        _, results = halving_run
        grid = _grid()
        assert len(results) == len(grid)
        assert len(results.pruned_keys()) == 3
        for cell in grid:
            assert results.estimate_for(cell) is not None

    def test_dropped_cells_keep_annotated_placeholders(self, halving_run):
        _, results = halving_run
        for cell in _grid():
            if results.is_pruned(cell):
                row = results[cell]
                assert row.aborted
                assert row.abort_reason.startswith(PRUNED_ABORT_PREFIX)
                assert "rung" in row.abort_reason

    def test_final_rows_byte_identical_to_exhaustive(self, halving_run, exhaustive_results):
        _, results = halving_run
        survivors = [cell for cell in _grid() if not results.is_pruned(cell)]
        assert survivors
        for cell in survivors:
            assert pickle.dumps(results[cell]) == pickle.dumps(exhaustive_results[cell])

    def test_run_iter_yields_exactly_the_grid(self, context):
        runner = HalvingRunner(context=context, config=_CONFIG)
        grid = _grid()
        yielded = list(runner.run_iter(grid))
        assert len(yielded) == len(grid)
        assert {cell.key for cell, _ in yielded} == {cell.key for cell in grid}

    @pytest.mark.parametrize("backend", ["jobs", "hosts"])
    def test_backends_match_serial_run(self, backend, halving_run):
        _, serial = halving_run
        grid = _grid()
        if backend == "jobs":
            runner = HalvingRunner(settings=TINY_SETTINGS, jobs=2, config=_CONFIG)
            try:
                results = runner.run(grid)
            finally:
                runner.close()
        else:
            with spawn_local_workers(2) as pool:
                runner = HalvingRunner(settings=TINY_SETTINGS, hosts=pool.hosts, config=_CONFIG)
                try:
                    results = runner.run(grid)
                finally:
                    runner.close()
        assert set(results.pruned_keys()) == set(serial.pruned_keys())
        for cell in grid:
            if not serial.is_pruned(cell):
                assert pickle.dumps(results[cell]) == pickle.dumps(serial[cell])


class TestDrift:
    def test_drift_report_covers_every_simulated_rung(self, halving_run):
        _, results = halving_run
        report = results.drift_report
        assert report is not None
        assert [rung.rung for rung in report.rungs] == [1, 2]
        assert report.rungs[0].num_requests == 40
        assert report.rungs[-1].num_requests is None
        # Rung cell counts mirror the schedule (4 survive rung 0, 3 the ladder).
        assert [rung.cell_count for rung in report.rungs] == [4, 3]
        rows = report.as_rows()
        assert rows[0]["num_requests"] == 40
        assert rows[-1]["num_requests"] == "full"
        assert report.summary()


class TestRecalibration:
    def test_never_worsens_spearman_on_real_rung_rows(self, context):
        rung_cells = [
            SweepCell.make(system, "numa", "A1").at_fidelity(40) for system in _SYSTEMS
        ]
        rows = SweepRunner(context=context).run(
            SweepGrid.union(*(SweepGrid.single(cell) for cell in rung_cells))
        )
        pairs = [(extract_features(context, cell), rows[cell]) for cell in rung_cells]
        base = QueueingSurrogate()
        refit = base.recalibrated(pairs)

        def rho(surrogate):
            return spearman_rank_correlation(
                [result.makespan_ms for _, result in pairs],
                [surrogate.estimate(features).makespan_ms for features, _ in pairs],
            )

        assert rho(refit) >= rho(base) - 1e-12

    def test_never_worsens_spearman_on_adversarial_rows(self, context):
        features = [
            extract_features(context, SweepCell.make(system, "numa", "A1"))
            for system in _SYSTEMS[:4]
        ]
        base = QueueingSurrogate()
        predictions = [base.estimate(f).makespan_ms for f in features]

        class _Measured:
            def __init__(self, makespan_ms):
                self.makespan_ms = makespan_ms

        # Measured makespans that exactly invert the predicted order:
        # the base surrogate scores Spearman -1 on these rows, so any
        # accepted candidate must rank them no worse.
        order = sorted(range(len(predictions)), key=lambda i: predictions[i])
        inverted = [0.0] * len(predictions)
        for rank, index in enumerate(order):
            inverted[index] = 1000.0 * (len(predictions) - rank)
        pairs = list(zip(features, (_Measured(m) for m in inverted)))
        refit = base.recalibrated(pairs)

        def rho(surrogate):
            return spearman_rank_correlation(
                [pair[1].makespan_ms for pair in pairs],
                [surrogate.estimate(pair[0]).makespan_ms for pair in pairs],
            )

        assert rho(refit) >= rho(base) - 1e-12

    def test_too_few_rows_returns_the_incumbent(self):
        base = QueueingSurrogate()
        assert base.recalibrated([]) is base


class TestCacheHygiene:
    def test_cache_refuses_dropped_cell_placeholders(self, tmp_path, halving_run):
        _, results = halving_run
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        dropped = next(cell for cell in _grid() if results.is_pruned(cell))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(dropped, results[dropped])

    @pytest.mark.parametrize(
        "config",
        [_CONFIG, HalvingConfig(rungs=1, keep_fraction=0.5)],
        ids=["ladder", "one-rung"],
    )
    def test_second_guided_run_replays_from_cache(self, tmp_path, config):
        grid = _grid()
        uncached = HalvingRunner(settings=TINY_SETTINGS, config=config).run(grid)
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        first_runner = HalvingRunner(settings=TINY_SETTINGS, cache=cache, config=config)
        first = first_runner.run(grid)
        # A cache-backed ladder drops the same cells and returns the same
        # rows as one with no cache at all.
        assert first.pruned_keys() == uncached.pruned_keys()
        for cell in grid:
            assert pickle.dumps(first[cell]) == pickle.dumps(uncached[cell]), cell.label()
        # Every simulated row (final and low-fidelity alike) is cached,
        # and the cache never decides what gets ranked: a rerun ranks
        # the same cells, drops the same ones and simulates nothing.
        second_cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        second_runner = HalvingRunner(
            settings=TINY_SETTINGS, cache=second_cache, config=config
        )
        second = second_runner.run(grid)
        assert second_cache.misses == 0
        assert second_cache.hits > 0
        assert second.pruned_keys() == first.pruned_keys()
        assert second_runner.last_schedule == first_runner.last_schedule
        for cell in grid:
            assert pickle.dumps(second[cell]) == pickle.dumps(first[cell]), cell.label()
            assert second.estimate_for(cell) == first.estimate_for(cell), cell.label()

    def test_cached_estimate_never_replaces_the_ladders_score(self, tmp_path):
        config = HalvingConfig(rungs=1, keep_fraction=0.5)
        grid = _grid()
        cold = HalvingRunner(settings=TINY_SETTINGS, config=config).run(grid)
        survivor = next(cell for cell in grid if not cold.is_pruned(cell))
        # A cache entry written under another surrogate calibration.
        stale = dataclasses.replace(cold.estimate_for(survivor), makespan_ms=1.0)
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        cache.store(survivor, cold[survivor], stale)
        warm = HalvingRunner(settings=TINY_SETTINGS, cache=cache, config=config).run(grid)
        assert cache.hits == 1
        assert warm.estimate_for(survivor) == cold.estimate_for(survivor)


class TestExperimentsCLI:
    def test_run_experiments_attaches_drift_report(self):
        from repro.experiments.cli import run_experiments
        from repro.sweeps import SweepResults

        settings = EvaluationSettings(
            full_scale=False,
            reduced_requests=120,
            devices=("numa",),
            task_names=("A1",),
        )
        store = SweepResults()
        outcomes = run_experiments(
            ["figure13"],
            settings,
            halving=HalvingConfig(rungs=2, keep_fraction=0.5, min_requests=40),
            results=store,
        )
        assert outcomes and outcomes[0][1].rows
        report = store.drift_report
        assert report is not None
        assert [rung.rung for rung in report.rungs] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure13", "--halving-rungs", "2", "--prune-fraction", "0.5"],
            ["figure13", "--halving-rungs", "2", "--prune-slo-ms", "100"],
            ["figure13", "--halving-rungs", "0"],
            ["figure13", "--halving-rungs", "2", "--halving-keep-fraction", "1.5"],
            ["figure13", "--halving-rungs", "2", "--halving-min-requests", "0"],
            ["figure13", "--prune-percentile", "0"],
            ["figure13", "--prune-percentile", "101"],
        ],
    )
    def test_cli_rejects_invalid_flag_combinations(self, argv):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
