"""Checks of the benchmark's own tracing and workloads, at small sizes.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``) or
alone: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import spans
from workloads import BEST, SAMBA, Shift, SweepGuided


class SmallShift(Shift):
    REQUESTS = 1_500


def _shift(seed: int = 3) -> SmallShift:
    workload = SmallShift(seed, scratch="")
    workload.setup()
    return workload


def _traced_pass(workload):
    recorder, ledger = spans.SpanRecorder(), spans.SessionLedger()
    restore = spans.install(recorder, ledger)
    try:
        outcome = workload.run_pass(lambda label: None)
    finally:
        restore()
    return outcome, recorder, ledger


def test_rows_identical_with_tracing_on_and_off():
    workload = _shift()
    plain = workload.run_pass(lambda label: None)
    traced, recorder, ledger = _traced_pass(workload)
    assert traced.fingerprint == plain.fingerprint
    assert traced.sim == plain.sim
    assert len(ledger.sessions) == 8
    assert recorder.names.count("simulation.run") == 8
    for _, observer in ledger.sessions:
        assert observer.counts["arrival"] == observer.counts["completion"] == SmallShift.REQUESTS
        assert observer.live == 0
    labels = {label for label, _ in ledger.sessions}
    assert labels == {spans.system_label(BEST), spans.system_label(SAMBA)}


def test_repeated_passes_and_counts_are_exact():
    workload = _shift()
    first, _, first_ledger = _traced_pass(workload)
    again, _, again_ledger = _traced_pass(workload)
    assert again.fingerprint == first.fingerprint
    assert again.sim == first.sim
    assert again_ledger.counts() == first_ledger.counts()
    assert again_ledger.live_peak() == first_ledger.live_peak()


class SmallSweep(SweepGuided):
    DEVICES = ("numa",)
    TASKS = ("B2",)


def test_sweep_passes_and_counts_are_exact(tmp_path):
    workload = SmallSweep(5, str(tmp_path))
    workload.setup()
    first, _, first_ledger = _traced_pass(workload)
    again, _, again_ledger = _traced_pass(workload)
    assert first.attempted == again.attempted == 49
    assert again.fingerprint == first.fingerprint
    assert again.sim == first.sim
    assert again.failed == first.failed
    timings = {"sweeps.cold_s", "sweeps.warm_s", "sweeps.sweep_s"}
    counts = {key: value for key, value in first.layer.items() if key not in timings}
    assert counts == {key: value for key, value in again.layer.items() if key not in timings}
    assert counts["sweeps.cache_hits"] > 0
    assert again_ledger.counts() == first_ledger.counts()


def test_install_restores_every_original():
    import repro.experiments as experiments
    import repro.sweeps.runner as runner
    from repro.core.scheduler import CoServeScheduler
    from repro.simulation.session import SimulationSession

    before = (
        SimulationSession.__dict__["run"],
        CoServeScheduler.__dict__["select_executor"],
        runner.execute_cell,
        runner.build_system,
        dict(experiments.EXPERIMENTS),
    )
    restore = spans.install(spans.SpanRecorder(), spans.SessionLedger())
    assert runner.execute_cell is not before[2]
    restore()
    after = (
        SimulationSession.__dict__["run"],
        CoServeScheduler.__dict__["select_executor"],
        runner.execute_cell,
        runner.build_system,
        dict(experiments.EXPERIMENTS),
    )
    assert after == before


def test_host_clock_scales_a_span_and_restores_the_alarm():
    import signal

    import run

    before = signal.getsignal(signal.SIGALRM)
    clock = run.HostClock()
    result, wall, scaled = clock.time(lambda: sum(run.probe_loop() for _ in range(300)))
    assert result > 0 and wall > 0 and scaled > 0
    assert len(clock.probes) >= 3  # one before, alarms during, one after
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_totals_do_not_depend_on_the_number_of_passes():
    import run
    from workloads import PassOutcome

    def outcome(fingerprint):
        return PassOutcome(fingerprint, {}, attempted=196, failed=72, problems=[], best_rows=[], samba_rows=[])

    for passes in (1, 2, 5):
        problems = []
        assert run.summarise([outcome("rows")] * passes, problems) == (196, 72)
        assert problems == []
    problems = []
    assert run.summarise([outcome("rows"), outcome("other rows")], problems) == (196, 72)
    assert problems == ["pass 2 did not reproduce pass 1 at the same seed"]


def test_self_time_subtracts_direct_children():
    recorder = spans.SpanRecorder()
    outer = recorder.open("sweeps.sweep")
    inner = recorder.open("simulation.run")
    recorder.close(inner)
    recorder.close(outer)
    recorder.starts[:] = [0, 10]
    recorder.ends[:] = [100, 70]
    assert recorder.self_times_ns() == [40, 60]
    assert recorder.parents == [-1, 0]


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    p50, tail, calls = spans.per_call(list(range(1, 1001)), 1.0)
    assert (p50, calls) == (500.0, 1000.0)
    assert tail == 990.0  # p99: ten calls beyond it, p99.9 would leave one
    _, tail, _ = spans.per_call(list(range(1, 51)), 1.0)
    assert tail == 50.0  # too few calls for any percentile: the slowest
