"""Tracing for the benchmark's traced run: spans, a counting observer, wrappers.

Nothing here edits the program under test.  :func:`install` replaces
public entry points *by the names their callers look up* (a module
global, a class attribute or a registry entry) with thin wrappers that
record a span per call, and returns a function that puts every original
back.  Spans live in flat in-memory lists and are written out once, when
the run ends.

Span names are ``<layer>.<what>``, the layer being the ``repro`` package
the wrapped function belongs to; the benchmark's own root spans use the
layer ``bench``.  A span's self time is its duration minus the time its
direct child spans cover (calls are nested on one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers that own spans, in report order; ``bench`` is the benchmark's
#: own code around the calls (its root spans' self time).
LAYERS = (
    "workload",
    "core",
    "serving",
    "simulation",
    "policies",
    "surrogate",
    "sweeps",
    "experiments",
    "bench",
)

#: Per-call percentiles tried for a timing's tail, highest first: the
#: reported tail is the highest with at least ten calls beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


class SpanRecorder:
    """Flat, append-only span store (one entry per wrapped call)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    # ------------------------------------------------------------------
    def durations_ns(self, name: str) -> List[int]:
        return [
            end - start
            for span, start, end in zip(self.names, self.starts, self.ends)
            if span == name
        ]

    def total_s(self, name: str) -> float:
        return sum(self.durations_ns(name)) / 1e9

    def self_times_ns(self) -> List[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def self_s_by_layer(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, own in zip(self.names, self.self_times_ns()):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own / 1e9
        return totals

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span (columnar, times in ns from the first span)."""
        table: Dict[str, int] = {}
        ids = [table.setdefault(name, len(table)) for name in self.names]
        origin = self.starts[0] if self.starts else 0
        payload = {
            "meta": meta,
            "names": list(table),
            "name": ids,
            "start_ns": [start - origin for start in self.starts],
            "end_ns": [end - origin for end in self.ends],
            "parent": self.parents,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(min(rank, len(sorted_values))) - 1])


def per_call(durations_ns: List[int], scale: float) -> Tuple[float, float, float]:
    """``(p50, tail, calls)`` of per-call durations, in units of ``scale`` ns.

    The tail is the highest of :data:`TAIL_CANDIDATES` that leaves at
    least ten calls beyond it, else the slowest call.
    """
    values = sorted(duration / scale for duration in durations_ns)
    count = len(values)
    tail = values[-1] if values else 0.0
    for q in TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= 10:
            tail = percentile(values, q)
            break
    return percentile(values, 50.0), tail, float(count)


# ----------------------------------------------------------------------
# Counting observer
# ----------------------------------------------------------------------
class CountingObserver:
    """A ``SimObserver`` that counts events and tracks live requests.

    It holds integer counts only (no host clock), and never touches the
    session, so attaching it leaves every simulated result unchanged.
    """

    KINDS = ("arrival", "dispatch", "batch", "load", "evict", "migration", "completion")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.KINDS, 0)
        self.live = 0
        self.live_peak = 0

    def on_request_arrival(self, event) -> None:
        self.counts["arrival"] += 1
        self.live += 1
        if self.live > self.live_peak:
            self.live_peak = self.live

    def on_job_dispatch(self, event) -> None:
        self.counts["dispatch"] += 1

    def on_batch_start(self, event) -> None:
        self.counts["batch"] += 1

    def on_expert_load(self, event) -> None:
        self.counts["load"] += 1

    def on_expert_evict(self, event) -> None:
        self.counts["evict"] += 1

    def on_tier_migration(self, event) -> None:
        self.counts["migration"] += 1

    def on_request_completion(self, event) -> None:
        self.counts["completion"] += 1
        self.live -= 1


class SessionLedger:
    """Counting observers of every traced session, keyed by system label."""

    def __init__(self) -> None:
        self.sessions: List[Tuple[str, CountingObserver]] = []
        #: Specs realised by eager stream generation.
        self.specs_generated = 0

    def counts(self) -> Dict[str, int]:
        totals = dict.fromkeys(CountingObserver.KINDS, 0)
        for _, observer in self.sessions:
            for kind, value in observer.counts.items():
                totals[kind] += value
        return totals

    def live_peak(self) -> int:
        return max((observer.live_peak for _, observer in self.sessions), default=0)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _eviction_classes(base) -> List[type]:
    """Every subclass of ``base`` defining its own ``victim_order``."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "victim_order" in cls.__dict__ and not getattr(
            cls.__dict__["victim_order"], "__isabstractmethod__", False
        ):
            found.append(cls)
    return found


def install(recorder: SpanRecorder, ledger: SessionLedger) -> Callable[[], None]:
    """Wrap each layer's public entry points; return the undo function.

    Policy methods are wrapped on their classes before any session binds
    them.  The session recognises some base-class policy methods by
    identity to skip calls; wrapping a method it recognises would defeat
    that fast path, which is why per-call policy timings are read only
    from the traced run.
    """
    import repro.experiments as experiments
    import repro.policies  # noqa: F401  (defines every eviction policy)
    import repro.serving.factory as factory
    import repro.surrogate as surrogate
    import repro.surrogate.features as features
    import repro.sweeps.halving as halving
    import repro.sweeps.runner as runner
    import repro.workload.tasks as tasks
    from repro.core.expert_manager import DependencyAwareEvictionPolicy  # noqa: F401
    from repro.core.profiler import OfflineProfiler
    from repro.core.scheduler import CoServeScheduler
    from repro.policies.base import EvictionPolicy
    from repro.serving.base import ServingSystem
    from repro.simulation.session import SimulationSession
    from repro.surrogate.model import QueueingSurrogate
    from repro.sweeps.cache import SweepCache

    undo: List[Tuple[object, str, object, bool]] = []

    def patch(owner, attribute: str, name: str, item: bool = False, around=None) -> None:
        """Replace ``owner``'s attribute (or dict entry) with a traced wrapper.

        ``around`` optionally decorates the original first, so the span
        covers what it adds.
        """
        original = owner[attribute] if item else owner.__dict__[attribute]
        undo.append((owner, attribute, original, item))
        function = original.__func__ if isinstance(original, classmethod) else original
        replacement = recorder.wrap(name, around(function) if around else function)
        if isinstance(original, classmethod):
            replacement = classmethod(replacement)
        if item:
            owner[attribute] = replacement
        else:
            setattr(owner, attribute, replacement)

    def counting_run(run):
        def run_counted(session):
            observer = CountingObserver()
            session.add_observer(observer)
            try:
                return run(session)
            finally:
                ledger.sessions.append((session.simulation.system_name, observer))

        return run_counted

    def counting_generate(generate):
        def generate_counted(*args, **kwargs):
            stream = generate(*args, **kwargs)
            ledger.specs_generated += len(stream)
            return stream

        return generate_counted

    patch(tasks.__dict__, "generate_request_stream", "workload.generate", True, counting_generate)
    patch(tasks.Task, "board", "workload.board_build")
    patch(tasks.Task, "model", "workload.model_build")
    patch(OfflineProfiler, "build_performance_matrix", "core.profile")
    patch(CoServeScheduler, "select_executor", "core.assign")
    for module in (factory, runner, features):
        patch(module.__dict__, "build_system", "serving.build", item=True)
    patch(ServingSystem, "usage_profile_from_stream", "serving.usage_profile")
    patch(SimulationSession, "run", "simulation.run", around=counting_run)
    for cls in _eviction_classes(EvictionPolicy):
        patch(cls, "victim_order", "policies.select_victims")
    for module in (surrogate, halving):
        patch(module.__dict__, "extract_features", "surrogate.features", item=True)
    patch(QueueingSurrogate, "estimate", "surrogate.estimate")
    patch(QueueingSurrogate, "recalibrated", "surrogate.recalibrate")
    patch(runner.__dict__, "execute_cell", "sweeps.cell", item=True)
    patch(SweepCache, "load_entry", "sweeps.cache_load")
    patch(SweepCache, "store", "sweeps.cache_store")
    patch(runner.SweepRunner, "run", "sweeps.sweep")
    patch(halving.HalvingRunner, "run", "sweeps.sweep")
    for name in list(experiments.EXPERIMENTS):
        patch(experiments.EXPERIMENTS, name, f"experiments.{name}", item=True)

    def restore() -> None:
        for owner, attribute, original, item in reversed(undo):
            if item:
                owner[attribute] = original  # type: ignore[index]
            else:
                setattr(owner, attribute, original)

    return restore


def system_label(name: str) -> Optional[str]:
    """The result label a factory system name produces (for the ledger)."""
    return {"coserve-best": "CoServe Best", "samba-coe": "Samba-CoE"}.get(name)
