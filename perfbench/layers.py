"""Which functions of the program the traced run wraps, and the per-layer
metrics built from the spans.

Layer names follow the package layout: ``harness``, ``sim`` (the engine),
``replication`` (each strategy's commit-protocol phases and replica-update
handlers), ``txn``, ``storage``, ``network``, ``placement``, ``audit``
(the post-run oracle and divergence sweep), ``core`` (two-tier tentative
execution and base replay) and ``service`` (the live gateway).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Tracer

#: spans of time the traced process waits rather than works: left out of
#: the host time the spans must account for
IDLE_SPANS = ("service.idle",)

PHASES = ("admission", "execute", "certify", "commit", "propagate")

#: every per-layer metric the traced run prints, with its unit
PER_LAYER: List[Tuple[str, str]] = (
    [("harness.build_s", "s"), ("sim.events", "count"), ("sim.self_s", "s")]
    + [
        (f"replication.{phase}.{field}", unit)
        for phase in PHASES
        for field, unit in (("calls", "count"), ("self_s", "s"), ("sim_s", "s"))
    ]
    + [
        ("replication.apply.calls", "count"),
        ("replication.apply.self_s", "s"),
        ("replication.commit_ratio", "ratio"),
        ("txn.execute.calls", "count"),
        ("txn.execute.self_s", "s"),
        ("txn.execute.sim_s", "s"),
        ("storage.lock_acquire.calls", "count"),
        ("storage.lock_acquire.self_s", "s"),
        ("storage.lock_acquire.blocked", "count"),
        ("storage.lock_release.self_s", "s"),
        ("storage.deadlocks", "count"),
        ("storage.wal_record.calls", "count"),
        ("storage.wal_record.self_s", "s"),
        ("storage.store_read.calls", "count"),
        ("storage.store_read.self_s", "s"),
        ("storage.store_peek.calls", "count"),
        ("storage.materialized", "count"),
        ("network.send.calls", "count"),
        ("network.send.self_s", "s"),
        ("network.delivered", "count"),
        ("placement.replicas.calls", "count"),
        ("placement.replicas.self_s", "s"),
        ("placement.objects_at.self_s", "s"),
        ("audit.oracle.self_s", "s"),
        ("audit.divergence.calls", "count"),
        ("audit.divergence.self_s", "s"),
        ("core.tentative.calls", "count"),
        ("core.tentative.self_s", "s"),
        ("core.replay.calls", "count"),
        ("core.replay.self_s", "s"),
        ("core.replay.sim_s", "s"),
        ("service.decode.calls", "count"),
        ("service.decode.self_s", "s"),
        ("service.encode.calls", "count"),
        ("service.encode.self_s", "s"),
        ("service.engine.self_s", "s"),
        ("service.loop.self_s", "s"),
        ("service.notice_wait_s", "s"),
        ("service.rejected", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


def _strategy_classes():
    """Every class in the strategies' MROs that defines a phase or a
    message handler itself (subclasses inherit the wrapped parent)."""
    from repro.harness.experiment import STRATEGY_CLASSES

    seen = []
    for cls in STRATEGY_CLASSES.values():
        for klass in cls.__mro__:
            if klass not in seen and klass.__module__.startswith("repro."):
                seen.append(klass)
    return seen


def _install_common(tracer: Tracer) -> None:
    """Layers the simulator and the gateway share."""
    from repro.core.mobile import MobileNode
    from repro.core.protocol import TwoTierSystem
    from repro.network.network import Network
    from repro.placement.base import BoundPlacement
    from repro.replication.base import ReplicatedSystem
    from repro.storage.lock_manager import LockManager
    from repro.storage.store import ObjectStore
    from repro.storage.wal import WriteAheadLog
    from repro.txn.manager import TransactionManager

    for klass in _strategy_classes():
        for attr in list(vars(klass)):
            if attr.startswith("_phase_"):
                tracer.trace(klass, attr, f"replication.{attr[len('_phase_'):]}")
        if "handle_message" in vars(klass):
            tracer.trace(klass, "handle_message", "replication.apply")
    tracer.patch(
        ReplicatedSystem, "_run",
        tracer.count_calls("replication.attempts", ReplicatedSystem._run),
    )
    tracer.trace(TransactionManager, "execute", "txn.execute")

    def note_blocked(stat, result):
        if result is not None:
            stat.count += 1

    tracer.trace(LockManager, "acquire", "storage.lock_acquire", note_blocked)
    tracer.trace(LockManager, "release_all", "storage.lock_release")
    tracer.trace(WriteAheadLog, "record", "storage.wal_record")
    tracer.trace(ObjectStore, "read", "storage.store_read")
    tracer.trace(ObjectStore, "value", "storage.store_read")
    tracer.patch(
        ObjectStore, "peek",
        tracer.count_calls("storage.store_peek", ObjectStore.peek),
    )
    tracer.trace(Network, "send", "network.send")
    placements = [BoundPlacement] + _subclasses(BoundPlacement)
    for klass in placements:
        for attr, name in (("replicas", "placement.replicas"),
                           ("objects_at", "placement.objects_at")):
            if attr in vars(klass):
                tracer.trace(klass, attr, name)
    tracer.trace(MobileNode, "run_tentative", "core.tentative")
    tracer.trace(TwoTierSystem, "_replay_tentative", "core.replay")


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulator's layers (call before the first transaction:
    ``ReplicatedSystem._run`` caches its resolved phase methods)."""
    from repro.core.protocol import TwoTierSystem
    from repro.harness import experiment
    from repro.replication.base import ReplicatedSystem
    from repro.sim.engine import Engine

    _install_common(tracer)
    tracer.trace(Engine, "run", "sim.engine")
    tracer.trace(experiment, "build_system", "harness.build")
    tracer.trace(experiment, "evaluate_oracle", "audit.oracle")
    tracer.trace(ReplicatedSystem, "divergence", "audit.divergence")
    tracer.trace(TwoTierSystem, "base_divergence", "audit.divergence")


def install_gateway(tracer: Tracer) -> None:
    """Wrap the live gateway's layers (in the gateway's process).

    Besides the program's functions, every callback the asyncio loop runs
    (a task step, a socket becoming readable) is a ``service.loop`` span,
    so the streams and socket I/O the program's layers leave are its self
    time, and the loop's wait in the selector is ``service.idle``.
    """
    import selectors
    from asyncio import events

    from repro.core.protocol import TwoTierSystem
    from repro.service import gateway
    from repro.service.wallclock import WallClockEngine

    _install_common(tracer)
    for attr in ("decode_line", "decode_ops", "decode_acceptance"):
        tracer.trace(gateway, attr, "service.decode")
    tracer.trace(gateway, "encode_line", "service.encode")
    tracer.trace(gateway.ServiceGateway, "__init__", "harness.build")
    tracer.trace(gateway.ServiceGateway, "_await_notice", "service.notice_wait")
    tracer.trace(TwoTierSystem, "base_divergence", "audit.divergence")
    hook = tracer.dispatch_hook("service.engine")
    original_init = WallClockEngine.__init__

    def init_with_hook(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.profiler = hook

    tracer.patch(WallClockEngine, "__init__", init_with_hook)
    tracer.trace(events.Handle, "_run", "service.loop")
    tracer.trace(selectors.DefaultSelector, "select", "service.idle")


def layer_metrics(summary: Dict[str, Dict[str, float]], rounds: int,
                  scale: float, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-round per-layer metrics from a span summary.

    ``summary`` covers ``rounds`` traced rounds; times are multiplied by
    ``scale`` (the reference-loop factor of those rounds).  ``counts``
    supplies the figures the program counts itself (events, deadlocks,
    materialised records, ...), already per round; keys missing from both
    read 0, for layers the workload does not run.
    """
    def stat(name, field):
        return summary.get(name, {}).get(field, 0.0)

    out: Dict[str, float] = {}
    # "<span>.calls", "<span>.self_s" and "<span>.sim_s" read the span
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = stat(span, "calls") / rounds
        elif field == "self_s":
            out[name] = stat(span, "self_s") * scale / rounds
        elif field == "sim_s":
            out[name] = stat(span, "sim_s") / rounds
    out["harness.build_s"] = stat("harness.build", "total_s") * scale / rounds
    out["sim.self_s"] = stat("sim.engine", "self_s") * scale / rounds
    out["storage.lock_acquire.blocked"] = (
        stat("storage.lock_acquire", "count") / rounds
    )
    out["service.notice_wait_s"] = (
        stat("service.notice_wait", "wall_s") * scale / rounds
    )
    attempts = stat("replication.attempts", "calls") / rounds
    out["replication.commit_ratio"] = (
        counts.get("commits", 0.0) / attempts if attempts else 0.0
    )
    for key in ("sim.events", "storage.deadlocks", "storage.materialized",
                "network.delivered", "service.rejected"):
        out[key] = counts.get(key, 0.0)
    return out


def traced_self_seconds(summary: Dict[str, Dict[str, float]]) -> float:
    """Sum of every working span's self time: the host time the spans
    account for."""
    return sum(entry["self_s"] for name, entry in summary.items()
               if name not in IDLE_SPANS)
