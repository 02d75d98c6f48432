"""The simulator workloads: rounds of ``run_experiment`` calls.

One *operation* is one experiment; a *round* runs every experiment of the
workload once, in a fixed order, from the same seeds, so every round of a
run does the same simulated work and must report the same simulated counts
(the simulator is deterministic).

Each experiment is checked against a ledger the benchmark keeps itself:
``build_system`` is wrapped so that every ``submit`` the workload generator
makes is recorded with its operations and the process that runs it.  After
the run, every replica of every object (the base tier, for two-tier) must
equal the initial value plus the increments of the recorded transactions
that committed; the program's own oracle verdict must be ok as well.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import install_sim, layer_metrics, traced_self_seconds
from refclock import RefClock
from spans import Tracer

#: the experiments of a workload's ``known_faults`` run from seeds counted
#: from this one whatever ``--seed`` is: they fail every time (see
#: README.md, "Known faults"), so their inputs must not depend on the seed
#: for the failed share to stay fixed
FAULT_SEED = 7


@dataclass(frozen=True)
class SimWorkload:
    name: str
    strategies: Tuple[str, ...]
    nodes: int
    db_size: int
    tps: float
    actions: int
    duration: float
    placement: Optional[str] = None  # None: full replication
    #: experiments per strategy in a round, each from its own seed, so a
    #: run's figures average over workloads rather than depend on one
    seeds_per_round: int = 1
    #: strategies whose experiment fails every time for a known fault
    known_faults: Tuple[str, ...] = ()


WORKLOADS = {
    "sim-zoo-full": SimWorkload(
        name="sim-zoo-full",
        strategies=(
            "deferred-update", "eager-group", "eager-master", "lazy-group",
            "lazy-master", "scar", "two-tier",
        ),
        nodes=4, db_size=200, tps=20.0, actions=4, duration=5.0,
        seeds_per_round=3, known_faults=("lazy-group",),
    ),
    "sim-sharded-wide": SimWorkload(
        name="sim-sharded-wide",
        strategies=("eager-group", "lazy-master", "deferred-update", "scar"),
        nodes=32, db_size=10000, tps=2.0, actions=4, duration=5.0,
        placement="hash:k=3", seeds_per_round=2,
    ),
}


def experiment_seed(workload: SimWorkload, strategy: str, seed: int,
                    index: int) -> int:
    """The seed of a round's ``index``-th experiment of ``strategy``."""
    if strategy in workload.known_faults:
        return FAULT_SEED + index
    return seed * workload.seeds_per_round + index


def make_config(workload: SimWorkload, strategy: str, seed: int,
                index: int = 0, duration: Optional[float] = None):
    from repro.analytic.parameters import ModelParameters
    from repro.harness.experiment import ExperimentConfig
    from repro.placement import Placement

    params = ModelParameters(
        db_size=workload.db_size, nodes=workload.nodes, tps=workload.tps,
        actions=workload.actions, action_time=0.01,
    )
    return ExperimentConfig(
        strategy=strategy,
        params=params,
        duration=workload.duration if duration is None else duration,
        seed=experiment_seed(workload, strategy, seed, index),
        commutative=True,
        placement=(
            Placement.from_spec(workload.placement)
            if workload.placement else None
        ),
    )


# ---------------------------------------------------------------------- #
# the ledger
# ---------------------------------------------------------------------- #


class Ledger:
    """What the benchmark saw of one experiment: build time and every
    submitted transaction with the process that ran it."""

    def __init__(self) -> None:
        self.build_raw = 0.0
        self.submitted: List[Tuple[list, Any]] = []


class LedgerHook:
    """Wraps ``repro.harness.experiment.build_system`` for the whole run:
    times each build and records the built system's submissions into the
    current :class:`Ledger`."""

    def __init__(self) -> None:
        from repro.harness import experiment

        self._module = experiment
        self._original = experiment.build_system
        self.current = Ledger()
        experiment.build_system = self._build

    def _build(self, config, telemetry=None):
        start = time.perf_counter()
        system = self._original(config, telemetry=telemetry)
        ledger = self.current
        ledger.build_raw = time.perf_counter() - start
        submit = system.submit
        log = ledger.submitted

        def recording_submit(origin, ops, label=""):
            ops = list(ops)
            proc = submit(origin, ops, label)
            log.append((ops, proc))
            return proc

        system.submit = recording_submit
        return system

    def close(self) -> None:
        self._module.build_system = self._original


def committed_deltas(submitted) -> Tuple[int, Dict[int, Any], List[str]]:
    """``(committed count, oid -> summed delta, failures)`` from a ledger."""
    expected: Dict[int, Any] = defaultdict(int)
    committed = 0
    failures: List[str] = []
    for ops, proc in submitted:
        if proc.pending:
            failures.append("a submitted transaction never finished")
            continue
        txn = proc.value
        if txn.state.value == "committed":
            committed += 1
            for op in ops:
                expected[op.oid] += op.delta
    return committed, expected, failures


def check_replicas(system, expected: Dict[int, Any],
                   initial: Any = 0) -> List[str]:
    """Every replica equals ``initial`` plus its committed increments.

    Checks every record each holder materialised (a phantom write anywhere
    shows), and every touched object at each of its replicas (a lost
    update shows, also where a lazy store never materialised the record).
    For two-tier only the base tier is held to it: mobiles may be stale.
    """
    failures: List[str] = []
    holders = list(getattr(system, "base_ids", range(system.num_nodes)))
    wrong = 0
    for node_id in holders:
        for record in system.nodes[node_id].store:
            if record.value != initial + expected.get(record.oid, 0):
                wrong += 1
    in_tier = set(holders)
    missing = 0
    for oid, delta in expected.items():
        for node_id in system.placement.replicas(oid):
            if node_id not in in_tier:
                continue
            try:
                value = system.nodes[node_id].store.peek(oid)
            except KeyError:
                missing += 1
                continue
            if value != initial + delta:
                wrong += 1
    if wrong:
        failures.append(
            f"{wrong} replica value(s) differ from initial + committed increments"
        )
    if missing:
        failures.append(f"{missing} replica(s) of touched objects are missing")
    return failures


def check_experiment(result, ledger: Ledger) -> Tuple[int, List[str]]:
    """``(committed, failures)`` for one finished experiment."""
    committed, expected, failures = committed_deltas(ledger.submitted)
    failures += check_replicas(result.system, expected)
    if not result.extra.get("oracle_ok", False):
        failures.append(
            "program oracle: " + "; ".join(result.extra.get("oracle_failures") or [])
        )
    return committed, failures


# ---------------------------------------------------------------------- #
# rounds
# ---------------------------------------------------------------------- #


@dataclass
class ExperimentRun:
    strategy: str
    build_raw: float
    run_raw: float
    factor: float
    committed: int
    #: what the program counted: identical in every round of a run
    counts: Dict[str, int]
    failures: List[str]


@dataclass
class Round:
    traced: bool
    experiments: List[ExperimentRun]
    tracer: Optional[Tracer] = None

    @property
    def factor(self) -> float:
        raw = sum(e.build_raw + e.run_raw for e in self.experiments)
        scaled = sum((e.build_raw + e.run_raw) * e.factor for e in self.experiments)
        return scaled / raw

    def setup_s(self) -> float:
        return sum(e.build_raw * e.factor for e in self.experiments)

    def txns_per_s(self, scaled: bool = True) -> float:
        seconds = sum(
            e.run_raw * (e.factor if scaled else 1.0) for e in self.experiments
        )
        return sum(e.committed for e in self.experiments) / seconds


def run_experiment_checked(config, hook: LedgerHook, clock: RefClock,
                           tracer: Optional[Tracer] = None) -> ExperimentRun:
    """Run one experiment (traced when ``tracer`` is given), then measure
    the reference loop and check the outputs, both untraced."""
    from repro.harness.experiment import run_experiment

    hook.current = ledger = Ledger()
    before = clock.last
    if tracer is not None:
        install_sim(tracer)
    try:
        start = time.perf_counter()
        result = run_experiment(config)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    factor = clock.factor_since(before)
    committed, failures = check_experiment(result, ledger)
    system = result.system
    metrics = result.metrics
    counts = {
        "commits": metrics.commits,
        "aborts": metrics.aborts,
        "events": system.engine.events_scheduled,
        "messages": metrics.messages,
        "deadlocks": metrics.deadlocks,
        "materialized": sum(system.materialized_counts()),
        "delivered": system.network.messages_delivered,
    }
    return ExperimentRun(
        strategy=config.strategy,
        build_raw=ledger.build_raw,
        run_raw=elapsed - ledger.build_raw,
        factor=factor,
        committed=committed,
        counts=counts,
        failures=failures,
    )


def run_round(workload: SimWorkload, seed: int, hook: LedgerHook,
              clock: RefClock, traced: bool) -> Round:
    tracer = Tracer() if traced else None
    experiments = []
    for index in range(workload.seeds_per_round):
        for strategy in workload.strategies:
            config = make_config(workload, strategy, seed, index)
            experiments.append(run_experiment_checked(config, hook, clock, tracer))
            # start every experiment from a clean heap, as a fresh process
            # would: the previous system's cycles are not collected mid-run
            gc.collect()
    return Round(traced=traced, experiments=experiments, tracer=tracer)


def warm_up(workload: SimWorkload, seed: int) -> None:
    """One short experiment per strategy, untimed: first-call costs
    (lazy imports, code caches) are paid once per process, not per round."""
    from repro.harness.experiment import run_experiment

    for strategy in workload.strategies:
        run_experiment(make_config(workload, strategy, seed, duration=1.0))


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive linear-interpolation quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def determinism_failures(rounds: List[Round]) -> List[str]:
    """Every round ran the same experiments from the same seeds: any
    difference in simulated counts breaks the simulator's determinism."""
    failures = []
    first = rounds[0]
    for index, rnd in enumerate(rounds[1:], start=1):
        for a, b in zip(first.experiments, rnd.experiments):
            if a.counts != b.counts:
                failures.append(
                    f"determinism: {a.strategy} round {index} counts {b.counts} "
                    f"!= round 0 counts {a.counts} from the same seed"
                )
    return failures


def run(workload: SimWorkload, seed: int, seconds: float, trace: bool,
        out_dir=None, log=print) -> Dict[str, Any]:
    """Rounds for ``seconds`` (at least two; alternately traced when
    ``trace``), checked, and summarised as the benchmark's result."""
    hook = LedgerHook()
    try:
        warm_up(workload, seed)
        clock = RefClock()
        rounds: List[Round] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(workload, seed, hook, clock, traced))
            if len(rounds) >= 2 and time.perf_counter() >= deadline:
                break
    finally:
        hook.close()

    experiments = [e for r in rounds for e in r.experiments]
    failed = [e for e in experiments if e.failures]
    failures = [
        f"{e.strategy}: " + "; ".join(e.failures)
        for e in failed if e.strategy not in workload.known_faults
    ]
    for strategy in workload.known_faults:
        count = sum(1 for e in failed if e.strategy == strategy)
        log(f"known fault: {count} {strategy} experiment(s) failed their "
            f"checks in {len(rounds)} round(s)")
    for exp in rounds[0].experiments:
        counts = exp.counts
        log(f"sim-counts {exp.strategy}: commits={counts['commits']} "
            f"aborts={counts['aborts']} events={counts['events']} "
            f"messages={counts['messages']} ledger_commits={exp.committed}")
        if exp.failures:
            log(f"  checks failed: {'; '.join(exp.failures)}")
    unsteady = determinism_failures(rounds)
    failures += unsteady
    log(f"determinism: {len(rounds)} rounds from seed {seed}, simulated "
        f"counts {'DIFFER' if unsteady else 'identical'}")
    for message in failures:
        log(f"CHECK FAILED: {message}")

    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    if not trace:
        metrics = end_to_end(workload, plain, log)
    else:
        metrics = per_layer(traced_rounds, plain, out_dir, workload.name, seed)
    return {
        "correct": not failures,
        "attempted": len(experiments),
        "failed": len(failed),
        "metrics": metrics,
    }


def end_to_end(workload: SimWorkload, rounds: List[Round], log) -> Dict[str, Any]:
    setup = statistics.median(r.setup_s() for r in rounds)
    throughput = statistics.median(r.txns_per_s() for r in rounds)
    # each strategy's experiment time: the lower quartile of its scaled
    # times, the figure least disturbed by a slow stretch of the host
    per_strategy = [
        quantile([
            e.run_raw * e.factor for r in rounds for e in r.experiments
            if e.strategy == strategy
        ], 0.25) * 1000.0
        for strategy in workload.strategies
    ]
    raw_setup = statistics.median(
        sum(e.build_raw for e in r.experiments) for r in rounds
    )
    raw_throughput = statistics.median(r.txns_per_s(scaled=False) for r in rounds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"rounds: {len(rounds)}; reference factor per round: "
        + ", ".join(f"{r.factor:.3f}" for r in rounds))
    log(f"raw: setup_s={raw_setup:.6f} txns_per_s={raw_throughput:.1f}")
    log(f"scaled: setup_s={setup:.6f} txns_per_s={throughput:.1f}")
    log("experiment ms (scaled, lower quartile): " + ", ".join(
        f"{s}={ms:.1f}" for s, ms in zip(workload.strategies, per_strategy)
    ))
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "txns_per_s": {"value": throughput, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(per_strategy), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(traced: List[Round], plain: List[Round], out_dir,
              workload_name: str, seed: int) -> Dict[str, Any]:
    from layers import PER_LAYER

    merged: Dict[str, Dict[str, float]] = {}
    scales = []
    traced_raw = 0.0
    counts: Dict[str, float] = defaultdict(float)
    names = {"commits": "commits", "events": "sim.events",
             "deadlocks": "storage.deadlocks",
             "materialized": "storage.materialized",
             "delivered": "network.delivered"}
    for rnd in traced:
        scales.append(rnd.factor)
        traced_raw += sum(e.build_raw + e.run_raw for e in rnd.experiments)
        for name, entry in rnd.tracer.summary().items():
            into = merged.setdefault(name, defaultdict(float))
            for key, value in entry.items():
                into[key] += value
        for exp in rnd.experiments:
            for key, name in names.items():
                counts[name] += exp.counts[key] / len(traced)
    values = layer_metrics(merged, len(traced), statistics.mean(scales), counts)
    values["trace.overhead_ratio"] = (
        statistics.median(r.txns_per_s() for r in traced)
        / statistics.median(r.txns_per_s() for r in plain)
    )
    values["trace.coverage"] = traced_self_seconds(merged) / traced_raw
    if out_dir is not None:
        traced[0].tracer.write_chrome_trace(
            out_dir / f"trace-{workload_name}-seed{seed}.json"
        )
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
