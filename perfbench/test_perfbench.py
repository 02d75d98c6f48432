"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Tiny versions of each workload must pass their checks, each check must
fail when a store value or a reply is corrupted, and the metric names the
benchmark prints must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import servicebench  # noqa: E402
import simbench  # noqa: E402
from refclock import NOMINAL_REF_S, RefClock  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sim-zoo-full": dataclasses.replace(
        simbench.WORKLOADS["sim-zoo-full"], duration=5.0),
    "sim-sharded-wide": dataclasses.replace(
        simbench.WORKLOADS["sim-sharded-wide"], nodes=8, db_size=2000,
        duration=3.0),
}


def _quiet(*_args, **_kwargs):
    pass


@pytest.fixture(scope="module")
def tiny_sim_results():
    """Each tiny simulator workload, untraced and traced."""
    return {
        (name, trace): simbench.run(workload, seed=3, seconds=0, trace=trace,
                                    log=_quiet)
        for name, workload in TINY.items()
        for trace in (False, True)
    }


@pytest.fixture(scope="module")
def tiny_service_results():
    return {
        trace: servicebench.run(seed=3, seconds=0, trace=trace, root=ROOT,
                                log=_quiet, segment_requests=120, segments=2)
        for trace in (False, True)
    }


# ---------------------------------------------------------------------- #
# BENCHMARK.json and the printed names
# ---------------------------------------------------------------------- #


def test_declared_workloads_are_the_runnable_ones():
    import run

    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_per_layer_names_match_declaration():
    declared = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
    assert declared == list(layers.PER_LAYER)


def _assert_printed(result, declared):
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}


def test_sim_results_print_the_declared_metrics(tiny_sim_results):
    for (_, trace), result in tiny_sim_results.items():
        key = "per_layer" if trace else "end_to_end"
        _assert_printed(result, DECLARED[key])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_service_results_print_the_declared_metrics(tiny_service_results):
    for trace, result in tiny_service_results.items():
        _assert_printed(result, DECLARED["per_layer" if trace else "end_to_end"])


# ---------------------------------------------------------------------- #
# tiny smokes pass their checks
# ---------------------------------------------------------------------- #


def test_tiny_zoo_fails_only_the_known_fault(tiny_sim_results):
    per_round = 7 * TINY["sim-zoo-full"].seeds_per_round
    for trace in (False, True):
        result = tiny_sim_results[("sim-zoo-full", trace)]
        assert result["correct"] is True
        rounds = result["attempted"] // per_round
        assert result["attempted"] == per_round * rounds and rounds >= 2
        # lazy-group's experiments, one per seed in every round
        assert result["failed"] * 7 == result["attempted"]


def test_tiny_sharded_passes(tiny_sim_results):
    for trace in (False, True):
        result = tiny_sim_results[("sim-sharded-wide", trace)]
        assert result["correct"] is True
        assert result["failed"] == 0
        metrics = result["metrics"]
        if trace:
            assert metrics["placement.replicas.calls"]["value"] > 0
            assert metrics["audit.divergence.calls"]["value"] > 0
        else:
            assert metrics["txns_per_s"]["value"] > 0


def test_tiny_zoo_trace_accounts_for_host_time(tiny_sim_results):
    metrics = tiny_sim_results[("sim-zoo-full", True)]["metrics"]
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0 + 1e-9
    assert metrics["storage.lock_acquire.calls"]["value"] > 0
    assert metrics["replication.execute.calls"]["value"] > 0
    assert 0 < metrics["replication.commit_ratio"]["value"] <= 1


def test_tiny_service_passes(tiny_service_results):
    for trace, result in tiny_service_results.items():
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 2 * 2 * 120
    metrics = tiny_service_results[True]["metrics"]
    assert metrics["core.replay.calls"]["value"] == pytest.approx(120)
    assert metrics["service.decode.calls"]["value"] > 0
    assert metrics["service.loop.self_s"]["value"] > 0


def test_tiny_service_trace_accounts_for_busy_time(tiny_service_results):
    coverage = tiny_service_results[True]["metrics"]["trace.coverage"]["value"]
    assert 0.8 < coverage <= 1.0 + 1e-9


# ---------------------------------------------------------------------- #
# checks fail on corrupted outputs
# ---------------------------------------------------------------------- #


def _one_experiment(strategy, placement=None):
    from repro.harness.experiment import run_experiment

    workload = dataclasses.replace(
        simbench.WORKLOADS["sim-zoo-full"], nodes=3, db_size=50, duration=2.0,
        placement=placement,
    )
    hook = simbench.LedgerHook()
    try:
        result = run_experiment(simbench.make_config(workload, strategy, seed=2))
    finally:
        hook.close()
    return result, hook.current


@pytest.mark.parametrize("strategy", ["eager-group", "lazy-master", "two-tier"])
def test_sim_check_passes_then_catches_a_corrupted_replica(strategy):
    result, ledger = _one_experiment(strategy)
    committed, failures = simbench.check_experiment(result, ledger)
    assert failures == [] and committed > 0
    record = next(iter(result.system.nodes[0].store))
    record.value += 1
    _, failures = simbench.check_experiment(result, ledger)
    assert any("replica value" in f for f in failures)


def test_sim_check_catches_a_lost_update_in_a_lazy_shard():
    result, ledger = _one_experiment("lazy-master", placement="hash:k=2")
    _, expected, _ = simbench.committed_deltas(ledger.submitted)
    assert simbench.check_replicas(result.system, expected) == []
    oid = next(oid for oid, delta in expected.items() if delta)
    node = result.system.placement.replicas(oid)[-1]
    result.system.nodes[node].store.evict(oid)  # back to the initial value
    assert simbench.check_replicas(result.system, expected) != []


def test_sim_check_catches_a_forged_commit():
    result, ledger = _one_experiment("eager-group")
    aborted = next(
        proc for _, proc in ledger.submitted
        if proc.value.state.value == "aborted"
    )
    aborted.value.state = type(aborted.value.state)("committed")
    _, failures = simbench.check_experiment(result, ledger)
    assert failures


def test_determinism_check_catches_differing_counts():
    counts = {"commits": 5, "aborts": 1, "events": 99, "messages": 7}
    run_a = simbench.ExperimentRun("scar", 0.1, 1.0, 1.0, 5, counts, [])
    run_b = dataclasses.replace(run_a, counts=dict(counts, events=98))
    same = [simbench.Round(False, [run_a]), simbench.Round(False, [run_a])]
    differ = [simbench.Round(False, [run_a]), simbench.Round(False, [run_b])]
    assert simbench.determinism_failures(same) == []
    assert simbench.determinism_failures(differ)


def _service_exchange():
    requests = servicebench.make_requests(5, count=40)
    sent = dict(enumerate(requests, start=1))
    replies = []
    for request_id, request in sent.items():
        status = "rejected" if request.kind == "debit" and request_id % 2 else "accepted"
        replies.append({"type": "result", "id": request_id, "status": status,
                        "noticed": True})
    ledger, failures, failed = servicebench.check_replies(sent, replies)
    assert failures == [] and failed == 0
    report = {
        "store_sum": servicebench.DB_SIZE * servicebench.INITIAL_VALUE
        + ledger["accepted_delta"],
        "store_non_numeric": 0, "base_divergence": 0, "wal_quiescent": True,
        "served": len(sent), "accepted": ledger["accepted"],
        "rejected": ledger["rejected"],
    }
    assert servicebench.check_drained(report, ledger, len(sent)) == []
    return sent, replies, ledger, report


@pytest.mark.parametrize("corrupt", [
    lambda replies: replies.pop(),  # a request never answered
    lambda replies: replies.append(dict(replies[0])),  # answered twice
    lambda replies: replies.append({"type": "result", "id": 999,
                                    "status": "accepted", "noticed": True}),
    lambda replies: replies[0].update(type="error", why="boom"),
    lambda replies: replies[0].update(noticed=False),
    lambda replies: next(r for r in replies if r["status"] == "accepted").update(
        status="lost"),
])
def test_service_reply_check_catches_a_corrupted_reply(corrupt):
    sent, replies, _, _ = _service_exchange()
    corrupt(replies)
    _, failures, _ = servicebench.check_replies(sent, replies)
    assert failures


def test_service_reply_check_catches_a_rejected_credit():
    sent, replies, _, _ = _service_exchange()
    credit = next(r for r in replies if sent[r["id"]].kind == "credit")
    credit["status"] = "rejected"
    _, failures, failed = servicebench.check_replies(sent, replies)
    assert failures and failed == 1


@pytest.mark.parametrize("field,value", [
    ("store_sum", 1), ("base_divergence", 1), ("wal_quiescent", False),
    ("served", -1), ("accepted", 1), ("store_non_numeric", 1),
])
def test_service_drain_check_catches_a_corrupted_report(field, value):
    sent, _, ledger, report = _service_exchange()
    bad = copy.deepcopy(report)
    bad[field] = (bad[field] + value) if isinstance(value, int) and not isinstance(
        value, bool) else value
    assert servicebench.check_drained(bad, ledger, len(sent))


# ---------------------------------------------------------------------- #
# tracing and the reference clock
# ---------------------------------------------------------------------- #


def test_tracer_restores_every_patched_function():
    from repro.storage.lock_manager import LockManager
    from repro.harness import experiment

    before = (LockManager.acquire, experiment.build_system)
    tracer = Tracer()
    layers.install_sim(tracer)
    assert LockManager.acquire is not before[0]
    tracer.uninstall()
    assert (LockManager.acquire, experiment.build_system) == before


def test_generator_spans_time_each_resumption_and_nest():
    tracer = Tracer()

    def inner():
        yield 1
        return 5

    def outer():
        value = yield from traced_inner()
        yield value
        return value + 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    gen = traced_outer()
    assert next(gen) == 1
    assert gen.send(None) == 5
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 6
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 1 and summary["outer"]["calls"] == 1
    assert summary["outer"]["total_s"] >= summary["inner"]["total_s"]
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])


def test_generator_span_forwards_thrown_exceptions():
    tracer = Tracer()

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"

    gen = tracer.wrap("body", body)()
    next(gen)
    assert gen.throw(KeyError("x")) == "caught"


def test_ref_clock_scales_by_the_reference_loop():
    clock = RefClock()
    factor = clock.factor_since(clock.last)
    assert factor > 0
    assert factor == pytest.approx(
        NOMINAL_REF_S / ((clock.samples[-2] + clock.samples[-1]) / 2))
