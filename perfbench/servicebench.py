"""The ``service-closed`` workload: the live gateway under a closed loop.

The gateway runs in its own process as ``repro serve`` (3 base nodes, 2
mobiles), started by :mod:`gateway_child` once per *gateway cycle*.  One
load process drives it over :data:`CONNECTIONS` TCP connections on
localhost, each keeping :data:`WINDOW` requests outstanding: a reply frees
the slot for the next request (a closed loop, so a slower gateway is
offered less load).

A *segment* sends the same :data:`SEGMENT_REQUESTS` requests, made from
the seed: 2-increment credits under ``always`` acceptance and checkbook
debits under ``non-negative``, so the rejection path runs.  A cycle starts
a gateway, runs :data:`SEGMENTS_PER_CYCLE` segments, drains it and stops
it.  One operation is one request.

Checks, per cycle, against the load generator's own ledger: every request
is answered exactly once with a ``result``; credits are accepted, every
reply carries the base's notice; the drained store sum equals
``db_size * initial_value`` plus the deltas of the accepted requests; the
gateway's served/accepted/rejected counts match the ledger; base
divergence is 0 and the WAL is quiescent.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import IDLE_SPANS, PER_LAYER, layer_metrics, traced_self_seconds
from refclock import RefClock

NUM_BASE = 3
MOBILES = 2
DB_SIZE = 1000
INITIAL_VALUE = 30
CONNECTIONS = 2
WINDOW = 4
SEGMENT_REQUESTS = 1000
SEGMENTS_PER_CYCLE = 4
#: share of requests that are checkbook debits (the rest are credits)
DEBIT_SHARE = 0.3

#: no single wait on the gateway may exceed this (a hung gateway fails the
#: run instead of stalling it)
IO_TIMEOUT_S = 20.0


# ---------------------------------------------------------------------- #
# requests and checks
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    kind: str  # "credit" or "debit"
    ops: Tuple[Tuple[str, int, int], ...]
    acceptance: str

    def frame(self, request_id: int) -> bytes:
        return (json.dumps({
            "type": "txn", "id": request_id,
            "ops": [list(op) for op in self.ops],
            "acceptance": self.acceptance,
        }, separators=(",", ":")) + "\n").encode()

    @property
    def delta(self) -> int:
        return sum(op[2] for op in self.ops)


def make_requests(seed: int, count: int = SEGMENT_REQUESTS,
                  db_size: int = DB_SIZE) -> List[Request]:
    """The segment's requests, a function of ``seed`` alone."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        if rng.random() < DEBIT_SHARE:
            oid = rng.randrange(db_size)
            requests.append(Request(
                "debit", (("inc", oid, -rng.randint(10, 60)),), "non-negative"
            ))
        else:
            a, b = rng.sample(range(db_size), 2)
            requests.append(Request(
                "credit",
                (("inc", a, rng.randint(1, 9)), ("inc", b, rng.randint(1, 9))),
                "always",
            ))
    return requests


def check_replies(sent: Dict[int, Request],
                  replies: List[Dict[str, Any]]) -> Tuple[Dict[str, int], List[str], int]:
    """Judge each request by its replies.

    Returns ``(ledger, failures, failed_requests)`` where ``ledger`` holds
    the accepted and rejected counts and the summed delta of accepted
    requests, as the load generator saw them.
    """
    by_id: Dict[Any, List[Dict[str, Any]]] = {}
    failures: List[str] = []
    for reply in replies:
        by_id.setdefault(reply.get("id"), []).append(reply)
    unknown = set(by_id) - set(sent)
    if unknown:
        failures.append(f"{len(unknown)} replies carry ids never sent")
    ledger = {"accepted": 0, "rejected": 0, "accepted_delta": 0}
    failed = 0
    for request_id, request in sent.items():
        got = by_id.get(request_id, [])
        problem = None
        if len(got) != 1:
            problem = f"answered {len(got)} times"
        elif got[0].get("type") != "result":
            problem = f"answered with {got[0].get('type')}: {got[0].get('why')}"
        else:
            status = got[0].get("status")
            allowed = ("accepted",) if request.kind == "credit" else (
                "accepted", "rejected")
            if status not in allowed:
                problem = f"{request.kind} came back {status}"
            elif got[0].get("noticed") is not True:
                problem = "reply without the base's tentative-notice"
            else:
                ledger[status] += 1
                if status == "accepted":
                    ledger["accepted_delta"] += request.delta
        if problem is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"request {request_id}: {problem}")
    return ledger, failures, failed


def check_drained(report: Dict[str, Any], ledger: Dict[str, int],
                  requests_sent: int, db_size: int = DB_SIZE,
                  initial_value: int = INITIAL_VALUE) -> List[str]:
    """The drained gateway against the load generator's ledger."""
    failures = []
    expected_sum = db_size * initial_value + ledger["accepted_delta"]
    if report.get("store_sum") != expected_sum:
        failures.append(
            f"store sum {report.get('store_sum')} != {expected_sum} "
            "(db_size * initial + accepted deltas)"
        )
    if report.get("store_non_numeric"):
        failures.append(f"{report['store_non_numeric']} non-numeric values")
    if report.get("base_divergence") != 0:
        failures.append(f"base divergence {report.get('base_divergence')}")
    if report.get("wal_quiescent") is not True:
        failures.append("WAL not quiescent after drain")
    for key, want in (("served", requests_sent),
                      ("accepted", ledger["accepted"]),
                      ("rejected", ledger["rejected"])):
        if report.get(key) != want:
            failures.append(f"gateway {key} {report.get(key)} != ledger {want}")
    return failures


# ---------------------------------------------------------------------- #
# the gateway process
# ---------------------------------------------------------------------- #


class GatewayProcess:
    """The child that serves one gateway per :meth:`serve` call."""

    def __init__(self, proc: asyncio.subprocess.Process):
        self.proc = proc

    @classmethod
    async def start(cls, src_dir: Path) -> "GatewayProcess":
        child = Path(__file__).resolve().parent / "gateway_child.py"
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(child), str(src_dir),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        gateway = cls(proc)
        try:
            await gateway.read_event("ready")
        except BaseException:
            await gateway.close()
            raise
        return gateway

    async def _line(self) -> str:
        line = await asyncio.wait_for(self.proc.stdout.readline(), IO_TIMEOUT_S)
        if not line:
            raise RuntimeError("gateway process exited unexpectedly")
        return line.decode()

    async def read_event(self, event: str) -> Dict[str, Any]:
        while True:
            line = await self._line()
            if line.startswith("{"):
                message = json.loads(line)
                if message.get("event") == event:
                    return message

    async def serve(self, seed: int, traced: bool,
                    trace_path: Optional[Path] = None) -> int:
        """Start a gateway; returns its TCP port once it listens.  A traced
        gateway writes its sampled spans to ``trace_path`` when it stops."""
        argv = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--num-base", str(NUM_BASE), "--mobiles", str(MOBILES),
            "--db-size", str(DB_SIZE), "--initial-value", str(INITIAL_VALUE),
            "--seed", str(seed),
        ]
        self.proc.stdin.write(
            (json.dumps({
                "cmd": "serve", "argv": argv, "trace": traced,
                "trace_path": str(trace_path) if trace_path else None,
            }) + "\n").encode()
        )
        await self.proc.stdin.drain()
        while True:
            line = await self._line()
            if line.startswith("serving on "):
                endpoint = line[len("serving on "):].split(": ", 1)[0]
                return int(endpoint.rsplit(":", 1)[1])

    async def close(self) -> None:
        try:
            if self.proc.returncode is None:
                self.proc.stdin.write(b'{"cmd": "quit"}\n')
                await self.proc.stdin.drain()
                self.proc.stdin.close()
                await asyncio.wait_for(self.proc.wait(), 10.0)
        except (asyncio.TimeoutError, ConnectionError, BrokenPipeError):
            pass
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()


# ---------------------------------------------------------------------- #
# the load
# ---------------------------------------------------------------------- #


async def _readline(reader) -> bytes:
    return await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)


async def drive(reader, writer, frames: List[Tuple[int, bytes]],
                replies: List[Dict[str, Any]], latencies: List[float]) -> None:
    """Closed loop over one connection: keep :data:`WINDOW` outstanding."""
    clock = time.perf_counter
    sent_at: Dict[int, float] = {}
    position = 0

    def send_next() -> None:
        nonlocal position
        request_id, data = frames[position]
        position += 1
        sent_at[request_id] = clock()
        writer.write(data)

    outstanding = 0
    while outstanding < WINDOW and position < len(frames):
        send_next()
        outstanding += 1
    while outstanding:
        line = await _readline(reader)
        now = clock()
        if not line:
            break
        reply = json.loads(line)
        replies.append(reply)
        started = sent_at.pop(reply.get("id"), None)
        if started is not None:
            latencies.append(now - started)
        outstanding -= 1
        if position < len(frames):
            send_next()
            outstanding += 1


@dataclass
class Segment:
    raw_s: float
    factor: float  # the reference-loop scale around the segment
    answered: int
    latencies: List[float]

    def txns_per_s(self, scaled: bool = True) -> float:
        return self.answered / (self.raw_s * (self.factor if scaled else 1.0))


@dataclass
class Cycle:
    traced: bool
    setup_raw: float
    setup_factor: float
    segments: List[Segment] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)
    stopped: Dict[str, Any] = field(default_factory=dict)
    ledger: Dict[str, int] = field(default_factory=dict)


async def run_cycle(gateway: GatewayProcess, clock: RefClock, seed: int,
                    requests: List[Request], traced: bool,
                    segments: int = SEGMENTS_PER_CYCLE,
                    trace_path: Optional[Path] = None) -> Cycle:
    """One gateway: start it, run ``segments`` segments, drain, check."""
    before = clock.last
    start = time.perf_counter()
    port = await gateway.serve(seed, traced, trace_path)
    conns = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        welcome = json.loads(await _readline(reader))
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"expected a welcome frame, got {welcome}")
        conns.append((reader, writer))
    setup_raw = time.perf_counter() - start
    cycle = Cycle(traced=traced, setup_raw=setup_raw,
                  setup_factor=clock.factor_since(before))
    sent: Dict[int, Request] = {}
    replies: List[Dict[str, Any]] = []
    next_id = 1
    try:
        for _ in range(segments):
            parts: List[List[Tuple[int, bytes]]] = [[] for _ in conns]
            for index, request in enumerate(requests):
                sent[next_id] = request
                parts[index % len(conns)].append((next_id, request.frame(next_id)))
                next_id += 1
            latencies: List[float] = []
            segment_replies: List[Dict[str, Any]] = []
            # the load generator's own collector must not pause it mid-
            # segment: its pauses would read as the gateway's latency
            gc.collect()
            gc.disable()
            try:
                before = clock.last
                start = time.perf_counter()
                await asyncio.gather(*(
                    drive(reader, writer, part, segment_replies, latencies)
                    for (reader, writer), part in zip(conns, parts)
                ))
                raw = time.perf_counter() - start
            finally:
                gc.enable()
            replies.extend(segment_replies)
            cycle.segments.append(Segment(
                raw_s=raw, factor=clock.factor_since(before),
                answered=sum(1 for r in segment_replies if r.get("type") == "result"),
                latencies=latencies,
            ))
        reader, writer = conns[0]
        writer.write(b'{"type":"drain","stop":true}\n')
        while True:
            line = await _readline(reader)
            if not line:
                raise RuntimeError("gateway closed before its drained report")
            message = json.loads(line)
            if message.get("type") == "drained":
                cycle.report = message
                break
            replies.append(message)
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    cycle.stopped = await gateway.read_event("stopped")
    ledger, failures, failed = check_replies(sent, replies)
    failures += check_drained(cycle.report, ledger, len(sent))
    cycle.ledger = ledger
    cycle.attempted = len(sent)
    cycle.failed = failed
    cycle.failures = failures
    return cycle


async def _run(seed: int, seconds: float, trace: bool, src_dir: Path,
               segment_requests: int, segments: int,
               trace_path: Optional[Path]) -> List[Cycle]:
    requests = make_requests(seed, segment_requests)
    gateway = await GatewayProcess.start(src_dir)
    cycles: List[Cycle] = []
    try:
        # warm-up: one untimed cycle pays the gateway process's first-call
        # costs (lazy imports, code caches) once, as a long-lived server does
        await run_cycle(gateway, RefClock(), seed, requests[:200], False, 1)
        clock = RefClock()
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(cycles) % 2 == 1
            first_traced = traced and len(cycles) == 1
            cycles.append(await run_cycle(
                gateway, clock, seed, requests, traced, segments,
                trace_path if first_traced else None,
            ))
            if len(cycles) >= 2 and time.perf_counter() >= deadline:
                break
    finally:
        await gateway.close()
    return cycles


def run(seed: int, seconds: float, trace: bool, root: Path, out_dir=None,
        log=print, segment_requests: int = SEGMENT_REQUESTS,
        segments: int = SEGMENTS_PER_CYCLE) -> Dict[str, Any]:
    """Gateway cycles for ``seconds`` (at least two; alternately traced
    when ``trace``), checked, and summarised as the benchmark's result."""
    trace_path = (
        out_dir / f"trace-service-closed-seed{seed}.json" if out_dir else None
    )
    cycles = asyncio.run(_run(seed, seconds, trace, root / "src",
                              segment_requests, segments, trace_path))
    failures = [f for c in cycles for f in c.failures]
    for message in failures:
        log(f"CHECK FAILED: {message}")
    for index, cycle in enumerate(cycles):
        log(f"cycle {index}{' (traced)' if cycle.traced else ''}: "
            f"{cycle.attempted} requests, accepted {cycle.ledger['accepted']}, "
            f"rejected {cycle.ledger['rejected']}, store_sum "
            f"{cycle.report.get('store_sum')}, setup {cycle.setup_raw * 1000:.1f} ms raw")
    plain = [c for c in cycles if not c.traced]
    if trace:
        metrics = per_layer([c for c in cycles if c.traced], plain)
    else:
        metrics = end_to_end(plain, log)
    return {
        "correct": not failures,
        "attempted": sum(c.attempted for c in cycles),
        "failed": sum(c.failed for c in cycles),
        "metrics": metrics,
    }


def end_to_end(cycles: List[Cycle], log) -> Dict[str, Any]:
    segments = [s for c in cycles for s in c.segments]
    scaled_latencies = sorted(
        latency * s.factor * 1000.0 for s in segments for latency in s.latencies
    )
    raw_latencies = sorted(
        latency * 1000.0 for s in segments for latency in s.latencies
    )
    setup = statistics.median(c.setup_raw * c.setup_factor for c in cycles)
    throughput = statistics.median(s.txns_per_s() for s in segments)

    def pct(values, q):
        return values[min(len(values) - 1, int(q * len(values)))]

    log(f"cycles: {len(cycles)}, segments: {len(segments)}, "
        f"latency samples: {len(raw_latencies)}")
    log(f"raw: setup_s={statistics.median(c.setup_raw for c in cycles):.6f} "
        f"txns_per_s={statistics.median(s.txns_per_s(False) for s in segments):.1f} "
        f"p50_ms={pct(raw_latencies, 0.5):.3f} p99_ms={pct(raw_latencies, 0.99):.3f}")
    log(f"scaled: setup_s={setup:.6f} txns_per_s={throughput:.1f} "
        f"p50_ms={pct(scaled_latencies, 0.5):.3f} "
        f"p99_ms={pct(scaled_latencies, 0.99):.3f}")
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "txns_per_s": {"value": throughput, "unit": "1/s"},
        "latency_p50_ms": {"value": pct(scaled_latencies, 0.5), "unit": "ms"},
        "peak_rss_mb": {
            "value": max(c.stopped["maxrss_mb"] for c in cycles), "unit": "MB",
        },
    }


def per_layer(traced: List[Cycle], plain: List[Cycle]) -> Dict[str, Any]:
    merged: Dict[str, Dict[str, float]] = {}
    for cycle in traced:
        for name, entry in cycle.stopped["summary"].items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0.0) + value
    segments = [s for c in traced for s in c.segments]
    rounds = len(segments)
    scale = statistics.mean(s.factor for s in segments)
    counts = {
        "sim.events": sum(c.report["engine"]["events_scheduled"] for c in traced) / rounds,
        "storage.deadlocks": sum(c.report["metrics"].get("deadlocks", 0) for c in traced) / rounds,
        "network.delivered": sum(c.report["metrics"].get("messages", 0) for c in traced) / rounds,
        "service.rejected": sum(c.ledger["rejected"] for c in traced) / rounds,
    }
    values = layer_metrics(merged, rounds, scale, counts)
    values["trace.overhead_ratio"] = (
        statistics.median(s.txns_per_s() for s in segments)
        / statistics.median(s.txns_per_s() for c in plain for s in c.segments)
    )
    # the gateway's serve calls, less the loop's waits for the sockets
    busy_s = (sum(c.stopped["wall_s"] for c in traced)
              - sum(merged.get(name, {}).get("total_s", 0.0) for name in IDLE_SPANS))
    values["trace.coverage"] = traced_self_seconds(merged) / busy_s
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
