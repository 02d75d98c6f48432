"""The gateway's capacity knee: a stepped-rate open-loop sweep.

Usage (from the repository root)::

    python3 perfbench/knee.py [--rates 500,1000,...]

For each offered rate (:data:`RATES` by default, in increasing order) a
fresh gateway (the ``service-closed`` set-up: 3 base nodes, 2 mobiles) is
driven *open-loop* over two connections: request
``i`` of a connection is due at ``start + i / (rate / 2)`` whatever the
replies do, and its latency runs from when it was due, so a stalled
gateway charges its backlog to every later request.  Each step runs
:data:`STEP_SECONDS` and prints the achieved rate, p50/p99 latency, how
late the sender ran, and the outputs' checks.  A step passes when its p99
stays within :data:`SLO_MS` while the gateway keeps up (achieved >= 95% of
offered) and its checks hold; the knee is the last rate before the first
step that fails.  When no step fails, the highest rate is only a lower
bound on the knee.  Times here are raw host time: the sweep is a reference
figure, not a gated metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from servicebench import (  # noqa: E402
    CONNECTIONS, IO_TIMEOUT_S, GatewayProcess, check_drained, check_replies,
    make_requests,
)

#: offered rates (txns/s), from below the knee to past it
RATES = (500, 1000, 1500, 2000, 2250, 2500, 3000)
STEP_SECONDS = 4.0
#: the p99 limit (ms) a step must stay within
SLO_MS = 20.0
#: the seed of every step's requests
SEED = 1


async def _send(writer, frames, due, lateness):
    for (request_id, data), at in zip(frames, due):
        delay = at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            lateness.append(-delay)
        writer.write(data)
    await writer.drain()


async def _receive(reader, count, due_by_id, replies, latencies):
    for _ in range(count):
        line = await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)
        if not line:
            break
        reply = json.loads(line)
        replies.append(reply)
        due = due_by_id.get(reply.get("id"))
        if due is not None:
            latencies.append(time.perf_counter() - due)


async def step(gateway: GatewayProcess, rate: float, seconds: float, seed: int):
    requests = make_requests(seed, count=int(rate * seconds))
    port = await gateway.serve(seed, False)
    conns = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await reader.readline()  # welcome
        conns.append((reader, writer))
    sent = {}
    parts = [[] for _ in conns]
    for index, request in enumerate(requests, start=1):
        sent[index] = request
        parts[(index - 1) % len(conns)].append((index, request.frame(index)))
    per_conn_rate = rate / len(conns)
    start = time.perf_counter() + 0.05
    due_by_id, replies, latencies, lateness = {}, [], [], []
    tasks = []
    for (reader, writer), frames in zip(conns, parts):
        due = [start + i / per_conn_rate for i in range(len(frames))]
        due_by_id.update((rid, at) for (rid, _), at in zip(frames, due))
        tasks.append(_send(writer, frames, due, lateness))
        tasks.append(_receive(reader, len(frames), due_by_id, replies, latencies))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - start
    reader, writer = conns[0]
    writer.write(b'{"type":"drain","stop":true}\n')
    while True:
        report = json.loads(await reader.readline())
        if report.get("type") == "drained":
            break
    for _, writer in conns:
        writer.close()
    await gateway.read_event("stopped")
    ledger, failures, _ = check_replies(sent, replies)
    failures += check_drained(report, ledger, len(sent))
    latencies.sort()
    return {
        "offered": rate,
        "achieved": sum(1 for r in replies if r.get("type") == "result") / elapsed,
        "p50_ms": latencies[len(latencies) // 2] * 1000.0,
        "p99_ms": latencies[int(0.99 * (len(latencies) - 1))] * 1000.0,
        "max_send_late_ms": max(lateness, default=0.0) * 1000.0,
        "checks": "ok" if not failures else "; ".join(failures),
    }


async def sweep(rates, seconds, seed):
    gateway = await GatewayProcess.start(HERE.parent / "src")
    try:
        return [await step(gateway, rate, seconds, seed) for rate in rates]
    finally:
        await gateway.close()


def passes(row) -> bool:
    return (row["p99_ms"] <= SLO_MS and row["achieved"] >= 0.95 * row["offered"]
            and row["checks"] == "ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default=",".join(map(str, RATES)),
                        help="comma-separated offered rates, increasing")
    args = parser.parse_args(argv)
    rates = sorted(float(r) for r in args.rates.split(","))
    rows = asyncio.run(sweep(rates, STEP_SECONDS, SEED))
    knee, first_failing = None, None
    for row in rows:
        print(f"offered {row['offered']:7.0f}/s  achieved {row['achieved']:7.0f}/s  "
              f"p50 {row['p50_ms']:7.2f} ms  p99 {row['p99_ms']:8.2f} ms  "
              f"sender late <= {row['max_send_late_ms']:6.1f} ms  checks {row['checks']}")
        if first_failing is None:
            if passes(row):
                knee = row["offered"]
            else:
                first_failing = row["offered"]
    if knee is None:
        verdict = "below the lowest offered rate"
    elif first_failing is None:
        verdict = f">= {knee:.0f} txns/s offered (no step failed: a lower bound)"
    else:
        verdict = (f"{knee:.0f} txns/s offered "
                   f"(first failing step {first_failing:.0f}/s)")
    print(f"knee at p99 <= {SLO_MS:g} ms: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
