"""Serving workloads: ``repro serve`` in its own process, driven over TCP.

One connection per tenant.  A run alternates two timed phases, in
``ROUNDS`` rounds:

1. open loop: Poisson arrivals at a fixed total rate; each request is
   timed from its *intended* send time, so a stall also delays the
   requests scheduled behind it (no coordinated omission);
2. closed loop: a fixed window of requests in flight per connection;
   acknowledged operations per second is the server's capacity.

Queries and deletes target only profiles whose upsert is acknowledged,
and deleted profiles return to the pool that upserts draw from, so each
tenant's size stays stationary.  Afterwards every resident profile's
candidates, as the server answers them, must equal those of an
in-process ``StreamingSession`` fed the same acknowledged writes in the
same order.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from measure import (
    Result,
    TreeMemory,
    cpu_seconds,
    median,
    mib,
    percentile,
)

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Queries per tenant that warm each tenant up after it is loaded.
WARMUP_QUERIES = 10
#: Candidates a load query asks for (the final check asks for all).
QUERY_K = 10
#: Seconds an acknowledgement may take before it counts as lost.
ACK_TIMEOUT = 60.0
#: Generator lateness (p99, ms) beyond which a run's latencies are invalid.
LATE_LIMIT_MS = 50.0


#: Tenants, each on its own connection (no more connections than cores).
TENANTS = 2
#: Profiles per tenant loaded in set-up; upserts draw from the rest.
RESIDENT = 1000
#: Share of the run spent in the open-loop phase.  Each ``exact`` query
#: pays a view rebuild of tens of ms, so an open loop well below capacity
#: yields only a few queries a second; with about 70 of them (half of a
#: 24 s run) the median query latency spread by a quarter between runs.
#: The closed loop needs less time: the server is busy throughout it.
OPEN_SHARE = 0.75
#: Open/closed phase pairs per run.  The host's speed drifts within
#: seconds, so each metric samples the whole run rather than one stretch.
ROUNDS = 4
#: Requests in flight per connection in the closed-loop phase.  With more
#: than one, how many queries pay an ``exact`` view refresh depends on
#: how the writes happen to batch, and throughput swung by a third
#: between identical runs.
WINDOW = 1


@dataclass(frozen=True)
class ServeWorkload:
    """A server mode and the traffic mix sent to it."""

    name: str
    consistency: str
    #: Operation kinds, repeated in this order on every connection:
    #: ``q`` query, ``u`` upsert, ``d`` delete.  A fixed cycle sends
    #: the mix exactly, rather than only on average.
    cycle: str


LAYER_METRICS = {
    "streaming.view_refresh_ms": "ms",
    "streaming.view_refresh_frac": "ratio",
    "streaming.journal_us": "us",
    "streaming.apply_us": "us",
    "streaming.query_us": "us",
    "serving.protocol.parse_us": "us",
    "serving.protocol.encode_us": "us",
    "serving.tenant.queue_wait_ms": "ms",
    "serving.tenant.mean_batch_size": "count",
    "serving.tenant.overloads": "count",
    "serving.tenant.query_service_ms": "ms",
    "server.cpu_s": "s",
    "server.busy_frac": "ratio",
    "loadgen.offered_ops_s": "ops/s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.drain_s": "s",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p90_ms": "ms",
    "loadgen.query_n": "count",
    "loadgen.write_p50_ms": "ms",
    "loadgen.write_p90_ms": "ms",
    "loadgen.write_n": "count",
}


def _session(consistency: str, journal: Path | None = None):
    """A session configured like the ones ``repro serve`` creates."""
    from repro import BlastConfig, StreamingSession
    from repro.core.registry import PRUNERS

    config = BlastConfig(weighting="chi_h", stream_consistency=consistency)
    return StreamingSession(
        config,
        clean_clean=True,
        pruning=PRUNERS.get("blast")(config),
        journal=journal,
    )


_KINDS = {"q": "query", "u": "upsert", "d": "delete"}
#: How every success response line starts (``json.dumps({"ok": True, ...})``).
_OK = b'{"ok": true'



def _loaded_session(consistency: str, tenant: "Tenant", journal: Path | None = None):
    """A fresh session holding the tenant's set-up profiles."""
    from repro.serving.protocol import parse_request

    session = _session(consistency, journal=journal)
    for key in tenant.initial:
        session.upsert(parse_request(tenant.lines[key]).profile, key[1])
    return session


def _line(record: dict) -> bytes:
    return json.dumps(record).encode("utf-8") + b"\n"


class KeySet:
    """Profiles as ``(id, source)`` keys with O(1) random pick and removal."""

    def __init__(self, keys=()) -> None:
        self._keys: list = []
        self._where: dict = {}
        for key in keys:
            self.add(key)

    def add(self, key) -> None:
        self._where[key] = len(self._keys)
        self._keys.append(key)

    def remove(self, key) -> None:
        index = self._where.pop(key)
        last = self._keys.pop()
        if index < len(self._keys):
            self._keys[index] = last
            self._where[last] = index

    def pick(self, rng: random.Random):
        return self._keys[rng.randrange(len(self._keys))]

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(sorted(self._keys))


class Tenant:
    """Client-side view of one tenant: its profiles and what was acked."""

    def __init__(self, tenant_id: str, seed: int, resident: int) -> None:
        from repro import load_clean_clean

        self.id = tenant_id
        dataset = load_clean_clean("ar1", scale=1.0, seed=seed)
        self.lines: dict = {}
        keys = []
        for gidx, profile in dataset.iter_profiles():
            key = (profile.profile_id, dataset.source_of(gidx))
            keys.append(key)
            self.lines[key] = _line(
                {
                    "v": "upsert", "tenant": tenant_id, "id": key[0],
                    "source": key[1],
                    "attributes": [list(pair) for pair in profile.attributes],
                }
            )
        if len(keys) <= resident:
            raise ValueError(f"ar1 has {len(keys)} profiles, need more than {resident}")
        random.Random(seed).shuffle(keys)
        self.initial = keys[:resident]
        self.truth = {
            frozenset(((a, 0), (b, 1))) for a, b in dataset.ground_truth
        }
        self.reset()

    def reset(self) -> None:
        self.acked = KeySet(self.initial)
        initial = set(self.initial)
        self.pool = [key for key in self.lines if key not in initial]
        #: Phase operations in send order: [kind, key, line, ok, response].
        self.log: list[list] = []

    def next_op(self, cycle: str, rng: random.Random):
        """The next operation of the cycle; returns ``(kind, key, line)``."""
        kind = _KINDS[cycle[len(self.log) % len(cycle)]]
        if kind == "upsert" and not self.pool:
            kind = "query"
        if kind == "delete" and len(self.acked) < 2:
            kind = "upsert" if self.pool else "query"
        if kind == "upsert":
            key = self.pool.pop(rng.randrange(len(self.pool)))
            return kind, key, self.lines[key]
        key = self.acked.pick(rng)
        record = {"v": kind, "tenant": self.id, "id": key[0], "source": key[1]}
        if kind == "delete":
            self.acked.remove(key)  # no query may target it from now on
        else:
            record["k"] = QUERY_K
        return kind, key, _line(record)


class Connection(asyncio.Protocol):
    """One pipelined connection; responses arrive in request order.

    Each request carries a callback that receives the raw response line
    and its arrival time.  The client stays cheap per operation (no
    per-line coroutine, no JSON decoding on the load path), so that the
    server, not the load generator, limits closed-loop throughput.
    """

    def __init__(self) -> None:
        self.pending: deque = deque()
        self._buffer = b""
        self.transport = None

    @classmethod
    async def open(cls, port: int) -> "Connection":
        loop = asyncio.get_running_loop()
        _, conn = await loop.create_connection(cls, "127.0.0.1", port)
        return conn

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        at = time.perf_counter()
        buffer = self._buffer + data
        start = 0
        while (end := buffer.find(b"\n", start)) >= 0:
            self.pending.popleft()(buffer[start:end], at)
            start = end + 1
        self._buffer = buffer[start:]

    def send(self, line: bytes, callback) -> None:
        self.transport.write(line)
        self.pending.append(callback)

    async def request(self, line: bytes) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.send(line, lambda raw, _: future.set_result(json.loads(raw)))
        return await future

    async def drain(self, timeout: float) -> bool:
        """Wait until every request is answered; ``False`` on timeout."""
        deadline = time.perf_counter() + timeout
        while self.pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.002)
        return not self.pending

    async def close(self) -> None:
        self.transport.close()


class Server:
    """``python -m repro serve`` as a child process."""

    def __init__(self, root: Path, data_dir: Path, consistency: str, log) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data_dir), "--port", "0", "--clean-clean",
                "--consistency", consistency, "--log-interval", "3600",
            ],
            cwd=root, stdout=subprocess.PIPE, stderr=log,
        )
        banner = self.process.stdout.readline().decode()
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split()[2].rsplit(":", 1)[1])
        self.pid = self.process.pid

    def stop(self) -> None:
        """Wait for the process to exit; kill it if it does not in time."""
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Load:
    """Counters and samples of one run's traffic."""

    def __init__(self, spec: ServeWorkload, result: Result) -> None:
        self.spec = spec
        self.result = result
        self.latency = {"query": [], "write": []}
        self.late: list[float] = []
        self.closed_acks = 0
        #: Closed-loop ack times of the current round; each round's rate.
        self.closed_at: list[float] = []
        self.closed_rates: list[float] = []
        #: Seconds from each closed round's start to its last ack, summed.
        self.closed_span_s = 0.0
        self.phase_end = 0.0
        self.sent = 0

    def dispatch(self, conn: Connection, tenant: Tenant, rng, intended: float, phase: str, then=None):
        """Send the tenant's next operation; *then* runs after its ack."""
        kind, key, line = tenant.next_op(self.spec.cycle, rng)
        entry = [kind, key, line, None, None]
        tenant.log.append(entry)
        self.sent += 1

        def done(raw: bytes, at: float) -> None:
            ok = raw.startswith(_OK)
            entry[3], entry[4] = ok, raw
            if kind == "upsert":
                # Acked: queries may now target it.  Refused: not applied.
                (tenant.acked.add if ok else tenant.pool.append)(key)
            elif kind == "delete":
                (tenant.pool.append if ok else tenant.acked.add)(key)
            self.result.check(ok, "" if ok else f"{tenant.id} {kind} {key}: {raw[:200]!r}")
            if phase == "open":
                self.latency["query" if kind == "query" else "write"].append(at - intended)
            elif ok and at <= self.phase_end:
                self.closed_at.append(at)
            if then is not None:
                then()

        conn.send(line, done)


async def _open_loop(load: Load, conn, tenant, rng, rate: float, start: float, end: float) -> None:
    due = start
    while True:
        due += rng.expovariate(rate)
        if due >= end:
            return
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        load.late.append(time.perf_counter() - due)
        load.dispatch(conn, tenant, rng, due, "open")


async def _closed_loop(load: Load, conn, tenant, rng, end: float) -> None:
    """Keep ``window`` requests in flight until *end*, then let them finish."""
    finished = asyncio.get_running_loop().create_future()

    def refill() -> None:
        now = time.perf_counter()
        if now < end:
            load.dispatch(conn, tenant, rng, now, "closed", then=refill)
        elif not conn.pending and not finished.done():
            finished.set_result(None)

    for _ in range(WINDOW):
        refill()
    await asyncio.wait_for(finished, end - time.perf_counter() + ACK_TIMEOUT)


async def _preload_and_warm(spec, tenants, root: Path, data_dir: Path, log):
    """Set-up: load each tenant, start the server, warm the tenants up."""
    from repro.serving import TenantRegistry

    paths = TenantRegistry(data_dir)
    for tenant in tenants:
        session = _loaded_session(spec.consistency, tenant)
        snapshot = paths.snapshot_path(tenant.id)
        snapshot.parent.mkdir(parents=True, exist_ok=True)
        session.snapshot(snapshot)
        session.close()
    server = await asyncio.to_thread(Server, root, data_dir, spec.consistency, log)
    conns = [await Connection.open(server.port) for _ in tenants]
    for conn, tenant in zip(conns, tenants):
        for key in tenant.initial[:WARMUP_QUERIES]:
            response = await conn.request(
                _line({"v": "query", "tenant": tenant.id, "id": key[0], "source": key[1], "k": QUERY_K})
            )
            if not response.get("ok"):
                raise RuntimeError(f"warm-up query failed: {response}")
    return server, conns


async def _stop(server: Server, conns) -> None:
    control = await Connection.open(server.port)
    await control.request(_line({"v": "shutdown"}))
    await control.close()
    for conn in conns:
        await conn.close()
    await asyncio.to_thread(server.stop)


async def _final_answers(conn: Connection, tenant: Tenant) -> dict:
    """The server's full candidate list of every resident profile."""
    answers: dict = {}

    def keep(key):
        def done(raw, _):
            response = json.loads(raw)
            if response.get("ok"):
                answers[key] = [
                    (c["id"], c["source"], c["weight"]) for c in response["candidates"]
                ]
            else:
                answers[key] = response
        return done

    for key in tenant.acked:
        record = {"v": "query", "tenant": tenant.id, "id": key[0], "source": key[1]}
        conn.send(_line(record), keep(key))
    await conn.drain(ACK_TIMEOUT)
    return answers


async def _stats(conn: Connection) -> dict:
    return (await conn.request(_line({"v": "stats"})))["stats"]


async def _drive(spec, seed, seconds, rate, root, work, result, trace):
    """Set-up, both timed phases and the server-side final state."""
    tenants = [Tenant(f"t{i}", seed * 100 + i, RESIDENT) for i in range(TENANTS)]
    setups = []
    log = open(work / "server.log", "wb")
    server = conns = None
    repeats = 1 if trace else SETUP_REPEATS
    try:
        for rep in range(repeats):
            data_dir = work / "tenants"
            shutil.rmtree(data_dir, ignore_errors=True)
            for tenant in tenants:
                tenant.reset()
            start = time.perf_counter()
            server, conns = await _preload_and_warm(spec, tenants, root, data_dir, log)
            setups.append(time.perf_counter() - start)
            if rep < repeats - 1:
                await _stop(server, conns)
                server = conns = None

        control = await Connection.open(server.port)
        before = await _stats(control)
        load = Load(spec, result)
        rngs = [random.Random(seed * 1000 + i) for i in range(TENANTS)]
        open_s = seconds * OPEN_SHARE / ROUNDS
        closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
        sent_open = 0
        drain_s = closed_cpu = closed_wall = 0.0
        cpu0 = cpu_seconds(server.pid)
        with TreeMemory(server.pid) as memory:
            memory.start()
            # Collector pauses in this process would read as server latency.
            gc.collect()
            gc.disable()
            for _ in range(ROUNDS):
                start = time.perf_counter()
                end = start + open_s
                sent = load.sent
                await asyncio.gather(*(
                    _open_loop(load, conn, tenant, rng, rate / TENANTS, start, end)
                    for conn, tenant, rng in zip(conns, tenants, rngs)
                ))
                sent_open += load.sent - sent
                drained = [await conn.drain(ACK_TIMEOUT) for conn in conns]
                drain_s = max(drain_s, time.perf_counter() - end)
                result.check(all(drained), "open-loop acknowledgements lost")

                cpu = cpu_seconds(server.pid)
                start = time.perf_counter()
                load.phase_end = end = start + closed_s
                load.closed_at = []
                await asyncio.gather(*(
                    _closed_loop(load, conn, tenant, rng, end)
                    for conn, tenant, rng in zip(conns, tenants, rngs)
                ))
                drained = [await conn.drain(ACK_TIMEOUT) for conn in conns]
                result.check(all(drained), "closed-loop acknowledgements lost")
                # Acks over the time they took: no partial operation at the end.
                acks = load.closed_at
                if acks:
                    load.closed_acks += len(acks)
                    load.closed_span_s += acks[-1] - start
                    load.closed_rates.append(len(acks) / (acks[-1] - start))
                closed_cpu += cpu_seconds(server.pid) - cpu
                closed_wall += time.perf_counter() - start
            gc.enable()
            peak = memory.peak()
        server_cpu = cpu_seconds(server.pid) - cpu0
        after = await _stats(control)
        answers = [await _final_answers(conn, tenant) for conn, tenant in zip(conns, tenants)]
        await control.close()
        await _stop(server, conns)
        server = None
    finally:
        gc.enable()
        if server is not None:
            server.process.kill()
            await asyncio.to_thread(server.stop)
        log.close()

    late_p99 = percentile(load.late, 0.99) * 1e3
    result.check(
        late_p99 <= LATE_LIMIT_MS,
        f"load generator fell behind: p99 lateness {late_p99:.1f} ms",
    )
    return {
        "tenants": tenants, "answers": answers, "load": load, "setups": setups,
        "peak": peak, "server_cpu": server_cpu, "closed_busy": closed_cpu / closed_wall,
        "before": before, "after": after, "drain_s": drain_s,
        "offered": sent_open / (open_s * ROUNDS), "late_p99": late_p99,
    }


def _replay(spec, tenant: Tenant, timed: bool):
    """An in-process session fed the tenant's acked writes, in send order.

    With *timed*, every call is timed and each logged query is run twice
    (the first pays any view refresh, the second reads a fresh view).
    """
    from repro.serving.protocol import encode, parse_request

    times = {"parse": [], "encode": [], "write": [], "first": [], "query": [], "refresh": []}
    session = _loaded_session(spec.consistency, tenant)
    clock = time.perf_counter
    start = clock()
    for kind, key, line, ok, response in tenant.log:
        if not ok:
            continue
        if timed:
            t0 = clock()
            request = parse_request(line)
            t1 = clock()
            times["parse"].append(t1 - t0)
        else:
            request = parse_request(line)
        t0 = clock()
        if kind == "upsert":
            session.upsert(request.profile, key[1])
        elif kind == "delete":
            session.delete(key[0], key[1])
        elif timed:
            session.candidates(key[0], k=QUERY_K, source=key[1])
            t1 = clock()
            session.candidates(key[0], k=QUERY_K, source=key[1])
            t2 = clock()
            times["first"].append(t1 - t0)
            times["query"].append(t2 - t1)
            times["refresh"].append(max(0.0, (t1 - t0) - (t2 - t1)))
        if timed and kind != "query":
            times["write"].append(clock() - t0)
        if timed:
            response = json.loads(response)
            t0 = clock()
            encode(response)
            times["encode"].append(clock() - t0)
    return session, times, clock() - start


def _timed_writes(spec, tenant: Tenant, journal: Path | None) -> list[float]:
    """Seconds per acked write, replayed into a fresh session."""
    from repro.serving.protocol import parse_request

    session = _loaded_session(spec.consistency, tenant, journal)
    spent = []
    for kind, key, line, ok, _ in tenant.log:
        if not ok or kind == "query":
            continue
        request = parse_request(line)
        start = time.perf_counter()
        if kind == "upsert":
            session.upsert(request.profile, key[1])
        else:
            session.delete(key[0], key[1])
        spent.append(time.perf_counter() - start)
    session.close()
    return spent


def _check_final(spec, state, result: Result):
    """Server answers against in-process sessions; returns PC and PQ."""
    found = truth = compared = 0
    for tenant, answers in zip(state["tenants"], state["answers"]):
        session, _, _ = _replay(spec, tenant, timed=False)
        result.check(
            session.index.num_profiles == len(tenant.acked),
            f"{tenant.id}: in-process session holds {session.index.num_profiles} "
            f"profiles, {len(tenant.acked)} acked",
        )
        pairs = set()
        for key in tenant.acked:
            expected = [
                (c.profile_id, c.source, round(c.weight, 6))
                for c in session.candidates(key[0], source=key[1])
            ]
            got = answers.get(key)
            result.check(got == expected, f"{tenant.id} {key}: final candidates differ")
            if isinstance(got, list):
                pairs.update(frozenset((key, (c[0], c[1]))) for c in got)
        resident = set(tenant.acked)
        relevant = {pair for pair in tenant.truth if pair <= resident}
        found += len(pairs & relevant)
        truth += len(relevant)
        compared += len(pairs)
    return found / max(1, truth), found / max(1, compared)


def run(spec: ServeWorkload, seed: int, seconds: float, rate: float, root: Path, cache: Path, result: Result) -> None:
    """Untraced run: every end-to-end metric of a serving workload."""
    work = cache / spec.name
    work.mkdir(parents=True, exist_ok=True)
    state = asyncio.run(_drive(spec, seed, seconds, rate, root, work, result, trace=False))
    pc, pq = _check_final(spec, state, result)
    load = state["load"]
    queries, writes = load.latency["query"], load.latency["write"]
    result.put("setup_s", median(state["setups"]), "s")
    result.put("latency_p50_ms", median(queries) * 1e3, "ms")
    result.check(load.closed_acks > 0, "closed loop: no operation acknowledged")
    result.put("throughput_ops_s", load.closed_acks / max(load.closed_span_s, 1e-9), "ops/s")
    result.put("peak_rss_mb", mib(state["peak"]), "MiB")
    result.put("pc", pc, "ratio")
    result.put("pq", pq, "ratio")
    result.notes.append(
        f"{spec.name}: open loop at {state['offered']:.1f} ops/s offered: query p50/p90 "
        f"{median(queries) * 1e3:.1f}/{percentile(queries, 0.9) * 1e3:.1f} ms (n={len(queries)}), "
        f"write p50/p90 {median(writes) * 1e3:.1f}/{percentile(writes, 0.9) * 1e3:.1f} ms "
        f"(n={len(writes)}), generator late p99 {state['late_p99']:.2f} ms; closed loop "
        f"{load.closed_acks} acks, ops/s by round {['%.1f' % r for r in load.closed_rates]}, "
        f"server busy {state['closed_busy']:.2f}; "
        f"setups {['%.2f' % t for t in state['setups']]}"
    )


def _tenant_stats(stats: dict) -> list[dict]:
    return list(stats["tenants"].values())


def run_traced(spec: ServeWorkload, seed: int, seconds: float, rate: float, root: Path, cache: Path, result: Result) -> None:
    """Traced run: server counters, /proc, and a timed in-process replay."""
    work = cache / spec.name
    work.mkdir(parents=True, exist_ok=True)
    state = asyncio.run(_drive(spec, seed, seconds, rate, root, work, result, trace=True))
    _check_final(spec, state, result)

    times: dict[str, list[float]] = {}
    plain: list[float] = []
    journaled: list[float] = []
    replay_wall = 0.0
    for tenant in state["tenants"]:
        _, tenant_times, wall = _replay(spec, tenant, timed=True)
        replay_wall += wall
        for name, values in tenant_times.items():
            times.setdefault(name, []).extend(values)
        # The acked writes alone, without and with a write-ahead journal.
        plain.extend(_timed_writes(spec, tenant, None))
        journal = work / f"replay-{tenant.id}.wal"
        journal.unlink(missing_ok=True)
        journaled.extend(_timed_writes(spec, tenant, journal))
        journal.unlink(missing_ok=True)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    # One pass of the server's work: the repeated query is not part of it.
    serving_work = sum(sum(times[name]) for name in ("parse", "encode", "write", "first"))
    attributed = serving_work + sum(times["query"])
    load = state["load"]
    before, after = _tenant_stats(state["before"]), _tenant_stats(state["after"])
    batches = sum(a["batches"] - b["batches"] for a, b in zip(after, before))
    ops = sum(
        (a["upserts"] + a["deletes"]) - (b["upserts"] + b["deletes"])
        for a, b in zip(after, before)
    )
    write_ring = median([t["write_latency_ms"]["p50"] for t in after])
    put = result.put
    put("streaming.view_refresh_ms", mean(times["refresh"]) * 1e3, "ms")
    put("streaming.view_refresh_frac", sum(times["refresh"]) / serving_work if serving_work else 0.0, "ratio")
    put("streaming.apply_us", mean(plain) * 1e6, "us")
    put("streaming.journal_us", (mean(journaled) - mean(plain)) * 1e6, "us")
    put("streaming.query_us", mean(times["query"]) * 1e6, "us")
    put("serving.protocol.parse_us", mean(times["parse"]) * 1e6, "us")
    put("serving.protocol.encode_us", mean(times["encode"]) * 1e6, "us")
    # The server's enqueue-to-applied median less the write itself.
    put("serving.tenant.queue_wait_ms", max(0.0, write_ring - mean(journaled) * 1e3), "ms")
    put("serving.tenant.mean_batch_size", ops / batches if batches else 0.0, "count")
    put("serving.tenant.overloads", sum(a["overloads"] - b["overloads"] for a, b in zip(after, before)), "count")
    put("serving.tenant.query_service_ms", median([t["query_latency_ms"]["p50"] for t in after]), "ms")
    put("server.cpu_s", state["server_cpu"], "s")
    put("server.busy_frac", state["closed_busy"], "ratio")
    put("loadgen.offered_ops_s", state["offered"], "ops/s")
    put("loadgen.late_p99_ms", state["late_p99"], "ms")
    put("loadgen.drain_s", state["drain_s"], "s")
    for kind in ("query", "write"):
        samples = load.latency[kind]
        put(f"loadgen.{kind}_p50_ms", median(samples) * 1e3 if samples else 0.0, "ms")
        put(f"loadgen.{kind}_p90_ms", percentile(samples, 0.90) * 1e3 if samples else 0.0, "ms")
        put(f"loadgen.{kind}_n", len(samples), "count")
    # The traced run adds nothing to the server or to the timed phases.
    put("trace.overhead_frac", 0.0, "ratio")
    put("trace.unattributed_frac", 1 - attributed / replay_wall if replay_wall else 0.0, "ratio")
