"""The ``serve-drift`` workload: predict reads beside drift-driven writes.

One process holds the system: a :class:`StreamController` ingesting a
drifting stream into a ``ProcessPoolService`` fronted by an ``EdgeThread``.
A separate load-generator process (one asyncio thread, at most ``nproc``
keep-alive connections) sends predict requests over HTTP.  The measured
window repeats one cycle of about ``CYCLE_S`` seconds, so every phase of it
samples the whole window rather than one stretch of it:

1. open loop at ``NOMINAL_RPS`` on a seeded Poisson schedule -- the
   latency metrics, each request timed from when it was due;
2. open loop up the fixed ``LADDER_RPS`` steps -- the highest step whose
   p99 stays within ``LATENCY_LIMIT_MS`` with no growing backlog;
3. closed loop, every connection sending back to back -- the points
   labelled per second at ``nproc`` concurrent clients.

Meanwhile the producer ingests ``BATCH`` points ``INGEST_HZ`` times a
second.  At the start of every cycle the stream's phase takes one step up
or down a ``PHASE_STEPS``-level staircase between 0 and 1, so every cycle
opens a drift episode (flag, re-tune, hot swap).  Many short episodes per
run, rather than one long one, keep the served quality from hanging on a
single re-tune's choice of scale.  Every answer is checked against
``ClusterModel.predict`` of a version live between its send and its
receipt; the versions come from the ``on_swap`` callback.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import multiprocessing
import os
import shutil
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench_common import (
    OUT_DIR, Tracer, cpu_seconds, digest, histogram_quantile, median, quantile,
    vm_hwm_mb,
)

NAME = "live"
BOUNDS = ([0.0, 0.0], [1.0, 1.0])
#: Closed-loop capacity of the serving plane with this request mix at
#: ``nproc`` connections, in requests/s (about 1100 points per request),
#: measured over ten seeds on a shared 2-vCPU x86-64 host: typically about
#: 450 (500k points/s), and 150 (170k points/s) in the slowest run, when
#: the host was loaded.  The rates below are fixed shares of these.
CAPACITY_RPS = 450.0
SLOWEST_CAPACITY_RPS = 150.0
#: Open-loop request rates (requests/s): the nominal rate the latency
#: metrics are taken at -- half the slowest capacity, so the plane stays
#: below saturation even while a re-tune competes for the CPUs on a loaded
#: host -- then the ladder, from the slowest capacity up to the typical one.
NOMINAL_RPS = SLOWEST_CAPACITY_RPS / 2
LADDER_RPS = (SLOWEST_CAPACITY_RPS, 2 * CAPACITY_RPS / 3, CAPACITY_RPS)
#: Limit on p99 latency: the default latency objective of
#: ``repro.obs.slo.Objective`` (``threshold_seconds=0.25``).
LATENCY_LIMIT_MS = 250.0
#: Target cycle length, and the shares of a cycle: the nominal stretch, each
#: ladder step; the closed loop takes the rest.
CYCLE_S = 2.5
NOMINAL_SHARE = 0.5
STEP_SHARE = 0.06
#: A rate step is sustained while, in the median cycle, no more requests
#: than this are due but unsent at its end.
MAX_BACKLOG = 4
#: Closed-loop requests scheduled per second of closed loop: four times
#: ``CAPACITY_RPS``, so the loop does not run dry even if the plane gets much
#: faster.  They cycle through ``CLOSED_DISTINCT`` distinct payloads per
#: cycle, which keeps the schedule's memory small.
CLOSED_SUPPLY_RPS = 4 * CAPACITY_RPS
CLOSED_DISTINCT = 64
#: Request sizes (points): small requests as in the 1000-point requests
#: whose model/pool/edge split (0.3/1.1/4.3 ms) motivated this workload,
#: edge- and IPC-bound; bulk requests as in ``run_procpool_throughput``
#: (200000 queries over 64 requests), more predict-bound.  Every
#: ``BULK_EVERY``-th request is bulk: a fixed interleave, so the mix is
#: exact in every stretch.  The share itself is not taken from any
#: measured traffic.
SMALL_POINTS, BULK_POINTS, BULK_EVERY = 1000, 3125, 20
#: Stream: points per ingested batch, batches per second, sketch window
#: (batches), drift check cadence (batches), warm-up points, phase levels.
BATCH = 10000
INGEST_HZ = 8.0
WINDOW = 4
CHECK_EVERY = 2
WARMUP = 2 * BATCH
PHASE_STEPS = 4
SNAPSHOTS = 21
#: Requests replayed directly against the model, the pool and the edge in
#: a traced run.
PROBES = 100
#: Tag of closed-loop requests.
CLOSED = len(LADDER_RPS) + 1


def _snapshots(seed: int):
    """Drifting-stream snapshots at phases 0, 0.05, ..., 1."""
    from repro.datasets import drifting_dataset

    return [drifting_dataset(k / (SNAPSHOTS - 1), n_per_cluster=3000,
                             seed=seed * 1000 + k)
            for k in range(SNAPSHOTS)]


def _cycles(seconds: float):
    """``(begin, nominal_end, ladder_end, end)`` offsets of each cycle."""
    n = max(1, int(round(seconds / CYCLE_S)))
    length = seconds / n
    return [(k * length, (k + NOMINAL_SHARE) * length,
             (k + NOMINAL_SHARE + STEP_SHARE * len(LADDER_RPS)) * length,
             (k + 1) * length) for k in range(n)]


def _phase(offset: float, seconds: float) -> float:
    """Stream phase ``offset`` seconds into the window: one step per cycle,
    climbing 0 -> 1 and back down, so every cycle opens a drift episode."""
    cycle = 0
    for k, (begin, *_) in enumerate(_cycles(seconds)):
        if offset >= begin:
            cycle = k
    top = PHASE_STEPS - 1
    step = cycle % (2 * top)
    return (step if step <= top else 2 * top - step) / top


def _sample(snapshots, phase: float, size: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    snap = snapshots[int(round(phase * (SNAPSHOTS - 1)))]
    rows = rng.integers(0, len(snap.points), size=size)
    return snap.points[rows], snap.labels[rows]


def make_requests(seed: int, seconds: float):
    """The seeded request schedule: due offsets, tags, points, truth.

    Tag 0 is the nominal stretch, ``1..len(LADDER_RPS)`` the ladder steps
    and ``CLOSED`` the closed loop, whose requests are grouped by cycle
    (``closed_segments``: ``(begin, end, request indices)``; their due
    offset is the segment's begin).
    """
    rng = np.random.default_rng([seed, 7])
    snapshots = _snapshots(seed)
    due: List[float] = []
    tags: List[int] = []
    segments = []
    for begin, nominal_end, ladder_end, end in _cycles(seconds):
        stretches = [(begin, nominal_end, NOMINAL_RPS)]
        step = (ladder_end - nominal_end) / len(LADDER_RPS)
        stretches += [(nominal_end + k * step, nominal_end + (k + 1) * step, rate)
                      for k, rate in enumerate(LADDER_RPS)]
        for tag, (lo, hi, rate) in enumerate(stretches):
            t = lo + rng.exponential(1.0 / rate)
            while t < hi:
                due.append(t)
                tags.append(tag)
                t += rng.exponential(1.0 / rate)
        count = int(CLOSED_SUPPLY_RPS * (end - ladder_end)) + 16
        segments.append((ladder_end, end, np.arange(len(due), len(due) + count)))
        due += [ladder_end] * count
        tags += [CLOSED] * count
    points, truth = [], []
    segment_of = {int(members[0]): members for _, _, members in segments}
    members = ()
    for i, offset in enumerate(due):
        members = segment_of.get(i, members)
        if tags[i] == CLOSED and i - members[0] >= CLOSED_DISTINCT:
            reused = members[0] + (i - members[0]) % CLOSED_DISTINCT
            points.append(points[reused])
            truth.append(truth[reused])
            continue
        size = BULK_POINTS if i % BULK_EVERY == BULK_EVERY - 1 else SMALL_POINTS
        X, y = _sample(snapshots, _phase(offset, seconds), size, rng)
        points.append(X)
        truth.append(y)
    return {"due": np.asarray(due), "tags": np.asarray(tags), "points": points,
            "truth": truth, "closed_segments": segments}


def _npy(X: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, X)
    return buffer.getvalue()


# -- load generator (runs in its own process) ---------------------------------


async def _exchange(reader, writer, body: bytes) -> Tuple[int, bytes]:
    writer.write(b"POST /predict/" + NAME.encode() + b" HTTP/1.1\r\nHost: bench\r\n"
                 b"Content-Type: application/x-npy\r\nContent-Length: "
                 + str(len(body)).encode() + b"\r\n\r\n" + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _load(port: int, requests, t0: float, connections: int):
    n = len(requests["due"])
    encoded: Dict[int, bytes] = {}
    bodies = [encoded.get(id(X)) or encoded.setdefault(id(X), _npy(X))
              for X in requests["points"]]
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    late = np.full(n, np.nan)
    status = np.zeros(n, dtype=np.int64)
    labels: List[Optional[np.ndarray]] = [None] * n
    queue: asyncio.Queue = asyncio.Queue()

    async def issue(index, reader, writer):
        sent[index] = time.monotonic()
        code, body = await _exchange(reader, writer, bodies[index])
        received[index] = time.monotonic()
        status[index] = code
        if code == 200:
            labels[index] = np.load(io.BytesIO(body))

    async def connection():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                if isinstance(item, tuple):  # a closed-loop segment
                    end, supply = item
                    while time.monotonic() < end:
                        index = next(supply, None)
                        if index is None:
                            break
                        await issue(index, reader, writer)
                else:
                    await issue(item, reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()

    async def sleep_until(at):
        delay = at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def schedule():
        open_loop = iter(np.flatnonzero(requests["tags"] != CLOSED))
        index = next(open_loop, None)
        for begin, end, members in requests["closed_segments"]:
            while index is not None and requests["due"][index] < begin:
                due = t0 + requests["due"][index]
                await sleep_until(due)
                late[index] = time.monotonic() - due
                queue.put_nowait(int(index))
                index = next(open_loop, None)
            await sleep_until(t0 + begin)
            supply = iter(int(i) for i in members)
            for _ in range(connections):
                queue.put_nowait((t0 + end, supply))
        for _ in range(connections):
            queue.put_nowait(None)

    tasks = [asyncio.create_task(connection()) for _ in range(connections)]
    await schedule()
    await asyncio.gather(*tasks)
    return {"sent": sent, "received": received, "late": late, "status": status,
            "labels": labels}


def client_main(port: int, seed: int, seconds: float, connections: int, pipe) -> None:
    """Load-generator process: build the schedule, wait for ``t0``, run it."""
    requests = make_requests(seed, seconds)
    pipe.send("ready")
    t0 = pipe.recv()
    records = asyncio.run(_load(port, requests, t0, connections))
    pipe.send("done")
    pipe.send(records)
    pipe.close()


# -- the system under test ------------------------------------------------------


class _Plane:
    """One serving stack: pool, stream controller, edge, and its callbacks."""

    def __init__(self, store, batches) -> None:
        from repro import ProcessPoolService, StreamController
        from repro.serve import EdgeThread

        self.swaps: List[Tuple[float, str, object, float]] = []
        self.drifts: List[float] = []
        self.ingest_started = 0.0
        self.service = ProcessPoolService(store, n_workers=os.cpu_count())
        self.edge = None
        try:
            self.controller = StreamController(
                NAME, BOUNDS, 2, service=self.service, warmup=WARMUP,
                check_every=CHECK_EVERY, window=WINDOW,
                on_drift=lambda report: self.drifts.append(time.monotonic()),
                on_swap=self._on_swap)
            while self.controller.model_ is None:
                self.ingest(next(batches))
            self.edge = EdgeThread(self.service)
        except BaseException:
            self.close()
            raise

    def _on_swap(self, version, model) -> None:
        self.swaps.append((time.monotonic(), version, model,
                           self.controller.last_retune_seconds_))

    def ingest(self, X) -> float:
        self.ingest_started = start = time.monotonic()
        self.controller.ingest(X)
        return time.monotonic() - start

    def http_predict(self, X: np.ndarray, connection=None) -> np.ndarray:
        own = connection is None
        if own:
            connection = http.client.HTTPConnection(self.edge.host, self.edge.port,
                                                    timeout=30)
        try:
            connection.request("POST", f"/predict/{NAME}", body=_npy(X),
                               headers={"Content-Type": "application/x-npy"})
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"predict answered {response.status}: {body[:200]!r}")
            return np.load(io.BytesIO(body))
        finally:
            if own:
                connection.close()

    def close(self) -> None:
        try:
            if self.edge is not None:
                self.edge.close()
        finally:
            self.service.close()


def _batches(snapshots, seed: int, key: int, phases):
    """One producer batch per phase in ``phases``, drawn from stream ``key``.

    In the window the phase follows the batch index, not the clock, so the
    stream -- and with it every drift check, re-tune and published model --
    depends on the seed alone.
    """
    rng = np.random.default_rng([seed, key])
    for phase in phases:
        yield _sample(snapshots, phase, BATCH, rng)[0]


def _receive(pipe, timeout: float):
    """The load generator's next message; fails rather than hang on it."""
    if not pipe.poll(timeout):
        raise TimeoutError(f"no word from the load generator in {timeout:.0f} s")
    return pipe.recv()


def _live_versions(swaps, ingest_starts):
    """``(begin, end, model)``: monotonic bounds each version was live within.

    A version goes live during the ``ingest`` call that fires its
    ``on_swap`` and stays live until the next version's ``on_swap``.
    """
    ends = [swap[0] for swap in swaps[1:]] + [np.inf]
    return [(begin, end, swap[2]) for begin, end, swap in zip(ingest_starts, ends, swaps)]


def _ready_plane(store, snapshots, seed: int) -> Tuple[_Plane, str]:
    """Spawn the pool, ingest until the warm-up model is published, start
    the edge and answer one first request over HTTP.

    Returns the plane and the digest of that first answer, which must equal
    the warm-up model's own prediction.
    """
    shutil.rmtree(store, ignore_errors=True)
    warmup_batches = -(-WARMUP // BATCH)
    plane = _Plane(store, _batches(snapshots, seed, 11, [0.0] * warmup_batches))
    try:
        X = _sample(snapshots, 0.0, SMALL_POINTS, np.random.default_rng([seed, 13]))[0]
        answer = plane.http_predict(X)
        if not np.array_equal(answer, plane.swaps[-1][2].predict(X)):
            raise RuntimeError("the first answer differs from the warm-up model's")
    except BaseException:
        plane.close()
        raise
    return plane, digest(answer)


def setup_once(seed: int, report) -> None:
    """Set-up as a cold process does it, up to the first answer, whose
    digest goes to ``report``; then the plane is closed."""
    plane, first = _ready_plane(OUT_DIR / "store-setup", _snapshots(seed), seed)
    try:
        report(first)
    finally:
        plane.close()


def run(seed: int, seconds: float, trace: bool):
    from repro.metrics import adjusted_mutual_info

    connections = os.cpu_count() or 1
    snapshots = _snapshots(seed)
    plane: Optional[_Plane] = None
    context = multiprocessing.get_context("spawn")
    parent_pipe, child_pipe = context.Pipe()
    client = None
    try:
        plane, first = _ready_plane(OUT_DIR / "store", snapshots, seed)
        swap_starts = [plane.ingest_started]
        client = context.Process(target=client_main, name="perfbench-load",
                                 args=(plane.edge.port, seed, seconds, connections,
                                       child_pipe))
        client.start()
        # Only the child holds its end now, so a dead child reads as EOF.
        child_pipe.close()
        if _receive(parent_pipe, 60.0) != "ready":
            raise RuntimeError("load generator failed to start")
        t0 = time.monotonic() + 0.2
        parent_pipe.send(t0)
        checks_before = plane.controller.n_checks_
        retunes_before = plane.controller.n_retunes_
        swaps_counted = plane.service.telemetry.snapshot()["swaps"]["count"]
        swaps_before = len(plane.swaps)
        drifts_before = len(plane.drifts)
        ingest_s: List[float] = []
        stream = _batches(snapshots, seed, 12, [_phase(i / INGEST_HZ, seconds)
                                     for i in range(int(seconds * INGEST_HZ))])
        for i, batch in enumerate(stream):
            delay = t0 + i / INGEST_HZ - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            n_swaps = len(plane.swaps)
            ingest_s.append(plane.ingest(batch))
            if len(plane.swaps) > n_swaps:
                swap_starts.append(plane.ingest_started)
        if _receive(parent_pipe, 60.0) != "done":
            raise RuntimeError("load generator failed")
        # The system's peak memory, read before this process takes in the
        # answers and builds its own copy of the requests to check them.
        rss_each = [vm_hwm_mb()] + [vm_hwm_mb(pid) for pid in plane.service.pool.pids()
                                    if pid is not None]
        rss = sum(rss_each)
        records = _receive(parent_pipe, 30.0)
        client.join(timeout=30)
        window_end = time.monotonic()
        snapshot = plane.service.telemetry.snapshot()
        requests_per_batch = plane.service.n_requests_ / max(plane.service.n_batches_, 1)
        requests = make_requests(seed, seconds)
        probes = _probe(plane, requests) if trace else {}
        counts = {"stream.checks": plane.controller.n_checks_ - checks_before,
                  "stream.retunes": plane.controller.n_retunes_ - retunes_before,
                  "stream.swaps": snapshot["swaps"]["count"] - swaps_counted}
        swaps = plane.swaps[swaps_before - 1:]
        drifts = plane.drifts[drifts_before:]
    finally:
        if plane is not None:
            plane.close()
        if client is not None:
            client.join(timeout=30)
            if client.is_alive():
                client.terminate()
                client.join(timeout=5)
        parent_pipe.close()
        child_pipe.close()
    verdict = _verify(requests, records, _live_versions(swaps, swap_starts))
    lat_ms = (records["received"] - (t0 + requests["due"])) * 1e3
    tags = requests["tags"]
    ok = verdict["ok"]
    # Latency, throughput and quality are medians over the cycles, so a host
    # stall that hits one cycle, or one re-tune's poor choice of scale, does
    # not set the run's figure.
    cycle_latency = [lat_ms[ok & (tags == 0) & (requests["due"] >= begin)
                            & (requests["due"] < nominal_end)]
                     for begin, nominal_end, *_ in _cycles(seconds)]
    cycle_ami = []
    for begin, *_, end in _cycles(seconds):
        answered = np.flatnonzero(ok & (requests["due"] >= begin) & (requests["due"] < end))
        if len(answered):
            cycle_ami.append(adjusted_mutual_info(
                np.concatenate([requests["truth"][i] for i in answered]),
                np.concatenate([records["labels"][i] for i in answered])))
    closed_rates = _closed_rates(requests, records, ok)
    cycle_p50 = [quantile(c, 0.5) for c in cycle_latency if len(c)]
    cycle_p75 = [quantile(c, 0.75) for c in cycle_latency if len(c)]
    attempted = int(np.sum(~np.isnan(records["sent"])))
    failed = attempted - int(ok.sum())
    info = {"requests": attempted, "window_s": window_end - t0,
            "versions_live": len(swaps), "wrong_answers": verdict["wrong"],
            "first_digest": first,
            "http_errors": verdict["errors"], "ladder": _ladder(requests, records, lat_ms, ok, t0, seconds),
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "rss_mb_by_process": rss_each,
            "latency_ms_p50_by_cycle": cycle_p50, "latency_ms_p75_by_cycle": cycle_p75,
            "points_per_s_by_cycle": closed_rates, "ami_by_cycle": cycle_ami}
    if not trace:
        metrics = {
            "peak_rss_mb": (rss, "MB"),
            "latency_ms.p50": (median(cycle_p50), "ms"),
            "latency_ms.p75": (median(cycle_p75), "ms"),
            "points_per_s": (median(closed_rates) if closed_rates else 0.0, "pts/s"),
            "ami": (median(cycle_ami), "ratio"),
        }
    else:
        metrics = _layers(snapshot, probes, swaps, drifts, ingest_s, counts,
                          requests_per_batch, records, lat_ms, info["ladder"],
                          ok, tags)
    correct = failed == 0
    return correct, attempted, failed, metrics, info


def _closed_rates(requests, records, ok) -> List[float]:
    """Points labelled per second in each cycle's closed-loop segment, from
    its first send to its last answer."""
    rates = []
    for _, _, members in requests["closed_segments"]:
        done = members[ok[members]]
        if len(done):
            span = np.max(records["received"][done]) - np.min(records["sent"][done])
            rates.append(sum(len(requests["points"][i]) for i in done) / span)
    return rates


def _verify(requests, records, live) -> Dict:
    """Check every answer against a version live between send and receipt."""
    n = len(requests["due"])
    ok = np.zeros(n, dtype=bool)
    wrong = errors = 0
    expected: Dict[Tuple[int, int], np.ndarray] = {}  # reused payloads
    for i in range(n):
        if np.isnan(records["sent"][i]):
            continue
        if records["status"][i] != 200:
            errors += 1
            continue
        sent, received = records["sent"][i], records["received"][i]
        got = records["labels"][i]
        X = requests["points"][i]
        for begin, end, model in live:
            if not (begin <= received and sent <= end):
                continue
            key = (id(X), id(model))
            if key not in expected:
                expected[key] = model.predict(X)
            if np.array_equal(expected[key], got):
                ok[i] = True
                break
        wrong += not ok[i]
    return {"ok": ok, "wrong": wrong, "errors": errors}


def _ladder(requests, records, lat_ms, ok, t0, seconds) -> List[Dict]:
    """Per open-loop rate: p99 from due, and the median over the cycles of
    the backlog (requests due but not yet sent) at the end of its stretch."""
    due = np.where(requests["tags"] == CLOSED, np.inf, t0 + requests["due"])
    ends = {tag: [] for tag in range(CLOSED)}
    for _, nominal_end, ladder_end, _ in _cycles(seconds):
        ends[0].append(nominal_end)
        step = (ladder_end - nominal_end) / len(LADDER_RPS)
        for k in range(len(LADDER_RPS)):
            ends[k + 1].append(nominal_end + (k + 1) * step)
    steps = []
    for tag, rate in enumerate((NOMINAL_RPS,) + LADDER_RPS):
        mask = requests["tags"] == tag
        answered = ok & mask
        p99 = quantile(lat_ms[answered], 0.99) if answered.any() else float("inf")
        backlog = median([int(np.sum((due <= t0 + end) & ~(records["sent"] <= t0 + end)))
                          for end in ends[tag]])
        steps.append({"rps": rate, "p99_ms": p99, "backlog": backlog,
                      "failed": int(mask.sum() - answered.sum()),
                      "sustained": bool(p99 <= LATENCY_LIMIT_MS
                                        and backlog <= MAX_BACKLOG
                                        and answered.sum() == mask.sum())})
    return steps


def _probe(plane: _Plane, requests) -> Dict[str, List[float]]:
    """Replay nominal request batches directly against the model, the pool
    and the edge (the edge with the service's tracing off, then on), one
    span per call, and write the spans out."""
    model = plane.swaps[-1][2]
    batches = [requests["points"][i]
               for i in np.flatnonzero(requests["tags"] == 0)[:PROBES]]
    tracer = Tracer()
    connection = http.client.HTTPConnection(plane.edge.host, plane.edge.port,
                                            timeout=30)
    try:
        for X in batches:
            tracer.next_op()
            with tracer.span("serve.model_predict"):
                model.predict(X)
            with tracer.span("serve.pool"):
                plane.service.predict(NAME, X)
            for tracing, name in ((False, "serve.http_untraced"), (True, "serve.http")):
                plane.service.tracing = tracing
                with tracer.span(name):
                    plane.http_predict(X, connection)
    finally:
        plane.service.tracing = True
        connection.close()
    tracer.dump(OUT_DIR / "spans-serve-drift.jsonl")
    names = ("serve.model_predict", "serve.pool", "serve.http", "serve.http_untraced")
    return {name: [v * 1e3 for v in tracer.per_op(name)] for name in names}


def _layers(snapshot, probes, swaps, drifts, ingest_s, counts, requests_per_batch,
            records, lat_ms, ladder, ok, tags) -> Dict[str, tuple]:
    from repro.obs.trace import STAGE_ERROR, STAGES

    metrics: Dict[str, tuple] = {}
    for stage in STAGES:
        if stage == STAGE_ERROR:
            continue
        buckets = snapshot["stages"].get(stage, {}).get("buckets")
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            value = histogram_quantile(buckets, q) * 1e3 if buckets else 0.0
            metrics[f"serve.{stage}_ms.{tag}"] = (value, "ms")
    model_ms, pool_ms, http_ms = (probes["serve.model_predict"], probes["serve.pool"],
                                  probes["serve.http"])
    published = swaps[1:]  # the model live at t0 was published before it
    lags = []
    for at in drifts:
        after = [s[0] for s in published if s[0] >= at]
        if after:
            lags.append(after[0] - at)
    retune_stage = [s[2].metadata.get("retune_stage_seconds", {}) for s in published]
    stage_seconds = [s[2].metadata.get("stage_seconds", {}) for s in published]

    def med(values, scale=1e3):
        return median(values) * scale if values else 0.0

    sustained = [step["rps"] for step in ladder if step["sustained"]]
    metrics.update({
        "serve.model_predict_ms.p50": (quantile(model_ms, 0.5), "ms"),
        "serve.model_predict_ms.p99": (quantile(model_ms, 0.99), "ms"),
        "serve.pool_ms.p50": (quantile(pool_ms, 0.5), "ms"),
        "serve.edge_ms.p50": (quantile(http_ms, 0.5) - quantile(pool_ms, 0.5), "ms"),
        "serve.batch_requests.mean": (requests_per_batch, "count"),
        "serve.rejected": (snapshot["rejections"]["total"], "count"),
        "serve.worker_respawns": (snapshot["workers"]["respawns"], "count"),
        "serve.latency_ms.p99": (quantile(lat_ms[ok & (tags == 0)], 0.99), "ms"),
        "serve.slo_ok_frac": (float(np.mean(
            (ok & (lat_ms <= LATENCY_LIMIT_MS))[tags == 0])), "ratio"),
        "serve.max_rate_rps": (max(sustained) if sustained else 0.0, "1/s"),
        "stream.retune_ms": (med([s[3] for s in published]), "ms"),
        "stream.publish_ms": (med([r.get("publish", 0.0) for r in retune_stage]), "ms"),
        "stream.drift_flags": (len(drifts), "count"),
        "stream.swap_lag_s.p50": (med(lags, 1.0), "s"),
        "stream.ingest_ms.p50": (quantile(ingest_s, 0.5) * 1e3, "ms"),
        "stream.ingest_ms.p99": (quantile(ingest_s, 0.99) * 1e3, "ms"),
        "core.transform_ms": (med([s.get("transform", 0.0) for s in stage_seconds]), "ms"),
        "core.threshold_ms": (med([s.get("threshold", 0.0) for s in stage_seconds]), "ms"),
        "core.extract_ms": (med([s.get("extract", 0.0) for s in stage_seconds]), "ms"),
        "tune.candidates": (med([s[2].metadata["tuning"]["n_candidates"]
                                 for s in published], 1.0), "count"),
        "bench.generator_late_ms.p99": (
            quantile(records["late"][~np.isnan(records["late"])], 0.99) * 1e3, "ms"),
        "obs.tracing_overhead": (
            quantile(http_ms, 0.5) / quantile(probes["serve.http_untraced"], 0.5),
            "ratio"),
    })
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({name: (value, "s") for name, value in cpu_seconds().items()})
    return metrics
