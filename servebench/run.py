"""Out-of-process serving benchmark for the GuP matching server.

One client process drives a real ``repro serve`` subprocess over a
catalog built on disk beforehand (``GraphCatalog.add``, never
``catalog_add`` over the wire).  Each workload is a closed loop on one
query connection plus one standing subscription on a second connection;
no client threads.

    python3 servebench/run.py --workload cache_hit --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over several spawns, of the time from spawning the server to its first
answered query.  The closed loop repeats the workload's round of ops
(``workloads.py``) for ``--seconds`` (longer if needed for 1000 queries
and 100 updates, at most three times as long); the read-only workloads
also run rounds of updates, half before the window and half after.
Each op's latency is its best time over the rounds (every round meets
the same state), and ``query_p50_ms``, ``query_p99_ms``,
``update_p50_ms`` and ``update_p90_ms`` are nearest-rank percentiles
of those over all samples; ``queries_per_s`` is the
query rate of a round run at those best times; ``server_peak_rss_mb``
is the server's ``VmHWM`` at the end.  The stamp line also carries the
plain window p50 and rate.  Client and server are pinned to CPUs of
their own.

``--trace 1`` runs a fixed number of rounds twice: untraced against the
subprocess (the client means), then in process through each layer's
public functions, timed from outside (``replay.py``); both keep each
op's best time over the rounds.  ``wire.residual_ms`` is the untraced
client mean minus the layer sum.

Every reply is verified after the timed window against direct
``GuPEngine.match`` runs (``verify.py``); mismatches, sheds, errors and
EOFs count as failed operations.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table (with ``error_rate``) and a
``stamp`` line: machine, versions, sizes and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.service.catalog import GraphCatalog  # noqa: E402
from repro.service.client import (  # noqa: E402
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
)

from replay import replay  # noqa: E402
from verify import Reference  # noqa: E402
from workloads import ENTRY, WORKLOADS, QueryOp, UpdateOp, build  # noqa: E402

SETUP_SPAWNS = 5
START_TIMEOUT = 60.0
REPLY_TIMEOUT = 60.0
MIN_QUERIES = 1_000  # >= 10 samples beyond p99
MIN_UPDATES = 100  # >= 10 samples beyond p90
MAX_WINDOW_FACTOR = 3
WRITE_ROUNDS = 24  # update rounds around the window on read-only workloads
TRACE_ROUNDS = {"cache_hit": 8, "engine_bypass": 4, "update_churn": 4}


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def best_times(samples):
    """Each position's best time over the ``(position, ms)`` samples."""
    best = {}
    for position, ms in samples:
        best[position] = min(ms, best.get(position, ms))
    return best


def best_of_rounds(samples):
    """Map each ``(position, ms)`` sample to its position's best time."""
    best = best_times(samples)
    return [best[position] for position, _ in samples]


def pin_client():
    """Pin this process to one CPU and return the CPUs for the server.

    Client and server on CPUs of their own: unpinned, the scheduler
    migrates the two ping-ponging processes, and the small-request
    workloads then read 10-20% apart from run to run.  ``None`` (no
    pinning) on a single CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, cpus[:1])
    return set(cpus[1:])


class ServeProcess:
    """A ``repro serve`` subprocess on ``catalog_dir``."""

    def __init__(self, catalog_dir: Path, log, cpus) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.port = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(catalog_dir),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(ROOT), text=True,
        )
        try:
            if cpus:
                os.sched_setaffinity(self.proc.pid, cpus)
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            banner = self.proc.stdout.readline() if ready else ""
            if not banner:
                raise RuntimeError("repro serve printed no banner")
            self.port = int(banner.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise ServiceError("never started")
                with ServiceClient(port=self.port, timeout=10) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def spawn_timed(catalog_dir: Path, wl, log, cpus):
    """Spawn a server and answer its first query: ``(server, seconds)``."""
    started = time.perf_counter()
    server = ServeProcess(catalog_dir, log, cpus)
    try:
        with ServiceClient(port=server.port, timeout=REPLY_TIMEOUT) as client:
            reply = client.query(wl.probe, ENTRY, limit=1, cache=False)
        seconds = time.perf_counter() - started
        if reply.num_embeddings != 1:
            raise RuntimeError("set-up probe query found no embedding")
    except BaseException:
        server.stop()
        raise
    return server, seconds


class Session:
    """The benchmark client: one query connection, one subscriber.

    Every op's reply is recorded for verification after the window;
    ``run`` returns the op's client wall time, or ``None`` on failure.
    """

    def __init__(self, wl, port: int) -> None:
        self.wl = wl
        self.records = []  # (op, reply); reply is the exception on failure
        self.broken = False
        self.client = ServiceClient(port=port, timeout=REPLY_TIMEOUT)
        self.subscriber = ServiceClient(port=port, timeout=REPLY_TIMEOUT)
        self.initial = self.subscriber.subscribe(wl.subscription, ENTRY).embeddings

    def run(self, op):
        started = time.perf_counter()
        try:
            if isinstance(op, QueryOp):
                reply = self.client.query(self.wl.query(op), ENTRY, **self.wl.options)
            else:
                reply = (self.client.update(ENTRY, op.delta),
                         self.subscriber.next_event(timeout=REPLY_TIMEOUT))
        except ServiceOverloaded as exc:
            self.records.append((op, exc))
            return None
        except ServiceError as exc:
            # The reply stream may be torn mid-message: stop issuing.
            self.records.append((op, exc))
            self.broken = True
            return None
        elapsed = time.perf_counter() - started
        self.records.append((op, reply))
        return elapsed

    def close(self) -> None:
        self.client.close()
        self.subscriber.close()


def verify(wl, session: Session):
    """Check every recorded reply; returns the failure messages."""
    reference = Reference(wl)
    failures = []
    problem = reference.check_subscribe(session.initial)
    if problem:
        failures.append(f"subscribe: {problem}")
    for op, reply in session.records:
        if isinstance(reply, Exception):
            failures.append(f"{type(reply).__name__}: {reply}")
            if isinstance(op, UpdateOp):
                break  # the reference cannot follow a lost update
            continue
        if isinstance(op, QueryOp):
            problem = reference.check_query(op, reply)
        else:
            problem = reference.check_update(op, *reply)
        if problem:
            failures.append(f"{type(op).__name__}: {problem}")
    return failures


def timed_rounds(session: Session, wl, seconds: float):
    """The closed loop over repeated rounds: ``(query samples, update
    samples, ops issued, window seconds)``; a sample is ``(position in
    the round, ms)``."""
    queries, updates = [], []
    ops = wl.round
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + MAX_WINDOW_FACTOR * seconds
    i = 0
    while not session.broken:
        now = time.perf_counter()
        enough = len(queries) >= MIN_QUERIES and (
            wl.write_round or len(updates) >= MIN_UPDATES
        )
        if now >= hard_stop or (now >= deadline and enough):
            break
        position = i % len(ops)
        elapsed = session.run(ops[position])
        if elapsed is not None:
            samples = queries if isinstance(ops[position], QueryOp) else updates
            samples.append((position, 1e3 * elapsed))
        i += 1
    return queries, updates, i, time.perf_counter() - started


def best_round_rate(wl, samples) -> float:
    """Queries per second of one round run at each op's best time."""
    best = best_times(samples)
    if len(best) < len(wl.round):
        raise RuntimeError("the window did not complete one round")
    queries = sum(isinstance(op, QueryOp) for op in wl.round)
    return queries / (sum(best.values()) / 1e3)


def end_to_end(wl, catalog_dir: Path, log, cpus, seconds: float):
    setup_times = []
    for _ in range(SETUP_SPAWNS - 1):
        server, spawn_seconds = spawn_timed(catalog_dir, wl, log, cpus)
        setup_times.append(spawn_seconds)
        server.stop()
    server, spawn_seconds = spawn_timed(catalog_dir, wl, log, cpus)
    setup_times.append(spawn_seconds)
    writes = []

    def write_rounds(rounds):
        for i, op in enumerate(wl.write_round * rounds):
            elapsed = session.run(op)
            if session.broken:
                break
            if elapsed is not None:
                writes.append((("write", i % len(wl.write_round)), 1e3 * elapsed))

    try:
        session = Session(wl, server.port)
        try:
            gc.disable()
            # Half the write rounds before the window, half after: the
            # best time of each update then spans the whole run.
            write_rounds(WRITE_ROUNDS // 2)
            for op in wl.warm:
                session.run(op)
            queries, updates, issued, window = timed_rounds(session, wl, seconds)
            rate = best_round_rate(wl, queries + updates)
            write_rounds(WRITE_ROUNDS - WRITE_ROUNDS // 2)
            updates += writes
            rss = server.peak_rss_mb()
        finally:
            gc.enable()
            session.close()
    finally:
        server.stop()
    failures = verify(wl, session)
    if not updates:
        raise RuntimeError("no update succeeded")
    query_ms, update_ms = best_of_rounds(queries), best_of_rounds(updates)
    p99, beyond_p99 = percentile(query_ms, 99)
    p90, beyond_p90 = percentile(update_ms, 90)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_ms": (statistics.median(query_ms), "ms"),
        "query_p99_ms": (p99, "ms"),
        "queries_per_s": (rate, "1/s"),
        "update_p50_ms": (statistics.median(update_ms), "ms"),
        "update_p90_ms": (p90, "ms"),
        "server_peak_rss_mb": (rss, "MB"),
    }
    stamp = {
        "window_s": round(window, 3),
        "rounds": round(issued / len(wl.round), 2),
        "samples": {
            "setup_s": len(setup_times),
            "queries": len(query_ms),
            "query_p99_beyond": beyond_p99,
            "updates": len(update_ms),
            "update_p90_beyond": beyond_p90,
        },
        # The plain window figures, for comparison with best-of-rounds.
        "plain_query_p50_ms": statistics.median(ms for _, ms in queries),
        "plain_queries_per_s": len(queries) / window,
    }
    return metrics, stamp, len(session.records), failures


def traced(wl, catalog_dir: Path, replay_dir: Path, log, cpus):
    """Per-layer metrics: the client pass, then the in-process replay.

    Both run the same ops: the warm ops and one round unmeasured (so
    the cache is in its steady state), then ``TRACE_ROUNDS`` measured
    rounds, each op position keeping its best time.
    """
    rounds = TRACE_ROUNDS[wl.name]
    warmup = wl.warm + wl.round
    measured = [
        ((part, i), op)
        for part, ops in (("round", wl.round), ("write", wl.write_round))
        for _ in range(rounds)
        for i, op in enumerate(ops)
    ]
    samples = {QueryOp: [], UpdateOp: []}
    server, _ = spawn_timed(catalog_dir, wl, log, cpus)
    try:
        session = Session(wl, server.port)
        try:
            for op in warmup:
                session.run(op)
            gc.disable()
            for position, op in measured:
                elapsed = session.run(op)
                if session.broken:
                    break
                if elapsed is not None:
                    samples[type(op)].append((position, 1e3 * elapsed))
        finally:
            gc.enable()
            session.close()
    finally:
        server.stop()
    failures = verify(wl, session)
    served = [reply for _, reply in session.records]
    layers = replay(wl, replay_dir, warmup, measured, served, failures)

    def mean_best(kind):
        best = best_times(samples[kind])
        return statistics.fmean(best.values()) if best else 0.0

    stamp = {"rounds": rounds, "queries": layers.queries, "updates": layers.updates}
    metrics = layers.metrics(mean_best(QueryOp), mean_best(UpdateOp))
    return metrics, stamp, len(session.records), failures


def stamp_base(wl):
    import numpy

    return {
        "workload": wl.name,
        "seed": wl.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "graph": {"vertices": wl.data.num_vertices, "edges": wl.data.num_edges,
                  "labels": len(set(wl.data.labels))},
        "base_queries": len(wl.bases),
        "round_ops": len(wl.round),
        "options": wl.options,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = pin_client()
    wl = build(args.workload, args.seed)
    work_root = ROOT / ".servebench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        catalog_dir = work / "catalog"
        GraphCatalog(catalog_dir).add(ENTRY, wl.data)
        with open(work / "server.log", "w", encoding="utf-8") as log:
            if args.trace:
                replay_dir = work / "replay"
                GraphCatalog(replay_dir).add(ENTRY, wl.data)
                metrics, stamp, attempted, failures = traced(
                    wl, catalog_dir, replay_dir, log, cpus
                )
            else:
                metrics, stamp, attempted, failures = end_to_end(
                    wl, catalog_dir, log, cpus, args.seconds
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still holds its directory

    table = dict(metrics)
    table["error_rate"] = (len(failures) / max(attempted, 1), "ratio")
    for name, (value, unit) in table.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print("stamp " + json.dumps({**stamp_base(wl), **stamp}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
