"""The ``farm-mixed`` workload: ``repro serve --tcp`` under two clients.

The daemon runs as a subprocess (``--jobs 1``, a fresh ``--cache-dir``
per run, ``--no-metrics``).  Two connections send ``run`` requests in a
closed loop from one seeded schedule, for ``BLOCKS`` blocks or until the
time runs out.  The schedule comes in blocks:
each block holds every pool program once verbatim (a cache read, after
the untimed warm-up has compiled it) and once behind a unique nonce
definition (a full compile plus ISA and artifact writes), in a seeded
order.  The nonce does not change a program's value or output, so
every response is checked against the program's interpreter reference.

The benchmark reaches the daemon only through the JSON-lines protocol:
``run`` and ``compile`` requests and the ``stats`` and ``metrics``
control ops.  After the run the daemon is drained with SIGTERM, and
its exit status and ``draining``/``bye`` events are checked.
"""

from __future__ import annotations

import json
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from harness import (SETUP_REPEATS, SetupTimes, Spans, Tally, children_cpu,
                     median, nearest_rank)

#: Benchsuite programs whose fast-VM run takes under about 0.1 s, so
#: one request stays short enough for a couple of hundred per run.
POOL = (
    "browse", "cpstak", "ctak", "dderiv", "deriv", "fft", "fread",
    "shuffle-cycles", "tprint",
)

#: Requests per schedule block: every pool program verbatim and nonced.
BLOCK = 2 * len(POOL)

#: Blocks per run, unless the time runs out first.  A fixed request
#: count keeps the hit/miss mix exact and the number of cache entries
#: (and so the daemon's memory) the same on every run.  Ten blocks take
#: about 10 s on a quiet 2-vCPU host; a loaded one may run out of time
#: in the tenth.
BLOCKS = 10

CLIENTS = 2
IO_TIMEOUT_S = 60.0

CACHE_TIERS = ("memory", "artifact", "disk")


class DaemonError(Exception):
    """The daemon failed to start, answer, or drain cleanly."""


class Connection:
    """One JSON-lines client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.file = self.sock.makefile("rwb")
        self.banner = self._read()
        if self.banner.get("event") != "ready":
            raise DaemonError(f"unexpected banner {self.banner!r}")

    def _read(self) -> dict:
        line = self.file.readline()
        if not line:
            raise DaemonError("connection closed by the daemon")
        return json.loads(line)

    def call(self, doc: dict) -> dict:
        self.file.write(json.dumps(doc).encode() + b"\n")
        self.file.flush()
        return self._read()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Daemon:
    """A ``repro serve --tcp`` subprocess, returned once a first client
    connection (``first``) has received the daemon's ready banner."""

    def __init__(self, root: str, env: Dict[str, str], cache_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--jobs", "1", "--cache-dir", cache_dir, "--no-metrics"],
            cwd=root, env=env, stdout=subprocess.PIPE,
        )
        self.events: "queue.Queue[Optional[dict]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_events, daemon=True)
        self._reader.start()
        try:
            listening = self._next_event()
            if listening is None or listening.get("event") != "listening":
                raise DaemonError(f"daemon did not announce a port: {listening!r}")
            self.port = listening["port"]
            self.first = Connection(self.port)
        except BaseException:
            self.kill()
            raise

    def _read_events(self) -> None:
        for line in self.proc.stdout:
            try:
                self.events.put(json.loads(line))
            except ValueError:
                self.events.put({"event": "unparseable", "line": line[:200]})
        self.events.put(None)

    def _next_event(self) -> Optional[dict]:
        try:
            return self.events.get(timeout=IO_TIMEOUT_S)
        except queue.Empty:
            raise DaemonError("no event from the daemon in time") from None

    def drain(self) -> List[str]:
        """SIGTERM, wait for exit; return the problems seen (none = a
        clean drain: exit 0 after ``draining`` and ``bye`` events)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=IO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["daemon did not exit after SIGTERM"]
        self._reader.join(timeout=IO_TIMEOUT_S)
        seen = []
        while True:
            event = self.events.get_nowait() if not self.events.empty() else None
            if event is None:
                break
            seen.append(event.get("event"))
        problems = []
        if code != 0:
            problems.append(f"daemon exited with {code}")
        for wanted in ("draining", "bye"):
            if wanted not in seen:
                problems.append(f"no {wanted!r} event at drain (saw {seen})")
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=IO_TIMEOUT_S)
        self._reader.join(timeout=IO_TIMEOUT_S)


def schedule(seed: int):
    """Endless seeded request stream: ``(program, nonce or None)``."""
    rng = random.Random(seed)
    nonce = 0
    while True:
        block = [(name, None) for name in POOL]
        for name in POOL:
            nonce += 1
            block.append((name, nonce))
        rng.shuffle(block)
        yield from block


def nonced(source: str, seed: int, nonce: int) -> str:
    return f"(define bench-nonce-{seed}-{nonce} {nonce})\n{source}"


def _counter_total(snapshot: dict, name: str) -> int:
    """Sum of one counter over all its label sets in a metrics snapshot."""
    counters = snapshot.get("counters", {})
    return sum(v for k, v in counters.items()
               if k == name or k.startswith(name + "{"))


class FarmWorkload:
    def __init__(self, root: str, env: Dict[str, str], workdir: str,
                 refs: Dict[str, dict], bench_vm: dict, tally: Tally,
                 seed: int, seconds: float, trace: bool):
        self.root = root
        self.env = env
        self.workdir = workdir
        self.refs = refs
        self.bench_vm = bench_vm
        self.tally = tally
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_times = SetupTimes(env)
        self.warm: Dict[str, dict] = {}
        self.code_sizes: Dict[str, int] = {}
        self.results: List[tuple] = []
        self.traced: List[dict] = []
        self.spans_out: List[dict] = []
        self._lock = threading.Lock()
        self._issued = 0

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, index: int) -> Daemon:
        return Daemon(self.root, self.env, f"{self.workdir}/cache-{index}")

    def run(self) -> None:
        # Set up SETUP_REPEATS daemons that serve nothing, each drained
        # once it is ready, which also exercises the teardown check; a
        # set-up time is the CPU time of one such daemon's whole life,
        # known once it has been waited for.  Then the serving daemon.
        for index in range(SETUP_REPEATS):
            self.setup_times.reference()
            c0 = children_cpu()
            daemon = self._spawn(index)
            daemon.first.close()
            for problem in daemon.drain():
                self.tally.fail(f"setup daemon {index}: {problem}")
            self.setup_times.add(children_cpu() - c0)
        self.setup_times.reference()
        daemon = self._spawn(SETUP_REPEATS)
        conns = [daemon.first]
        try:
            conns += [Connection(daemon.port) for _ in range(CLIENTS - 1)]
            self._warm_up(conns[0])
            before = self._snapshot(conns[0])
            self._timed(conns)
            after = self._snapshot(conns[0])
        finally:
            for conn in conns:
                conn.close()
            problems = daemon.drain() if daemon.proc.poll() is None else [
                f"daemon died with {daemon.proc.returncode}"]
            for problem in problems:
                self.tally.fail(f"drain: {problem}")
        self._check(before, after)

    # -- requests ------------------------------------------------------

    @staticmethod
    def _request(conn: Connection, op: str, source: str) -> dict:
        return conn.call({"id": f"warm-{op}", "op": op, "source": source})

    def _check_response(self, name: str, response: dict) -> bool:
        if not response.get("ok"):
            return self.tally.check(False, f"{name}: {response.get('error_kind')}: "
                                           f"{response.get('error')}")
        ref = self.refs[name]
        ok = self.tally.check(response.get("value") == ref["value"],
                              f"{name}: value {response.get('value')!r} != "
                              f"reference {ref['value']!r}")
        return self.tally.check(response.get("output") == ref["output"],
                                f"{name}: output {response.get('output')!r} "
                                f"!= reference {ref['output']!r}") and ok

    def _warm_up(self, conn: Connection) -> None:
        """Untimed: run and compile every pool program once, which fills
        the cache and yields the exact counts."""
        recorded = self.bench_vm["benchmarks"]
        for name in POOL:
            source = self.refs[name]["source"]
            self.tally.attempt()
            response = self._request(conn, "run", source)
            if not self._check_response(name, response):
                continue
            counters = response["counters"]
            self.warm[name] = counters
            if name in recorded:
                want = (recorded[name]["cycles"], recorded[name]["instructions"])
                got = (counters["cycles"], counters["instructions"])
                self.tally.check(got == want, f"{name}: cycles/instructions "
                                              f"{got} != BENCH_vm.json {want}")
            self.tally.attempt()
            compiled = self._request(conn, "compile", source)
            if self.tally.check(compiled.get("ok", False),
                                f"{name}: compile: {compiled.get('error')}"):
                self.code_sizes[name] = compiled["instructions"]

    def _snapshot(self, conn: Connection) -> dict:
        stats = conn.call({"id": "stats", "op": "stats"})
        metrics = conn.call({"id": "metrics", "op": "metrics"})
        if not (stats.get("ok") and metrics.get("ok")):
            raise DaemonError("stats/metrics control op failed")
        server = stats["stats"]["server"]
        snap = metrics["metrics"]
        out = {
            "serve.dedup_hits": server["singleflight"]["dedup_hits"],
            "serve.admission_rejects": sum(server["admission"]["rejects"].values()),
            "admitted": server["admission"]["admitted"],
            "serve.cache_misses": _counter_total(snap, "repro_cache_misses"),
        }
        for tier in CACHE_TIERS:
            out[f"serve.cache_hits.{tier}"] = snap.get("counters", {}).get(
                f'repro_cache_hits{{tier="{tier}"}}', 0)
        return out

    def _timed(self, conns: List[Connection]) -> None:
        stream = schedule(self.seed)
        deadline = time.perf_counter() + self.seconds
        errors: List[str] = []

        def client(conn: Connection) -> None:
            try:
                while True:
                    with self._lock:
                        if (time.perf_counter() >= deadline
                                or self._issued == BLOCKS * BLOCK):
                            return
                        name, nonce = next(stream)
                        index = self._issued
                        self._issued += 1
                    source = self.refs[name]["source"]
                    if nonce is not None:
                        source = nonced(source, self.seed, nonce)
                    doc = {"id": f"r{index}", "op": "run", "source": source}
                    t0 = time.perf_counter()
                    response = conn.call(doc)
                    t1 = time.perf_counter()
                    with self._lock:
                        self.results.append((index, name, nonce, t0, t1, response))
            except (OSError, ValueError, DaemonError) as exc:
                errors.append(f"client: {type(exc).__name__}: {exc}")

        self.start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(c,)) for c in conns]
        for thread in threads:
            thread.start()
        give_up = self.start + self.seconds + 2 * IO_TIMEOUT_S
        for thread in threads:
            thread.join(timeout=max(0.0, give_up - time.perf_counter()))
            if thread.is_alive():
                errors.append("client thread did not finish")
        self.end = max((r[4] for r in self.results), default=time.perf_counter())
        for message in errors:
            self.tally.attempt()
            self.tally.fail(message)
        self.results.sort(key=lambda r: r[0])
        if self.trace:
            for result in self.results:
                if result[5].get("ok"):
                    self._record_spans(*result)

    # -- checks and metrics --------------------------------------------

    def _check(self, before: dict, after: dict) -> None:
        self.delta = {k: after[k] - before[k] for k in after}
        overloaded = 0
        for index, name, nonce, t0, t1, response in self.results:
            self.tally.attempt()
            if response.get("error_kind") == "overloaded":
                overloaded += 1
            if not self._check_response(name, response):
                continue
            if nonce is None:
                counters = self.warm.get(name)
                self.tally.check(
                    counters is not None
                    and response["counters"]["cycles"] == counters["cycles"],
                    f"{name}: cycles differ from the warm-up run")
        self.tally.check(
            overloaded == self.delta["serve.admission_rejects"],
            f"client saw {overloaded} overloaded rejects, stats counted "
            f"{self.delta['serve.admission_rejects']}")
        self.tally.check(
            self.delta["admitted"] + self.delta["serve.admission_rejects"]
            == len(self.results),
            f"daemon admitted {self.delta['admitted']} and rejected "
            f"{self.delta['serve.admission_rejects']} of {len(self.results)} "
            "requests sent")

    def _record_spans(self, index, name, nonce, t0, t1, response) -> None:
        """Client request span; queue and worker children re-timed from
        the response's ``queued_s``/``run_s``, ending at the response."""
        spans = Spans()
        kind = "hit" if nonce is None else "miss"
        root = spans.record("request", t0, t1, program=name, kind=kind)
        run_start = t1 - response["run_s"]
        spans.record("queue", run_start - response["queued_s"], run_start, root)
        spans.record("worker", run_start, t1, root)
        own = spans.self_times()
        self.traced.append({"kind": kind, "latency": t1 - t0,
                            "queued": response["queued_s"],
                            "worker": response["run_s"],
                            "frontdoor": own[root]})
        self.spans_out.extend(spans.as_rows(f"request#{index}"))

    def end_to_end(self) -> Dict[str, float]:
        """Wall times as measured: the work runs in the daemon and its
        worker, so a reference loop in this process would not track it."""
        latencies = [t1 - t0 for _, _, _, t0, t1, _ in self.results]
        return {
            "pass_s": (self.end - self.start) * BLOCK / max(1, len(self.results)),
            "latency_p50_s": median(latencies),
            # p90: of a run's 180 requests, p95 would have only nine
            # beyond it.
            "latency_p90_s": nearest_rank(latencies, 0.90),
            "sim_cycles": sum(c["cycles"] for c in self.warm.values()),
            "stack_refs": sum(c["stack_refs"] for c in self.warm.values()),
            "code_size": sum(self.code_sizes.values()),
        }

    def per_layer(self) -> Dict[str, float]:
        """Medians over every request.  No ``trace.overhead_frac``: the
        spans are built from the responses after the timed window, so
        there is no tracing work to measure (it reports 0)."""
        rows = self.traced
        metrics: Dict[str, float] = {
            "serve.hit_p50_s": median(r["latency"] for r in rows if r["kind"] == "hit"),
            "serve.miss_p50_s": median(r["latency"] for r in rows if r["kind"] == "miss"),
            "serve.queued_p50_s": median(r["queued"] for r in rows),
            "serve.worker_p50_s": median(r["worker"] for r in rows),
            "serve.frontdoor_p50_s": median(r["frontdoor"] for r in rows),
        }
        for key, value in self.delta.items():
            if key.startswith("serve."):
                metrics[key] = value
        return metrics
