"""Shared pieces of the benchmark: statistics, the reference loop that
rescales times, set-up timing, spans, and the tally of attempted and
failed operations."""

from __future__ import annotations

import inspect
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The *q*-quantile by nearest rank (q=0.9 gives p90)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _reference_loop() -> int:
    """Fixed pure-Python work shaped like the compiler's and the VM's:
    dict updates, tuple building, list growth and a generator sum.  It
    imports nothing from the repository, so no change to the program
    moves it."""
    counts: Dict[int, int] = {}
    pending = []
    total = 0
    for i in range(9000):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        pending.append((key, i))
        if len(pending) > 64:
            total += sum(value for _, value in pending)
            pending = []
    return total


class Reference:
    """CPU time of a fixed loop, sampled between operations, to express
    each operation's time in units of the host's current speed.

    On the shared hosts this runs on, the CPU time of the same compile
    pass differs by up to 2x between runs a few minutes apart, as
    neighbours load the machine; the loop slows down with it.  An
    operation's time is reported as measured times ``NOMINAL_S`` over
    the median of the four samples nearest to it, two before and two
    after: a plain ratio, with no fitted parameter.  Samples are never
    taken inside an operation, so they do not compete with it.
    """

    #: CPU seconds the loop takes on the host the figures are scaled to.
    NOMINAL_S = 0.003

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> int:
        """Time the loop once; returns the index of the sample, which
        rescales the operation that follows it."""
        c0 = time.thread_time()
        _reference_loop()
        self.samples.append(time.thread_time() - c0)
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Factor for the operation after sample *index*; the samples
        after it must have been taken."""
        near = self.samples[max(0, index - 1):index + 3]
        return self.NOMINAL_S / median(near)


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: A child process that runs the reference loop ten times, and the CPU
#: seconds it takes on the nominal host.
REFERENCE_CHILD = [sys.executable, "-c", inspect.getsource(_reference_loop)
                   + "for _ in range(10):\n    _reference_loop()\n"]
REFERENCE_CHILD_NOMINAL_S = 0.05


def children_cpu() -> float:
    """CPU seconds (user + system) of every child process this process
    has waited for, and of the children they waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_cpu(command: List[str], env: Dict[str, str]) -> float:
    """CPU seconds of one child process run to its end.  The wait has no
    timeout because ``Popen.wait(timeout)`` polls in steps of up to
    50 ms; a timer kills a child that hangs instead."""
    c0 = children_cpu()
    child = subprocess.Popen(command, env=env)
    guard = threading.Timer(60, child.kill)
    guard.start()
    code = child.wait()
    guard.cancel()
    if code != 0:
        raise RuntimeError(f"{command[:3]} exited with {code}")
    return children_cpu() - c0


class SetupTimes:
    """CPU times of set-ups, each a child process's (or a process tree's)
    whole life, rescaled like ``Reference`` does for operations.

    The reference here is a fresh child running the reference loop,
    spawned before each set-up and once after the last.  A loop in this
    process, sampled between spawns, varied by 2x while the set-up times
    did not.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        self.env = env
        self.references: List[float] = []
        self.raw: List[float] = []

    def reference(self) -> None:
        self.references.append(child_cpu(REFERENCE_CHILD, self.env))

    def add(self, seconds: float) -> None:
        """A set-up measured after the latest reference."""
        self.raw.append(seconds)

    def rescaled(self) -> List[float]:
        """Each set-up times the nominal over the median of the four
        references nearest it; call after the final ``reference()``."""
        refs = self.references
        return [seconds * REFERENCE_CHILD_NOMINAL_S
                / median(refs[max(0, i - 1):i + 3])
                for i, seconds in enumerate(self.raw)]


def time_import_setup(env: Dict[str, str]) -> SetupTimes:
    """CPU seconds a fresh interpreter takes to import the compiler and
    the benchsuite: what every ``repro run`` pays before it compiles.
    CPU time, not wall time: on a shared host the wall time of a
    process start swings by half from one spawn to the next."""
    command = [sys.executable, "-c",
               "import repro.pipeline, repro.benchsuite.programs"]
    times = SetupTimes(env)
    for _ in range(SETUP_REPEATS):
        times.reference()
        times.add(child_cpu(command, env))
    times.reference()
    return times


class Tally:
    """Operations attempted and failed, with the first few failure
    messages kept for the report on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count a failure (without a new attempt) when *ok* is false."""
        if not ok:
            self.fail(message)
        return ok


class Spans:
    """Spans recorded in memory by the benchmark around its calls into
    each layer: ``(name, start_s, end_s, parent_index, attrs)``.

    ``span()`` times a block; ``record()`` adds one whose interval was
    measured elsewhere (the farm's queue and worker time, taken from
    the daemon's response).
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._open: List[int] = []

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **attrs) -> int:
        self.records.append([name, start, end, parent, attrs])
        return len(self.records) - 1

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        index = self.record(name, 0.0, 0.0, parent, **attrs)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.records[index][1] = start
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def record_phases(self, parent: int, phases: Dict[str, float]) -> None:
        """Children of *parent* for phases timed inside the call it
        spans, laid end to end from its start (only their durations are
        known)."""
        start = self.records[parent][1]
        for name, seconds in phases.items():
            self.record(name, start, start + seconds, parent)
            start += seconds

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record, own in zip(self.records, self.self_times()):
            totals[record[0]] = totals.get(record[0], 0.0) + own
        return totals

    def as_rows(self, trace_id: str) -> List[dict]:
        return [
            {"trace": trace_id, "span": i, "name": name, "start_s": start,
             "end_s": end, "parent": parent, **attrs}
            for i, (name, start, end, parent, attrs) in enumerate(self.records)
        ]
