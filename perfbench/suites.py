"""The ``suite-run`` and ``suite-compile`` workloads.

Both push all 26 benchsuite programs through the compiler once per
pass, in a seeded order, with no compile cache.

* ``suite-run`` calls ``pipeline.run_source`` per program, which is
  what ``repro run`` does: the VM does over 90% of the work.
* ``suite-compile`` calls ``pipeline.compile_source`` per program and
  executes nothing inside the timed region; after timing, the last
  pass's programs are executed once, untimed, for the output check.

An operation's time is the CPU time of this (single) thread while it
runs, rescaled by ``harness.Reference`` samples taken between the
operations; the raw CPU times go to standard error.

The traced variant of each operation calls ``compile_source`` with a
``CompileTimes`` and then ``run_compiled``, with a span around each
call; the compile span gets one child per pass from the pass times
``compile_source`` records, so nothing inside ``src/`` is instrumented.
In a traced run each program is run once untraced and once traced,
alternating which goes first, so the two differ only by the tracing.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from typing import Dict, List, Optional

from harness import Reference, Spans, Tally, median, nearest_rank

from repro.config import CompilerConfig
from repro.pipeline import CompileTimes, compile_source, run_compiled, run_source
from repro.sexp.writer import write_datum

#: Span name -> per-layer metric it feeds (seconds per pass).
PASS_METRICS = {
    "read": "sexp.read_s",
    "expand": "frontend.expand_s",
    "convert": "frontend.convert_s",
    "closure": "frontend.closure_s",
    "allocate": "alloc.allocate_s",
    "codegen": "backend.codegen_s",
    "execute": "vm.execute_s",
}

#: Passes per run at least, so every program's median time rests on
#: three samples (a suite-run pass takes 8-15 s on a 2-vCPU host).
MIN_PASSES = 3

#: ``ProgramAllocation.pass_times`` keys: allocate's five sub-passes.
ALLOC_SUBPASSES = ("liveness", "assign", "save-placement",
                   "restore-placement", "shuffle")


def signature(counters) -> tuple:
    """Exact, deterministic counts of one program's execution."""
    return (counters.cycles, counters.total_stack_refs,
            counters.instructions, counters.calls)


class SuiteWorkload:
    def __init__(self, name: str, refs: Dict[str, dict], bench_vm: dict,
                 tally: Tally, seed: int, seconds: float, trace: bool):
        if name not in ("suite-run", "suite-compile"):
            raise ValueError(name)
        self.execute = name == "suite-run"
        self.refs = refs
        self.bench_vm = bench_vm
        self.tally = tally
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.config = CompilerConfig()
        self.signatures: Dict[str, tuple] = {}
        self.code_sizes: Dict[str, int] = {}
        self.op_times: Dict[str, List[float]] = {}
        self.raw_times: Dict[str, List[float]] = {}
        self.reference = Reference()
        self.traced_passes: List[Dict[str, float]] = []
        self.spans_out: List[dict] = []
        self.paired = [0.0, 0.0]  # untraced, traced rescaled seconds
        self.last_compiled: Dict[str, object] = {}

    # -- checks --------------------------------------------------------

    def _check_output(self, name: str, value, output: str) -> None:
        ref = self.refs[name]
        got = write_datum(value)
        self.tally.check(got == ref["value"],
                         f"{name}: value {got!r} != reference {ref['value']!r}")
        self.tally.check(output == ref["output"],
                         f"{name}: output {output!r} != reference "
                         f"{ref['output']!r}")

    def _check_signature(self, name: str, sig: tuple) -> None:
        first = self.signatures.setdefault(name, sig)
        self.tally.check(sig == first,
                         f"{name}: counts {sig} differ from an earlier "
                         f"run's {first}")

    def _check_code_size(self, name: str, size: int) -> None:
        first = self.code_sizes.setdefault(name, size)
        self.tally.check(size == first,
                         f"{name}: code size {size} differs from an earlier "
                         f"compile's {first}")

    def check_bench_vm(self) -> None:
        """Per-program cycles and instructions must equal the committed
        BENCH_vm.json signatures: the benchmark runs the default config."""
        recorded = self.bench_vm["benchmarks"]
        for name, sig in sorted(self.signatures.items()):
            if name in recorded:
                want = (recorded[name]["cycles"], recorded[name]["instructions"])
                self.tally.check((sig[0], sig[2]) == want,
                                 f"{name}: cycles/instructions {sig[0]}/"
                                 f"{sig[2]} != BENCH_vm.json {want}")

    # -- operations ----------------------------------------------------
    #
    # Each returns the CPU seconds it measured, or None when it failed.

    def _untraced(self, name: str) -> Optional[float]:
        source = self.refs[name]["source"]
        self.tally.attempt()
        try:
            c0 = time.thread_time()
            if self.execute:
                result = run_source(source, self.config)
            else:
                compiled = compile_source(source, self.config)
            c1 = time.thread_time()
        except Exception as exc:  # a failed op, counted and reported
            self.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if self.execute:
            compiled = result.compiled
            self._check_output(name, result.value, result.output)
            self._check_signature(name, signature(result.counters))
        else:
            self.last_compiled[name] = compiled
        self._check_code_size(name, compiled.total_instructions())
        return c1 - c0

    def _traced(self, name: str) -> Optional[tuple]:
        """Returns ``(CPU seconds, seconds by metric, counts by metric)``."""
        self.tally.attempt()
        spans = Spans()
        times = CompileTimes()
        try:
            c0 = time.thread_time()
            with spans.span("program", program=name):
                with spans.span("compile") as compile_span:
                    compiled = compile_source(self.refs[name]["source"],
                                              self.config, times=times)
                if self.execute:
                    with spans.span("execute"):
                        result = run_compiled(compiled)
            c1 = time.thread_time()
        except Exception as exc:  # a failed op, counted and reported
            self.tally.fail(f"{name}: traced: {type(exc).__name__}: {exc}")
            return None
        spans.record_phases(compile_span, times.phases)
        self._check_code_size(name, compiled.total_instructions())
        own = spans.self_by_name()
        seconds = {PASS_METRICS[span]: value for span, value in own.items()
                   if span in PASS_METRICS}
        for sub in ALLOC_SUBPASSES:
            seconds[f"alloc.{sub}_s"] = compiled.allocation.pass_times[sub]
        counts = {"backend.peephole_removed": compiled.peephole_removed}
        if self.execute:
            self._check_output(name, result.value, result.output)
            self._check_signature(name, signature(result.counters))
            seconds[f"vm.execute_s.{name}"] = own["execute"]
            counts["vm.instructions"] = result.counters.instructions
            counts["vm.calls"] = result.counters.calls
        self.spans_out.extend(
            spans.as_rows(f"{name}#{len(self.traced_passes)}"))
        return c1 - c0, seconds, counts

    def _one_pass(self, index: int) -> None:
        order = sorted(self.refs)
        self.rng.shuffle(order)
        gc.collect()
        sample = self.reference.sample
        untraced, traced = [], []
        for position, name in enumerate(order):
            if self.trace and (index + position) % 2:
                traced.append((sample(), self._traced(name)))
            untraced.append((sample(), self._untraced(name)))
            if self.trace and not (index + position) % 2:
                traced.append((sample(), self._traced(name)))
        sample()
        sample()
        factor = self.reference.factor
        times = {}
        for name, (at, seconds) in zip(order, untraced):
            if seconds is not None:
                times[name] = seconds * factor(at)
                self.raw_times.setdefault(name, []).append(seconds)
        if not self.trace:
            for name, seconds in times.items():
                self.op_times.setdefault(name, []).append(seconds)
            return
        row: Dict[str, float] = defaultdict(float)
        for at, op in traced:
            if op is None:
                continue
            total, seconds, counts = op
            for key, value in seconds.items():
                row[key] += value * factor(at)
            for key, value in counts.items():
                row[key] += value
            self.paired[1] += total * factor(at)
        self.paired[0] += sum(times.values())
        if row["vm.execute_s"] > 0:
            row["vm.instr_per_s"] = row["vm.instructions"] / row["vm.execute_s"]
        self.traced_passes.append(row)

    def run(self) -> None:
        """Passes until the next one would overrun the time budget, but
        at least ``MIN_PASSES``."""
        start = time.perf_counter()
        passes = 0
        while True:
            self._one_pass(passes)
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed + elapsed / passes > self.seconds:
                break
        if not self.execute:
            self._execute_untimed()
        self.check_bench_vm()

    def _execute_untimed(self) -> None:
        """Execute each program of the last compile pass once, outside
        the timed region, and check its outputs and counts."""
        for name in sorted(self.last_compiled):
            self.tally.attempt()
            compiled = self.last_compiled[name]
            try:
                result = run_compiled(compiled)
            except Exception as exc:  # a failed op, counted and reported
                self.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            self._check_output(name, result.value, result.output)
            self._check_signature(name, signature(result.counters))

    # -- metrics -------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        sigs = self.signatures.values()
        # One latency per program, its median over the passes; a median
        # pass is the sum of those, so an outlier in one program's run
        # does not carry the rest of its pass with it.
        latencies = [median(times) for times in self.op_times.values()]
        return {
            "pass_s": sum(latencies),
            "latency_p50_s": median(latencies),
            "latency_p90_s": nearest_rank(latencies, 0.90),
            "sim_cycles": sum(s[0] for s in sigs),
            "stack_refs": sum(s[1] for s in sigs),
            "code_size": sum(self.code_sizes.values()),
        }

    def raw(self) -> Dict[str, float]:
        """``pass_s`` and the latency quantiles from CPU times as
        measured, not rescaled."""
        latencies = [median(times) for times in self.raw_times.values()]
        return {"pass_s": sum(latencies),
                "latency_p50_s": median(latencies),
                "latency_p90_s": nearest_rank(latencies, 0.90)}

    def per_layer(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        keys = {key for row in self.traced_passes for key in row}
        for key in sorted(keys):
            metrics[key] = median(row.get(key, 0.0) for row in self.traced_passes)
        if self.paired[0] > 0:
            metrics["trace.overhead_frac"] = self.paired[1] / self.paired[0] - 1.0
        return metrics
