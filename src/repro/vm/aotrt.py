"""The AOT runtime: everything an emitted module needs, compiler-free.

``repro aot build`` (:mod:`repro.vm.aotemit`) turns a compiled program
into one generated Python module: traces become top-level functions,
code objects become :class:`AotCode` instances, and the whole thing is
importable and runnable with **no compiler in-process** — importing an
emitted module must pull in only the runtime slice of the package
(primitives, datums, counters, the activation classifier, and this
module).  That constraint is why the VM's *runtime* value types live
here and not in :mod:`repro.vm.machine`:

* :class:`VMClosure`, :class:`VMContinuation`, :data:`POISON`, and
  :class:`VMError` are defined here and re-exported by ``machine`` (its
  import path stays the public one);
* the stack-release policy constants (:data:`STACK_SHRINK_TRIGGER`
  etc.) and the trace protocol — exit kinds (``K_*``) and
  counter-accumulator slots (``ACC_*``) — are defined here once;
  ``machine`` and ``repro.vm.blockcompile`` import them.

:func:`trampoline` is the one trace trampoline: the in-process fast
loop (``Machine``) and emitted modules (:func:`run_program`) both run
through it, with byte-for-byte the legacy loop's control-transfer
semantics.  Its two hooks, a lazy block-build callable and an optional
profiler, are used only in-process.  Emitted modules add two exit
kinds where ``vm/callgraph.py`` proves a call site's callee:
:data:`K_CALL_DIRECT` and :data:`K_TAIL_DIRECT` skip the closure type
test and arity check, which the emitter performed at build time.
Counters, cycles, values, and output are bit-identical to the legacy
loop; the AOT equivalence suite asserts that.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.runtime.values import OutputPort, SchemeError
from repro.vm.callgraph import ActivationClassifier
from repro.vm.counters import Counters

# ---------------------------------------------------------------------------
# Stack-release policy (the low-water-mark fix): at a return, when the
# live prefix is below a quarter of capacity and capacity exceeds the
# trigger, truncate to the live prefix + headroom (but never below the
# floor).  Single source of truth for every dispatch loop — machine.py
# re-exports these.

STACK_SHRINK_TRIGGER = 8192
STACK_MIN_CAPACITY = 4096
STACK_HEADROOM = 256

# Exit kinds: how the trampoline continues after a trace returns.  The
# two direct kinds exist only in emitted modules, where the emitter
# proved the callee statically.
K_FALL = 0      # continue at `arg` (fallthrough, jump, or taken branch)
K_CALL = 1      # non-tail call: `arg` is (argc, return_pc)
K_TAIL = 2      # tail call: `arg` is argc
K_CALLCC = 3    # continuation capture: `arg` is return_pc
K_RET = 4       # procedure return
K_HALT = 5      # program end
K_CALL_DIRECT = 6   # proven call: `arg` is (AotCode, return_pc)
K_TAIL_DIRECT = 7   # proven tail call: `arg` is AotCode

# Accumulator slots shared between exit `counts` tuples and the
# trampoline's 20-element `acc` list.  0-8 are scalar counters, 9-13
# stack reads by kind, 14-18 stack writes by kind (kind order is
# repro.vm.predecode.KIND_NAMES), 19 permutation instructions.
ACC_PRIM = 0
ACC_MOV = 1
ACC_BRANCH = 2
ACC_MISS = 3
ACC_CALL = 4
ACC_TAIL = 5
ACC_CLO = 6
ACC_CC_CAP = 7
ACC_CC_INV = 8
ACC_READS = 9
ACC_WRITES = 14
ACC_SWAP = 19
ACC_SIZE = 20


class VMClosure:
    scheme_procedure = True
    __slots__ = ("code", "slots")

    def __init__(self, code: Any, slots: List[Any]) -> None:
        self.code = code
        self.slots = slots

    def __repr__(self) -> str:
        return f"#<procedure {self.code.name}>"


class VMContinuation:
    scheme_procedure = True
    __slots__ = ("snapshot", "sp", "code", "pc", "class_depth")

    def __init__(
        self,
        snapshot: List[Any],
        sp: int,
        code: Any,
        pc: int,
        class_depth: int,
    ) -> None:
        self.snapshot = snapshot
        self.sp = sp
        self.code = code
        self.pc = pc
        self.class_depth = class_depth

    def __repr__(self) -> str:
        return "#<continuation>"


class _Poison:
    __slots__ = ()

    def __repr__(self) -> str:
        return "#<uninitialized-frame-slot>"


POISON = _Poison()


class VMError(Exception):
    """Internal VM invariant violation (not a Scheme error)."""


# ---------------------------------------------------------------------------
# The emitted module's object model.


class AotCode:
    """A procedure in an emitted module: the runtime slice of a
    ``CodeObject`` (name for error messages, parameter names, frame
    size, the classifier's two static flags) plus its prebuilt trace
    table.  Attribute names match ``CodeObject`` so the trampoline reads
    either; ``fast_blocks`` maps trace-leader pc -> ``(fn, exits)``
    like a code object's list, but as a dict (emitted modules only
    spell the leaders)."""

    __slots__ = (
        "name", "label", "params", "frame_size",
        "syntactic_leaf", "always_calls", "fast_blocks",
    )

    def __init__(
        self,
        name: str,
        label: str,
        params: Tuple[str, ...],
        frame_size: int,
        syntactic_leaf: bool,
        always_calls: bool,
    ) -> None:
        self.name = name
        self.label = label
        self.params = params
        self.frame_size = frame_size
        self.syntactic_leaf = syntactic_leaf
        self.always_calls = always_calls
        self.fast_blocks: Dict[int, Tuple[Any, Any]] = {}

    def __repr__(self) -> str:
        return f"<AotCode {self.label}>"


class AotProgram(NamedTuple):
    """The whole program as the trampoline sees it: entry point,
    register-file geometry, cost-model scalars, and (for emitted
    modules) provenance — source cache key, config fingerprint,
    emitter version.  Emitted modules bake one at build time over
    :class:`AotCode`s; ``Machine`` builds one over ``CodeObject``s."""

    entry: Any
    codes: Tuple[Any, ...]
    nregs: int
    a0: Optional[int]
    ret: int
    cp: int
    rv: int
    call_overhead: int
    predict: bool
    penalty: int
    kind_names: Tuple[str, ...]
    direct_calls: int = 0
    call_sites: int = 0
    source_key: str = ""
    fingerprint: str = ""
    version: str = ""


class AotResult(NamedTuple):
    """What one AOT run produced (the runtime analogue of
    ``repro.pipeline.ExecutionResult``)."""

    value: Any
    output: str
    counters: Counters
    classifier: ActivationClassifier
    stack_capacity: int
    stack_shrinks: int


def datum(text: str) -> Any:
    """Parse one datum literal baked into an emitted module's const
    pool (the emitter spells non-trivial immediates as their written
    form; ``write_datum``/``read`` round-trip exactly)."""
    from repro.sexp.reader import read

    return read(text)


# ---------------------------------------------------------------------------
# The trampoline.


#: Counters fields of the scalar accumulator slots.
_SCALAR_SLOTS = (
    (ACC_PRIM, "prim_calls"),
    (ACC_MOV, "moves"),
    (ACC_BRANCH, "branches"),
    (ACC_MISS, "mispredicts"),
    (ACC_CALL, "calls"),
    (ACC_TAIL, "tail_calls"),
    (ACC_CLO, "closure_allocs"),
    (ACC_CC_CAP, "continuations_captured"),
    (ACC_CC_INV, "continuations_invoked"),
    (ACC_SWAP, "swaps"),
)


def flush_counters(acc: List[int], counters: Counters,
                   kind_names: Tuple[str, ...]) -> None:
    """Empty the trampoline's accumulator array into *counters* (and
    zero it).  Called wherever the counters become observable: before
    every profiler switch/resume, so per-procedure profiles conserve,
    and once at the end of the run."""
    for slot, field in _SCALAR_SLOTS:
        n = acc[slot]
        if n:
            setattr(counters, field, getattr(counters, field) + n)
            acc[slot] = 0
    for base, by_kind in ((ACC_READS, counters.stack_reads),
                          (ACC_WRITES, counters.stack_writes)):
        for i, kind_name in enumerate(kind_names):
            n = acc[base + i]
            if n:
                by_kind[kind_name] = by_kind.get(kind_name, 0) + n
                acc[base + i] = 0


def trampoline(
    program: AotProgram,
    counters: Counters,
    classifier: ActivationClassifier,
    port: OutputPort,
    max_instructions: Optional[int] = None,
    build: Optional[Callable[[Any], Any]] = None,
    prof: Optional[Any] = None,
) -> Tuple[Any, int, int]:
    """Execute *program*'s traces; returns ``(value, stack_capacity,
    stack_shrinks)``.  One indexed fetch and one trace call per
    iteration, then the exit's counter deltas and control transfer; the
    instruction budget is checked per trace.  *build* compiles a code
    object's block table on first entry (``fast_blocks is None``);
    *prof* is an optional ``VMProfiler``, told of every procedure
    switch after the counters are flushed.  Both hooks serve only the
    in-process fast loop: the direct exit kinds, which only emitted
    modules produce, neither build nor profile.
    """
    call_overhead = program.call_overhead
    predict = program.predict
    penalty = program.penalty
    a0 = program.a0
    RET = program.ret
    CP = program.cp
    RV = program.rv
    kind_names = program.kind_names
    ARG_WRITE_SLOT = ACC_WRITES + kind_names.index("arg")
    shrink_trigger = STACK_SHRINK_TRIGGER
    min_capacity = STACK_MIN_CAPACITY
    headroom = STACK_HEADROOM

    regs: List[Any] = [None] * program.nregs
    ready = [0] * program.nregs
    stack: List[Any] = [None] * 256
    cycle = 0
    executed = 0
    shrinks = 0
    budget = max_instructions
    if budget is None:
        budget = 1 << 62

    # Counter accumulators, one slot per ACC_* index.  Exits carry
    # static (slot, delta) pairs; flush_counters empties the array into
    # `counters` exactly where the profiler (or the caller) can observe
    # them, so conservation holds.
    acc = [0] * ACC_SIZE

    code = program.entry
    frame_size = code.frame_size
    blocks = code.fast_blocks
    if blocks is None:
        blocks = build(code)
    pc = 0
    sp = 0
    result: Any = None
    classifier.on_call(code)
    if prof is not None:
        prof.start(code)

    limit = frame_size + 64
    if limit >= len(stack):
        stack.extend([None] * (limit - len(stack) + 256))

    while True:
        fn, exits = blocks[pc]
        cycle, ex = fn(regs, ready, stack, sp, cycle, port)
        kind, barg, nexec, counts, taken = exits[ex]
        executed += nexec
        if executed > budget:
            raise VMError("instruction budget exceeded")
        if counts:
            for slot, delta in counts:
                acc[slot] += delta
        if taken:
            if predict:
                # Static prediction: fall-through (not-taken) is the
                # predicted path; the allocator lays the likely
                # (call-free) branch on the fall-through.
                acc[3] += 1
                cycle += penalty

        # Kinds are tested in order of dynamic frequency on the
        # interpreted path, which never produces the direct kinds.
        if kind == K_FALL:
            pc = barg
        elif kind == K_CALL:
            cycle += call_overhead
            callee = regs[CP]
            if type(callee) is VMClosure:
                target = callee.code
                if len(target.params) != barg[0]:
                    raise SchemeError(
                        f"{target.name}: expected {len(target.params)} "
                        f"argument(s), got {barg[0]}"
                    )
                regs[RET] = (code, barg[1])
                new_sp = sp + frame_size
                limit = new_sp + target.frame_size + 64
                if limit >= len(stack):
                    stack.extend([None] * (limit - len(stack) + 256))
                sp = new_sp
                classifier.on_call(target)
                if prof is not None:
                    flush_counters(acc, counters, kind_names)
                    prof.switch(target, cycle, executed)
                code = target
                frame_size = target.frame_size
                blocks = target.fast_blocks
                if blocks is None:
                    blocks = build(target)
                pc = 0
            elif type(callee) is VMContinuation:
                if barg[0] != 1:
                    raise SchemeError("continuation expects exactly 1 value")
                if a0 is not None:
                    value = regs[a0]
                else:
                    value = stack[sp + frame_size]
                acc[8] += 1
                classifier.unwind_to(callee.class_depth)
                stack = list(callee.snapshot)
                stack.extend([None] * 320)
                sp = callee.sp
                regs[RV] = value
                ready[RV] = cycle
                if prof is not None:
                    flush_counters(acc, counters, kind_names)
                    prof.resume(callee.code, cycle, executed)
                code = callee.code
                frame_size = code.frame_size
                blocks = code.fast_blocks
                if blocks is None:
                    blocks = build(code)
                pc = callee.pc
            else:
                raise SchemeError("attempt to apply a non-procedure", callee)
        elif kind == K_RET:
            addr = regs[RET]
            if addr is None:
                result = regs[RV]
                classifier.finish()
                break
            ret_code, ret_pc = addr
            old_sp = sp
            sp -= ret_code.frame_size
            if len(stack) > shrink_trigger and old_sp < len(stack) >> 2:
                # Low-water mark: the live prefix ends at old_sp (the
                # returning frame's base); everything above is dead, so
                # release the oversized tail.
                new_len = old_sp + headroom
                if new_len < min_capacity:
                    new_len = min_capacity
                del stack[new_len:]
                shrinks += 1
            classifier.on_return()
            if prof is not None:
                flush_counters(acc, counters, kind_names)
                prof.resume(ret_code, cycle, executed)
            code = ret_code
            frame_size = ret_code.frame_size
            blocks = ret_code.fast_blocks
            if blocks is None:
                blocks = build(ret_code)
            pc = ret_pc
        elif kind == K_TAIL:
            cycle += call_overhead
            callee = regs[CP]
            if type(callee) is VMClosure:
                target = callee.code
                if len(target.params) != barg:
                    raise SchemeError(
                        f"{target.name}: expected {len(target.params)} "
                        f"argument(s), got {barg}"
                    )
                limit = sp + target.frame_size + 64
                if limit >= len(stack):
                    stack.extend([None] * (limit - len(stack) + 256))
                classifier.on_tail_call(target)
                if prof is not None:
                    flush_counters(acc, counters, kind_names)
                    prof.switch(target, cycle, executed)
                code = target
                frame_size = target.frame_size
                blocks = target.fast_blocks
                if blocks is None:
                    blocks = build(target)
                pc = 0
            elif type(callee) is VMContinuation:
                if barg != 1:
                    raise SchemeError("continuation expects exactly 1 value")
                if a0 is not None:
                    value = regs[a0]
                else:
                    value = stack[sp]
                acc[8] += 1
                classifier.unwind_to(callee.class_depth)
                stack = list(callee.snapshot)
                stack.extend([None] * 320)
                sp = callee.sp
                regs[RV] = value
                ready[RV] = cycle
                if prof is not None:
                    flush_counters(acc, counters, kind_names)
                    prof.resume(callee.code, cycle, executed)
                code = callee.code
                frame_size = code.frame_size
                blocks = code.fast_blocks
                if blocks is None:
                    blocks = build(code)
                pc = callee.pc
            else:
                raise SchemeError("attempt to apply a non-procedure", callee)
        elif kind == K_CALLCC:
            cycle += call_overhead
            callee = regs[CP]
            if not (type(callee) is VMClosure):
                raise SchemeError("call/cc: not a procedure", callee)
            target = callee.code
            if len(target.params) != 1:
                raise SchemeError(
                    f"call/cc receiver {target.name} must take 1 argument"
                )
            new_sp = sp + frame_size
            k = VMContinuation(
                stack[:new_sp], sp, code, barg, len(classifier.stack)
            )
            regs[RET] = (code, barg)
            limit = new_sp + target.frame_size + 64
            if limit >= len(stack):
                stack.extend([None] * (limit - len(stack) + 256))
            if a0 is not None:
                regs[a0] = k
                ready[a0] = cycle
            else:
                stack[new_sp] = k
                acc[ARG_WRITE_SLOT] += 1
            sp = new_sp
            classifier.on_call(target)
            if prof is not None:
                flush_counters(acc, counters, kind_names)
                prof.switch(target, cycle, executed)
            code = target
            frame_size = target.frame_size
            blocks = target.fast_blocks
            if blocks is None:
                blocks = build(target)
            pc = 0
        elif kind == K_CALL_DIRECT:
            # Emitter-proven call: the callee's code and arity were
            # checked at build time, so no dynamic dispatch.
            cycle += call_overhead
            target, ret_pc = barg
            regs[RET] = (code, ret_pc)
            new_sp = sp + frame_size
            limit = new_sp + target.frame_size + 64
            if limit >= len(stack):
                stack.extend([None] * (limit - len(stack) + 256))
            sp = new_sp
            classifier.on_call(target)
            code = target
            frame_size = target.frame_size
            blocks = target.fast_blocks
            pc = 0
        elif kind == K_TAIL_DIRECT:
            cycle += call_overhead
            target = barg
            limit = sp + target.frame_size + 64
            if limit >= len(stack):
                stack.extend([None] * (limit - len(stack) + 256))
            classifier.on_tail_call(target)
            code = target
            frame_size = target.frame_size
            blocks = target.fast_blocks
            pc = 0
        else:  # K_HALT
            result = regs[RV]
            classifier.finish()
            break

    flush_counters(acc, counters, kind_names)
    counters.instructions = executed
    counters.cycles = cycle
    if prof is not None:
        prof.finish(cycle, executed)
    return result, len(stack), shrinks


def run_program(
    program: AotProgram, max_instructions: Optional[int] = None
) -> AotResult:
    """Execute an emitted program through :func:`trampoline` (unprofiled,
    every block table prebuilt)."""
    counters = Counters()
    classifier = ActivationClassifier()
    port = OutputPort()
    result, capacity, shrinks = trampoline(
        program, counters, classifier, port, max_instructions
    )
    return AotResult(
        result, port.contents(), counters, classifier, capacity, shrinks
    )


# ---------------------------------------------------------------------------
# The emitted module's __main__ entry.


def main(program: AotProgram, argv: Optional[List[str]] = None) -> int:
    """CLI for an emitted module (``python whatever_aot.py [--json]``).
    ``--json`` reports value/output/counters plus the list of loaded
    ``repro.*`` modules, which the AOT smoke checks to prove the
    compiler stayed out of the process."""
    from repro.sexp.writer import write_datum

    parser = argparse.ArgumentParser(
        description=f"AOT-compiled repro program (source {program.source_key[:12]})"
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--max-instructions", type=int, default=None, metavar="N",
        help="instruction budget",
    )
    args = parser.parse_args(argv)
    try:
        result = run_program(program, max_instructions=args.max_instructions)
    except SchemeError as exc:
        print(f"scheme error: {exc}", file=sys.stderr)
        return 2
    except VMError as exc:
        print(f"vm error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        doc = {
            "value": write_datum(result.value),
            "output": result.output,
            "counters": result.counters.as_dict(),
            "activations": result.classifier.counts,
            "direct_calls": program.direct_calls,
            "call_sites": program.call_sites,
            "fingerprint": program.fingerprint,
            "version": program.version,
            "repro_modules": sorted(
                name for name in sys.modules
                if name == "repro" or name.startswith("repro.")
            ),
        }
        print(json.dumps(doc, indent=2))
    else:
        if result.output:
            sys.stdout.write(result.output)
        print(write_datum(result.value))
    return 0
