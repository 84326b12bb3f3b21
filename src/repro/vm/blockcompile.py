"""Block compilation: the fast path's execution engine.

``repro.vm.predecode`` turns each code object's symbolic instructions
into a fused, coded tuple stream.  Dispatching over that stream one
tuple at a time still pays an interpretive tax per instruction: fetch,
tag compare, operand subscripts, counter bumps.  This module removes
that tax by compiling the stream into *traces* — extended basic
blocks, each one generated straight-line Python function.  A trace is
the logical endpoint of superinstruction fusion: the whole block is
the superinstruction.

A trace starts at a block leader (the entry, a branch target, or a
return address) and follows the fall-through path as far as it can:

* straight-line instructions are emitted inline with operands baked in
  as source-text literals, so there is no operand fetch at run time;
* forward jumps are followed (the jump charges its cycle, then the
  target's code continues inline);
* conditional branches stay in the trace: the not-taken (fall-through,
  statically predicted) side continues inline, while the taken side
  becomes an early ``return`` naming an *exit*;
* the trace ends at a control transfer the trampoline must perform —
  call, tail call, ``call/cc``, return, halt — or at a backward jump.

Every generated function has the shape
``fn(regs, ready, stack, sp, cycle, port) -> (cycle, exit_id)``.  The
per-instruction ``cycle += 1`` dispatch charges are constant-folded:
the generator tracks a static cycle offset and only materializes it at
stall checks and at exits, so a run of loads compiles to plain list
moves plus one add.  Primitive callables, code objects, and
non-trivial immediates are bound once into the function's globals
(``C0``, ``C1``, ...).

Counter effects are static *per exit*: how many instructions, moves,
prim calls, and stack accesses of each kind were executed by the time
a trace leaves through a given exit is known at compile time, so the
trampoline applies one small tuple of deltas per trace execution
instead of one bump per instruction.  Only branch mispredicts and
continuation invokes are dynamic, and both are accounted by the
trampoline (a taken-branch exit carries a flag).

The trampoline (:func:`repro.vm.aotrt.trampoline`, shared by the
in-process fast loop and AOT-emitted modules) executes a program as::

    fn, exits = blocks[pc]                      # one indexed fetch
    cycle, ex = fn(regs, ready, stack, sp, cycle, port)
    kind, arg, nexec, counts, taken = exits[ex]
    ... budget, counter deltas, mispredict, control transfer ...

Trace functions never transfer control themselves; the trampoline
performs calls, returns, branch-target selection, and the
stack-release policy — byte-for-byte the legacy loop's semantics, so
values, output, counters, cycles, and per-procedure profiles are
bit-identical to ``Machine._run`` (asserted by
``tests/vm/test_predecode_equiv.py`` and the fuzz oracle's ``vm-fast``
invariant).

Trace boundaries and ``pc`` values live in the *fused* coded stream's
index space — the same space return addresses and captured
continuations use — so a code object's block table and its
``fast_instructions`` are two views of one program.  Inlining across
leaders duplicates code (a join block's instructions appear in every
trace that reaches it); :data:`TRACE_LIMIT` bounds the duplication by
ending over-long traces at the next natural boundary.

The one observable relaxation: the instruction budget
(``max_instructions``) is checked once per trace, after the trace has
run, so a budget-exceeded run may raise up to a trace's length later
than the legacy loop's per-instruction check (and may have performed
those instructions' effects).  Successful runs are unaffected — their
totals never cross the budget — and nothing compares counters or
output on budget-error paths.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.primitives import PRIMITIVES
from repro.sexp.datum import NIL, Pair, UNSPECIFIED
from repro.vm.aotrt import (  # the trace protocol: exit kinds, acc slots
    ACC_BRANCH,
    ACC_CALL,
    ACC_CC_CAP,
    ACC_CLO,
    ACC_MOV,
    ACC_PRIM,
    ACC_READS,
    ACC_SWAP,
    ACC_TAIL,
    ACC_WRITES,
    K_CALL,
    K_CALLCC,
    K_FALL,
    K_HALT,
    K_RET,
    K_TAIL,
)
from repro.vm.predecode import (
    OP_BRF,
    OP_BRT,
    OP_CALL,
    OP_CALLCC,
    OP_CLO_ALLOC,
    OP_CLO_REF,
    OP_CLO_SET,
    OP_CLOSURE,
    OP_HALT,
    OP_JMP,
    OP_LD,
    OP_LD_OUT,
    OP_LDBRF,
    OP_LDBRT,
    OP_LDM,
    OP_LI,
    OP_MOV,
    OP_MOVM,
    OP_PRIM0,
    OP_PRIM1,
    OP_PRIM2,
    OP_PRIM3,
    OP_PRIMN,
    OP_PERMI,
    OP_PRIMX,
    OP_RETURN,
    OP_ST,
    OP_ST_OUT,
    OP_STM,
    OP_SWAP,
    OP_TAILCALL,
    predecode_code,
)

#: Soft cap on instructions inlined per trace.  Once exceeded, the
#: trace ends at the next natural boundary (leader, branch, or jump)
#: instead of continuing inline, bounding total code duplication.
TRACE_LIMIT = 128

_SAFE_IMMEDIATES = (int, float, str)

#: Marker for "register operand, value unknown at compile time" in the
#: prim-inlining operand lists (immediates carry their actual value).
_REG = object()


def _build_inline_tags() -> Dict[Any, Tuple[str, ...]]:
    """Primitives the generator open-codes behind a type guard.

    Keyed by the primitive's resolved callable (what the coded stream
    carries).  Each fast path is *exactly* the primitive's behaviour on
    guarded inputs; anything that fails the guard falls back to the
    real callable, so error messages and edge semantics are untouched.
    """
    table = {}
    for name, tag in (
        ("+", ("arith", "+")),
        ("-", ("arith", "-")),
        ("*", ("arith", "*")),
        ("<", ("arith", "<")),
        ("<=", ("arith", "<=")),
        (">", ("arith", ">")),
        (">=", ("arith", ">=")),
        ("=", ("arith", "==")),
        ("add1", ("incdec", "+")),
        ("sub1", ("incdec", "-")),
        ("zero?", ("zero",)),
        ("car", ("field", "car")),
        ("cdr", ("field", "cdr")),
        ("set-car!", ("setfield", "car")),
        ("set-cdr!", ("setfield", "cdr")),
        ("cons", ("cons",)),
        ("null?", ("isnil",)),
        ("not", ("isfalse",)),
        ("pair?", ("ispair",)),
        ("eq?", ("eqis",)),
        ("vector-ref", ("vref",)),
        ("vector-set!", ("vset",)),
    ):
        spec = PRIMITIVES.get(name)
        if spec is not None:
            table[spec.fn] = tag
    return table


_INLINE_TAGS = _build_inline_tags()


def _find_leaders(instrs: Tuple[Tuple[Any, ...], ...]) -> List[int]:
    """Initial trace leaders: entry, every branch/jump target, every
    return address (the pc after a call or callcc).  Trace building
    may add more (see TRACE_LIMIT)."""
    n = len(instrs)
    leaders = {0}
    for pc, ins in enumerate(instrs):
        op = ins[0]
        if op == OP_BRF or op == OP_BRT:
            leaders.add(ins[2])
            leaders.add(pc + 1)
        elif op == OP_LDBRF or op == OP_LDBRT:
            leaders.add(ins[4])
            leaders.add(pc + 1)
        elif op == OP_JMP:
            leaders.add(ins[1])
        elif op == OP_CALL or op == OP_CALLCC:
            leaders.add(pc + 1)
    leaders.discard(n)
    return sorted(leaders)


def _expand(ins: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
    """A fused op is its exact component sequence; everything else is
    itself."""
    op = ins[0]
    if op == OP_MOVM:
        return [(OP_MOV, d, s) for d, s in ins[1]]
    if op == OP_STM:
        return [(OP_ST, slot, src, k) for slot, src, k in ins[1]]
    if op == OP_LDM:
        return [(OP_LD, d, slot, k) for d, slot, k in ins[1]]
    return [ins]


class _ConstPool:
    """Objects the generated source cannot spell as literals, bound
    into the exec globals as C0, C1, ..."""

    def __init__(self) -> None:
        self.by_id: Dict[int, str] = {}
        self.values: Dict[str, Any] = {}

    def ref(self, value: Any) -> str:
        name = self.by_id.get(id(value))
        if name is None:
            name = f"C{len(self.by_id)}"
            self.by_id[id(value)] = name
            self.values[name] = value
        return name


class _TraceWriter:
    """Generates one trace function's source, tracking the static
    cycle offset (`dc`) and the running counter deltas."""

    def __init__(self, name: str, consts: _ConstPool, cp: int,
                 load_latency: int, store_extra: int) -> None:
        self.lines: List[str] = [
            f"def {name}(regs, ready, stack, sp, cycle, port):"
        ]
        self.consts = consts
        self.cp = cp
        self.load_latency = load_latency
        self.store_extra = store_extra
        self.dc = 0
        self.counts: Dict[int, int] = {}

    # -- helpers -----------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " + line)

    def count(self, slot: int, n: int = 1) -> None:
        self.counts[slot] = self.counts.get(slot, 0) + n

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.counts.items()))

    def cyc(self) -> str:
        return f"cycle + {self.dc}" if self.dc else "cycle"

    def sp_index(self, offset: int) -> str:
        return f"sp + {offset}" if offset else "sp"

    def stall(self, src: int) -> None:
        """cycle = max(cycle, ready[src]) against the virtual (offset)
        cycle; keeps `dc` constant by shifting the stalled value."""
        self.w(f"t = ready[{src}]")
        if self.dc:
            self.w(f"if t > cycle + {self.dc}: cycle = t - {self.dc}")
        else:
            self.w("if t > cycle: cycle = t")

    def imm(self, value: Any) -> str:
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) in _SAFE_IMMEDIATES:
            return repr(value)
        return self.consts.ref(value)

    def ensure(self, idx_expr: str) -> None:
        self.w(f"idx = {idx_expr}")
        self.w("if idx >= len(stack):")
        self.w("    stack.extend([None] * (idx - len(stack) + 256))")

    # -- primitive application ----------------------------------------------

    def _prim(self, dst: int, fn: Any, operands: List[Tuple[str, Any]]) -> None:
        """Apply a primitive; *operands* is ``(expr, value)`` pairs where
        value is :data:`_REG` for register operands (unknown at compile
        time) or the immediate itself.  Hot primitives are open-coded
        behind exact type guards; everything else — and every guard
        miss — goes through the primitive's real callable, so errors
        and edge cases behave identically."""
        tag = _INLINE_TAGS.get(fn)
        if tag is None or not self._prim_inline(tag, dst, fn, operands):
            ref = self.consts.ref(fn)
            args = ", ".join(e for e, _ in operands)
            self.w(f"regs[{dst}] = {ref}([{args}], port)")
        self.w(f"ready[{dst}] = {self.cyc()}")
        self.count(ACC_PRIM)

    def _prim_inline(
        self, tag: Tuple[str, ...], dst: int, fn: Any,
        operands: List[Tuple[str, Any]],
    ) -> bool:
        """Emit the open-coded form for *tag* if the operand shapes
        allow it; returns False to fall back to the generic call."""
        kind = tag[0]
        if len(operands) > 4:
            return False
        # Bind register operands to locals: each is used by the guard,
        # the fast path, and the fallback call.
        names: List[str] = []
        for i, (expr, value) in enumerate(operands):
            if value is _REG:
                name = "xyzw"[i]
                self.w(f"{name} = {expr}")
                names.append(name)
            else:
                names.append(expr)

        def int_guard(indices) -> Optional[str]:
            parts = []
            for i in indices:
                if operands[i][1] is _REG:
                    parts.append(f"type({names[i]}) is int")
                elif type(operands[i][1]) is not int:
                    return None
            return " and ".join(parts)

        def fallback() -> str:
            ref = self.consts.ref(fn)
            return f"regs[{dst}] = {ref}([{', '.join(names)}], port)"

        if kind == "arith" and len(operands) == 2:
            guard = int_guard((0, 1))
            if guard is None:
                return False
            body = f"regs[{dst}] = {names[0]} {tag[1]} {names[1]}"
            if guard:
                self.w(f"if {guard}:")
                self.w(f"    {body}")
                self.w("else:")
                self.w(f"    {fallback()}")
            else:
                self.w(body)
            return True
        if kind == "incdec" and len(operands) == 1:
            guard = int_guard((0,))
            if not guard:
                return False
            self.w(f"if {guard}:")
            self.w(f"    regs[{dst}] = {names[0]} {tag[1]} 1")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "zero" and len(operands) == 1:
            guard = int_guard((0,))
            if not guard:
                return False
            self.w(f"if {guard}:")
            self.w(f"    regs[{dst}] = {names[0]} == 0")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "field" and len(operands) == 1 and operands[0][1] is _REG:
            self.w(f"if type({names[0]}) is Pair:")
            self.w(f"    regs[{dst}] = {names[0]}.{tag[1]}")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "setfield" and len(operands) == 2 and operands[0][1] is _REG:
            self.w(f"if type({names[0]}) is Pair:")
            self.w(f"    {names[0]}.{tag[1]} = {names[1]}")
            self.w(f"    regs[{dst}] = UNSPECIFIED")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "cons" and len(operands) == 2:
            self.w(f"regs[{dst}] = Pair({names[0]}, {names[1]})")
            return True
        if kind == "isnil" and len(operands) == 1:
            self.w(f"regs[{dst}] = {names[0]} is NIL")
            return True
        if kind == "isfalse" and len(operands) == 1:
            self.w(f"regs[{dst}] = {names[0]} is False")
            return True
        if kind == "ispair" and len(operands) == 1:
            self.w(f"regs[{dst}] = isinstance({names[0]}, Pair)")
            return True
        if kind == "eqis" and len(operands) == 2:
            ref = self.consts.ref(fn)
            self.w(
                f"regs[{dst}] = True if {names[0]} is {names[1]} "
                f"else {ref}([{names[0]}, {names[1]}], port)"
            )
            return True
        if kind == "vref" and len(operands) == 2 and operands[0][1] is _REG:
            iguard = int_guard((1,))
            if iguard is None:
                return False
            guard = f"type({names[0]}) is list"
            if iguard:
                guard += f" and {iguard}"
            self.w(f"if {guard} and 0 <= {names[1]} < len({names[0]}):")
            self.w(f"    regs[{dst}] = {names[0]}[{names[1]}]")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        if kind == "vset" and len(operands) == 3 and operands[0][1] is _REG:
            iguard = int_guard((1,))
            if iguard is None:
                return False
            guard = f"type({names[0]}) is list"
            if iguard:
                guard += f" and {iguard}"
            self.w(f"if {guard} and 0 <= {names[1]} < len({names[0]}):")
            self.w(f"    {names[0]}[{names[1]}] = {names[2]}")
            self.w(f"    regs[{dst}] = UNSPECIFIED")
            self.w("else:")
            self.w(f"    {fallback()}")
            return True
        return False

    # -- straight-line instruction bodies ----------------------------------

    def emit(self, ins: Tuple[Any, ...]) -> None:
        op = ins[0]
        self.dc += 1
        L = self.load_latency
        if op == OP_LD:
            self.w(f"regs[{ins[1]}] = stack[{self.sp_index(ins[2])}]")
            self.w(f"ready[{ins[1]}] = cycle + {self.dc + L}")
            self.count(ACC_READS + ins[3])
        elif op == OP_ST:
            self.stall(ins[2])
            self.w(f"stack[{self.sp_index(ins[1])}] = regs[{ins[2]}]")
            self.dc += self.store_extra
            self.count(ACC_WRITES + ins[3])
        elif op == OP_MOV:
            self.stall(ins[2])
            self.w(f"regs[{ins[1]}] = regs[{ins[2]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
            self.count(ACC_MOV)
        elif op == OP_SWAP:
            self.stall(ins[1])
            self.stall(ins[2])
            self.w(f"regs[{ins[1]}], regs[{ins[2]}] = "
                   f"regs[{ins[2]}], regs[{ins[1]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
            self.w(f"ready[{ins[2]}] = {self.cyc()}")
            self.count(ACC_SWAP)
        elif op == OP_PERMI:
            rs = ins[1]
            for r in rs:
                self.stall(r)
            lhs = ", ".join(f"regs[{r}]" for r in rs)
            rhs = ", ".join(
                f"regs[{rs[(i + 1) % len(rs)]}]" for i in range(len(rs))
            )
            self.w(f"{lhs} = {rhs}")
            for r in rs:
                self.w(f"ready[{r}] = {self.cyc()}")
            self.count(ACC_SWAP)
        elif op == OP_LI:
            self.w(f"regs[{ins[1]}] = {self.imm(ins[2])}")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_PRIM1:
            self.stall(ins[3])
            self._prim(ins[1], ins[2], [(f"regs[{ins[3]}]", _REG)])
        elif op == OP_PRIM2:
            self.stall(ins[3])
            self.stall(ins[4])
            self._prim(
                ins[1], ins[2],
                [(f"regs[{ins[3]}]", _REG), (f"regs[{ins[4]}]", _REG)],
            )
        elif op == OP_PRIM3:
            self.stall(ins[3])
            self.stall(ins[4])
            self.stall(ins[5])
            self._prim(
                ins[1], ins[2],
                [(f"regs[{s}]", _REG) for s in ins[3:6]],
            )
        elif op == OP_PRIMN:
            for s in ins[3]:
                self.stall(s)
            self._prim(ins[1], ins[2], [(f"regs[{s}]", _REG) for s in ins[3]])
        elif op == OP_PRIM0:
            self._prim(ins[1], ins[2], [(self.imm(v), v) for v in ins[3]])
        elif op == OP_PRIMX:
            operands = []
            for s in ins[3]:
                if type(s) is int:
                    self.stall(s)
                    operands.append((f"regs[{s}]", _REG))
                else:
                    operands.append((self.imm(s[1]), s[1]))
            self._prim(ins[1], ins[2], operands)
        elif op == OP_CLO_REF:
            self.w(f"regs[{ins[1]}] = regs[{self.cp}].slots[{ins[2]}]")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
        elif op == OP_CLOSURE:
            for s in ins[3]:
                self.stall(s)
            codeobj = self.consts.ref(ins[2])
            vals = ", ".join(f"regs[{s}]" for s in ins[3])
            self.w(f"regs[{ins[1]}] = VMClosure({codeobj}, [{vals}])")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
            self.count(ACC_CLO)
        elif op == OP_CLO_ALLOC:
            codeobj = self.consts.ref(ins[2])
            self.w(f"regs[{ins[1]}] = VMClosure({codeobj}, [None] * {ins[3]})")
            self.w(f"ready[{ins[1]}] = {self.cyc()}")
            self.count(ACC_CLO)
        elif op == OP_CLO_SET:
            self.stall(ins[3])
            self.w(f"regs[{ins[1]}].slots[{ins[2]}] = regs[{ins[3]}]")
        elif op == OP_LD_OUT:
            self.ensure(self.sp_index(ins[2]))
            self.w(f"regs[{ins[1]}] = stack[idx]")
            self.w(f"ready[{ins[1]}] = cycle + {self.dc + L}")
            self.count(ACC_READS + ins[3])
        elif op == OP_ST_OUT:
            self.stall(ins[2])
            self.ensure(self.sp_index(ins[1]))
            self.w(f"stack[idx] = regs[{ins[2]}]")
            self.dc += self.store_extra
            self.count(ACC_WRITES + ins[3])
        else:  # pragma: no cover - closed opcode set
            raise ValueError(f"cannot block-compile opcode {op}")

    # -- exits -------------------------------------------------------------

    def branch_head(self, src: int) -> None:
        """The branch's dispatch charge and source stall, shared by the
        taken exit and the inline fall-through continuation."""
        self.dc += 1
        self.stall(src)
        self.count(ACC_BRANCH)

    def branch_exit(self, src: int, negate: bool, exit_id: int) -> None:
        """Taken side leaves the trace; not-taken continues inline."""
        test = "is not False" if negate else "is False"
        self.w(f"if regs[{src}] {test}: return {self.cyc()}, {exit_id}")

    def branch_exit_both(
        self, src: int, negate: bool, taken_id: int, fall_id: int
    ) -> None:
        """Over-limit trace: both branch sides leave the trace."""
        test = "is not False" if negate else "is False"
        self.w(
            f"return {self.cyc()}, "
            f"({taken_id} if regs[{src}] {test} else {fall_id})"
        )

    def return_exit(self, exit_id: int) -> None:
        self.w(f"return {self.cyc()}, {exit_id}")

    def source(self) -> str:
        return "\n".join(self.lines)


#: Register-writing opcodes whose destination is operand 1 — the set
#: the static-callee tracker must watch for CP clobbers.
_DST_OPS = frozenset((
    OP_LD, OP_MOV, OP_LI, OP_PRIM0, OP_PRIM1, OP_PRIM2, OP_PRIM3,
    OP_PRIMN, OP_PRIMX, OP_CLO_REF, OP_CLOSURE, OP_CLO_ALLOC, OP_LD_OUT,
))


def _build_trace(
    start, instrs, n, leader_set, pending, wtr, callees=None, slot_env=None
):
    """Emit one trace into *wtr*; returns its exit table.

    Exits are ``(kind, arg, nexec, counts, taken)``: the trampoline
    action, its argument, the exact number of instructions executed
    when leaving through this exit, the counter deltas accumulated by
    then, and whether the exit is a taken conditional branch (for
    mispredict accounting).

    When *callees* (a dict) is given, the builder additionally tracks
    which registers provably hold a closure of a statically-known
    ``CodeObject`` along the trace's fall-through path:
    ``closure``/``clo_alloc`` establish one, ``mov`` propagates,
    ``clo_ref`` consults *slot_env* (this code's proven closure-slot
    contents from :func:`repro.vm.callgraph.closure_slot_callees`),
    and every other register write clobbers.  Each call/tail-call exit
    records the proven callee of the closure-pointer register (or
    None) under ``(start, exit_index)`` — the AOT emitter collapses
    those sites into direct calls (see :mod:`repro.vm.aotemit`); the
    in-process trampoline ignores them.
    """
    exits: List[Tuple[int, Any, int, Tuple[Tuple[int, int], ...], bool]] = []
    ninstr = 0
    pc = start
    cp = wtr.cp
    defs: Dict[int, Any] = {}  # register -> statically proven CodeObject
    while True:
        if pc >= n:
            # Run off the end: exit to pc n, where the trampoline's
            # block fetch raises IndexError exactly like the legacy
            # loop's instruction fetch would.
            exits.append((K_FALL, n, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        if pc != start and pc in leader_set and ninstr >= TRACE_LIMIT:
            exits.append((K_FALL, pc, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        ins = instrs[pc]
        op = ins[0]
        if op == OP_BRF or op == OP_BRT or op == OP_LDBRF or op == OP_LDBRT:
            if op == OP_LDBRF or op == OP_LDBRT:
                wtr.emit((OP_LD, ins[1], ins[2], ins[3]))
                ninstr += 1
                defs.pop(ins[1], None)
                src, target = ins[1], ins[4]
                negate = op == OP_LDBRT
            else:
                src, target = ins[1], ins[2]
                negate = op == OP_BRT
            ninstr += 1
            wtr.branch_head(src)
            snap = wtr.snapshot()
            taken_id = len(exits)
            exits.append((K_FALL, target, ninstr, snap, True))
            if ninstr >= TRACE_LIMIT:
                fall_id = len(exits)
                exits.append((K_FALL, pc + 1, ninstr, snap, False))
                wtr.branch_exit_both(src, negate, taken_id, fall_id)
                if pc + 1 not in leader_set:
                    leader_set.add(pc + 1)
                    pending.append(pc + 1)
                break
            wtr.branch_exit(src, negate, taken_id)
            pc += 1
        elif op == OP_JMP:
            ninstr += 1
            wtr.dc += 1
            target = ins[1]
            if target > pc and ninstr < TRACE_LIMIT:
                pc = target
            else:
                exits.append((K_FALL, target, ninstr, wtr.snapshot(), False))
                wtr.return_exit(len(exits) - 1)
                break
        elif op == OP_CALL:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_CALL)
            exits.append((K_CALL, (ins[1], pc + 1), ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            if callees is not None:
                callees[(start, len(exits) - 1)] = defs.get(cp)
            break
        elif op == OP_TAILCALL:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_TAIL)
            exits.append((K_TAIL, ins[1], ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            if callees is not None:
                callees[(start, len(exits) - 1)] = defs.get(cp)
            break
        elif op == OP_CALLCC:
            ninstr += 1
            wtr.dc += 1
            wtr.count(ACC_CALL)
            wtr.count(ACC_CC_CAP)
            exits.append((K_CALLCC, pc + 1, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_RETURN:
            ninstr += 1
            wtr.dc += 1
            exits.append((K_RET, None, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        elif op == OP_HALT:
            ninstr += 1
            wtr.dc += 1
            exits.append((K_HALT, None, ninstr, wtr.snapshot(), False))
            wtr.return_exit(len(exits) - 1)
            break
        else:
            for comp in _expand(ins):
                wtr.emit(comp)
                ninstr += 1
                cop = comp[0]
                if cop == OP_CLOSURE or cop == OP_CLO_ALLOC:
                    defs[comp[1]] = comp[2]
                elif cop == OP_MOV:
                    value = defs.get(comp[2])
                    if value is None:
                        defs.pop(comp[1], None)
                    else:
                        defs[comp[1]] = value
                elif cop == OP_CLO_REF:
                    value = slot_env.get(comp[2]) if slot_env else None
                    if value is None:
                        defs.pop(comp[1], None)
                    else:
                        defs[comp[1]] = value
                elif cop == OP_SWAP:
                    # A permutation moves proven facts exactly as it
                    # moves values.
                    a, b = comp[1], comp[2]
                    va, vb = defs.pop(a, None), defs.pop(b, None)
                    if vb is not None:
                        defs[a] = vb
                    if va is not None:
                        defs[b] = va
                elif cop == OP_PERMI:
                    rs = comp[1]
                    olds = [defs.pop(r, None) for r in rs]
                    for i, r in enumerate(rs):
                        value = olds[(i + 1) % len(rs)]
                        if value is not None:
                            defs[r] = value
                elif cop in _DST_OPS:
                    defs.pop(comp[1], None)
            pc += 1
    return exits


class TraceModule:
    """One code object's generated trace module, before instantiation:
    the source text, the trace records (``(start, fn_name, exits)``),
    the const-pool bindings the source references, and — when built
    with ``track_callees`` — the statically-proven callee map.  This
    is the unit the artifact cache persists (source is re-``compile``-
    able, consts are picklable once primitives are named; see
    :mod:`repro.vm.artifact`) and the AOT emitter splices into a
    whole-program module (:mod:`repro.vm.aotemit`)."""

    __slots__ = ("n", "records", "source", "const_values", "callees")

    def __init__(self, n, records, source, const_values, callees) -> None:
        self.n = n
        self.records = records
        self.source = source
        self.const_values = const_values
        self.callees = callees


def build_trace_module(
    code,
    cost_model,
    cp_index: int,
    name_prefix: str = "_b",
    consts: Optional[_ConstPool] = None,
    track_callees: bool = False,
    slot_env: Optional[Dict[int, Any]] = None,
) -> TraceModule:
    """Generate (without executing) one code object's trace module.

    *name_prefix* namespaces the trace function names (the AOT emitter
    packs every code object's traces into one module); *consts* lets
    callers share a const pool across code objects the same way.
    *slot_env* (with ``track_callees``) is this code's proven
    closure-slot contents — see
    :func:`repro.vm.callgraph.closure_slot_callees`.
    """
    instrs = predecode_code(code)
    n = len(instrs)
    leaders = _find_leaders(instrs)
    leader_set = set(leaders)
    pending = list(leaders)
    if consts is None:
        consts = _ConstPool()
    load_latency = cost_model.load_latency
    store_extra = cost_model.store_cost - 1
    callees: Optional[Dict[Tuple[int, int], Any]] = (
        {} if track_callees else None
    )

    sources: List[str] = []
    records: List[Tuple[int, str, Any]] = []
    built = set()
    while pending:
        start = pending.pop()
        if start in built:
            continue
        built.add(start)
        name = f"{name_prefix}{start}"
        wtr = _TraceWriter(name, consts, cp_index, load_latency, store_extra)
        exits = _build_trace(
            start, instrs, n, leader_set, pending, wtr, callees, slot_env
        )
        sources.append(wtr.source())
        records.append((start, name, tuple(exits)))

    return TraceModule(
        n, tuple(records), "\n\n".join(sources), consts.values, callees
    )


def base_namespace() -> Dict[str, Any]:
    """The names every generated trace references beyond its consts."""
    from repro.vm.aotrt import VMClosure

    return {
        "VMClosure": VMClosure,
        "Pair": Pair,
        "NIL": NIL,
        "UNSPECIFIED": UNSPECIFIED,
    }


def instantiate_blocks(code, module_code, records, const_values, n):
    """Execute a compiled trace module and assemble (and cache on
    ``code.fast_blocks``) the pc-indexed block table."""
    namespace = base_namespace()
    namespace.update(const_values)
    exec(module_code, namespace)  # noqa: S102 - trusted generated code

    blocks: List[Optional[Tuple[Any, Any]]] = [None] * n
    for start, name, exits in records:
        blocks[start] = (namespace[name], exits)
    code.fast_blocks = blocks
    return blocks


def compile_blocks(code, cost_model, cp_index: int, dump=None):
    """Compile one code object's fused coded stream into a trace table.

    Returns (and caches on ``code.fast_blocks``) a list indexed by pc;
    entries exist at trace leaders and are ``(fn, exits)`` pairs — see
    the module docstring for both halves.  *dump*, when given, is
    called with the full generated module source (for debugging and
    documentation; nothing else keeps it).
    """
    tm = build_trace_module(code, cost_model, cp_index)
    if dump is not None:
        dump(tm.source)
    module_code = compile(tm.source, f"<blocks:{code.label}>", "exec")
    return instantiate_blocks(code, module_code, tm.records, tm.const_values, tm.n)
