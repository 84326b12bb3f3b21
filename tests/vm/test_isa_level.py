"""Opcode-level VM tests: hand-written instruction sequences."""

import pytest

from repro.astnodes import CodeObject, Program, Quote
from repro.backend.codegen import CompiledProgram
from repro.config import CompilerConfig, CostModel
from repro.alloc import ProgramAllocation
from repro.core.registers import RegisterFile
from repro.runtime.values import SchemeError
from repro.vm.machine import Machine, VMError


def build(instructions, frame_size=4, config=None, extra_codes=()):
    """Assemble a runnable program from raw entry instructions."""
    config = config or CompilerConfig()
    entry = CodeObject("main", [], [], Quote(False))
    entry.instructions = [list(i) for i in instructions]
    entry.frame_size = frame_size
    codes = [entry, *extra_codes]
    program = Program(codes, entry)
    regfile = RegisterFile(config.num_arg_regs, config.num_temp_regs)
    allocation = ProgramAllocation(regfile)
    compiled = CompiledProgram.__new__(CompiledProgram)
    compiled.program = program
    compiled.allocation = allocation
    compiled.config = config
    compiled.regfile = regfile
    compiled.entry = entry
    return compiled


def run(instructions, **kw):
    machine = Machine(build(instructions, **kw))
    value = machine.run()
    return value, machine


RET, CP, RV = 0, 1, 2
S0, S1 = 3, 4


class TestDataMovement:
    def test_li_return(self):
        value, _ = run([("li", RV, 42), ("return",)])
        assert value == 42

    def test_mov(self):
        value, _ = run([("li", S0, 7), ("mov", RV, S0), ("return",)])
        assert value == 7

    def test_st_ld_roundtrip(self):
        value, m = run([
            ("li", S0, 99),
            ("st", 0, S0, "spill"),
            ("li", S0, 0),
            ("ld", RV, 0, "spill"),
            ("return",),
        ])
        assert value == 99
        assert m.counters.stack_writes == {"spill": 1}
        assert m.counters.stack_reads == {"spill": 1}

    def test_st_out_ld_out(self):
        value, _ = run([
            ("li", S0, 5),
            ("st_out", 0, S0, "arg"),
            ("ld_out", RV, 0, "temp"),
            ("return",),
        ])
        assert value == 5


class TestPrimAndBranches:
    def test_prim_with_registers_and_immediates(self):
        value, _ = run([
            ("li", S0, 40),
            ("prim", RV, "+", [S0, ("imm", 2)]),
            ("return",),
        ])
        assert value == 42

    def test_brf_taken_on_false(self):
        value, _ = run([
            ("li", S0, False),
            ("brf", S0, 4, None),
            ("li", RV, 1),
            ("return",),
            ("li", RV, 2),
            ("return",),
        ])
        assert value == 2

    def test_brf_falls_through_on_truthy(self):
        value, _ = run([
            ("li", S0, 0),  # 0 is true in Scheme
            ("brf", S0, 4, None),
            ("li", RV, 1),
            ("return",),
            ("li", RV, 2),
            ("return",),
        ])
        assert value == 1

    def test_brt_taken_on_truthy(self):
        value, _ = run([
            ("li", S0, 1),
            ("brt", S0, 4, None),
            ("li", RV, 1),
            ("return",),
            ("li", RV, 2),
            ("return",),
        ])
        assert value == 2

    def test_jmp(self):
        value, _ = run([
            ("jmp", 3),
            ("li", RV, 1),
            ("return",),
            ("li", RV, 9),
            ("return",),
        ])
        assert value == 9

    def test_prim_error_annotated_with_procedure(self):
        with pytest.raises(SchemeError, match=r"\(in main\)"):
            run([("prim", RV, "car", [("imm", 5)]), ("return",)])

    @pytest.mark.parametrize("vm_fast", [True, False], ids=["fast", "legacy"])
    def test_callee_prim_error_annotated_with_callee(self, vm_fast):
        callee = CodeObject("callee", [], [], Quote(False))
        callee.instructions = [("prim", RV, "car", [("imm", 5)]), ("return",)]
        compiled = build(
            [("clo_alloc", CP, callee, 0), ("call", 0), ("return",)],
            extra_codes=[callee],
        )
        with pytest.raises(SchemeError, match=r"\(in callee\)"):
            Machine(compiled, vm_fast=vm_fast).run()


class TestCallsAtIsaLevel:
    def make_callee(self, nparams, instructions):
        code = CodeObject("callee", [object()] * 0, [], Quote(False))
        code.params = [type("P", (), {})() for _ in range(nparams)]
        code.instructions = [list(i) for i in instructions]
        code.frame_size = 2
        return code

    def test_call_and_return(self):
        config = CompilerConfig()
        a0 = 6  # first arg register with 3 scratch regs
        callee = self.make_callee(1, [
            ("prim", RV, "+", [a0, ("imm", 1)]),
            ("return",),
        ])
        compiled = build(
            [
                ("clo_alloc", CP, callee, 0),
                ("li", a0, 41),
                ("call", 1),
                ("li", RET, None),  # restore the halt sentinel by hand
                ("return",),
            ],
            config=config,
            extra_codes=[callee],
        )
        machine = Machine(compiled)
        assert machine.run() == 42
        assert machine.counters.calls == 1

    def test_call_arity_mismatch(self):
        callee = self.make_callee(2, [("return",)])
        compiled = build(
            [
                ("clo_alloc", CP, callee, 0),
                ("call", 1),
                ("return",),
            ],
            extra_codes=[callee],
        )
        with pytest.raises(SchemeError, match="expected 2"):
            Machine(compiled).run()

    def test_call_non_procedure(self):
        compiled = build([
            ("li", CP, 5),
            ("call", 0),
            ("return",),
        ])
        with pytest.raises(SchemeError, match="non-procedure"):
            Machine(compiled).run()


class TestClosureOps:
    def test_closure_and_clo_ref(self):
        inner = CodeObject("inner", [], [], Quote(False))
        inner.instructions = [("clo_ref", RV, 0), ("return",)]
        inner.frame_size = 0
        value, _ = run(
            [
                ("li", S0, 77),
                ("closure", CP, inner, [S0]),
                ("call", 0),
                ("li", RET, None),
                ("return",),
            ],
            extra_codes=[inner],
        )
        assert value == 77

    def test_clo_alloc_and_set(self):
        inner = CodeObject("inner", [], [], Quote(False))
        inner.instructions = [("clo_ref", RV, 0), ("return",)]
        inner.frame_size = 0
        value, _ = run(
            [
                ("clo_alloc", S0, inner, 1),
                ("li", S1, 31),
                ("clo_set", S0, 0, S1),
                ("mov", CP, S0),
                ("call", 0),
                ("li", RET, None),
                ("return",),
            ],
            extra_codes=[inner],
        )
        assert value == 31


class TestCostAccounting:
    def test_load_latency_stalls_immediate_use(self):
        fast_cfg = CompilerConfig(cost_model=CostModel(load_latency=1))
        slow_cfg = CompilerConfig(cost_model=CostModel(load_latency=10))
        prog = [
            ("li", S0, 1),
            ("st", 0, S0, "spill"),
            ("ld", S0, 0, "spill"),
            ("prim", RV, "+", [S0, ("imm", 1)]),  # immediate use: stalls
            ("return",),
        ]
        _, fast = run(prog, config=fast_cfg)
        _, slow = run(prog, config=slow_cfg)
        assert slow.counters.cycles > fast.counters.cycles
        assert slow.counters.instructions == fast.counters.instructions

    def test_independent_work_hides_latency(self):
        cfg = CompilerConfig(cost_model=CostModel(load_latency=4))
        stalled = [
            ("li", S0, 1),
            ("st", 0, S0, "spill"),
            ("ld", S0, 0, "spill"),
            ("prim", RV, "+", [S0, ("imm", 1)]),
            ("return",),
        ]
        overlapped = [
            ("li", S0, 1),
            ("st", 0, S0, "spill"),
            ("ld", S0, 0, "spill"),
            ("li", S1, 0),  # independent fillers overlap the load
            ("li", S1, 0),
            ("li", S1, 0),
            ("prim", RV, "+", [S0, ("imm", 1)]),
            ("return",),
        ]
        _, a = run(stalled, config=cfg)
        _, b = run(overlapped, config=cfg)
        # three extra instructions, but not three extra cycles: the
        # fillers execute inside the load shadow
        assert b.counters.instructions == a.counters.instructions + 3
        assert b.counters.cycles <= a.counters.cycles + 1

    def test_instruction_budget_enforced(self):
        compiled = build([("jmp", 0)])
        machine = Machine(compiled, max_instructions=100)
        with pytest.raises(VMError, match="budget"):
            machine.run()
