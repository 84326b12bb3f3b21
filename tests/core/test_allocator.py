"""Allocator orchestration tests."""


from repro.astnodes import Call, If, walk
from repro.config import CompilerConfig
from repro.alloc import allocate_program
from repro.frontend.analyze import check_scopes, mark_tail_calls
from repro.frontend.assignconvert import assignment_convert
from repro.frontend.closure import closure_convert
from repro.frontend.expand import expand_program
from repro.sexp.reader import read_all

TAK = """
(define (tak x y z)
  (if (not (< y x)) z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(tak 8 4 2)
"""


def allocated(text, **cfg):
    expr = assignment_convert(expand_program(read_all(text)))
    mark_tail_calls(expr)
    check_scopes(expr)
    program = closure_convert(expr)
    allocation = allocate_program(program, CompilerConfig(**cfg))
    return program, allocation


class TestOrchestration:
    def test_every_code_allocated(self):
        program, allocation = allocated(TAK)
        for code in program.codes:
            assert allocation.alloc_for(code) is not None
            assert allocation.analysis_for(code) is not None

    def test_every_call_planned(self):
        program, allocation = allocated(TAK)
        for code in program.codes:
            for node in walk(code.body):
                if isinstance(node, Call):
                    assert node.shuffle_plan is not None

    def test_pass_times_recorded(self):
        program, allocation = allocated(TAK)
        for phase in ("liveness", "save-placement", "restore-placement", "shuffle"):
            assert allocation.pass_times[phase] >= 0.0
        assert sum(allocation.pass_times.values()) > 0.0

    def test_regfile_matches_config(self):
        _, allocation = allocated(TAK, num_arg_regs=2, num_temp_regs=3)
        assert allocation.regfile.num_arg_regs == 2
        assert allocation.regfile.num_temp_regs == 3

    def test_callee_mode_marks_temps(self):
        _, allocation = allocated(TAK, save_convention="callee")
        assert all(r.callee_save for r in allocation.regfile.temp_regs)


class TestBranchPredictionAnnotation:
    def test_annotated_when_enabled(self):
        program, _ = allocated(TAK, branch_prediction="static-calls")
        tak = next(c for c in program.codes if c.name == "tak")
        ifs = [n for n in walk(tak.body) if isinstance(n, If)]
        # tak's branch: then = leaf (no calls), else = calls -> predict then
        assert ifs[0].prediction == "then"

    def test_not_annotated_by_default(self):
        program, _ = allocated(TAK)
        tak = next(c for c in program.codes if c.name == "tak")
        ifs = [n for n in walk(tak.body) if isinstance(n, If)]
        assert all(i.prediction is None for i in ifs)

    def test_fallthrough_mode_not_annotated(self):
        program, _ = allocated(TAK, branch_prediction="fallthrough")
        tak = next(c for c in program.codes if c.name == "tak")
        ifs = [n for n in walk(tak.body) if isinstance(n, If)]
        assert all(i.prediction is None for i in ifs)

    def test_both_branches_call_no_prediction(self):
        src = (
            "(define (g n) n)"
            "(define (f p x) (+ 1 (if p (g x) (g (+ x 1)))))"
            "(f #t 1)"
        )
        program, _ = allocated(src, branch_prediction="static-calls")
        f = next(c for c in program.codes if c.name == "f")
        ifs = [n for n in walk(f.body) if isinstance(n, If)]
        assert ifs[0].prediction is None
