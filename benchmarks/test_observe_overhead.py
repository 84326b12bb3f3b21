"""Observability must be free when off.

The guard compares the instrumented pipeline (``compile_source``, whose
every pass is wrapped in a — by default null — tracer span) against a
bare re-statement of the same passes with no tracer plumbing at all:
the pre-instrumentation baseline.  If the null tracer ever grows real
per-pass cost, this fails before a perf PR has to find it the hard way.
"""

import time

from benchmarks.conftest import print_block
from repro.backend.codegen import generate_program
from repro.benchsuite.programs import get_benchmark
from repro.config import CompilerConfig
from repro.alloc import allocate_program
from repro.frontend.analyze import check_scopes, mark_tail_calls
from repro.frontend.assignconvert import assignment_convert
from repro.frontend.closure import closure_convert
from repro.frontend.expand import expand_program
from repro.observe import NULL_TRACER, Tracer
from repro.pipeline import PRELUDE, compile_source, run_compiled
from repro.sexp.reader import read_all


def _bare_compile(source: str, config: CompilerConfig):
    """The compile pipeline with zero observability plumbing — the
    pre-instrumentation baseline."""
    forms = read_all(PRELUDE + "\n" + source)
    expr = expand_program(forms)
    expr = assignment_convert(expr)
    mark_tail_calls(expr)
    check_scopes(expr)
    program = closure_convert(expr)
    allocation = allocate_program(program, config)
    return generate_program(program, allocation, config)


def _best_of(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_null_tracer_compile_within_noise():
    source = get_benchmark("tak").source
    config = CompilerConfig()
    # Warm caches (imports, reader tables) before timing either side.
    for _ in range(2):
        _bare_compile(source, config)
        compile_source(source, config, tracer=NULL_TRACER)

    bare = _best_of(lambda: _bare_compile(source, config))
    instrumented = _best_of(
        lambda: compile_source(source, config, tracer=NULL_TRACER)
    )
    ratio = instrumented / bare if bare else 1.0
    print_block(
        "observe: null-tracer compile overhead",
        f"bare         {bare * 1e3:8.3f} ms\n"
        f"instrumented {instrumented * 1e3:8.3f} ms\n"
        f"ratio        {ratio:8.3f}x",
    )
    # Best-of-N wall clock wobbles; the null spans and the per-pass
    # CompileTimes bookkeeping must stay within noise (plus a small
    # absolute floor so sub-millisecond jitter cannot fail the guard).
    assert instrumented <= bare * 1.30 + 0.002, (
        f"null-tracer pipeline {ratio:.2f}x slower than bare passes"
    )


def test_null_tracer_vm_counters_identical():
    source = get_benchmark("tak").source.replace("(tak 18 12 6)", "(tak 12 8 4)")
    config = CompilerConfig()
    plain = run_compiled(compile_source(source, config))
    traced = run_compiled(
        compile_source(source, config, tracer=Tracer()), profile=True
    )
    assert plain.counters.as_dict() == traced.counters.as_dict()
    assert plain.value == traced.value


def test_disabled_registry_pipeline_within_noise():
    """With no exporter attached the default registry stays disabled and
    every instrumentation point short-circuits on one attribute test.
    The telemetry design budgets <2% for this; the assertion uses the
    same noise margin as the tracer guard above (best-of-N wall clock
    wobbles well past 2% on shared CI hardware)."""
    from repro.observe.metrics import REGISTRY

    was_enabled = REGISTRY.enabled
    REGISTRY.enabled = False
    try:
        families_before = set(REGISTRY.families)
        source = get_benchmark("tak").source
        config = CompilerConfig()
        for _ in range(2):
            _bare_compile(source, config)
            compile_source(source, config)

        bare = _best_of(lambda: _bare_compile(source, config))
        instrumented = _best_of(lambda: compile_source(source, config))
        ratio = instrumented / bare if bare else 1.0
        print_block(
            "observe: disabled-registry compile overhead",
            f"bare         {bare * 1e3:8.3f} ms\n"
            f"instrumented {instrumented * 1e3:8.3f} ms\n"
            f"ratio        {ratio:8.3f}x",
        )
        assert instrumented <= bare * 1.30 + 0.002, (
            f"disabled-registry pipeline {ratio:.2f}x slower than bare passes"
        )
        # And a disabled registry never accretes families from a run.
        assert set(REGISTRY.families) == families_before
    finally:
        REGISTRY.enabled = was_enabled


def test_enabled_registry_observes_run_metrics():
    """The flip side of the null-overhead guard: enabling the registry
    actually captures the VM and allocator distributions."""
    from repro.observe.metrics import REGISTRY

    source = get_benchmark("tak").source.replace("(tak 18 12 6)", "(tak 12 8 4)")
    config = CompilerConfig()
    saved = REGISTRY.enabled, dict(REGISTRY.families)
    REGISTRY.families.clear()
    REGISTRY.enabled = True
    try:
        run_compiled(compile_source(source, config))
        snap = REGISTRY.snapshot()
        assert snap["counters"]["repro_vm_runs"] == 1
        assert sum(snap["histograms"]["repro_vm_instructions"]["counts"]) == 1
        assert sum(snap["histograms"]["repro_shuffle_size"]["counts"]) > 0
    finally:
        REGISTRY.enabled = saved[0]
        REGISTRY.families.clear()
        REGISTRY.families.update(saved[1])


def _serve_batch(service, requests):
    responses = service.run(requests)
    assert all(r.ok for r in responses)


def test_request_tracing_overhead_on_serve_path(tmp_path):
    """Tracing off must be free on the serve path, and 1% sampling must
    stay within the same noise envelope — the tail sampler means 99% of
    requests pay only span bookkeeping, never store writes."""
    from repro.observe.reqtrace import build_reqtracer
    from repro.serve.service import BatchService, Request

    source = get_benchmark("tak").source.replace("(tak 18 12 6)", "(tak 8 5 2)")
    requests = [Request(op="compile", source=source, id=i) for i in range(8)]

    bare_svc = BatchService(jobs=1, cache=False)
    off_svc = BatchService(jobs=1, cache=False, reqtracer=None)
    sampled_svc = BatchService(
        jobs=1, cache=False,
        reqtracer=build_reqtracer(
            str(tmp_path / "spans"), sample=0.01, service="bench", seed=7
        ),
    )
    for _ in range(2):  # warm imports/reader tables before timing
        _serve_batch(bare_svc, requests)
        _serve_batch(off_svc, requests)
        _serve_batch(sampled_svc, requests)

    bare = _best_of(lambda: _serve_batch(bare_svc, requests))
    off = _best_of(lambda: _serve_batch(off_svc, requests))
    sampled = _best_of(lambda: _serve_batch(sampled_svc, requests))
    print_block(
        "observe: serve-path request-tracing overhead",
        f"no tracer      {bare * 1e3:8.3f} ms\n"
        f"tracing off    {off * 1e3:8.3f} ms ({off / bare:5.3f}x)\n"
        f"1% sampling    {sampled * 1e3:8.3f} ms ({sampled / bare:5.3f}x)",
    )
    # The design budget is <2%; the margin is the same noise envelope
    # the compile-path guards use (best-of-N wobbles past 2% on CI).
    assert off <= bare * 1.30 + 0.002, (
        f"tracing off costs {off / bare:.2f}x on the serve path"
    )
    assert sampled <= bare * 1.30 + 0.002, (
        f"1% sampling costs {sampled / bare:.2f}x on the serve path"
    )


def test_flight_recorder_record_is_cheap():
    """One record() is a deque append; 10k of them must be far under a
    millisecond each even on loaded CI machines."""
    from repro.observe.recorder import FlightRecorder

    recorder = FlightRecorder(capacity=512)
    t0 = time.perf_counter()
    for i in range(10_000):
        recorder.record("tick", i=i)
    elapsed = time.perf_counter() - t0
    print_block(
        "observe: flight recorder throughput",
        f"10k records in {elapsed * 1e3:.2f} ms "
        f"({elapsed / 10_000 * 1e9:.0f} ns/event)",
    )
    assert elapsed < 0.5
    assert len(recorder) == 512
