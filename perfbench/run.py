"""The repository benchmark: run one workload, check every output, and
print every metric named in ``BENCHMARK.json`` with its unit.

    python3 perfbench/run.py --workload suite-run --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``suite-run``      ``pipeline.run_source`` over the 26 benchsuite programs
* ``suite-compile``  cold ``pipeline.compile_source`` over the same programs
* ``farm-mixed``     ``repro serve --tcp`` under two closed-loop clients

Every value and every output is compared exactly with references that
the independent interpreter produced (``references.json``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics, computed from
spans recorded around the calls into each layer.  The suites run each
operation untraced and traced in turn, which also gives the tracing
overhead; the farm's spans cost the daemon nothing.  The spans are
written to ``.perfbench-work/spans-<workload>.jsonl``.

The exit status is 0 only when every operation succeeded and matched
its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("suite-run", "suite-compile", "farm-mixed")


def clean_environment(workdir: str) -> dict:
    """Drop every ``REPRO_*`` setting (trace dirs, metrics paths, cache
    dirs) and point the default cache location into *workdir*, so no
    compiled program from another commit can be served to this run.
    Returns the environment for child processes."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = os.path.join(workdir, "xdg")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (the daemon and its workers), in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_workload(args, spec: dict, workdir: str) -> dict:
    env = clean_environment(workdir)
    sys.path.insert(0, SRC)

    import references
    from harness import Tally, median, time_import_setup

    refs = references.load()
    with open(os.path.join(ROOT, "BENCH_vm.json")) as handle:
        bench_vm = json.load(handle)
    tally = Tally()
    trace = bool(args.trace)
    if args.workload == "farm-mixed":
        from farm import FarmWorkload

        workload = FarmWorkload(ROOT, env, workdir, refs, bench_vm, tally,
                                args.seed, args.seconds, trace)
        workload.run()
        setup_times = workload.setup_times
    else:
        from suites import SuiteWorkload

        workload = SuiteWorkload(args.workload, refs, bench_vm, tally,
                                 args.seed, args.seconds, trace)
        setup_times = time_import_setup(env)
        workload.run()

    from repro.benchsuite import runner

    tally.check(getattr(runner, "_compile_cache", None) is None,
                "the process-wide shared compile cache was used")

    if trace:
        declared = spec["per_layer"]
        values = workload.per_layer()
        values["failed_frac"] = tally.failed / max(1, tally.attempted)
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"spans-{args.workload}.jsonl"), "w") as out:
            for row in workload.spans_out:
                out.write(json.dumps(row) + "\n")
    else:
        declared = spec["end_to_end"]
        values = workload.end_to_end()
        values["setup_s"] = median(setup_times.rescaled())
        values["peak_rss_mb"] = peak_rss_mb()
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    if not trace:
        raw = workload.raw() if hasattr(workload, "raw") else {}
        raw["setup_s"] = median(setup_times.raw)
        raw = ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        print(f"perfbench: as measured, not rescaled: {raw}", file=sys.stderr)
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no compiler sources at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        result = run_workload(args, spec, workdir)
    except Exception:  # no result line: the run itself broke
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
