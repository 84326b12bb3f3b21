"""Reference outputs for every benchmark program, from the interpreter.

``references.json`` holds, for each benchsuite program the workloads
use, the ``write`` rendering of its value and the full text of its
output port, as produced by :class:`repro.interp.Interpreter` — the
compiler's independent semantic oracle, never the compiler under test.
Each entry also records the SHA-256 of the program source, so a changed
program is reported as a stale reference instead of a wrong output.

Interpreting all 26 programs takes about 25 s, which is why the
references are committed rather than computed during set-up.

    python3 perfbench/references.py --check   # regenerate and diff (exit 1 on drift)
    python3 perfbench/references.py --write   # rewrite references.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "references.json")


class StaleReference(Exception):
    """A program's source no longer matches its committed reference."""


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def interpret(source: str) -> Dict[str, str]:
    """Value and output of *source* under the reference interpreter."""
    from repro.interp.interpreter import Interpreter
    from repro.sexp.writer import write_datum

    interp = Interpreter()
    value = interp.run_source(source)
    return {"value": write_datum(value), "output": interp.port.contents()}


def generate() -> Dict[str, Dict[str, str]]:
    """Interpret every benchsuite program (the workloads' program set)."""
    from repro.benchsuite.programs import BENCHMARKS

    programs = {}
    for name, bench in BENCHMARKS.items():
        entry = {"source_sha256": source_digest(bench.source)}
        entry.update(interpret(bench.source))
        programs[name] = entry
    return programs


def load() -> Dict[str, Dict[str, str]]:
    """The committed references, checked against the current sources.

    Returns ``{name: {"source": ..., "value": ..., "output": ...}}``.
    """
    from repro.benchsuite.programs import BENCHMARKS

    with open(PATH) as handle:
        committed = json.load(handle)["programs"]
    programs = {}
    for name, entry in committed.items():
        bench = BENCHMARKS.get(name)
        if bench is None:
            raise StaleReference(f"{name}: no such benchsuite program")
        if source_digest(bench.source) != entry["source_sha256"]:
            raise StaleReference(
                f"{name}: source changed since its reference was generated "
                "(regenerate with: python3 perfbench/references.py --write)"
            )
        programs[name] = {
            "source": bench.source,
            "value": entry["value"],
            "output": entry["output"],
        }
    return programs


def _dump(programs) -> str:
    doc = {"generator": "repro.interp.Interpreter", "programs": programs}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="regenerate from the interpreter and diff")
    mode.add_argument("--write", action="store_true",
                      help="rewrite references.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    text = _dump(generate())
    if args.write:
        with open(PATH, "w") as handle:
            handle.write(text)
        print(f"wrote {PATH}")
        return 0
    with open(PATH) as handle:
        committed = json.load(handle)["programs"]
    fresh = json.loads(text)["programs"]
    drift = sorted(
        name for name in set(committed) | set(fresh)
        if committed.get(name) != fresh.get(name)
    )
    for name in drift:
        print(f"{name}: committed {committed.get(name)!r} != "
              f"interpreter {fresh.get(name)!r}")
    print(f"{len(fresh)} programs, {len(drift)} differ")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
