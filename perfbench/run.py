"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload djia_repeat --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it
holds every per-layer metric, and the run leaves its spans
(``trace.jsonl``), layer table (``layers.json``) and cProfile cross-check
(``profile.json``) under ``.perfbench/out/<workload>/seed-<n>/``.  A
human-readable table goes to standard error.  Any wrong result makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Units of the raw whole-run figures printed beside the gated ones.
UNGATED_UNITS = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "queries_per_s": "1/s",
    "rows_per_s": "1/s", "reference_loop_ms": "ms", "reference_write_ms": "ms",
}


#: String hashing is randomised per process, and with it the layout of
#: the program's dicts and sets: on ``djia_repeat`` that moved the same
#: run's figures by up to 6%.  Every run hashes alike instead.
HASH_SEED = "0"


def _bootstrap() -> dict:
    """Put the checkout's ``src/`` first on the path; return BENCHMARK.json.

    A process started without ``PYTHONHASHSEED`` set to
    :data:`HASH_SEED` replaces itself with one that has it (and so does
    the ``repro serve`` process it starts, which inherits it).
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = _bootstrap()
    from repro.data.djia import DEFAULT_SEED

    from perfbench import inproc, serve_mix, stream

    workloads = {
        "djia_repeat": inproc.djia_repeat,
        "panel_append": inproc.panel_append,
        "serve_mix": serve_mix.serve_mix,
        "stream_checkpoint": stream.stream_checkpoint,
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input for the smoke tests",
    )
    args = parser.parse_args(argv)

    outcome = workloads[args.workload](args.seed, args.seconds, bool(args.trace), args.scale)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif args.trace:
            value = 0.0  # the layer does no work on this workload
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    spec_better = {entry["name"]: f"{entry['better']} is better" for entry in declared}
    correct = outcome.failed == 0
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{outcome.attempted} checked, {outcome.failed} failed "
        f"(failed_frac {outcome.failed / max(1, outcome.attempted):.4f})",
        file=sys.stderr,
    )
    for name, value in outcome.metrics.items():
        unit = metrics[name]["unit"] if name in metrics else UNGATED_UNITS.get(name, "")
        note = spec_better.get(name, "raw, whole run, not gated")
        print(f"  {name:<32} {value:>14.4f} {unit:<9} {note}", file=sys.stderr)
    for error in outcome.errors:
        print(f"  MISMATCH {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
