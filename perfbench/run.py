"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-event --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that yields the per-layer metrics (layers a workload bypasses
read 0) and writes its spans to ``.perfbench/`` under the root.  Every
workload checks its outputs; a failed check prints ``"correct": false``
and exits with code 1.  Without the ``src/repro`` tree the command exits
with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "pbs-I": "perfbench.pbs",
    "serve-event": "perfbench.serve_event",
    "wire-live": "perfbench.wire_live",
    "overload-replay": "perfbench.overload_replay",
}


def catalogue(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order (per-layer if ``trace``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def select_metrics(result, trace: bool) -> dict[str, tuple[float, str]]:
    """The run's reported metrics, in catalogue order, units checked.

    Untraced runs must have measured every end-to-end metric; traced runs
    report every per-layer metric, with 0 for layers the workload bypasses.
    """
    selected = {}
    for name, unit in catalogue(trace).items():
        if name not in result.metrics:
            if not trace:
                raise KeyError(f"workload did not measure end-to-end metric {name!r}")
            selected[name] = (0.0, unit)
            continue
        value, measured_unit = result.metrics[name]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit!r}, catalogue says {unit!r}")
        selected[name] = (value, unit)
    return selected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))
    result.metrics = select_metrics(result, bool(args.trace))
    if result.spans is not None:
        result.spans.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for note in result.notes:
        print(note)
    for name, held in sorted(result.checks.items()):
        print(f"check {name}: {'ok' if held else 'FAILED'}")
    print(result.to_json())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
