"""
Before/after timings of the tree layer, written as a BENCH_*.json file.

    python3 benchmarks/tree_layer.py --before OLD/src --after src --out BENCH_3.json

``--before`` and ``--after`` are two source directories that each hold a
``twostack`` package, such as an unpacked parent commit and the working
tree.  Every sample runs in a fresh interpreter that imports the package
from one of them, so every count table starts cold.  The two sides take
turns; each measurement gets up to five samples a side, fewer once a side
has spent a minute on it, and the file records every sample and the
median.  Times are wall-clock milliseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SAMPLES = 5
SIDE_BUDGET_S = 60.0


def _row(n):
    from twostack.trees import count_trees

    return lambda: [count_trees(n, k) for k in range(1, n + 1)]


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return (time.perf_counter() - start) * 1e3


def _first_tree() -> float:
    from twostack.trees import enumerate_trees

    return _timed(lambda: next(iter(enumerate_trees(10))))


def _stream() -> float:
    from twostack.trees import enumerate_trees

    return _timed(lambda: sum(1 for _ in enumerate_trees(10)))


def _stream_peak() -> float:
    from twostack.trees import enumerate_trees

    tracemalloc.start()
    sum(1 for _ in enumerate_trees(10))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1024


def _joint() -> float:
    from twostack.counting import joint_distribution_trees

    return _timed(lambda: joint_distribution_trees(9))


#: name -> (unit, what one sample measures)
MEASURES = {
    "count_trees.row_18": ("ms", lambda: _timed(_row(18))),
    "count_trees.row_30": ("ms", lambda: _timed(_row(30))),
    "count_trees.row_40": ("ms", lambda: _timed(_row(40))),
    "enumerate_trees.10.first_tree": ("ms", _first_tree),
    "enumerate_trees.10.full_stream": ("ms", _stream),
    "enumerate_trees.10.tracemalloc_peak": ("KiB", _stream_peak),
    "joint_distribution_trees.9": ("ms", _joint),
}


def _sample(src: str, name: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--measure", name],
        env=env, check=True, capture_output=True, text=True,
    )
    return float(out.stdout)


def _src_lines(src: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in Path(src, "twostack").glob("*.py"))


def compare(before: str, after: str) -> dict:
    measures = {}
    for name, (unit, _) in MEASURES.items():
        samples = {"before": [], "after": []}
        spent = {"before": 0.0, "after": 0.0}
        for rep in range(SAMPLES):
            sides = ("before", "after") if rep % 2 == 0 else ("after", "before")
            for side in sides:
                if spent[side] > SIDE_BUDGET_S:
                    continue
                start = time.perf_counter()
                samples[side].append(_sample(before if side == "before" else after, name))
                spent[side] += time.perf_counter() - start
        measures[name] = {
            "unit": unit,
            "before": statistics.median(samples["before"]),
            "after": statistics.median(samples["after"]),
            "before_samples": samples["before"],
            "after_samples": samples["after"],
        }
        print(name, measures[name]["before"], "->", measures[name]["after"], unit, flush=True)
    return {
        "command": "python3 benchmarks/tree_layer.py --before OLD/src --after src",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "src_lines": {"before": _src_lines(before), "after": _src_lines(after)},
        "measures": measures,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--before", help="source directory of the old package")
    parser.add_argument("--after", help="source directory of the new package")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--measure", choices=MEASURES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(MEASURES[args.measure][1]())
        return
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")
    report = compare(args.before, args.after)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
