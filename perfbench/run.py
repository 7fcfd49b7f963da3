"""
Benchmark of the twostack package.

    python3 perfbench/run.py --workload perm-sweep --seed 1 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload, each in its own
interpreter.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Every output is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when any check failed.
Spans and the full result go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness  # noqa: E402
from perfbench.cli_session import CliSession  # noqa: E402
from perfbench.perm_sweep import PermSweep  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.tree_forest import TreeForest  # noqa: E402

WORKLOADS = {w.name: w for w in (PermSweep, TreeForest, CliSession)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_values(workload, passes, pkg, logs: list) -> dict:
    """Per-layer metrics from a traced run's passes and the workload's extra step."""
    extra_log = harness.PassLog(Tracer(True))
    logs.append(extra_log)
    extras = workload.extra(harness.fresh_package() if workload.fresh_import else pkg, extra_log)
    return workload.layer_metrics(passes, extras)


def measure(workload_cls, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One run of one workload: its result object plus what goes beside it."""
    workload = workload_cls(seed)
    # The oracle data lives for the whole run; freezing it keeps the
    # collector from rescanning it during every pass, which would charge the
    # benchmark's own memory to the package.
    gc.collect()
    gc.freeze()
    setup = []
    if trace:
        passes, pkg = harness.run_passes(workload, seconds, True)
    else:
        harness.measure_setup(1)  # the first start may compile the bytecode cache
        passes, pkg = harness.run_passes(
            workload, seconds, False,
            between=lambda: setup.extend(harness.measure_setup(harness.SETUP_PER_PASS)))
        setup += harness.measure_setup(max(harness.SETUP_SAMPLES - len(setup), 0))
    info = harness.stamp(workload.name, seed, seconds, trace)
    logs = [p.log for p in passes]
    if trace:
        values = {**harness.tracing_overhead(passes), **layer_values(workload, passes, pkg, logs)}
        info["tracing_overhead_ms"] = values["trace.overhead_ms"]
        info["self_ms_by_layer"] = harness.self_ms_by_layer(passes)
        # Layers this workload does not call are measured by one traced pass
        # of each other workload at toy sizes, so every run reports them.
        probed = {}
        for other in WORKLOADS.values():
            if other.name != workload.name:
                small = other.small(seed)
                small_passes, small_pkg = harness.run_passes(small, 0, True)
                logs += [p.log for p in small_passes]
                for name, value in layer_values(small, small_passes, small_pkg, logs).items():
                    probed.setdefault(name, value)
        info["probed"] = sorted(set(probed) - set(values))
        values = {**probed, **values}
        wanted = spec["per_layer"]
    else:
        values, notes = harness.end_to_end(passes, setup)
        info["tracing_overhead_ms"] = None
        info.update(notes)
        wanted = spec["end_to_end"]
    missing = sorted(m["name"] for m in wanted if m["name"] not in values)
    if missing:
        raise RuntimeError(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    info["failed_ratio"] = failed / attempted
    if hasattr(workload, "shares"):
        info["request_shares"] = workload.shares
    info["problems"] = [why for log in logs for why in log.problems][:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    spans = [log.tracer.spans for log in logs if log.tracer.enabled]
    path = harness.write_out(
        f"{workload.name}-seed{seed}-trace{trace}.json",
        {"stamp": info, "result": result, "spans": spans},
    )
    info["written_to"] = str(path.relative_to(ROOT))
    return {"result": result, "stamp": info}


def report(workload_name: str, run: dict) -> None:
    result, info = run["result"], run["stamp"]
    for name, metric in result["metrics"].items():
        probed = name in info.get("probed", ())
        note = "  (toy-size probe; this workload does not call it)" if probed else ""
        print(f"{workload_name} {name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{workload_name} failed_ratio {info['failed_ratio']:.6g} 1")
    if "latency_tail_percentile" in info:
        print(f"{workload_name} latency_tail_ms is p{info['latency_tail_percentile']} of "
              f"{info['latency_samples']} requests over {info['passes']} passes")
    for why in info["problems"]:
        print(f"{workload_name} FAILED {why}")
    print("stamp " + json.dumps(info, sort_keys=True))


def run_all(args) -> int:
    """Every workload in a fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "twostack" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/twostack package or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    report(args.workload, run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
