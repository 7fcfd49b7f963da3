"""
Benchmark for the ``twostack`` package: three workloads, every output
checked against oracles written here, and a traced run for per-layer
timings.  Run it with ``python3 perfbench/run.py --help``.
"""
