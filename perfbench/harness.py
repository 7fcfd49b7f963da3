"""
The pass loop shared by every workload: fresh imports of the package,
timing and checking of each call, set-up time, the result stamp and the
reduction of passes to metrics.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns

from .spans import Tracer, self_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
LAYERS = ("permutations", "counting", "trees", "verify", "cli", "bench")
# Set-up is sampled a few times after each untraced pass, so that the samples
# spread over the whole run rather than one moment of it, and topped up to at
# least SETUP_SAMPLES at the end.
SETUP_PER_PASS = 3
SETUP_SAMPLES = 15
# Latency percentiles pool the requests of this many passes (the last ones),
# so the percentile with ten requests above it falls on the same request
# class however many passes fit in a run.  With six, that request sits inside
# a group of like requests in every workload, not at the edge of one.
LATENCY_PASSES = 6

# End-to-end times are CPU time, of this thread plus that of the child
# processes a request started and reaped (the jobs=2 pool), scaled to a
# reference speed.  The 2-vCPU VM the bounds were set on varies in two ways,
# under load from outside the machine:
# - for seconds at a time, the hypervisor takes up to a fifth of a vCPU away
#   (steal time).  Wall time counts that loss; CPU time does not.
# - for minutes at a time, the vCPU runs a quarter or more slower or faster.
#   CPU time counts that too.  So before every request the benchmark times a
#   fixed kernel that calls nothing in the package, in CPU time, and scales
#   the pass's times by REFERENCE_NS / (the pass's median kernel time).
# The kernel allocates, sorts and hashes small nested tuples; the package's
# tree, permutation and big-integer calls slow by close to the same factor
# as it does.  Wall times are kept for spans and per-layer metrics.
REFERENCE_NS = 500_000  # about the kernel's CPU time on that VM; sets the unit
_KERNEL_SRC = """
def reference_kernel():
    items = [(i % 7, (i % 5, (i % 3,)), i) for i in range(400)]
    items.sort()
    index = {item: i for i, item in enumerate(items)}
    return len(index)
"""
_kernel_globals: dict = {}
exec(_KERNEL_SRC, _kernel_globals)  # the set-up children run the same source
reference_kernel = _kernel_globals["reference_kernel"]

# Imports nothing but ``time`` before timing the package's import, so that
# no module the package needs is loaded ahead of it.
_SETUP_CODE = _KERNEL_SRC + """
import time
kernel = []
for _ in range(5):
    t = time.thread_time_ns()
    reference_kernel()
    kernel.append(time.thread_time_ns() - t)
t = time.process_time()
import twostack.cli
twostack.cli.build_parser()
print(time.process_time() - t, sorted(kernel)[2])
"""


def cpu_ns() -> int:
    """CPU time of this thread and of every child process reaped so far, in ns."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return thread_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def reference_ns() -> int:
    """
    CPU time of the faster of two kernel runs; the first may find its code
    and data out of cache.
    """
    times = []
    for _ in range(2):
        start = thread_time_ns()
        reference_kernel()
        times.append(thread_time_ns() - start)
    return min(times)


def fresh_package():
    """
    Import ``twostack`` anew from the checkout's ``src/``, dropping any copy
    imported before, so that its memo tables start empty as they do in a
    new ``twostack`` process.
    """
    for name in [m for m in sys.modules if m == "twostack" or m.startswith("twostack.")]:
        del sys.modules[name]
    gc.collect()
    pkg = importlib.import_module("twostack")
    importlib.import_module("twostack.cli")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported twostack from {pkg.__file__}, not from {SRC}")
    return pkg


@dataclass
class Call:
    """One timed request: ``count`` calls into the package."""

    name: str
    request: object
    ns: int  # wall time
    cpu_ns: int
    count: int
    ref_ns: int  # the reference kernel, run just before


@dataclass
class PassLog:
    """Every request one pass made to the package, and which failed."""

    tracer: Tracer
    calls: list[Call] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def op(self, name, fn, check, count=1, request=None):
        """
        Time ``fn()`` as one request made of ``count`` calls into the
        package, then run ``check(result)``, which returns how many of those
        calls were wrong.  The request fails if any was wrong or if either
        function raised.
        """
        ref = reference_ns()
        cpu = cpu_ns()
        start = perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:  # a crash in the package is a failed request, not a crashed run
            self._record(name, request, start, perf_counter_ns(), cpu_ns() - cpu, count, ref)
            self.fail(f"{name} {request!r}: {exc!r}")
            return None
        self._record(name, request, start, perf_counter_ns(), cpu_ns() - cpu, count, ref)
        try:
            wrong = check(out)
            why = f"{wrong} of {count} calls wrong"
        except Exception as exc:  # malformed output, e.g. the wrong type
            wrong, why = count, f"check raised {exc!r}"
        if wrong:
            self.fail(f"{name} {request!r}: {why}")
        return out

    def sweep(self, name, fn, inputs, expected, view=None, chunk=1008):
        """
        Apply ``fn`` to every input, ``chunk`` inputs per request, and
        compare each result, passed through ``view``, with ``expected``.
        """
        view = view or (lambda out: out)
        for at in range(0, len(inputs), chunk):
            part, want = inputs[at:at + chunk], expected[at:at + chunk]
            self.op(name, lambda: [fn(x) for x in part],
                    lambda out: mismatches([view(o) for o in out], want), len(part), at)

    def _record(self, name, request, start, end, cpu, count, ref):
        self.attempted += 1
        self.calls.append(Call(name, request, end - start, cpu, count, ref))
        self.tracer.add(name, start, end, request)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)


@dataclass
class Pass:
    traced: bool
    cpu_ns: int
    log: PassLog

    def self_ns(self) -> dict[str, int]:
        return self_by_name(self.log.tracer.spans)

    def calls_named(self, name: str) -> int:
        return sum(c.count for c in self.log.calls if c.name == name)

    def scale(self) -> float:
        """REFERENCE_NS over the pass's median kernel time."""
        return REFERENCE_NS / statistics.median(c.ref_ns for c in self.log.calls)

    def request_ns(self) -> list[float]:
        """Each request's CPU time in ns at the reference speed."""
        scale = self.scale()
        return [c.cpu_ns * scale for c in self.log.calls]

def mismatches(actual, expected) -> int:
    """Positions where two equal-length sequences differ, plus any length gap."""
    return sum(a != e for a, e in zip(actual, expected)) + abs(len(actual) - len(expected))


def latency_summary(samples_ns) -> dict:
    """
    Median, and the highest percentile with at least ten samples above it,
    of request times in ns, in ms.
    """
    ordered = sorted(samples_ns)
    total = len(ordered)
    tail_rank = max(total - 11, 0)
    return {
        "p50_ms": statistics.median(ordered) / 1e6,
        "tail_ms": ordered[tail_rank] / 1e6,
        "tail_percentile": round(100 * (tail_rank + 1) / total, 2),
        "samples": total,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(samples: int) -> list[float]:
    """
    CPU seconds from the start of ``import twostack`` until
    ``cli.build_parser()`` returns, each in a new interpreter, at the
    reference speed (the kernel timed in the same interpreter just before).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        cpu, kernel = map(float, done.stdout.split())
        times.append(cpu * REFERENCE_NS / kernel)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB


def src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_passes(workload, seconds: float, traced_run: bool, between=None):
    """
    Repeat the workload's pass until ``seconds`` have gone by.  A traced
    run alternates untraced and traced passes and makes at least one of
    each after the first, untraced one.  Workloads with ``fresh_import`` import the package anew before
    every pass; the others keep one import for the whole session.
    ``between()``, if given, runs after each pass, outside its time.
    Returns the passes and the package the last one used.
    """
    passes: list[Pass] = []
    pkg = None
    deadline = perf_counter() + seconds
    while True:
        traced = traced_run and len(passes) % 2 == 1
        if pkg is None or workload.fresh_import:
            pkg = fresh_package()
        log = PassLog(Tracer(traced))
        start = cpu_ns()
        with log.tracer.span("bench.pass"):
            workload.run_pass(pkg, log)
        passes.append(Pass(traced, cpu_ns() - start, log))
        if between is not None:
            between()
        if perf_counter() >= deadline and len(passes) >= (3 if traced_run else 1):
            return passes, pkg


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """
    End-to-end values from the untraced passes, and notes that go with
    them.  A pass's time is the sum of its requests' CPU times at the
    reference speed: the time spent in the package, without the
    benchmark's checks and without the kernel.
    """
    plain = [p for p in passes if not p.traced]
    scaled = [p.request_ns() for p in plain]
    latency = latency_summary([ns for requests in scaled[-LATENCY_PASSES:] for ns in requests])
    values = {
        "setup_s": median(setup),
        "wall_s": median([sum(requests) / 1e9 for requests in scaled]),
        "requests_per_s": sum(map(len, scaled)) / (sum(map(sum, scaled)) / 1e9),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "passes": len(plain),
        "latency_passes": min(len(plain), LATENCY_PASSES),
        "latency_tail_percentile": latency["tail_percentile"],
        "latency_samples": latency["samples"],
        "reference_ns": REFERENCE_NS,
        "reference_kernel_median_ns": median([c.ref_ns for p in plain for c in p.log.calls]),
        "unscaled_cpu_s": median([sum(c.cpu_ns for c in p.log.calls) / 1e9 for p in plain]),
        "elapsed_wall_s": median([sum(c.ns for c in p.log.calls) / 1e9 for p in plain]),
        "setup_samples": len(setup),
    }
    return values, notes


def tracing_overhead(passes: list[Pass]) -> dict:
    """
    Median CPU time of a traced pass minus that of an untraced one, at the
    reference speed; whole passes, checks included.  The first pass is left
    out: it also pays for the process's warm-up (memory the allocator asks the
    system for, caches filled for the first time), and it is never traced.
    """
    passes = passes[1:]
    plain = median([p.cpu_ns * p.scale() for p in passes if not p.traced])
    traced = median([p.cpu_ns * p.scale() for p in passes if p.traced])
    return {
        "trace.overhead_ms": (traced - plain) / 1e6,
        "trace.overhead_share": (traced - plain) / plain,
    }


def self_ms_by_layer(passes: list[Pass]) -> dict:
    """Median over traced passes of the self time spent in each layer's spans."""
    return {
        layer: per_pass_median(passes, lambda p: sum(
            ns for name, ns in p.self_ns().items() if name.split(".")[0] == layer) / 1e6)
        for layer in LAYERS
    }


def per_pass_median(passes: list[Pass], value_of) -> float:
    """Median over traced passes of ``value_of(pass)``, skipping passes that give None."""
    values = [v for v in (value_of(p) for p in passes if p.traced) if v is not None]
    return median(values)


def stamp(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        **src_facts(),
    }


def write_out(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, default=str) + "\n")
    return path
