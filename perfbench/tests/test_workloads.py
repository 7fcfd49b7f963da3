"""Each workload at toy sizes: real answers pass, planted wrong ones count as failed,
and every metric BENCHMARK.json names comes out with its unit."""

import json
import types

import pytest

from perfbench import cli_session, harness
from perfbench.cli_session import CliSession
from perfbench.perm_sweep import PermSweep
from perfbench.run import measure
from perfbench.spans import Tracer
from perfbench.tree_forest import TreeForest

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

WORKLOADS = {w.name: w.small for w in (PermSweep, TreeForest, CliSession)}

#: every metric the benchmark's definition names
DEFINED_END_TO_END = {
    "setup_s": "s", "wall_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}
DEFINED_PER_LAYER = [
    "permutations.stack_sort.ns_per_call", "permutations.is_t_stack_sortable.ns_per_call",
    "permutations.statistics.ns_per_call", "permutations.bijection.ns_per_call",
    "permutations.contains_pattern.ns_per_call", "permutations.contains_pattern.long_ms",
    "counting.brute_force_w.ms", "counting.brute_force_w.survivors",
    "counting.brute_force_w.jobs2_ms", "counting.brute_force_w.jobs2_speedup",
    "counting.joint_distribution_perms.ms", "counting.joint_distribution_trees.ms",
    "counting.w_table.ms", "counting.w_formula.us_per_call", "trees.count_trees.row_ms",
    "trees.enumerate_trees.first_ms", "trees.enumerate_trees.trees_per_s",
    "trees.enumerate_trees.peak_mb", "trees.roundtrip.us_per_tree", "cli.self_ms",
    "cli.rejected", "trace.overhead_ms",
] + [f"verify.run_suite.{s}.{m}" for s in (
    "catalan", "formula-vs-brute", "total", "lemma1", "tree-vs-perm", "joint-rl",
    "symmetry", "unimodality", "map-substitution") for m in ("ms", "checks")
] + [f"cli.main.{c}.p50_ms" for c in cli_session.COMMANDS]


def one_pass(workload, pkg):
    log = harness.PassLog(Tracer(False))
    workload.run_pass(pkg, log)
    return log


def with_override(pkg, module, name, fn):
    """A stand-in for the package with one function replaced."""
    parts = {m: getattr(pkg, m) for m in ("permutations", "counting", "trees", "verify", "cli")}
    parts[module] = types.SimpleNamespace(**{**vars(parts[module]), name: fn})
    return types.SimpleNamespace(**parts)


@pytest.fixture(scope="module")
def pkg():
    return harness.fresh_package()


@pytest.mark.parametrize("name", WORKLOADS)
def test_real_package_passes_every_check(name, pkg):
    log = one_pass(WORKLOADS[name](3), pkg)
    assert log.failed == 0, log.problems
    assert log.attempted > 0


def test_wrong_stack_sort_is_counted(pkg):
    real = pkg.permutations.stack_sort

    def wrong(p):
        out = real(p)
        return out[::-1] if p == (2, 1, 3, 5, 4) else out

    fake = with_override(pkg, "permutations", "stack_sort", wrong)
    log = one_pass(WORKLOADS["perm-sweep"](3), fake)
    assert log.failed == 1


def test_wrong_tree_count_is_counted(pkg):
    real = pkg.trees.count_trees
    fake = with_override(pkg, "trees", "count_trees", lambda n, k: real(n, k) + (k == 2))
    assert one_pass(WORKLOADS["tree-forest"](3), fake).failed == 1


def test_crash_in_the_package_is_counted(pkg):
    def boom(n):
        raise RuntimeError("boom")

    fake = with_override(pkg, "counting", "joint_distribution_trees", boom)
    log = one_pass(WORKLOADS["tree-forest"](3), fake)
    assert log.failed == 1 and "boom" in log.problems[0]


def test_wrong_cli_output_and_exit_code_are_counted(pkg):
    real = pkg.cli.main

    def main(argv):
        if argv[0] == "stats":
            print("descents: -1")
            return 0
        if argv[0] == "sort" and argv[1] == "1 2 2":
            return 0
        return real(argv)

    session = CliSession.small(3)
    wrong = sum(r.command == "stats" for r in session.script) + sum(
        r.argv[:2] == ["sort", "1 2 2"] for r in session.script)
    log = one_pass(session, with_override(pkg, "cli", "main", main))
    assert log.failed == wrong >= 1


def test_suite_that_does_less_work_is_counted(pkg, monkeypatch):
    real = pkg.verify.run_suite

    def short(name, max_n=None, jobs=1):
        report = real(name, max_n, jobs)
        report.checks = report.checks[:-1]  # still passes, one check short
        return report

    fake = with_override(pkg, "verify", "run_suite", short)
    sweep = WORKLOADS["perm-sweep"](3)
    assert one_pass(sweep, fake).failed == len(sweep.suites)
    monkeypatch.setattr(pkg.verify, "run_suite", short)  # the CLI looks it up in the module
    session = CliSession.small(3)
    log = one_pass(session, pkg)
    assert log.failed == sum(r.command == "verify" for r in session.script) >= 1


def test_wrong_tree_stream_is_counted(pkg):
    real = pkg.trees.enumerate_trees

    def skips_one(nodes, leaves=None):
        for i, tree in enumerate(real(nodes, leaves)):
            if i != 40:
                yield tree

    def out_of_order(nodes, leaves=None):
        trees = list(real(nodes, leaves))
        trees[10], trees[11] = trees[11], trees[10]
        yield from trees

    forest = WORKLOADS["tree-forest"](3)
    for wrong in (skips_one, out_of_order):
        log = one_pass(forest, with_override(pkg, "trees", "enumerate_trees", wrong))
        assert log.failed >= 1, wrong.__name__


def test_setup_is_sampled_between_passes(pkg):
    forest = WORKLOADS["tree-forest"](3)
    calls = []
    passes, _ = harness.run_passes(forest, 0.2, False, between=lambda: calls.append(1))
    assert len(calls) == len(passes) >= 1


def test_session_mix_shares_add_up():
    session = CliSession(3)
    assert abs(sum(session.shares.values()) - 1) < 1e-3
    assert session.malformed == 4


def test_latency_tail_leaves_ten_samples_above():
    summary = harness.latency_summary(range(1, 101))
    assert summary["tail_ms"] * 1e6 == 90
    assert summary["tail_percentile"] == 90.0
    assert summary["samples"] == 100
    assert harness.latency_summary([5_000_000] * 7)["p50_ms"] == 5


def test_spec_names_every_metric_of_the_definition():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == DEFINED_END_TO_END
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(DEFINED_PER_LAYER) <= set(names)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(harness, "measure_setup", lambda samples: [0.02] * samples)
    run = measure(WORKLOADS[name], 4, 0.01, trace, SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in run["result"]["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert run["result"]["correct"], run["stamp"]["problems"]
    for key in ("nproc", "python", "git_commit", "seed", "src_lines", "tracing_overhead_ms"):
        assert key in run["stamp"]
    measured = {k: v["value"] for k, v in run["result"]["metrics"].items()
                if not k.startswith("trace.overhead")}
    assert all(v > 0 for v in measured.values()), measured
