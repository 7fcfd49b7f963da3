import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import twostack
from twostack import verify
from twostack.cli import build_parser, main
from twostack.counting import CountTable
from twostack.permutations import stack_sort


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sort_identity(capsys):
    code, out, _ = run(capsys, "sort", "1 2 3")
    assert code == 0
    assert out == "1 2 3\n"


def test_sort_passes(capsys):
    code, out, _ = run(capsys, "sort", "3 5 2 4 1", "--passes", "2")
    assert code == 0
    assert out == "1 2 3 4 5\n"


def test_sort_passes_stop_at_the_identity(capsys, monkeypatch):
    calls = []

    def counting_sort(perm):
        calls.append(perm)
        return stack_sort(perm)

    monkeypatch.setattr("twostack.permutations.stack_sort", counting_sort)
    code, out, _ = run(capsys, "sort", "2 1", "--passes", "1000000000")
    assert (code, out) == (0, "1 2\n")
    assert len(calls) <= 2
    # no more than n passes are ever made, so only a longer input shows the stop
    calls.clear()
    reverse = " ".join(map(str, range(300, 0, -1)))
    code, out, _ = run(capsys, "sort", reverse, "--passes", "1000000000")
    assert (code, out) == (0, " ".join(map(str, range(1, 301))) + "\n")
    assert calls == [tuple(range(300, 0, -1))]  # one pass sorts it; the identity takes none


def whole_passes(perm, m):
    """``perm`` after m whole stack_sort passes."""
    for _ in range(m):
        perm = stack_sort(perm)
    return perm


@pytest.mark.parametrize(
    "perm",
    [
        (3, 5, 2, 4, 1),
        (*range(2, 301), 1),  # the most passes: each moves 1 one place left
        (*range(1, 101), *range(300, 100, -1)),  # a settled prefix, then a reversed block
        (1, 2, 7, 3, 6, 4, 5, 8, 9),
        (4, 1, 6, 2, 5, 3, 7),
    ],
)
def test_sort_passes_match_whole_passes(capsys, perm):
    text = " ".join(map(str, perm))
    for m in range(5):
        code, out, _ = run(capsys, "sort", text, "--passes", str(m))
        assert (code, out) == (0, " ".join(map(str, whole_passes(perm, m))) + "\n")


def test_sortable_witness_yes(capsys):
    code, out, _ = run(capsys, "sortable", "3 5 2 4 1", "--t", "2")
    assert code == 0
    assert out.splitlines() == ["yes", "passes needed: 2"]


def test_sortable_witness_no(capsys):
    code, out, _ = run(capsys, "sortable", "3 2 4 1", "--t", "2")
    assert code == 0
    assert out.splitlines()[0] == "no"


@pytest.mark.parametrize(
    "perm, t, verdict",
    [("1 2 3", "0", "yes"), ("2 1", "0", "no"), ("2 1", "1", "yes"), ("3 5 2 4 1", "1", "no")],
)
def test_sortable_at_the_pass_boundary(capsys, perm, t, verdict):
    code, out, _ = run(capsys, "sortable", perm, "--t", t)
    assert (code, out.splitlines()[0]) == (0, verdict)


def test_sortable_rejects_negative_passes(capsys):
    code, out, err = run(capsys, "sortable", "3 2 4 1", "--t", "-1")
    assert (code, out, err) == (2, "", "error: number of passes must be >= 0\n")


def test_sort_rejects_negative_passes(capsys):
    assert run(capsys, "sort", "2 1", "--passes", "-1") == (2, "", "error: --passes must be >= 0\n")


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "3 1 2")
    assert code == 0
    assert out.splitlines() == [
        "descents: 1",
        "ascents: 1",
        "runs: 2",
        "rl-maxima: 3 2",
        "type: 1",
    ]


def test_pattern(capsys):
    code, out, _ = run(capsys, "pattern", "3 5 2 4 1", "--q", "2 3 1")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "pattern", "1 2 3", "--q", "2 1")
    assert (code, out) == (0, "no\n")


def test_fmap_finv_round_trip(capsys):
    code, out, _ = run(capsys, "fmap", "3 1 2")
    assert code == 0
    assert out.splitlines() == ["perm: 2 1", "mark: 2"]
    code, out, _ = run(capsys, "finv", "2 1", "--mark", "2")
    assert (code, out) == (0, "3 1 2\n")


def test_fmap_rejects_type2(capsys):
    code, _, err = run(capsys, "fmap", "1 3 2")
    assert code == 2
    assert err.startswith("error:")


def test_count_w_formula(capsys):
    code, out, _ = run(capsys, "count", "w", "--n", "4", "--k", "2")
    assert (code, out) == (0, "10\n")


def test_count_w_brute_matches_formula_end_to_end(capsys):
    for n in range(1, 9):
        for k in range(1, n + 1):
            _, brute, _ = run(
                capsys, "count", "w", "--n", str(n), "--k", str(k), "--method", "brute"
            )
            _, formula, _ = run(capsys, "count", "w", "--n", str(n), "--k", str(k))
            assert brute == formula


def test_count_trees_both_methods(capsys):
    code, out, _ = run(capsys, "count", "trees", "--n", "4", "--k", "2")
    assert (code, out) == (0, "10\n")
    code, out, _ = run(
        capsys, "count", "trees", "--n", "4", "--k", "2", "--method", "enum"
    )
    assert (code, out) == (0, "10\n")


def test_count_total_catalan_maps(capsys):
    code, out, _ = run(capsys, "count", "total", "--n", "9")
    assert (code, out) == (0, "49335\n")
    code, out, _ = run(capsys, "count", "catalan", "--n", "4")
    assert (code, out) == (0, "14\n")
    code, out, _ = run(capsys, "count", "maps", "--f", "2", "--pv", "3")
    assert (code, out) == (0, "10\n")


def test_count_maps_json_envelope(capsys):
    code, out, _ = run(capsys, "count", "maps", "--f", "2", "--pv", "3", "--format", "json")
    assert code == 0
    assert out == (
        '{"command": "count", "input": {"what": "maps", "method": "formula", "f": 2, "pv": 3}, '
        '"result": "10"}\n'
    )


def test_parser_is_built_once_and_shared(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.setattr("argparse.ArgumentParser", None)  # building another parser now fails
    argv = ["count", "w", "--n", "4", "--k", "2", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--method", "brute")
    assert (code, json.loads(out)["input"]["method"]) == (0, "brute")
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["input"]["method"]) == (0, "formula")


def test_cli_import_skips_dataclasses_and_multiprocessing():
    # each adds several ms to every CLI start, and no command needs either
    probe = (
        "import sys, twostack.cli; "
        "print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(twostack.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# Run in a fresh interpreter: prints which of the watched modules a start,
# plus the command given in argv if any, has loaded.
_FOOTPRINT_PROBE = """
import contextlib, io, sys
import twostack.cli
twostack.cli.build_parser()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert twostack.cli.main(sys.argv[1:]) == 0
watched = ("decimal", "json", "twostack.counting", "twostack.permutations", "twostack.trees", "twostack.verify")
print(sorted(set(watched) & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["sort", "3 1 2"], ["twostack.permutations"]),
        (["table", "--n", "5"], ["decimal", "twostack.counting"]),
        (["count", "w", "--n", "4", "--k", "2"], ["twostack.counting"]),
    ],
    ids=["parser", "sort", "table", "count"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    # importing the rest would make up most of a short command's time
    env = {**os.environ, "PYTHONPATH": str(Path(twostack.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, f"{loaded}\n"), done.stderr


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,k,count\n3,1,1\n3,2,4\n3,3,1\n"


#: the table sizes checked against the closed form in every output format
TABLE_SIZES = (*range(1, 301), 400, 800, 1200)


@cache
def closed_form_row(n):
    """{k: w_formula(n, k) in decimal}, each count converted on its own; shared by the formats."""
    return {k: str(twostack.w_formula(n, k)) for k in range(1, n + 1)}


def test_table_text_matches_the_closed_form(capsys):
    for n in TABLE_SIZES:
        code, out, _ = run(capsys, "table", "--n", str(n))
        assert code == 0
        assert out == "".join(f"W({n},{k}) = {c}\n" for k, c in closed_form_row(n).items())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_csv_and_json_match_the_closed_form(capsys, fmt):
    for n in TABLE_SIZES:
        code, out, _ = run(capsys, "table", "--n", str(n), "--format", fmt)
        assert code == 0
        counts = closed_form_row(n)
        if fmt == "csv":
            assert out == "n,k,count\n" + "".join(f"{n},{k},{c}\n" for k, c in counts.items())
        else:
            rows = [{"k": k, "count": c} for k, c in counts.items()]
            envelope = {"command": "table", "input": {"n": n}, "result": {"n": n, "rows": rows}}
            assert out == json.dumps(envelope) + "\n"


def test_table_renders_a_row_that_is_no_palindrome(capsys, monkeypatch):
    # a count repeated at positions that do not mirror, and one far beyond 64 bits
    big = 10**40 + 7
    row = {1: 5, 2: big, 3: 5, 4: big, 5: 0}
    monkeypatch.setattr("twostack.counting.w_table", lambda n, one: CountTable(n, row))
    text = {k: str(count) for k, count in row.items()}
    code, out, _ = run(capsys, "table", "--n", "5")
    assert (code, out) == (0, "".join(f"W(5,{k}) = {c}\n" for k, c in text.items()))
    code, out, _ = run(capsys, "table", "--n", "5", "--format", "csv")
    assert (code, out) == (0, "n,k,count\n" + "".join(f"5,{k},{c}\n" for k, c in text.items()))
    code, out, _ = run(capsys, "table", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {
        "n": 5, "rows": [{"k": k, "count": c} for k, c in text.items()]}


def test_table_at_the_count_limit(capsys):
    n = 5000
    code, out, _ = run(capsys, "table", "--n", str(n))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == n
    for k in (1, 2, 2500, 2501, 5000):
        assert lines[k - 1] == f"W({n},{k}) = {twostack.w_formula(n, k)}"


def test_table_rejects_nonpositive_n(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "table", "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1


def test_table_json_counts_are_strings(capsys):
    code, out, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "input", "result"}
    assert payload["result"]["rows"][1] == {"k": 2, "count": "10"}


def test_enumerate_perms_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "perms", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["1 2 3", "1 3 2", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]


def test_enumerate_perms_filters(capsys):
    code, out, _ = run(
        capsys, "enumerate", "perms", "--n", "4", "--filter", "2ss", "--runs", "2"
    )
    assert code == 0
    assert len(out.splitlines()) == 10  # W(4,2)
    # the empty permutation is 2-stack sortable: one empty line
    assert run(capsys, "enumerate", "perms", "--n", "0", "--filter", "2ss") == (0, "\n", "")


@pytest.mark.parametrize(
    "argv, bound, runs",
    [
        (["enumerate", "perms", "--n", "10", "--runs", "0"], 10, 0),
        (["enumerate", "perms", "--n", "10", "--filter", "2ss", "--runs", "11"], 10, 11),
        (["enumerate", "perms", "--n", "0", "--runs", "2", "--format", "json"], 1, 2),
    ],
)
def test_enumerate_perms_runs_out_of_range_exit_two(capsys, monkeypatch, argv, bound, runs):
    def not_allowed(*args):
        raise AssertionError("scanned for a run count no permutation has")

    monkeypatch.setattr("twostack.counting.two_stack_sortable", not_allowed)
    monkeypatch.setattr("twostack.cli.iter_permutations", not_allowed)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --runs must be in 1..{bound}, got {runs}\n"


@pytest.mark.parametrize("argv", [[], ["--filter", "2ss"]], ids=["all", "2ss"])
def test_enumerate_perms_rejects_negative_n(capsys, argv):
    code, out, err = run(capsys, "enumerate", "perms", "--n", "-1", *argv)
    assert (code, out, err) == (2, "", "error: --n must be >= 0\n")


def test_enumerate_perms_runs_of_the_empty_permutation(capsys):
    assert run(capsys, "enumerate", "perms", "--n", "0", "--runs", "1") == (0, "\n", "")


def test_enumerate_trees_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--nodes", "4", "--leaves", "2")
    assert code == 0
    assert out.splitlines() == [
        "(1 (1 (1) (1)))",
        "(2 (1) (1 (1)))",
        "(2 (1 (1)) (1))",
        "(2 (2 (1) (1)))",
    ]


def test_enumerate_trees_json_lines(capsys):
    code, out, _ = run(
        capsys, "enumerate", "trees", "--nodes", "3", "--format", "json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2
    assert all(set(line) == {"command", "input", "result"} for line in lines)
    assert lines[1]["result"] == {
        "label": 2,
        "children": [
            {"label": 1, "children": []},
            {"label": 1, "children": []},
        ],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "trees", "--n", "48", "--k", "2"],
        ["count", "trees", "--n", "100000", "--k", "3", "--method", "enum"],
        ["enumerate", "trees", "--nodes", "49"],
        ["enumerate", "trees", "--nodes", "3000", "--leaves", "2", "--format", "json"],
    ],
)
def test_tree_work_budget_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: trees are limited to 48 nodes")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, n",
    [
        (["count", "w", "--n", "12", "--k", "3", "--method", "brute"], 12),
        (["count", "total", "--n", "20", "--method", "brute"], 20),
        (["count", "trees", "--n", "47", "--k", "5", "--method", "enum"], 47),
        (["verify", "--suite", "total", "--max-n", "20"], 20),
        (["verify", "--suite", "joint-rl", "--max-n", "12", "--format", "json"], 12),
        (["enumerate", "perms", "--n", "12", "--filter", "2ss"], 12),
        (["enumerate", "perms", "--n", "12"], 12),
        (["enumerate", "perms", "--n", "13", "--runs", "1", "--format", "json"], 13),
        # past the closed-form budget too: the exhaustive one is named
        (["count", "w", "--n", "5001", "--k", "3", "--method", "brute"], 5001),
    ],
)
def test_exhaustive_budget_exit_two(capsys, monkeypatch, argv, n):
    def not_allowed(*args):
        raise AssertionError("worked past the budget")

    monkeypatch.setattr("twostack.counting._barred", not_allowed)
    monkeypatch.setattr("twostack.cli.iter_permutations", not_allowed)
    monkeypatch.setattr("twostack.trees.enumerate_trees", not_allowed)
    monkeypatch.setattr("twostack.trees._forest_row", not_allowed)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    if argv[0] == "verify":  # both verify rows name suites whose limit is the exhaustive budget
        assert err == f"error: suite {argv[2]} takes max_n in 1..11, got {n}\n"
    else:
        assert err == f"error: exhaustive counts are limited to n <= 11, got {n}\n"


@pytest.mark.parametrize(
    "suite, max_n, limit",
    [
        ("total", 20, 11),
        ("joint-rl", 12, 11),
        ("formula-vs-brute", 12, 11),
        ("total", 0, 11),
        ("tree-vs-perm", 48, 47),
        ("catalan", 12, 10),
        ("lemma1", 12, 10),
    ],
)
def test_verify_budget_exit_two(capsys, monkeypatch, suite, max_n, limit):
    def not_allowed(*args):
        raise AssertionError("worked past the budget")

    monkeypatch.setattr("twostack.counting._barred", not_allowed)
    monkeypatch.setattr("twostack.cli.iter_permutations", not_allowed)
    monkeypatch.setattr("twostack.trees.enumerate_trees", not_allowed)
    monkeypatch.setattr("twostack.trees._forest_row", not_allowed)
    monkeypatch.setattr("twostack.verify.permutations", not_allowed)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", str(max_n), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite} takes max_n in 1..{limit}, got {max_n}\n"


@pytest.mark.parametrize("suite", ["catalan", "lemma1"])
def test_sweep_suite_budget_exit_two(capsys, monkeypatch, suite):
    def not_allowed(*args):
        raise AssertionError("worked past the budget")

    monkeypatch.setattr("twostack.verify.permutations", not_allowed)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "11")
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite} takes max_n in 1..10, got 11\n"


def test_exhaustive_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 4)
    limited = "error: exhaustive counts are limited to n <= 4, got 5\n"
    for target, at_limit in ((["w", "--k", "2", "--method", "brute"], "10\n"),
                             (["trees", "--k", "2", "--method", "enum"], "10\n"),
                             (["total", "--method", "brute"], "22\n")):
        assert run(capsys, "count", *target, "--n", "4") == (0, at_limit, "")
        assert run(capsys, "count", *target, "--n", "5") == (2, "", limited)
    code, out, _ = run(capsys, "enumerate", "perms", "--n", "4", "--runs", "4")
    assert (code, out) == (0, "4 3 2 1\n")
    assert run(capsys, "enumerate", "perms", "--n", "5", "--runs", "5") == (2, "", limited)


@pytest.mark.parametrize(
    "argv, limited",
    [
        (["count", "catalan", "--n", "1000000"], "n <= 5000, got 1000000"),
        (["count", "total", "--n", "3000000"], "n <= 5000, got 3000000"),
        (["count", "w", "--n", "5000000", "--k", "2500000"], "n <= 5000, got 5000000"),
        (["count", "maps", "--f", "2501", "--pv", "2501"], "f+pv-1 <= 5000, got 5001"),
        (["table", "--n", "100000"], "n <= 5000, got 100000"),
        (["table", "--n", "5300", "--format", "csv"], "n <= 5000, got 5300"),
    ],
)
def test_count_budget_exit_two(capsys, monkeypatch, argv, limited):
    def not_allowed(*args):
        raise AssertionError("worked past the budget")

    monkeypatch.setattr("twostack.counting._exact_div", not_allowed)
    monkeypatch.setattr("twostack.counting.comb", not_allowed)
    # w_table's loop divides with the builtin divmod, looked up in the module first
    monkeypatch.setattr("twostack.counting.divmod", not_allowed, raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: closed-form counts are limited to {limited}\n"


def test_count_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr("twostack.counting.MAX_COUNT_N", 6)
    for argv, name in (("count w --k 3 --n {}", "n"), ("count total --n {}", "n"),
                       ("count catalan --n {}", "n"), ("count maps --f 1 --pv {}", "f+pv-1"),
                       ("table --n {}", "n")):
        code, out, err = run(capsys, *argv.format(6).split())
        assert (code, err) == (0, "") and out
        limited = f"error: closed-form counts are limited to {name} <= 6, got 7\n"
        assert run(capsys, *argv.format(7).split()) == (2, "", limited)


@pytest.mark.parametrize("suite", ["symmetry", "unimodality", "map-substitution"])
def test_formula_budget_exit_two(capsys, monkeypatch, suite):
    def formula_not_allowed(*args):
        raise AssertionError("worked past the budget")

    monkeypatch.setattr("twostack.counting.w_formula", formula_not_allowed)
    monkeypatch.setattr("twostack.counting.w_table", formula_not_allowed)
    monkeypatch.setattr("twostack.counting.planar_map_count", formula_not_allowed)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "100000")
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite} takes max_n in 1..500, got 100000\n"


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetry", "--max-n", "20")
    assert code == 0
    assert "PASS" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "joint-rl", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert all(check["ok"] for check in payload["result"]["checks"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_unknown_suite_lists_every_suite(capsys, fmt):
    code, out, err = run(capsys, "verify", "--suite", "bogus", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: unknown suite 'bogus'; choose from {', '.join(verify.SUITE_NAMES)}\n"


def test_verify_help_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: twostack verify")


def test_verify_mismatch_exit_one(capsys, monkeypatch):
    # sabotage the closed form so the suite must report a mismatch
    monkeypatch.setattr("twostack.counting.w_total", lambda n: 0)
    totals = {1: 1, 2: 2, 3: 6}
    code, out, err = run(capsys, "verify", "--suite", "total", "--max-n", "3")
    assert (code, err) == (1, "")
    assert out == "".join(
        f"FAIL 2-stack sortable total, n={n}: expected 0, actual {t}\n" for n, t in totals.items()
    ) + "suite total (max n 3): FAIL (3 mismatches), 3 checks\n"
    code, out, err = run(capsys, "verify", "--suite", "total", "--max-n", "3", "--format", "json")
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert [(c["expected"], c["actual"], c["ok"]) for c in result["checks"]] == [
        ("0", str(t), False) for t in totals.values()]


#: id -> (argv, whether verify's total suite is sabotaged to fail)
EVERY_OUTPUT = {
    "table-text": (["table", "--n", "3"], False),
    "table-csv": (["table", "--n", "3", "--format", "csv"], False),
    "table-json": (["table", "--n", "3", "--format", "json"], False),
    "verify-text": (["verify", "--suite", "total", "--max-n", "3"], False),
    "verify-json": (["verify", "--suite", "total", "--max-n", "3", "--format", "json"], False),
    "verify-text-failing": (["verify", "--suite", "total", "--max-n", "3"], True),
    "verify-json-failing": (
        ["verify", "--suite", "total", "--max-n", "3", "--format", "json"], True),
    "sort": (["sort", "3 1 2"], False),
    "enumerate-perms": (["enumerate", "perms", "--n", "3"], False),
}


@pytest.mark.parametrize("argv, failing", EVERY_OUTPUT.values(), ids=EVERY_OUTPUT)
def test_emit_is_the_only_writer(capsys, monkeypatch, argv, failing):
    calls = []
    monkeypatch.setattr("twostack.cli._emit", lambda *args: calls.append(args))
    if failing:
        monkeypatch.setattr("twostack.counting.w_total", lambda n: 0)
    code = main(argv)
    assert capsys.readouterr() == ("", "")
    assert calls
    assert code == (1 if failing else 0)


def test_invalid_permutation_exit_two(capsys):
    code, _, err = run(capsys, "sort", "1 1 2")
    assert code == 2
    assert err.startswith("error:")
    text = "2 1_0 3 4 5 6 7 8 9 1"  # int() alone would read 1_0 as 10
    code, out, err = run(capsys, "sort", text)
    assert (code, out, err) == (2, "", f"error: not a sequence of integers: {text!r}\n")


def test_broken_pipe_while_printing_exits_zero(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["enumerate", "perms", "--n", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "sort", "1 2", "--bogus")
    assert code == 2


#: id -> (argv the parser rejects, the flag or value its error line names)
MISPLACED = {
    "count-w-without-k": (["count", "w", "--n", "4"], "--k"),
    "count-maps-without-pv": (["count", "maps", "--f", "2"], "--pv"),
    "count-catalan-without-n": (["count", "catalan"], "--n"),
    "enumerate-perms-without-n": (["enumerate", "perms"], "--n"),
    "enumerate-trees-without-nodes": (["enumerate", "trees", "--leaves", "2"], "--nodes"),
    "count-catalan-brute": (["count", "catalan", "--n", "4", "--method", "brute"], "--method"),
    "count-maps-brute": (
        ["count", "maps", "--f", "2", "--pv", "3", "--method", "brute"],
        "--method",
    ),
    "count-w-enum": (["count", "w", "--n", "4", "--k", "2", "--method", "enum"], "--method"),
    "count-trees-brute": (
        ["count", "trees", "--n", "4", "--k", "2", "--method", "brute"],
        "--method",
    ),
    "count-total-enum": (["count", "total", "--n", "4", "--method", "enum"], "--method"),
    "enumerate-perms-leaves": (["enumerate", "perms", "--n", "3", "--leaves", "2"], "--leaves"),
    "enumerate-trees-runs": (["enumerate", "trees", "--nodes", "3", "--runs", "2"], "--runs"),
    "enumerate-trees-filter": (
        ["enumerate", "trees", "--nodes", "3", "--filter", "2ss"],
        "--filter",
    ),
    "count-catalan-csv": (["count", "catalan", "--n", "3", "--format", "csv"], "csv"),
    "sort-csv": (["sort", "2 1", "--format", "csv"], "csv"),
    "enumerate-trees-csv": (["enumerate", "trees", "--nodes", "3", "--format", "csv"], "csv"),
    "verify-csv": (["verify", "--suite", "symmetry", "--format", "csv"], "csv"),
    # flags the target used to accept and ignore
    "count-catalan-jobs": (["count", "catalan", "--n", "4", "--jobs", "2"], "--jobs"),
    "count-trees-jobs": (["count", "trees", "--n", "4", "--k", "2", "--jobs", "2"], "--jobs"),
    "verify-jobs": (["verify", "--suite", "catalan", "--jobs", "2"], "--jobs"),
    # brute force runs on one core, so no target takes a worker count
    "count-w-brute-jobs": (
        ["count", "w", "--n", "4", "--k", "2", "--method", "brute", "--jobs", "2"],
        "--jobs",
    ),
    "count-total-brute-jobs": (
        ["count", "total", "--n", "4", "--method", "brute", "--jobs", "2"],
        "--jobs",
    ),
    "count-maps-n": (["count", "maps", "--n", "3", "--f", "2", "--pv", "3"], "--n"),
    "count-total-k": (["count", "total", "--n", "4", "--k", "2"], "--k"),
    "count-w-f-pv": (
        ["count", "w", "--n", "4", "--k", "2", "--f", "1", "--pv", "2"],
        "--f",
    ),
    "enumerate-perms-nodes": (["enumerate", "perms", "--n", "3", "--nodes", "2"], "--nodes"),
    # no prefix matching: these are not --nodes and --format
    "enumerate-trees-n": (["enumerate", "trees", "--nodes", "3", "--n", "2"], "--n"),
    "count-total-f": (["count", "total", "--n", "4", "--f", "json"], "--f"),
    # a missing target is named as such, not by the parser's internal name
    "count-without-target": (["count"], "required: target"),
    "enumerate-without-target": (["enumerate"], "required: target"),
}


@pytest.mark.parametrize("argv, named", MISPLACED.values(), ids=list(MISPLACED))
def test_misplaced_input_exit_two(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    error = err.splitlines()[-1]
    assert "error:" in error and named in error
    # the usage line is the chosen command's or target's, not the top level's
    command = argv[:2] if argv[0] in ("count", "enumerate") else argv[:1]
    assert err.startswith(f"usage: twostack {' '.join(command)} ")


def test_readme_commands_run(capsys):
    # every twostack line of the README's command-line block, split from its comment
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("twostack ")]
    commands = [line.partition("#")[::2] for line in lines]
    assert len(commands) >= 19
    for command, comment in commands:
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert code == 0 and out, command
        # "-> X": X is the output, its lines joined by ", "
        if "->" in comment:
            assert ", ".join(out.splitlines()) == comment.split("->", 1)[1].strip(), command


def test_readme_flag_table_matches_the_parser():
    # each row of the README's target table names exactly the flags that
    # target declares, required and optional, apart from -h and --format
    def subparser(parser, name):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices[name]

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| target | required | optional |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ") for line in table.splitlines()[1:]]  # past the rule
    assert len(rows) == 7
    for target, required, optional in rows:
        parser = build_parser()
        for name in target.strip("| `").split():
            parser = subparser(parser, name)
        declared = {
            flag: action.required
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help", "--format")
        }
        named = {flag: True for flag in re.findall(r"--[a-z-]+", required)}
        named.update({flag: False for flag in re.findall(r"--[a-z-]+", optional)})
        assert named == declared, target


def test_readme_suite_table_matches_the_suites():
    # each row of the README's verify table gives a suite's default and largest --max-n
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| suite | default `--max-n` | largest `--max-n` |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()[1:]]  # past the rule
    documented = {suite.strip("`"): (int(default), int(limit)) for suite, default, limit in rows}
    assert documented == {name: (default, limit) for name, (_, default, limit) in verify._SUITES.items()}


def test_json_envelope_is_schema_stable(capsys):
    invocations = [
        ("sort", "2 1"),
        ("sortable", "2 1", "--t", "1"),
        ("stats", "2 1"),
        ("pattern", "2 1", "--q", "1 2"),
        ("fmap", "1 2"),
        ("finv", "1", "--mark", "1"),
        ("count", "catalan", "--n", "3"),
        ("table", "--n", "2"),
        ("verify", "--suite", "symmetry", "--max-n", "5"),
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "input", "result"}
        assert payload["command"] == argv[0]
