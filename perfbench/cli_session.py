"""
cli-session: one client in a closed loop, sending a seeded script of
requests through ``twostack.cli.main(argv)`` in one interpreter with
stdout and stderr captured.

Long permutations go through the per-permutation commands (231-avoiders
make the pattern search exhaustive, planted 231s let it stop early); the
formula counters get n in the thousands and ``table`` gets rows where
big-integer work is heavy; small brute and enumeration requests, every
verify suite, and malformed requests that exit 2 make up the rest.  ``cli``
and the formula side of ``counting`` do most of the work.  The script is
replayed pass after pass in the same interpreter, so memo tables persist
as in a long session.

Left out on purpose: inputs whose handling is due to change (``table``
with n <= 0, huge ``--passes``, deep s-expressions, bool labels or marks).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from . import oracles
from .harness import Pass, PassLog, median, per_pass_median

PERM_LENGTHS = (1000, 1500, 2000)
AVOIDER_PATTERN_LENGTHS = (40, 60, 80)
SHUFFLED_SORTABLE_LENGTHS = (150, 250)
FORMULA_NS = (1000, 2000, 3000, 4000)
#: (n, format) of the table requests; fixed, since the format moves peak memory
TABLES = ((400, "csv"), (800, "json"), (1200, "text"))
MAPS_SIZES = ((500, 1500), (1200, 700))
COMMANDS = ("sort", "sortable", "stats", "pattern", "fmap", "finv", "count", "table",
            "enumerate", "verify")
SUITES = (
    ("catalan", 5), ("formula-vs-brute", 5), ("total", 6), ("lemma1", 5),
    ("tree-vs-perm", 5), ("joint-rl", 5),
    ("symmetry", None), ("unimodality", None), ("map-substitution", None),
)

SMALL_SUITES = (
    ("catalan", 4), ("formula-vs-brute", 4), ("total", 4), ("lemma1", 4),
    ("tree-vs-perm", 4), ("joint-rl", 4),
    ("symmetry", 6), ("unimodality", 12), ("map-substitution", 8),
)


@dataclass
class Request:
    kind: str  # request class, for the mix shares
    command: str
    argv: list
    expect: Callable[[str], bool]  # judges stdout
    direct: Callable  # direct(pkg): the library calls behind the request
    direct_name: str
    exit_code: int = 0


def output_format(i) -> str:
    """Formats alternate by position, so that every seed asks for the same output work."""
    return ("text", "json")[i % 2]


def fmt(perm) -> str:
    return " ".join(map(str, perm))


def as_text(perm, rng) -> str:
    return rng.choice((" ", ",")).join(map(str, perm))


def exact(text: str):
    return lambda out: out == text


def envelope(command: str, result):
    """Accept JSON whose command and result match; other keys may come and go."""
    def judge(out):
        obj = json.loads(out)
        return obj["command"] == command and obj["result"] == result
    return judge


def judged(fmt_name: str, command: str, text: str, result):
    return envelope(command, result) if fmt_name == "json" else exact(text)


def with_format(argv, fmt_name):
    return argv + ["--format", fmt_name] if fmt_name != "text" else argv


def long_perm(n, rng):
    return oracles.avoider(n, rng) if rng.random() < 0.5 else oracles.planted_231(n, rng)


def expect_value_error(fn):
    try:
        fn()
    except ValueError:
        return None
    raise AssertionError("expected ValueError")


# --- request builders ------------------------------------------------------


def req_sort(rng, i):
    perm = long_perm(PERM_LENGTHS[i % 3], rng)
    passes = 1 + i // 2 % 3
    text, f = as_text(perm, rng), output_format(i)
    out = fmt(oracles.sort_passes(perm, passes))

    def direct(pkg):
        P = pkg.permutations
        p = P.parse_permutation(text)
        for _ in range(passes):
            p = P.stack_sort(p)
        return P.format_permutation(p)

    return Request("sort", "sort", with_format(["sort", text, "--passes", str(passes)], f),
                   judged(f, "sort", out + "\n", out), direct, "permutations.stack_sort")


def req_sortable(rng, i):
    if i % 2:
        perm = oracles.avoider(PERM_LENGTHS[0], rng)
        needed = 0 if oracles.is_identity(perm) else 1
    else:
        perm = oracles.planted_231(SHUFFLED_SORTABLE_LENGTHS[i // 2 % 2], rng)
        needed = oracles.passes_needed(perm)
    text, f = as_text(perm, rng), output_format(i)
    sortable = needed <= 2
    plain = f"{'yes' if sortable else 'no'}\npasses needed: {needed}\n"

    def direct(pkg):
        P = pkg.permutations
        p = P.parse_permutation(text)
        return P.is_t_stack_sortable(p, 2), P.sorting_passes(p)

    return Request("sortable", "sortable", with_format(["sortable", text, "--t", "2"], f),
                   judged(f, "sortable", plain, {"sortable": sortable, "passes_needed": needed}),
                   direct, "permutations.is_t_stack_sortable")


def req_stats(rng, i):
    perm = long_perm(PERM_LENGTHS[i % 3], rng)
    text, f = as_text(perm, rng), output_format(i)
    s = oracles.stats(perm)
    plain = (f"descents: {s['descents']}\nascents: {s['ascents']}\nruns: {s['runs']}\n"
             f"rl-maxima: {fmt(s['rl_maxima'])}\ntype: {s['type']}\n")

    def direct(pkg):
        P = pkg.permutations
        return P.statistics(P.parse_permutation(text))

    return Request("stats", "stats", with_format(["stats", text], f),
                   judged(f, "stats", plain, s), direct, "permutations.statistics")


def _pattern(kind, perm, rng, i, name):
    text, f = as_text(perm, rng), output_format(i)
    found = kind == "pattern-planted"

    def direct(pkg):
        P = pkg.permutations
        return P.contains_pattern(P.parse_permutation(text), P.parse_permutation("2 3 1"))

    return Request(kind, "pattern", with_format(["pattern", text, "--q", "2 3 1"], f),
                   judged(f, "pattern", "yes\n" if found else "no\n", {"contains": found}),
                   direct, name)


def req_pattern_avoider(rng, i):
    perm = oracles.avoider(AVOIDER_PATTERN_LENGTHS[i % 3], rng)
    return _pattern("pattern-avoider", perm, rng, i, "permutations.contains_pattern.long")


def req_pattern_planted(rng, i):
    perm = oracles.planted_231(PERM_LENGTHS[i % 3], rng)
    return _pattern("pattern-planted", perm, rng, i, "permutations.contains_pattern")


def _marked(rng, i):
    base = long_perm(PERM_LENGTHS[i % 3] - 1, rng)
    maxima = oracles.rl_maxima(base)
    rank = rng.randint(1, len(maxima))
    return base, rank, oracles.grow_type1(base, rank, maxima)


def req_fmap(rng, i):
    base, rank, grown = _marked(rng, i)
    text, f = as_text(grown, rng), output_format(i)

    def direct(pkg):
        P = pkg.permutations
        return P.format_permutation(P.reduce_type1(P.parse_permutation(text)).perm)

    return Request("fmap", "fmap", with_format(["fmap", text], f),
                   judged(f, "fmap", f"perm: {fmt(base)}\nmark: {rank}\n",
                          {"perm": fmt(base), "mark": rank}),
                   direct, "permutations.reduce_type1")


def req_finv(rng, i):
    base, rank, grown = _marked(rng, i)
    text, f = as_text(base, rng), output_format(i)

    def direct(pkg):
        P = pkg.permutations
        return P.format_permutation(P.restore_type1((P.parse_permutation(text), rank)))

    return Request("finv", "finv", with_format(["finv", text, "--mark", str(rank)], f),
                   judged(f, "finv", fmt(grown) + "\n", fmt(grown)),
                   direct, "permutations.restore_type1")


def _count(kind, args, value, i, direct, name):
    f = output_format(i)
    return Request(kind, "count", with_format(["count", *args], f),
                   judged(f, "count", f"{value}\n", str(value)), direct, name)


def req_count_w(rng, i):
    n = FORMULA_NS[i % 4]
    k = max(1, n * (1 + i // 4 % 3) // 4)
    return _count("count-w", ["w", "--n", str(n), "--k", str(k)], oracles.w_cell(n, k), i,
                  lambda pkg: pkg.counting.w_formula(n, k), "counting.w_formula")


def req_count_total(rng, i):
    n = FORMULA_NS[(2 * i + 1) % 4]
    return _count("count-total", ["total", "--n", str(n)], oracles.w_total(n), i,
                  lambda pkg: pkg.counting.w_total(n), "counting.w_total")


def req_count_maps(rng, i):
    f, pv = MAPS_SIZES[i % 2]
    return _count("count-maps", ["maps", "--f", str(f), "--pv", str(pv)],
                  oracles.w_cell(f + pv - 1, f), i,
                  lambda pkg: pkg.counting.planar_map_count(f, pv), "counting.planar_map_count")


def req_count_catalan(rng, i):
    n = FORMULA_NS[(i + 2) % 4]
    return _count("count-catalan", ["catalan", "--n", str(n)], oracles.catalan(n), i,
                  lambda pkg: pkg.counting.catalan(n), "counting.catalan")


def req_count_trees(rng, i):
    if i % 2:
        n = 7
        k = rng.randint(1, n)
        return _count("count-trees", ["trees", "--n", str(n), "--k", str(k)],
                      oracles.w_cell(n, k), i,
                      lambda pkg: pkg.trees.count_trees(n, k), "trees.count_trees")
    n = 6
    k = rng.randint(1, n)
    return _count("count-trees", ["trees", "--n", str(n), "--k", str(k), "--method", "enum"],
                  oracles.w_cell(n, k), i,
                  lambda pkg: sum(1 for _ in pkg.trees.enumerate_trees(n + 1, k)),
                  "trees.enumerate_trees")


def req_count_brute(rng, i):
    n = 6 + i % 2
    if i % 2:
        return _count("count-brute", ["total", "--n", str(n), "--method", "brute"],
                      oracles.FROZEN_TOTALS[n - 1], i,
                      lambda pkg: pkg.counting.brute_force_w(n).total(),
                      "counting.brute_force_w")
    k = rng.randint(1, n)
    return _count("count-brute", ["w", "--n", str(n), "--k", str(k), "--method", "brute"],
                  oracles.w_cell(n, k), i,
                  lambda pkg: pkg.counting.brute_force_w(n).row.get(k, 0),
                  "counting.brute_force_w")


def req_table(rng, i):
    n, f = TABLES[i % 3]
    row = oracles.w_row(n)
    if f == "json":
        result = {"n": n, "rows": [{"k": k, "count": str(v)} for k, v in enumerate(row, 1)]}
        expect = envelope("table", result)
    elif f == "csv":
        expect = exact("n,k,count\n" + "".join(f"{n},{k},{v}\n" for k, v in enumerate(row, 1)))
    else:
        expect = exact("".join(f"W({n},{k}) = {v}\n" for k, v in enumerate(row, 1)))
    return Request("table", "table", with_format(["table", "--n", str(n)], f), expect,
                   lambda pkg: pkg.counting.w_table(n), "counting.w_table")


def req_enumerate_perms(rng, i):
    n = 6
    argv = ["enumerate", "perms", "--n", str(n)]
    keep = list(permutations(range(1, n + 1)))
    runs = None
    if i % 2:
        argv += ["--filter", "2ss"]
        keep = [p for p in keep if oracles.two_sortable(p)]
    else:
        runs = rng.choice((3, 4))  # 302 permutations either way
        argv += ["--runs", str(runs)]
        keep = [p for p in keep if oracles.descents(p) + 1 == runs]
    lines = [fmt(p) for p in keep]
    f = output_format(i // 2)

    def judge(out):
        got = out.splitlines()
        if f == "json":
            got = [json.loads(line) for line in got]
            return [g["command"] for g in got] == ["enumerate"] * len(lines) and \
                [g["result"] for g in got] == lines
        return got == lines

    def direct(pkg):
        P = pkg.permutations
        return [P.format_permutation(p) for p in permutations(range(1, n + 1))
                if (runs is None or P.descent_count(p) + 1 == runs)
                and (runs is not None or P.is_t_stack_sortable(p, 2))]

    return Request("enumerate-perms", "enumerate", with_format(argv, f), judge, direct,
                   "permutations.enumerate")


def req_enumerate_trees(rng, i):
    nodes = 7
    argv = ["enumerate", "trees", "--nodes", str(nodes)]
    leaves = None
    count = oracles.FROZEN_TOTALS[nodes - 2]
    if i % 2:
        leaves = rng.choice((3, 4))  # 168 trees either way
        argv += ["--leaves", str(leaves)]
        count = oracles.w_cell(nodes - 1, leaves)
    f = output_format(i // 2)

    def judge(out):
        lines = out.splitlines()
        if f == "json":
            got = [oracles.tree_from_json(json.loads(line)["result"]) for line in lines]
        else:
            got = [oracles.tree_parse(line) for line in lines]
        return (
            len(got) == count
            and all(a < b for a, b in zip(got, got[1:]))
            and all(oracles.tree_valid(t) and oracles.tree_nodes(t) == nodes
                    and (leaves is None or oracles.tree_leaves(t) == leaves) for t in got)
        )

    def direct(pkg):
        T = pkg.trees
        return [T.format_tree(t) for t in T.enumerate_trees(nodes, leaves)]

    return Request("enumerate-trees", "enumerate", with_format(argv, f), judge, direct,
                   "trees.enumerate_trees")


def req_verify(suite, max_n, i):
    """
    A verify request, judged against the oracle's checks: the bound, the
    number of checks and, in JSON, every check's expected and actual side.
    """
    bound = oracles.SUITE_DEFAULT_BOUNDS[suite] if max_n is None else max_n
    expected = [str(v) for v in oracles.suite_expected(suite, bound)]
    argv = ["verify", "--suite", suite] + ([] if max_n is None else ["--max-n", str(max_n)])
    f = output_format(i)
    if f == "json":
        def judge(out):
            obj = json.loads(out)
            result = obj["result"]
            return (obj["command"] == "verify" and result["max_n"] == bound and result["passed"]
                    and [c["expected"] for c in result["checks"]] == expected
                    and [c["actual"] for c in result["checks"]] == expected)
    else:
        judge = exact(f"suite {suite} (max n {bound}): PASS, {len(expected)} checks\n")
    return Request("verify-brute" if max_n else "verify-formula", "verify", with_format(argv, f),
                   judge, lambda pkg: pkg.verify.run_suite(suite, max_n),
                   f"verify.run_suite.{suite}")


#: (command, argv, the library call that rejects it or None if option checks do)
MALFORMED = (
    ("sort", ["sort", "1 2 2"], lambda pkg: pkg.permutations.parse_permutation("1 2 2")),
    ("stats", ["stats", "3 x 1"], lambda pkg: pkg.permutations.parse_permutation("3 x 1")),
    ("pattern", ["pattern", "2 3 1 5", "--q", "2 3 1"],
     lambda pkg: pkg.permutations.parse_permutation("2 3 1 5")),
    ("count", ["count", "w", "--n", "0", "--k", "1"], lambda pkg: pkg.counting.w_formula(0, 1)),
    ("count", ["count", "maps", "--f", "2", "--pv", "3", "--method", "brute"], None),
    ("count", ["count", "w", "--n", "4", "--k", "2", "--method", "foo"], None),
)


def req_malformed(rng, i):
    command, argv, lib = rng.choice(MALFORMED)

    def direct(pkg):
        return expect_value_error(lambda: lib(pkg)) if lib else None

    return Request("malformed", command, list(argv), exact(""), direct, "bench.rejected", 2)


#: (builder, requests per pass)
MIX = (
    (req_sort, 6), (req_sortable, 4), (req_stats, 6), (req_pattern_avoider, 3),
    (req_pattern_planted, 3), (req_fmap, 4), (req_finv, 4), (req_count_w, 8),
    (req_count_total, 2), (req_count_maps, 2), (req_count_catalan, 2), (req_table, 3),
    (req_count_trees, 2), (req_count_brute, 2), (req_enumerate_perms, 2),
    (req_enumerate_trees, 2), (req_malformed, 4),
)


class CliSession:
    name = "cli-session"
    fresh_import = False

    def __init__(self, seed: int, mix=MIX, suites=SUITES):
        rng = random.Random(seed)
        self.script = [build(rng, i) for build, count in mix for i in range(count)]
        self.script += [req_verify(suite, max_n, i) for i, (suite, max_n) in enumerate(suites)]
        rng.shuffle(self.script)
        kinds = [r.kind for r in self.script]
        self.shares = {k: round(kinds.count(k) / len(kinds), 4) for k in sorted(set(kinds))}
        self.malformed = kinds.count("malformed")
        self.suites = suites

    @classmethod
    def small(cls, seed: int):
        """One request of each class, for tests and for probing this workload's layers."""
        return cls(seed, mix=tuple((build, 1) for build, _ in MIX if build is not req_malformed)
                   + ((req_malformed, 2),), suites=SMALL_SUITES)

    def run_pass(self, pkg, log: PassLog) -> None:
        main = pkg.cli.main
        rejected = 0
        for i, req in enumerate(self.script):
            out, err = io.StringIO(), io.StringIO()
            with log.tracer.span("bench.request", request=i):
                with redirect_stdout(out), redirect_stderr(err):
                    code = log.op(
                        "cli.main", lambda: main(req.argv),
                        lambda c: int(not self._right(req, c, out.getvalue(), err.getvalue())),
                        request=i)
            rejected += code == 2
        log.counters["rejected"] = rejected

    @staticmethod
    def _right(req: Request, code, out: str, err: str) -> bool:
        if code != req.exit_code:
            return False
        if req.exit_code == 2:
            return out == "" and err.strip() != ""
        return req.expect(out)

    def extra(self, pkg, log: PassLog) -> dict:
        """Each request's library calls made directly, to split off the CLI's own time."""
        for i, req in enumerate(self.script):
            with log.tracer.span("bench.direct", request=i):
                result = log.op(req.direct_name, lambda: req.direct(pkg), lambda r: 0, request=i)
            if req.direct_name.startswith("verify.") and result is not None:
                log.counters[f"{req.direct_name}.checks"] = len(result.checks)
        return {"direct": log}

    def layer_metrics(self, passes: list[Pass], extras: dict) -> dict:
        traced = [p for p in passes if p.traced]
        main_ns = {}
        for p in traced:
            for c in p.log.calls:
                main_ns.setdefault(c.request, []).append(c.ns)
        direct = extras["direct"]
        direct_ns = {c.request: c.ns for c in direct.calls}

        def direct_median(name, scale):
            return median([c.ns / scale for c in direct.calls if c.name == name])

        out = {
            f"cli.main.{cmd}.p50_ms": median([
                ns / 1e6 for i, req in enumerate(self.script)
                if req.command == cmd and req.exit_code == 0 for ns in main_ns.get(i, [])
            ])
            for cmd in COMMANDS
        }
        out["cli.self_ms"] = median([
            (median(main_ns[i]) - direct_ns[i]) / 1e6 for i in main_ns if i in direct_ns
        ])
        out["cli.rejected"] = per_pass_median(passes, lambda p: p.log.counters["rejected"])
        out["permutations.contains_pattern.long_ms"] = direct_median(
            "permutations.contains_pattern.long", 1e6)
        out["counting.w_table.ms"] = direct_median("counting.w_table", 1e6)
        out["counting.w_formula.us_per_call"] = direct_median("counting.w_formula", 1e3)
        for suite, _ in self.suites:
            name = f"verify.run_suite.{suite}"
            out[f"{name}.ms"] = direct_median(name, 1e6)
            out[f"{name}.checks"] = direct.counters.get(f"{name}.checks", 0)
        return out
