"""
Command-line front end.  Every command prints either plain text or a
stable JSON envelope {"command", "input", "result"}; counts are emitted as
decimal strings in JSON and CSV so they survive 64-bit consumers.  ``_emit``
is the one writer to stdout: it prints the JSON envelope or the text lines
that a handler passes it, as ``--format`` asks.  Each
subcommand declares exactly the flags it reads, so the parser rejects any
other.  Exit codes: 0 success, 1 verification mismatch, 2 invalid input.

Each handler imports the modules it runs, so building the parser loads no
other ``twostack`` module and a command pays only for its own imports.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import permutations as iter_permutations

import twostack  # reaching a submodule through the package imports it on first use


def _emit(args, input_obj, result_obj, text_lines) -> None:
    if args.format == "json":
        import json
        print(json.dumps({"command": args.command, "input": input_obj, "result": result_obj}))
    else:
        for line in text_lines:
            print(line)


def _cmd_sort(args) -> int:
    from .permutations import _passes, format_permutation, parse_permutation
    if args.passes < 0:
        raise ValueError("--passes must be >= 0")
    _, perm = _passes(parse_permutation(args.perm), args.passes)
    out = format_permutation(perm)
    _emit(args, {"perm": args.perm, "passes": args.passes}, out, [out])
    return 0


def _cmd_sortable(args) -> int:
    from .permutations import parse_permutation, sorting_passes
    perm = parse_permutation(args.perm)
    if args.t < 0:
        raise ValueError("number of passes must be >= 0")
    needed = sorting_passes(perm)
    sortable = needed <= args.t
    _emit(
        args,
        {"perm": args.perm, "t": args.t},
        {"sortable": sortable, "passes_needed": needed},
        ["yes" if sortable else "no", f"passes needed: {needed}"],
    )
    return 0


def _cmd_stats(args) -> int:
    from .permutations import format_permutation, parse_permutation, statistics
    stats = statistics(parse_permutation(args.perm))
    _emit(
        args,
        {"perm": args.perm},
        {
            "descents": stats.descents,
            "ascents": stats.ascents,
            "runs": stats.runs,
            "rl_maxima": list(stats.rl_maxima),
            "type": stats.ptype,
        },
        [
            f"descents: {stats.descents}",
            f"ascents: {stats.ascents}",
            f"runs: {stats.runs}",
            f"rl-maxima: {format_permutation(stats.rl_maxima)}",
            f"type: {stats.ptype}",
        ],
    )
    return 0


def _cmd_pattern(args) -> int:
    from .permutations import contains_pattern, parse_permutation
    perm = parse_permutation(args.perm)
    patt = parse_permutation(args.q)
    found = contains_pattern(perm, patt)
    _emit(
        args,
        {"perm": args.perm, "q": args.q},
        {"contains": found},
        ["yes" if found else "no"],
    )
    return 0


def _cmd_fmap(args) -> int:
    from .permutations import format_permutation, parse_permutation, reduce_type1
    marked = reduce_type1(parse_permutation(args.perm))
    out = format_permutation(marked.perm)
    _emit(
        args,
        {"perm": args.perm},
        {"perm": out, "mark": marked.mark_rank},
        [f"perm: {out}", f"mark: {marked.mark_rank}"],
    )
    return 0


def _cmd_finv(args) -> int:
    from .permutations import format_permutation, parse_permutation, restore_type1
    grown = restore_type1((parse_permutation(args.perm), args.mark))
    out = format_permutation(grown)
    _emit(args, {"perm": args.perm, "mark": args.mark}, out, [out])
    return 0


def _count_w_brute(args) -> int:
    from . import counting
    counting.check_exhaustive(args.n)
    counting.w_formula(args.n, args.k)  # range check up front
    return counting.brute_force_w(args.n).row.get(args.k, 0)


def _count_trees_enum(args) -> int:
    from . import counting, trees
    trees.check_nodes(args.n + 1)
    counting.check_exhaustive(args.n)
    trees.count_trees(args.n, args.k)  # range check up front
    return sum(1 for _ in trees.enumerate_trees(args.n + 1, args.k))


#: (count target, --method) -> counter; each target's --method choices come from here
_COUNTERS = {
    ("w", "formula"): lambda args: twostack.counting.w_formula(args.n, args.k),
    ("w", "brute"): _count_w_brute,
    ("trees", "formula"): lambda args: twostack.trees.count_trees(args.n, args.k),
    ("trees", "enum"): _count_trees_enum,
    ("maps", "formula"): lambda args: twostack.counting.planar_map_count(args.f, args.pv),
    ("catalan", "formula"): lambda args: twostack.counting.catalan(args.n),
    ("total", "formula"): lambda args: twostack.counting.w_total(args.n),
    ("total", "brute"): lambda args: twostack.counting.brute_force_w(args.n).total(),
}

#: count target -> (help, the flags it requires)
_COUNT_TARGETS = {
    "w": ("2-stack sortable n-permutations with k runs", ("--n", "--k")),
    "trees": ("valid trees on n+1 nodes with k leaves", ("--n", "--k")),
    "maps": ("nonseparable planar maps with f+1 faces and pv+1 vertices", ("--f", "--pv")),
    "catalan": ("1-stack sortable n-permutations (Catalan numbers)", ("--n",)),
    "total": ("2-stack sortable n-permutations", ("--n",)),
}


def _cmd_count(args) -> int:
    value = _COUNTERS[args.what, args.method](args)
    params = {key: getattr(args, key) for key in ("n", "k", "f", "pv") if hasattr(args, key)}
    input_obj = {"what": args.what, "method": args.method, **params}
    text = str(value)
    _emit(args, input_obj, text, [text])
    return 0


def _cmd_table(args) -> int:
    from decimal import (
        MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext,
    )
    from . import counting
    # exact decimal counts print in linear time; str of an int is quadratic
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])
    with localcontext(exact):
        row = counting.w_table(args.n, Decimal(1)).row
    # each distinct count is converted once: the row is a palindrome,
    # W(n,k) = W(n,n+1-k), so that halves the work of printing it
    text = {count: str(count) for count in set(row.values())}
    n = args.n
    result, lines = None, []
    if args.format == "json":
        # counts as decimal strings: they outgrow 64-bit consumers quickly
        result = {"n": n, "rows": [{"k": k, "count": text[count]} for k, count in row.items()]}
    elif args.format == "csv":
        lines = ["n,k,count", *(f"{n},{k},{text[count]}" for k, count in row.items())]
    else:
        lines = [f"W({n},{k}) = {text[count]}" for k, count in row.items()]
    _emit(args, {"n": n}, result, lines)
    return 0


def _cmd_enumerate_perms(args) -> int:
    from . import counting
    from .permutations import descent_count, format_permutation
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    counting.check_exhaustive(args.n)  # without --filter, all n! permutations are scanned
    if args.runs is not None and not 1 <= args.runs <= max(args.n, 1):
        raise ValueError(f"--runs must be in 1..{max(args.n, 1)}, got {args.runs}")
    input_obj = {"what": "perms", "n": args.n, "runs": args.runs, "filter": args.filter}
    if args.filter == "2ss":
        perms = counting.two_stack_sortable(args.n)
    else:
        perms = iter_permutations(range(1, args.n + 1))
    for p in perms:
        if args.runs is not None and descent_count(p) + 1 != args.runs:
            continue
        out = format_permutation(p)
        _emit(args, input_obj, out, [out])
    return 0


def _cmd_enumerate_trees(args) -> int:
    from . import trees
    input_obj = {"what": "trees", "nodes": args.nodes, "leaves": args.leaves}
    for tree in trees.enumerate_trees(args.nodes, args.leaves):
        if args.format == "json":
            _emit(args, input_obj, trees.tree_to_json(tree), [])
        else:
            _emit(args, input_obj, None, [trees.format_tree(tree)])
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    report = verify.run_suite(args.suite, args.max_n)
    failures = report.failures
    lines = [f"FAIL {c.label}: expected {c.expected}, actual {c.actual}" for c in failures]
    verdict = f"FAIL ({len(failures)} mismatches)" if failures else "PASS"
    lines.append(f"suite {report.suite} (max n {report.max_n}): {verdict}, {len(report.checks)} checks")
    result = None
    if args.format == "json":
        checks = [
            {"label": c.label, "expected": str(c.expected), "actual": str(c.actual), "ok": c.ok}
            for c in report.checks
        ]
        result = {
            "suite": report.suite,
            "max_n": report.max_n,
            "passed": not failures,
            "checks": checks,
        }
    _emit(args, {"suite": args.suite, "max_n": report.max_n}, result, lines)
    return 1 if failures else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``twostack`` argument parser, built on first use and shared by the process."""
    parser = argparse.ArgumentParser(
        prog="twostack",
        description="Stack sorting, 2-stack sortable permutation counting, "
        "and the matching labeled-tree enumeration.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", parents=[fmt], help="apply stack-sorting passes")
    p.add_argument("perm", help='permutation, e.g. "3 5 2 4 1"')
    p.add_argument("--passes", type=int, default=1, help="number of passes (default 1)")
    p.set_defaults(handler=_cmd_sort, parser=p)

    p = sub.add_parser("sortable", parents=[fmt], help="test t-stack sortability")
    p.add_argument("perm")
    p.add_argument("--t", type=int, required=True, help="number of allowed passes")
    p.set_defaults(handler=_cmd_sortable, parser=p)

    p = sub.add_parser("stats", parents=[fmt], help="descents/runs/rl-maxima/type")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_stats, parser=p)

    p = sub.add_parser("pattern", parents=[fmt], help="pattern containment test")
    p.add_argument("perm")
    p.add_argument("--q", required=True, help='pattern, e.g. "2 3 1"')
    p.set_defaults(handler=_cmd_pattern, parser=p)

    p = sub.add_parser(
        "fmap", parents=[fmt],
        help="shrink a type-1 permutation to a marked (n-1)-permutation",
    )
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_fmap, parser=p)

    p = sub.add_parser("finv", parents=[fmt], help="inverse of fmap")
    p.add_argument("perm")
    p.add_argument("--mark", type=int, required=True, help="rank of the marked rl maximum")
    p.set_defaults(handler=_cmd_finv, parser=p)

    # no prefix matching on count and enumerate targets: it would read a flag
    # the target does not take as one it does (--n as --nodes, --f as --format)
    strict = {"parents": [fmt], "allow_abbrev": False}
    targets = sub.add_parser("count", help="exact counts").add_subparsers(
        dest="what", metavar="target", required=True
    )
    for what, (help_text, flags) in _COUNT_TARGETS.items():
        methods = tuple(method for name, method in _COUNTERS if name == what)
        p = targets.add_parser(what, help=help_text, **strict)
        for flag in flags:
            p.add_argument(flag, type=int, required=True)
        p.add_argument("--method", choices=methods, default="formula")
        p.set_defaults(handler=_cmd_count, parser=p)

    p = sub.add_parser("table", help="full W(n, 1..n) row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_table, parser=p)

    targets = sub.add_parser(
        "enumerate", help="stream permutations or trees, one per line, in canonical order"
    ).add_subparsers(dest="what", metavar="target", required=True)
    p = targets.add_parser("perms", help="permutations of 1..n", **strict)
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.add_argument("--runs", type=int, help="keep only permutations with this many runs")
    p.add_argument("--filter", choices=("2ss",), help="keep only 2-stack sortable permutations")
    p.set_defaults(handler=_cmd_enumerate_perms, parser=p)
    p = targets.add_parser("trees", help="valid trees on a given node count", **strict)
    p.add_argument("--nodes", type=int, required=True, help="tree node count")
    p.add_argument("--leaves", type=int, help="keep only trees with this many leaves")
    p.set_defaults(handler=_cmd_enumerate_trees, parser=p)

    p = sub.add_parser("verify", parents=[fmt], help="run a verification suite")
    p.add_argument("--suite", required=True, help="the suite to run; an unknown name lists them all")
    p.add_argument("--max-n", type=int, default=None, help="override the suite's bound")
    p.set_defaults(handler=_cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:  # named by the chosen command's parser, so its usage line is shown
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
