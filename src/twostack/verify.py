"""
Named verification suites: each one replays a counting or bijection claim
against an independent brute-force route and reports every comparison.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Callable, Iterator, NamedTuple

from . import counting, trees
from .permutations import (
    MarkedPermutation,
    contains_pattern,
    descent_count,
    perm_type,
    reduce_type1,
    restore_type1,
    rl_maxima,
    stack_sort,
)


class Check(NamedTuple):
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class SuiteReport(NamedTuple):
    suite: str
    max_n: int
    checks: tuple[Check, ...]

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_total(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        yield Check(
            f"2-stack sortable total, n={n}",
            counting.w_total(n),
            counting.brute_force_w(n).total(),
        )


def _suite_formula_vs_brute(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        table = counting.brute_force_w(n)
        for k in range(1, n + 1):
            yield Check(f"W({n},{k})", counting.w_formula(n, k), table.row.get(k, 0))


def _suite_tree_vs_perm(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            yield Check(
                f"T({n},{k}) vs W({n},{k})",
                counting.w_formula(n, k),
                trees.count_trees(n, k),
            )
    for n in range(1, min(max_n, 6) + 1):
        for k in range(1, n + 1):
            enumerated = sum(1 for _ in trees.enumerate_trees(n + 1, k))
            yield Check(
                f"T({n},{k}) count table vs enumeration",
                trees.count_trees(n, k),
                enumerated,
            )


def _suite_joint_rl(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        yield Check(
            f"(runs, rl) over permutations vs (leaves, root) over trees, n={n}",
            sorted(counting.joint_distribution_perms(n).items()),
            sorted(counting.joint_distribution_trees(n).items()),
        )


def _suite_symmetry(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        row = counting.w_table(n).row
        bad = [k for k in range(1, n + 1) if row[k] != row[n + 1 - k]]
        yield Check(f"W({n},k) = W({n},{n}+1-k) for all k", [], bad)
    for n in range(1, min(max_n, 8) + 1):
        row = counting.brute_force_w(n).row
        bad = [k for k in range(1, n + 1) if row.get(k, 0) != row.get(n + 1 - k, 0)]
        yield Check(f"brute descent/ascent symmetry, n={n}", [], bad)


def _suite_unimodality(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        row = counting.w_table(n).row
        # W(n,k) > W(n,k-1) exactly while 2k <= n+1; exact integer compares
        bad = [k for k in range(2, n + 1) if (row[k] > row[k - 1]) != (2 * k <= n + 1)]
        yield Check(f"W({n},k)/W({n},k-1) > 1 iff 2k <= {n}+1", [], bad)
        if n % 2 == 0:
            yield Check(
                f"two-term peak W({n},{n // 2}) = W({n},{n // 2 + 1})",
                row[n // 2],
                row[n // 2 + 1],
            )


def _suite_map_substitution(max_n: int) -> Iterator[Check]:
    yield Check(
        "shifted substitution f=k-1, pv=n-k disagrees at n=3, k=2",
        True,
        counting.planar_map_count(1, 1) != counting.w_formula(3, 2),
    )
    for n in range(1, max_n + 1):
        row = counting.w_table(n).row
        for k in range(1, n + 1):
            yield Check(
                f"W({n},{k}) = maps(f={k}, pv={n + 1 - k})",
                row[k],
                counting.planar_map_count(k, n + 1 - k),
            )


def _suite_catalan(max_n: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        one_pass = 0
        avoiders = 0
        disagreements = 0
        ident = tuple(range(1, n + 1))
        for p in permutations(range(1, n + 1)):
            sortable = stack_sort(p) == ident
            avoids = not contains_pattern(p, (2, 3, 1))
            one_pass += sortable
            avoiders += avoids
            disagreements += sortable != avoids
        yield Check(f"1-stack sortable count, n={n}", counting.catalan(n), one_pass)
        yield Check(f"231-avoider count, n={n}", counting.catalan(n), avoiders)
        yield Check(f"1-stack sortable <=> 231-avoiding, n={n} disagreements", 0, disagreements)


def _suite_lemma1(max_n: int) -> Iterator[Check]:
    for n in range(2, max_n + 1):
        type2 = bad_round = bad_desc = bad_rl = 0
        for p in permutations(range(1, n + 1)):
            if perm_type(p) != 1:
                type2 += 1
                continue
            mp = reduce_type1(p)
            bad_round += restore_type1(mp) != p
            bad_desc += descent_count(mp.perm) != descent_count(p)
            bad_rl += len(rl_maxima(mp.perm)) < len(rl_maxima(p))
        # reduce_type1 maps the type-1 n-permutations one to one onto the
        # marked (n-1)-permutations, so the partition counts type 1 as these:
        # as n! - type2 it would hold by construction
        marked = bad_reverse = 0
        for q in permutations(range(1, n)):
            marks = len(rl_maxima(q))
            marked += marks
            for r in range(1, marks + 1):
                mp = MarkedPermutation(q, r)
                bad_reverse += reduce_type1(restore_type1(mp)) != mp
        yield Check(f"type-1/type-2 partition, n={n}", factorial(n), marked + type2)
        yield Check(f"restore(reduce(p)) = p on type-1, n={n}", 0, bad_round)
        yield Check(f"descents preserved on type-1, n={n}", 0, bad_desc)
        yield Check(f"rl maxima never decrease on type-1, n={n}", 0, bad_rl)

        sortable_images = [reduce_type1(p) for p in counting.two_stack_sortable(n) if perm_type(p) == 1]
        image = set(sortable_images)
        target = {
            MarkedPermutation(q, r)
            for q in counting.two_stack_sortable(n - 1)
            for r in range(1, len(rl_maxima(q)) + 1)
        }
        yield Check(f"injective on sortable type-1, n={n}", len(sortable_images), len(image))
        yield Check(f"image is all marked sortable, n={n}", 0, len(image ^ target))
        yield Check(f"reduce(restore(mp)) = mp, length {n - 1}", 0, bad_reverse)


#: The largest max_n the formula suites accept.  At 500 (2-core VM, Python
#: 3.11), symmetry and unimodality each take 0.12-0.18 s, reading one
#: term-ratio row per n, and map-substitution 2.0-2.6 s, one binomial
#: product per cell, growing about as max_n**3.3.
MAX_FORMULA_N = 500

#: The largest max_n the two n! sweep suites, catalan and lemma1, accept.
#: In a fresh process (2-core VM, Python 3.11), catalan takes 2.2-3.0 s at
#: its default 9 and 22-24 s at 10, which extrapolates to 4-5 minutes at 11;
#: lemma1 takes 2.8-3.3 s at 9, 28-34 s at 10 and 340 s (378 MB) at 11.
MAX_SWEEP_N = 10

#: suite -> (the generator of its checks, its customary max_n, its limit); a
#: suite refuses a max_n outside 1..its limit before doing any work
_SUITES: dict[str, tuple[Callable[[int], Iterator[Check]], int, int]] = {
    "catalan": (_suite_catalan, 9, MAX_SWEEP_N),
    "formula-vs-brute": (_suite_formula_vs_brute, 9, counting.MAX_EXHAUSTIVE_N),
    "tree-vs-perm": (_suite_tree_vs_perm, 8, trees.MAX_NODES - 1),
    "joint-rl": (_suite_joint_rl, 7, counting.MAX_EXHAUSTIVE_N),
    "symmetry": (_suite_symmetry, 200, MAX_FORMULA_N),
    "unimodality": (_suite_unimodality, 200, MAX_FORMULA_N),
    "map-substitution": (_suite_map_substitution, 50, MAX_FORMULA_N),
    "lemma1": (_suite_lemma1, 8, MAX_SWEEP_N),
    "total": (_suite_total, 9, counting.MAX_EXHAUSTIVE_N),
}

SUITE_NAMES = tuple(_SUITES)
SUITE_DEFAULTS = {name: default for name, (_, default, _) in _SUITES.items()}


def run_suite(name: str, max_n: int | None = None) -> SuiteReport:
    """
    Run one named suite up to ``max_n`` (each suite's customary bound when
    omitted) and return the full comparison report.  A suite refuses a
    ``max_n`` outside 1..its limit before doing any work.

    >>> report = run_suite("total", 3)
    >>> [(c.expected, c.actual) for c in report.checks]
    [(1, 1), (2, 2), (6, 6)]
    >>> report.passed
    True
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite, default, limit = _SUITES[name]
    bound = default if max_n is None else max_n
    if not 1 <= bound <= limit:
        raise ValueError(f"suite {name} takes max_n in 1..{limit}, got {bound}")
    return SuiteReport(name, bound, tuple(suite(bound)))
