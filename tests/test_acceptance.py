"""
Acceptance gate: every verify suite at its full documented bound, all with
exact integer comparisons.  The suites in ``twostack.verify`` are the one
implementation of each claim; this gate runs them and pins each bound and
each check count to a literal, so neither editing ``SUITE_DEFAULTS`` nor
trimming a suite can weaken the gate quietly.  One PASS line is printed per
criterion (run with -s to see them).
"""

from twostack.permutations import is_t_stack_sortable
from twostack.verify import SUITE_NAMES, run_suite

EXPECTED_TOTALS = [1, 2, 6, 22, 91, 408, 1938, 9614, 49335]  # n = 1..9

#: suite -> (documented bound, number of checks at that bound)
GATE = {
    "catalan": (9, 27),
    "formula-vs-brute": (9, 45),
    "tree-vs-perm": (8, 57),
    "joint-rl": (7, 7),
    "symmetry": (200, 208),
    "unimodality": (200, 300),
    "map-substitution": (50, 1276),
    "lemma1": (8, 49),
    "total": (9, 9),
}


def gate(name):
    """Run one suite at its default bound and hold it to the pinned literals."""
    bound, checks = GATE[name]
    report = run_suite(name)
    assert report.max_n == bound
    assert len(report.checks) == checks
    assert report.passed, [c.label for c in report.failures]
    return report


def ok(name):
    print(f"criterion {name}: PASS")


def test_gate_covers_every_suite():
    assert sorted(GATE) == sorted(SUITE_NAMES)


def test_criterion1_totals_match_closed_form():
    report = gate("total")
    assert [c.expected for c in report.checks] == EXPECTED_TOTALS
    assert [c.actual for c in report.checks] == EXPECTED_TOTALS
    ok("1 (totals, brute force vs closed form, n <= 9)")


def test_criterion2_refined_counts_match_formula():
    gate("formula-vs-brute")
    ok("2 (refined counts, brute force vs formula, n <= 9)")


def test_criterion3_tree_counts_match_formula():
    gate("tree-vs-perm")
    ok("3 (tree counts vs formula n <= 8, recursion vs enumeration n <= 6)")


def test_criterion4_joint_statistic_distributions_match():
    gate("joint-rl")
    ok("4 (joint (runs, rl) vs (leaves, root label), n <= 7)")


def test_criterion5_symmetry_and_unimodality():
    gate("symmetry")
    gate("unimodality")
    ok("5 (symmetry and unimodality n <= 200, brute symmetry n <= 8)")


def test_criterion6_marked_bijection():
    gate("lemma1")
    ok("6 (marked bijection: round trips, statistics, image, n <= 8)")


def test_criterion7_one_pass_sortable_iff_231_avoiding():
    gate("catalan")
    ok("7 (1-stack sortable <=> 231-avoiding, Catalan counts, n <= 9)")


def test_criterion7_witness_35241_sortable_in_two_passes():
    assert is_t_stack_sortable((3, 5, 2, 4, 1), 2)
    ok("7a (witness: 35241 sorts in two passes)")


def test_criterion7_witness_3241_not_two_pass_sortable():
    assert not is_t_stack_sortable((3, 2, 4, 1), 2)
    ok("7b (witness: 3241 does not sort in two passes)")


def test_criterion8_map_formula_substitution():
    gate("map-substitution")
    ok("8 (map-count substitution f=k, pv=n+1-k, n <= 50)")
