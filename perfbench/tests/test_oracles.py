"""The benchmark's oracles agree with the package wherever both are cheap."""

import random
from itertools import permutations

import pytest

import twostack
from perfbench import oracles


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_oracles_match_package(n):
    for p in permutations(range(1, n + 1)):
        assert oracles.stack_sort(p) == twostack.stack_sort(p)
        assert oracles.two_sortable(p) == twostack.is_t_stack_sortable(p, 2)
        assert oracles.passes_needed(p) == twostack.sorting_passes(p)
        assert oracles.contains(p, (2, 3, 1)) == twostack.contains_pattern(p, (2, 3, 1))
        assert oracles.contains(p, (1, 3, 2)) == twostack.contains_pattern(p, (1, 3, 2))
        s = twostack.statistics(p)
        assert oracles.stats(p) == {
            "descents": s.descents, "ascents": s.ascents, "runs": s.runs,
            "rl_maxima": list(s.rl_maxima), "type": s.ptype,
        }
        if s.ptype == 1:
            marked = twostack.reduce_type1(p)
            assert oracles.reduce_type1(p) == marked
            assert oracles.grow_type1(*marked) == p


def test_counting_oracles_match_package():
    for n in range(1, 40):
        assert oracles.w_row(n) == [twostack.w_formula(n, k) for k in range(1, n + 1)]
        assert [oracles.w_cell(n, k) for k in range(1, n + 1)] == oracles.w_row(n)
        assert oracles.w_total(n) == twostack.w_total(n)
        assert oracles.catalan(n) == twostack.catalan(n)
    assert tuple(oracles.w_total(n) for n in range(1, 11)) == oracles.FROZEN_TOTALS


def test_exact_division_is_enforced():
    with pytest.raises(ArithmeticError):
        oracles.exact_div(7, 2)


@pytest.mark.parametrize("nodes", range(2, 8))
def test_tree_oracles_match_package(nodes):
    found = sorted(oracles.trees(nodes))
    assert found == list(twostack.enumerate_trees(nodes))
    assert len(found) == oracles.FROZEN_TOTALS[nodes - 2]
    assert oracles.tree_fingerprint(found) == oracles.tree_fingerprint(
        twostack.enumerate_trees(nodes))
    for t in found:
        assert oracles.tree_valid(t) and oracles.tree_nodes(t) == nodes
        assert oracles.tree_leaves(t) == twostack.leaf_count(t)
        assert oracles.tree_text(t) == twostack.format_tree(t)
        assert oracles.tree_parse(twostack.format_tree(t)) == t
        assert oracles.tree_json(t) == twostack.tree_to_json(t)
        assert oracles.tree_from_json(twostack.tree_to_json(t)) == t


def test_tree_validity_oracle_rejects_what_the_package_rejects():
    for text in ("(2 (1))", "(1 (2))", "(3 (2 (1)) (1))", "(1)", "(2 (1 (1)) (1))"):
        tree = twostack.parse_tree(text)
        assert oracles.tree_valid(tree) == twostack.is_valid_tree(tree), text


def test_constructed_long_inputs_have_their_known_answers():
    rng = random.Random(5)
    for n in (3, 17, 120):
        a = oracles.avoider(n, rng)
        assert sorted(a) == list(range(1, n + 1))
        assert not twostack.contains_pattern(a, (2, 3, 1))
        assert oracles.stack_sort(a) == tuple(range(1, n + 1))
        p = oracles.planted_231(n, rng)
        assert sorted(p) == list(range(1, n + 1))
        assert twostack.contains_pattern(p, (2, 3, 1))
        for base in (a, p):
            for rank in range(1, len(oracles.rl_maxima(base)) + 1):
                grown = oracles.grow_type1(base, rank)
                assert twostack.reduce_type1(grown) == (base, rank)


@pytest.mark.parametrize("suite", twostack.verify.SUITE_NAMES)
def test_suite_oracle_matches_every_check_the_package_makes(suite):
    for max_n in (1, 2, 5):
        report = twostack.verify.run_suite(suite, max_n)
        assert [c.expected for c in report.checks] == oracles.suite_expected(suite, max_n)
    for suite, bound in oracles.SUITE_DEFAULT_BOUNDS.items():
        assert twostack.verify.SUITE_DEFAULTS[suite] == bound
