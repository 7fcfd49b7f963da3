"""
Exact combinatorics of stack sorting: the sorting operator, 2-stack
sortable permutation counting by runs, the equinumerous labeled plane
trees, and brute-force verification suites for every counting claim.
"""

from .counting import (
    CountTable,
    brute_force_w,
    catalan,
    joint_distribution_perms,
    joint_distribution_trees,
    planar_map_count,
    w_formula,
    w_table,
    w_total,
)
from .permutations import (
    MarkedPermutation,
    Statistics,
    as_permutation,
    contains_pattern,
    descent_count,
    format_permutation,
    identity,
    is_t_stack_sortable,
    parse_permutation,
    perm_type,
    reduce_type1,
    restore_type1,
    rl_maxima,
    sorting_passes,
    stack_sort,
    statistics,
)
from .trees import (
    count_trees,
    enumerate_trees,
    format_tree,
    is_valid_tree,
    leaf_count,
    parse_tree,
    tree_from_json,
    tree_to_json,
    tree_violations,
)
from .verify import SUITE_DEFAULTS, SUITE_NAMES, Check, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "Check",
    "MarkedPermutation",
    "Statistics",
    "SuiteReport",
    "SUITE_DEFAULTS",
    "SUITE_NAMES",
    "as_permutation",
    "brute_force_w",
    "catalan",
    "contains_pattern",
    "count_trees",
    "descent_count",
    "enumerate_trees",
    "format_permutation",
    "format_tree",
    "identity",
    "is_t_stack_sortable",
    "is_valid_tree",
    "joint_distribution_perms",
    "joint_distribution_trees",
    "leaf_count",
    "parse_permutation",
    "parse_tree",
    "perm_type",
    "planar_map_count",
    "reduce_type1",
    "restore_type1",
    "rl_maxima",
    "run_suite",
    "sorting_passes",
    "stack_sort",
    "statistics",
    "tree_from_json",
    "tree_to_json",
    "tree_violations",
    "w_formula",
    "w_table",
    "w_total",
]
