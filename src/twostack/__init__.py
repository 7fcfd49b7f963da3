"""
Exact combinatorics of stack sorting: the sorting operator, 2-stack
sortable permutation counting by runs, the equinumerous labeled plane
trees, and brute-force verification suites for every counting claim.

Importing the package loads none of its submodules.  Each re-exported
name, and each submodule reached as an attribute (``twostack.counting``),
imports its submodule on first use (PEP 562), so ``twostack.cli`` and each
command load only the modules they run.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the names the package re-exports from it
_EXPORTS = {
    "counting": (
        "CountTable",
        "brute_force_w",
        "catalan",
        "joint_distribution_perms",
        "joint_distribution_trees",
        "planar_map_count",
        "w_formula",
        "w_table",
        "w_total",
    ),
    "permutations": (
        "MarkedPermutation",
        "Statistics",
        "as_permutation",
        "contains_pattern",
        "descent_count",
        "format_permutation",
        "identity",
        "is_t_stack_sortable",
        "parse_permutation",
        "perm_type",
        "reduce_type1",
        "restore_type1",
        "rl_maxima",
        "sorting_passes",
        "stack_sort",
        "statistics",
    ),
    "trees": (
        "count_trees",
        "enumerate_trees",
        "format_tree",
        "is_valid_tree",
        "leaf_count",
        "parse_tree",
        "tree_from_json",
        "tree_to_json",
        "tree_violations",
    ),
    "verify": ("SUITE_DEFAULTS", "SUITE_NAMES", "Check", "SuiteReport", "run_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
