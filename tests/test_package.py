import importlib

import pytest


@pytest.fixture
def twostack():
    # the package as imported now: a harness that re-imports it leaves an
    # older copy behind in modules that imported it at collection time
    return importlib.import_module("twostack")


# the package's exports, by the submodule that defines them
PUBLIC = {
    "counting": {
        "CountTable", "brute_force_w", "catalan", "joint_distribution_perms",
        "joint_distribution_trees", "planar_map_count", "w_formula", "w_table", "w_total",
    },
    "permutations": {
        "MarkedPermutation", "Statistics", "as_permutation", "contains_pattern", "descent_count",
        "format_permutation", "identity", "is_t_stack_sortable", "parse_permutation",
        "perm_type", "reduce_type1", "restore_type1", "rl_maxima", "sorting_passes",
        "stack_sort", "statistics",
    },
    "trees": {
        "count_trees", "enumerate_trees", "format_tree", "is_valid_tree", "leaf_count",
        "parse_tree", "tree_from_json", "tree_to_json", "tree_violations",
    },
    "verify": {"SUITE_DEFAULTS", "SUITE_NAMES", "Check", "SuiteReport", "run_suite"},
}


def test_each_export_is_the_object_its_submodule_defines(twostack):
    assert set(twostack.__all__) == set().union(*PUBLIC.values())
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"twostack.{module}")
        assert getattr(twostack, module) is submodule
        for name in names:
            assert getattr(twostack, name) is getattr(submodule, name), name


def test_star_import_binds_every_export(twostack):
    namespace = {}
    exec("from twostack import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(twostack.__all__)
    assert namespace["stack_sort"] is twostack.permutations.stack_sort


def test_dir_lists_every_export_and_submodule(twostack):
    assert set(twostack.__all__) | set(PUBLIC) <= set(dir(twostack))


def test_unknown_attribute_raises_attribute_error(twostack):
    with pytest.raises(AttributeError, match="'twostack' has no attribute 'no_such_name'"):
        twostack.no_such_name
    assert not hasattr(twostack, "no_such_name")
