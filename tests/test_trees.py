import json
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from twostack.counting import brute_force_w, joint_distribution_trees, w_formula
from twostack.trees import (
    MAX_NODES,
    count_trees,
    enumerate_trees,
    format_tree,
    is_valid_tree,
    leaf_count,
    parse_tree,
    tree_counts,
    tree_from_json,
    tree_to_json,
    tree_violations,
)

# the 7-node example tree: root 3 over a 3, which covers a 2 over two
# leaves and a 1 over one leaf
EXAMPLE = (3, (3, (2, (1,), (1,)), (1, (1,))))

SMALLEST = (1, (1,))


# ------------------------------------------------------- oracle helpers


def node_count(tree):
    return format_tree(tree).count("(")


def plane_shapes(m):
    """All unlabeled plane tree shapes on m nodes, as child-tuples."""
    if m == 1:
        return [()]
    out = []
    for head_size in range(1, m):
        for head in plane_shapes(head_size):
            for rest in forest_shapes(m - 1 - head_size):
                out.append((head, *rest))
    return out


def forest_shapes(m):
    if m == 0:
        return [()]
    out = []
    for head_size in range(1, m + 1):
        for head in plane_shapes(head_size):
            for rest in forest_shapes(m - head_size):
                out.append((head, *rest))
    return out


def shape_leaves(shape):
    if not shape:
        return 1
    return sum(shape_leaves(c) for c in shape)


def labelings(shape, bound):
    """Attach every label assignment with labels in 1..bound (leaves get 1)."""
    if not shape:
        yield (1,)
        return
    per_child = [list(labelings(c, bound)) for c in shape]
    for kids in product(*per_child):
        for label in range(1, bound + 1):
            yield (label, *kids)


def brute_force_trees(m):
    """Generate-and-filter oracle: all shapes x all labelings, validated."""
    found = set()
    for shape in plane_shapes(m):
        for candidate in labelings(shape, shape_leaves(shape)):
            if is_valid_tree(candidate):
                found.add(candidate)
    return found


def materialised_and_sorted(nodes):
    """
    Order oracle: every forest of non-root subtrees built bottom-up and
    kept, then every tree sorted, as the package once enumerated.
    """
    subtrees = {1: [(1,)]}
    forests = {}

    def forest(m):
        if m not in forests:
            out = []
            for head_size in range(1, m + 1):
                for head in subtree(head_size):
                    if head_size == m:
                        out.append((head,))
                    else:
                        out.extend((head, *rest) for rest in forest(m - head_size))
            forests[m] = out
        return forests[m]

    def subtree(m):
        if m not in subtrees:
            subtrees[m] = [
                (label, *kids)
                for kids in forest(m - 1)
                for label in range(1, sum(kid[0] for kid in kids) + 1)
            ]
        return subtrees[m]

    return sorted((sum(kid[0] for kid in kids), *kids) for kids in forest(nodes - 1))


# The recursive walkers the package once had, kept as oracles for the
# explicit-stack ones.


def recursive_check_shape(tree):
    if not isinstance(tree, tuple) or len(tree) < 1 or isinstance(tree[0], tuple):
        raise ValueError(f"malformed tree node: {tree!r}")
    if tree[0] is True or tree[0] is False or not isinstance(tree[0], int):
        raise ValueError(f"node label must be an integer: {tree[0]!r}")
    for child in tree[1:]:
        recursive_check_shape(child)


def recursive_leaf_count(tree):
    if len(tree) == 1:
        return 1
    return sum(recursive_leaf_count(child) for child in tree[1:])


def recursive_tree_violations(tree):
    recursive_check_shape(tree)
    violations = []

    def walk(node, path, is_root):
        label, children = node[0], node[1:]
        if label < 1:
            violations.append(f"{path}: label {label} is not positive")
        if not children:
            if is_root:
                violations.append(f"{path}: root has no children")
            elif label != 1:
                violations.append(f"{path}: leaf label {label} != 1")
            return
        total = sum(child[0] for child in children)
        if is_root and label != total:
            violations.append(f"{path}: root label {label} != children sum {total}")
        elif not is_root and label > total:
            violations.append(f"{path}: label {label} > children sum {total}")
        for i, child in enumerate(children):
            walk(child, f"{path}.{i}", False)

    walk(tree, "root", True)
    return violations


def recursive_format_tree(tree):
    inner = " ".join([str(tree[0])] + [recursive_format_tree(c) for c in tree[1:]])
    return f"({inner})"


def recursive_tree_to_json(tree):
    return {"label": tree[0], "children": [recursive_tree_to_json(c) for c in tree[1:]]}


def recursive_tree_from_json(obj):
    if type(obj) is not dict or "label" not in obj:
        raise ValueError(f"tree node must be an object with a label: {obj!r}")
    label = obj["label"]
    if type(label) is not int:
        raise ValueError(f"label must be an integer: {label!r}")
    children = obj.get("children", [])
    if type(children) is not list:
        raise ValueError(f"children must be a list: {children!r}")
    return (label, *[recursive_tree_from_json(c) for c in children])


def relabeled(tree, at, delta):
    """The tree with the label of its node number ``at``, in preorder, moved by ``delta``."""
    seen = 0

    def rebuild(node):
        nonlocal seen
        seen += 1
        label = node[0] + delta if seen - 1 == at else node[0]
        return (label, *[rebuild(child) for child in node[1:]])

    return rebuild(tree)


any_tree = st.recursive(
    st.integers(-(10**20), 10**20).map(lambda label: (label,)),
    lambda kids: st.tuples(st.integers(-(10**20), 10**20), st.lists(kids, min_size=1, max_size=4))
    .map(lambda node: (node[0], *node[1])),
    max_leaves=40,
)


# ------------------------------------------------------------ validation


def test_example_tree_is_valid():
    assert tree_violations(EXAMPLE) == []
    assert node_count(EXAMPLE) == 7


def test_smallest_tree_is_valid():
    assert tree_violations(SMALLEST) == []


def test_root_sum_violation():
    problems = tree_violations((2, (1,)))
    assert len(problems) == 1
    assert "root label 2 != children sum 1" in problems[0]


def test_leaf_label_violation():
    problems = tree_violations((2, (2,)))
    assert any("leaf label 2 != 1" in v for v in problems)


def test_internal_label_bound_violation():
    # internal node labeled 3 over a single leaf (sum 1)
    bad = (3, (3, (1,)))
    assert any("label 3 > children sum 1" in v for v in tree_violations(bad))


def test_nonpositive_label_violation():
    assert any("not positive" in v for v in tree_violations((0, (1,), (1,))))


def test_single_node_is_not_valid():
    assert tree_violations((1,)) != []


def test_violation_paths_locate_the_node():
    bad = (2, (2, (2,), (1,)))
    paths = [v.split(":")[0] for v in tree_violations(bad)]
    assert "root.0.0" in paths  # the offending leaf


def test_violations_come_in_preorder_with_their_paths():
    assert tree_violations((0, (5, (2,), (1, (0,))), (1,))) == [
        "root: label 0 is not positive",
        "root: root label 0 != children sum 6",
        "root.0: label 5 > children sum 3",
        "root.0.0: leaf label 2 != 1",
        "root.0.1: label 1 > children sum 0",
        "root.0.1.0: label 0 is not positive",
        "root.0.1.0: leaf label 0 != 1",
    ]
    assert tree_violations((3, (1,), (2, (1,), (-1,)), (1,), (4, (1,)))) == [
        "root: root label 3 != children sum 8",
        "root.1: label 2 > children sum 0",
        "root.1.1: label -1 is not positive",
        "root.1.1: leaf label -1 != 1",
        "root.3: label 4 > children sum 1",
    ]


def test_malformed_shapes_raise():
    with pytest.raises(ValueError):
        tree_violations(("x", (1,)))
    with pytest.raises(ValueError):
        tree_violations(((1,), (1,)))
    with pytest.raises(ValueError):
        tree_violations(())
    with pytest.raises(ValueError):
        tree_violations((True, (1,)))
    with pytest.raises(ValueError):
        tree_violations((2, (1,), (True,)))
    # children that a label sum would trip over
    for child in (("x",), (), 5, [1], ((1,),)):
        with pytest.raises(ValueError):
            tree_violations((2, (1,), child))


# ------------------------------------------------------------- accessors


def test_leaf_count_and_root_label():
    assert leaf_count(EXAMPLE) == 3
    assert leaf_count(SMALLEST) == 1
    assert leaf_count((3, (1,), (1,), (1,))) == 3


# ------------------------------------------------------------ enumeration


def test_enumerate_counts_frozen():
    assert len(list(enumerate_trees(2))) == 1
    assert len(list(enumerate_trees(4, 2))) == 4
    assert len(list(enumerate_trees(4))) == 6


def test_enumerate_domain_errors():
    with pytest.raises(ValueError):
        list(enumerate_trees(1))
    with pytest.raises(ValueError):
        list(enumerate_trees(4, 4))
    with pytest.raises(ValueError):
        list(enumerate_trees(4, 0))


def test_enumerate_is_sorted_and_distinct():
    for m in range(2, 7):
        out = list(enumerate_trees(m))
        assert out == sorted(out)
        assert len(out) == len(set(out))


def test_enumerate_soundness():
    for m in range(2, 7):
        for tree in enumerate_trees(m):
            assert tree_violations(tree) == []
            assert node_count(tree) == m


def test_enumerate_completeness_against_filter_oracle():
    for m in range(2, 7):
        assert set(enumerate_trees(m)) == brute_force_trees(m)


def test_enumerate_leaf_filter_partitions():
    for m in range(2, 7):
        whole = list(enumerate_trees(m))
        by_k = [t for k in range(1, m) for t in enumerate_trees(m, k)]
        assert sorted(by_k) == whole


def test_leaf_restricted_stream_walks_no_finished_tree(monkeypatch):
    def not_allowed(tree):
        raise AssertionError("walked a finished tree to count its leaves")

    monkeypatch.setattr("twostack.trees.leaf_count", not_allowed)
    for m in range(2, 9):
        for k in range(1, m):
            assert sum(1 for _ in enumerate_trees(m, k)) == count_trees(m - 1, k)


def test_single_leaf_tree_is_the_all_ones_path():
    for m in range(2, 9):
        only = list(enumerate_trees(m, 1))
        assert len(only) == 1
        node, depth = only[0], 0
        while node is not None:
            assert node[0] == 1 and len(node) <= 2
            depth += 1
            node = node[1] if len(node) == 2 else None
        assert depth == m


@pytest.mark.parametrize("nodes", range(2, 11))
def test_stream_equals_materialise_and_sort_oracle(nodes):
    # 10 nodes is the size the benchmark streams; the leaf filters stop at 9
    expected = materialised_and_sorted(nodes)
    assert list(enumerate_trees(nodes)) == expected
    for k in range(1, nodes) if nodes < 10 else ():
        assert list(enumerate_trees(nodes, k)) == [t for t in expected if leaf_count(t) == k]


def test_first_tree_arrives_at_once():
    start = time.perf_counter()
    first = next(iter(enumerate_trees(14)))
    assert time.perf_counter() - start < 0.05
    assert node_count(first) == 14 and is_valid_tree(first)


def test_enumerate_rejects_more_than_the_budget():
    assert node_count(next(iter(enumerate_trees(MAX_NODES)))) == MAX_NODES
    with pytest.raises(ValueError, match="limited"):
        enumerate_trees(MAX_NODES + 1)
    with pytest.raises(ValueError, match="limited"):
        enumerate_trees(3000, 2)


# --------------------------------------------------------------- counting


def test_count_trees_frozen():
    assert count_trees(1, 1) == 1
    assert count_trees(2, 1) == 1
    assert count_trees(2, 2) == 1
    assert count_trees(3, 2) == 4
    assert count_trees(4, 2) == 10


def test_count_trees_domain_errors():
    for n, k in [(0, 1), (3, 0), (3, 4), (-1, -1)]:
        with pytest.raises(ValueError):
            count_trees(n, k)


def test_count_trees_agrees_with_enumeration():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert count_trees(n, k) == sum(1 for _ in enumerate_trees(n + 1, k))


def test_count_trees_agrees_with_brute_force_runs():
    # trees on n+1 nodes with k leaves match sortable permutations by runs
    for n in range(1, 9):
        row = brute_force_w(n).row
        for k in range(1, n + 1):
            assert count_trees(n, k) == row.get(k, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_count_table_matches_enumerated_tally(n):
    found = list(enumerate_trees(n + 1))
    by_root = Counter((tree[0], leaf_count(tree)) for tree in found)
    assert tree_counts(n) == dict(by_root)
    by_leaves = Counter((leaf_count(tree), tree[0]) for tree in found)
    assert joint_distribution_trees(n) == by_leaves


def test_count_rows_match_formula():
    for n in range(1, 31):
        assert [count_trees(n, k) for k in range(1, n + 1)] == [
            w_formula(n, k) for k in range(1, n + 1)
        ]


def test_counting_rejects_more_than_the_budget(monkeypatch):
    for call in (
        lambda: count_trees(MAX_NODES, 1),
        lambda: count_trees(10**6, 3),
        lambda: tree_counts(MAX_NODES),
        lambda: joint_distribution_trees(MAX_NODES),
    ):
        with pytest.raises(ValueError, match="limited"):
            call()
    monkeypatch.setattr("twostack.trees.MAX_NODES", 6)
    assert count_trees(5, 2) == 20  # trees on 6 nodes
    with pytest.raises(ValueError, match="limited"):
        count_trees(6, 2)


# ------------------------------------------------------------- text forms


def test_format_tree_frozen():
    assert format_tree(EXAMPLE) == "(3 (3 (2 (1) (1)) (1 (1))))"
    assert format_tree(SMALLEST) == "(1 (1))"
    assert format_tree((1,)) == "(1)"


def test_parse_tree_round_trip_enumerated():
    for m in range(2, 7):
        for tree in enumerate_trees(m):
            assert parse_tree(format_tree(tree)) == tree


def test_parse_tree_accepts_invalid_candidates():
    # bad labelings still parse, so they can be fed to the validator
    assert parse_tree("(2 (1))") == (2, (1,))
    assert parse_tree("(0 (1))") == (0, (1,))


@pytest.mark.parametrize(
    "text",
    ["", "(", "()", "(1", "(1))", "(1 2)", "(a (1))", "(1) (1)"],
)
def test_parse_tree_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_tree(text)


def test_parse_tree_is_not_limited_by_nesting_depth():
    depth = 3000
    tree = parse_tree("(1 " * depth + ")" * depth)
    for _ in range(depth - 1):
        assert len(tree) == 2 and tree[0] == 1
        tree = tree[1]
    assert tree == (1,)


def test_every_tree_function_takes_any_nesting_depth():
    # compared through the text form: == on nested tuples itself recurses
    depth = 3000
    chain = parse_tree("(1 " * depth + ")" * depth)
    text = "(1 " * (depth - 1) + "(1)" + ")" * (depth - 1)
    assert format_tree(chain) == text
    encoded = tree_to_json(chain)
    node = encoded
    for _ in range(depth - 1):
        assert node["label"] == 1 and len(node["children"]) == 1
        node = node["children"][0]
    assert node == {"label": 1, "children": []}
    assert format_tree(tree_from_json(encoded)) == text
    assert tree_violations(chain) == [] and is_valid_tree(chain)
    assert leaf_count(chain) == 1
    zeros = parse_tree("(0 " * depth + ")" * depth)
    assert tree_violations(zeros) == [
        f"root{'.0' * d}: label 0 is not positive" for d in range(depth)
    ] + [f"root{'.0' * (depth - 1)}: leaf label 0 != 1"]
    assert not is_valid_tree(zeros)


def test_walkers_match_the_recursive_oracles():
    # every tree on at most 8 nodes, and a copy of each with one label moved
    # up or down by 1, the node and the direction changing from tree to tree
    for i, tree in enumerate(t for m in range(2, 9) for t in enumerate_trees(m)):
        broken = relabeled(tree, i % node_count(tree), -1 if i % 2 else 1)
        for candidate in (tree, broken):
            assert tree_violations(candidate) == recursive_tree_violations(candidate)
            assert format_tree(candidate) == recursive_format_tree(candidate)
            assert tree_to_json(candidate) == recursive_tree_to_json(candidate)
            encoded = recursive_tree_to_json(candidate)
            assert tree_from_json(encoded) == recursive_tree_from_json(encoded) == candidate
            assert leaf_count(candidate) == recursive_leaf_count(candidate)


def test_format_tree_matches_the_recursive_oracle_on_nine_nodes():
    # the trees the benchmark writes, and a copy of each with one label moved
    for i, tree in enumerate(enumerate_trees(9)):
        broken = relabeled(tree, i % 9, -1 if i % 2 else 1)
        assert format_tree(tree) == recursive_format_tree(tree)
        assert format_tree(broken) == recursive_format_tree(broken)


@given(any_tree)
def test_text_and_json_round_trips(tree):
    assert parse_tree(format_tree(tree)) == tree
    assert tree_from_json(tree_to_json(tree)) == tree
    assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree


@pytest.mark.parametrize(
    "obj",
    [
        {"label": True},
        {"label": 2, "children": [{"label": False}]},
        {"label": 1.0},
        {"label": "1"},
        {"children": []},
        [1],
        None,
        {"label": 2, "children": [[1], {"label": 1}]},
        {"label": 1, "children": {"label": 1}},
        {"label": 1, "children": "(1)"},
        {"label": 1, "children": {}},
        {"label": 1, "children": None},
    ],
)
def test_tree_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        tree_from_json(obj)


def test_json_round_trip():
    encoded = tree_to_json(EXAMPLE)
    assert encoded["label"] == 3
    assert len(encoded["children"]) == 1
    assert tree_from_json(encoded) == EXAMPLE
    assert tree_from_json({"label": 1}) == (1,)
