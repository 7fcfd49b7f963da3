"""
Rooted plane trees with positive integer labels subject to:

  * every leaf is labeled 1,
  * the root's label equals the sum of its children's labels,
  * every other internal node's label is at most the sum of its
    children's labels

(beta(1,0)-trees in the planar-map literature).  Children are ordered, so
two trees differing only in child order are distinct.  The smallest valid
tree has two nodes: a root over one leaf, both labeled 1.

A tree is represented as a nested tuple ``(label, child, child, ...)``
with a leaf being ``(1,)``.  The text form is the matching s-expression,
e.g. ``(3 (3 (2 (1) (1)) (1 (1))))``; JSON encodes each node as
``{"label": ..., "children": [...]}``.

Counting and enumeration are limited to trees on at most
:data:`MAX_NODES` nodes; nesting depth is not limited.
"""

from __future__ import annotations

import threading
from typing import Iterator

Tree = tuple  # (label, *children), recursively

#: The largest tree, in nodes, that :func:`count_trees` (trees on n+1
#: nodes) and :func:`enumerate_trees` accept.  Building the count table
#: costs about n**6 steps; up to the limit it takes some 6 s and 3.5 MB,
#: and it never grows past the limit.
MAX_NODES = 48


def _fold(tree: Tree, combine):
    """``combine(label, the children's results)`` bottom-up; a leaf takes no stack entry."""
    stack = [(None, iter((tree,)), [])]  # label, children left, results; root alone first
    while True:
        label, rest, done = stack[-1]
        for child in rest:
            if len(child) == 1:
                done.append(combine(child[0], []))
            else:
                stack.append((child[0], iter(child[1:]), []))
                break
        else:
            stack.pop()
            if not stack:
                return done[0]
            stack[-1][2].append(combine(label, done))


def leaf_count(tree: Tree) -> int:
    # not _fold, whose call per leaf costs the leaf filter of enumerate_trees
    leaves, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if len(node) == 1:
            leaves += 1
        else:
            stack.extend(node[1:])
    return leaves


def _label(node) -> int:
    """The label of a well-formed node; ValueError for anything else."""
    if not isinstance(node, tuple) or not node or isinstance(node[0], tuple):
        raise ValueError(f"malformed tree node: {node!r}")
    if node[0] is True or node[0] is False or not isinstance(node[0], int):
        raise ValueError(f"node label must be an integer: {node[0]!r}")
    return node[0]


def tree_violations(tree: Tree) -> list[str]:
    """
    Every labeling constraint the candidate tree breaks, each tagged with
    the offending node's child-index path ("root", "root.0", "root.0.1",
    ...), in preorder.  An empty list means the tree is valid.  The tree
    must be structurally well formed (nested tuples, integer labels);
    violations cover the label rules only.
    """
    _label(tree)
    violations: list[str] = []
    route: list = []  # "root", then the child indices down to the node on hand
    stack = [(tree, 0, "root")]  # node, depth, its step on the route
    while stack:
        node, depth, step = stack.pop()
        route[depth:] = (step,)
        label = node[0]
        problems = [f"label {label} is not positive"] if label < 1 else []
        if len(node) == 1:
            if not depth:
                problems.append("root has no children")
            elif label != 1:
                problems.append(f"leaf label {label} != 1")
        else:
            total = sum(map(_label, node[1:]))
            if not depth and label != total:
                problems.append(f"root label {label} != children sum {total}")
            elif depth and label > total:
                problems.append(f"label {label} > children sum {total}")
            stack.extend([(node[i], depth + 1, i - 1) for i in range(len(node) - 1, 0, -1)])
        if problems:
            path = ".".join(map(str, route))
            violations.extend([f"{path}: {problem}" for problem in problems])
    return violations


def is_valid_tree(tree: Tree) -> bool:
    return not tree_violations(tree)


def check_nodes(nodes: int) -> None:
    """Raise ValueError if trees on ``nodes`` nodes are past :data:`MAX_NODES`."""
    if nodes > MAX_NODES:
        raise ValueError(f"trees are limited to {MAX_NODES} nodes, got {nodes}")


# Lazy enumeration.  A tree is written in preorder as a token sequence: at
# the open node on top, either close it or open a child labeled 1, 2, ....
# Closing yields a tuple that is a prefix of every longer one, so taking
# the tokens in the order close < open 1 < open 2 < ... walks the trees in
# ascending nested-tuple order and nothing needs sorting.
#
# An open node's deficit is the number of leaves it still needs below it:
# its label minus its children's label sum (exactly, for the root; none
# for a non-root node labeled 1, which may stay a leaf).  Each unit of
# deficit costs at least one more node, so a branch is entered only if
# the deficits fit in the nodes left.  Nodes beyond the deficits can be
# padded in as a chain of 1s below any open non-root node, or below a root
# that still has a deficit, and nowhere else.  Every branch entered thus
# ends in a tree, and once the deficits use up every node left the rest of
# the tree is forced.

_LEAF = (1,)


def _complete(frames: list) -> Tree:
    """Close every open node after filling its deficit with leaves."""
    # a non-root node over more than its label gets no leaves: a tuple
    # repeated a negative number of times is empty
    node = None
    for depth in range(len(frames) - 1, -1, -1):
        label, total, kids = frames[depth]
        deficit = label - total if depth == 0 or label > 1 else 0
        last = () if node is None else (node,)
        node = (label, *kids, *last, *(_LEAF,) * deficit)
    return node


def _canonical_trees(nodes: int) -> Iterator[Tree]:
    for root in range(1, nodes):
        # the open nodes, root first: label, children's label sum, children
        frames = [[root, 0, []]]
        root_frame = frames[0]
        left, owed = nodes - 1, root  # nodes still to place; total deficit
        trail = []  # the tokens taken, each with what undoes it
        token = 0  # the next token to try: 0 closes, c > 0 opens a child labeled c
        while True:
            if owed == left:
                yield _complete(frames)
            else:
                top = frames[-1]
                label, total, kids = top
                depth = len(frames) - 1
                if token == 0:
                    token = 1
                    # a closed node owes nothing, so owed < left still; the
                    # spare nodes need an open non-root node or root deficit
                    if depth and (label == 1 or total >= label) and (
                        depth > 1 or root_frame[0] > root_frame[1]
                    ):
                        frames.pop()
                        frames[-1][2].append((label, *kids))
                        trail.append((0, top))
                        token = 0
                        continue
                if depth == 0:
                    before = label - total
                    after = before - token
                elif label == 1:
                    before = after = 0
                else:
                    before = label - total if label > total else 0
                    after = before - token if before > token else 0
                new_owed = owed - before + after + (token if token > 1 else 0)
                # a larger label owes no less, so the first misfit ends the node
                if after >= 0 and new_owed < left:
                    top[1] = total + token
                    trail.append((token, owed))
                    frames.append([token, 0, []])
                    left -= 1
                    owed = new_owed
                    token = 0
                    continue
            # undo the last token and try the one after it
            if not trail:
                break
            token, undo = trail.pop()
            if token == 0:
                frames[-1][2].pop()
                frames.append(undo)
            else:
                frames.pop()
                frames[-1][1] -= token
                left += 1
                owed = undo
            token += 1


def enumerate_trees(nodes: int, leaves: int | None = None) -> Iterator[Tree]:
    """
    Yield every valid tree on ``nodes`` nodes exactly once, restricted to
    ``leaves`` leaves when given.  Trees are emitted in ascending order of
    their nested-tuple form (labels compared numerically, children
    elementwise), which matches sorting their s-expressions with numeric
    label comparison.  The stream is lazy: the first tree comes at once,
    and memory stays proportional to ``nodes``.

    >>> [format_tree(t) for t in enumerate_trees(3)]
    ['(1 (1 (1)))', '(2 (1) (1))']
    """
    if nodes < 2:
        raise ValueError("a valid tree needs at least a root and one leaf")
    if leaves is not None and not 1 <= leaves <= nodes - 1:
        raise ValueError(f"leaf count must be in 1..{nodes - 1}, got {leaves}")
    check_nodes(nodes)
    found = _canonical_trees(nodes)
    if leaves is None:
        return found
    return (tree for tree in found if leaf_count(tree) == leaves)


# Counting.  A forest is a nonempty sequence of non-root subtrees; the
# forests on m nodes with label sum t are exactly the children of the
# trees on m+1 nodes with root label t.  _forests[m] maps (label sum,
# leaves) to the number of forests on m nodes, and _subtrees[m] maps
# (label, leaves) to the number of subtrees on m nodes, whose top label
# ranges over 1..t above a forest on m-1 nodes with label sum t.  Then
#
#     forests[m] = subtrees[m] + sum over m1 < m of subtrees[m1] * forests[m - m1]
#
# with * adding label sums and leaves, so each row is built from smaller
# ones.  The table is shared by the whole process and only grows, to the
# largest size asked for.

# row 0 is unused; on one node the only subtree, and forest, is a leaf
_subtrees: list[dict] = [{}, {(1, 1): 1}]
_forests: list[dict] = [{}, {(1, 1): 1}]
_table_lock = threading.Lock()


def _forest_row(m: int) -> dict:
    with _table_lock:
        for size in range(len(_forests), m + 1):
            subtrees: dict = {}
            for (total, leaves), count in _forests[size - 1].items():
                for label in range(1, total + 1):
                    subtrees[label, leaves] = subtrees.get((label, leaves), 0) + count
            forests = dict(subtrees)
            get = forests.get
            for head in range(1, size):
                rest = list(_forests[size - head].items())
                for (t1, l1), c1 in _subtrees[head].items():
                    for (t2, l2), c2 in rest:
                        key = (t1 + t2, l1 + l2)
                        forests[key] = get(key, 0) + c1 * c2
            _subtrees.append(subtrees)
            _forests.append(forests)
    return _forests[m]


def tree_counts(n: int) -> dict[tuple[int, int], int]:
    """
    The number of valid trees on n+1 nodes, keyed by (root label, leaf
    count).

    >>> sorted(tree_counts(3).items())
    [((1, 1), 1), ((1, 2), 1), ((2, 2), 3), ((3, 3), 1)]
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_nodes(n + 1)
    return dict(_forest_row(n))


def count_trees(n: int, k: int) -> int:
    """
    The number of valid trees on n+1 nodes with k leaves, read off the
    count table.  Exact integer arithmetic throughout.

    >>> count_trees(1, 1)
    1
    >>> count_trees(3, 2)
    4
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return sum(count for (_, leaves), count in tree_counts(n).items() if leaves == k)


def format_tree(tree: Tree) -> str:
    """Render a tree as an s-expression, e.g. ``(2 (1) (1))``."""
    return _fold(tree, lambda label, parts: f"({' '.join([str(label), *parts])})")


def parse_tree(text: str) -> Tree:
    """
    Parse the s-expression form of a labeled tree.  The label rules are
    not checked here, so invalid candidates can be parsed and then fed to
    :func:`tree_violations`.

    >>> parse_tree("(3 (3 (2 (1) (1)) (1 (1))))")
    (3, (3, (2, (1,), (1,)), (1, (1,))))
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes: list[list] = []  # label and children so far of each unclosed node
    tree = None
    stream = iter(tokens)
    for token in stream:
        if token == "(" and tree is None:
            label = next(stream, "")
            try:
                open_nodes.append([int(label)])
            except ValueError:
                raise ValueError(f"expected integer label, got {label!r}") from None
        elif token == ")" and open_nodes:
            node = tuple(open_nodes.pop())
            if open_nodes:
                open_nodes[-1].append(node)
            else:
                tree = node
        elif tree is not None:
            raise ValueError(f"trailing input after tree: {text!r}")
        else:
            raise ValueError(f"unexpected {token!r} in {text!r}")
    if open_nodes:
        raise ValueError(f"unexpected end of input: {text!r}")
    if tree is None:
        raise ValueError(f"expected '(' in {text!r}")
    return tree


def tree_to_json(tree: Tree) -> dict:
    """Encode as nested ``{"label": ..., "children": [...]}`` objects."""
    return _fold(tree, lambda label, children: {"label": label, "children": children})


def tree_from_json(obj: dict) -> Tree:
    """
    Decode the JSON form; ``children`` may be omitted for a leaf.  Anything
    but nested objects with an integer ``label`` and a list of
    ``children`` raises ValueError.
    """
    open_nodes = [([], iter([obj]))]  # label, children so far, children left; root alone first
    while True:
        done, rest = open_nodes[-1]
        for obj in rest:
            # exact types, as json.loads builds them: a bool label is no integer
            if type(obj) is not dict or "label" not in obj:
                raise ValueError(f"tree node must be an object with a label: {obj!r}")
            label = obj["label"]
            if type(label) is not int:
                raise ValueError(f"label must be an integer: {label!r}")
            children = obj.get("children", [])
            if type(children) is not list:
                raise ValueError(f"children must be a list: {children!r}")
            if children:
                open_nodes.append(([label], iter(children)))
                break
            done.append((label,))
        else:
            open_nodes.pop()
            if not open_nodes:
                return done[0]
            open_nodes[-1][0].append(tuple(done))
