"""
Reference answers that do not call ``twostack``.

Each oracle works from a definition or a construction rather than from the
package's algorithm: stack sorting by the ``s(L n R) = s(L) s(R) n``
recursion, pattern containment by trying every index subset, W rows by the
term ratio with every division checked, trees by enumerating plane shapes
first and labels second.  Long inputs get answers known by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

#: Number of 2-stack sortable n-permutations for n = 1..10 (OEIS A000139).
FROZEN_TOTALS = (1, 2, 6, 22, 91, 408, 1938, 9614, 49335, 260130)


def exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"oracle division not exact: {num} / {den}")
    return quot


# --- permutations ----------------------------------------------------------


def stack_sort(perm) -> tuple[int, ...]:
    """One stack-sorting pass as ``s(L n R) = s(L) s(R) n``, without recursion."""
    pos = {v: i for i, v in enumerate(perm)}
    out: list[int] = []
    todo: list = [(0, len(perm))]  # half-open segments still to sort, or entries to emit
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            out.append(item)
            continue
        lo, hi = item
        if hi - lo == 1:
            out.append(perm[lo])
        elif hi > lo:
            top = max(perm[lo:hi])
            mid = pos[top]
            todo += [top, (mid + 1, hi), (lo, mid)]
    return tuple(out)


def is_identity(perm) -> bool:
    return list(perm) == list(range(1, len(perm) + 1))


def sort_passes(perm, passes: int) -> tuple[int, ...]:
    for _ in range(passes):
        perm = stack_sort(perm)
    return tuple(perm)


def passes_needed(perm) -> int:
    count = 0
    while not is_identity(perm):
        perm = stack_sort(perm)
        count += 1
    return count


def two_sortable(perm) -> bool:
    return is_identity(stack_sort(stack_sort(perm)))


def contains(perm, patt) -> bool:
    """Pattern containment by trying every subsequence of the pattern's length."""
    order = sorted(range(len(patt)), key=patt.__getitem__)
    return any(
        sorted(range(len(sub)), key=sub.__getitem__) == order
        for sub in combinations(perm, len(patt))
    )


def descents(perm) -> int:
    return sum(a > b for a, b in zip(perm, perm[1:]))


def rl_maxima(perm) -> tuple[int, ...]:
    """Entries larger than everything after them, largest first."""
    suffix_max, found = 0, []
    for x in reversed(perm):
        if x > suffix_max:
            found.append(x)
            suffix_max = x
    return tuple(reversed(found))


def perm_type(perm, maxima=None) -> int:
    """Type 1 iff a_t - 1 lies in the string between a_(t-1) and a_t."""
    maxima = maxima or rl_maxima(perm)
    last = perm[-1]
    start = perm.index(maxima[-2]) + 1 if len(maxima) > 1 else 0
    return 1 if last > 1 and last - 1 in perm[start:-1] else 2


def stats(perm, maxima=None) -> dict:
    """The statistics bundle in the CLI's JSON field names."""
    maxima = maxima or rl_maxima(perm)
    d = descents(perm)
    return {
        "descents": d,
        "ascents": len(perm) - 1 - d,
        "runs": d + 1,
        "rl_maxima": list(maxima),
        "type": perm_type(perm, maxima),
    }


def reduce_type1(perm) -> tuple[tuple[int, ...], int]:
    """Drop the last entry a_t, close the gap, mark a_t - 1 (rank from the top)."""
    last = perm[-1]
    shrunk = tuple(x - 1 if x > last else x for x in perm[:-1])
    return shrunk, rl_maxima(shrunk).index(last - 1) + 1


def grow_type1(perm, rank: int, maxima=None) -> tuple[int, ...]:
    """The type-1 permutation whose reduction is ``(perm, rank)``."""
    value = (maxima or rl_maxima(perm))[rank - 1]
    return tuple(x + 1 if x > value else x for x in perm) + (value + 1,)


def avoider(n: int, rng: random.Random) -> tuple[int, ...]:
    """
    A 231-avoiding n-permutation, built as L n R with every entry of L
    below every entry of R and both parts built the same way.
    """
    out: list[int] = []
    todo: list = [(1, n)]  # value ranges still to place, or entries to emit
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            out.append(item)
            continue
        lo, hi = item
        if lo > hi:
            continue
        cut = rng.randint(lo, hi)
        todo += [(cut, hi - 1), hi, (lo, cut - 1)]
    return tuple(out)


def planted_231(n: int, rng: random.Random) -> tuple[int, ...]:
    """A shuffled n-permutation (n >= 3) with a 231 occurrence written in."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    i, j, k = sorted(rng.sample(range(n), 3))
    low, mid, high = sorted((perm[i], perm[j], perm[k]))
    perm[i], perm[j], perm[k] = mid, high, low
    return tuple(perm)


# --- counting --------------------------------------------------------------


def w_row(n: int) -> list[int]:
    """W(n, 1..n) by the term ratio W(n, k+1) / W(n, k), every step exact."""
    row = [1]
    for k in range(1, n):
        num = row[-1] * (n + k) * (n + 1 - k) * (2 * n - 2 * k + 1) * (2 * n - 2 * k)
        row.append(exact_div(num, (2 * n - k) * (k + 1) * (2 * k) * (2 * k + 1)))
    return row


def w_cell(n: int, k: int) -> int:
    """W(n, k), stepping the term ratio from k = 1 only as far as needed."""
    value = 1
    for j in range(1, k):
        num = value * (n + j) * (n + 1 - j) * (2 * n - 2 * j + 1) * (2 * n - 2 * j)
        value = exact_div(num, (2 * n - j) * (j + 1) * (2 * j) * (2 * j + 1))
    return value


def w_total(n: int) -> int:
    """2 (3n)! / ((n+1)! (2n+1)!) by its ratio from n to n+1, every step exact."""
    total = 1
    for m in range(1, n):
        num = total * (3 * m + 1) * (3 * m + 2) * (3 * m + 3)
        total = exact_div(num, (m + 2) * (2 * m + 2) * (2 * m + 3))
    return total


def catalan(n: int) -> int:
    value = 1
    for m in range(n):
        value = exact_div(value * 2 * (2 * m + 1), m + 2)
    return value


# --- trees -----------------------------------------------------------------


def _shape_forests(nodes: int):
    """Ordered forests of unlabeled plane trees with ``nodes`` nodes in total."""
    if nodes == 0:
        yield ()
        return
    for first in range(1, nodes + 1):
        for head in _shapes(first):
            for rest in _shape_forests(nodes - first):
                yield (head, *rest)


def _shapes(nodes: int):
    """Unlabeled plane trees on ``nodes`` nodes; a shape is its tuple of children."""
    yield from _shape_forests(nodes - 1)


def _labelings(shape, is_root: bool):
    if not shape:
        yield (1,)
        return
    for kids in product(*(list(_labelings(child, False)) for child in shape)):
        total = sum(kid[0] for kid in kids)
        for label in (total,) if is_root else range(1, total + 1):
            yield (label, *kids)


def trees(nodes: int):
    """Every valid labeled tree on ``nodes`` nodes, shape by shape (not sorted)."""
    for shape in _shapes(nodes):
        if shape:
            yield from _labelings(shape, True)


def tree_valid(tree) -> bool:
    def ok(node, is_root):
        label, kids = node[0], node[1:]
        if not kids:
            return not is_root and label == 1
        total = sum(kid[0] for kid in kids)
        fits = label == total if is_root else 1 <= label <= total
        return fits and all(ok(kid, False) for kid in kids)

    return ok(tree, True)


def tree_nodes(tree) -> int:
    return 1 + sum(tree_nodes(kid) for kid in tree[1:])


def tree_leaves(tree) -> int:
    return 1 if len(tree) == 1 else sum(tree_leaves(kid) for kid in tree[1:])


def tree_text(tree) -> str:
    return "(" + " ".join([str(tree[0])] + [tree_text(kid) for kid in tree[1:]]) + ")"


def tree_json(tree) -> dict:
    return {"label": tree[0], "children": [tree_json(kid) for kid in tree[1:]]}


def tree_from_json(obj) -> tuple:
    return (obj["label"], *(tree_from_json(kid) for kid in obj["children"]))


def tree_parse(text: str) -> tuple:
    """Read an s-expression such as ``(2 (1) (1))`` back into a nested tuple."""
    stack: list[list] = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
        elif token == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(int(token))
    (tree,) = stack[0]
    return tree


def tree_fingerprint(tree_iter) -> tuple[int, int]:
    """Order-independent (count, hash sum) of a stream of trees."""
    count = acc = 0
    for tree in tree_iter:
        count += 1
        acc = (acc + hash(tree)) & 0xFFFFFFFFFFFFFFFF
    return count, acc


# --- verify suites ----------------------------------------------------------

#: The bound a suite runs to when none is given, for the suites run that way.
SUITE_DEFAULT_BOUNDS = {"symmetry": 200, "unimodality": 200, "map-substitution": 50}


def joint_rl(n: int) -> list:
    """Sorted ((runs, rl maxima), count) pairs over the 2-stack sortable n-permutations."""
    found = Counter(
        (descents(p) + 1, len(rl_maxima(p)))
        for p in permutations(range(1, n + 1)) if two_sortable(p)
    )
    return sorted(found.items())


def sortable_type1(n: int) -> int:
    """How many 2-stack sortable n-permutations are of type 1, by trying each."""
    return sum(
        1 for p in permutations(range(1, n + 1)) if perm_type(p) == 1 and two_sortable(p)
    )


def suite_expected(suite: str, max_n: int) -> list:
    """
    The expected side of every check a verify suite makes up to ``max_n``,
    in the suite's order, from the claim each check states.  How many
    there are follows from the suite's definition, so a suite that does
    less work does not match.
    """
    ns = range(1, max_n + 1)
    if suite == "catalan":
        return [v for n in ns for v in (catalan(n), catalan(n), 0)]
    if suite == "formula-vs-brute":
        return [v for n in ns for v in w_row(n)]
    if suite == "total":
        return [w_total(n) for n in ns]
    if suite == "lemma1":
        return [v for n in range(2, max_n + 1)
                for v in (factorial(n), 0, 0, 0, sortable_type1(n), 0, 0)]
    if suite == "tree-vs-perm":
        return [v for n in ns for v in w_row(n)] + [
            v for n in range(1, min(max_n, 6) + 1) for v in w_row(n)]
    if suite == "joint-rl":
        return [joint_rl(n) for n in ns]
    if suite == "symmetry":
        return [[] for _ in ns] + [[] for _ in range(min(max_n, 8))]
    if suite == "unimodality":
        return [v for n in ns for v in ([[], w_row(n)[n // 2 - 1]] if n % 2 == 0 else [[]])]
    if suite == "map-substitution":
        return [True] + [v for n in ns for v in w_row(n)]
    raise ValueError(f"no oracle for suite {suite!r}")
