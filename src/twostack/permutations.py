"""
Permutations of {1, ..., n} in one-line notation, and the stack-sorting
operator acting on them.

A permutation is handled as a tuple of the integers 1..n, each appearing
once; the empty tuple is the (unique) permutation of length 0.  All
functions are pure and all returned values are immutable.

The text format accepted by :func:`parse_permutation` is base-10 entries
separated by single spaces or commas, e.g. ``"3 5 2 4 1"`` or
``"3,5,2,4,1"``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import inf
from operator import gt
from typing import Iterable, NamedTuple, Sequence


def as_permutation(entries: Iterable[int]) -> tuple[int, ...]:
    """
    Freeze ``entries`` into a tuple, checking it is a permutation of 1..n.

    Repeats, gaps, non-positive values and entries that are not ints
    (floats, strings) or are bools are all rejected.  Other subclasses of
    int, such as ``IntEnum`` members, are accepted as they are.

    >>> as_permutation([3, 1, 2])
    (3, 1, 2)
    >>> as_permutation([1, 3])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2: (1, 3)
    """
    perm = tuple(entries)
    n = len(perm)
    # a float or bool equal to an int gets past the compares, and a str breaks min and max
    ints = all(issubclass(c, int) and c is not bool for c in set(map(type, perm)))
    # n distinct ints from 1 to n are 1..n in some order
    if not ints or len(set(perm)) != n or perm and (min(perm) != 1 or max(perm) != n):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    return perm


def parse_permutation(text: str) -> tuple[int, ...]:
    """
    Parse the space- or comma-separated text form of a permutation.

    >>> parse_permutation("3 5 2 4 1")
    (3, 5, 2, 4, 1)
    >>> parse_permutation("3,5,2,4,1")
    (3, 5, 2, 4, 1)
    """
    tokens = text.replace(",", " ").split()
    try:
        # int() would also take "_" digit groups and non-ASCII digits
        if "_" in text or not all(map(str.isascii, tokens)):
            raise ValueError
        entries = [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"not a sequence of integers: {text!r}") from None
    return as_permutation(entries)


def format_permutation(perm: Sequence[int]) -> str:
    """Render a permutation in the space-separated text form."""
    return " ".join(str(x) for x in perm)


def identity(n: int) -> tuple[int, ...]:
    """The identity permutation 1 2 ... n."""
    return tuple(range(1, n + 1))


def stack_sort(perm: Sequence[int]) -> tuple[int, ...]:
    """
    One pass of stack sorting.

    Entries are pushed onto a stack in input order; before pushing, any
    stacked entries smaller than the incoming one are popped to the output,
    and at the end the stack is flushed.  Equivalently, writing the input
    as L n R around its largest entry n, the output is
    ``stack_sort(L) stack_sort(R) n``.  The last entry of the output is
    always n, and the identity is a fixed point.

    >>> stack_sort((3, 5, 2, 4, 1))
    (3, 2, 1, 4, 5)
    >>> stack_sort((2, 3, 1))
    (2, 1, 3)
    >>> stack_sort(())
    ()
    """
    out: list[int] = []
    stack: list[int] = []
    for x in perm:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def _passes(perm: Sequence[int], most: int) -> tuple[int, tuple[int, ...]]:
    """
    (passes made, what they leave) for up to ``most`` :func:`stack_sort`
    passes of ``perm``, stopping at the identity; never more than n, as a
    permutation of 1..n sorts in n - 1.

    A pass leaves a settled prefix 1..lo and suffix hi+1..n in place:
    ``stack_sort(P M S) = P stack_sort(M) S``, so only ``cur[lo:hi]`` is
    sorted, and lo and hi only move inwards from pass to pass.  For input
    that is not a permutation these passes may differ from whole passes,
    but each keeps the multiset of entries, so such input still never
    reaches the identity and every caller's answer is the same.
    """
    cur = tuple(perm)
    lo, hi = 0, len(cur)
    most = min(most, hi)
    for made in range(most):
        while lo < hi and cur[lo] == lo + 1:
            lo += 1
        while lo < hi and cur[hi - 1] == hi:
            hi -= 1
        if lo == hi:
            return made, cur
        cur = (*cur[:lo], *stack_sort(cur[lo:hi]), *cur[hi:])
    return most, cur


def is_t_stack_sortable(perm: Sequence[int], t: int) -> bool:
    """
    True iff ``t`` passes of :func:`stack_sort` take ``perm`` to the
    identity.  Since the identity is a fixed point, sortability in t passes
    implies sortability in any larger number of passes.

    For t >= 2, the first t - 2 passes are plain :func:`stack_sort` calls and
    the last two are streamed through two stacks in series: whatever pops
    from the first is pushed into the second, and the pops from the second
    must come out as 1, 2, 3, ...  The answer is False at the first one
    that does not, so most inputs are rejected before they are read to the
    end, and no pass output is built.

    >>> is_t_stack_sortable((3, 5, 2, 4, 1), 2)
    True
    >>> is_t_stack_sortable((3, 2, 4, 1), 2)
    False
    """
    if t < 0:
        raise ValueError("number of passes must be >= 0")
    if t <= 1:
        _, cur = _passes(perm, t)
        return cur == identity(len(cur))
    if t > 2:
        _, perm = _passes(perm, t - 2)
    # both stacks stand on an inf that never pops; top1 and top2 are their tops
    first, second = [inf], [inf]
    top1 = top2 = inf
    need = 1
    for x in chain(perm, (inf,)):  # the last inf flushes the first stack
        while top1 < x:
            y = first.pop()
            top1 = first[-1]
            while top2 < y:
                if top2 != need:
                    return False
                need += 1
                second.pop()
                top2 = second[-1]
            second.append(y)
            top2 = y
        first.append(x)
        top1 = x
    # what the second stack still holds comes out top first
    return second[:0:-1] == list(range(need, len(perm) + 1))


def sorting_passes(perm: Sequence[int]) -> int:
    """
    The minimal number of stack-sorting passes needed to reach the
    identity.  At most n - 1 passes are ever required, so an input still
    unsorted after that many is not a permutation and raises ValueError.

    >>> sorting_passes((3, 5, 2, 4, 1))
    2
    >>> sorting_passes((1, 2, 3))
    0
    """
    passes, cur = _passes(perm, len(perm))
    if cur != identity(len(cur)):
        raise ValueError(f"not a permutation of 1..{len(cur)}: {tuple(perm)}")
    return passes


@lru_cache(maxsize=64)
def _bounds(patt: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """
    The search plan of :func:`contains_pattern`: for each position of a
    k-pattern, the earlier positions holding the nearest smaller and nearest
    larger values, with k and k + 1 standing for none, and the position to
    back up to when it finds no entry.  Costs k^2 steps.
    """
    k = len(patt)
    if len(set(patt)) < k:
        raise ValueError(f"pattern values must be distinct, got {patt}")
    values = (*patt, -inf, inf)
    bounds = []
    for j, x in enumerate(patt):
        lo, hi = k, k + 1
        for a in range(j):
            if values[lo] < patt[a] < x:
                lo = a
            elif x < patt[a] < values[hi]:
                hi = a
        bounds.append((lo, hi))
    read = set(chain.from_iterable(bounds))
    plan, back = [], 0
    for j, (lo, hi) in enumerate(bounds):
        plan.append((lo, hi, back))
        back = j if j in read else back
    return tuple(plan)


def contains_pattern(perm: Sequence[int], patt: Sequence[int]) -> bool:
    """
    True iff ``perm`` has a subsequence in the same relative order as the
    pattern ``patt``: indices i_1 < ... < i_k with perm[i_a] < perm[i_b]
    exactly when patt[a] < patt[b].

    Backtracking over index choices, without recursion.  Position 0 has
    no bounds, so each entry in turn fills it outright.  A candidate for a
    later pattern position needs one interval test: it must lie between the
    entries chosen for the earlier positions holding the nearest smaller
    and nearest larger pattern values.  Those positions are planned once
    per pattern by :func:`_bounds`, whose cache keeps the last 64 plans.
    The search stops as soon as the last position is filled.  A position no
    later one reads as a bound holds the earliest entry that fits, and a
    later entry would only start the rest of the search later, under the
    same bounds.  So a position that finds no entry backs up past every
    such position, to the nearest one that is read or to 0.  A pattern
    with a repeated value raises ValueError, whatever ``perm`` is.

    >>> contains_pattern((3, 5, 2, 4, 1), (2, 3, 1))
    True
    >>> contains_pattern((1, 2, 3), (2, 1))
    False
    """
    k = len(patt)
    if k < 1:
        raise ValueError("pattern must be nonempty")
    plan = _bounds(tuple(patt))
    n = len(perm)
    if k > n:
        return False
    if k == 1:
        return True

    # chosen[j] = perm[picked[j]] fills pattern position j (perm[first] fills
    # position 0); slots k and k + 1 sit below and above every entry
    chosen = [0] * k + [-inf, inf]
    picked = [0] * k

    last = k - 1
    for first in range(n - last):
        chosen[0] = perm[first]
        j, start = 1, first + 1
        while j:
            lo, hi, back = plan[j]
            low, high = chosen[lo], chosen[hi]
            for i in range(start, n - last + j):
                v = perm[i]
                if low < v < high:
                    if j == last:
                        return True
                    chosen[j], picked[j] = v, i
                    j, start = j + 1, i + 1
                    break
            else:  # no entry fits position j after the current choices: backtrack
                j = back
                start = picked[j] + 1
    return False


def descent_count(perm: Sequence[int]) -> int:
    """Number of positions i with perm[i] > perm[i+1]."""
    return sum(map(gt, perm, perm[1:]))


def _rl_scan(perm: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """
    Read a nonempty ``perm`` once from the right.  Return its right-to-left
    maxima in decreasing order, and its type (see :func:`perm_type`), or 0
    for no type when a_t != 1 and the entry a_t - 1 is missing.  The entries
    read before the first one larger than a_t form the final string s_t.
    """
    last = best = perm[-1]  # a_t, the first maximum read
    want = last - 1
    maxima = [last]
    ptype = 0
    for x in reversed(perm):
        if x > best:
            maxima.append(x)
            best = x
        elif x == want:  # the leftmost a_t - 1 is read last, and decides
            ptype = 1 if best == last else 2
    maxima.reverse()
    return tuple(maxima), 2 if last == 1 else ptype


def _typed_rl_scan(perm: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """:func:`_rl_scan`, raising ValueError where the type is undefined."""
    if not perm:
        raise ValueError("type is undefined for the empty permutation")
    maxima, ptype = _rl_scan(perm)
    if not ptype:
        raise ValueError(f"type is undefined: {perm[-1] - 1} is missing from {tuple(perm)}")
    return maxima, ptype


def rl_maxima(perm: Sequence[int]) -> tuple[int, ...]:
    """
    The right-to-left maxima of ``perm`` (entries larger than everything
    after them), in decreasing order a_1 > a_2 > ... > a_t.  For n >= 1,
    a_1 = n and a_t is the last entry.

    >>> rl_maxima((3, 1, 2))
    (3, 2)
    >>> rl_maxima((4, 1, 2, 3))
    (4, 3)
    """
    return _rl_scan(perm)[0] if perm else ()


def perm_type(perm: Sequence[int]) -> int:
    """
    Classify a nonempty permutation as type 1 or type 2.

    Writing perm as s_1 a_1 s_2 a_2 ... s_t a_t, with the a_i its
    right-to-left maxima and the s_i the strings between them, the
    permutation is of type 1 when the entry a_t - 1 lies inside the final
    string s_t, and of type 2 otherwise.  When a_t = 1 there is no entry
    a_t - 1, so the permutation is of type 2; in particular the
    1-permutation is of type 2.

    >>> perm_type((3, 1, 2))
    1
    >>> perm_type((1, 3, 2))
    2
    >>> perm_type((1,))
    2
    """
    return _typed_rl_scan(perm)[1]


class Statistics(NamedTuple):
    """Descent/run/right-to-left-maximum statistics of one permutation."""

    descents: int
    ascents: int
    runs: int
    rl_maxima: tuple[int, ...]
    ptype: int  # 1 or 2


def statistics(perm: Sequence[int]) -> Statistics:
    """
    All the statistics of a nonempty permutation in one bundle.

    >>> statistics((3, 1, 2))
    Statistics(descents=1, ascents=1, runs=2, rl_maxima=(3, 2), ptype=1)
    """
    if not perm:
        raise ValueError("statistics are undefined for the empty permutation")
    maxima, ptype = _typed_rl_scan(perm)
    d = descent_count(perm)
    return Statistics(d, len(perm) - 1 - d, d + 1, maxima, ptype)


class MarkedPermutation(NamedTuple):
    """A permutation with one right-to-left maximum singled out.

    ``mark_rank`` counts maxima from the largest, so rank 1 is the entry n.
    """

    perm: tuple[int, ...]
    mark_rank: int


def reduce_type1(perm: Sequence[int]) -> MarkedPermutation:
    """
    Shrink a type-1 permutation of length n to an (n-1)-permutation with a
    marked right-to-left maximum: delete the final entry a_t, decrement
    every larger entry by 1, and mark the entry a_t - 1, which has become a
    right-to-left maximum of the result.  The marked entry turns out to sit
    at rank rl(perm) in the new list of maxima.

    The number of descents is preserved and the number of right-to-left
    maxima never decreases.  Restricted to 2-stack sortable inputs this map
    is a bijection onto marked 2-stack sortable (n-1)-permutations, which
    is what makes it useful for counting; the map itself is total on all
    type-1 permutations.

    >>> reduce_type1((3, 1, 2))
    MarkedPermutation(perm=(2, 1), mark_rank=2)
    >>> reduce_type1((2, 1, 3))
    MarkedPermutation(perm=(2, 1), mark_rank=1)
    """
    perm = tuple(perm)
    maxima, ptype = _typed_rl_scan(perm)
    if ptype != 1:
        raise ValueError(f"not a type-1 permutation: {perm}")
    last = perm[-1]
    shrunk = tuple([x - 1 if x > last else x for x in perm[:-1]])
    return MarkedPermutation(shrunk, len(maxima))


def restore_type1(marked: tuple[Sequence[int], int]) -> tuple[int, ...]:
    """
    Inverse of :func:`reduce_type1`: append an entry one larger than the
    marked right-to-left maximum, incrementing all larger entries by one.
    The result is always of type 1.

    >>> restore_type1(MarkedPermutation((2, 1), 2))
    (3, 1, 2)
    >>> restore_type1(((1,), 1))
    (1, 2)
    """
    perm, rank = marked
    perm = tuple(perm)
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"mark rank must be an integer, got {rank!r}")
    maxima = rl_maxima(perm)
    if not 1 <= rank <= len(maxima):
        raise ValueError(
            f"mark rank {rank} out of range: {perm} has {len(maxima)} "
            "right-to-left maxima"
        )
    value = maxima[rank - 1]
    return (*[x + 1 if x > value else x for x in perm], value + 1)
