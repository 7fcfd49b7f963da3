"""
Exact counting of 2-stack sortable permutations: closed formulas, their
brute-force counterparts, and joint statistic distributions.

All counts are exact Python integers, but for the row that the ``table``
command prints: it starts :func:`w_table` from an exact ``decimal.Decimal``
1, so that the row prints in linear time.  Every formula division is checked
to be remainder-free, so a transcription slip raises instead of silently
truncating.  Brute-force counters grow the sortable permutations one first
entry at a time, admitting only the first entries that West's
characterisation allows, so no candidate is built and then rejected.
Levels below the budget are kept once built, with the descents and
right-to-left maxima of every permutation packed into one byte, which the
counters read instead of rescanning; the level at the budget is streamed
from the one below it.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress
from math import comb
from typing import Iterator, NamedTuple

#: The largest n that the exhaustive counters accept.  Levels below it are
#: kept once built (:func:`two_stack_sortable`); after n = 10 they hold 39 MB
#: and the process 56 MB.  At n = 11 (2-core VM, Python 3.11) the top level is
#: streamed from the kept levels, only the admitted first entries of each
#: sortable (n-1)-permutation: a cold :func:`brute_force_w` takes 4-5 s at
#: 58 MB, counting from level 10's statistics, and ``twostack enumerate perms
#: --filter 2ss`` prints it in 10-15 s; without ``--filter`` that command
#: scans all n! permutations in 45 s; ``twostack count trees --n 11 --k 6
#: --method enum`` lists the trees on 12 nodes in 3-5 s at 15 MB.  Each step
#: up multiplies the sortable ones by about 5.5 (n+1 for the scan).
MAX_EXHAUSTIVE_N = 11


def check_exhaustive(n: int) -> None:
    """Raise ValueError if ``n`` is past the exhaustive counters' budget."""
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive counts are limited to n <= {MAX_EXHAUSTIVE_N}, got {n}")


#: The largest n that the closed-form counters accept (f+pv-1 for
#: :func:`planar_map_count`, the n it stands for).  Past it the results
#: outgrow the 4300 digits Python prints by default: the totals first do at
#: n = 5197, the middle W(n, k) at n = 5199, Catalan numbers at n = 7153.
MAX_COUNT_N = 5000


def check_count(n: int, name: str = "n") -> None:
    """Raise ValueError if ``n`` is past the closed-form counters' budget."""
    if n > MAX_COUNT_N:
        raise ValueError(f"closed-form counts are limited to {name} <= {MAX_COUNT_N}, got {n}")


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"expected exact division: {num} / {den}")
    return quot


def w_formula(n: int, k: int) -> int:
    """
    The number of 2-stack sortable n-permutations with k runs:

        (n+k-1)! (2n-k)! / (k! (n+1-k)! (2k-1)! (2n-2k+1)!)

    Symmetric under k <-> n+1-k.

    >>> w_formula(3, 2)
    4
    >>> w_formula(4, 2)
    10
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    check_count(n)
    return _exact_div(comb(n + k - 1, 2 * k - 1) * comb(2 * n - k, k - 1), k * (n + 1 - k))


def w_total(n: int) -> int:
    """
    The number of 2-stack sortable n-permutations: 2 (3n)! / ((n+1)! (2n+1)!).

    >>> [w_total(n) for n in range(1, 6)]
    [1, 2, 6, 22, 91]
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_count(n)
    return _exact_div(2 * comb(3 * n, n), (n + 1) * (2 * n + 1))


def planar_map_count(f: int, pv: int) -> int:
    """
    The number of nonseparable rooted planar maps with f+1 faces and pv+1
    vertices:

        (2f+pv-2)! (2pv+f-2)! / (f! pv! (2f-1)! (2pv-1)!)

    Under f = k, pv = n+1-k this reproduces ``w_formula(n, k)``.  Beware
    the off-by-one lure f = k-1, pv = n-k: it already fails at n=3, k=2
    (it gives 1 where the run count is 4).

    >>> planar_map_count(1, 1)
    1
    >>> planar_map_count(2, 2)
    4
    """
    if f < 1 or pv < 1:
        raise ValueError(f"need f >= 1 and pv >= 1, got f={f}, pv={pv}")
    check_count(f + pv - 1, "f+pv-1")
    num = comb(2 * f + pv - 2, 2 * f - 1) * comb(2 * pv + f - 2, 2 * pv - 1)
    return _exact_div(num, f * pv)


def catalan(n: int) -> int:
    """
    The n-th Catalan number, which counts the 1-stack sortable
    (equivalently 231-avoiding) n-permutations.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    check_count(n)
    return _exact_div(comb(2 * n, n), n + 1)


class CountTable(NamedTuple):
    """One row of counts for fixed n, indexed by k in increasing order."""

    n: int
    row: dict[int, int]

    def total(self) -> int:
        return sum(self.row.values())


def w_table(n: int, one=1) -> CountTable:
    """
    The full formula row W(n, 1..n) as a :class:`CountTable`, by exact term
    ratio from W(n,1) = ``one`` (:func:`w_formula` is its closed-form oracle):

        W(n,k+1) = W(n,k) (n+k)(n+1-k)(2n-2k+1)(2n-2k) / ((2n-k)(k+1)(2k)(2k+1))

    which, with the common factor 2 of (2n-2k)/(2k) cancelled and a = n-k, is

        W(n,k+1) = W(n,k) (n+k)(a+1)(2a+1)a / ((n+a)(k+1)k(2k+1))

    The row holds ints by default.  Given ``one = decimal.Decimal(1)``, under
    a context whose precision holds every count and which traps Inexact,
    Rounded and InvalidOperation, it holds the same counts as exact
    Decimals, whose ``str`` takes linear time where an int's is quadratic:
    at n = 5000 that is most of the time of printing the row.  On short rows
    Decimal arithmetic is the slower one, so ints stay the default.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_count(n)
    row = {1: one}
    for k in range(1, n):
        a = n - k
        # the small factors first, so the big count is multiplied once; the
        # division is _exact_div's, inline, since a call per cell costs more
        num = row[k] * ((n + k) * (a + 1) * (2 * a + 1) * a)
        den = (n + a) * (k + 1) * k * (2 * k + 1)
        row[k + 1], rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"expected exact division: {num} / {den}")
    return CountTable(n, row)


def _barred(q):
    """
    Bitmask of the first entries v (bit v) that break sortability in front
    of the 2-stack sortable ``q``: v·q' is 2-stack sortable exactly when
    bit v is clear, where q' is q with its entries >= v raised by 1.

    By West, a permutation is 2-stack sortable iff it avoids 2341 and every
    3241 in it extends to a 35241.  Such a pattern in v·q' that q' lacks
    starts at v.  For each pair i < j with q_i < q_j, let m be the least
    entry after j; when m < q_i, v in (m, q_i] makes a 2341, and when in
    addition nothing before i exceeds q_j, v in (q_i, q_j] makes a 3241
    with no 5.  Since m only grows with j, the pairs of one i exclude one
    interval: (least m, q_i], or up to the greatest such q_j that exceeds
    everything before i.
    """
    low = [*accumulate(q[:0:-1], min)][::-1]  # low[j]: the least entry after position j
    low.append(len(q) + 1)
    mask = top = 0  # top: the greatest entry before position i
    for i, a in enumerate(q):
        end = bisect_left(low, a, i + 1)  # low only grows: from end on, no m < a
        if end > i + 1:
            peak = max(q[i + 1:end])
            if peak > a:
                j = i + 1
                while q[j] < a:
                    j += 1
                mask |= (2 << (peak if peak > top else a)) - (2 << low[j])
        top = max(top, a)
    return mask


def _admitted(n: int, below: tuple) -> Iterator[tuple[int, bytes, Iterator[int]]]:
    """
    For each first entry v in 1..n, yield (v, keep, stats): keep[i] says
    whether v·q' is 2-stack sortable for the i-th q of the level ``below``,
    where q' is q with its entries >= v raised by 1, and stats iterates over
    the packed statistics 16·descents + maxima of the kept v·q', in order.

    Raising keeps q's order, so q' has q's descents and maxima; the one new
    pair (v, q'_1) descends exactly when v > q_1, which adds 16, and v is a
    right-to-left maximum exactly when it exceeds all of q', that is when
    v = n, which adds 1.
    """
    perms, below_stats = below
    # bits 0..7 and 8..15 of each q's mask, a byte each, so that keep is one
    # bytes.translate per v: a list of bools would be 2 MB per v at n = 11
    low, high = bytearray(), bytearray()
    for bad in map(_barred, perms):
        low.append(bad & 255)
        high.append(bad >> 8)
    rises = array("B", (s + 16 for s in below_stats))
    for v in range(1, n + 1):
        masks, bit = (low, 1 << v) if v < 8 else (high, 1 << v - 8)
        keep = masks.translate(bytes(not byte & bit for byte in range(256)))
        # below is lexicographic, so the q with q_1 < v come first; () has no q_1
        split = bisect_left(perms, (v,)) if perms[0] else 0
        stats = compress(rises[:split] + below_stats[split:], keep)
        yield v, keep, stats if v < n else (s + 1 for s in stats)


def _raised(n: int, v: int, perms: tuple, keep: bytes) -> Iterator[tuple[int, ...]]:
    """Each v·q' that ``keep`` marks, q' being q in ``perms`` raised at >= v, in order."""
    shift = tuple(x + (x >= v) for x in range(n))
    for q in compress(perms, keep):
        yield (v, *[shift[x] for x in q])


# _levels[m] is (perms, stats): every 2-stack sortable m-permutation in
# lexicographic order, and one byte array with 16·descents + maxima of each
# at its index, maxima counting its right-to-left maxima; both are below 16
# while MAX_EXHAUSTIVE_N is.  Level m is built from _levels[m - 1].  Like
# trees._forests, the table is shared by the whole process and only grows,
# but two_stack_sortable asks it for no level at or past MAX_EXHAUSTIVE_N.
_levels: list[tuple[tuple, array]] = [(((),), array("B", [0]))]
_levels_lock = threading.Lock()


def _level(m: int) -> tuple[tuple, array]:
    with _levels_lock:
        for size in range(len(_levels), m + 1):
            below, perms, stats = _levels[-1], [], array("B")
            for v, keep, block in _admitted(size, below):
                perms.extend(_raised(size, v, below[0], keep))
                stats.extend(block)
            _levels.append((tuple(perms), stats))
    return _levels[m]


def two_stack_sortable(n: int) -> Iterator[tuple[int, ...]]:
    """
    Every 2-stack sortable n-permutation in lexicographic order; n = 0
    gives the empty permutation.  Limited to n <= :data:`MAX_EXHAUSTIVE_N`.

    Deleting the first entry keeps 2-stack sortability (in West's 2341 and
    3-5-241 with the 5 barred, the first entry is never the barred 5), so
    level n is grown from level n-1: each first entry v in front of each
    sortable (n-1)-permutation q raised by 1 at >= v, for the v that one
    scan of q admits (:func:`_barred`); no candidate is built and rejected.
    Levels below the budget are built once per process and kept as tuples,
    with the descents and right-to-left maxima of each permutation; the
    level at the budget is streamed from the kept one below it, so the
    table never holds more than n = 11 needs: 39 MB, nearly all of it
    level 10.

    >>> list(two_stack_sortable(0))
    [()]
    >>> sum(1 for _ in two_stack_sortable(4))
    22
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    check_exhaustive(n)
    if n < MAX_EXHAUSTIVE_N:
        return iter(_level(n)[0])
    below = _level(n - 1)
    return chain.from_iterable(_raised(n, v, below[0], keep) for v, keep, _ in _admitted(n, below))


def _tally(n: int) -> Counter:
    """
    {16·descents + maxima: count} over the 2-stack sortable n-permutations,
    read off the kept level, or at the budget streamed by :func:`_admitted`
    from the level below it without building any n-permutation.
    """
    check_exhaustive(n)
    if n < MAX_EXHAUSTIVE_N:
        return Counter(_level(n)[1])
    return Counter(chain.from_iterable(stats for _, _, stats in _admitted(n, _level(n - 1))))


def brute_force_w(n: int, jobs: int = 1) -> CountTable:
    """
    Count 2-stack sortable n-permutations by runs (descents + 1), over the
    statistics that :func:`two_stack_sortable`'s levels carry: the kept level
    below :data:`MAX_EXHAUSTIVE_N`, the level below it at the budget.
    ``jobs`` must be at least 1 and changes nothing; it is accepted for
    existing callers.

    Limited to n <= :data:`MAX_EXHAUSTIVE_N`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    row = Counter()
    for s, count in _tally(n).items():
        row[(s >> 4) + 1] += count
    return CountTable(n, {k: row[k] for k in sorted(row)})


def joint_distribution_perms(n: int) -> Counter:
    """
    Multiset of (runs, right-to-left maxima) pairs over all 2-stack
    sortable n-permutations; limited to n <= :data:`MAX_EXHAUSTIVE_N`.

    >>> sorted(joint_distribution_perms(2).items())
    [((1, 1), 1), ((2, 2), 1)]
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Counter({((s >> 4) + 1, s & 15): count for s, count in _tally(n).items()})


def joint_distribution_trees(n: int) -> Counter:
    """
    Multiset of (leaf count, root label) pairs over all valid trees on
    n+1 nodes, read off the tree count table.  Matches
    :func:`joint_distribution_perms` pair for pair.

    >>> sorted(joint_distribution_trees(2).items())
    [((1, 1), 1), ((2, 2), 1)]
    """
    from . import trees
    counts = trees.tree_counts(n)
    return Counter({(leaves, label): count for (label, leaves), count in counts.items()})
