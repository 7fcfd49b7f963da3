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
Every level up to the budget is kept once built, one byte per entry, with
the descents and right-to-left maxima of every permutation packed into one
more byte, which the counters read instead of rescanning.
"""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress
from math import comb
from typing import Iterator, NamedTuple

#: The largest n that the exhaustive counters accept.  Every level up to it
#: is kept once built (:func:`two_stack_sortable`): 3.9 MB after n = 10, where
#: a cold ``twostack count total --method brute`` takes 0.4-0.6 s at 19 MB;
#: 21 MB after n = 11, where it takes 2.0-3.1 s at 42 MB and ``twostack
#: enumerate perms --filter 2ss`` 6-8 s (2-core VM, Python 3.11, src not
#: compiled first).  Without ``--filter`` that command scans all n!
#: permutations in 45 s; ``twostack count trees --n 11 --k 6 --method enum``
#: lists the trees on 12 nodes in 3-5 s at 15 MB.  Each step up multiplies
#: the sortable ones by about 5.5 (n+1 for the scan).
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


def _perms(m: int, perms: bytes) -> Iterator[tuple[int, ...]]:
    """The m-permutations packed in ``perms``, m bytes each, as tuples."""
    if m == 0:
        return iter(((),))
    return zip(*[iter(perms)] * m)


# _levels[m] is (perms, stats): every 2-stack sortable m-permutation in
# lexicographic order, m bytes each in one buffer, and one byte array with
# 16·descents + right-to-left maxima of each at its index; both are below 16
# while MAX_EXHAUSTIVE_N is.  Level m is built from _levels[m - 1].  Like
# trees._forests, the table is shared by the whole process and only grows,
# and it refuses any level past MAX_EXHAUSTIVE_N.
_levels: list[tuple[bytearray, array]] = [(bytearray(), array("B", [0]))]
_levels_lock = threading.Lock()


def _level(m: int) -> tuple[bytearray, array]:
    """
    Level m, each missing size grown from the level below: v·q' for every
    first entry v that q admits (:func:`_barred`), q' being q raised by 1
    at >= v.  Raising keeps q's order, so q' has q's descents and maxima;
    the one new pair (v, q'_1) descends exactly when v > q_1, which adds
    16, and v is a right-to-left maximum exactly when it exceeds all of q',
    that is when v = size, which adds 1.
    """
    check_exhaustive(m)
    with _levels_lock:
        for size in range(len(_levels), m + 1):
            (below, below_stats), perms, stats = _levels[-1], bytearray(), array("B")
            # bits 0..7 and 8..15 of each q's mask, a byte each, so that keep is one
            # bytes.translate per v: a list of bools would be 2 MB per v at n = 11
            low, high = bytearray(), bytearray()
            for bad in map(_barred, _perms(size - 1, below)):
                low.append(bad & 255)
                high.append(bad >> 8)
            rises = array("B", (s + 16 for s in below_stats))
            firsts = below[::max(size - 1, 1)]  # level 0 holds no entry, so no q_1
            for v in range(1, size + 1):
                masks, bit = (low, 1 << v) if v < 8 else (high, 1 << v - 8)
                keep = masks.translate(bytes(not byte & bit for byte in range(256)))
                # spread holds v·q' for every q below, laid a column at a time,
                # q's entries >= v raised by 1 (none is 255, which would wrap);
                # each run of kept v·q' is then copied as one slice
                raise_v = bytes(range(v)) + bytes(range(v + 1, 256)) + b"\0"
                spread = bytearray([v]) * (len(keep) * size)
                for j in range(1, size):
                    spread[j::size] = below[j - 1::size - 1].translate(raise_v)
                for run in re.finditer(b"\x01+", keep):
                    perms += spread[run.start() * size:run.end() * size]
                # below is lexicographic, so the q with q_1 < v come first
                split = bisect_left(firsts, v)
                block = compress(rises[:split] + below_stats[split:], keep)
                stats.extend(block if v < size else (s + 1 for s in block))
            _levels.append((perms, stats))
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
    Every level up to n is built once per process and kept, one byte per
    entry, with the descents and right-to-left maxima of each permutation;
    the table holds 21 MB once level 11 is built, 15.4 MB of it the
    11-permutations.  The permutations come out as tuples.

    >>> list(two_stack_sortable(0))
    [()]
    >>> sum(1 for _ in two_stack_sortable(4))
    22
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _perms(n, _level(n)[0])


def brute_force_w(n: int, jobs: int = 1) -> CountTable:
    """
    Count 2-stack sortable n-permutations by runs (descents + 1): the runs
    marginal of :func:`joint_distribution_perms`.  ``jobs`` must be at
    least 1 and changes nothing; perfbench's perm-sweep calls
    ``brute_force_w(n, jobs=2)``, and ROADMAP item 4a deletes it once
    item 3 lands.

    Limited to n <= :data:`MAX_EXHAUSTIVE_N`.

    >>> brute_force_w(4).row
    {1: 1, 2: 10, 3: 10, 4: 1}
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    row = Counter()
    for (runs, _), count in joint_distribution_perms(n).items():
        row[runs] += count
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
    tally = Counter(_level(n)[1])  # {16·descents + maxima: count}
    return Counter({((s >> 4) + 1, s & 15): count for s, count in tally.items()})


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
