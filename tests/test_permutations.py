import re
from collections import Counter
from enum import IntEnum
from itertools import combinations, permutations, product
from math import factorial
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import twostack.permutations as P
from twostack.permutations import (
    _bounds,
    as_permutation,
    contains_pattern,
    descent_count,
    format_permutation,
    identity,
    is_t_stack_sortable,
    parse_permutation,
    perm_type,
    rl_maxima,
    sorting_passes,
    stack_sort,
    statistics,
)


def perms(max_n=20):
    """Random permutations of 1..n for hypothesis, n up to max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


def stack_sort_by_splitting(p):
    """Independent oracle: the recursive rule L n R -> sort(L) sort(R) n."""
    if not p:
        return ()
    i = p.index(max(p))
    return stack_sort_by_splitting(p[:i]) + stack_sort_by_splitting(p[i + 1 :]) + (p[i],)


def layered(n, cuts):
    """The direct sum of decreasing blocks of 1..n, split at ``cuts``."""
    ends = [0, *sorted(cuts), n]
    return tuple(v for a, b in zip(ends, ends[1:]) for v in range(b, a, -1))


def shaped(lengths):
    """Permutations of 1..n, n drawn from ``lengths``: random, layered or reverse
    layered (the identity and the decreasing one are both layered), so that
    long inputs avoid many patterns."""

    def of_length(n):
        layers = st.sets(st.integers(1, n)).map(lambda cuts: layered(n, cuts))
        return st.permutations(identity(n)).map(tuple) | layers | layers.map(lambda p: p[::-1])

    return lengths.flatmap(of_length)


def sorted_by_composed_passes(p, t):
    """Independent oracle for the streamed predicate: t whole stack_sort
    passes, then one compare with the identity."""
    cur = tuple(p)
    for _ in range(t):
        cur = stack_sort(cur)
    return cur == identity(len(cur))


def passes_to_sort(p):
    """Independent oracle for sorting_passes: whole stack_sort passes, counted
    until the identity."""
    count, ident = 0, identity(len(p))
    while p != ident:
        p, count = stack_sort(p), count + 1
    return count


def one_entry_changed(p):
    """A permutation with one entry overwritten, so the result holds a repeat
    or an out-of-range value but otherwise still sorts like ``p``."""
    return st.tuples(st.integers(0, len(p) - 1), st.integers(-1, len(p) + 1)).map(
        lambda iv: p[: iv[0]] + (iv[1],) + p[iv[0] + 1 :]
    )


def contains_by_combinations(p, q):
    """Independent oracle: some subsequence of q's length, read in the order
    of q's values, comes out ascending."""
    order = sorted(range(len(q)), key=q.__getitem__)
    return any(sorted(sub) == [sub[i] for i in order] for sub in combinations(p, len(q)))


def avoiding_231(n, rng):
    """A 231-avoider of 1..n: push 1..n in order through one stack, popping at
    random, and invert the output; the outputs of a stack avoid 312, and a
    permutation avoids 231 exactly when its inverse avoids 312."""
    out, stack = [], []
    for v in range(1, n + 1):
        stack.append(v)
        while stack and rng.random() < 0.5:
            out.append(stack.pop())
    out += reversed(stack)
    inverse = [0] * n
    for i, v in enumerate(out, 1):
        inverse[v - 1] = i
    return tuple(inverse)


class CountedReads(tuple):
    """A tuple that counts how often its entries are read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def read_positions(q):
    """Independent oracle for the plan: the positions of ``q`` that some later
    position bounds itself by, i.e. that hold the nearest smaller or the
    nearest larger value among the positions before it."""
    read = set()
    for m in range(1, len(q)):
        smaller = [a for a in range(m) if q[a] < q[m]]
        larger = [a for a in range(m) if q[a] > q[m]]
        if smaller:
            read.add(max(smaller, key=q.__getitem__))
        if larger:
            read.add(min(larger, key=q.__getitem__))
    return read


def maxima_at(p):
    """Independent oracle: the positions of the entries larger than everything
    after them (the right-to-left maxima)."""
    return [i for i, x in enumerate(p) if all(x > y for y in p[i + 1 :])]


def type_by_split(p):
    """Independent oracle for a permutation: write p as s_1 a_1 ... s_t a_t
    around its right-to-left maxima; type 1 iff a_t - 1 lies in the final
    string s_t (never when a_t = 1)."""
    last = p[-1]
    ends = maxima_at(p)
    final = p[ends[-2] + 1 : -1] if len(ends) > 1 else p[:-1]
    return 1 if last - 1 in final else 2


def check_statistics_by_definitions(p):
    d = sum(a > b for a, b in zip(p, p[1:]))
    maxima = tuple(p[i] for i in maxima_at(p))
    ptype = type_by_split(p)
    assert statistics(p) == (d, len(p) - 1 - d, d + 1, maxima, ptype)
    assert rl_maxima(p) == maxima
    assert perm_type(p) == ptype


# ---------------------------------------------------------------- parsing


def test_as_permutation_accepts_and_freezes():
    assert as_permutation([3, 1, 2]) == (3, 1, 2)
    assert as_permutation(()) == ()


@pytest.mark.parametrize(
    "bad", [[1, 1], [2, 3], [0, 1], [-1, 2, 1], [1, 2, 4], [2.0, 1.0], [True], ["a", 1]]
)
def test_as_permutation_rejects_repeats_gaps_nonpositive(bad):
    with pytest.raises(ValueError):
        as_permutation(bad)


def agrees_with_a_sort(entries):
    """Independent oracle for as_permutation: the entries are accepted exactly
    when sorted they read 1..n, and a rejection names n and the entries."""
    entries = tuple(entries)
    if tuple(sorted(entries)) == identity(len(entries)):
        assert as_permutation(list(entries)) == entries
    else:
        with pytest.raises(ValueError) as info:
            as_permutation(list(entries))
        assert str(info.value) == f"not a permutation of 1..{len(entries)}: {entries}"


def test_as_permutation_agrees_with_a_sort_on_short_lists():
    for length in range(5):
        for entries in product(range(-1, 5), repeat=length):
            agrees_with_a_sort(entries)


def edited(p):
    """``p`` as it is, with one entry overwritten, with one entry dropped (a gap
    unless it was the largest) or with one value appended."""
    return st.one_of(
        st.just(p),
        one_entry_changed(p),
        st.integers(0, len(p) - 1).map(lambda i: p[:i] + p[i + 1:]),
        st.integers(-1, len(p) + 2).map(lambda v: p + (v,)),
    )


@settings(max_examples=60, deadline=None)
@given(shaped(st.integers(1, 3000)).flatmap(edited))
def test_as_permutation_agrees_with_a_sort_on_long_lists(entries):
    agrees_with_a_sort(entries)


def test_as_permutation_keeps_int_subclasses_other_than_bool():
    Entry = IntEnum("Entry", "ONE TWO")
    assert as_permutation([Entry.TWO, Entry.ONE]) == (2, 1)


def test_parse_permutation_spaces_and_commas():
    assert parse_permutation("3 5 2 4 1") == (3, 5, 2, 4, 1)
    assert parse_permutation("3,5,2,4,1") == (3, 5, 2, 4, 1)
    assert parse_permutation("") == ()
    assert parse_permutation("+2,1") == (2, 1)


def test_parse_permutation_rejects_junk():
    with pytest.raises(ValueError):
        parse_permutation("1 2 x")
    with pytest.raises(ValueError):
        parse_permutation("2 2 1")
    with pytest.raises(ValueError, match="not a permutation"):
        parse_permutation("-1 1")
    # int() alone would read digit groups and non-ASCII digits
    for text in ("2 1_0 3 4 5 6 7 8 9 1", "1_0", "\u0662 \u0661", "\uff12 1"):
        with pytest.raises(ValueError, match="not a sequence of integers"):
            parse_permutation(text)


def test_is_permutation():
    # as_permutation is the one check of "a permutation of 1..n"
    assert as_permutation((2, 1, 3)) == (2, 1, 3)
    assert as_permutation(()) == ()
    with pytest.raises(ValueError):
        as_permutation((1, 3))


@given(perms())
def test_parse_format_round_trip(p):
    assert parse_permutation(format_permutation(p)) == p


# ------------------------------------------------------------ stack sort


def test_stack_sort_frozen_examples():
    assert stack_sort((1, 2, 3)) == (1, 2, 3)
    assert stack_sort((3, 5, 2, 4, 1)) == (3, 2, 1, 4, 5)
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort(()) == ()


@pytest.mark.parametrize("n", range(0, 9))
def test_stack_sort_matches_recursive_splitting_rule(n):
    for p in permutations(range(1, n + 1)):
        assert stack_sort(p) == stack_sort_by_splitting(p)


@settings(max_examples=60, deadline=None)
@given(shaped(st.integers(9, 300)))
@example(identity(300))  # the deepest splitting: L n R with R empty at every level
@example(identity(300)[::-1])
def test_stack_sort_matches_recursive_splitting_rule_on_long_inputs(p):
    assert stack_sort(p) == stack_sort_by_splitting(p)


def test_stack_sort_last_entry_is_n_exhaustive():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            assert stack_sort(p)[-1] == n


@given(perms(40))
def test_stack_sort_output_is_permutation_ending_in_n(p):
    out = stack_sort(p)
    assert as_permutation(out) == out
    assert out[-1] == len(p)


def test_sortable_witnesses():
    # the classic pair: sortability is not inherited by subwords
    assert is_t_stack_sortable((3, 5, 2, 4, 1), 2)
    assert not is_t_stack_sortable((3, 2, 4, 1), 2)


def test_sortable_zero_passes():
    assert is_t_stack_sortable((1, 2, 3), 0)
    assert not is_t_stack_sortable((2, 1), 0)
    assert is_t_stack_sortable((), 0)


def test_sortable_rejects_negative_passes():
    with pytest.raises(ValueError):
        is_t_stack_sortable((1,), -1)


def test_sortable_monotone_in_passes_exhaustive():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            flags = [is_t_stack_sortable(p, t) for t in range(n + 1)]
            assert flags == sorted(flags)  # False...False True...True


@pytest.mark.parametrize("n", range(0, 9))
def test_sortable_matches_composed_passes_exhaustive(n):
    for p in permutations(range(1, n + 1)):
        for t in range(5):
            assert is_t_stack_sortable(p, t) == sorted_by_composed_passes(p, t)


@settings(max_examples=60, deadline=None)
@given(shaped(st.integers(9, 300)), st.integers(0, 6))
@example(identity(300)[::-1], 2)  # one pass sorts it: nothing pops before the flush
@example((2, 3, 4, 1, *range(5, 301)), 2)  # the first pop of the last pass is out of order
def test_sortable_matches_composed_passes_on_long_inputs(p, t):
    assert is_t_stack_sortable(p, t) == sorted_by_composed_passes(p, t)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-1, 10), max_size=9) | perms(9).flatmap(one_entry_changed),
    st.integers(0, 6),
)
@example([1, 1], 2)
@example([3, 1, 2, 5], 2)  # sorts like a permutation, but 4 is missing
def test_sortable_matches_composed_passes_on_any_int_list(p, t):
    assert is_t_stack_sortable(p, t) == sorted_by_composed_passes(p, t)


def test_sortable_takes_any_number_of_passes(monkeypatch):
    passes = []
    monkeypatch.setattr(P, "stack_sort", lambda p: passes.append(p) or stack_sort(p))
    assert is_t_stack_sortable(list(identity(2000)), 10**9)
    assert passes == []
    assert is_t_stack_sortable(identity(2000)[::-1], 10**9)
    assert len(passes) == 1  # one pass sorts it, and the next check sees the identity
    assert not is_t_stack_sortable((1, 1), 10**9)


def test_sorting_passes():
    assert sorting_passes(()) == 0
    assert sorting_passes((1, 2, 3)) == 0
    assert sorting_passes((2, 1)) == 1
    assert sorting_passes((3, 5, 2, 4, 1)) == 2


@pytest.mark.parametrize("bad", [(1, 1), (2, 2, 2), (0,), (1, 3), (3, 3, 1), (2, 1, 2)])
def test_sorting_passes_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        sorting_passes(bad)


def test_sorting_passes_counts_whole_passes_exhaustive():
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            assert sorting_passes(p) == passes_to_sort(p)


@given(shaped(st.integers(9, 300)))
@example((*range(2, 301), 1))  # 299 passes, the most: each moves 1 one place left
@example((*range(1, 101), *range(300, 100, -1)))  # a settled prefix, then a reversed block
def test_sorting_passes_counts_whole_passes_on_long_inputs(p):
    assert sorting_passes(p) == passes_to_sort(p)


@given(shaped(st.integers(9, 300)), st.integers(0, 4))
@example((*range(2, 301), 1), 4)
@example((*range(1, 101), *range(300, 100, -1)), 1)
def test_passes_end_where_whole_passes_do(p, m):
    whole = p
    for _ in range(m):
        whole = stack_sort(whole)
    *_, last = P._passes(p, m)
    assert last == whole


def test_passes_sort_only_what_is_not_settled(monkeypatch):
    # 1 2 and 5 6 are in place, so the pass sorts 4 3 alone
    inputs = []
    monkeypatch.setattr(P, "stack_sort", lambda p: inputs.append(p) or stack_sort(p))
    assert sorting_passes((1, 2, 4, 3, 5, 6)) == 1
    assert inputs == [(4, 3)]


@given(perms(30))
def test_sorting_passes_bounded_and_consistent(p):
    passes = sorting_passes(p)
    assert passes <= max(len(p) - 1, 0)
    assert is_t_stack_sortable(p, passes)
    if passes:
        assert not is_t_stack_sortable(p, passes - 1)


# --------------------------------------------------------------- patterns


def test_contains_pattern_frozen_examples():
    assert contains_pattern((3, 5, 2, 4, 1), (2, 3, 1))
    assert not contains_pattern((1, 2, 3), (2, 1))
    assert contains_pattern((2, 3, 1), (2, 3, 1))


def test_contains_pattern_rejects_empty_pattern():
    with pytest.raises(ValueError):
        contains_pattern((1, 2), ())


def test_contains_pattern_rejects_empty_pattern_before_planning():
    before = _bounds.cache_info()
    with pytest.raises(ValueError, match="pattern must be nonempty"):
        contains_pattern((1, 2), ())
    assert _bounds.cache_info() == before


@pytest.mark.parametrize(
    "perm, patt",
    [((1, 2, 3), (1, 1)), ((3, 2, 1), (2, 2, 1)), ((1,), (1, 1)), ((4, 1, 3, 2), (3, 1, 3))],
)
def test_contains_pattern_rejects_repeated_pattern_values(perm, patt):
    # no two entries of a permutation match equal pattern values; a pattern
    # longer than perm is refused too, not answered False
    with pytest.raises(ValueError, match=re.escape(f"must be distinct, got {patt}")):
        contains_pattern(perm, patt)
    with pytest.raises(ValueError, match="distinct"):
        _bounds(patt)


def test_pattern_plans_are_kept_in_a_bounded_cache():
    assert _bounds.cache_info().maxsize is not None


@given(shaped(st.integers(1, 12)), shaped(st.integers(1, 4)))
def test_contains_pattern_list_and_tuple_patterns_agree(p, q):
    assert contains_pattern(p, list(q)) == contains_pattern(p, q)


def test_contains_pattern_longer_than_perm():
    assert not contains_pattern((1,), (1, 2))


def test_contains_pattern_takes_patterns_longer_than_the_recursion_limit():
    evens_then_odds = tuple(range(2, 1201, 2)) + tuple(range(1, 1200, 2))
    assert contains_pattern(evens_then_odds, evens_then_odds)
    assert not contains_pattern(evens_then_odds, evens_then_odds[::-1])
    assert contains_pattern(identity(1500), identity(1200))


@pytest.mark.parametrize(
    "q",
    [
        (1,), (2, 1), (2, 3, 1), (1, 3, 2, 4),
        (1, 2), (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1),
        (2, 4, 1, 5, 3), (3, 1, 4, 6, 2, 5),  # as long as the longest inputs: k = n
        # with the above, every pattern of length 3 and 4
        *(q for q in permutations(range(1, 5)) if q != (1, 3, 2, 4)),
    ],
)
def test_contains_pattern_matches_combinations_oracle(q):
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            assert contains_pattern(p, q) == contains_by_combinations(p, q)


@settings(max_examples=80, deadline=None)
@given(shaped(st.integers(9, 40)), shaped(st.integers(1, 5)))
@example(identity(40), identity(5)[::-1])  # the longest search with no match
@example(identity(40), identity(5))
def test_contains_pattern_matches_combinations_oracle_on_long_inputs(p, q):
    assert contains_pattern(p, q) == contains_by_combinations(p, q)


@pytest.mark.parametrize(
    "q, back",
    [((2, 3, 1), (0, 0, 0)), ((1, 2, 3), (0, 0, 1)), ((3, 5, 2, 4, 1), (0, 0, 1, 2, 2))],
)
def test_pattern_plan_backs_up_to_the_nearest_position_read(q, back):
    # 231: the 3 is never a bound, so a failed 1 backs up to the 2
    assert tuple(b for _, _, b in _bounds(q)) == back


def test_pattern_plan_backs_up_past_exactly_the_unread_positions():
    for k in range(1, 7):
        for q in permutations(range(1, k + 1)):
            read = read_positions(q)
            expected = [max((a for a in read if a < j), default=0) for j in range(k)]
            assert [b for _, _, b in _bounds(q)] == expected, q


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 400), st.randoms(use_true_random=False), st.booleans())
def test_contains_231_iff_one_pass_does_not_sort_on_long_avoiders(n, rng, swap):
    p = avoiding_231(n, rng)
    if swap:  # swapping two neighbours makes a 231 about half the time
        i = rng.randrange(n - 1)
        p = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
    assert contains_pattern(p, (2, 3, 1)) == (stack_sort(p) != identity(n))


def test_avoiding_231_costs_at_most_n_squared_reads():
    # a 231-avoider makes the search exhaustive; the identity is the case where
    # retrying the middle position would cost about n^3 / 6 reads
    n = 200
    for p in (identity(n), avoiding_231(n, Random(n)), identity(n)[::-1]):
        counted = CountedReads(p)
        assert not contains_pattern(counted, (2, 3, 1))
        assert counted.reads <= n * n


def test_one_pass_sortable_iff_avoids_231_exhaustive():
    for n in range(1, 8):
        ident = identity(n)
        for p in permutations(range(1, n + 1)):
            assert (stack_sort(p) == ident) == (not contains_pattern(p, (2, 3, 1)))


# ------------------------------------------------------------- statistics


def test_statistics_frozen_examples():
    s = statistics((3, 1, 2))
    assert (s.descents, s.runs, s.rl_maxima, s.ptype) == (1, 2, (3, 2), 1)
    s = statistics((1, 3, 2))
    assert (s.descents, s.runs, s.rl_maxima, s.ptype) == (1, 2, (3, 2), 2)
    s = statistics((1,))
    assert (s.descents, s.runs, s.rl_maxima, s.ptype) == (0, 1, (1,), 2)


def test_statistics_requires_nonempty():
    with pytest.raises(ValueError, match="statistics are undefined for the empty"):
        statistics(())
    with pytest.raises(ValueError, match="type is undefined for the empty"):
        perm_type(())


def test_rl_maxima_endpoints():
    assert rl_maxima((3, 1, 2)) == (3, 2)
    assert rl_maxima((4, 1, 2, 3)) == (4, 3)
    assert rl_maxima(()) == ()


def test_statistics_invariants_exhaustive():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            s = statistics(p)
            assert s.runs == s.descents + 1
            assert s.ascents + s.descents == n - 1
            assert s.rl_maxima[0] == n
            assert s.rl_maxima[-1] == p[-1]
            assert list(s.rl_maxima) == sorted(s.rl_maxima, reverse=True)


@pytest.mark.parametrize("n", range(1, 9))
def test_statistics_match_definitions_exhaustive(n):
    for p in permutations(range(1, n + 1)):
        check_statistics_by_definitions(p)


@settings(max_examples=60, deadline=None)
@given(shaped(st.integers(9, 300)))
@example(identity(300))  # a_t = n, so t = 1 and s_1 holds a_t - 1: type 1
@example(identity(300)[::-1])  # a_t = 1: type 2
@example((*range(150, 301), *range(1, 150)))  # t = 2, s_2 holds a_t - 1: type 1
@example((*range(1, 149), 300, *range(150, 300), 149))  # a_t - 1 before a_1: type 2
def test_statistics_match_definitions_on_long_inputs(p):
    check_statistics_by_definitions(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=9))
@example([])
@example([3])  # a_t - 1 missing
@example([1, 3])
@example([0])
@example([2, 0, 1])  # a_t = 1 takes no a_t - 1, even where a 0 stands for one
def test_statistics_and_type_raise_on_the_same_lists(p):
    # the statistics of a list that is not a permutation are undefined, but
    # they raise exactly where the type does: on the empty list, and where
    # a_t > 1 has no a_t - 1
    if not p or (p[-1] != 1 and p[-1] - 1 not in p):
        for stat in (statistics, perm_type):
            with pytest.raises(ValueError):
                stat(p)
    else:
        s = statistics(p)
        assert s.rl_maxima == rl_maxima(p) == tuple(p[i] for i in maxima_at(p))
        assert s.ptype == perm_type(p)


def test_statistics_type_is_the_type_on_every_short_int_list():
    # every list over -3..4 of length <= 4, most of them no permutation;
    # those ending in an entry < 1 once read type 2 where the type is 1.
    # The maxima are read on every one of them, typed or not.
    def outcome(read, p):
        try:
            return read(p)
        except ValueError:
            return ValueError

    def type_after_leftmost(p):
        # independent oracle: type 1 iff nothing after the leftmost a_t - 1
        # exceeds a_t; index raises where a_t - 1 is missing
        if not p:
            raise ValueError
        if p[-1] == 1:
            return 2
        return 1 if max(p[p.index(p[-1] - 1) + 1 :]) == p[-1] else 2

    for n in range(5):
        for p in product(range(-3, 5), repeat=n):
            s = outcome(statistics, p)
            ptype = outcome(perm_type, p)
            assert (s if s is ValueError else s.ptype) == ptype == outcome(type_after_leftmost, p), p
            assert rl_maxima(p) == tuple(p[i] for i in maxima_at(p))


def test_every_permutation_has_exactly_one_type():
    for n in range(1, 8):
        counts = Counter(perm_type(p) for p in permutations(range(1, n + 1)))
        assert set(counts) <= {1, 2}
        assert sum(counts.values()) == factorial(n)


def test_type_examples_with_last_entry_one():
    # a_t = 1 leaves no entry a_t - 1, so these are type 2
    assert perm_type((2, 1)) == 2
    assert perm_type((3, 2, 1)) == 2
    assert perm_type((2, 3, 1)) == 2
