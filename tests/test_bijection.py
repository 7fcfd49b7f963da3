"""
The type-1 reduce/restore pair: round trips, statistic preservation, and
bijectivity between sortable type-1 n-permutations and marked sortable
(n-1)-permutations.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from twostack.permutations import (
    MarkedPermutation,
    descent_count,
    is_t_stack_sortable,
    perm_type,
    reduce_type1,
    restore_type1,
    rl_maxima,
)


def marked_perms(max_n=25, min_n=1):
    """Random marked permutations: any permutation plus a legal mark rank."""

    def with_mark(p):
        p = tuple(p)
        return st.integers(1, len(rl_maxima(p))).map(lambda r: MarkedPermutation(p, r))

    return (
        st.integers(min_n, max_n)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
        .flatmap(with_mark)
    )


def test_reduce_frozen_examples():
    assert reduce_type1((3, 1, 2)) == ((2, 1), 2)
    assert reduce_type1((2, 1, 3)) == ((2, 1), 1)
    # delete the final maximum 3, decrement 4 -> 3; the marked entry 2 is
    # the 2nd right-to-left maximum of (3 1 2), matching rl((4 1 2 3)) = 2
    assert reduce_type1((4, 1, 2, 3)) == ((3, 1, 2), 2)


def test_reduce_rejects_type2():
    for p in [(1,), (1, 3, 2), (2, 1), (2, 3, 1)]:
        assert perm_type(p) == 2
        with pytest.raises(ValueError):
            reduce_type1(p)


def test_restore_frozen_examples():
    assert restore_type1(MarkedPermutation((2, 1), 2)) == (3, 1, 2)
    assert restore_type1(MarkedPermutation((2, 1), 1)) == (2, 1, 3)
    assert restore_type1(MarkedPermutation((1,), 1)) == (1, 2)


def test_restore_rejects_bad_rank():
    with pytest.raises(ValueError):
        restore_type1(((2, 1), 3))
    with pytest.raises(ValueError):
        restore_type1(((2, 1), 0))
    with pytest.raises(ValueError):
        restore_type1(((), 1))
    with pytest.raises(ValueError):
        restore_type1(((2, 1), True))
    with pytest.raises(ValueError):
        restore_type1(((2, 1), 1.0))


def test_round_trip_and_statistics_exhaustive():
    for n in range(1, 9):
        for p in permutations(range(1, n + 1)):
            if perm_type(p) != 1:
                continue
            marked = reduce_type1(p)
            assert restore_type1(marked) == p
            assert descent_count(marked.perm) == descent_count(p)
            assert len(rl_maxima(marked.perm)) >= len(rl_maxima(p))
            # the marked entry lands at rank rl(p) in the new maxima list
            assert marked.mark_rank == len(rl_maxima(p))


def test_reverse_round_trip_exhaustive():
    for n in range(1, 8):
        for q in permutations(range(1, n + 1)):
            for rank in range(1, len(rl_maxima(q)) + 1):
                marked = MarkedPermutation(q, rank)
                grown = restore_type1(marked)
                assert perm_type(grown) == 1
                assert reduce_type1(grown) == marked


def test_bijection_onto_marked_sortable_exhaustive():
    for n in range(2, 9):
        sources = [
            p
            for p in permutations(range(1, n + 1))
            if perm_type(p) == 1 and is_t_stack_sortable(p, 2)
        ]
        image = {reduce_type1(p) for p in sources}
        assert len(image) == len(sources)  # injective
        target = {
            MarkedPermutation(q, r)
            for q in permutations(range(1, n))
            if is_t_stack_sortable(q, 2)
            for r in range(1, len(rl_maxima(q)) + 1)
        }
        assert image == target  # surjective onto marked sortable ones


def test_reduce_preserves_sortability_exhaustive():
    for n in range(2, 9):
        for p in permutations(range(1, n + 1)):
            if perm_type(p) == 1:
                assert is_t_stack_sortable(p, 2) == is_t_stack_sortable(
                    reduce_type1(p).perm, 2
                )


@given(marked_perms())
def test_reduce_inverts_restore_random(marked):
    assert reduce_type1(restore_type1(marked)) == marked


@settings(max_examples=60, deadline=None)
@given(marked_perms(max_n=200, min_n=9))
def test_round_trips_on_long_marked_permutations(marked):
    grown = restore_type1(marked)
    assert perm_type(grown) == 1
    assert reduce_type1(grown) == marked
    assert restore_type1(reduce_type1(grown)) == grown
