import json
import threading
from bisect import bisect_left
from collections import Counter
from decimal import (
    MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext,
)
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from twostack import counting
from twostack.cli import main
from twostack.counting import (
    MAX_COUNT_N,
    MAX_EXHAUSTIVE_N,
    CountTable,
    brute_force_w,
    catalan,
    joint_distribution_perms,
    joint_distribution_trees,
    planar_map_count,
    two_stack_sortable,
    w_formula,
    w_table,
    w_total,
)
from twostack.permutations import (
    descent_count,
    identity,
    is_t_stack_sortable,
    rl_maxima,
    stack_sort,
)

TOTALS = [1, 2, 6, 22, 91, 408, 1938, 9614, 49335]  # n = 1..9

CATALANS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]  # n = 0..9


# ---------------------------------------------------------------- formulas


def test_w_formula_frozen():
    assert w_formula(3, 2) == 4
    assert w_formula(4, 2) == 10
    for n in (1, 2, 5, 17, 100):
        assert w_formula(n, 1) == 1
        assert w_formula(n, n) == 1


def _quotient(num, den):
    quot, rem = divmod(num, den)
    assert rem == 0
    return quot


def _w_oracle(n, k):
    num = factorial(n + k - 1) * factorial(2 * n - k)
    den = (
        factorial(k) * factorial(n + 1 - k)
        * factorial(2 * k - 1) * factorial(2 * n - 2 * k + 1)
    )
    return _quotient(num, den)


def _total_oracle(n):
    return _quotient(2 * factorial(3 * n), factorial(n + 1) * factorial(2 * n + 1))


def test_closed_forms_match_factorial_quotients():
    # oracle: the factorial quotients from the docstrings
    for n in range(1, 60):
        assert w_total(n) == _total_oracle(n)
        assert catalan(n) == _quotient(factorial(2 * n), factorial(n + 1) * factorial(n))
        for k in range(1, n + 1):
            assert w_formula(n, k) == _w_oracle(n, k)
    for f in range(1, 40):
        for pv in range(1, 40):
            num = factorial(2 * f + pv - 2) * factorial(2 * pv + f - 2)
            den = factorial(f) * factorial(pv) * factorial(2 * f - 1) * factorial(2 * pv - 1)
            assert planar_map_count(f, pv) == _quotient(num, den)


def test_closed_forms_match_factorial_quotients_at_cli_sizes():
    for n in (1000, 2000, 3000, 4000):
        assert w_total(n) == _total_oracle(n)
        for k in (n // 4, n // 2, 3 * n // 4):
            assert w_formula(n, k) == _w_oracle(n, k)


def test_w_formula_domain_errors():
    for n, k in [(0, 0), (3, 0), (3, 4), (-2, 1)]:
        with pytest.raises(ValueError):
            w_formula(n, k)


def test_exact_div_rejects_a_remainder():
    assert counting._exact_div(6, 2) == 3
    with pytest.raises(ArithmeticError, match="7 / 2"):
        counting._exact_div(7, 2)


def test_w_table_rejects_a_remainder(monkeypatch):
    # the term-ratio loop divides inline; a remainder must raise there too
    monkeypatch.setattr(counting, "divmod", lambda num, den: (num // den, 1), raising=False)
    with pytest.raises(ArithmeticError, match="expected exact division"):
        w_table(3)


def test_w_total_frozen():
    assert [w_total(n) for n in range(1, 10)] == TOTALS
    with pytest.raises(ValueError):
        w_total(0)


def test_row_sums_match_total_up_to_200():
    for n in range(1, 201):
        assert sum(w_formula(n, k) for k in range(1, n + 1)) == w_total(n)


def test_planar_map_count_frozen():
    assert planar_map_count(1, 1) == 1
    assert planar_map_count(2, 2) == 4
    assert planar_map_count(2, 3) == 10
    with pytest.raises(ValueError):
        planar_map_count(0, 1)


def test_planar_map_substitution_matches_w():
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert planar_map_count(k, n + 1 - k) == w_formula(n, k)


def test_shifted_substitution_is_wrong():
    # the tempting f=k-1, pv=n-k reading collapses at the first useful cell
    assert planar_map_count(1, 1) != w_formula(3, 2)


def test_catalan_frozen():
    assert [catalan(n) for n in range(10)] == CATALANS
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_counts_one_pass_sortable():
    for n in range(1, 8):
        ident = identity(n)
        count = sum(stack_sort(p) == ident for p in permutations(range(1, n + 1)))
        assert count == catalan(n)


# ------------------------------------------------------------- brute force


def test_brute_force_w_frozen():
    assert brute_force_w(1).row == {1: 1}
    assert brute_force_w(3).row == {1: 1, 2: 4, 3: 1}
    assert brute_force_w(4).row == {1: 1, 2: 10, 3: 10, 4: 1}
    with pytest.raises(ValueError):
        brute_force_w(0)


def test_sweeps_match_the_public_predicate():
    # West's first-entry scan in counting vs the stack-sorting predicate
    for n in range(0, 8):
        sortable = [
            p for p in permutations(range(1, n + 1)) if is_t_stack_sortable(p, 2)
        ]
        assert list(two_stack_sortable(n)) == sortable  # order included
        if n == 0:
            continue
        runs = Counter(1 + descent_count(p) for p in sortable)
        assert brute_force_w(n).row == {k: runs[k] for k in sorted(runs)}
        joint = Counter((1 + descent_count(p), len(rl_maxima(p))) for p in sortable)
        assert joint_distribution_perms(n) == joint


def _fresh_levels(monkeypatch):
    # the statistics live in the same entries, so this resets them too
    levels = counting._levels[:1]
    monkeypatch.setattr("twostack.counting._levels", levels)
    return levels


def _not_allowed(q):
    # _barred scans every q of the level below once per level build
    raise AssertionError(f"built the level above {q} again")


def test_generator_matches_the_exhaustive_filter(monkeypatch):
    # the generating tree rests on first-entry deletion keeping 2-stack
    # sortability; this n! sweep of the public predicate checks it outright,
    # against the level at the budget, built fresh, and then kept
    for n in range(0, 10):
        sortable = [p for p in permutations(range(1, n + 1)) if is_t_stack_sortable(p, 2)]
        levels = _fresh_levels(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", max(n, 1))
            assert list(two_stack_sortable(n)) == sortable  # order included
        assert len(levels) == n + 1
        with monkeypatch.context() as patch:
            patch.setattr("twostack.counting._barred", _not_allowed)
            assert list(two_stack_sortable(n)) == sortable


@cache
def _kept(n):
    return tuple(two_stack_sortable(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, TOTALS[8] - 1))
def test_first_entries_past_the_sweep_match_the_public_predicate(index):
    # level 10 is out of the n! sweep's reach: check every first entry of
    # one sortable 9-permutation against the stack-sorting predicate
    below, level = _kept(9), _kept(10)
    q = below[index % len(below)]  # a wrong level 9 still reaches the check
    for v in range(1, 11):
        p = (v, *[x + (x >= v) for x in q])
        at = bisect_left(level, p)
        assert (at < len(level) and level[at] == p) == is_t_stack_sortable(p, 2), p


def test_count_at_the_budget_matches_the_exhaustive_filter(monkeypatch):
    # at the budget level n is built and kept like any other, whatever jobs
    # says; check its statistics against the n! sweep, the joint pairs in
    # the order the lexicographic sweep first meets them
    for n in range(1, 9):
        sortable = [p for p in permutations(range(1, n + 1)) if is_t_stack_sortable(p, 2)]
        runs = Counter(1 + descent_count(p) for p in sortable)
        expected = CountTable(n, {k: runs[k] for k in sorted(runs)})
        joint = Counter((1 + descent_count(p), len(rl_maxima(p))) for p in sortable)
        with monkeypatch.context() as patch:
            patch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", n)
            assert brute_force_w(n) == expected
            assert brute_force_w(n, jobs=2) == expected
            assert list(joint_distribution_perms(n).items()) == list(joint.items())


def test_kept_levels_carry_their_statistics():
    # the recurrence descents(v·q') = descents(q) + [v > q_1] and
    # maxima(v·q') = maxima(q) + [v = n] against a direct read of each level
    assert counting.MAX_EXHAUSTIVE_N < 16, "kept levels pack descents and maxima in 4 bits each"
    for m in range(0, 10):
        stats = counting._level(m)[1]
        for p, s in zip(two_stack_sortable(m), stats, strict=True):
            assert divmod(s, 16) == (descent_count(p), len(rl_maxima(p))), p


def test_counters_rescan_no_permutation(monkeypatch):
    first, joint = brute_force_w(8), joint_distribution_perms(8)

    def no_scan(p):
        raise AssertionError(f"rescanned {p}")

    for name in ("descent_count", "rl_maxima"):
        monkeypatch.setattr(f"twostack.permutations.{name}", no_scan)
        monkeypatch.setattr(f"twostack.counting.{name}", no_scan, raising=False)
    assert brute_force_w(8) == first
    assert joint_distribution_perms(8) == joint
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 8)  # level 8 at the budget
    assert brute_force_w(8) == first
    assert joint_distribution_perms(8) == joint


def test_levels_are_built_once_per_process(monkeypatch):
    _fresh_levels(monkeypatch)
    first = brute_force_w(8)
    joint = joint_distribution_perms(8)
    monkeypatch.setattr("twostack.counting._barred", _not_allowed)
    assert brute_force_w(8) == first
    assert joint_distribution_perms(8) == joint
    assert sum(1 for _ in two_stack_sortable(7)) == TOTALS[6]


def test_level_at_the_budget_is_kept(monkeypatch):
    levels = _fresh_levels(monkeypatch)
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 6)
    assert sum(1 for _ in two_stack_sortable(6)) == TOTALS[5]
    assert [len(stats) for _, stats in levels] == [1, *TOTALS[:6]]  # levels 0..6
    monkeypatch.setattr("twostack.counting._barred", _not_allowed)
    assert brute_force_w(6).total() == TOTALS[5]
    assert sum(1 for _ in two_stack_sortable(6)) == TOTALS[5]


def test_kept_levels_are_packed(monkeypatch):
    levels = _fresh_levels(monkeypatch)
    brute_force_w(6)
    assert len(levels) == 7
    assert all(len(perms) == m * len(stats) for m, (perms, stats) in enumerate(levels))
    # the CLI, the verify suites and the tests compare tuples
    assert all(type(p) is tuple for m in range(7) for p in two_stack_sortable(m))


def test_levels_are_built_once_under_concurrent_requests(monkeypatch):
    levels = _fresh_levels(monkeypatch)
    built = []
    barred = counting._barred

    def counted(q):
        built.append(q)
        return barred(q)

    monkeypatch.setattr("twostack.counting._barred", counted)
    start = threading.Barrier(2)
    results = [None, None]

    def ask(slot):
        start.wait()
        results[slot] = list(two_stack_sortable(8)), joint_distribution_perms(8)

    workers = [threading.Thread(target=ask, args=(slot,)) for slot in (0, 1)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert results[0] == results[1]
    assert len(results[0][0]) == TOTALS[7]
    assert sum(results[0][1].values()) == TOTALS[7]
    # each q of levels 0..7 scanned once: levels 1..8 were each built once
    assert sorted(built) == sorted(p for m in range(8) for p in two_stack_sortable(m))
    assert [tuple(map(len, level)) for level in levels] == [
        (m * size, size) for m, size in enumerate((1, *TOTALS[:8]))
    ]


def test_brute_force_w_worker_count_does_not_matter():
    # oracle: the factorial quotient
    for n, jobs in [(1, 2), (2, 2), (5, 2), (6, 2), (6, 12)]:
        assert brute_force_w(n, jobs=jobs).row == {k: _w_oracle(n, k) for k in range(1, n + 1)}


def test_jobs_start_no_pool_below_the_budget(monkeypatch):
    # one core reads the kept level, at the budget too, whatever jobs says
    def no_pool(*args, **kwargs):
        raise AssertionError("started a worker pool")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    for n in range(1, 9):
        assert brute_force_w(n, jobs=2).row == w_table(n).row
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 7)
    assert brute_force_w(6, jobs=4).row == w_table(6).row
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 6)
    assert brute_force_w(6, jobs=4).row == w_table(6).row


def test_brute_force_w_rejects_fewer_than_one_job(monkeypatch):
    def not_allowed(*args):
        raise AssertionError("worked with no job")

    monkeypatch.setattr("twostack.counting._level", not_allowed)
    monkeypatch.setattr("twostack.counting.two_stack_sortable", not_allowed)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"need jobs >= 1, got {jobs}"):
            brute_force_w(5, jobs)


# ------------------------------------------------------------ count tables


def test_w_table_matches_formula():
    table = w_table(5)
    assert table.n == 5
    assert table.row == {1: 1, 2: 20, 3: 49, 4: 20, 5: 1}
    assert table.total() == w_total(5)


def test_w_table_rows_match_the_closed_form():
    # the term-ratio row against the binomial products of w_formula
    for n in (*range(1, 301), 400, 800, 1200):
        assert w_table(n).row == {k: w_formula(n, k) for k in range(1, n + 1)}


def test_w_table_matches_factorial_quotients_at_cli_sizes():
    for n in (400, 800, 1200):
        row = w_table(n).row
        assert len(row) == n
        for k in (1, n // 2, n // 2 + 1, n):
            assert row[k] == _w_oracle(n, k)


def test_w_table_from_a_decimal_one_matches_the_int_row():
    # the table command's row: under its exact context, exact Decimals equal
    # to the int row cell for cell (an exact Decimal-int compare, no str)
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])
    for n in (*range(1, 61), 1200, 5000):
        with localcontext(exact):
            row = w_table(n, Decimal(1)).row
        ints = w_table(n).row
        assert list(row) == list(ints)
        for k, count in row.items():
            assert type(count) is Decimal and count.as_tuple().exponent == 0
            assert count == ints[k]


def test_w_table_rejects_nonpositive_n():
    for n in (0, -3):
        with pytest.raises(ValueError):
            w_table(n)


def test_count_table_json_uses_decimal_strings(capsys):
    # the table command writes counts as decimal strings: they outgrow 64-bit consumers quickly
    assert main(["table", "--n", "60", "--format", "json"]) == 0  # counts far beyond 64-bit range
    payload = json.loads(capsys.readouterr().out)["result"]
    assert payload["n"] == 60
    assert all(isinstance(row["count"], str) for row in payload["rows"])
    assert int(payload["rows"][0]["count"]) == 1
    assert int(payload["rows"][29]["count"]) == w_formula(60, 30)


# ------------------------------------------------------ joint distributions


def test_joint_distribution_perms_frozen():
    assert dict(joint_distribution_perms(1)) == {(1, 1): 1}
    assert dict(joint_distribution_perms(2)) == {(1, 1): 1, (2, 2): 1}
    n3 = joint_distribution_perms(3)
    assert sum(n3.values()) == 6
    assert dict(n3) == {(1, 1): 1, (2, 1): 1, (2, 2): 3, (3, 3): 1}


def test_joint_distribution_trees_frozen():
    assert dict(joint_distribution_trees(1)) == {(1, 1): 1}
    assert dict(joint_distribution_trees(2)) == {(1, 1): 1, (2, 2): 1}


def test_joint_distributions_agree():
    for n in range(1, 6):
        assert joint_distribution_perms(n) == joint_distribution_trees(n)


def test_two_stack_sortable_rejects_negative_n():
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        two_stack_sortable(-1)


def test_joint_distribution_domain_errors():
    with pytest.raises(ValueError):
        joint_distribution_perms(0)
    with pytest.raises(ValueError):
        joint_distribution_trees(0)


def test_exhaustive_counters_respect_the_budget(monkeypatch):
    def sweep_not_allowed(q):
        raise AssertionError(f"swept past the budget from {q}")

    with monkeypatch.context() as patch:
        patch.setattr("twostack.counting._barred", sweep_not_allowed)
        for call in (brute_force_w, joint_distribution_perms, two_stack_sortable):
            with pytest.raises(ValueError, match="limited to n <= 11"):
                call(MAX_EXHAUSTIVE_N + 1)
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 4)
    assert brute_force_w(4).total() == 22
    assert sum(joint_distribution_perms(4).values()) == 22
    for call in (brute_force_w, joint_distribution_perms, two_stack_sortable):
        with pytest.raises(ValueError, match="limited to n <= 4"):
            call(5)


def test_closed_forms_respect_the_budget(monkeypatch):
    n = MAX_COUNT_N + 1
    for call in (lambda: w_formula(n, 1), lambda: w_total(n), lambda: catalan(n),
                 lambda: w_table(n), lambda: planar_map_count(n - 1, 2)):
        with pytest.raises(ValueError, match=f"limited to .* <= {MAX_COUNT_N}, got {n}"):
            call()
    monkeypatch.setattr("twostack.counting.MAX_COUNT_N", 6)
    assert (w_formula(6, 3), w_total(6), catalan(6)) == (_w_oracle(6, 3), 408, 132)
    assert planar_map_count(3, 4) == w_formula(6, 3)
    assert w_table(6).total() == 408
    for call in (lambda: w_formula(7, 1), lambda: w_total(7), lambda: catalan(7),
                 lambda: w_table(7), lambda: planar_map_count(4, 4)):
        with pytest.raises(ValueError, match="limited to .* <= 6, got 7"):
            call()
