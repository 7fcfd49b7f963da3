import inspect
import tracemalloc

import pytest

from twostack import counting, trees, verify
from twostack.counting import brute_force_w
from twostack.permutations import (
    MarkedPermutation,
    is_t_stack_sortable,
    perm_type,
    reduce_type1,
    restore_type1,
)
from twostack.verify import SUITE_DEFAULTS, SUITE_NAMES, Check, SuiteReport, run_suite

# suites are exercised at reduced bounds here to stay quick; the acceptance
# tests rerun the underlying claims at their full documented bounds

SMALL_BOUNDS = {
    "catalan": 6,
    "formula-vs-brute": 6,
    "tree-vs-perm": 6,
    "joint-rl": 5,
    "symmetry": 30,
    "unimodality": 30,
    "map-substitution": 20,
    "lemma1": 6,
    "total": 6,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_at_small_bounds(name):
    report = run_suite(name, SMALL_BOUNDS[name])
    assert report.passed, report.failures
    assert report.suite == name
    assert report.checks


def test_formula_vs_brute_check_count():
    # one comparison per (n, k) cell
    report = run_suite("formula-vs-brute", 6)
    assert len(report.checks) == sum(range(1, 7))


def test_defaults_cover_every_suite():
    assert set(SUITE_DEFAULTS) == set(SUITE_NAMES)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("total", 0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_yields_its_checks_into_a_tuple(name):
    # each suite is a generator of checks; run_suite alone collects them
    suite = verify._SUITES[name][0]
    assert inspect.isgeneratorfunction(suite)
    assert type(run_suite(name, 2).checks) is tuple


def test_report_flags_failures():
    report = SuiteReport(
        "demo", 1, (Check("good", 1, 1), Check("bad", 1, 2))
    )
    assert not report.passed
    assert [c.label for c in report.failures] == ["bad"]


def test_default_bound_is_used_when_omitted():
    report = run_suite("joint-rl", None)
    assert report.max_n == SUITE_DEFAULTS["joint-rl"]
    assert report.passed


@pytest.mark.parametrize(
    "name, max_n, limit",
    [
        ("catalan", 11, 10),
        ("catalan", 12, 10),
        ("lemma1", 11, 10),
        ("lemma1", 12, 10),
        ("formula-vs-brute", 12, 11),
        ("joint-rl", 12, 11),
        ("total", 20, 11),
        ("total", 0, 11),
        ("tree-vs-perm", 48, 47),
        ("symmetry", 501, 500),
        ("unimodality", 100_000, 500),
        ("map-substitution", 501, 500),
    ],
)
def test_exhaustive_suites_refuse_past_the_budget_up_front(monkeypatch, name, max_n, limit):
    def suite_not_allowed(max_n):
        raise AssertionError(f"suite {name} started at max_n={max_n}")

    monkeypatch.setitem(verify._SUITES, name, (suite_not_allowed, *verify._SUITES[name][1:]))
    with pytest.raises(ValueError, match=rf"^suite {name} takes max_n in 1\.\.{limit}, got {max_n}$"):
        run_suite(name, max_n)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_runs_up_to_its_limit_and_no_further(monkeypatch, name):
    reached = []

    def suite_records(max_n):
        reached.append(max_n)
        return []

    _, default, limit = verify._SUITES[name]
    monkeypatch.setitem(verify._SUITES, name, (suite_records, default, limit))
    assert run_suite(name, limit).max_n == limit
    for refused in (limit + 1, 0):
        with pytest.raises(ValueError, match=rf"^suite {name} takes max_n in 1\.\.{limit}, got {refused}$"):
            run_suite(name, refused)
    assert reached == [limit]


def test_suite_limits_match_the_budgets_they_stand_for():
    limits = {name: limit for name, (_, _, limit) in verify._SUITES.items()}
    assert all(SUITE_DEFAULTS[name] <= limit for name, limit in limits.items())
    for name in ("formula-vs-brute", "joint-rl", "total"):
        assert limits[name] == counting.MAX_EXHAUSTIVE_N
    assert limits["tree-vs-perm"] == trees.MAX_NODES - 1
    for name in ("symmetry", "unimodality", "map-substitution"):
        assert limits[name] == verify.MAX_FORMULA_N
    for name in ("catalan", "lemma1"):
        assert limits[name] == verify.MAX_SWEEP_N
    # lemma1 reads two_stack_sortable(n), which stops at the exhaustive budget
    assert verify.MAX_SWEEP_N <= counting.MAX_EXHAUSTIVE_N


def wrong_on(real, bad_input, bad_output):
    """``real``, except that it returns ``bad_output`` for ``bad_input``."""
    return lambda x: bad_output if x == bad_input else real(x)


def failures(report):
    return [tuple(c) for c in report.failures]


def test_lemma1_counts_a_reduction_gone_wrong(monkeypatch):
    # (3, 1, 2) has 1 descent and 2 rl maxima and reduces to ((2, 1), 2);
    # sent to (1, 2)'s mark instead, it breaks every check at n = 3 but the
    # partition, each once, and loses one sortable image
    bad = MarkedPermutation((1, 2), 1)
    monkeypatch.setattr(verify, "reduce_type1", wrong_on(reduce_type1, (3, 1, 2), bad))
    assert failures(run_suite("lemma1", 4)) == [
        ("restore(reduce(p)) = p on type-1, n=3", 0, 1),
        ("descents preserved on type-1, n=3", 0, 1),
        ("rl maxima never decrease on type-1, n=3", 0, 1),
        ("injective on sortable type-1, n=3", 3, 2),
        ("image is all marked sortable, n=3", 0, 1),
        ("reduce(restore(mp)) = mp, length 2", 0, 1),
    ]


def test_lemma1_counts_a_restoration_gone_wrong(monkeypatch):
    wrong = wrong_on(restore_type1, MarkedPermutation((2, 1), 2), (2, 1, 3))
    monkeypatch.setattr(verify, "restore_type1", wrong)
    assert failures(run_suite("lemma1", 4)) == [
        ("restore(reduce(p)) = p on type-1, n=3", 0, 1),
        ("reduce(restore(mp)) = mp, length 2", 0, 1),
    ]


def test_lemma1_counts_a_type_gone_wrong(monkeypatch):
    # (3, 4, 5, 1, 2) is type 1 but not 2-stack sortable, so no image check
    # sees it called type 2: only the partition, which counts type 1 as the
    # marked 4-permutations, does
    p = (3, 4, 5, 1, 2)
    assert perm_type(p) == 1 and not is_t_stack_sortable(p, 2)
    monkeypatch.setattr(verify, "perm_type", wrong_on(perm_type, p, 2))
    assert failures(run_suite("lemma1", 5)) == [("type-1/type-2 partition, n=5", 120, 121)]


def test_lemma1_keeps_no_reduction_per_permutation():
    # the suite streams its n! sweeps: with the sortable levels already
    # built, n = 7 peaks at about 0.32 MiB, and keeping every type-1
    # reduction and every marked 6-permutation would take it to 0.8 MiB
    brute_force_w(7)
    tracemalloc.start()
    try:
        assert run_suite("lemma1", 7).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20
