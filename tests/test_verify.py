import tracemalloc

import pytest

from twostack import verify
from twostack.counting import brute_force_w
from twostack.permutations import MarkedPermutation, reduce_type1, restore_type1
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


def test_report_flags_failures():
    report = SuiteReport(
        "demo", 1, [Check("good", 1, 1), Check("bad", 1, 2)]
    )
    assert not report.passed
    assert [c.label for c in report.failures] == ["bad"]


def test_default_bound_is_used_when_omitted():
    report = run_suite("joint-rl", None)
    assert report.max_n == SUITE_DEFAULTS["joint-rl"]
    assert report.passed


@pytest.mark.parametrize(
    "name, max_n, message",
    [
        ("catalan", 12, "exhaustive counts are limited to n <= 11"),
        ("formula-vs-brute", 12, "exhaustive counts are limited to n <= 11"),
        ("joint-rl", 12, "exhaustive counts are limited to n <= 11"),
        ("lemma1", 12, "exhaustive counts are limited to n <= 11"),
        ("catalan", 11, "n! sweep suites are limited to max_n <= 10, got 11"),
        ("lemma1", 11, "n! sweep suites are limited to max_n <= 10, got 11"),
        ("total", 20, "exhaustive counts are limited to n <= 11"),
        ("tree-vs-perm", 48, "trees are limited to 48 nodes, got 49"),
        ("symmetry", 501, "formula suites are limited to max_n <= 500, got 501"),
        ("unimodality", 100_000, "formula suites are limited to max_n <= 500, got 100000"),
        ("map-substitution", 501, "formula suites are limited to max_n <= 500, got 501"),
    ],
)
def test_exhaustive_suites_refuse_past_the_budget_up_front(monkeypatch, name, max_n, message):
    def suite_not_allowed(max_n):
        raise AssertionError(f"suite {name} started at max_n={max_n}")

    _, default, check_size = verify._SUITES[name]
    monkeypatch.setitem(verify._SUITES, name, (suite_not_allowed, default, check_size))
    with pytest.raises(ValueError, match=message):
        run_suite(name, max_n)


def test_budget_boundary_follows_the_constant(monkeypatch):
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 3)
    assert run_suite("total", 3).passed
    monkeypatch.setattr("twostack.verify.MAX_FORMULA_N", 30)
    assert run_suite("unimodality", 30).passed
    with pytest.raises(ValueError, match="limited to max_n <= 30, got 31"):
        run_suite("unimodality", 31)
    with pytest.raises(ValueError, match="limited to n <= 3"):
        run_suite("total", 4)
    monkeypatch.setattr("twostack.trees.MAX_NODES", 6)
    assert run_suite("tree-vs-perm", 5).passed
    with pytest.raises(ValueError, match="limited to 6 nodes"):
        run_suite("tree-vs-perm", 6)


def test_sweep_budget_boundary_follows_the_constant(monkeypatch):
    monkeypatch.setattr("twostack.verify.MAX_SWEEP_N", 4)
    for name in ("catalan", "lemma1"):
        assert run_suite(name, 4).passed
        with pytest.raises(ValueError, match="sweep suites are limited to max_n <= 4, got 5"):
            run_suite(name, 5)
    monkeypatch.setattr("twostack.counting.MAX_EXHAUSTIVE_N", 3)  # the tighter budget wins
    with pytest.raises(ValueError, match="exhaustive counts are limited to n <= 3, got 4"):
        run_suite("lemma1", 4)


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
