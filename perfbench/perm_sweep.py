"""
perm-sweep: the brute-force side of the claims.

Every permutation of one short length goes through the permutation
primitives; the brute counters, the joint distribution and four brute
verify suites run at fixed bounds.  ``trees`` and the formula rows do no
work here, so a change to them should leave this workload unchanged.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations

from . import oracles
from .harness import Pass, PassLog, per_pass_median

PATTERN = (2, 3, 1)


class PermSweep:
    name = "perm-sweep"
    fresh_import = True

    def __init__(self, seed: int, length: int = 8, brute_max: int = 8,
                 suites=(("catalan", 7), ("formula-vs-brute", 8), ("total", 8), ("lemma1", 7))):
        rng = random.Random(seed)
        self.perms = list(permutations(range(1, length + 1)))
        rng.shuffle(self.perms)
        self.sorted_once = [oracles.stack_sort(p) for p in self.perms]
        self.two_sortable = [oracles.is_identity(oracles.stack_sort(s)) for s in self.sorted_once]
        self.contains = [oracles.contains(p, PATTERN) for p in self.perms]
        self.stats = [oracles.stats(p) for p in self.perms]
        self.type1 = [p for p, s in zip(self.perms, self.stats) if s["type"] == 1]
        self.bijected = [(oracles.reduce_type1(p), p) for p in self.type1]
        self.stat_rows = [tuple(s.values()) for s in self.stats]
        self.joint = Counter(
            (s["runs"], len(s["rl_maxima"]))
            for s, ok in zip(self.stats, self.two_sortable) if ok
        )
        self.length = length
        self.brute_max = brute_max
        self.rows = {n: dict(enumerate(oracles.w_row(n), 1)) for n in range(1, brute_max + 1)}
        self.suites = suites
        self.suite_expected = {suite: oracles.suite_expected(suite, n) for suite, n in suites}

    @classmethod
    def small(cls, seed: int):
        """Toy sizes, for tests and for probing this workload's layers from another."""
        return cls(seed, length=5, brute_max=5,
                   suites=(("catalan", 4), ("formula-vs-brute", 4), ("total", 4), ("lemma1", 4)))

    def run_pass(self, pkg, log: PassLog) -> None:
        P, C, V = pkg.permutations, pkg.counting, pkg.verify
        log.sweep("permutations.stack_sort", P.stack_sort, self.perms, self.sorted_once)
        log.sweep("permutations.is_t_stack_sortable", lambda p: P.is_t_stack_sortable(p, 2),
                  self.perms, self.two_sortable)
        log.sweep("permutations.contains_pattern", lambda p: P.contains_pattern(p, PATTERN),
                  self.perms, self.contains)
        log.sweep("permutations.statistics", P.statistics, self.perms, self.stat_rows,
                  view=lambda s: (s.descents, s.ascents, s.runs, list(s.rl_maxima), s.ptype))
        log.sweep("permutations.bijection", lambda p: (m := P.reduce_type1(p), P.restore_type1(m)),
                  self.type1, self.bijected)

        survivors = 0
        serial = None
        for n in range(1, self.brute_max + 1):
            serial = log.op("counting.brute_force_w", lambda: C.brute_force_w(n),
                            lambda t: int(t.row != self.rows[n]), request=n)
            survivors += serial.total() if serial else 0
        log.counters["survivors"] = survivors
        top = self.brute_max
        log.op("counting.brute_force_w.jobs2", lambda: C.brute_force_w(top, jobs=2),
               lambda t: int(t.row != self.rows[top] or serial is None or t.row != serial.row),
               request=top)
        log.op("counting.joint_distribution_perms",
               lambda: C.joint_distribution_perms(self.length),
               lambda d: int(dict(d) != self.joint), request=self.length)

        for suite, max_n in self.suites:
            report = log.op(f"verify.run_suite.{suite}", lambda: V.run_suite(suite, max_n),
                            lambda r: self._suite_wrong(suite, max_n, r), request=max_n)
            if report is not None:
                log.counters[f"verify.run_suite.{suite}.checks"] = len(report.checks)

    def _suite_wrong(self, suite, max_n, report) -> int:
        """Wrong unless the suite ran to max_n, made every check the oracle expects, and passed."""
        expected = [c.expected for c in report.checks]
        return int(not (report.passed and report.max_n == max_n
                        and expected == self.suite_expected[suite]))

    def layer_metrics(self, passes: list[Pass], extras: dict) -> dict:
        def ns_per_call(name):
            return per_pass_median(
                passes, lambda p: p.self_ns().get(name, 0) / max(p.calls_named(name), 1))

        def ms(name):
            return per_pass_median(passes, lambda p: p.self_ns().get(name, 0) / 1e6)

        def speedup(p):
            serial = [c.ns for c in p.log.calls
                      if c.name == "counting.brute_force_w" and c.request == self.brute_max]
            jobs2 = p.self_ns().get("counting.brute_force_w.jobs2")
            return serial[0] / jobs2 if serial and jobs2 else None

        out = {
            f"permutations.{f}.ns_per_call": ns_per_call(f"permutations.{f}")
            for f in ("stack_sort", "is_t_stack_sortable", "statistics", "bijection",
                      "contains_pattern")
        }
        out["counting.brute_force_w.ms"] = ms("counting.brute_force_w")
        out["counting.brute_force_w.survivors"] = per_pass_median(
            passes, lambda p: p.log.counters["survivors"])
        out["counting.brute_force_w.jobs2_ms"] = ms("counting.brute_force_w.jobs2")
        out["counting.brute_force_w.jobs2_speedup"] = per_pass_median(passes, speedup)
        out["counting.joint_distribution_perms.ms"] = ms("counting.joint_distribution_perms")
        for suite, _ in self.suites:
            out[f"verify.run_suite.{suite}.ms"] = ms(f"verify.run_suite.{suite}")
            out[f"verify.run_suite.{suite}.checks"] = per_pass_median(
                passes, lambda p: p.log.counters.get(f"verify.run_suite.{suite}.checks"))
        return out

    def extra(self, pkg, log: PassLog) -> dict:
        return {}
