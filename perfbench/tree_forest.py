"""
tree-forest: the tree side of the claims.

A full ``count_trees`` row from cold memo tables, one ``enumerate_trees``
stream consumed a tree at a time, the tree-side joint distribution, and the
text and JSON round trips over every tree of a smaller size.  ``trees``
dominates both time and memory; ``permutations`` does no work, so a change
to it should leave this workload unchanged.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import islice

from . import oracles
from .harness import Pass, PassLog, per_pass_median

# Trees per stream request.  Large enough that the stream's requests, each
# little more than a pull from the package's generator, stay few beside the
# round-trip requests, so the median request falls inside a group of like
# requests rather than at the edge of one.
STREAM_CHUNK = 2000
MASK64 = 0xFFFFFFFFFFFFFFFF
ROUNDTRIP = ("format_tree", "parse_tree", "tree_to_json", "tree_from_json", "tree_violations")


def _break(tree, rng: random.Random):
    """The tree with one non-root node's label pushed past what the rules allow."""
    path = []
    node = tree
    while len(node) > 1 and (not path or rng.random() < 0.6):
        i = rng.randrange(1, len(node))
        path.append(i)
        node = node[i]

    def rebuild(node, depth):
        if depth == len(path):
            kids = node[1:]
            bad = 2 if not kids else sum(k[0] for k in kids) + 1
            return (bad, *kids)
        i = path[depth]
        return node[:i] + (rebuild(node[i], depth + 1),) + node[i + 1:]

    return rebuild(tree, 0)


class TreeForest:
    name = "tree-forest"
    fresh_import = True

    def __init__(self, seed: int, row_n: int = 18, stream_nodes: int = 10,
                 joint_n: int = 9, roundtrip_nodes: int = 9, broken: int = 300):
        rng = random.Random(seed)
        self.row_n = row_n
        self.row = oracles.w_row(row_n)
        self.stream_nodes = stream_nodes
        self.joint_n = joint_n
        self.stream_print = oracles.tree_fingerprint(oracles.trees(stream_nodes))
        self.joint = Counter(
            (oracles.tree_leaves(t), t[0]) for t in oracles.trees(joint_n + 1)
        )
        self.trees = list(oracles.trees(roundtrip_nodes))
        rng.shuffle(self.trees)
        self.texts = [oracles.tree_text(t) for t in self.trees]
        self.jsons = [oracles.tree_json(t) for t in self.trees]
        self.broken = [_break(t, rng) for t in rng.sample(self.trees, broken)]
        self.invalid = [not oracles.tree_valid(t) for t in self.trees + self.broken]

    @classmethod
    def small(cls, seed: int):
        """Toy sizes, for tests and for probing this workload's layers from another."""
        return cls(seed, row_n=6, stream_nodes=6, joint_n=5, roundtrip_nodes=5, broken=10)

    def _stream(self, T, log: PassLog, name: str) -> None:
        """
        Consume the stream as requests of ``STREAM_CHUNK`` trees, the first
        tree alone, so that its time is the time to the first tree.  Each
        request's check (ascending order, a running fingerprint) runs
        outside the package's time, and the benchmark holds only one
        request's trees at a time.
        """
        total = self.stream_print[0]
        sizes = [1] + [min(STREAM_CHUNK, total - at) for at in range(1, total, STREAM_CHUNK)]
        stream = None
        seen = {"count": 0, "acc": 0, "prev": None}

        def pull(size):
            nonlocal stream
            if stream is None:
                stream = iter(T.enumerate_trees(self.stream_nodes))
            return list(islice(stream, size))

        def check(trees, size):
            wrong = abs(len(trees) - size)
            for tree in trees:
                wrong += seen["prev"] is not None and not seen["prev"] < tree
                seen["count"] += 1
                seen["acc"] += hash(tree)
                seen["prev"] = tree
            return wrong

        for i, size in enumerate(sizes):
            log.op(name, lambda: pull(size), lambda trees: check(trees, size), size, request=i)
            if i == 0:
                log.counters["first_ns"] = log.calls[-1].ns
        left_over = stream is not None and next(stream, None) is not None
        if left_over or (seen["count"], seen["acc"] & MASK64) != self.stream_print:
            log.fail(f"{name}: the stream is not the {total} trees of the oracle")

    def run_pass(self, pkg, log: PassLog) -> None:
        T, C = pkg.trees, pkg.counting
        for k in range(1, self.row_n + 1):
            log.op("trees.count_trees", lambda: T.count_trees(self.row_n, k),
                   lambda v: int(v != self.row[k - 1]), request=k)

        self._stream(T, log, "trees.enumerate_trees")
        log.op("counting.joint_distribution_trees",
               lambda: C.joint_distribution_trees(self.joint_n),
               lambda d: int(dict(d) != self.joint), request=self.joint_n)

        trees, chunk = self.trees, 400
        log.sweep("trees.format_tree", T.format_tree, trees, self.texts, chunk=chunk)
        log.sweep("trees.parse_tree", T.parse_tree, self.texts, trees, chunk=chunk)
        log.sweep("trees.tree_to_json", T.tree_to_json, trees, self.jsons, chunk=chunk)
        log.sweep("trees.tree_from_json", T.tree_from_json, self.jsons, trees, chunk=chunk)
        log.sweep("trees.tree_violations", T.tree_violations, trees + self.broken,
                  self.invalid, view=bool, chunk=chunk)

    def layer_metrics(self, passes: list[Pass], extras: dict) -> dict:
        def ms(name):
            return per_pass_median(passes, lambda p: p.self_ns().get(name, 0) / 1e6)

        def trees_per_s(p):
            busy = p.self_ns().get("trees.enumerate_trees")
            return p.calls_named("trees.enumerate_trees") / (busy / 1e9) if busy else None

        def roundtrip_us(p):
            own = p.self_ns()
            calls = p.calls_named("trees.format_tree")
            return sum(own.get(f"trees.{f}", 0) for f in ROUNDTRIP) / 1e3 / calls if calls else None

        return {
            "trees.count_trees.row_ms": ms("trees.count_trees"),
            "trees.enumerate_trees.first_ms": per_pass_median(
                passes, lambda p: p.log.counters.get("first_ns", 0) / 1e6),
            "trees.enumerate_trees.trees_per_s": per_pass_median(passes, trees_per_s),
            "trees.enumerate_trees.peak_mb": extras.get("peak_mb", 0.0),
            "trees.roundtrip.us_per_tree": per_pass_median(passes, roundtrip_us),
            "counting.joint_distribution_trees.ms": ms("counting.joint_distribution_trees"),
        }

    def extra(self, pkg, log: PassLog) -> dict:
        """Peak traced allocation while streaming the trees from cold memo tables."""
        tracemalloc.start()
        try:
            self._stream(pkg.trees, log, "trees.enumerate_trees.tracemalloc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"peak_mb": peak / 2**20}
