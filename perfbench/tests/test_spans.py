"""Span recording and the reduction of spans to self time."""

from perfbench.spans import Span, Tracer, self_by_name, self_times


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [
        span(0, "pass", 0, 100),
        span(1, "a", 10, 30, 0),
        span(2, "b", 40, 90, 0),
        span(3, "c", 50, 60, 2),
    ]
    assert self_times(spans) == {0: 30, 1: 20, 2: 40, 3: 10}


def test_overlapping_children_are_counted_once_and_clipped_to_the_parent():
    spans = [
        span(0, "root", 100, 200),
        span(1, "x", 90, 130, 0),   # starts before the parent
        span(2, "y", 120, 150, 0),  # overlaps x
        span(3, "z", 140, 145, 0),  # inside y
        span(4, "w", 190, 260, 0),  # ends after the parent
    ]
    own = self_times(spans)
    assert own[0] == 100 - (150 - 100) - (200 - 190)


def test_self_by_name_sums_spans_of_one_name():
    spans = [
        span(0, "pass", 0, 100),
        span(1, "f", 0, 10, 0),
        span(2, "f", 20, 35, 0),
    ]
    assert self_by_name(spans) == {"pass": 75, "f": 25}


def test_tracer_links_parents_and_can_be_off():
    tracer = Tracer(True)
    with tracer.span("pass", request="r"):
        tracer.add("f", 1, 2, request=7)
        with tracer.span("inner"):
            tracer.add("g", 3, 4)
    names = {s.name: s for s in tracer.spans}
    assert names["f"].parent == names["pass"].id
    assert names["g"].parent == names["inner"].id
    assert names["inner"].parent == names["pass"].id
    assert names["pass"].end >= names["pass"].start
    assert names["f"].request == 7

    off = Tracer(False)
    with off.span("pass"):
        off.add("f", 1, 2)
    assert off.spans == []
