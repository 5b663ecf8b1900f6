"""Tests for the benchmark's own arithmetic: self time, failure counting, patching,
the host speed sampler.

Run from the repository root with: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import types

import pytest

import layers
import tracer as T


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_under_nested_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    tr = T.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    assert [s.name for s in tr.spans] == ["outer", "a", "c", "b"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert tr.self_times() == [6, 2, 1, 1]
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "failed": 0, "s": 10, "self_s": 6}
    assert totals["a"]["s"] == 3 and totals["a"]["self_s"] == 2
    # self times of a tree add up to the root's duration
    assert sum(tr.self_times()) == 10


def test_self_time_counts_overlapping_children_once():
    tr = T.Tracer()
    tr.spans = [T.Span("p", 0.0, 10.0), T.Span("x", 1.0, 5.0, parent=0),
                T.Span("y", 3.0, 7.0, parent=0), T.Span("z", 9.0, 12.0, parent=0)]
    # children cover [1, 7] and [9, 10] of the parent: 7 of 10 seconds
    assert tr.self_times()[0] == pytest.approx(3.0)


def test_recursive_spans_are_not_counted_twice_inclusive():
    tr = T.Tracer(clock=FakeClock(0, 1, 3, 4))
    with tr.span("f"):
        with tr.span("f"):
            pass
    t = tr.totals()["f"]
    assert t["calls"] == 2
    assert t["s"] == 4            # the outer call only
    assert t["self_s"] == 4       # 2 (outer minus inner) + 2 (inner)


def test_failure_counting_when_a_wrapped_call_raises():
    tr = T.Tracer(clock=FakeClock(0, 2, 5, 6))

    def boom():
        raise ValueError("no")

    calls = []
    wrapped = tr.wrap("layer.boom", boom, count=lambda *a: calls.append(a))
    with pytest.raises(ValueError):
        wrapped()
    assert calls == []            # the counter only runs on success
    assert tr.spans[0].failed and tr.spans[0].end == 2
    with tr.span("after"):        # the failed span is closed: no parent left open
        pass
    assert tr.spans[1].parent == -1
    totals = tr.totals()
    assert totals["layer.boom"] == {"calls": 1, "failed": 1, "s": 2, "self_s": 2}
    assert totals["after"]["failed"] == 0


def test_patched_wraps_where_callers_look_up_and_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    user = types.SimpleNamespace(f=mod.f)     # a from-import keeps its own reference
    original = mod.f
    tr = T.Tracer()
    seen = []
    with T.patched(tr, [(user, "f", "mod.f", lambda t, r, a, k: seen.append(r))]):
        assert user.f(1) == 2
        assert mod.f(1) == 2                  # not patched: no span
    assert user.f is original and mod.f is original
    assert [s.name for s in tr.spans] == ["mod.f"] and seen == [2]


def test_l1_ball_size_matches_enumeration():
    import itertools
    for d, bound in ((1, 4), (2, 3), (3, 5)):
        brute = sum(1 for m in itertools.product(range(-bound, bound + 1), repeat=d)
                    if 0 < sum(map(abs, m)) <= bound)
        assert layers.l1_ball_size(d, bound) == brute


def test_ops_count_raised_and_known_red_operations():
    import workloads
    ops = workloads.Ops()
    ops.check("ok", True)
    ops.check("gate", False, "outside its gate")
    ops.raised("call", ValueError("boom"))
    ops.expected_failure("budget", "BudgetExceeded")
    assert ops.attempted == 4
    assert ops.failed == ["gate: outside its gate", "call: raised ValueError: boom"]
    assert ops.expected_failures == 1 and ops.known_red == ["budget: BudgetExceeded"]
    assert ops.ok_frac == 0.25


def test_host_speed_ticks_while_ticking_and_disarms_on_error():
    import signal
    import time

    import worker
    host = worker.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with host.ticking():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
            raise RuntimeError("a pass raised")
    assert len(host.times) >= 2 and host.spent == pytest.approx(sum(host.times))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
