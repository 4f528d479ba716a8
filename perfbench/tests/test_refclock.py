"""Reference-second arithmetic on synthetic timings."""

import pytest

import refclock
from refclock import CALLS_PER_REF_SECOND, RefClock, kernel_call, timed_kernel_call

K = 1.0 / CALLS_PER_REF_SECOND


def _clock(items):
    """A RefClock fed with (work seconds, kernel sample seconds) pairs."""
    clock = RefClock()
    for work, samples in items:
        clock.record(work, samples)
    return clock


def test_one_ref_second_is_calls_per_ref_second_kernel_calls():
    clock = _clock([(2.0, [K] * 40), (0.5, [K] * 40)])
    assert clock.ref_seconds() == pytest.approx([2.0, 0.5])
    assert clock.summary(5)["items_per_ref_s"] == pytest.approx(2.0)


def test_uniform_slowdown_cancels():
    fast = _clock([(t, [K] * 40) for t in (1.0, 2.0, 3.0)])
    slow = _clock([(1.3 * t, [1.3 * K] * 40) for t in (1.0, 2.0, 3.0)])
    assert slow.ref_seconds() == pytest.approx(fast.ref_seconds())
    assert slow.summary(3)["items_per_ref_s"] == pytest.approx(fast.summary(3)["items_per_ref_s"])
    assert slow.summary(3)["items_per_wall_s"] < fast.summary(3)["items_per_wall_s"]


def test_an_item_with_enough_samples_uses_only_its_own():
    # the machine is twice as slow during the second item
    clock = _clock([(1.0, [K] * 40), (2.0, [2 * K] * 40), (1.0, [K] * 40)])
    assert clock.ref_seconds() == pytest.approx([1.0, 1.0, 1.0])


def test_short_items_borrow_samples_from_their_neighbours():
    n = refclock.WINDOW // 2
    clock = _clock([(0.1, [K] * n), (0.1, [3 * K]), (0.1, [K] * n)])
    window = [K] * n + [3 * K] + [K] * n
    per_call = sum(window) / len(window)
    assert clock.ref_seconds()[1] == pytest.approx(0.1 / (per_call * CALLS_PER_REF_SECOND))


def test_summary_reports_wall_and_kernel_rates():
    clock = _clock([(0.5, [0.001] * 10)])
    s = clock.summary(10)
    assert s["items_per_wall_s"] == pytest.approx(20.0)
    assert s["kernel_calls_per_s"] == pytest.approx(1000.0)
    assert s["kernel_samples"] == 10


def test_a_run_without_samples_is_refused():
    with pytest.raises(RuntimeError):
        _clock([(0.001, [])]).ref_seconds()


def test_call_samples_the_kernel_and_subtracts_it():
    clock = RefClock()

    def busy():
        total = 0
        for i in range(400000):
            total += i * i
        return total

    assert clock.call(busy) == sum(i * i for i in range(400000))
    assert len(clock.work_s) == 1
    assert clock.samples[0], "a ~50 ms item takes at least one 20 ms sample"
    assert clock.work_s[0] > 0


def test_call_records_an_item_that_raises():
    clock = RefClock()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        clock.call(boom)
    assert len(clock.work_s) == 1


def test_kernel_is_deterministic_and_exact():
    assert kernel_call() == kernel_call()
    assert kernel_call().denominator > 1
    assert timed_kernel_call() > 0.0
