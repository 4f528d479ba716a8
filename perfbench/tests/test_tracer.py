"""The tracer counts calls made through every import path, keeps self
times additive, repeats its counts exactly and restores the program."""

import time

import pytest

import minsurf4.gaussmap
import minsurf4.poly
import minsurf4.rational
from minsurf4.poly import Polynomial
from minsurf4.scalars import GaussianRational
from tracer import Tracer
from workloads import Falsify


def test_wraps_every_import_path_and_uninstalls():
    original = minsurf4.poly.multiplicity_at
    eval_ = Polynomial.eval
    tracer = Tracer()
    tracer.install()
    try:
        assert minsurf4.rational.multiplicity_at is minsurf4.poly.multiplicity_at
        assert minsurf4.poly.multiplicity_at is not original
        p = Polynomial([GaussianRational(-1), GaussianRational(0), GaussianRational(1)])
        assert minsurf4.rational.multiplicity_at(p, GaussianRational(1)) == 1
        p(GaussianRational(2))  # __call__ is the same function as eval
        p.eval(0.5)
    finally:
        tracer.uninstall()
    assert minsurf4.poly.multiplicity_at is original
    assert minsurf4.rational.multiplicity_at is original
    assert Polynomial.eval is eval_
    assert tracer.calls["poly.multiplicity_at"] == 1
    assert tracer.calls["poly.Polynomial.eval"] >= 2
    assert tracer.calls["scalars.GaussianRational.__init__"] > 0


def test_self_time_excludes_enclosed_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer._wrap("b", "b.inner", inner)
    traced_outer = tracer._wrap("a", "a.outer", outer)
    traced_outer()
    assert tracer.self_s["b"] == pytest.approx(0.02, abs=0.01)
    assert tracer.self_s["a"] == pytest.approx(0.01, abs=0.01)
    assert tracer.total_s["a.outer"] == pytest.approx(tracer.self_s["a"] + tracer.self_s["b"], rel=1e-6)


def test_recursive_calls_count_once_in_total_time():
    tracer = Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer._wrap("a", "a.fact", fact)
    assert wrapped(5) == 120
    assert tracer.calls["a.fact"] == 6
    assert tracer.total_s["a.fact"] == pytest.approx(tracer.self_s["a"], rel=1e-6)


def _traced_counts(tmp_path, items):
    w = Falsify(seed=3, seconds=1, root=".", workdir=str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        for item in w.items[:items]:
            w.run(item)
    finally:
        tracer.uninstall()
    return tracer


def test_two_traced_runs_give_identical_counts(tmp_path):
    a = _traced_counts(tmp_path, 3)
    b = _traced_counts(tmp_path, 3)
    assert a.calls == b.calls
    metrics = a.layer_metrics(7)
    assert metrics["gaussmap.draws"][0] == a.calls["gaussmap.verify_main_inequality"] == 30
    assert metrics["gaussmap.complete_per_draw"][0] == pytest.approx(7 / 30)
    assert minsurf4.gaussmap.verify_main_inequality.__name__ == "verify_main_inequality"
    assert not hasattr(minsurf4.gaussmap.verify_main_inequality, "__wrapped__")
