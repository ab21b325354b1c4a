"""Tests of the benchmark harness itself: its checkers reject wrong outputs,
its references agree with funkreg, and traced self times add up.

    python3 -m pytest bench/test_harness.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import funkreg as fk  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """A small paper-style select: 40 training curves, 3 queries."""
    workload = wl.PaperSelect(tmp_path_factory.mktemp("paper"), seed=3)
    workload.N_TRAIN, workload.N_QUERIES = 40, 3
    workload.config = fk.BootstrapConfig(
        n_replications=10, k_min=2, k_max=8, seed=5, pilot=fk.FixedPilot(6))
    workload.setup()
    workload.prepare()
    return workload


def test_select_reference_matches_funkreg(paper):
    result = paper.op(None)
    assert paper.check(None, result)


def test_wrong_selected_k_fails(paper):
    result = paper.op(None)
    other = paper.k + 1 if paper.k < paper.config.k_max else paper.k - 1
    wrong = fk.WildBootstrapResult(result.per_bandwidth, other, 1.0)
    assert not wl.check_select(wrong, paper.curve, paper.k)


def test_wrong_error_curve_fails(paper):
    result = paper.op(None)
    k, h, e = result.per_bandwidth[0]
    bent = ((k, h, e * (1 + 1e-7)),) + result.per_bandwidth[1:]
    wrong = fk.WildBootstrapResult(bent, result.selected_k, result.selected_h)
    assert not wl.check_select(wrong, paper.curve, paper.k)


@pytest.fixture(scope="module")
def query(tmp_path_factory):
    workload = wl.PaperQuery(tmp_path_factory.mktemp("query"), seed=4)
    workload.setup()
    workload.prepare()
    return workload


def test_query_outputs_match_reference(query):
    for _ in range(5):
        item = query.next_item()
        assert query.check(item, query.op(item))


@pytest.mark.parametrize("field", range(4))
def test_wrong_prediction_or_interval_fails(query, field):
    item = query.next_item()
    output = list(query.op(item))
    output[field] *= 1 + 1e-6
    assert not query.check(item, tuple(output))


def test_ci_rows_checker_rejects_a_wrong_bound():
    expected = {key: np.linspace(1.0, 2.0, 4) for key in
                ("prediction", "bandwidth", "sigma2", "lower", "upper")}
    rows = np.zeros((4, 10))
    for key, col in {"prediction": 1, "bandwidth": 4, "sigma2": 5,
                     "lower": 6, "upper": 7}.items():
        rows[:, col] = expected[key]
    assert wl.check_ci_rows(rows, expected)
    rows[2, 7] += 1e-3
    assert not wl.check_ci_rows(rows, expected)
    assert not wl.check_ci_rows(rows[:3], expected)


def test_moments_checker_rejects_a_wrong_moment():
    expected = {"bias": 0.05, "ks": 0.02}
    assert wl.check_moments(dict(expected), expected)
    assert not wl.check_moments({"bias": 0.05, "ks": 0.03}, expected)
    assert not wl.check_moments({"bias": 0.05}, expected)


def test_close_tolerates_ulps_but_not_nan():
    x = np.array([1.0, -3.0, 1e-20])
    assert ref.close(x * (1 + 4e-16), x)
    assert not ref.close(x * (1 + 1e-8), x)
    assert not ref.close([np.nan], [np.nan])


def test_mc_reference_matches_funkreg(tmp_path):
    workload = wl.McScalar(tmp_path, seed=7)
    workload.REPS = 40
    workload.setup()
    workload.prepare()
    assert workload.check(None, workload.op(None))


class _Stub(wl.Workload):
    """Ops whose outputs are given; the check wants 1.0."""
    name, op_name = "stub", "stub"

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def op(self, item):
        out = next(self.outputs)
        if isinstance(out, Exception):
            raise out
        return out

    def check(self, item, output) -> bool:
        return ref.close(output, 1.0)


def test_wrong_or_raising_ops_count_as_failed():
    r = run.Run(_Stub([1.0, 1.5, ValueError("boom"), 1.0]))
    for _ in range(4):
        r.op()
    assert (r.attempted, r.failed) == (4, 2)
    assert len(r.latencies[False]) == 2


class _FixedCalibration:
    def __init__(self, units):
        self.units = iter(units)

    def seconds_per_unit(self, op_seconds):
        return next(self.units)


def test_cost_divides_by_the_calibrations_around_the_op():
    r = run.Run(_Stub([1.0, 1.0]), calibration=_FixedCalibration([1, 3, 5]))
    r.op()
    r.op()
    assert r.unit_seconds == [3, 5]
    assert r.costs == [r.latencies[False][0] / 2, r.latencies[False][1] / 4]


def test_self_times_sum_to_the_op_span():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("estimator.inner", lambda x: x + 1)
    outer = tracer.wrap("curves.outer", lambda x: inner(x) + inner(x))
    tracer.op = 0
    with tracer.span("op") as op:
        outer(1)
        inner(2)
    own = tracer.self_times()
    assert own.sum() == op.duration
    assert all(t >= 1 for t in own)


def test_traced_funkreg_op_self_times_sum_to_its_span(query):
    tracer = spans.Tracer()
    tracer.op = 1
    with tracer.patched(spans.funkreg_targets(tracer)):
        with tracer.span("op") as op:
            query.op(query.next_item())
    names = {s.name for s in tracer.spans}
    assert {"curves.pairwise_distances", "estimator.nadaraya_watson",
            "estimator.confidence_interval"} <= names
    assert tracer.self_times().sum() == pytest.approx(op.duration, rel=1e-9)
    metrics = spans.layer_metrics(tracer, [1])
    assert metrics["estimator.nadaraya_watson.calls"] == 2
    assert metrics["curves.transforms_per_op"] == 166
    # the originals are back once the op ends
    assert not any(getattr(ns, attr).__name__ in ("traced", "counting")
                   for ns, attr, _ in spans.funkreg_targets(tracer))
