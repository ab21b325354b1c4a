"""One rule for every count (``errors.require_counts``).

Each count is an integer in [low, high], or at least low where it has no
upper bound. A count that is not an integer raises ``require_integers``'
ValidationError; one outside its range raises TooFewPoints, with the
rule's one text. An order between two counts (k_min <= k_max, or
n_train + n_test <= n) is a second rule whose bound is the first count.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funkreg import (
    BootstrapConfig,
    Curve,
    FixedPilot,
    FunctionalSample,
    KernelSpec,
    MultiplierPilot,
    SamplingGrid,
    ScalarDesignConfig,
    SemiMetricSpec,
    SimulationConfig,
    TooFewPoints,
    ValidationError,
    bootstrap_error_curve,
    knn_bandwidths,
    knn_radii,
    mc_tau_convergence,
    query_rows,
    split_sample,
    theoretical_bias_variance,
)
from funkreg.bootstrap import insample_fit
from funkreg.curves import neighbour_rows
from funkreg.kernels import KernelConstants
from funkreg.simulation import FractalFamily, NonsmoothFamily

UNIFORM = KernelSpec.uniform()
SPEC = SemiMetricSpec(0)
N = 6


def count_sites(n):
    """site -> (name, rules, call): ``call(value)`` passes ``value`` as the
    count ``name`` to the site, on a sample of n curves where the site
    takes one. ``rules`` are the (low, high) ranges the count must lie in,
    in the order the site checks them; the first one a value breaks names
    the error."""
    rng = np.random.default_rng(n)
    grid = SamplingGrid(np.linspace(0.0, 1.0, 5))
    sample = FunctionalSample(grid, rng.normal(size=(n, 5)), rng.normal(size=n))
    query = rng.normal(size=(1, 5))
    d = np.arange(1.0, n + 1.0)

    def select(k_max):
        config = BootstrapConfig(n_replications=2, k_min=2, k_max=k_max,
                                 pilot=FixedPilot(2))
        return bootstrap_error_curve(sample, [Curve(grid, query[0])],
                                     UNIFORM, SPEC, config)

    return {
        "query_rows": ("k", [(1, n)],
                       lambda k: query_rows(sample, SPEC, query, k=k)),
        "neighbour_rows": ("k", [(1, n)],
                           lambda k: neighbour_rows(sample, SPEC, k=k)),
        "knn_radii.k_min": ("k_min", [(1, n)], lambda k: knn_radii(d, k, n)),
        "knn_radii.k_max": ("k_max", [(1, n)], lambda k: knn_radii(d, 1, k)),
        "knn_bandwidths.k_min": ("k_min", [(2, n - 1)],
                                 lambda k: knn_bandwidths(d, k, n - 1)),
        "knn_bandwidths.k_max": ("k_max", [(2, n - 1)],
                                 lambda k: knn_bandwidths(d, 2, k)),
        "theoretical_bias_variance": (
            "n", [(1, None)], lambda m: theoretical_bias_variance(
                1.0, 1.0, 0.1, m, 0.5, KernelConstants(0.5, 1.0, 1.0))),
        "insample_fit": ("k", [(1, n - 1)],
                         lambda k: insample_fit(sample, UNIFORM, SPEC, k=k)),
        # the config checks k_max >= k_min, the error curve k_max <= n - 1
        "bootstrap_error_curve": ("k_max", [(2, None), (2, n - 1)], select),
        "BootstrapConfig.n_replications": (
            "n_replications", [(1, None)],
            lambda b: BootstrapConfig(n_replications=b)),
        "BootstrapConfig.k_min": (
            "k_min", [(2, None)],
            lambda k: BootstrapConfig(k_min=k, k_max=max(k, 2))),
        "BootstrapConfig.k_max": ("k_max", [(2, None)],
                                  lambda k: BootstrapConfig(k_max=k)),
        "BootstrapConfig.k_g": ("k_g", [(2, None)],
                                lambda k: BootstrapConfig(pilot=FixedPilot(k))),
        # the config checks k_g >= 2, pilot_k k_g <= n - 1
        "BootstrapConfig.pilot_k": (
            "k_g", [(2, None), (2, n - 1)],
            lambda k: BootstrapConfig(pilot=FixedPilot(k)).pilot_k(n)),
        "SimulationConfig.n_train": ("n_train", [(1, None)],
                                     lambda m: SimulationConfig(n_train=m)),
        "SimulationConfig.n_test": ("n_test", [(1, None)],
                                    lambda m: SimulationConfig(n_test=m)),
        "SimulationConfig.grid_size": (
            "grid_size", [(5, None)], lambda p: SimulationConfig(grid_size=p)),
        "ScalarDesignConfig.n": ("n", [(1, None)],
                                 lambda m: ScalarDesignConfig(n=m, h=0.1)),
        "ScalarDesignConfig.reps": (
            "reps", [(1, None)],
            lambda r: ScalarDesignConfig(n=10, h=0.1, reps=r)),
        "mc_tau_convergence": (
            "n", [(1000, None)], lambda m: mc_tau_convergence(
                FractalFamily(1.0), m, 0.5, [0.5])),
        "NonsmoothFamily.bandwidth_at_rate": (
            "n", [(2, None)],
            lambda m: NonsmoothFamily(1.0, 1.0, 1.0).bandwidth_at_rate(m)),
        "split_sample.n_train": ("n_train", [(1, n - 1)],
                                 lambda m: split_sample(sample, m, 1, 0)),
        "split_sample.n_test": ("n_test", [(1, n - 1)],
                                lambda m: split_sample(sample, 1, m, 0)),
    }


SITES = sorted(count_sites(N))


def broken_rule(name, rules, value):
    """The rule's text for the first of ``rules`` that ``value`` breaks, or
    None if it keeps them all."""
    for low, high in rules:
        if high is None and value < low:
            return f"{name} must be at least {low}, got {value}"
        if high is not None and not low <= value <= high:
            return f"{name} must lie in [{low}, {high}], got {value}"
    return None


def assert_rule(call, name, rules, value, exact=True):
    """``call(value)`` passes where ``value`` keeps the rules, and raises
    TooFewPoints where it breaks one, with the rule's text if ``exact``."""
    text = broken_rule(name, rules, value)
    if text is None:
        call(value)
    else:
        with pytest.raises(TooFewPoints,
                           match=f"^{re.escape(text)}$" if exact else None):
            call(value)


def edge_values(rules):
    """0, 1, n - 1, n, n + 1 and each bound, with its neighbours."""
    values = {0, 1, N - 1, N, N + 1}
    for low, high in rules:
        values |= {low - 1, low, low + 1}
        if high is not None:
            values |= {high - 1, high, high + 1}
    return sorted(values)


class TestOneCountRule:
    @pytest.mark.parametrize("site", SITES)
    def test_at_and_beyond_each_bound(self, site):
        name, rules, call = count_sites(N)[site]
        for value in edge_values(rules):
            assert_rule(call, name, rules, value)

    @pytest.mark.parametrize("call, text", [
        (lambda: knn_radii(np.ones(N), 3, 2), f"k_max must lie in [3, {N}], got 2"),
        (lambda: knn_bandwidths(np.arange(1.0, N + 1.0), 3, 2),
         f"k_max must lie in [3, {N - 1}], got 2"),
        (lambda: BootstrapConfig(k_min=3, k_max=2), "k_max must be at least 3, got 2"),
        (lambda: split_sample(FunctionalSample(
            SamplingGrid(np.linspace(0.0, 1.0, 5)), np.zeros((N, 5)),
            np.zeros(N)), N - 2, 3, 0), "n_test must lie in [1, 2], got 3"),
        # a multiplier pilot is capped at n - 1, which two curves leave at 1
        (lambda: BootstrapConfig(pilot=MultiplierPilot(2.0)).pilot_k(2),
         "k_g must lie in [2, 1], got 1"),
    ], ids=["knn_radii", "knn_bandwidths", "BootstrapConfig", "split_sample",
            "pilot_k"])
    def test_an_order_between_counts_is_a_second_rule(self, call, text):
        with pytest.raises(TooFewPoints, match=f"^{re.escape(text)}$"):
            call()

    @pytest.mark.parametrize("site", SITES)
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 40))
    def test_accepts_exactly_the_integers_in_range(self, site, n):
        name, rules, call = count_sites(n)[site]
        low = max(low for low, _ in rules)
        high = min((high for _, high in rules if high is not None), default=low)
        values = range(low - 2, high + 3)
        # where no count is in range (knn_bandwidths and the bootstrap at
        # n = 2), a count the site checks first fails first
        in_range = any(broken_rule(name, rules, v) is None for v in values)
        for value in values:
            # a NumPy integer counts as a Python int does
            for count in (value, np.int64(value)):
                assert_rule(call, name, rules, count, exact=in_range)
        if in_range:
            for value in (True, 2.0, np.float64(3)):
                text = f"{name} must be an integer, got {value!r}"
                with pytest.raises(ValidationError,
                                   match=f"^{re.escape(text)}$"):
                    call(value)
