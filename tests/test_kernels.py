"""Tests for kernels, tau0 models, and the asymptotic constants engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funkreg import (
    DomainError,
    InvalidKernel,
    KernelSpec,
    Tau0Model,
    check_m0_positive,
    compute_constants,
    constants_by_quadrature,
    tau0_eval,
)
from funkreg.kernels import eval_kernel_array

GAMMAS = (0.5, 1.0, 2.0, 5.0)
NAMED_KERNELS = {
    "uniform": KernelSpec.uniform(),
    "quadratic": KernelSpec.quadratic(),
    "triangle": KernelSpec.triangle(),
}

ALL_TAU0 = [
    Tau0Model.fractal(1.0),
    Tau0Model.fractal(0.5),
    Tau0Model.dirac_at_one(),
    Tau0Model.indicator_unit(),
    Tau0Model.empirical([(0.2, 0.1), (0.6, 0.5), (1.0, 1.0)]),
]


class TestEvalKernel:
    def test_quadratic_midpoint(self):
        assert eval_kernel_array(KernelSpec.quadratic(), 0.5) == pytest.approx(0.75)

    def test_uniform_inside(self):
        assert eval_kernel_array(KernelSpec.uniform(), 0.3) == 1.0

    @pytest.mark.parametrize("kernel", NAMED_KERNELS.values(), ids=NAMED_KERNELS)
    def test_outside_support(self, kernel):
        assert eval_kernel_array(kernel, 1.5) == 0.0
        assert eval_kernel_array(kernel, -0.1) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(NAMED_KERNELS)),
           st.floats(min_value=5e-324, allow_infinity=False), st.data())
    def test_every_distance_past_the_radius_weighs_zero(self, name, h, data):
        # d > h rounds to d / h > 1 at any positive h, subnormal to the
        # largest float, so a point past a ball gets weight exactly 0
        with np.errstate(over="ignore"):
            above = float(np.nextafter(h, np.inf))
            d = np.array([above, data.draw(st.floats(min_value=above)), np.inf])
            u = d / h
        assert np.all(eval_kernel_array(NAMED_KERNELS[name], u) == 0.0)


class TestValidateKernel:
    """The shape clauses are checked once, when a KernelSpec is built."""

    def test_uniform_passes_all_clauses(self):
        kernel = KernelSpec.uniform()
        assert kernel.k_at_one == 1.0
        assert kernel.h2_strict

    def test_quadratic_fails_boundary_clause_only(self):
        kernel = KernelSpec.quadratic()  # built, so nonnegative and nonincreasing
        assert kernel.k_at_one == 0.0
        assert not kernel.h2_strict

    def test_negative_kernel_rejected(self):
        with pytest.raises(InvalidKernel,
                           match=r"^kernel polynomial is negative on \[0, 1\]$"):
            KernelSpec.polynomial((-1.0,))

    def test_increasing_kernel_rejected(self):
        with pytest.raises(InvalidKernel,
                           match=r"^kernel polynomial is increasing on \[0, 1\)$"):
            KernelSpec.polynomial((0.5, 1.0))

    def test_shape_tolerance_is_1e_12(self):
        KernelSpec.polynomial((1.0, -1.0 - 1e-13))  # K(1) = -1e-13
        KernelSpec.polynomial((1.0, 1e-13))  # K' = 1e-13
        with pytest.raises(InvalidKernel, match="negative"):
            KernelSpec.polynomial((1.0, -1.0 - 1e-11))
        with pytest.raises(InvalidKernel, match="increasing"):
            KernelSpec.polynomial((1.0, 1e-11))

    def test_negativity_is_reported_before_increase(self):
        with pytest.raises(InvalidKernel, match="negative"):
            KernelSpec("bent", (-1.0, 2.0))

    def test_replace_rechecks_the_shape(self):
        with pytest.raises(InvalidKernel, match="kernel uniform is increasing"):
            dataclasses.replace(KernelSpec.uniform(), coefficients=(0.0, 1.0))


class TestTau0Eval:
    def test_fractal(self):
        assert tau0_eval(Tau0Model.fractal(2.0), 0.5) == pytest.approx(0.25)

    def test_dirac_below_one(self):
        assert tau0_eval(Tau0Model.dirac_at_one(), 0.999) == 0.0

    @pytest.mark.parametrize("model", ALL_TAU0)
    def test_value_one_at_one(self, model):
        assert tau0_eval(model, 1.0) == 1.0

    def test_indicator_jump(self):
        model = Tau0Model.indicator_unit()
        assert tau0_eval(model, 0.0) == 0.0
        assert tau0_eval(model, 1e-12) == 1.0

    def test_empirical_interpolation(self):
        model = Tau0Model.empirical([(0.5, 0.5), (1.0, 1.0)])
        # anchored at (0, 0) below the table
        assert tau0_eval(model, 0.25) == pytest.approx(0.25)
        assert tau0_eval(model, 0.75) == pytest.approx(0.75)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tau0_eval(Tau0Model.fractal(1.0), 1.5)

    @pytest.mark.parametrize("model", ALL_TAU0)
    def test_nondecreasing(self, model):
        s = np.linspace(0.0, 1.0, 1000)
        values = [tau0_eval(model, float(x)) for x in s]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empirical_table_validation(self):
        from funkreg import ValidationError

        with pytest.raises(ValidationError):
            Tau0Model.empirical([(0.5, 0.5), (0.4, 0.6), (1.0, 1.0)])
        with pytest.raises(ValidationError):
            Tau0Model.empirical([(0.5, 0.9), (1.0, 0.8)])
        with pytest.raises(ValidationError):
            Tau0Model.empirical([(0.5, 0.5), (0.9, 0.9)])


def closed_form_reference(kernel_name: str, gamma: float):
    """Independent closed forms from term-by-term power-rule integration."""
    if kernel_name == "uniform":
        return gamma / (gamma + 1.0), 1.0, 1.0
    if kernel_name == "quadratic":
        return (
            2.0 * gamma / ((gamma + 1.0) * (gamma + 3.0)),
            2.0 / (gamma + 2.0),
            8.0 / ((gamma + 2.0) * (gamma + 4.0)),
        )
    if kernel_name == "triangle":
        return (
            gamma / ((gamma + 1.0) * (gamma + 2.0)),
            1.0 / (gamma + 1.0),
            2.0 / ((gamma + 1.0) * (gamma + 2.0)),
        )
    raise AssertionError(kernel_name)


class TestComputeConstants:
    def test_uniform_fractal_one(self):
        c = compute_constants(KernelSpec.uniform(), Tau0Model.fractal(1.0))
        assert (c.m0, c.m1, c.m2) == pytest.approx((0.5, 1.0, 1.0))

    def test_quadratic_fractal_one(self):
        c = compute_constants(KernelSpec.quadratic(), Tau0Model.fractal(1.0))
        assert (c.m0, c.m1, c.m2) == pytest.approx((0.25, 2.0 / 3.0, 8.0 / 15.0))

    def test_uniform_dirac(self):
        c = compute_constants(KernelSpec.uniform(), Tau0Model.dirac_at_one())
        assert (c.m0, c.m1, c.m2) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", NAMED_KERNELS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_fractal_closed_forms(self, name, gamma):
        c = compute_constants(NAMED_KERNELS[name], Tau0Model.fractal(gamma))
        assert (c.m0, c.m1, c.m2) == pytest.approx(
            closed_form_reference(name, gamma), abs=1e-14
        )

    @pytest.mark.parametrize(
        "kernel",
        list(NAMED_KERNELS.values()) + [KernelSpec.polynomial((2.0, -1.0, -0.5))],
        ids=list(NAMED_KERNELS) + ["custom-poly"],
    )
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_closed_form_agrees_with_quadrature(self, kernel, gamma):
        closed = compute_constants(kernel, Tau0Model.fractal(gamma))
        quad = constants_by_quadrature(kernel, Tau0Model.fractal(gamma))
        assert closed.m0 == pytest.approx(quad.m0, abs=1e-8)
        assert closed.m1 == pytest.approx(quad.m1, abs=1e-8)
        assert closed.m2 == pytest.approx(quad.m2, abs=1e-8)

    def test_dirac_agrees_with_quadrature(self):
        for kernel in NAMED_KERNELS.values():
            closed = compute_constants(kernel, Tau0Model.dirac_at_one())
            quad = constants_by_quadrature(kernel, Tau0Model.dirac_at_one())
            assert closed.m0 == pytest.approx(quad.m0, abs=1e-8)
            assert closed.m1 == pytest.approx(quad.m1, abs=1e-8)
            assert closed.m2 == pytest.approx(quad.m2, abs=1e-8)

    @pytest.mark.parametrize("name", NAMED_KERNELS)
    @pytest.mark.parametrize(
        "tau0",
        [Tau0Model.fractal(0.5), Tau0Model.fractal(2.0),
         Tau0Model.indicator_unit(),
         Tau0Model.empirical([(0.3, 0.2), (0.8, 0.7), (1.0, 1.0)])],
    )
    def test_m1_against_riemann_oracle(self, name, tau0):
        # independent oracle: midpoint Riemann sum with 1e6 points
        kernel = NAMED_KERNELS[name]
        s = (np.arange(1_000_000) + 0.5) / 1_000_000
        dc = kernel.derivative_coefficients()
        kprime = sum(c * s**j for j, c in enumerate(dc))
        # tau0 on the fine grid, vectorized independently per family
        if tau0.family == "fractal":
            tau_fine = s**tau0.gamma
        elif tau0.family == "indicator_unit":
            tau_fine = np.ones_like(s)
        else:
            xs = [0.0] + [p[0] for p in tau0.table]
            ys = [0.0] + [p[1] for p in tau0.table]
            tau_fine = np.interp(s, xs, ys)
        oracle_m1 = kernel.k_at_one - float(np.mean(np.asarray(kprime) * tau_fine))
        c = compute_constants(kernel, tau0)
        assert c.m1 == pytest.approx(oracle_m1, abs=1e-6)

    def test_uniform_kernel_m1_m2_are_one_for_every_model(self):
        for tau0 in ALL_TAU0:
            c = compute_constants(KernelSpec.uniform(), tau0)
            assert c.m1 == pytest.approx(1.0, abs=1e-9)
            assert c.m2 == pytest.approx(1.0, abs=1e-9)

    def test_invalid_kernel_propagates(self):
        with pytest.raises(InvalidKernel):
            compute_constants(KernelSpec.polynomial((-2.0,)), Tau0Model.fractal(1.0))


class TestM0Positivity:
    def test_fractal_case(self):
        report = check_m0_positive(KernelSpec.uniform(), Tau0Model.fractal(1.0))
        assert report.positive
        assert report.case == "differentiable_tau0"

    def test_indicator_gives_structural_zero(self):
        report = check_m0_positive(KernelSpec.uniform(), Tau0Model.indicator_unit())
        assert not report.positive
        assert report.m0 == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_dirac_zero(self):
        report = check_m0_positive(KernelSpec.quadratic(), Tau0Model.dirac_at_one())
        assert not report.positive
        assert report.m0 == 0.0
        assert report.case == "numeric"

    def test_dirac_with_strict_kernels(self):
        for kernel in (KernelSpec.uniform(), KernelSpec.polynomial((2.0, -1.0))):
            report = check_m0_positive(kernel, Tau0Model.dirac_at_one())
            assert report.positive
            assert report.case == "dirac_with_k1_positive"

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_positive_for_all_named_kernels_fractal(self, gamma):
        for kernel in NAMED_KERNELS.values():
            assert check_m0_positive(kernel, Tau0Model.fractal(gamma)).positive
