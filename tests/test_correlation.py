"""Covariances, normalized correlation measures, and the mixed-basis identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    KK,
    XX,
    SetupParams,
    complementarity_sums,
    corrected_f,
    density_at,
    marginal_k1_mixed,
    moments_k,
    moments_x,
    quadrature_2d,
    visibility_report,
)
from pairvis.correlation import DETECTABILITY_FLOOR, _sweep_row
from pairvis.density import basis_domains, basis_panel_hints
from pairvis.radon import marginal_k1
from pairvis.state import KX

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(1.0, 40.0),
    h1=st.floats(0.3, 3.0),
    h2=st.floats(0.3, 3.0),
    xi=st.floats(0.0, PI),
)


def _overshoot_bound(p):
    """Twice the leading-order sup over xi of S - 1 at equal slits h, taken at the narrower slit.

    With e = e^{-2ah^2}, |rho_k| grows past its xi = pi/4 value while the
    denominator 1 + ec(2 - 4ah^2) + e^2(1 - 4ah^2) falls with c = cos 2xi, and
    sup S - 1 = e^2 (4ah^2 - 2)^2 / 2 to leading order.
    """
    return max(math.exp(-4.0 * p.a * h * h) * (4.0 * p.a * h * h - 2.0) ** 2 for h in (p.h1, p.h2))


def _quad_moment(p, basis, weight, tol=1e-10):
    ub, vb = basis_domains(p, basis)
    hints = basis_panel_hints(p, basis)
    return quadrature_2d(
        lambda u, v: weight(u, v) * density_at(p, basis, u, v), ub, vb, tol=tol, min_panels=hints
    )


class TestMoments:
    def test_position_moments_against_quadrature(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.7)
        m = moments_x(p)
        assert m.cov == pytest.approx(_quad_moment(p, XX, lambda u, v: u * v), rel=1e-10)
        assert m.var1 == pytest.approx(_quad_moment(p, XX, lambda u, v: u * u), rel=1e-10)
        assert m.var2 == pytest.approx(_quad_moment(p, XX, lambda u, v: v * v), rel=1e-10)

    def test_wavenumber_variances_against_quadrature(self):
        p = SetupParams(2.0, 1.0, 1.0, 0.4)
        m = moments_k(p)
        assert m.cov == pytest.approx(_quad_moment(p, KK, lambda u, v: u * v), abs=1e-12)
        assert m.var1 == pytest.approx(_quad_moment(p, KK, lambda u, v: u * u), rel=1e-10)
        assert m.var2 == pytest.approx(_quad_moment(p, KK, lambda u, v: v * v), rel=1e-10)

    def test_regression_values(self):
        # frozen after verification against 2d quadrature (position, variances)
        # and the extended-precision factorized oracle (wavenumber covariance)
        m = moments_x(SetupParams(5.0, 1.0, 2.0, 0.7))
        assert m.cov == pytest.approx(1.970884251655787, rel=1e-14)
        assert m.var1 == pytest.approx(1.0499922835631943, rel=1e-14)
        assert m.var2 == pytest.approx(4.05, rel=1e-14)
        mk = moments_k(SetupParams(5.0, 1.0, 2.0, 0.7))
        assert mk.cov == pytest.approx(-3.801342700735579e-20, rel=1e-12)
        assert mk.var1 == pytest.approx(4.999228356319426, rel=1e-14)
        assert mk.var2 == pytest.approx(5.0, rel=1e-14)

    def test_means_are_zero(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.7)
        for m in (moments_x(p), moments_k(p)):
            assert m.mean1 == 0.0 and m.mean2 == 0.0

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_both_bases(self, p):
        for m in (moments_x(p), moments_k(p)):
            assert m.var1 > 0.0 and m.var2 > 0.0
            assert abs(m.cov) <= math.sqrt(m.var1 * m.var2) * (1.0 + 1e-14)

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_sign_structure(self, p):
        s2 = math.sin(2.0 * p.xi)
        mx, mk = moments_x(p), moments_k(p)
        if abs(s2) > 1e-12:
            assert math.copysign(1.0, mx.cov) == math.copysign(1.0, s2) or mx.cov == 0.0
            if mk.cov != 0.0:
                assert math.copysign(1.0, mk.cov) == -math.copysign(1.0, s2)

    def test_separable_angle_has_zero_covariance(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.0)
        assert moments_x(p).cov == 0.0
        assert moments_k(p).cov == 0.0


class TestNormalizedMeasures:
    def test_self_ratio_at_maximal_entanglement(self):
        # the reference is the same record, so the ratios are exactly one
        for a in (5.0, 6.0, 30.0):
            sums = complementarity_sums(SetupParams(a, 1.0, 2.0, PI / 4.0))
            assert sums.R == 1.0 and sums.S == 1.0

    def test_zero_at_separable_angle(self):
        sums = complementarity_sums(SetupParams(5.0, 1.0, 2.0, 0.0))
        assert sums.R == 0.0
        assert sums.S == 0.0

    def test_regression_values(self):
        sums = complementarity_sums(SetupParams(5.0, 1.0, 2.0, 0.7))
        assert sums.rho_x == pytest.approx(0.9557417414194062, rel=1e-14)
        assert sums.R == pytest.approx(0.9854457468487514, rel=1e-14)
        assert sums.S == pytest.approx(0.985518175649408, rel=1e-14)

    @given(params_st)
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, p):
        # rho_x obeys Cauchy-Schwarz everywhere; R and S are ratios against
        # the xi = pi/4 reference and can exceed 1: without limit outside the
        # narrow-slit regime, by at most _overshoot_bound inside it.
        sums = complementarity_sums(p)
        assert -1.0 - 1e-14 <= sums.rho_x <= 1.0 + 1e-14
        assert sums.R >= 0.0
        assert sums.S >= 0.0
        if not p.regime_warning:
            assert sums.R <= 1.0 + _overshoot_bound(p) + 1e-14
            assert sums.S <= 1.0 + _overshoot_bound(p) + 1e-14

    @pytest.mark.parametrize("h1, h2", [(1.0, 1.0), (1.0, 2.0), (1.5, 1.0)])
    @pytest.mark.parametrize("a", [2.0, 3.0])
    def test_overshoot_sup_lies_below_its_bound(self, a, h1, h2):
        # the sup of R and S over a dense xi scan: above 1 inside the regime, below the bound
        p = SetupParams(a, h1, h2)
        sums = [complementarity_sums(p.with_xi(xi)) for xi in np.linspace(0.0, PI, 721)]
        sup = max(max(c.R, c.S) for c in sums) - 1.0
        assert 0.0 < sup <= _overshoot_bound(p)
        if h1 == h2:
            # the leading order is sharp at equal slits: the sup is half the bound
            assert sup >= 0.45 * _overshoot_bound(p)

    def test_rho_x_tends_to_one_at_high_squeezing(self):
        # convergence is polynomial: rho_x ~ 1 - 1/(8 a h^2) at xi = pi/4
        assert complementarity_sums(SetupParams(200.0, 1.0, 1.0, PI / 4.0)).rho_x == pytest.approx(1.0, abs=5e-3)

    def test_rho_k_log_magnitude_and_sign(self):
        p = SetupParams(10.0, 1.0, 1.0, PI / 4.0)
        # |rho_k| = 40 e^{-40} / sqrt(Var_k1 Var_k2) here; cross-checked by the
        # extended-precision factorized quadrature oracle in the acceptance suite
        sums, separable = complementarity_sums(p), complementarity_sums(p.with_xi(0.0))
        assert sums.rho_k_log10_abs == pytest.approx(-15.769719284802111, rel=1e-13)
        assert sums.rho_k_sign == -1
        assert separable.rho_k_log10_abs is None
        assert separable.rho_k_sign == 0


class TestMixedMarginal:
    def test_matches_single_particle_marginal_pointwise(self):
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        k = np.linspace(-80.0, 80.0, 1001)
        assert float(np.max(np.abs(marginal_k1_mixed(p, k) - marginal_k1(p, k)))) < 1e-12

    def test_matches_quadrature_of_the_mixed_density(self):
        from pairvis.density import default_domain, integrate_1d_batch
        from pairvis.state import Axis

        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        lo, hi = default_domain(p, Axis.POSITION, 2)
        k = np.linspace(-30.0, 30.0, 11)
        numeric = integrate_1d_batch(
            lambda x2: density_at(p, KX, k[:, None], x2[None, :]), lo, hi, tol=1e-12, min_panels=64
        )
        assert float(np.max(np.abs(numeric - marginal_k1_mixed(p, k)))) < 1e-8


class TestDetectability:
    def test_flagged_at_modest_squeezing(self):
        # the flag reads |rho_k| at xi = pi/4 (10^-15.77 here), whatever the report's own angle
        p = SetupParams(10.0, 1.0, 1.0, 0.3)
        assert complementarity_sums(p).detectability_flag
        reference = complementarity_sums(p.with_xi(PI / 4.0))
        assert reference.rho_k_log10_abs == pytest.approx(-15.769719284802111, rel=1e-13)
        assert 10.0 ** reference.rho_k_log10_abs < DETECTABILITY_FLOOR

    def test_not_flagged_at_weak_squeezing(self):
        assert not complementarity_sums(SetupParams(1.0, 1.0, 1.0, 0.3)).detectability_flag


class TestComplementaritySums:
    def test_to_dict_keys_exact(self):
        report = complementarity_sums(SetupParams(4.0, 1.0, 1.0, 0.3))
        assert list(report.to_dict().keys()) == [
            "a", "h1", "h2", "xi",
            "rho_x", "rho_k_log10_abs", "rho_k_sign", "R", "S",
            "V2_plus_R2", "V2_plus_S2", "rhox2_plus_V2", "rhok2_plus_V2",
            "detectability_flag",
        ]

    def test_sums_consistent_with_components(self):
        p = SetupParams(6.0, 1.0, 2.0, 0.7)
        report = complementarity_sums(p)
        v = visibility_report(p).V
        assert report.V2_plus_R2 == pytest.approx(v * v + report.R ** 2, abs=1e-14)
        assert report.V2_plus_S2 == pytest.approx(v * v + report.S ** 2, abs=1e-14)
        assert report.rhox2_plus_V2 == pytest.approx(v * v + report.rho_x ** 2, abs=1e-14)

    def test_limit_relations_at_high_squeezing(self):
        p = SetupParams(50.0, 1.0, 1.0, 0.6)
        report = complementarity_sums(p)
        assert report.V2_plus_R2 == pytest.approx(1.0, abs=1e-15)
        assert report.V2_plus_S2 == pytest.approx(1.0, abs=1e-15)
        # rho_x converges to |sin 2 xi| only polynomially in a
        assert report.rhox2_plus_V2 == pytest.approx(1.0, abs=2e-2)


class TestSweepRow:
    """The sweep's row against the three reports, formed from them as the sweep once formed it."""

    # from a = 7.9 at h = (1, 2) the report runs above 50 digits, and at a = 1e4 at its 345-digit cap
    @pytest.mark.parametrize("a", [1e-6, 0.5, 2.0, 7.9, 30.0, 600.0, 1e4])
    def test_equals_the_reports_bit_for_bit(self, a):
        for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.05, 3.0)):
            for xi in (0.0, 0.3, PI / 4.0, PI / 2.0, 2.9):
                p = SetupParams(a, h1, h2, xi)
                cold = {convention: _sweep_row(p, convention) for convention in ("b4_xi", "b4_pi4")}
                rep, comp = visibility_report(p), complementarity_sums(p)
                for convention, row in cold.items():
                    f = corrected_f(p, convention).F
                    expected = (p.a, rep.V * rep.V + rep.D * rep.D, rep.V * rep.V + f * f, comp.V2_plus_R2,
                                rep.bound)
                    assert row == expected == _sweep_row(p, convention), (p, convention)
