"""Wavefunction evaluation, parameter validation, and basis handling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    KK,
    KX,
    XK,
    XX,
    Axis,
    BasisPair,
    ParameterDomainError,
    SetupParams,
    UnsupportedBasisError,
    decomposition_residual,
    normalization_b2,
    psi,
)
from pairvis import _mpcore
from pairvis.state import psi_entangled, psi_separable
from test_mpcore import b2_mp

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(0.5, 60.0),
    h1=st.floats(0.2, 3.0),
    h2=st.floats(0.2, 3.0),
    xi=st.floats(-10.0, 10.0),
)


class TestSetupParams:
    @pytest.mark.parametrize("bad", [{"a": 0.0}, {"a": -1.0}, {"h1": 0.0}, {"h2": -2.0}, {"a": math.nan}, {"h1": math.inf}])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        kwargs = {"a": 4.0, "h1": 1.0, "h2": 1.0, "xi": 0.3}
        kwargs.update(bad)
        with pytest.raises(ParameterDomainError):
            SetupParams(**kwargs)

    @given(xi=st.floats(-50.0, 50.0))
    def test_xi_canonicalized_into_half_open_pi_interval(self, xi):
        p = SetupParams(2.0, 1.0, 1.0, xi)
        assert 0.0 <= p.xi < PI

    def test_xi_canonicalization_preserves_the_state(self):
        # the amplitude is pi-periodic in xi up to a global sign, so the
        # density must be invariant under the canonicalization
        k = np.linspace(-5.0, 5.0, 64)
        base = SetupParams(4.0, 1.0, 2.0, 0.7)
        for shift in (PI, -PI, 3 * PI):
            other = SetupParams(4.0, 1.0, 2.0, 0.7 + shift)
            np.testing.assert_allclose(
                np.abs(psi(base, KK, k, k[::-1])) ** 2,
                np.abs(psi(other, KK, k, k[::-1])) ** 2,
                rtol=0.0,
                atol=1e-15,
            )

    def test_swapped_exchanges_slit_roles(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        q = p.swapped()
        assert (q.a, q.h1, q.h2, q.xi) == (4.0, 2.0, 1.0, 0.3)

    def test_regime_warning_thresholds(self):
        assert SetupParams(1.0, 1.0, 1.0, 0.3).regime_warning
        assert SetupParams(4.0, 0.5, 1.0, 0.3).regime_warning
        assert not SetupParams(2.0, 1.0, 1.0, 0.3).regime_warning


class TestBasisPair:
    def test_tokens_round_trip(self):
        for token, basis in (("xx", XX), ("kk", KK), ("kx", KX), ("xk", XK)):
            assert BasisPair.from_token(token) is basis
            assert basis.token == token

    def test_unknown_token_raises(self):
        with pytest.raises(UnsupportedBasisError):
            BasisPair.from_token("zz")

    def test_mixedness(self):
        assert KX.is_mixed and XK.is_mixed
        assert not XX.is_mixed and not KK.is_mixed


class TestNormalizationConstant:
    def test_value_against_quadrature_oracle(self):
        # mass of the B = 1 state at a=30, h1=1, h2=2, xi=0.3 computed by
        # scipy.integrate.dblquad: 0.4999999999999981 => B^2 = 2.0000000000000075
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        assert normalization_b2(p) == pytest.approx(2.0000000000000075, abs=1e-13)

    def test_known_small_a_value(self):
        # direct evaluation of 2 / (1 + e^{-4} + 2 e^{-2} cos(0.6)) at
        # a=1, h1=h2=1, xi=0.3
        p = SetupParams(1.0, 1.0, 1.0, 0.3)
        expected = 2.0 / (1.0 + math.exp(-4.0) + 2.0 * math.exp(-2.0) * math.cos(0.6))
        assert normalization_b2(p) == pytest.approx(expected, rel=1e-15)

    @given(params_st)
    def test_positive_and_within_analytic_bound(self, p):
        # B^2 exceeds 2 when cos 2xi < 0 at small a h^2; the sharp upper
        # bound is 2 / ((1 - e1)(1 - e2)) with e_i = e^{-2a h_i^2}.
        b2 = normalization_b2(p)
        e1 = math.exp(-2.0 * p.a * p.h1**2)
        e2 = math.exp(-2.0 * p.a * p.h2**2)
        assert 0.0 < b2 <= 2.0 / ((1.0 - e1) * (1.0 - e2)) * (1.0 + 1e-12)
        if math.cos(2.0 * p.xi) >= 0.0:
            assert b2 <= 2.0 + 1e-12

    def test_matches_extended_precision_over_wide_domain(self):
        # 1 + e1 e2 + (e1 + e2) cos 2xi cancels to O(a^2 h1^2 h2^2) at xi = pi/2
        # and small a; the float form must keep full relative accuracy there
        xis = (0.0, PI / 8.0, PI / 4.0, 3.0 * PI / 8.0, PI / 2.0, 3.0 * PI / 4.0)
        with mpmath.workdps(60):
            for a in np.logspace(-8.0, 3.0, 23):
                for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.01, 5.0)):
                    for xi in xis:
                        p = SetupParams(float(a), h1, h2, xi)
                        ref = b2_mp(p.a, p.h1, p.h2, p.xi)
                        rel = abs((mpmath.mpf(normalization_b2(p)) - ref) / ref)
                        assert rel <= 1e-14, (p, float(rel))

    def test_overflow_safe_at_extreme_squeezing(self):
        p = SetupParams(5000.0, 3.0, 3.0, 0.3)
        assert normalization_b2(p) == pytest.approx(2.0, rel=1e-15)


class TestAmplitude:
    def test_wavenumber_value_against_fourier_oracle(self):
        # 2D Fourier transform of the position amplitude at a=30, h1=1, h2=2,
        # xi=0.3 evaluated by scipy.integrate.dblquad at (k1, k2) = (0.7, -1.1):
        # -0.03965256069576184 (quadrature-limited accuracy ~1e-13)
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        val = complex(psi(p, KK, 0.7, -1.1))
        assert val.imag == 0.0
        assert val.real == pytest.approx(-0.03965256069576184, abs=1e-9)

    def test_position_peak_value(self):
        # at (h1, h2) the cross Gaussians are e^{-4 a h^2}-suppressed, so the
        # peak tends to sqrt(a / 2 pi) * B * cos(pi/4 - xi) for large a
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        peak = complex(psi(p, XX, p.h1, p.h2)).real
        b = math.sqrt(normalization_b2(p))
        expected = math.sqrt(p.a / (2.0 * PI)) * b * math.cos(PI / 4.0 - p.xi)
        assert peak == pytest.approx(expected, rel=1e-12)

    @given(params_st, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    @settings(max_examples=60)
    def test_joint_sign_flip_symmetry(self, p, u, v):
        for basis in (XX, KK):
            lhs = complex(psi(p, basis, u, v))
            rhs = complex(psi(p, basis, -u, -v))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(params_st)
    @settings(max_examples=40)
    def test_branch_decompositions_agree(self, p):
        rng = np.random.default_rng(7)
        u = rng.uniform(-6.0, 6.0, 256)
        v = rng.uniform(-6.0, 6.0, 256)
        for basis in (XX, KK):
            assert float(np.max(decomposition_residual(p, basis, u, v))) < 1e-12

    def test_branch_decomposition_rejects_mixed_basis(self):
        p = SetupParams(4.0, 1.0, 1.0, 0.3)
        for fn in (psi_entangled, psi_separable):
            with pytest.raises(UnsupportedBasisError):
                fn(p, KX, 0.0, 0.0)

    def test_mixed_bases_are_role_swaps_of_each_other(self):
        p = SetupParams(6.0, 1.0, 2.0, 0.7)
        k = np.linspace(-6.0, 6.0, 41)
        x = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(
            psi(p, XK, x, k), psi(p.swapped(), KX, k, x), rtol=0.0, atol=1e-15
        )

    def test_mixed_amplitude_purely_real_at_separable_angles(self):
        p = SetupParams(6.0, 1.0, 2.0, 0.0)
        vals = psi(p, KX, np.linspace(-4, 4, 33), np.linspace(-2, 2, 33))
        assert float(np.max(np.abs(vals.imag))) == 0.0


def test_axis_enum_values():
    assert Axis.POSITION.value == "x"
    assert Axis.WAVENUMBER.value == "k"
