"""Closed-form marginals versus the numeric Radon engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    RadonAngle,
    SetupParams,
    marginal_at,
    marginal_k1,
    marginal_k2,
    marginal_kpm,
    marginal_spm,
    radon_numeric,
)
from pairvis.radon import OBSERVABLES, _wrap_angle, splus_angle
from pairvis.state import normalization_b2

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(1.0, 40.0),
    h1=st.floats(0.3, 3.0),
    h2=st.floats(0.3, 3.0),
    xi=st.floats(0.0, PI),
)


class TestAngles:
    def test_named_angles(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        assert RadonAngle.k1().phi == 0.0
        assert RadonAngle.k2().phi == pytest.approx(PI / 2.0)
        assert RadonAngle.kplus().phi == pytest.approx(PI / 4.0)
        assert RadonAngle.kminus().phi == pytest.approx(-PI / 4.0)
        assert RadonAngle.splus(p).phi == pytest.approx(math.atan2(2.0, 1.0))
        assert RadonAngle.sminus(p).phi == pytest.approx(-math.atan2(2.0, 1.0))
        by_method = (RadonAngle.k1(), RadonAngle.k2(), RadonAngle.kplus(), RadonAngle.kminus(),
                     RadonAngle.splus(p), RadonAngle.sminus(p))
        assert tuple(RadonAngle.named(label, p) for label in OBSERVABLES) == by_method
        with pytest.raises(ValueError):
            RadonAngle.named("q7", p)

    def test_splus_reduces_to_diagonal_for_equal_slits(self):
        p = SetupParams(4.0, 1.5, 1.5, 0.3)
        assert splus_angle(p) == pytest.approx(PI / 4.0, rel=1e-15)

    @given(st.floats(-20.0, 20.0))
    def test_wrap_angle_lands_in_half_open_interval(self, phi):
        w = _wrap_angle(phi)
        assert -PI / 2.0 < w <= PI / 2.0 + 1e-15


def _ref_k1(p, k):
    """Hand-derived k1 marginal: B^2/(2 sqrt(2πa)) e^{-k^2/2a} [e2 (cos 2h1k + c2) + 1 + c2 cos 2h1k]."""
    a, h1, h2 = p.a, p.h1, p.h2
    c2 = math.cos(2.0 * p.xi)
    e2 = math.exp(-2.0 * a * h2 * h2)
    pref = normalization_b2(p) * np.exp(-k * k / (2.0 * a)) / (2.0 * math.sqrt(2.0 * a * PI))
    osc = np.cos(2.0 * h1 * k)
    return pref * (e2 * (osc + c2) + 1.0 + osc * c2)


def _ref_kpm(p, sign, k):
    """Hand-derived marginal along the k+ (sign = 1) or k- (sign = -1) diagonal."""
    a, h1, h2 = p.a, p.h1, p.h2
    c2 = math.cos(2.0 * p.xi)
    s2 = math.sin(2.0 * p.xi)
    r2 = math.sqrt(2.0)
    pref = normalization_b2(p) * np.exp(-k * k / (2.0 * a)) / (4.0 * math.sqrt(2.0 * a * PI))
    t = (
        2.0
        + 2.0 * (math.exp(-a * h1 * h1) * np.cos(r2 * h1 * k) + math.exp(-a * h2 * h2) * np.cos(r2 * h2 * k)) * c2
        + math.exp(-a * (h1 + h2) ** 2) * np.cos(r2 * (h1 - h2) * k) * (1.0 - sign * s2)
        + math.exp(-a * (h1 - h2) ** 2) * np.cos(r2 * (h1 + h2) * k) * (1.0 + sign * s2)
    )
    return pref * t


def _ref_spm(p, sign, s):
    """Hand-derived marginal along the s+ (sign = 1) or s- (sign = -1) diagonal."""
    a, h1, h2 = p.a, p.h1, p.h2
    hh1, hh2 = h1 * h1, h2 * h2
    rh = math.sqrt(hh1 + hh2)
    g = hh1 * hh2 / (hh1 + hh2)
    c2 = math.cos(2.0 * p.xi)
    s2 = math.sin(2.0 * p.xi)
    pref = normalization_b2(p) * np.exp(-s * s / (2.0 * a)) / (4.0 * math.sqrt(2.0 * a * PI))
    t = (
        2.0
        + np.cos(2.0 * s * rh) * (1.0 + sign * s2)
        + math.exp(-8.0 * a * g) * np.cos(2.0 * s * (hh1 - hh2) / rh) * (1.0 - sign * s2)
        + 2.0 * math.exp(-2.0 * a * g) * (np.cos(2.0 * s * hh1 / rh) + np.cos(2.0 * s * hh2 / rh)) * c2
    )
    return pref * t


class TestGeneralMarginal:
    @pytest.mark.parametrize("a", [0.3, 2.0, 30.0, 200.0])
    @pytest.mark.parametrize("h", [(1.0, 1.0), (1.0, 2.0), (0.3, 1.7)])
    def test_matches_hand_derived_forms_at_named_angles(self, a, h):
        s = np.linspace(-10.0 * math.sqrt(a), 10.0 * math.sqrt(a), 801)
        for xi in (0.0, 0.3, PI / 4.0, 1.9, 3.0 * PI / 4.0):
            p = SetupParams(a, h[0], h[1], xi)
            refs = (_ref_k1(p, s), _ref_k1(p.swapped(), s), _ref_kpm(p, 1, s), _ref_kpm(p, -1, s),
                    _ref_spm(p, 1, s), _ref_spm(p, -1, s))
            for label, ref in zip(OBSERVABLES, refs):
                got = marginal_at(p, RadonAngle.named(label, p), s)
                assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(ref)), (label, xi)

    @pytest.mark.parametrize("p", [SetupParams(2.0, 1.0, 2.0, 0.3), SetupParams(10.0, 0.3, 1.7, 2.2)])
    @pytest.mark.parametrize("phi", [0.1, 0.77, -1.2])
    def test_matches_line_quadrature_at_generic_angles(self, p, phi):
        s = np.linspace(-8.0 * math.sqrt(p.a), 8.0 * math.sqrt(p.a), 101)
        numeric = radon_numeric(p, phi, s, tol=1e-12).values
        assert float(np.max(np.abs(numeric - marginal_at(p, phi, s)))) < 1e-12


class TestClosedVersusNumeric:
    @pytest.mark.parametrize("p", [
        SetupParams(2.0, 1.0, 1.0, 0.3),
        SetupParams(30.0, 1.0, 2.0, 0.3),
        SetupParams(10.0, 2.0, 2.0, PI / 8.0),
    ])
    def test_all_named_observables(self, p):
        s = np.linspace(-8.0 * math.sqrt(p.a), 8.0 * math.sqrt(p.a), 101)
        pairs = [
            (RadonAngle.k1(), marginal_k1(p, s)),
            (RadonAngle.k2(), marginal_k2(p, s)),
            (RadonAngle.kplus(), marginal_kpm(p, 1, s)),
            (RadonAngle.kminus(), marginal_kpm(p, -1, s)),
            (RadonAngle.splus(p), marginal_spm(p, 1, s)),
            (RadonAngle.sminus(p), marginal_spm(p, -1, s)),
        ]
        for angle, closed in pairs:
            numeric = radon_numeric(p, angle, s, tol=1e-10)
            assert float(np.max(np.abs(numeric.values - closed))) < 1e-8

    def test_marginal_k2_is_role_swapped_k1(self):
        p = SetupParams(6.0, 1.0, 2.0, 0.7)
        k = np.linspace(-10.0, 10.0, 201)
        np.testing.assert_allclose(marginal_k2(p, k), marginal_k1(p.swapped(), k), rtol=0.0, atol=1e-15)


class TestMarginalProperties:
    @given(params_st, st.floats(-PI, PI))
    @settings(max_examples=30, deadline=None)
    def test_closed_marginals_are_even_and_nonnegative(self, p, phi):
        s = np.linspace(0.1, 6.0 * math.sqrt(p.a), 64)
        for vals_pos, vals_neg in [
            (marginal_k1(p, s), marginal_k1(p, -s)),
            (marginal_kpm(p, 1, s), marginal_kpm(p, 1, -s)),
            (marginal_spm(p, -1, s), marginal_spm(p, -1, -s)),
            (marginal_at(p, phi, s), marginal_at(p, phi, -s)),
        ]:
            assert float(np.min(vals_pos)) >= 0.0
            scale = max(float(np.max(vals_pos)), 1e-300)
            np.testing.assert_allclose(vals_pos, vals_neg, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("p", [SetupParams(4.0, 1.0, 2.0, 0.3), SetupParams(30.0, 1.0, 1.0, PI / 4.0)])
    def test_closed_marginals_have_unit_mass(self, p):
        s = np.linspace(-10.0 * math.sqrt(p.a), 10.0 * math.sqrt(p.a), 4001)
        for vals in (
            marginal_k1(p, s),
            marginal_k2(p, s),
            marginal_kpm(p, 1, s),
            marginal_kpm(p, -1, s),
            marginal_spm(p, 1, s),
            marginal_spm(p, -1, s),
        ):
            assert float(np.trapezoid(vals, s)) == pytest.approx(1.0, abs=1e-8)

    def test_rotation_preserves_mass(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.9)
        s = np.linspace(-10.0 * math.sqrt(p.a), 10.0 * math.sqrt(p.a), 2001)
        m = radon_numeric(p, RadonAngle(0.9, "custom"), s, tol=1e-9)
        assert float(np.trapezoid(m.values, m.s)) == pytest.approx(1.0, abs=1e-7)
