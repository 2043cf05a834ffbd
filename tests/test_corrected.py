"""Corrected two-particle distribution and its slice-envelope visibility."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    SetupParams,
    corrected_density,
    corrected_f,
    corrected_slice_spm,
    density_at,
    visibility_report,
)
from pairvis import _mpcore
from pairvis.corrected import _added_b4_mp, _pinned_constants_mp
from pairvis.radon import marginal_k1, marginal_k2, splus_angle
from pairvis.state import KK
from test_mpcore import b2_mp, slit_exponentials, trig2

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(1.0, 40.0),
    h1=st.floats(0.3, 3.0),
    h2=st.floats(0.3, 3.0),
    xi=st.floats(0.0, PI),
)


def _pinned_constant_mp(params, sign, which, convention):
    """Hand-derived brace constant of the corrected slice after phase pinning.

    Substitutions (applied to every alpha/beta occurrence):
      env-: alpha -> pi/4, beta -> pi/4
      env+: alpha -> pi/4, beta -> -pi/4
      env0: alpha -> pi/2, beta -> pi/2
    """
    xi = mpmath.mpf(params.xi)
    cx, sx = mpmath.cos(xi), mpmath.sin(xi)
    c2, _ = trig2(params.xi)
    e1, e2 = slit_exponentials(params.a, params.h1, params.h2)
    b2 = b2_mp(params.a, params.h1, params.h2, params.xi)
    b4 = b2 * b2
    if convention == "b4_xi":
        b4_add = b4
    else:
        b4_add = b2_mp(params.a, params.h1, params.h2, PI / 4.0) ** 2
    if which == "minus":
        bracket = (cx - sign * sx) / 2
        c2a = c2b = mpmath.mpf(0)
    elif which == "plus":
        bracket = (cx + sign * sx) / 2
        c2a = c2b = mpmath.mpf(0)
    else:
        bracket = -sign * sx
        c2a = c2b = mpmath.mpf(-1)
    return (
        b2 * bracket * bracket
        - (b4 / 8) * (1 + e2 * c2 + (c2 + e2) * c2a) * (1 + e1 * c2 + (c2 + e1) * c2b)
        + (b4_add / 8) * (1 + e2 * c2a) * (1 + e1 * c2b)
    )


def _slice_above_env0(p):
    """|s| where the s+ slice exceeds env0 by more than 1e-12 of its peak."""
    with _mpcore.workdps():
        pt = _mpcore.point(p)
        k_zero = float(_pinned_constants_mp(pt, _added_b4_mp(p, pt, "b4_xi"))[2])
    half = 10.0 * math.sqrt(p.a)
    s = np.linspace(-half, half, 4001)
    slice_vals = corrected_slice_spm(p, 1, s)
    env_zero = (1.0 / (p.a * PI)) * np.exp(-s * s / (2.0 * p.a)) * k_zero
    return np.abs(s[slice_vals - env_zero > 1e-12 * float(np.max(np.abs(slice_vals)))])


class TestCorrectedDensity:
    def test_reduces_to_plain_density_at_maximal_entanglement(self):
        # at xi = pi/4 the subtracted and restored marginal products coincide
        p = SetupParams(6.0, 1.0, 2.0, PI / 4.0)
        k = np.linspace(-8.0, 8.0, 101)
        kk1, kk2 = np.meshgrid(k, k, indexing="ij")
        np.testing.assert_allclose(
            corrected_density(p, kk1, kk2),
            density_at(p, KK, kk1, kk2),
            rtol=0.0,
            atol=1e-15,
        )

    @given(params_st)
    @settings(max_examples=30, deadline=None)
    def test_construction_identity(self, p):
        # corrected = |psi|^2 - P(k1)P(k2) + (restored product); verify the
        # subtraction part directly against the marginal closed forms
        k = np.linspace(-4.0 * math.sqrt(p.a), 4.0 * math.sqrt(p.a), 33)
        kk1, kk2 = np.meshgrid(k, k, indexing="ij")
        plain = density_at(p, KK, kk1, kk2)
        subtracted = marginal_k1(p, kk1) * marginal_k2(p, kk2)
        restored = corrected_density(p, kk1, kk2) - plain + subtracted
        # the restored term is a product measure: rank-1 as a matrix
        column = restored[:, 16]
        row = restored[16, :]
        center = restored[16, 16]
        if abs(center) > 1e-300:
            np.testing.assert_allclose(
                restored, np.outer(column, row) / center, rtol=1e-8, atol=1e-18
            )

    def test_unknown_convention_rejected(self):
        p = SetupParams(4.0, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            corrected_density(p, 0.0, 0.0, convention="other")


class TestSliceClosedForm:
    @pytest.mark.parametrize("p", [
        SetupParams(30.0, 1.0, 2.0, 0.3),
        SetupParams(5.0, 1.0, 1.0, 1.0),
        SetupParams(10.0, 2.0, 2.0, PI / 8.0),
    ])
    @pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
    def test_matches_compositional_route_on_the_diagonals(self, p, convention):
        s = np.linspace(-6.0 * math.sqrt(p.a), 6.0 * math.sqrt(p.a), 301)
        phi = splus_angle(p)
        for sign, angle in ((1, phi), (-1, -phi)):
            composed = corrected_density(p, s * np.cos(angle), s * np.sin(angle), convention)
            closed = corrected_slice_spm(p, sign, s, convention)
            assert float(np.max(np.abs(composed - closed))) < 1e-12


class TestEnvelopes:
    @pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
    def test_pinned_slice_bracket_matches_hand_derived_constants(self, convention):
        with _mpcore.workdps():
            for a in (1e-8, 0.01, 2.0, 30.0, 200.0):
                for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.3, 1.7), (2.0, 2.0)):
                    for xi in (0.0, 0.3, PI / 4.0, 1.2, 2.5):
                        p = SetupParams(a, h1, h2, xi)
                        scale = b2_mp(a, h1, h2, xi) ** 2
                        pt = _mpcore.point(p)
                        k_minus, k_plus, k_zero = _pinned_constants_mp(pt, _added_b4_mp(p, pt, convention))
                        # the s- slice's constants are the s+ slice's with env- and env+ exchanged
                        for sign, pinned in ((1, (k_minus, k_plus, k_zero)), (-1, (k_plus, k_minus, k_zero))):
                            for which, value in zip(("minus", "plus", "zero"), pinned):
                                ref = _pinned_constant_mp(p, sign, which, convention)
                                assert abs(value - ref) <= 1e-40 * scale, (p, sign, which)

    def test_active_pair_switches_on_slit_equality(self):
        assert not corrected_f(SetupParams(8.0, 1.0, 2.0, 0.4)).equality_mode
        assert corrected_f(SetupParams(8.0, 1.5, 1.5, 0.4)).equality_mode

    def test_crossover_diagnostic(self):
        # equal slits: the slice never leaves the (env0, env-) band
        eq = _slice_above_env0(SetupParams(8.0, 1.0, 1.0, 0.4))
        assert eq.size == 0 or float(np.max(eq)) < 1e-9
        # unequal slits: the tails exceed env0 far from the origin
        uneq = _slice_above_env0(SetupParams(8.0, 1.0, 2.0, 0.4))
        assert uneq.size > 0 and float(np.max(uneq)) > 1.0


class TestVisibilityF:
    def test_regression_values(self):
        # frozen after cross-validation of the slice closed form against the
        # compositional density route
        r = corrected_f(SetupParams(30.0, 1.0, 2.0, 0.3))
        assert r.F == pytest.approx(0.5646424733950354, rel=1e-14)
        assert not r.equality_mode
        r_eq = corrected_f(SetupParams(4.0, 1.0, 1.0, 0.3))
        assert r_eq.F == pytest.approx(0.5037725785698557, rel=1e-14)
        assert r_eq.equality_mode

    def test_conventions_differ_at_low_squeezing_only(self):
        p_low = SetupParams(3.0, 1.0, 1.0, 0.3)
        assert corrected_f(p_low, "b4_xi").F != corrected_f(p_low, "b4_pi4").F
        p_high = SetupParams(30.0, 1.0, 2.0, 0.3)
        assert corrected_f(p_high, "b4_xi").F == pytest.approx(
            corrected_f(p_high, "b4_pi4").F, rel=1e-13
        )

    @given(params_st)
    @settings(max_examples=40, deadline=None)
    def test_f_lies_in_unit_interval_in_the_trusted_regime(self, p):
        # below the regime thresholds the corrected distribution can go
        # negative (it is a quasi-distribution) and the contrast may exceed 1
        if p.regime_warning:
            return
        r = corrected_f(p)
        for value in (r.v_splus, r.v_sminus, r.F):
            assert -1e-15 <= value <= 1.0 + 1e-15

    def test_sum_rule_fails_for_equal_slits_but_holds_for_unequal(self):
        # equal slits: V^2 + F^2 stays visibly below 1 even at high squeezing
        p_eq = SetupParams(8.0, 1.0, 1.0, 0.3)
        v = visibility_report(p_eq).V
        assert v * v + corrected_f(p_eq).F ** 2 < 1.0 - 1e-3
        # unequal slits: the sum converges to 1
        p_uneq = SetupParams(50.0, 1.0, 2.0, 0.7)
        v = visibility_report(p_uneq).V
        assert v * v + corrected_f(p_uneq).F ** 2 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
    def test_unequal_slits_give_one_contrast_for_both_signs(self, convention):
        # the s- envelope pair is the s+ pair exchanged, and the contrast is symmetric in it
        for a in (1e-6, 0.05, 2.0, 30.0, 1e4):
            for h1, h2 in ((1.0, 2.0), (0.3, 1.7), (2.0, 0.7), (1.0, 1.0 + 1e-9)):
                for xi in (0.0, 0.3, PI / 4.0, 1.2, PI / 2.0, 2.5):
                    r = corrected_f(SetupParams(a, h1, h2, xi), convention)
                    assert not r.equality_mode
                    assert r.v_splus == r.v_sminus == r.F, (a, h1, h2, xi)

    def test_separable_angle_gives_zero_f(self):
        assert corrected_f(SetupParams(6.0, 1.0, 2.0, 0.0)).F == pytest.approx(0.0, abs=1e-15)


class TestReportInterface:
    def test_to_dict_keys_exact(self):
        r = corrected_f(SetupParams(4.0, 1.0, 1.0, 0.3))
        assert list(r.to_dict().keys()) == [
            "a", "h1", "h2", "xi", "F", "v_splus", "v_sminus", "equality_mode", "convention",
        ]
