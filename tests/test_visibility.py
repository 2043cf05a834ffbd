"""Fringe-visibility envelopes, scalar measures, and the complementarity bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    SetupParams,
    VisibilityReport,
    envelope_pin_check,
    envelopes_for,
    epsilon_and_bound,
    numeric_visibility,
    single_particle_v,
    two_particle_d,
    two_particle_w,
    visibility_of,
    visibility_report,
)
from pairvis.radon import OBSERVABLES, marginal_k1, marginal_spm

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(1.0, 60.0),
    h1=st.floats(0.3, 3.0),
    h2=st.floats(0.3, 3.0),
    xi=st.floats(0.0, PI),
)


class TestEnvelopes:
    def test_envelopes_bracket_the_marginal(self):
        p = SetupParams(8.0, 1.0, 2.0, 0.4)
        s = np.linspace(-8.0, 8.0, 2001)
        for observable, closed in (("k1", marginal_k1(p, s)), ("s+", marginal_spm(p, 1, s))):
            env = envelopes_for(p, observable)
            lo = env.env_minus(s)
            hi = env.env_plus(s)
            assert np.all(closed <= hi + 1e-13)
            assert np.all(closed >= lo - 1e-13)

    def test_envelope_touches_marginal_at_pin_points(self):
        p = SetupParams(8.0, 1.0, 1.0, 0.4)
        check = envelope_pin_check(p, "k1")
        assert check.simultaneous
        assert check.max_deviation < 1e-12

    def test_diagonal_pins_not_simultaneous_for_unequal_slits(self):
        p = SetupParams(8.0, 1.0, 2.0, 0.4)
        check = envelope_pin_check(p, "k+")
        assert not check.simultaneous
        assert check.max_deviation is None

    def test_diagonal_pins_simultaneous_for_equal_slits(self):
        p = SetupParams(8.0, 1.5, 1.5, 0.4)
        check = envelope_pin_check(p, "k+")
        assert check.simultaneous
        assert check.max_deviation < 1e-12

    def test_unknown_observable_rejected(self):
        p = SetupParams(8.0, 1.0, 1.0, 0.4)
        with pytest.raises(ValueError):
            envelopes_for(p, "q7")
        with pytest.raises(ValueError):
            numeric_visibility(p, "q7")


class TestScalarMeasures:
    def test_closed_forms_match_numeric_extraction(self):
        # independent route: sample the marginal's brace (no Gaussian
        # prefactor) over a few fringe periods and take its max/min contrast
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        for observable in ("k1", "k2", "s+", "s-"):
            env = envelopes_for(p, observable)
            assert visibility_of(env) == pytest.approx(numeric_visibility(p, observable), abs=1e-10)

    @pytest.mark.parametrize("a", [1e-3, 0.01, 0.05])
    def test_numeric_extraction_is_finite_for_wide_slits(self, a):
        # the fringe window spans many Gaussian widths here, so the marginal
        # itself underflows; the contrast must not
        p = SetupParams(a, 1.0, 2.0, 0.3)
        for observable in OBSERVABLES:
            v = numeric_visibility(p, observable)
            assert math.isfinite(v) and 0.0 <= v <= 1.0, observable

    def test_regression_values(self):
        # frozen from this implementation after cross-validation against the
        # numeric-extraction route and the Radon quadrature engine
        rep = visibility_report(SetupParams(30.0, 1.0, 2.0, 0.3))
        assert rep.v_k1 == pytest.approx(0.8253356149096783, rel=1e-14)
        assert rep.v_splus == pytest.approx(0.7823212366975176, rel=1e-14)
        assert rep.v_sminus == pytest.approx(0.21767876330248234, rel=1e-14)
        assert rep.D == pytest.approx(0.5646424733950354, rel=1e-14)
        assert rep.epsilon == pytest.approx(7.500148614492437e-22, rel=1e-12)
        assert rep.bound == pytest.approx(2.8503281654818703e-21, rel=1e-12)

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_all_visibilities_lie_in_unit_interval(self, p):
        rep = visibility_report(p)
        for value in (rep.v_k1, rep.v_k2, rep.v_kplus, rep.v_kminus, rep.v_splus, rep.v_sminus, rep.V, rep.W, rep.D):
            assert -1e-15 <= value <= 1.0 + 1e-15

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_separable_angles_have_full_one_particle_visibility(self, p):
        for xi in (0.0, PI / 2.0):
            q = p.with_xi(xi)
            assert single_particle_v(q) == pytest.approx(1.0, abs=1e-15)
            assert two_particle_d(q) == pytest.approx(0.0, abs=1e-15)

    def test_maximal_entanglement_anchors(self):
        p = SetupParams(7.0, 1.3, 2.2, PI / 4.0)
        assert two_particle_d(p) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(1.0, 50.0), st.floats(0.3, 3.0), st.floats(0.0, PI))
    @settings(max_examples=60, deadline=None)
    def test_d_equals_w_for_equal_slits(self, a, h, xi):
        p = SetupParams(a, h, h, xi)
        assert abs(two_particle_d(p) - two_particle_w(p)) <= 1e-15


class TestComplementarityBound:
    @given(st.floats(2.0, 40.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0), st.floats(0.0, PI))
    @settings(max_examples=80, deadline=None)
    def test_epsilon_within_exponential_bound(self, a, h1, h2, xi):
        eps, bound = epsilon_and_bound(SetupParams(a, h1, h2, xi))
        assert abs(eps) <= bound

    def test_bound_formula(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.3)
        g = (p.h1 * p.h2) ** 2 / (p.h1 ** 2 + p.h2 ** 2)
        _, bound = epsilon_and_bound(p)
        assert bound == pytest.approx(2.0 * math.exp(-2.0 * p.a * g), rel=1e-14)

    def test_sum_rule_recomputable_from_reported_fields(self):
        rep = visibility_report(SetupParams(30.0, 1.0, 2.0, 0.3))
        assert 1.0 - rep.V ** 2 - rep.D ** 2 == pytest.approx(rep.epsilon, abs=1e-15)


class TestReportInterface:
    def test_to_dict_keys_exact(self):
        rep = visibility_report(SetupParams(4.0, 1.0, 1.0, 0.3))
        assert list(rep.to_dict().keys()) == [
            "a", "h1", "h2", "xi",
            "v_k1", "v_k2", "v_kplus", "v_kminus", "v_splus", "v_sminus",
            "V", "W", "D", "epsilon", "bound", "regime_warning",
        ]

    def test_regime_warning_propagates(self):
        assert visibility_report(SetupParams(1.0, 1.0, 1.0, 0.3)).to_dict()["regime_warning"] is True
        assert visibility_report(SetupParams(30.0, 1.0, 1.0, 0.3)).to_dict()["regime_warning"] is False

    def test_report_type(self):
        assert isinstance(visibility_report(SetupParams(4.0, 1.0, 1.0, 0.3)), VisibilityReport)
