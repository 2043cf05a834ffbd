"""Fringe-visibility envelopes, scalar measures, and the complementarity bound."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairvis import (
    SetupParams,
    VisibilityReport,
    envelope_pin_check,
    epsilon_and_bound,
    numeric_visibility,
    visibility_report,
)
from pairvis import _mpcore
from pairvis.radon import OBSERVABLES, RadonAngle, _marginal_brace
from pairvis.visibility import _envelope_table_mp, _epsilon_closed_mp, _report_workdps, bound_mp, epsilon_mp
from test_mpcore import trig2

PI = math.pi

params_st = st.builds(
    SetupParams,
    a=st.floats(1.0, 60.0),
    h1=st.floats(0.3, 3.0),
    h2=st.floats(0.3, 3.0),
    xi=st.floats(0.0, PI),
)


def _envelope_constants_mp(params, observable):
    """Hand-derived (lower, upper, prefactor-scale) brace constants of each family.

    The reference for the pinned-phase table: lower * scale and upper * scale
    are the brace at the env- and env+ pins.
    """
    a = mpmath.mpf(params.a)
    h1 = mpmath.mpf(params.h1)
    h2 = mpmath.mpf(params.h2)
    c2, s2 = trig2(params.xi)
    if observable in ("k1", "k2"):
        ho = h2 if observable == "k1" else h1
        e_other = mpmath.exp(-2 * a * ho * ho)
        return (1 - c2) * (1 - e_other), (1 + c2) * (1 + e_other), mpmath.mpf(1) / 2
    if observable in ("k+", "k-"):
        sign = 1 if observable == "k+" else -1
        ep = mpmath.exp(-a * (h1 + h2) ** 2)
        em = mpmath.exp(-a * (h1 - h2) ** 2)
        cross = 2 * (mpmath.exp(-a * h1 * h1) + mpmath.exp(-a * h2 * h2)) * c2
        lower = 2 + ep * (1 - sign * s2) - em * (1 + sign * s2)
        upper = 2 + cross + ep * (1 - sign * s2) + em * (1 + sign * s2)
        return lower, upper, mpmath.mpf(1) / 4
    sign = 1 if observable == "s+" else -1
    g = (h1 * h2) ** 2 / (h1 * h1 + h2 * h2)
    e2g = mpmath.exp(-2 * a * g)
    e8g = mpmath.exp(-8 * a * g)
    lower = 2 - (1 + sign * s2) + e8g * (1 - sign * s2)
    upper = 2 + (1 + sign * s2) + e8g * (1 - sign * s2) + 4 * e2g * c2
    return lower, upper, mpmath.mpf(1) / 4


def _assert_table_matches_reference(p):
    """Table and epsilon against the hand-derived families; returns whether |epsilon| < bound in mpmath."""
    with _mpcore.workdps(p):
        pt = _mpcore.point(p)
        vis = {}
        for observable, (lower, upper) in _envelope_table_mp(pt).items():
            ref_lower, ref_upper, scale = _envelope_constants_mp(p, observable)
            assert abs(lower - ref_lower * scale) <= 1e-40 * upper, (p, observable)
            assert abs(upper - ref_upper * scale) <= 1e-40 * upper, (p, observable)
            vis[observable] = abs(ref_upper - ref_lower) / (ref_upper + ref_lower)
        v = max(vis["k1"], vis["k2"])
        d = abs(vis["s+"] - vis["s-"])
        eps, ref = epsilon_mp(pt), 1 - v * v - d * d
        if ref == 0:
            assert eps == 0, p
        else:
            assert abs(eps - ref) <= 1e-30 * abs(ref), p
        return abs(eps) < bound_mp(pt)


class TestEnvelopeTable:
    """The brace at pinned phases against the hand-derived envelope families."""

    @pytest.mark.parametrize("a", [1e-8, 0.01, 2.0, 30.0, 200.0])
    def test_matches_hand_derived_families(self, a):
        for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.3, 1.7), (2.0, 2.0)):
            for xi in (0.0, 0.3, PI / 4.0, 1.2, 2.5):
                _assert_table_matches_reference(SetupParams(a, h1, h2, xi))

    @pytest.mark.parametrize("p", [SetupParams(1000.0, 1.0, 2.0, 0.3), SetupParams(2710.0, 1.5, 1.2, 1.2)])
    def test_deep_points_keep_epsilon_within_bound(self, p):
        # a (h1^2 + h2^2) near 5e3 and 1e4: epsilon and bound underflow float64,
        # so the bound is compared in mpmath
        assert _assert_table_matches_reference(p)

    @pytest.mark.parametrize("p", [SetupParams(30.0, 1.0, 2.0, 0.3), SetupParams(2.0, 1.5, 1.5, 2.5)])
    def test_subset_tables_keep_the_full_tables_bits(self, p):
        with _mpcore.workdps(p):
            pt = _mpcore.point(p)
            full = _envelope_table_mp(pt)
            assert list(full) == list(OBSERVABLES)
            for observables in [(obs,) for obs in OBSERVABLES] + [("k1", "k2"), ("k1", "k2", "s+", "s-")]:
                assert _envelope_table_mp(pt, observables) == {obs: full[obs] for obs in observables}

    @pytest.mark.parametrize("h1, h2", [(1.0, 2.0), (0.3, 1.7), (2.0, 2.0)])
    def test_product_state_is_exact(self, h1, h2):
        for a in (2.0, 30.0, 600.0):
            rep = visibility_report(SetupParams(a, h1, h2, 0.0))
            assert rep.V == 1.0 and rep.D == 0.0 and rep.epsilon == 0.0
            # sin 2xi = 0 weighs the k+ and k- braces' terms alike, and fsum adds them exactly
            assert rep.W == 0.0 and rep.v_kplus == rep.v_kminus


class TestEnvelopes:
    def test_envelopes_bracket_the_marginal(self):
        p = SetupParams(8.0, 1.0, 2.0, 0.4)
        s = np.linspace(-8.0, 8.0, 2001)
        # the envelopes share the marginal's Gaussian prefactor, so the brace lies between the pinned ones
        with _mpcore.workdps():
            table = _envelope_table_mp(_mpcore.point(p), ("k1", "s+"))
        for observable in ("k1", "s+"):
            lo, hi = map(float, table[observable])
            brace = _marginal_brace(p, RadonAngle.named(observable, p).phi, s)
            assert np.all(brace <= hi + 1e-13)
            assert np.all(brace >= lo - 1e-13)

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
        # unequal slits: an unknown label must raise before the non-simultaneous early return
        p = SetupParams(8.0, 1.0, 2.0, 0.4)
        with pytest.raises(ValueError):
            envelope_pin_check(p, "q7")
        with pytest.raises(ValueError):
            numeric_visibility(p, "q7")


class TestScalarMeasures:
    def test_closed_forms_match_numeric_extraction(self):
        # independent route: sample the marginal's brace (no Gaussian
        # prefactor) over a few fringe periods and take its max/min contrast
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        rep = visibility_report(p)
        for observable, value in (("k1", rep.v_k1), ("k2", rep.v_k2), ("s+", rep.v_splus), ("s-", rep.v_sminus)):
            assert value == pytest.approx(numeric_visibility(p, observable), abs=1e-10)

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
            rep = visibility_report(p.with_xi(xi))
            assert rep.V == pytest.approx(1.0, abs=1e-15)
            assert rep.D == pytest.approx(0.0, abs=1e-15)

    def test_maximal_entanglement_anchors(self):
        p = SetupParams(7.0, 1.3, 2.2, PI / 4.0)
        assert visibility_report(p).D == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(1.0, 50.0), st.floats(0.3, 3.0), st.floats(0.0, PI))
    @settings(max_examples=60, deadline=None)
    def test_d_equals_w_for_equal_slits(self, a, h, xi):
        rep = visibility_report(SetupParams(a, h, h, xi))
        assert abs(rep.D - rep.W) <= 1e-15


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


def _closed_form_lattice():
    """a up to 1e3, h down to 0.05 (so q = e^{-2ag} > 1/2), and xi inside the case-2 windows."""
    for a in (1e-3, 0.1, 2.0, 30.0, 1000.0):
        for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.3, 3.0), (0.05, 0.05)):
            q = math.exp(-2.0 * a * (h1 * h2) ** 2 / (h1 * h1 + h2 * h2))
            windows = [PI / 4.0 + t * q for t in (0.5, 1.5)] + [3.0 * PI / 4.0 - t * q for t in (0.5, 1.5)]
            for xi in [0.3, PI / 8.0, PI / 2.0, 1.2, 2.9] + windows:
                yield SetupParams(a, h1, h2, xi)


def _closed_form_case(p):
    """(whether N+ and N- differ in sign, whether q > 1/2) at p."""
    with _mpcore.workdps():
        pt = _mpcore.point(p)
        q = bound_mp(pt) / 2
        n_plus, n_minus = 1 + pt.s2 + 2 * pt.c2 * q, 1 - pt.s2 + 2 * pt.c2 * q
        return n_plus * n_minus < 0, q > 0.5


class TestClosedFormEpsilon:
    """The report's epsilon, in closed form at the report's precision, against the direct form."""

    def test_lattice_covers_both_cases(self):
        cases = [_closed_form_case(p) for p in _closed_form_lattice()]
        assert sum(differ for differ, _ in cases) >= 40
        assert sum(differ and wide for differ, wide in cases) >= 10
        assert sum(not differ and wide for differ, wide in cases) >= 10

    @pytest.mark.parametrize("a", [1e-3, 0.1, 2.0, 30.0, 1000.0])
    def test_matches_the_direct_form_with_60_more_digits(self, a):
        for p in (p for p in _closed_form_lattice() if p.a == a):
            with _mpcore.workdps(_mpcore.digits(p) + 60):
                ref = epsilon_mp(_mpcore.point(p))
            with _report_workdps(p):
                pt = _mpcore.point(p)
                eps = _epsilon_closed_mp(pt, bound_mp(pt) / 2)
            with mpmath.workdps(400):
                assert abs(eps - ref) <= mpmath.mpf("1e-40") * abs(ref), p

    @pytest.mark.parametrize("p, epsilon", [
        (SetupParams(10.0, 1.0, 1.0, PI / 2.0), -1.3618106938359116e-36),
        (SetupParams(2.0, 2.0, 2.0, PI / 2.0), -1.0063957180864759e-35),
        (SetupParams(3000.0, 0.05, 0.05, PI / 2.0), -1.6594471849284012e-35),
    ])
    def test_separable_neighbourhood_is_correctly_rounded(self, p, epsilon):
        # at xi = fl(pi/2), epsilon carries sin^2 2xi ~ 1.5e-32; the direct form at the adaptive
        # precision kept about 14 of its digits, and the closed form keeps them all
        with mpmath.workdps(1000):
            assert float(epsilon_mp(_mpcore.point(p))) == epsilon
        assert epsilon_and_bound(p)[0] == epsilon
        assert visibility_report(p).epsilon == epsilon

    @pytest.mark.parametrize("p", [SetupParams(600.0, 1.0, 2.0, 0.3), SetupParams(600.0, 1.0, 2.0, 1.2)])
    def test_deep_epsilon_takes_the_sign_of_cos_2xi(self, p):
        eps, bound = epsilon_and_bound(p)
        assert eps == bound == 0.0
        assert math.copysign(1.0, eps) == math.copysign(1.0, math.cos(2.0 * p.xi))


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
