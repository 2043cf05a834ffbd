"""The per-point record shared by the visibility, corrected and correlation scalars."""

import math

import mpmath
import pytest

from pairvis import SetupParams, _mpcore, complementarity_sums, corrected_f, epsilon_and_bound, visibility_report

PI = math.pi


# Single-purpose forms of the record's constants; the tests compare the record against them.


def trig2(xi) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(cos 2xi, sin 2xi) at working precision."""
    two_xi = 2 * mpmath.mpf(xi)
    return mpmath.cos(two_xi), mpmath.sin(two_xi)


def slit_exponentials(a, h1, h2) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(e^{-2a h1^2}, e^{-2a h2^2}); mpmath never underflows these."""
    a, h1, h2 = mpmath.mpf(a), mpmath.mpf(h1), mpmath.mpf(h2)
    return mpmath.exp(-2 * a * h1 * h1), mpmath.exp(-2 * a * h2 * h2)


def b2_mp(a, h1, h2, xi) -> mpmath.mpf:
    """Squared normalization constant, extended precision."""
    e1, e2 = slit_exponentials(a, h1, h2)
    c2, _ = trig2(xi)
    return 2 / (1 + e1 * e2 + (e1 + e2) * c2)


POINTS = [
    SetupParams(a, h1, h2, xi)
    for a in (1e-8, 0.3, 30.0, 600.0)
    for h1, h2 in ((1.0, 1.0), (1.0, 2.0), (0.3, 1.7))
    for xi in (0.0, 0.3, PI / 4.0, 2.5)
]


class TestPoint:
    @pytest.mark.parametrize("p", POINTS)
    def test_matches_the_single_purpose_forms_bit_for_bit(self, p):
        for context in (_mpcore.workdps(), _mpcore.workdps(p)):
            with context:
                pt = _mpcore.point(p)
                assert (pt.a, pt.h1, pt.h2) == (mpmath.mpf(p.a), mpmath.mpf(p.h1), mpmath.mpf(p.h2))
                assert (pt.e1, pt.e2) == slit_exponentials(p.a, p.h1, p.h2)
                assert (pt.c2, pt.s2) == trig2(p.xi)
                assert (pt.cx, pt.sx) == (mpmath.cos(p.xi), mpmath.sin(p.xi))
                assert pt.b2 == b2_mp(p.a, p.h1, p.h2, p.xi)

    @pytest.mark.parametrize("p", POINTS[::5])
    def test_reused_slit_exponentials_give_the_fresh_record(self, p):
        with _mpcore.workdps():
            ref = p.with_xi(PI / 4.0)
            assert _mpcore.point(ref, slits=_mpcore.point(p)) == _mpcore.point(ref)


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
def test_one_report_evaluates_few_transcendentals(monkeypatch, convention):
    # one report's three scalar families: 85 exp, 22 cos and 22 sin calls before
    # they shared the record and the table evaluated only the observables read
    p = SetupParams(30.0, 1.0, 2.0, 0.3)
    counts = _count_calls(monkeypatch, mpmath, ("exp", "cos", "sin", "cos_sin"))
    visibility_report(p)
    corrected_f(p, convention)
    complementarity_sums(p)
    assert counts["exp"] <= 40, counts
    # a cos_sin call evaluates both
    assert counts["cos"] + counts["cos_sin"] <= 10 and counts["sin"] + counts["cos_sin"] <= 10, counts


@pytest.mark.parametrize("entry", [visibility_report, corrected_f, complementarity_sums])
def test_each_entry_point_builds_one_record(monkeypatch, entry):
    built = []
    point = _mpcore.point

    def recorded(params, slits=None):
        built.append(slits)
        return point(params, slits)

    monkeypatch.setattr(_mpcore, "point", recorded)
    entry(SetupParams(30.0, 1.0, 2.0, 0.3))
    # further records (the xi = pi/4 reference) reuse the first one's exponentials
    assert built[0] is None and all(slits is not None for slits in built[1:])


@pytest.mark.parametrize("entry", [visibility_report, epsilon_and_bound])
@pytest.mark.parametrize("a", [1e4, 1e5])
def test_report_entry_points_run_at_most_345_digits(monkeypatch, entry, a):
    # the adaptive rule asks for about 0.87 a (h1^2 + h2^2) digits: 43,459 at a = 1e4
    p = SetupParams(a, 1.0, 2.0, 0.3)
    assert _mpcore.digits(p) > 40_000
    seen = []
    point = _mpcore.point

    def recorded(params, slits=None):
        seen.append(mpmath.mp.dps)
        return point(params, slits)

    monkeypatch.setattr(_mpcore, "point", recorded)
    entry(p)
    assert seen and max(seen) <= 345, seen
