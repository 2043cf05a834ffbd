"""The per-point record shared by the visibility, corrected and correlation scalars."""

import math

import mpmath
import pytest

from pairvis import (
    SetupParams,
    _mpcore,
    complementarity_sums,
    corrected_f,
    epsilon_and_bound,
    visibility,
    visibility_report,
)
from pairvis.correlation import _sweep_row

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


def _caches() -> set:
    """Every ``functools.lru_cache`` bound in the scalar kernel's modules."""
    return {value for module in (_mpcore, visibility) for value in vars(module).values()
            if hasattr(value, "cache_clear")}


def _fresh(build):
    """``build()`` with every memoized constant of the scalar kernel evaluated anew."""
    for cached in _caches():
        cached.cache_clear()
    return build()


def test_the_kernel_memoizes_only_the_slits_the_angle_and_the_braces():
    # a new cache arrives with its traffic and an edit here
    assert {cached.__name__ for cached in _caches()} == {"_slits", "_angle", "_braces"}


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
                br = _mpcore.braces(pt)
                a, h1, h2 = pt.a, pt.h1, pt.h2
                assert pt.q == mpmath.exp(-2 * a * ((h1 * h2) ** 2 / (h1 * h1 + h2 * h2)))
                assert (br.f1, br.f2) == (mpmath.exp(-a * h1 * h1), mpmath.exp(-a * h2 * h2))
                assert (br.fm, br.fp) == (mpmath.exp(-a * (h1 - h2) ** 2), mpmath.exp(-a * (h1 + h2) ** 2))

    @pytest.mark.parametrize("p", POINTS[::5])
    def test_reused_slit_exponentials_give_the_fresh_record(self, p):
        # the xi = pi/4 reference shares p's slit exponentials, and each precision has its own
        def records():
            points = [_mpcore.point(r) for r in (p, p.with_xi(PI / 4.0))]
            return [(pt, _mpcore.braces(pt)) for pt in points]

        for context in (_mpcore.workdps(), _mpcore.workdps(p)):
            with context:
                cached = records()
                assert records() == cached and _fresh(records) == cached

    @pytest.mark.parametrize("entry", [visibility_report, corrected_f, complementarity_sums])
    def test_each_entry_point_builds_one_record(self, monkeypatch, entry):
        # every record an entry point reads, at the precision it read it, equals one built afresh
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        entry(p)
        read = []
        point = _mpcore.point

        def recorded(params):
            pt = point(params)
            read.append((params, mpmath.mp.prec, pt))
            return pt

        monkeypatch.setattr(_mpcore, "point", recorded)
        entry(p)
        monkeypatch.undo()
        assert read
        for params, prec, pt in read:
            with mpmath.workprec(prec):
                assert _fresh(lambda: _mpcore.point(params)) == pt


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
    # one report's three scalar families: 85 exp, 22 cos and 22 sin calls before they shared
    # the record, 39 exp calls before the braces read the point's exponentials and the
    # records were shared; now e1, e2, q and the four k+- brace exponentials at the report's
    # 160 digits, and e1, e2 and q at 50
    p = SetupParams(30.0, 1.0, 2.0, 0.3)
    counts = _count_calls(monkeypatch, mpmath, ("exp", "cos", "sin", "cos_sin"))
    _fresh(lambda: (visibility_report(p), corrected_f(p, convention), complementarity_sums(p)))
    assert counts["exp"] <= 10, counts
    # a cos_sin call evaluates both
    assert counts["cos"] + counts["cos_sin"] <= 10 and counts["sin"] + counts["cos_sin"] <= 10, counts


@pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
def test_three_reports_at_a_50_digit_point_evaluate_the_slit_exponentials_once(monkeypatch, convention):
    p = SetupParams(5.0, 1.0, 1.5, 0.7)
    assert _mpcore.digits(p) == _mpcore.DPS
    arguments = []
    exp = mpmath.exp

    def recorded(x):
        arguments.append(x)
        return exp(x)

    monkeypatch.setattr(mpmath, "exp", recorded)
    _fresh(lambda: (visibility_report(p), corrected_f(p, convention), complementarity_sums(p)))
    with _mpcore.workdps():
        a, h1, h2 = mpmath.mpf(p.a), mpmath.mpf(p.h1), mpmath.mpf(p.h2)
        assert arguments.count(-2 * a * h1 * h1) == 1 and arguments.count(-2 * a * h2 * h2) == 1, arguments


@pytest.mark.parametrize("convention", ["b4_xi", "b4_pi4"])
def test_a_sweep_row_evaluates_q_without_the_k_pm_exponentials(monkeypatch, convention):
    # the row reads e1, e2 and q at the report's 160 digits and at no other precision; the
    # four k+- brace exponentials, which only the report's k+ and k- contrasts read, never run
    p = SetupParams(30.0, 1.0, 2.0, 0.3)
    assert _mpcore.digits(p) > _mpcore.DPS
    counts = _count_calls(monkeypatch, mpmath, ("exp",))
    _fresh(lambda: _sweep_row(p, convention))
    assert counts["exp"] == 3, counts
    counts["exp"] = 0
    _fresh(lambda: epsilon_and_bound(p))
    assert counts["exp"] == 3, counts


@pytest.mark.parametrize("entry", [visibility_report, complementarity_sums, lambda p: _sweep_row(p, "b4_xi")],
                         ids=["visibility_report", "complementarity_sums", "_sweep_row"])
@pytest.mark.parametrize("p", [SetupParams(5.0, 1.0, 1.5, 0.7), SetupParams(30.0, 1.0, 2.0, 0.3)],
                         ids=["50-digits", "a=30"])
def test_each_entry_point_builds_one_k1_k2_table(monkeypatch, entry, p):
    built = []
    table = visibility._envelope_table_mp

    def recorded(pt, observables=visibility.OBSERVABLES):
        built.extend(obs for obs in observables if obs == "k1")
        return table(pt, observables)

    monkeypatch.setattr(visibility, "_envelope_table_mp", recorded)
    _fresh(lambda: entry(p))
    assert len(built) == 1, built


@pytest.mark.parametrize("entry", [visibility_report, epsilon_and_bound])
@pytest.mark.parametrize("a", [1e4, 1e5])
def test_report_entry_points_run_at_most_345_digits(monkeypatch, entry, a):
    # the adaptive rule asks for about 0.87 a (h1^2 + h2^2) digits: 43,459 at a = 1e4
    p = SetupParams(a, 1.0, 2.0, 0.3)
    assert _mpcore.digits(p) > 40_000
    seen = []
    point = _mpcore.point

    def recorded(params):
        seen.append(mpmath.mp.dps)
        return point(params)

    monkeypatch.setattr(_mpcore, "point", recorded)
    entry(p)
    assert seen and max(seen) <= 345, seen
