"""Fringe envelopes and one-/two-particle visibility measures.

Envelopes are obtained from the closed-form marginals by pinning the
oscillatory phases at their extremal values; the visibility of an observable
is the Michelson contrast of its upper and lower envelopes.  The scalar
measures are:

* ``V``   -- best single-particle visibility, max of the k1 and k2 contrasts;
* ``W``   -- conditional two-particle visibility from the k+/k- diagonals;
* ``D``   -- distributed two-particle visibility from the slit-weighted
  diagonals s+/s-;
* ``epsilon = 1 - V^2 - D^2`` with the guarantee ``|epsilon| < 2 e^{-2 a g}``,
  ``g = h1^2 h2^2 / (h1^2 + h2^2)``.

All scalars are computed in extended precision (see ``_mpcore``) and rounded
once to float.  ``epsilon`` comes from its closed form, not from the
cancelling difference, so the report's precision is capped at 345 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from . import _mpcore
from .radon import OBSERVABLES, RadonAngle, _marginal_brace, marginal_at
from .state import PI, Report, SetupParams, _slits_equal, normalization_b2

__all__ = [
    "PinCheckResult",
    "VisibilityReport",
    "envelope_pin_check",
    "epsilon_and_bound",
    "numeric_visibility",
    "visibility_report",
]


# Pinned phases (θ1, θ2) of the brace, in units of π/4, as (env-, env+) per observable.
_PINS = {
    "k1": ((2, 0), (4, 0)),
    "k2": ((0, 2), (0, 4)),
    "k+": ((1, 1), (4, 4)),
    "k-": ((1, -1), (4, -4)),
    "s+": ((1, 1), (4, 4)),
    "s-": ((1, -1), (4, -4)),
}
_COS_HALF_PI = (1, 0, -1, 0)  # cos(n π/2) for n mod 4
# cos 2(θ1 + θ2), cos 2(θ1 - θ2), cos 2θ1 and cos 2θ2 at each pin: 1, 0 or -1
_PIN_COSINES = {
    obs: tuple(tuple(_COS_HALF_PI[n % 4] for n in (p1 + p2, p1 - p2, p1, p2)) for p1, p2 in pins)
    for obs, pins in _PINS.items()
}


def _brace_exponentials(pt: _mpcore.Point, observable: str) -> tuple:
    """(E1, E2, E3, E4) of ``observable``'s brace from the point's constants; see :func:`_envelope_table_mp`."""
    if observable == "k1":
        return pt.e2, pt.e2, 1, pt.e2
    if observable == "k2":
        return pt.e1, pt.e1, pt.e1, 1
    if observable in ("k+", "k-"):
        br = _mpcore.braces(pt)
        return (br.fm, br.fp, br.f1, br.f2) if observable == "k+" else (br.fp, br.fm, br.f1, br.f2)
    q = pt.q
    q4 = q ** 4
    return (1, q4, q, q) if observable == "s+" else (q4, 1, q, q)


def _envelope_table_mp(pt: _mpcore.Point, observables=OBSERVABLES) -> dict:
    """(lower, upper) brace of each of ``observables``' marginals at its pinned phases, at working precision.

    With θ1 = h1 s cos(phi) and θ2 = h2 s sin(phi) the brace of :func:`radon.marginal_at` reads

        1/2 + (1 + sin 2xi)/4 E1 cos 2(θ1 + θ2) + (1 - sin 2xi)/4 E2 cos 2(θ1 - θ2)
            + cos 2xi/2 (E3 cos 2θ1 + E4 cos 2θ2),

    E1 = e^{-2a B1^2}, E2 = e^{-2a B2^2}, E3 = e^{-a(B1+B2)^2/2}, E4 = e^{-a(B1-B2)^2/2}.
    Along the six directions these are exponentials of the point alone, e_i = e^{-2a h_i^2}
    and q from :func:`_mpcore.point` and the rest from :func:`_mpcore.braces`:
    k1 reads (e2, e2, 1, e2), k2 (e1, e1, e1, 1), k+ (e^{-a(h1-h2)^2}, e^{-a(h1+h2)^2},
    e^{-a h1^2}, e^{-a h2^2}), k- the same with its first two swapped, s+ (1, q^4, q, q)
    and s- (q^4, 1, q, q), q = e^{-2ag}.  The envelopes are the marginal's prefactor times
    this brace at the pins of ``_PINS``; each brace sums its terms of nonzero pinned cosine
    with ``fsum``, exactly, so k+ and k- (and s+ and s-) agree to the bit where sin 2xi = 0.
    """
    weights = ((1 + pt.s2) / 4, (1 - pt.s2) / 4, pt.c2 / 2, pt.c2 / 2)
    half = mpmath.mpf(1) / 2
    table = {}
    for observable in observables:
        terms = tuple(w * e for w, e in zip(weights, _brace_exponentials(pt, observable)))
        table[observable] = tuple(
            mpmath.fsum((half,) + tuple(t if cos > 0 else -t for t, cos in zip(terms, cosines) if cos))
            for cosines in _PIN_COSINES[observable]
        )
    return table


def _contrast(lower, upper):
    return abs(upper - lower) / (upper + lower)


# The pair of observables behind each measure: V is the larger contrast, W and D the gap.
_MEASURES = {"V": ("k1", "k2"), "W": ("k+", "k-"), "D": ("s+", "s-")}


def _measures_mp(pt: _mpcore.Point, observables=OBSERVABLES) -> dict:
    """Contrast of each of ``observables`` and each of V, W, D whose pair is among them, from one envelope table."""
    vis = {obs: _contrast(lower, upper) for obs, (lower, upper) in _envelope_table_mp(pt, observables).items()}
    for name, (first, second) in _MEASURES.items():
        if first in vis and second in vis:
            vis[name] = max(vis[first], vis[second]) if name == "V" else abs(vis[first] - vis[second])
    return vis


def single_particle_v_mp(pt: _mpcore.Point):
    return _measures_mp(pt, _MEASURES["V"])["V"]


def epsilon_mp(pt: _mpcore.Point):
    """1 - V^2 - D^2 from the contrasts; it cancels, so it needs :func:`_mpcore.digits` of the point."""
    vis = _measures_mp(pt, _MEASURES["V"] + _MEASURES["D"])
    return 1 - vis["V"] * vis["V"] - vis["D"] * vis["D"]


def bound_mp(pt: _mpcore.Point):
    """2 e^{-2ag}: twice the q that the s+- braces and the closed-form epsilon read."""
    return 2 * pt.q


def _epsilon_closed_mp(pt: _mpcore.Point):
    """1 - V^2 - D^2 in a closed form free of the direct difference's cancellation; q = e^{-2ag}.

    With c = cos 2xi and s = sin 2xi, 1 - V_k^2 = s^2 (1 - x_k) and V_s+- = |N+-| / d+-,
    N+- = 1 +- s + 2cq, d+- = A + (1 -+ s) q^4, A = 2 + 2cq and Delta = d+ d-.
    """
    c, s, q = pt.c2, pt.s2, pt.q
    q4, big_a = q ** 4, 2 + 2 * c * q
    delta = big_a * big_a + 2 * big_a * q4 + c * c * q4 * q4
    n_plus, n_minus = 1 + s + 2 * c * q, 1 - s + 2 * c * q
    if n_plus * n_minus >= 0:
        # D^2 = s^2 (1 - y); V is the k contrast of the larger x_k, not of the larger rounded contrast
        x = max(e * (2 * c + e * (1 + c * c)) / (1 + c * e) ** 2 for e in (pt.e1, pt.e2))
        y = c * q * (4 + 4 * c * q + c * q ** 7) * (delta + 4 * (1 + c * q) * (1 + q4)) / (delta * delta)
        return s * s * (y - x)
    # the signs differ (windows about 2q wide above pi/4 and below 3pi/4, or q > 1/2): D = |gap| / Delta
    gap = n_plus * (big_a + (1 + s) * q4) + n_minus * (big_a + (1 - s) * q4)
    one_minus_d = (c * (-2 * q * big_a + 2 * c * q4 + c * q4 * q4) if gap >= 0 else delta + gap) / delta
    return one_minus_d * (2 - one_minus_d) - max(((c + e) / (1 + c * e)) ** 2 for e in (pt.e1, pt.e2))


def epsilon_and_bound(params: SetupParams) -> tuple[float, float]:
    """(1 - V^2 - D^2, 2 e^{-2 a g}); the first is guaranteed smaller in magnitude."""
    with _mpcore._report_workdps(params):
        pt = _mpcore.point(params)
        return float(_epsilon_closed_mp(pt)), float(bound_mp(pt))


@dataclass(frozen=True)
class PinCheckResult:
    """Result of checking that envelopes touch the marginal at pin points."""

    observable: str
    simultaneous: bool
    pins: tuple[float, ...]
    max_deviation: Optional[float]


def envelope_pin_check(params: SetupParams, observable: str) -> PinCheckResult:
    """Compare the marginal against its envelopes at realizable pin points.

    The multi-phase observables (k+/-, s+/-) only pin both phases at the same
    point when h1 = h2; otherwise the envelope is tangent only approximately
    and the result reports ``simultaneous=False`` with no deviation claim.
    """
    angle = RadonAngle.named(observable, params)
    if observable not in ("k1", "k2") and not _slits_equal(params):
        return PinCheckResult(observable, False, (), None)
    # s = θ1 / (h1 cos phi); on the k2 axis cos phi vanishes and s = θ2 / (h2 sin phi)
    i, h_trig = (1, params.h2 * math.sin(angle.phi)) if observable == "k2" else (0, params.h1 * math.cos(angle.phi))
    pins = tuple(pin[i] * PI / 4.0 / h_trig for pin in _PINS[observable])
    with _mpcore.workdps():
        braces = tuple(map(float, _envelope_table_mp(_mpcore.point(params), (observable,))[observable]))
    s, a = np.array(pins), params.a
    # the (lower, upper) envelope at its own pin: the marginal's prefactor times the pinned brace
    envelopes = normalization_b2(params) / math.sqrt(2.0 * a * PI) * np.exp(-s ** 2 / (2.0 * a)) * np.array(braces)
    dev = np.max(np.abs(marginal_at(params, angle, s) - envelopes))
    return PinCheckResult(observable, True, pins, float(dev))


# brace samples over the three fringe periods that numeric_visibility scans
_NUMERIC_SAMPLES = 16001


def numeric_visibility(params: SetupParams, observable: str) -> float:
    """Independent visibility estimate by extremum extraction.

    Samples the brace of the closed-form marginal (the marginal without its
    Gaussian prefactor) over three fringe periods and forms the contrast of
    its extreme values.  On 60 seeded points with a in [20, 60] it agreed with
    :func:`visibility_report`'s contrasts to 2.6e-15 at worst.
    """
    phi = RadonAngle.named(observable, params).phi
    # the fastest fringe: 2 (h1 |cos phi| + h2 |sin phi|) is the largest brace frequency
    freq = 2.0 * (params.h1 * abs(math.cos(phi)) + params.h2 * abs(math.sin(phi)))
    brace = _marginal_brace(params, phi, np.linspace(0.0, 3.0 * (2.0 * PI / freq), _NUMERIC_SAMPLES))
    hi = float(np.max(brace))
    lo = float(np.min(brace))
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class VisibilityReport(Report):
    """All direct-method scalars for one parameter set."""

    v_k1: float
    v_k2: float
    v_kplus: float
    v_kminus: float
    v_splus: float
    v_sminus: float
    V: float
    W: float
    D: float
    epsilon: float
    bound: float
    regime_warning: bool


def visibility_report(params: SetupParams) -> VisibilityReport:
    with _mpcore._report_workdps(params):
        pt = _mpcore.point(params)
        vis = _measures_mp(pt)
        return VisibilityReport(
            params=params,
            v_k1=float(vis["k1"]),
            v_k2=float(vis["k2"]),
            v_kplus=float(vis["k+"]),
            v_kminus=float(vis["k-"]),
            v_splus=float(vis["s+"]),
            v_sminus=float(vis["s-"]),
            V=float(vis["V"]),
            W=float(vis["W"]),
            D=float(vis["D"]),
            epsilon=float(_epsilon_closed_mp(pt)),
            bound=float(bound_mp(pt)),
            regime_warning=params.regime_warning,
        )
