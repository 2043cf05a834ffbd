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
once to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from . import _mpcore
from .radon import OBSERVABLES, RadonAngle, _marginal_brace, marginal_at
from .state import PI, Report, SetupParams, _line_frequencies, _slits_equal, normalization_b2

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


def _envelope_table_mp(pt: _mpcore.Point, observables=OBSERVABLES) -> dict:
    """(lower, upper) brace of each of ``observables``' marginals at its pinned phases, at working precision.

    With θ1 = h1 s cos(phi) and θ2 = h2 s sin(phi) the brace of :func:`radon.marginal_at` reads

        1/2 + (1 + sin 2xi)/4 E1 cos 2(θ1 + θ2) + (1 - sin 2xi)/4 E2 cos 2(θ1 - θ2)
            + cos 2xi/2 (E3 cos 2θ1 + E4 cos 2θ2),

    E1 = e^{-2a B1^2}, E2 = e^{-2a B2^2}, E3 = e^{-a(B1+B2)^2/2}, E4 = e^{-a(B1-B2)^2/2}.
    The envelopes are the marginal's prefactor times this brace at the pins of ``_PINS``.
    """
    a = pt.a
    w1, w2, w3 = (1 + pt.s2) / 4, (1 - pt.s2) / 4, pt.c2 / 2
    half = mpmath.mpf(1) / 2
    r = mpmath.sqrt(half)
    rh = mpmath.hypot(pt.h1, pt.h2)
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    directions = {"k1": (one, zero), "k2": (zero, one), "k+": (r, r), "k-": (r, -r),
                  "s+": (pt.h1 / rh, pt.h2 / rh), "s-": (pt.h1 / rh, -pt.h2 / rh)}
    table = {}
    for observable in observables:
        _, b1, _, b2 = _line_frequencies(pt, *directions[observable])
        e1 = w1 * mpmath.exp(-2 * a * b1 * b1)
        e2 = w2 * mpmath.exp(-2 * a * b2 * b2)
        e3 = w3 * mpmath.exp(-a * (b1 + b2) ** 2 / 2)
        e4 = w3 * mpmath.exp(-a * (b1 - b2) ** 2 / 2)
        table[observable] = tuple(
            mpmath.fsum((half, e1 * _COS_HALF_PI[(p1 + p2) % 4], e2 * _COS_HALF_PI[(p1 - p2) % 4],
                         e3 * _COS_HALF_PI[p1 % 4], e4 * _COS_HALF_PI[p2 % 4]))
            for p1, p2 in _PINS[observable]
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


def _epsilon(vis: dict):
    return 1 - vis["V"] * vis["V"] - vis["D"] * vis["D"]


def epsilon_mp(pt: _mpcore.Point):
    return _epsilon(_measures_mp(pt, _MEASURES["V"] + _MEASURES["D"]))


def bound_mp(pt: _mpcore.Point):
    g = (pt.h1 * pt.h2) ** 2 / (pt.h1 * pt.h1 + pt.h2 * pt.h2)
    return 2 * mpmath.exp(-2 * pt.a * g)


def epsilon_and_bound(params: SetupParams) -> tuple[float, float]:
    """(1 - V^2 - D^2, 2 e^{-2 a g}); the first is guaranteed smaller in magnitude."""
    with _mpcore.workdps(params):
        pt = _mpcore.point(params)
        return float(epsilon_mp(pt)), float(bound_mp(pt))


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
    its extreme values.  Agrees with the envelope-based visibility to ~1e-3
    once a >= 20 (the envelope picture assumes the Gaussian prefactor varies
    slowly over a fringe).
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
    with _mpcore.workdps(params):
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
            epsilon=float(_epsilon(vis)),
            bound=float(bound_mp(pt)),
            regime_warning=params.regime_warning,
        )
