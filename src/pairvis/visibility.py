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
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath
import numpy as np

from . import _mpcore
from .radon import OBSERVABLES, RadonAngle, _marginal_brace, marginal_at
from .state import SetupParams, _slits_equal, normalization_b2

PI = math.pi

__all__ = [
    "EnvelopeSet",
    "PinCheckResult",
    "VisibilityReport",
    "envelope_pin_check",
    "envelopes_for",
    "epsilon_and_bound",
    "numeric_visibility",
    "single_particle_v",
    "two_particle_d",
    "two_particle_w",
    "visibility_of",
    "visibility_report",
]


def _envelope_constants_mp(params: SetupParams, observable: str):
    """(lower, upper, prefactor-scale) brace constants at working precision.

    The marginal is prefactor(s) * brace(s); pinning the oscillatory phases
    replaces brace(s) by these constants.
    """
    a = mpmath.mpf(params.a)
    h1 = mpmath.mpf(params.h1)
    h2 = mpmath.mpf(params.h2)
    c2, s2 = _mpcore.trig2(params.xi)
    if observable in ("k1", "k2"):
        ho = h2 if observable == "k1" else h1
        e_other = mpmath.exp(-2 * a * ho * ho)
        lower = (1 - c2) * (1 - e_other)
        upper = (1 + c2) * (1 + e_other)
        scale = mpmath.mpf(1) / 2
        return lower, upper, scale
    if observable in ("k+", "k-"):
        sign = 1 if observable == "k+" else -1
        ep = mpmath.exp(-a * (h1 + h2) ** 2)
        em = mpmath.exp(-a * (h1 - h2) ** 2)
        cross = 2 * (mpmath.exp(-a * h1 * h1) + mpmath.exp(-a * h2 * h2)) * c2
        lower = 2 + ep * (1 - sign * s2) - em * (1 + sign * s2)
        upper = 2 + cross + ep * (1 - sign * s2) + em * (1 + sign * s2)
        scale = mpmath.mpf(1) / 4
        return lower, upper, scale
    if observable in ("s+", "s-"):
        sign = 1 if observable == "s+" else -1
        g = (h1 * h2) ** 2 / (h1 * h1 + h2 * h2)
        e2g = mpmath.exp(-2 * a * g)
        e8g = mpmath.exp(-8 * a * g)
        lower = 2 - (1 + sign * s2) + e8g * (1 - sign * s2)
        upper = 2 + (1 + sign * s2) + e8g * (1 - sign * s2) + 4 * e2g * c2
        scale = mpmath.mpf(1) / 4
        return lower, upper, scale
    raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")


_SUBSTITUTIONS = {
    "k1": {"env-": "h1*k1 -> pi/2", "env+": "h1*k1 -> pi"},
    "k2": {"env-": "h2*k2 -> pi/2", "env+": "h2*k2 -> pi"},
    "k+": {"env-": "sqrt2*h1*k -> pi/2, sqrt2*h2*k -> pi/2", "env+": "sqrt2*h1*k -> 2pi, sqrt2*h2*k -> 2pi"},
    "k-": {"env-": "sqrt2*h1*k -> pi/2, sqrt2*h2*k -> pi/2", "env+": "sqrt2*h1*k -> 2pi, sqrt2*h2*k -> 2pi"},
    "s+": {"env-": "s*h1^2/rH -> pi/4, s*h2^2/rH -> pi/4", "env+": "s*h1^2/rH -> pi, s*h2^2/rH -> pi"},
    "s-": {"env-": "s*h1^2/rH -> pi/4, s*h2^2/rH -> pi/4", "env+": "s*h1^2/rH -> pi, s*h2^2/rH -> pi"},
}


@dataclass
class EnvelopeSet:
    """Upper/lower fringe envelopes of one marginal, as callables plus constants."""

    observable: str
    env_minus: Callable[[np.ndarray], np.ndarray]
    env_plus: Callable[[np.ndarray], np.ndarray]
    substitutions: dict
    _lower: object = field(repr=False, default=None)
    _upper: object = field(repr=False, default=None)


def envelopes_for(params: SetupParams, observable: str) -> EnvelopeSet:
    with _mpcore.workdps():
        lower, upper, scale = _envelope_constants_mp(params, observable)
        lo_f = float(lower * scale)
        up_f = float(upper * scale)
    a = params.a
    b2 = normalization_b2(params)
    norm = b2 / math.sqrt(2.0 * a * PI)

    def _pref(s: np.ndarray) -> np.ndarray:
        return norm * np.exp(-np.asarray(s, dtype=float) ** 2 / (2.0 * a))

    return EnvelopeSet(
        observable=observable,
        env_minus=lambda s: _pref(s) * lo_f,
        env_plus=lambda s: _pref(s) * up_f,
        substitutions=dict(_SUBSTITUTIONS[observable]),
        _lower=lower,
        _upper=upper,
    )


def visibility_of(env: EnvelopeSet) -> float:
    """Michelson contrast |env+ - env-| / (env+ + env-), from the brace constants."""
    with _mpcore.workdps():
        return float(abs(env._upper - env._lower) / (env._upper + env._lower))


def _visibility_mp(params: SetupParams, observable: str):
    lower, upper, _ = _envelope_constants_mp(params, observable)
    return abs(upper - lower) / (upper + lower)


def single_particle_v_mp(params: SetupParams):
    return max(_visibility_mp(params, "k1"), _visibility_mp(params, "k2"))


def single_particle_v(params: SetupParams) -> float:
    """Best single-particle visibility V = max(V(k1), V(k2))."""
    with _mpcore.workdps():
        return float(single_particle_v_mp(params))


def two_particle_w_mp(params: SetupParams):
    return abs(_visibility_mp(params, "k+") - _visibility_mp(params, "k-"))


def two_particle_w(params: SetupParams) -> float:
    """Conditional two-particle visibility W = |V(k+) - V(k-)|."""
    with _mpcore.workdps():
        return float(two_particle_w_mp(params))


def two_particle_d_mp(params: SetupParams):
    return abs(_visibility_mp(params, "s+") - _visibility_mp(params, "s-"))


def two_particle_d(params: SetupParams) -> float:
    """Distributed two-particle visibility D = |V(s+) - V(s-)|."""
    with _mpcore.workdps():
        return float(two_particle_d_mp(params))


def epsilon_mp(params: SetupParams):
    v = single_particle_v_mp(params)
    d = two_particle_d_mp(params)
    return 1 - v * v - d * d


def bound_mp(params: SetupParams):
    a = mpmath.mpf(params.a)
    h1 = mpmath.mpf(params.h1)
    h2 = mpmath.mpf(params.h2)
    g = (h1 * h2) ** 2 / (h1 * h1 + h2 * h2)
    return 2 * mpmath.exp(-2 * a * g)


def epsilon_and_bound(params: SetupParams) -> tuple[float, float]:
    """(1 - V^2 - D^2, 2 e^{-2 a g}); the first is guaranteed smaller in magnitude."""
    with _mpcore.workdps(params):
        return float(epsilon_mp(params)), float(bound_mp(params))


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
    env = envelopes_for(params, observable)
    h1, h2 = params.h1, params.h2
    if observable in ("k1", "k2"):
        h = h1 if observable == "k1" else h2
        pins = (PI / (2.0 * h), PI / h)
    elif not _slits_equal(params):
        return PinCheckResult(observable, False, (), None)
    elif observable in ("k+", "k-"):
        pins = (PI / (2.0 * math.sqrt(2.0) * h1), math.sqrt(2.0) * PI / h1)
    else:
        rh = math.sqrt(h1 * h1 + h2 * h2)
        pins = (PI * rh / (4.0 * h1 * h1), PI * rh / (h1 * h1))
    marg_lo, marg_hi = marginal_at(params, RadonAngle.named(observable, params), np.array(pins))
    dev = max(abs(marg_lo - float(env.env_minus(pins[0]))), abs(marg_hi - float(env.env_plus(pins[1]))))
    return PinCheckResult(observable, True, pins, float(dev))


def numeric_visibility(params: SetupParams, observable: str, n: int = 16001) -> float:
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
    brace = _marginal_brace(params, phi, np.linspace(0.0, 3.0 * (2.0 * PI / freq), n))
    hi = float(np.max(brace))
    lo = float(np.min(brace))
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class VisibilityReport:
    """All direct-method scalars for one parameter set."""

    params: SetupParams
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

    def to_dict(self) -> dict:
        p = self.params
        return {
            "a": p.a,
            "h1": p.h1,
            "h2": p.h2,
            "xi": p.xi,
            "v_k1": self.v_k1,
            "v_k2": self.v_k2,
            "v_kplus": self.v_kplus,
            "v_kminus": self.v_kminus,
            "v_splus": self.v_splus,
            "v_sminus": self.v_sminus,
            "V": self.V,
            "W": self.W,
            "D": self.D,
            "epsilon": self.epsilon,
            "bound": self.bound,
            "regime_warning": self.regime_warning,
        }


def visibility_report(params: SetupParams) -> VisibilityReport:
    with _mpcore.workdps(params):
        vk1 = _visibility_mp(params, "k1")
        vk2 = _visibility_mp(params, "k2")
        vkp = _visibility_mp(params, "k+")
        vkm = _visibility_mp(params, "k-")
        vsp = _visibility_mp(params, "s+")
        vsm = _visibility_mp(params, "s-")
        v = max(vk1, vk2)
        w = abs(vkp - vkm)
        d = abs(vsp - vsm)
        eps = 1 - v * v - d * d
        bound = bound_mp(params)
        return VisibilityReport(
            params=params,
            v_k1=float(vk1),
            v_k2=float(vk2),
            v_kplus=float(vkp),
            v_kminus=float(vkm),
            v_splus=float(vsp),
            v_sminus=float(vsm),
            V=float(v),
            W=float(w),
            D=float(d),
            epsilon=float(eps),
            bound=float(bound),
            regime_warning=params.regime_warning,
        )
