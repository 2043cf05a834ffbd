"""Second moments, correlation coefficients, and complementarity sums.

Closed-form covariances and variances in both bases, the normalized
correlation measures R (position) and S (wavenumber), and the four
complementarity sums.  The wavenumber covariance decays like
e^{-2a(h1^2+h2^2)} and underflows float64 almost immediately, so its
magnitude is reported as log10|rho| with the sign carried separately; the
normalized S stays O(1) because the decaying factor cancels in the ratio.

All scalars are evaluated in extended precision and rounded once to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from . import _mpcore
from .state import PI, Axis, Report, SetupParams, normalization_b2
from .visibility import single_particle_v_mp

__all__ = [
    "CorrelationReport",
    "MomentSet",
    "complementarity_sums",
    "marginal_k1_mixed",
    "moments_k",
    "moments_x",
]

# |rho_k| at xi = pi/4 below this is taken as experimentally undetectable
DETECTABILITY_FLOOR = 1e-15


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of one basis (means vanish by symmetry)."""

    basis: Axis
    mean1: float
    mean2: float
    cov: float
    var1: float
    var2: float


def _moments_x_mp(pt: _mpcore.Point):
    a, h1, h2, e1, e2, c2, b2 = pt.a, pt.h1, pt.h2, pt.e1, pt.e2, pt.c2, pt.b2
    cov = b2 / 2 * h1 * h2 * pt.s2
    var1 = b2 / (8 * a) * (e1 * e2 + e1 * c2 + (1 + 4 * a * h1 * h1) * (1 + e2 * c2))
    var2 = b2 / (8 * a) * (e1 * e2 + e2 * c2 + (1 + 4 * a * h2 * h2) * (1 + e1 * c2))
    return cov, var1, var2


def _moments_k_mp(pt: _mpcore.Point):
    a, h1, h2, e1, e2, c2, b2 = pt.a, pt.h1, pt.h2, pt.e1, pt.e2, pt.c2, pt.b2
    cov = -2 * a * a * b2 * e1 * e2 * h1 * h2 * pt.s2
    var1 = a * b2 / 2 * (1 + e2 * c2 + e1 * (1 - 4 * a * h1 * h1) * (e2 + c2))
    var2 = a * b2 / 2 * (1 + e1 * c2 + e2 * (1 - 4 * a * h2 * h2) * (e1 + c2))
    return cov, var1, var2


def moments_x(params: SetupParams) -> MomentSet:
    with _mpcore.workdps():
        cov, var1, var2 = _moments_x_mp(_mpcore.point(params))
        return MomentSet(Axis.POSITION, 0.0, 0.0, float(cov), float(var1), float(var2))


def moments_k(params: SetupParams) -> MomentSet:
    """Wavenumber moments; note ``cov`` may underflow to 0.0 as a float.

    The ``rho_k_log10_abs`` and ``rho_k_sign`` fields of :func:`complementarity_sums`
    carry the correlation's magnitude and sign.
    """
    with _mpcore.workdps():
        cov, var1, var2 = _moments_k_mp(_mpcore.point(params))
        return MomentSet(Axis.WAVENUMBER, 0.0, 0.0, float(cov), float(var1), float(var2))


def _rho_mp(moments):
    cov, var1, var2 = moments
    return cov / mpmath.sqrt(var1 * var2)


def _correlations_mp(params: SetupParams, pt: _mpcore.Point) -> tuple:
    """(rho_x, rho_k, R, S, rho_k at xi = pi/4) from the record ``pt`` of ``params``.

    R and S normalize |rho| by its value at the maximally entangled reference
    ``params.with_xi(pi/4)``, whose record shares pt's slit exponentials.
    """
    ref = _mpcore.point(params.with_xi(PI / 4.0))
    rx, rk = _rho_mp(_moments_x_mp(pt)), _rho_mp(_moments_k_mp(pt))
    rx_ref, rk_ref = _rho_mp(_moments_x_mp(ref)), _rho_mp(_moments_k_mp(ref))
    return rx, rk, abs(rx) / abs(rx_ref), abs(rk) / abs(rk_ref), rk_ref


def marginal_k1_mixed(params: SetupParams, k1) -> np.ndarray:
    """First-subsystem wavenumber marginal obtained from the mixed basis.

    Closed form of ∫ |psi(k1, x2)|^2 dx2.  Algebraically this equals the
    joint-wavenumber marginal -- the no-communication statement: measuring
    position or wavenumber on the second subsystem cannot alter the first
    subsystem's distribution -- but the expression is assembled from the
    mixed-basis branch weights rather than the joint-density braces.
    """
    k = np.asarray(k1, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    b2 = normalization_b2(params)
    e2 = math.exp(-2.0 * a * h2 * h2)
    cx2 = math.cos(params.xi) ** 2
    sx2 = math.sin(params.xi) ** 2
    pref = b2 * np.exp(-k * k / (2.0 * a)) / math.sqrt(2.0 * a * PI)
    ck = np.cos(h1 * k)
    sk = np.sin(h1 * k)
    return pref * (ck * ck * cx2 * (1.0 + e2) + sk * sk * sx2 * (1.0 - e2))


@dataclass(frozen=True)
class CorrelationReport(Report):
    """Correlation measures plus the four complementarity sums.

    ``rho_k_log10_abs`` is log10 |rho(k1,k2)|, the log of the correlation
    coefficient itself, not of its square rho_k^2; it is None when rho_k is
    exactly zero, and ``rho_k_sign`` carries the sign.  ``detectability_flag``
    is set when |rho_k| at the maximally entangled xi = pi/4 falls below
    :data:`DETECTABILITY_FLOOR`.
    """

    rho_x: float
    rho_k_log10_abs: Optional[float]
    rho_k_sign: int
    R: float
    S: float
    V2_plus_R2: float
    V2_plus_S2: float
    rhox2_plus_V2: float
    rhok2_plus_V2: float
    detectability_flag: bool


def complementarity_sums(params: SetupParams) -> CorrelationReport:
    """Evaluate V^2 + R^2, V^2 + S^2, rho_x^2 + V^2 and rho_k^2 + V^2.

    The sums approach 1 (or cos^2 2xi for the unnormalized rho_k sum) with
    corrections of order e^{-a}; they are formed at extended precision so the
    float results are the correctly rounded mathematical values rather than
    artifacts of sin^2 + cos^2 != 1 in binary64.
    """
    with _mpcore.workdps():
        pt = _mpcore.point(params)
        v = single_particle_v_mp(pt)
        rx, rk, r, s, rk_ref = _correlations_mp(params, pt)
        return CorrelationReport(
            params=params,
            rho_x=float(rx),
            rho_k_log10_abs=None if rk == 0 else float(mpmath.log10(abs(rk))),
            rho_k_sign=int(mpmath.sign(rk)),
            R=float(r),
            S=float(s),
            V2_plus_R2=float(v * v + r * r),
            V2_plus_S2=float(v * v + s * s),
            rhox2_plus_V2=float(rx * rx + v * v),
            rhok2_plus_V2=float(rk * rk + v * v),
            detectability_flag=bool(abs(rk_ref) < DETECTABILITY_FLOOR),
        )
