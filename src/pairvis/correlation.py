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
from .corrected import _check_convention, _corrected_vis_mp
from .state import PI, Axis, Report, SetupParams, normalization_b2
from .visibility import _MEASURES, _measures_mp, _report_workdps, bound_mp, single_particle_v_mp

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


def _normalized_mp(moments_mp, pt: _mpcore.Point, ref: _mpcore.Point) -> tuple:
    """(rho, |rho| / |rho_ref|, rho_ref) of the basis of ``moments_mp`` at the records ``pt`` and ``ref``.

    R (position) and S (wavenumber) normalize |rho| by its value at the
    maximally entangled reference ``params.with_xi(pi/4)``, whose record ``ref``
    shares pt's slit exponentials.
    """
    rho, rho_ref = _rho_mp(moments_mp(pt)), _rho_mp(moments_mp(ref))
    return rho, abs(rho) / abs(rho_ref), rho_ref


def _correlations_mp(params: SetupParams, pt: _mpcore.Point) -> tuple:
    """(rho_x, rho_k, R, S, rho_k at xi = pi/4) from the record ``pt`` of ``params``."""
    ref = _mpcore.point(params.with_xi(PI / 4.0))
    rx, r, _ = _normalized_mp(_moments_x_mp, pt, ref)
    rk, s, rk_ref = _normalized_mp(_moments_k_mp, pt, ref)
    return rx, rk, r, s, rk_ref


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


def _sweep_row(params: SetupParams, convention: str) -> tuple:
    """(a, V^2 + D^2, V^2 + F^2, V^2 + R^2, bound): the columns of one sweep row, and nothing else.

    Each value comes from the helpers the three reports call, at their
    precisions, and is rounded as the reports round it: V, D and the bound at
    :func:`visibility_report`'s precision, rounded to float before V and D are
    squared and summed; F at 50 digits as :func:`corrected.corrected_f`; and
    V^2 + R^2 at 50 digits as :func:`complementarity_sums`, whose V shares the
    report's k1/k2 table when the report ran at 50 digits.
    """
    _check_convention(convention)
    with _report_workdps(params):
        pt = _mpcore.point(params)
        vis = _measures_mp(pt, _MEASURES["V"] + _MEASURES["D"])
        v, d, bound = float(vis["V"]), float(vis["D"]), float(bound_mp(pt))
    with _mpcore.workdps():
        pt = _mpcore.point(params)
        f = float(max(_corrected_vis_mp(params, pt, convention)))
        v50 = single_particle_v_mp(pt)
        r = _normalized_mp(_moments_x_mp, pt, _mpcore.point(params.with_xi(PI / 4.0)))[1]
        v2_plus_r2 = float(v50 * v50 + r * r)
    return params.a, v * v + d * d, v * v + f * f, v2_plus_r2, bound
