"""Indirect (corrected-distribution) route to two-particle visibility.

The corrected density removes the single-particle fringe structure from the
joint wavenumber density and restores the xi-independent background:

    P_bar = |psi|^2 - P(k1; xi) P(k2; xi) + [added term]

where the added term is the product of the maximally entangled (xi = pi/4)
marginal shapes.  Two coefficient conventions exist for it: the default
``"b4_xi"`` weights the added product with B^4(xi) (the form used by the
diagonal-slice expression below); ``"b4_pi4"`` uses the literal product of
xi = pi/4 marginals, i.e. B^4(pi/4).

Along the slit-weighted diagonals the corrected slice admits three envelopes
(env-, env+, env0).  The alternative visibility F is the best contrast among
the active pair: (env+, env-) for distinct slit separations, (env0, env-) for
equal ones.  After phase pinning the envelope ratio is s-independent (every
brace term shares the same Gaussian profile), so the contrast is evaluated
from the pinned constants alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import _mpcore
from .density import density_at
from .radon import marginal_k1, marginal_k2
from .state import KK, PI, Report, SetupParams, _slits_equal, normalization_b2

__all__ = [
    "CorrectedReport",
    "corrected_density",
    "corrected_f",
    "corrected_slice_spm",
]

_CONVENTIONS = ("b4_xi", "b4_pi4")


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")


def corrected_density(params: SetupParams, k1, k2, convention: str = "b4_xi") -> np.ndarray:
    """Corrected joint wavenumber distribution (compositional route)."""
    _check_convention(convention)
    base = density_at(params, KK, k1, k2)
    sub = marginal_k1(params, k1) * marginal_k2(params, k2)
    pi4 = params.with_xi(PI / 4.0)
    add = marginal_k1(pi4, k1) * marginal_k2(pi4, k2)
    if convention == "b4_xi":
        ratio = normalization_b2(params) / normalization_b2(pi4)
        add = add * (ratio * ratio)
    return base - sub + add


def _slice_bracket(consts, sign: int, cc, ss, c2a, c2b):
    """t1 + t2 + t3 of the corrected diagonal slice, in float arrays or in mpmath.

    The phases enter through cc = cos(alpha) cos(beta), ss = sin(alpha) sin(beta),
    c2a = cos(2 alpha) and c2b = cos(2 beta); ``consts`` is
    (B^2, B^4, B^4 of the added term, cos xi, sin xi, cos 2xi, e^{-2a h1^2}, e^{-2a h2^2}).
    """
    b2, b4, b4_add, cx, sx, c2, e1, e2 = consts
    t1 = b2 * (cc * cx - sign * ss * sx) ** 2
    t2 = -(b4 / 8) * (1 + e2 * c2 + (c2 + e2) * c2a) * (1 + e1 * c2 + (c2 + e1) * c2b)
    t3 = (b4_add / 8) * (1 + e2 * c2a) * (1 + e1 * c2b)
    return t1 + t2 + t3


def corrected_slice_spm(params: SetupParams, sign: int, s, convention: str = "b4_xi") -> np.ndarray:
    """Corrected density along the s+/s- diagonal at zero transverse offset.

    Independent of :func:`corrected_density`: evaluated from the explicit
    diagonal-slice expression with phases alpha = s h1^2/sqrt(H),
    beta = s h2^2/sqrt(H), H = h1^2 + h2^2.
    """
    _check_convention(convention)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s_arr = np.asarray(s, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    hh1, hh2 = h1 * h1, h2 * h2
    rh = math.sqrt(hh1 + hh2)
    alpha = s_arr * hh1 / rh
    beta = s_arr * hh2 / rh
    b2 = normalization_b2(params)
    b4 = b2 * b2
    b4_add = b4 if convention == "b4_xi" else normalization_b2(params.with_xi(PI / 4.0)) ** 2
    consts = (b2, b4, b4_add, math.cos(params.xi), math.sin(params.xi), math.cos(2.0 * params.xi),
              math.exp(-2.0 * a * hh1), math.exp(-2.0 * a * hh2))
    bracket = _slice_bracket(consts, sign, np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta),
                             np.cos(2.0 * alpha), np.cos(2.0 * beta))
    return (1.0 / (a * PI)) * np.exp(-s_arr * s_arr / (2.0 * a)) * bracket


# (cc, ss, c2a, c2b) at the slice pins (alpha, beta) = (π/4, π/4), (π/4, -π/4), (π/2, π/2)
_SLICE_PINS = ((0.5, 0.5, 0, 0), (0.5, -0.5, 0, 0), (0, 1, -1, -1))


def _added_b4_mp(params: SetupParams, pt: _mpcore.Point, convention: str):
    """B^4 of the added term under ``convention``, from the record ``pt`` of ``params``."""
    if convention == "b4_xi":
        return pt.b2 * pt.b2
    return _mpcore.point(params.with_xi(PI / 4.0)).b2 ** 2


def _pinned_constants_mp(pt: _mpcore.Point, b4_add) -> tuple:
    """Brace constants (env-, env+, env0) of the corrected s+ slice after phase pinning.

    The s- slice has the same three constants with env- and env+ exchanged:
    at the first two pins only t1 = B^2 (cc cos xi - sign ss sin xi)^2 depends
    on the sign, and flipping it maps one pin's t1 onto the other's, while env0
    is even in the sign.
    """
    consts = (pt.b2, pt.b2 * pt.b2, b4_add, pt.cx, pt.sx, pt.c2, pt.e1, pt.e2)
    return tuple(_slice_bracket(consts, 1, *pin) for pin in _SLICE_PINS)


@dataclass(frozen=True)
class CorrectedReport(Report):
    """Indirect-method scalars; ``F`` is the best corrected-slice contrast."""

    F: float
    v_splus: float
    v_sminus: float
    equality_mode: bool
    convention: str


def _corrected_vis_mp(params: SetupParams, pt: _mpcore.Point, convention: str) -> tuple:
    """(V(s+), V(s-)) of the corrected slices: the contrast of the active envelope pair for each sign.

    The s- pair is the s+ pair with env- and env+ exchanged, so unequal slits
    have one contrast for both signs and equal slits two.
    """
    k_minus, k_plus, k_zero = _pinned_constants_mp(pt, _added_b4_mp(params, pt, convention))
    pairs = ((k_zero, k_minus), (k_zero, k_plus)) if _slits_equal(params) else ((k_plus, k_minus),)
    vis = []
    for upper, lower in pairs:
        denom = upper + lower
        vis.append(mpmath.mpf(0) if denom == 0 else abs(upper - lower) / denom)
    return vis[0], vis[-1]


def corrected_f(params: SetupParams, convention: str = "b4_xi") -> CorrectedReport:
    _check_convention(convention)
    with _mpcore.workdps():
        vp, vm = _corrected_vis_mp(params, _mpcore.point(params), convention)
        vp_f, vm_f, f_f = float(vp), float(vm), float(max(vp, vm))
    return CorrectedReport(
        params=params,
        F=f_f,
        v_splus=vp_f,
        v_sminus=vm_f,
        equality_mode=_slits_equal(params),
        convention=convention,
    )
