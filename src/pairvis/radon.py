"""Radon-transform marginals of the wavenumber density, numeric and closed form.

For a direction angle phi, ``P(s) = ∫∫ rho(k1, k2) δ(s - k1 cos(phi) - k2 sin(phi)) dk1 dk2``
is evaluated by rotating to line coordinates ``k1 = s cos(phi) - t sin(phi)``,
``k2 = s sin(phi) + t cos(phi)`` (unit Jacobian) and integrating over ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _axis_panels, default_domain, density_at, integrate_1d_batch
from .state import KK, PI, Axis, SetupParams, _line_frequencies, normalization_b2


OBSERVABLES = ("k1", "k2", "k+", "k-", "s+", "s-")

__all__ = [
    "Marginal1D",
    "OBSERVABLES",
    "RadonAngle",
    "marginal_at",
    "marginal_k1",
    "marginal_k2",
    "marginal_kpm",
    "marginal_spm",
    "radon_numeric",
    "splus_angle",
]


def _wrap_angle(phi: float) -> float:
    """Fold into (-pi/2, pi/2]; a Radon direction and its opposite coincide up to s -> -s."""
    phi = math.fmod(phi, PI)
    if phi <= -PI / 2.0:
        phi += PI
    elif phi > PI / 2.0:
        phi -= PI
    return phi


@dataclass(frozen=True)
class RadonAngle:
    phi: float
    label: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _wrap_angle(float(self.phi)))

    @classmethod
    def k1(cls) -> "RadonAngle":
        return cls(0.0, "k1")

    @classmethod
    def k2(cls) -> "RadonAngle":
        return cls(PI / 2.0, "k2")

    @classmethod
    def kplus(cls) -> "RadonAngle":
        return cls(PI / 4.0, "k+")

    @classmethod
    def kminus(cls) -> "RadonAngle":
        return cls(-PI / 4.0, "k-")

    @classmethod
    def named(cls, label: str, params: SetupParams) -> "RadonAngle":
        """Direction of one of the named OBSERVABLES; other labels raise ValueError."""
        if label not in OBSERVABLES:
            raise ValueError(f"unknown observable {label!r}; expected one of {OBSERVABLES}")
        splus = splus_angle(params)
        return cls(dict(zip(OBSERVABLES, (0.0, PI / 2.0, PI / 4.0, -PI / 4.0, splus, -splus)))[label], label)

    @classmethod
    def splus(cls, params: SetupParams) -> "RadonAngle":
        return cls(splus_angle(params), "s+")

    @classmethod
    def sminus(cls, params: SetupParams) -> "RadonAngle":
        return cls(-splus_angle(params), "s-")


def _as_angle(phi) -> RadonAngle:
    return phi if isinstance(phi, RadonAngle) else RadonAngle(float(phi))


def splus_angle(params: SetupParams) -> float:
    """Direction of the slit-weighted diagonal s+ = (h1 k1 + h2 k2)/sqrt(h1^2+h2^2)."""
    return math.atan2(params.h2, params.h1)


@dataclass
class Marginal1D:
    """A Radon marginal of the joint density: its values on the ``s`` axis at angle ``phi``."""

    observable: str
    phi: float
    s: np.ndarray
    values: np.ndarray


def radon_numeric(params: SetupParams, phi, s_axis: np.ndarray, tol: float = 1e-10) -> Marginal1D:
    """Line-integral marginal of the wavenumber density along angle phi, via batched 1d quadrature.

    The kk envelope e^{-(k1^2+k2^2)/2a} is isotropic, so every line spans the
    wavenumber axes' +-10 sqrt(a).  On the line the density's fastest fringe
    is cos(2Bt) with B = max(|B1|, |B2|) of the branch phases A1 s + B1 t and
    A2 s + B2 t, and the panels follow the wavenumber axes' rule for a slit
    of half-separation B.  On the k+- lines B = (h1 + h2)/sqrt(2), above
    max(h1, h2) unless the smaller slit is at most sqrt(2) - 1 times the larger.
    """
    angle = _as_angle(phi)
    s = np.asarray(s_axis, dtype=float)
    lo, hi = default_domain(params, Axis.WAVENUMBER)
    _, b1, _, b2 = _line_frequencies(params, math.cos(angle.phi), math.sin(angle.phi))
    panels = _axis_panels(params, Axis.WAVENUMBER, max(abs(b1), abs(b2)), lo, hi)

    def along_line(t: np.ndarray) -> np.ndarray:
        return density_at(params, KK, s[:, None], t[None, :], phi=angle.phi)

    values = integrate_1d_batch(along_line, lo, hi, tol=tol, min_panels=panels)
    return Marginal1D(observable=angle.label, phi=angle.phi, s=s, values=values)


def _marginal_brace(params: SetupParams, phi: float, s: np.ndarray) -> np.ndarray:
    """The brace of :func:`marginal_at`: the marginal without its Gaussian prefactor."""
    a = params.a
    a1, b1, a2, b2 = _line_frequencies(params, math.cos(phi), math.sin(phi))
    cp = math.cos(PI / 4.0 - params.xi)
    sp = math.sin(PI / 4.0 - params.xi)
    # one term per cosine of |psi|^2: ∫ e^{-t^2/2a} cos(αs + βt) dt = sqrt(2πa) e^{-aβ^2/2} cos(αs)
    terms = ((cp * cp / 2.0, 2.0 * a1, 2.0 * b1), (sp * sp / 2.0, 2.0 * a2, 2.0 * b2),
             (cp * sp, a1 + a2, b1 + b2), (cp * sp, a1 - a2, b1 - b2))
    return 0.5 + sum(w * math.exp(-a * beta * beta / 2.0) * np.cos(alpha * s) for w, alpha, beta in terms)


def marginal_at(params: SetupParams, phi, s) -> np.ndarray:
    """Closed-form Radon marginal of the wavenumber density at any angle phi (float or RadonAngle).

    |psi|^2 on the rotated line (branch phases A1 s + B1 t and A2 s + B2 t as in
    ``state.line_factors``; cp = cos(π/4 - xi), sp = sin(π/4 - xi)) integrated over t:

        P(s) = B^2/sqrt(2πa) e^{-s^2/2a} [1/2 + cp^2/2 e^{-2aB1^2} cos 2A1 s + sp^2/2 e^{-2aB2^2} cos 2A2 s
               + cp sp (e^{-a(B1+B2)^2/2} cos (A1+A2) s + e^{-a(B1-B2)^2/2} cos (A1-A2) s)]
    """
    s = np.asarray(s, dtype=float)
    pref = normalization_b2(params) / math.sqrt(2.0 * PI * params.a) * np.exp(-s * s / (2.0 * params.a))
    return pref * _marginal_brace(params, _as_angle(phi).phi, s)


def marginal_k1(params: SetupParams, k1) -> np.ndarray:
    """Closed-form single-particle wavenumber marginal of the first subsystem."""
    return marginal_at(params, RadonAngle.k1(), k1)


def marginal_k2(params: SetupParams, k2) -> np.ndarray:
    return marginal_at(params, RadonAngle.k2(), k2)


def marginal_kpm(params: SetupParams, sign: int, k) -> np.ndarray:
    """Closed-form marginal along the k+/k- diagonals (sign = +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return marginal_at(params, sign * PI / 4.0, k)


def marginal_spm(params: SetupParams, sign: int, s) -> np.ndarray:
    """Closed-form marginal along the slit-weighted diagonals s+/s-."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return marginal_at(params, sign * splus_angle(params), s)
