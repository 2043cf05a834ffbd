"""Radon-transform marginals of the wavenumber density, numeric and closed form.

For a direction angle phi, ``P(s) = ∫∫ rho(k1, k2) δ(s - k1 cos(phi) - k2 sin(phi)) dk1 dk2``
is evaluated by rotating to line coordinates ``k1 = s cos(phi) - t sin(phi)``,
``k2 = s sin(phi) + t cos(phi)`` (unit Jacobian) and integrating over ``t``.
A slice, by contrast, fixes the transverse offset instead of integrating it
out, and is not normalized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .density import basis_domains, basis_panel_hints, integrate_1d_batch
from .density import density_at
from .state import KK, BasisPair, SetupParams, normalization_b2

PI = math.pi

__all__ = [
    "Marginal1D",
    "MarginalKind",
    "RadonAngle",
    "default_s_axis",
    "marginal_k1",
    "marginal_k2",
    "marginal_kpm",
    "marginal_spm",
    "radon_numeric",
    "slice_numeric",
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
    def splus(cls, params: SetupParams) -> "RadonAngle":
        return cls(splus_angle(params), "s+")

    @classmethod
    def sminus(cls, params: SetupParams) -> "RadonAngle":
        return cls(-splus_angle(params), "s-")


def splus_angle(params: SetupParams) -> float:
    """Direction of the slit-weighted diagonal s+ = (h1 k1 + h2 k2)/sqrt(h1^2+h2^2)."""
    return math.atan2(params.h2, params.h1)


class MarginalKind(enum.Enum):
    MARGINAL = "marginal"
    SLICE = "slice"


@dataclass
class Marginal1D:
    """A one-dimensional section of the joint wavenumber density."""

    observable: str
    phi: float
    s: np.ndarray
    values: np.ndarray
    kind: MarginalKind = MarginalKind.MARGINAL
    offset: float = 0.0

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.s))

    def to_csv_text(self) -> str:
        lines = [
            f"# observable={self.observable}",
            f"# phi={self.phi:.17g}",
            f"# kind={self.kind.value}",
            "s,value",
        ]
        for si, vi in zip(self.s, self.values):
            lines.append(f"{si:.17g},{vi:.17g}")
        return "\n".join(lines) + "\n"


def default_s_axis(params: SetupParams, n: int = 1001) -> np.ndarray:
    half = 10.0 * math.sqrt(params.a)
    return np.linspace(-half, half, n)


def radon_numeric(
    params: SetupParams,
    phi,
    s_axis: np.ndarray,
    basis: BasisPair = KK,
    tol: float = 1e-10,
) -> Marginal1D:
    """Line-integral marginal along angle phi, via batched 1d quadrature."""
    angle = phi if isinstance(phi, RadonAngle) else RadonAngle(float(phi))
    s = np.asarray(s_axis, dtype=float)
    (u_lo, u_hi), (v_lo, v_hi) = basis_domains(params, basis)
    # the rotated line can traverse the corner of the rectangular domain
    half = math.sqrt(2.0) * max(u_hi, v_hi)
    pu, pv = basis_panel_hints(params, basis)
    widths = ((u_hi - u_lo) / pu, (v_hi - v_lo) / pv)
    panels = int(math.ceil(2.0 * half / min(widths)))

    def along_line(t: np.ndarray) -> np.ndarray:
        return density_at(params, basis, s[:, None], t[None, :], phi=angle.phi)

    values = integrate_1d_batch(along_line, -half, half, tol=tol, min_panels=panels)
    return Marginal1D(observable=angle.label, phi=angle.phi, s=s, values=values)


def slice_numeric(
    params: SetupParams,
    phi,
    offset: float,
    s_axis: np.ndarray,
    basis: BasisPair = KK,
) -> Marginal1D:
    """Density along the rotated line at fixed transverse offset (no integration)."""
    angle = phi if isinstance(phi, RadonAngle) else RadonAngle(float(phi))
    s = np.asarray(s_axis, dtype=float)
    c, sn = math.cos(angle.phi), math.sin(angle.phi)
    k1 = s * c - offset * sn
    k2 = s * sn + offset * c
    values = density_at(params, basis, k1, k2)
    return Marginal1D(
        observable=angle.label,
        phi=angle.phi,
        s=s,
        values=values,
        kind=MarginalKind.SLICE,
        offset=float(offset),
    )


def marginal_k1(params: SetupParams, k1) -> np.ndarray:
    """Closed-form single-particle wavenumber marginal of the first subsystem."""
    k = np.asarray(k1, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    b2 = normalization_b2(params)
    c2 = math.cos(2.0 * params.xi)
    e2 = math.exp(-2.0 * a * h2 * h2)
    pref = b2 * np.exp(-k * k / (2.0 * a)) / (2.0 * math.sqrt(2.0 * a * PI))
    osc = np.cos(2.0 * h1 * k)
    return pref * (e2 * (osc + c2) + 1.0 + osc * c2)


def marginal_k2(params: SetupParams, k2) -> np.ndarray:
    return marginal_k1(params.swapped(), k2)


def marginal_kpm(params: SetupParams, sign: int, k) -> np.ndarray:
    """Closed-form marginal along the k+/k- diagonals (sign = +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k = np.asarray(k, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    b2 = normalization_b2(params)
    c2 = math.cos(2.0 * params.xi)
    s2 = math.sin(2.0 * params.xi)
    r2 = math.sqrt(2.0)
    pref = b2 * np.exp(-k * k / (2.0 * a)) / (4.0 * math.sqrt(2.0 * a * PI))
    t = (
        2.0
        + 2.0
        * (
            math.exp(-a * h1 * h1) * np.cos(r2 * h1 * k)
            + math.exp(-a * h2 * h2) * np.cos(r2 * h2 * k)
        )
        * c2
        + math.exp(-a * (h1 + h2) ** 2) * np.cos(r2 * (h1 - h2) * k) * (1.0 - sign * s2)
        + math.exp(-a * (h1 - h2) ** 2) * np.cos(r2 * (h1 + h2) * k) * (1.0 + sign * s2)
    )
    return pref * t


def marginal_spm(params: SetupParams, sign: int, s) -> np.ndarray:
    """Closed-form marginal along the slit-weighted diagonals s+/s-."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s_arr = np.asarray(s, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    hh1, hh2 = h1 * h1, h2 * h2
    bigh = hh1 + hh2
    rh = math.sqrt(bigh)
    g = hh1 * hh2 / bigh
    b2 = normalization_b2(params)
    c2 = math.cos(2.0 * params.xi)
    s2 = math.sin(2.0 * params.xi)
    pref = b2 * np.exp(-s_arr * s_arr / (2.0 * a)) / (4.0 * math.sqrt(2.0 * a * PI))
    t = (
        2.0
        + np.cos(2.0 * s_arr * rh) * (1.0 + sign * s2)
        + math.exp(-8.0 * a * g) * np.cos(2.0 * s_arr * (hh1 - hh2) / rh) * (1.0 - sign * s2)
        + 2.0
        * math.exp(-2.0 * a * g)
        * (np.cos(2.0 * s_arr * hh1 / rh) + np.cos(2.0 * s_arr * hh2 / rh))
        * c2
    )
    return pref * t
