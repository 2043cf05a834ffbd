"""Partially entangled bipartite Gaussian state for paired double slits.

The wavefunction describes two subsystems passing Gaussian double slits with
half-separations ``h1`` and ``h2`` and common squeezing ``a = 1/(4 sigma^2)``.
The entanglement angle ``xi`` mixes the correlated branch (slits +h1,+h2 and
-h1,-h2) with the anti-correlated one; ``xi`` is periodic with period pi and
is stored canonically in ``[0, pi)``.

All evaluators are overflow-safe: products of growing exponentials
(``cosh``/``sinh`` of arguments proportional to ``a``) are refactored into
sums of decaying shifted Gaussians before anything is exponentiated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

PI = math.pi

__all__ = [
    "Axis",
    "BasisPair",
    "ParameterDomainError",
    "Report",
    "SetupParams",
    "UnsupportedBasisError",
    "XX",
    "KK",
    "KX",
    "XK",
    "decomposition_residual",
    "normalization_b2",
    "psi",
    "psi_entangled",
    "psi_separable",
]


class ParameterDomainError(ValueError):
    """Setup parameters outside their physical domain."""


class UnsupportedBasisError(ValueError):
    """The requested operation is not defined for this basis pair."""


class Axis(enum.Enum):
    POSITION = "x"
    WAVENUMBER = "k"


@dataclass(frozen=True)
class BasisPair:
    """Which representation each subsystem is expressed in."""

    first: Axis
    second: Axis

    @classmethod
    def from_token(cls, token: str) -> "BasisPair":
        try:
            return _BASIS_TOKENS[token]
        except KeyError:
            raise UnsupportedBasisError(
                f"unknown basis token {token!r}; expected one of {sorted(_BASIS_TOKENS)}"
            ) from None

    @property
    def token(self) -> str:
        return self.first.value + self.second.value

    @property
    def is_mixed(self) -> bool:
        return self.first is not self.second


XX = BasisPair(Axis.POSITION, Axis.POSITION)
KK = BasisPair(Axis.WAVENUMBER, Axis.WAVENUMBER)
KX = BasisPair(Axis.WAVENUMBER, Axis.POSITION)
XK = BasisPair(Axis.POSITION, Axis.WAVENUMBER)

_BASIS_TOKENS = {"xx": XX, "kk": KK, "kx": KX, "xk": XK}


@dataclass(frozen=True)
class SetupParams:
    """Squeezing ``a``, slit half-separations ``h1``/``h2``, entanglement angle ``xi``."""

    a: float
    h1: float
    h2: float
    xi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "h1", "h2"):
            try:
                value = float(getattr(self, name))
            except (TypeError, ValueError):
                raise ParameterDomainError(f"{name} must be a real number") from None
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterDomainError(
                    f"{name} must be a positive finite real, got {getattr(self, name)!r}"
                )
            object.__setattr__(self, name, value)
        try:
            xi = float(self.xi)
        except (TypeError, ValueError):
            raise ParameterDomainError("xi must be a real number") from None
        if not math.isfinite(xi):
            raise ParameterDomainError(f"xi must be finite, got {self.xi!r}")
        xi = math.fmod(xi, PI)
        if xi < 0.0:
            xi += PI
        # A tiny negative remainder can round up to exactly pi; the state is
        # pi-periodic in xi, so fold that endpoint back to 0 to keep [0, pi).
        if xi >= PI:
            xi = 0.0
        object.__setattr__(self, "xi", xi)

    @property
    def regime_warning(self) -> bool:
        """True outside the narrow-slit regime the closed forms are tuned for."""
        return self.a < 2.0 or self.h1 < 1.0 or self.h2 < 1.0

    def swapped(self) -> "SetupParams":
        """Exchange the roles of the two subsystems."""
        return SetupParams(self.a, self.h2, self.h1, self.xi)

    def with_xi(self, xi: float) -> "SetupParams":
        return SetupParams(self.a, self.h1, self.h2, xi)


@dataclass(frozen=True)
class Report:
    """Scalars evaluated at one parameter set; subclasses declare them as fields after ``params``."""

    params: SetupParams

    def to_dict(self) -> dict:
        """``a, h1, h2, xi``, then every field after ``params`` in declaration order."""
        out = asdict(self.params)
        out.update((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        return out


def normalization_b2(params: SetupParams) -> float:
    """Squared normalization constant B^2.

    Always positive; at most 2 when cos 2xi >= 0, and bounded above by
    ``2 / ((1 - e^{-2a h1^2}) (1 - e^{-2a h2^2}))`` in general.

    ``2 / B^2 = 1 + e1 e2 + (e1 + e2) cos 2xi`` with e_i = e^{-2a h_i^2}.  For
    cos 2xi >= 0 every term is non-negative and the sum is taken as written.
    Otherwise it cancels down to O(a^2 h1^2 h2^2) near xi = pi/2 and small a, so
    it is taken as ``(1 + c e1)(1 + c e2) + e1 e2 sin^2 2xi`` (c = cos 2xi) with
    ``1 + c e_i = 2 cos^2 xi + c expm1(-2a h_i^2)``, a sum of non-negative
    terms.  Only negative arguments are exponentiated.
    """
    a, h1, h2 = params.a, params.h1, params.h2
    c2 = math.cos(2.0 * params.xi)
    if c2 >= 0.0:
        denom = (
            1.0
            + math.exp(-2.0 * a * (h1 * h1 + h2 * h2))
            + (math.exp(-2.0 * a * h1 * h1) + math.exp(-2.0 * a * h2 * h2)) * c2
        )
        return 2.0 / denom
    s2 = math.sin(2.0 * params.xi)
    cos2 = 2.0 * math.cos(params.xi) ** 2
    denom = (cos2 + c2 * math.expm1(-2.0 * a * h1 * h1)) * (
        cos2 + c2 * math.expm1(-2.0 * a * h2 * h2)
    ) + math.exp(-2.0 * a * (h1 * h1 + h2 * h2)) * s2 * s2
    return 2.0 / denom


def _slits_equal(params: SetupParams) -> bool:
    return abs(params.h1 - params.h2) <= 1e-12 * max(params.h1, params.h2)


def _shifted_gaussians(a: float, h: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.exp(-a * (x - h) ** 2), np.exp(-a * (x + h) ** 2)


def axis_factors(a: float, h: float, axis: Axis, x) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd factor of one subsystem's amplitude along its axis.

    Position: ``g- + g+`` and ``g- - g+`` with the shifted Gaussians
    g-/+ = e^{-a(x -/+ h)^2}, i.e. 2 e^{-a(x^2+h^2)} cosh(2ahx) and
    2 e^{-a(x^2+h^2)} sinh(2ahx) without exponentiating a growing argument.
    Wavenumber: ``e^{-x^2/4a} cos(hx)`` and ``e^{-x^2/4a} sin(hx)``.
    """
    x = np.asarray(x, dtype=float)
    if axis is Axis.POSITION:
        gm, gp = _shifted_gaussians(a, h, x)
        return gm + gp, gm - gp
    env = np.exp(-x * x / (4.0 * a))
    return env * np.cos(h * x), env * np.sin(h * x)


def _line_frequencies(params: SetupParams, c, sn) -> tuple:
    """(A1, B1, A2, B2) with h1 k1 + h2 k2 = A1 s + B1 t and h1 k1 - h2 k2 = A2 s + B2 t.

    On the rotated line k1 = s c - t sn, k2 = s sn + t c with (c, sn) = (cos phi, sin phi).
    """
    h1, h2 = params.h1, params.h2
    return h1 * c + h2 * sn, h2 * c - h1 * sn, h1 * c - h2 * sn, -h1 * sn - h2 * c


def line_factors(params: SetupParams, phi: float, s, t) -> tuple[np.ndarray, np.ndarray]:
    """Rank-4 tables of the wavenumber amplitude on a rotated (s, t) mesh.

    Returns S of shape (len(s), 4) and T of shape (4, len(t)) with
    ``psi(s cos(phi) - t sin(phi), s sin(phi) + t cos(phi)) = S @ T`` in the kk
    basis.  A rotation keeps distances and maps linear phases to linear
    phases: the envelope splits as e^{-s^2/4a} e^{-t^2/4a} and each branch
    cosine cos(h1 k1 +/- h2 k2) becomes cos(A s + B t), split into
    cos cos - sin sin.
    """
    s = np.asarray(s, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    a = params.a
    cp = math.cos(PI / 4.0 - params.xi)
    sp = math.sin(PI / 4.0 - params.xi)
    a1, b1, a2, b2 = _line_frequencies(params, math.cos(phi), math.sin(phi))
    pref = math.sqrt(normalization_b2(params)) / math.sqrt(2.0 * a * PI)
    s_env = pref * np.exp(-s * s / (4.0 * a))
    t_env = np.exp(-t * t / (4.0 * a))
    s_tab = np.stack(
        [cp * np.cos(a1 * s), -cp * np.sin(a1 * s), sp * np.cos(a2 * s), -sp * np.sin(a2 * s)],
        axis=1,
    )
    s_tab *= s_env[:, None]
    t_tab = np.stack([np.cos(b1 * t), np.sin(b1 * t), np.cos(b2 * t), np.sin(b2 * t)])
    t_tab *= t_env
    return s_tab, t_tab


def separable_weights(params: SetupParams, basis: BasisPair) -> tuple[float, float]:
    """Weights (alpha, beta) of the even x even and odd x odd products.

    With E, O the :func:`axis_factors` of each subsystem, the amplitude is
    ``alpha E1(u) E2(v) + beta O1(u) O2(v)`` in the pure bases and
    ``alpha E1(u) E2(v) + 1j beta O1(u) O2(v)`` in the mixed ones.
    """
    b = math.sqrt(normalization_b2(params))
    cx = math.cos(params.xi)
    sx = math.sin(params.xi)
    if basis.is_mixed:
        pref = math.sqrt(2.0 / PI) * b / 2.0
        return pref * cx, -pref * sx
    if basis.first is Axis.POSITION:
        pref = math.sqrt(params.a / PI) * b / 2.0
        return pref * cx, pref * sx
    pref = b / math.sqrt(params.a * PI)
    return pref * cx, -pref * sx


def psi_entangled(params: SetupParams, basis: BasisPair, u, v) -> np.ndarray:
    """Amplitude written as a superposition of correlated/anti-correlated branches.

    Position basis: four shifted Gaussians weighted by cos(pi/4 - xi) on the
    correlated pair and sin(pi/4 - xi) on the anti-correlated pair.
    Wavenumber basis: the corresponding two-cosine form.
    """
    if basis.is_mixed:
        raise UnsupportedBasisError("branch decomposition is defined for pure bases only")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    b = math.sqrt(normalization_b2(params))
    cp = math.cos(PI / 4.0 - params.xi)
    sp = math.sin(PI / 4.0 - params.xi)
    if basis.first is Axis.POSITION:
        g1m, g1p = _shifted_gaussians(a, h1, u)
        g2m, g2p = _shifted_gaussians(a, h2, v)
        pref = math.sqrt(a / (2.0 * PI)) * b
        return pref * ((g1m * g2m + g1p * g2p) * cp + (g1m * g2p + g1p * g2m) * sp)
    env = np.exp(-(u * u + v * v) / (4.0 * a))
    pref = b / math.sqrt(2.0 * a * PI)
    return pref * env * (np.cos(h1 * u + h2 * v) * cp + np.cos(h1 * u - h2 * v) * sp)


def psi_separable(params: SetupParams, basis: BasisPair, u, v) -> np.ndarray:
    """Amplitude written as cos(xi) * even x even + sin(xi) * odd x odd.

    Algebraically identical to :func:`psi_entangled`; kept as an independent
    code path so the two decompositions can be cross-checked numerically.
    """
    if basis.is_mixed:
        raise UnsupportedBasisError("branch decomposition is defined for pure bases only")
    e1, o1 = axis_factors(params.a, params.h1, basis.first, u)
    e2, o2 = axis_factors(params.a, params.h2, basis.second, v)
    alpha, beta = separable_weights(params, basis)
    return alpha * e1 * e2 + beta * o1 * o2


def _psi_mixed(params: SetupParams, k1, x2) -> np.ndarray:
    """Amplitude with the first subsystem in wavenumber and the second in position."""
    k1 = np.asarray(k1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a, h1, h2 = params.a, params.h1, params.h2
    b = math.sqrt(normalization_b2(params))
    g2m, g2p = _shifted_gaussians(a, h2, x2)
    envk = np.exp(-k1 * k1 / (4.0 * a))
    pref = math.sqrt(2.0 / PI) * b / 2.0
    re = pref * envk * np.cos(h1 * k1) * (g2m + g2p) * math.cos(params.xi)
    im = -pref * envk * np.sin(h1 * k1) * (g2m - g2p) * math.sin(params.xi)
    return re + 1j * im


def psi(params: SetupParams, basis: BasisPair, u, v) -> np.ndarray:
    """Normalized amplitude in any of the four basis pairs.

    Pure bases return a complex array with exactly zero imaginary part; the
    mixed bases are genuinely complex.  The (position, wavenumber) pair is
    obtained from the (wavenumber, position) formula by exchanging subsystem
    roles, using the symmetry of the state under 1 <-> 2 with h1 <-> h2.
    """
    if not basis.is_mixed:
        return psi_entangled(params, basis, u, v) + 0j
    if basis is KX or basis == KX:
        return _psi_mixed(params, u, v)
    return _psi_mixed(params.swapped(), v, u)


def decomposition_residual(params: SetupParams, basis: BasisPair, u, v) -> np.ndarray:
    """|psi_entangled - psi_separable|; zero up to roundoff for pure bases."""
    return np.abs(psi_entangled(params, basis, u, v) - psi_separable(params, basis, u, v))
