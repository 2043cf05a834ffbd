"""Self-check suite behind the ``validate`` CLI command.

Each check compares an independent pair of routes (closed form vs quadrature,
or two distinct closed-form paths) and reports its worst deviation against a
tolerance.  The quick variant trims the parameter lattice so the whole suite
runs in a few seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import _mpcore, corrected, correlation, density, radon, visibility
from .state import KK, KX, PI, XK, XX, SetupParams, decomposition_residual, psi

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    seconds: float


# random points per basis of the amplitude check, and per axis of the factor-table check
_DECOMPOSITION_POINTS = 100_000
_DECOMPOSITION_AXIS = 300
# s points per line of the Radon check
_RADON_POINTS = 51

_XI_GRID = (0.0, PI / 8.0, PI / 4.0, 3.0 * PI / 8.0, PI / 2.0, 3.0 * PI / 4.0)


def _lattice(quick: bool) -> list[SetupParams]:
    a_values = (2.0, 30.0) if quick else (2.0, 5.0, 10.0, 30.0)
    h_values = ((1.0, 2.0),) if quick else ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0))
    xi_values = (0.3, PI / 4.0) if quick else _XI_GRID
    return [
        SetupParams(a, h1, h2, xi)
        for a in a_values
        for (h1, h2) in h_values
        for xi in xi_values
    ]


def _check(name: str, tol: float, dev_fn: Callable[[], float]) -> CheckResult:
    start = time.perf_counter()
    try:
        dev = dev_fn()
    except density.QuadratureError:
        # an unsatisfiable quadrature tolerance is a failed check, not a crash
        dev = math.inf
    elapsed = time.perf_counter() - start
    return CheckResult(name, dev, tol, dev <= tol, elapsed)


def _normalization_dev(params_list: Iterable[SetupParams], tol_quad: float) -> float:
    worst = 0.0
    for params in params_list:
        for basis in (XX, KK, KX, XK):
            mass = density.normalization_mass(params, basis, tol=tol_quad)
            worst = max(worst, abs(mass - 1.0))
    return worst


def _decomposition_dev(params_list: Iterable[SetupParams]) -> float:
    """Entangled vs separable amplitude, then factored vs pointwise density.

    The second half compares ``density_at`` on a row of u against a column of
    v (per-axis factor tables) with |psi|^2 on the matching meshgrid, and
    ``density_at`` on 51 x 200 kk Radon line meshes at two seeded generic
    angles (rotated-frame tables) with |psi|^2 at the rotated coordinates,
    10,200 psi points per mesh.
    """
    rng = np.random.default_rng(20260826)
    line_rng = np.random.default_rng(20261018)
    worst = 0.0
    for params in params_list:
        for basis in (XX, KK):
            (lo1, hi1), (lo2, hi2) = density.basis_domains(params, basis)
            u = rng.uniform(lo1, hi1, _DECOMPOSITION_POINTS)
            v = rng.uniform(lo2, hi2, _DECOMPOSITION_POINTS)
            worst = max(worst, float(np.max(decomposition_residual(params, basis, u, v))))
        for basis in (XX, KK, KX, XK):
            (lo1, hi1), (lo2, hi2) = density.basis_domains(params, basis)
            u = rng.uniform(lo1, hi1, _DECOMPOSITION_AXIS)
            v = rng.uniform(lo2, hi2, _DECOMPOSITION_AXIS)
            amp = psi(params, basis, *np.meshgrid(u, v, indexing="ij"))
            pointwise = amp.real * amp.real + amp.imag * amp.imag
            factored = density.density_at(params, basis, u[:, None], v[None, :])
            worst = max(worst, float(np.max(np.abs(factored - pointwise))))
        (_, hi1), (_, hi2) = density.basis_domains(params, KK)
        half = math.sqrt(2.0) * max(hi1, hi2)
        # generic angles: away from 0 and +-pi/2, where the rotation degenerates
        for phi in line_rng.uniform(0.1, PI / 2.0 - 0.1, 2) * line_rng.choice((-1.0, 1.0), 2):
            s = line_rng.uniform(-half, half, 51)[:, None]
            t = line_rng.uniform(-half, half, 200)[None, :]
            c, sn = math.cos(phi), math.sin(phi)
            amp = psi(params, KK, s * c - t * sn, s * sn + t * c)
            pointwise = amp.real * amp.real + amp.imag * amp.imag
            factored = density.density_at(params, KK, s, t, phi=phi)
            worst = max(worst, float(np.max(np.abs(factored - pointwise))))
    return worst


def _radon_dev(params_list: Iterable[SetupParams], tol_quad: float) -> float:
    """Closed-form marginal vs line quadrature at the named angles and two seeded generic ones."""
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for params in params_list:
        s = np.linspace(-6.0 * math.sqrt(params.a), 6.0 * math.sqrt(params.a), _RADON_POINTS)
        angles = [radon.RadonAngle.named(label, params) for label in radon.OBSERVABLES]
        angles += [radon.RadonAngle(phi) for phi in rng.uniform(-PI / 2.0, PI / 2.0, 2)]
        for angle in angles:
            numeric = radon.radon_numeric(params, angle, s, tol=tol_quad)
            worst = max(worst, float(np.max(np.abs(numeric.values - radon.marginal_at(params, angle, s)))))
    return worst


def _moment_dev(params_list: Iterable[SetupParams], tol_quad: float) -> float:
    """Deviation of closed-form moments vs 2d quadrature.

    Restricted to the moments float64 quadrature can actually resolve: the
    position basis and the wavenumber variances.  The wavenumber covariance
    shrinks below the float64 cancellation floor and has a dedicated
    extended-precision oracle in the test suite.  Variances are compared
    relative to themselves; the position covariance, which vanishes for
    product states, relative to sqrt(var1 var2), i.e. as rho_x.
    """
    worst = 0.0
    for params in params_list:
        for basis, moments in ((XX, correlation.moments_x(params)), (KK, correlation.moments_k(params))):
            ub, vb = density.basis_domains(params, basis)
            hints = density.basis_panel_hints(params, basis)

            def quad(weight: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
                return density.quadrature_2d(
                    lambda u, v: weight(u, v) * density.density_at(params, basis, u, v),
                    ub,
                    vb,
                    tol=tol_quad,
                    min_panels=hints,
                )

            checks = [(moments.var1, quad(lambda u, v: u * u), moments.var1),
                      (moments.var2, quad(lambda u, v: v * v), moments.var2)]
            if basis is XX:
                checks.append((moments.cov, quad(lambda u, v: u * v), math.sqrt(moments.var1 * moments.var2)))
            for closed, numeric, scale in checks:
                worst = max(worst, abs(numeric - closed) / max(abs(scale), 1e-30))
    return worst


def _epsilon_bound_dev(params_list: Iterable[SetupParams]) -> float:
    """How far |epsilon| / bound exceeds 1; positive means the guarantee |epsilon| < bound is violated.

    Compared in mpmath: both underflow float64 at deep points, where a float
    comparison would pass without checking anything.
    """
    worst = 0.0
    for params in params_list:
        with _mpcore.workdps(params):
            pt = _mpcore.point(params)
            excess = abs(visibility.epsilon_mp(pt)) / visibility.bound_mp(pt) - 1
            if excess > 0:
                # a violation too small for float64 must still fail the zero tolerance
                worst = max(worst, float(excess), math.ulp(0.0))
    return worst


def _no_communication_dev(params_list: Iterable[SetupParams]) -> float:
    worst = 0.0
    for params in params_list:
        k = np.linspace(-8.0 * math.sqrt(params.a), 8.0 * math.sqrt(params.a), 401)
        worst = max(
            worst,
            float(np.max(np.abs(correlation.marginal_k1_mixed(params, k) - radon.marginal_k1(params, k)))),
        )
    return worst


def _pin_dev(params_list: Iterable[SetupParams]) -> float:
    worst = 0.0
    for params in params_list:
        for obs in radon.OBSERVABLES:
            result = visibility.envelope_pin_check(params, obs)
            if result.simultaneous and result.max_deviation is not None:
                worst = max(worst, result.max_deviation)
    return worst


def _corrected_identity_dev(params_list: Iterable[SetupParams]) -> float:
    worst = 0.0
    for params in params_list:
        s = np.linspace(-6.0 * math.sqrt(params.a), 6.0 * math.sqrt(params.a), 301)
        phi = radon.splus_angle(params)
        for sign, angle in ((1, phi), (-1, -phi)):
            k1 = s * math.cos(angle)
            k2 = s * math.sin(angle)
            assembled = corrected.corrected_density(params, k1, k2)
            direct = corrected.corrected_slice_spm(params, sign, s)
            worst = max(worst, float(np.max(np.abs(assembled - direct))))
    return worst


def _subset(lattice: list[SetupParams], quick: bool) -> list[SetupParams]:
    """Points for the sampled checks: the whole quick lattice, every 11th point of the full one.

    The full lattice cycles xi with period 6; a stride coprime to 6 visits every xi.
    """
    return lattice if quick else lattice[::11]


def run_validation(quick: bool = False, tol_quad: float = 1e-9) -> list[CheckResult]:
    lattice = _lattice(quick)
    small = _subset(lattice, quick)
    return [
        _check("normalization_all_bases", 1e-8, lambda: _normalization_dev(lattice, tol_quad)),
        _check("decomposition_residual", 1e-12, lambda: _decomposition_dev(small)),
        _check("radon_closed_vs_numeric", 1e-8, lambda: _radon_dev(small, min(tol_quad, 1e-10))),
        _check("moment_quadrature", 1e-8, lambda: _moment_dev(small, tol_quad)),
        _check("epsilon_within_bound", 0.0, lambda: _epsilon_bound_dev(lattice)),
        _check("no_communication_identity", 1e-12, lambda: _no_communication_dev(lattice)),
        _check("envelope_pin_points", 1e-12, lambda: _pin_dev(lattice)),
        _check("corrected_slice_identity", 1e-10, lambda: _corrected_identity_dev(small)),
    ]
