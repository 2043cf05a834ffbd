"""Joint probability densities, default domains, and the quadrature oracle.

The quadrature here is the brute-force side of every dual-route check in the
package: composite Gauss-Legendre panels, refined by doubling the panel count
until two successive estimates agree within the requested tolerance.  One
refinement loop, ``_refine``, serves both rules: the batched line rule
:func:`integrate_1d_batch` and the tensor-product :func:`quadrature_2d`.  Panel
widths are chosen from the physics: the coarsest level resolving half a
period of the fastest fringe on wavenumber axes and one Gaussian peak width on
position axes.  The first doubling then both resolves the integral and
verifies it.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Optional, TextIO

import numpy as np

from .state import (
    KK,
    PI,
    Axis,
    BasisPair,
    SetupParams,
    axis_factors,
    line_factors,
    psi,
    separable_weights,
)

__all__ = [
    "Density2D",
    "Grid2D",
    "QuadratureError",
    "basis_domains",
    "basis_panel_hints",
    "default_domain",
    "default_grid",
    "density_at",
    "gauss_panels",
    "integrate_1d_batch",
    "normalization_mass",
    "quadrature_2d",
]


# refinement stops (with a QuadratureError) once a level would exceed these
# node counts; an unsatisfiable tolerance then fails fast instead of exhausting
# memory on ever-finer grids
_MAX_NODES_1D = 1 << 19
_MAX_NODES_2D = 1 << 28
# a positive tolerance below this many ulps of the first estimate fails at once
_RESOLVABLE_ULPS = 4
# Gauss-Legendre nodes per panel, and the 2-D rule's rows of v per block
_ORDER_1D = 6
_ORDER_2D = 4
_ROW_CHUNK = 512


class QuadratureError(RuntimeError):
    """Composite quadrature failed to converge to the requested tolerance."""


def density_at(params: SetupParams, basis: BasisPair, u, v, phi: float = 0.0) -> np.ndarray:
    """|psi|^2 at the given coordinates (vectorized).

    With ``phi != 0`` the inputs are line coordinates (s, t) and the density
    is taken at ``(s cos(phi) - t sin(phi), s sin(phi) + t cos(phi))``.

    When ``u`` and ``v`` broadcast as an outer product (a row of u against a
    column of v, as on grids and quadrature blocks), the density is built from
    per-axis tables of psi = alpha E1(u) E2(v) + beta O1(u) O2(v), so a node
    costs a few multiplications.  At ``phi != 0`` the Radon line mesh of an
    (n, 1) column of s against a (1, m) row of t takes the rank-4
    rotated-frame tables of :func:`line_factors` in the pure bases.  Any other
    layout (slices, mixed bases at ``phi != 0``) evaluates psi point by point.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if phi != 0.0:
        line_mesh = u.ndim == v.ndim == 2 and u.shape[1] == 1 and v.shape[0] == 1
        if basis.is_mixed or not line_mesh:
            c, sn = math.cos(phi), math.sin(phi)
            amp = psi(params, basis, u * c - v * sn, u * sn + v * c)
            return amp.real * amp.real + amp.imag * amp.imag
        s_tab, t_tab = line_factors(params, basis, phi, u, v)
        amp = s_tab @ t_tab
        amp *= amp
        return amp
    if u.size * v.size != np.broadcast(u, v).size:
        amp = psi(params, basis, u, v)
        return amp.real * amp.real + amp.imag * amp.imag
    alpha, beta = separable_weights(params, basis)
    e1, o1 = axis_factors(params.a, params.h1, basis.first, u)
    e2, o2 = axis_factors(params.a, params.h2, basis.second, v)
    e1 *= alpha
    o1 *= beta
    if basis.is_mixed:
        # the odd x odd term is the imaginary part: square the 1-D tables first
        return (e1 * e1) * (e2 * e2) + (o1 * o1) * (o2 * o2)
    amp = e1 * e2 + o1 * o2
    amp *= amp
    return amp


def default_domain(params: SetupParams, axis: Axis, subsystem: int = 1) -> tuple[float, float]:
    """Symmetric truncation interval with sub-1e-18 tail mass.

    Position axes extend ten peak widths past the outer slit; wavenumber axes
    span ten standard deviations of the e^{-k^2/2a} envelope.
    """
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem!r}")
    h = params.h1 if subsystem == 1 else params.h2
    if axis is Axis.POSITION:
        half = h + 10.0 / (2.0 * math.sqrt(params.a))
    else:
        half = 10.0 * math.sqrt(params.a)
    return (-half, half)


def basis_domains(
    params: SetupParams, basis: BasisPair
) -> tuple[tuple[float, float], tuple[float, float]]:
    return (
        default_domain(params, basis.first, subsystem=1),
        default_domain(params, basis.second, subsystem=2),
    )


def _axis_panels(params: SetupParams, axis: Axis, h: float, lo: float, hi: float) -> int:
    width = hi - lo
    if axis is Axis.WAVENUMBER:
        # |psi|^2 oscillates like cos(2hk) under the e^{-k^2/2a} envelope: a
        # panel spans at most one half-period pi/(2h) and one envelope std
        panel_width = min(PI / (2.0 * h), math.sqrt(params.a))
    else:
        # one slit-peak standard deviation 1/(2 sqrt(a))
        panel_width = 1.0 / (2.0 * math.sqrt(params.a))
    return max(8, int(math.ceil(width / panel_width)))


def basis_panel_hints(params: SetupParams, basis: BasisPair) -> tuple[int, int]:
    """Initial panel counts: the coarsest level whose first doubling resolves the integrand.

    A panel spans at most half a fringe period on a wavenumber axis and one
    slit-peak standard deviation on a position axis.
    """
    (u_lo, u_hi), (v_lo, v_hi) = basis_domains(params, basis)
    pu = _axis_panels(params, basis.first, params.h1, u_lo, u_hi)
    pv = _axis_panels(params, basis.second, params.h2, v_lo, v_hi)
    return pu, pv


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panels(lo: float, hi: float, n_panels: int, order: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on equal panels."""
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    x, w = _leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (centers[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return nodes, weights


def _refine(kind: str, tol: float, max_doublings: int, cap: int, nodes_at: Callable, estimate_at: Callable):
    """Double the panels until two successive estimates agree within ``tol``.

    Level n has ``nodes_at(n)`` nodes and the estimate ``estimate_at(n)``, a
    float or an array that converges on its largest deviation.
    """
    # two estimates agree within a non-positive (or NaN) tolerance only when
    # bit-equal, so refinement would run to the node cap before failing
    if not tol > 0:
        raise QuadratureError(f"{kind} quadrature cannot converge to tol={tol:g}; it must be positive")
    prev = None
    for level in range(max_doublings + 1):
        if nodes_at(level) > cap:
            raise QuadratureError(
                f"{kind} quadrature did not converge to tol={tol:g}: stopped at the node cap after evaluating "
                f"{level} level(s); the next level needs {nodes_at(level):,} nodes, over the cap of {cap:,}"
            )
        cur = estimate_at(level)
        if prev is not None and float(np.abs(cur - prev).max(initial=0.0)) <= tol:
            return cur
        # two float64 estimates of size |I| cannot be relied on to agree closer
        # than a few ulps of |I|; below that, refinement would run to the node cap
        largest = float(np.abs(cur).max(initial=0.0))
        if tol < _RESOLVABLE_ULPS * np.spacing(largest):
            raise QuadratureError(
                f"{kind} quadrature cannot converge to tol={tol:g}: it is below the float64 "
                f"resolution of the estimate {largest:.17g}"
            )
        prev = cur
    raise QuadratureError(
        f"{kind} quadrature did not converge to tol={tol:g} within max_doublings={max_doublings} "
        f"doublings; the last level had {nodes_at(max_doublings):,} nodes"
    )


def integrate_1d_batch(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    min_panels: int = 8,
    max_doublings: int = 12,
) -> np.ndarray:
    """Integrate ``f(x)`` of shape (..., len(x)) over x; a scalar integrand gives a 0-d result."""
    panels = max(1, int(min_panels))

    def estimate_at(level: int) -> np.ndarray:
        x, w = gauss_panels(lo, hi, panels << level, _ORDER_1D)
        return np.asarray(f(x), dtype=float) @ w

    return _refine("batched 1d", tol, max_doublings, _MAX_NODES_1D, lambda n: (panels << n) * _ORDER_1D, estimate_at)


def _eval_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xu: np.ndarray,
    wu: np.ndarray,
    xv: np.ndarray,
    wv: np.ndarray,
) -> float:
    partials = []
    for i in range(0, len(xv), _ROW_CHUNK):
        vs = xv[i : i + _ROW_CHUNK]
        block = np.asarray(f(xu[None, :], vs[:, None]), dtype=float)
        partials.append(block @ wu)
    return float(np.concatenate(partials) @ wv)


def quadrature_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u_bounds: tuple[float, float],
    v_bounds: tuple[float, float],
    tol: float = 1e-9,
    min_panels: tuple[int, int] = (8, 8),
    max_doublings: int = 8,
) -> float:
    """Double integral over a rectangle by tensor-product composite Gauss-Legendre.

    Raises :class:`QuadratureError` if successive refinements never agree
    within ``tol`` -- an explicit oracle failure rather than a silent bad value.
    """
    pu, pv = (max(1, int(p)) for p in min_panels)

    def estimate_at(level: int) -> float:
        xu, wu = gauss_panels(*u_bounds, pu << level, _ORDER_2D)
        xv, wv = gauss_panels(*v_bounds, pv << level, _ORDER_2D)
        return _eval_2d(f, xu, wu, xv, wv)

    return _refine(
        "2d", tol, max_doublings, _MAX_NODES_2D, lambda n: (pu << n) * (pv << n) * _ORDER_2D**2, estimate_at
    )


def normalization_mass(params: SetupParams, basis: BasisPair = KK, tol: float = 1e-9) -> float:
    """Total probability mass of |psi|^2 over the default domain (quadrature oracle)."""
    ub, vb = basis_domains(params, basis)
    hints = basis_panel_hints(params, basis)
    return quadrature_2d(
        lambda u, v: density_at(params, basis, u, v), ub, vb, tol=tol, min_panels=hints
    )


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular evaluation grid (inclusive endpoints)."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    n_u: int
    n_v: int

    def __post_init__(self) -> None:
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy min < max on both axes")
        if self.n_u < 2 or self.n_v < 2:
            raise ValueError("grids need at least 2 points per axis")

    def u_axis(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.n_u)

    def v_axis(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.n_v)


def default_grid(params: SetupParams, basis: BasisPair, n_u: int = 512, n_v: int = 512) -> Grid2D:
    (u_lo, u_hi), (v_lo, v_hi) = basis_domains(params, basis)
    return Grid2D(u_lo, u_hi, v_lo, v_hi, n_u, n_v)


@dataclass
class Density2D:
    """Density values sampled on a :class:`Grid2D`; ``values[i, j]`` is at (u_i, v_j)."""

    grid: Grid2D
    basis: BasisPair
    params: SetupParams
    values: np.ndarray

    @classmethod
    def evaluate(
        cls,
        params: SetupParams,
        basis: BasisPair,
        grid: Grid2D,
        fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> "Density2D":
        u = grid.u_axis()[:, None]
        v = grid.v_axis()[None, :]
        if fn is None:
            values = density_at(params, basis, u, v)
        else:
            values = np.asarray(fn(u, v), dtype=float)
        return cls(grid=grid, basis=basis, params=params, values=values)

    def write_csv(self, handle: TextIO) -> None:
        """Write the CSV text to ``handle``, one u-row per ``write``.

        The header ``u,v,value``, then one line per cell. Cells are in
        row-major order with u outer (all v for u_0, then u_1, ...); every
        number has 17 significant digits, so it round-trips.
        """
        # each axis is formatted once and each u-row filled from one template;
        # "%.17g" and f"{x:.17g}" share one float formatter, so the bytes are
        # those of formatting every cell on its own
        v_cells = ["," + ("%.17g" % v) + ",%.17g" for v in self.grid.v_axis().tolist()]
        handle.write("u,v,value\n")
        for u, row in zip(self.grid.u_axis().tolist(), self.values):
            us = "%.17g" % u
            handle.write((us + ("\n" + us).join(v_cells) + "\n") % tuple(row.tolist()))

    def write_json(self, handle: TextIO) -> None:
        """Write ``{"grid", "basis", "params", "values"}`` as one JSON line to ``handle``, one u-row per ``write``.

        The bytes are those of ``json.dumps`` of the whole object, whose last key is ``values``.
        """
        head = json.dumps({"grid": asdict(self.grid), "basis": self.basis.token, "params": asdict(self.params)})
        handle.write(head[:-1] + ', "values": [')
        for i, row in enumerate(self.values):
            handle.write((", " if i else "") + json.dumps(row.tolist()))
        handle.write("]}\n")

    def to_csv_text(self) -> str:
        return _written(self.write_csv)

    def to_json_text(self) -> str:
        return _written(self.write_json)


def _written(write: Callable[[TextIO], None]) -> str:
    """What ``write`` writes, as one string."""
    buffer = io.StringIO()
    write(buffer)
    return buffer.getvalue()
