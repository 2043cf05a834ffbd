"""Shared extended-precision helpers.

Several contracts in this package sit below double-precision resolution
(complementarity sums within 1e-20 of 1, epsilon bounds of order e^{-100}).
Scalar closed forms are therefore evaluated with mpmath at 50 significant
digits and rounded exactly once at the float boundary.

Every scalar closed form is a function of a few per-point constants, which
:func:`point` builds once per entry point, at that entry point's precision.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import mpmath

DPS = 50


_LOG10_E = 0.4342944819032518


def digits(params=None) -> int:
    """Working precision, in digits, for ``params``.

    50 digits, raised when ``params`` is given so that quantities of order
    e^{-2a(h1^2+h2^2)} -- the smallest scale appearing in the closed forms --
    stay comfortably above the cancellation noise of the direct 1 - V^2 - D^2.
    """
    if params is None:
        return DPS
    scale = 2.0 * params.a * (params.h1 * params.h1 + params.h2 * params.h2)
    return max(DPS, 30 + int(scale * _LOG10_E))


def workdps(params=None) -> mpmath.ctx_base.StandardBaseContext:
    """Context manager at :func:`digits` of ``params``, or at ``params`` digits when it is an int."""
    return mpmath.workdps(params if isinstance(params, int) else digits(params))


# The per-point constants of the closed forms, at the precision they were built at:
# a, h1, h2, e_i = e^{-2a h_i^2}, cos xi, sin xi, cos 2xi, sin 2xi and B^2.
Point = namedtuple("Point", "a h1 h2 e1 e2 cx sx c2 s2 b2")


def point(params, slits: Optional[Point] = None) -> Point:
    """The record of ``params`` at the working precision.

    ``slits`` is a record of the same (a, h1, h2) built at the same precision,
    such as the record of the point whose xi = pi/4 reference this is; its
    e^{-2a h_i^2} are reused instead of evaluated again.
    """
    a, h1, h2 = mpmath.mpf(params.a), mpmath.mpf(params.h1), mpmath.mpf(params.h2)
    if slits is None:
        e1, e2 = mpmath.exp(-2 * a * h1 * h1), mpmath.exp(-2 * a * h2 * h2)
    else:
        e1, e2 = slits.e1, slits.e2
    # cos_sin costs one of cos, sin and gives the same bits as both
    xi = mpmath.mpf(params.xi)
    cx, sx = mpmath.cos_sin(xi)
    c2, s2 = mpmath.cos_sin(2 * xi)
    return Point(a, h1, h2, e1, e2, cx, sx, c2, s2, 2 / (1 + e1 * e2 + (e1 + e2) * c2))
