"""Shared extended-precision helpers.

Several contracts in this package sit below double-precision resolution
(complementarity sums within 1e-20 of 1, epsilon bounds of order e^{-100}).
Scalar closed forms are therefore evaluated with mpmath at 50 significant
digits and rounded exactly once at the float boundary.

Every scalar closed form is a function of a few per-point constants, which
:func:`point`, :func:`q` and :func:`braces` build once per parameter point and
precision, so the entry points evaluated at one point share them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import mpmath

DPS = 50


_LOG10_E = 0.4342944819032518
# more digits than any caller can afford; a scale that overflows float64 to inf gets these
_MAX_DIGITS = 10**6


def digits(params=None) -> int:
    """Working precision, in digits, for ``params``.

    50 digits, raised when ``params`` is given so that quantities of order
    e^{-2a(h1^2+h2^2)} -- the smallest scale appearing in the closed forms --
    stay comfortably above the cancellation noise of the direct 1 - V^2 - D^2.
    The count is clamped at ``_MAX_DIGITS``, so it stays an int where
    a (h1^2 + h2^2) overflows float64; callers cap it lower in turn.
    """
    if params is None:
        return DPS
    scale = 2.0 * params.a * (params.h1 * params.h1 + params.h2 * params.h2)
    return max(DPS, 30 + int(min(scale * _LOG10_E, _MAX_DIGITS)))


def workdps(params=None) -> mpmath.ctx_base.StandardBaseContext:
    """Context manager at :func:`digits` of ``params``, or at ``params`` digits when it is an int."""
    return mpmath.workdps(params if isinstance(params, int) else digits(params))


# The per-point constants of the closed forms, at the precision they were built at:
# a, h1, h2, e_i = e^{-2a h_i^2}, cos xi, sin xi, cos 2xi, sin 2xi and B^2.
Point = namedtuple("Point", "a h1 h2 e1 e2 cx sx c2 s2 b2")

# The further exponentials of the k+- visibility braces: f_i = e^{-a h_i^2} and f-+ = e^{-a (h1 -+ h2)^2}.
Braces = namedtuple("Braces", "f1 f2 fm fp")

# A point's constants are shared by its entry points and by its xi = pi/4 reference, and a
# sweep's points share their xi; keyed on the binary precision, so each entry point keeps its own.
_CACHE = 8


@lru_cache(maxsize=_CACHE)
def _slits(a: float, h1: float, h2: float, prec: int) -> tuple:
    a, h1, h2 = mpmath.mpf(a), mpmath.mpf(h1), mpmath.mpf(h2)
    return a, h1, h2, mpmath.exp(-2 * a * h1 * h1), mpmath.exp(-2 * a * h2 * h2)


@lru_cache(maxsize=_CACHE)
def _angle(xi: float, prec: int) -> tuple:
    # cos_sin costs one of cos, sin and gives the same bits as both
    xi = mpmath.mpf(xi)
    return mpmath.cos_sin(xi) + mpmath.cos_sin(2 * xi)


def point(params) -> Point:
    """The record of ``params`` at the working precision.

    Its slit exponentials and its trigonometric pairs are evaluated once per
    (a, h1, h2) and per xi at each precision, and shared by every record that
    has them: the three reports of one point and its xi = pi/4 reference build
    e1 and e2 once, and a sweep's points build cos_sin(xi) once.
    """
    prec = mpmath.mp.prec
    a, h1, h2, e1, e2 = _slits(params.a, params.h1, params.h2, prec)
    cx, sx, c2, s2 = _angle(params.xi, prec)
    return Point(a, h1, h2, e1, e2, cx, sx, c2, s2, 2 / (1 + e1 * e2 + (e1 + e2) * c2))


@lru_cache(maxsize=_CACHE)
def _q(a, h1, h2, prec: int):
    g = (h1 * h2) ** 2 / (h1 * h1 + h2 * h2)
    return mpmath.exp(-2 * a * g)


def q(pt: Point):
    """q = e^{-2ag}, g = h1^2 h2^2 / (h1^2 + h2^2), of the record ``pt``.

    Evaluated once per (a, h1, h2) at the working precision.  The bound, the
    closed-form epsilon and the s+- braces read q alone, so it is kept apart
    from the k+- brace exponentials of :func:`braces`.
    """
    return _q(pt.a, pt.h1, pt.h2, mpmath.mp.prec)


@lru_cache(maxsize=_CACHE)
def _braces(a, h1, h2, prec: int) -> Braces:
    return Braces(mpmath.exp(-a * h1 * h1), mpmath.exp(-a * h2 * h2),
                  mpmath.exp(-a * (h1 - h2) ** 2), mpmath.exp(-a * (h1 + h2) ** 2))


def braces(pt: Point) -> Braces:
    """The k+- brace exponentials of the record ``pt``, once per (a, h1, h2) at the working precision."""
    return _braces(pt.a, pt.h1, pt.h2, mpmath.mp.prec)
