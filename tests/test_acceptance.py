"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints a single "criterion NN: PASS/FAIL" line on the real stdout
(bypassing capture) so the gate can be audited from the raw log.

Criterion 08 note: the literature figure ~3e-32 quoted for the wavenumber
correlation at a=10, h1=h2=1, xi=pi/4 is the squared coefficient rho_k^2.
The closed form and an independent extended-precision quadrature oracle both
give |rho_k| = 1.699e-16, whose square is 2.888e-32; no change of convention
puts |rho_k| itself near 3e-32.  Criterion 08 therefore asserts the quoted
window on rho_k^2 and pins |rho_k| to its leading-order closed form, so it
passes on correct code; the companion test pins |rho_k| against the oracle.
"""

import functools
import math
import sys
import time

import mpmath
import numpy as np
import pytest

from pairvis import (
    KK,
    KX,
    XK,
    XX,
    RadonAngle,
    SetupParams,
    marginal_k1,
    marginal_k1_mixed,
    marginal_k2,
    marginal_kpm,
    marginal_spm,
    moments_k,
    moments_x,
    normalization_mass,
    radon_numeric,
    visibility_report,
)
from pairvis import _mpcore, corrected, correlation, visibility
from pairvis.cli import main as cli_main
from pairvis.density import basis_domains, basis_panel_hints, density_at, gauss_panels
from test_mpcore import b2_mp, trig2

PI = math.pi

A_VALUES = (2.0, 5.0, 10.0, 30.0)
H_VALUES = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))
XI_VALUES = (0.0, PI / 8.0, PI / 4.0, 3.0 * PI / 8.0, PI / 2.0, 3.0 * PI / 4.0)

LATTICE = [
    SetupParams(a, h1, h2, xi)
    for a in A_VALUES
    for (h1, h2) in H_VALUES
    for xi in XI_VALUES
]


def _verdict(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    sys.__stdout__.write(f"criterion {num:02d}: {status} ({detail})\n")
    sys.__stdout__.flush()


def test_criterion_01_normalization_all_bases():
    start = time.perf_counter()
    worst = 0.0
    for p in LATTICE:
        for basis in (XX, KK, KX, XK):
            worst = max(worst, abs(normalization_mass(p, basis, tol=1e-9) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 60.0
    _verdict(1, ok, f"max |mass-1| = {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_02_radon_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    for p in LATTICE:
        s = np.linspace(-8.0 * math.sqrt(p.a), 8.0 * math.sqrt(p.a), 101)
        pairs = [
            (RadonAngle.k1(), marginal_k1(p, s)),
            (RadonAngle.k2(), marginal_k2(p, s)),
            (RadonAngle.kplus(), marginal_kpm(p, 1, s)),
            (RadonAngle.kminus(), marginal_kpm(p, -1, s)),
            (RadonAngle.splus(p), marginal_spm(p, 1, s)),
            (RadonAngle.sminus(p), marginal_spm(p, -1, s)),
        ]
        for angle, closed in pairs:
            numeric = radon_numeric(p, angle, s, tol=1e-10)
            worst = max(worst, float(np.max(np.abs(numeric.values - closed))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 90.0
    _verdict(2, ok, f"max deviation = {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 90.0


def test_criterion_03_complementarity_bound():
    start = time.perf_counter()
    lattice_ok = True
    for p in LATTICE:
        # the tightest lattice points sit at |eps| ~ e^{-120}; precision must
        # exceed the 1 - V^2 - D^2 cancellation scale, hence the params arg
        with _mpcore.workdps(p):
            pt = _mpcore.point(p)
            eps = visibility.epsilon_mp(pt)
            bound = visibility.bound_mp(pt)
            if not abs(eps) < bound:
                lattice_ok = False
    with _mpcore.workdps():
        # dense sweep: exponential convergence with the equal-slit bound 2e^{-a}
        sweep_worst_ratio = mpmath.mpf(0)
        head, tail = mpmath.mpf(0), mpmath.mpf(0)
        for a in np.linspace(2.0, 8.0, 121):
            for xi in (PI / 8.0, 0.3, 3.0 * PI / 8.0):
                p = SetupParams(float(a), 1.0, 1.0, xi)
                eps = abs(visibility.epsilon_mp(_mpcore.point(p)))
                sweep_worst_ratio = max(sweep_worst_ratio, eps / (2 * mpmath.exp(-mpmath.mpf(float(a)))))
                if a <= 3.0:
                    head = max(head, eps)
                if a >= 7.0:
                    tail = max(tail, eps)
        decay = tail / head
        sweep_ok = sweep_worst_ratio <= 1 and decay < mpmath.exp(-4)
    elapsed = time.perf_counter() - start
    ok = lattice_ok and sweep_ok and elapsed <= 10.0
    _verdict(
        3,
        ok,
        f"lattice strict, sweep max |eps|/2e^-a = {float(sweep_worst_ratio):.3f}, "
        f"decay(7..8 vs 2..3) = {float(decay):.2e}, runtime {elapsed:.1f}s",
    )
    assert lattice_ok
    assert sweep_ok
    assert elapsed <= 10.0


def test_criterion_04_exact_anchors():
    worst = 0.0
    for a in A_VALUES:
        for (h1, h2) in H_VALUES:
            p = SetupParams(a, h1, h2, 0.3)
            entangled, separable = visibility_report(p.with_xi(PI / 4.0)), visibility_report(p.with_xi(0.0))
            worst = max(worst, abs(entangled.D - 1.0), abs(separable.D), abs(separable.V - 1.0))
    ok = worst <= 1e-15
    _verdict(4, ok, f"max anchor deviation = {worst:.2e}")
    assert worst <= 1e-15


def test_criterion_05_symmetric_reduction():
    worst = 0.0
    for p in LATTICE:
        if p.h1 == p.h2:
            rep = visibility_report(p)
            worst = max(worst, abs(rep.D - rep.W))
    ok = worst <= 1e-15
    _verdict(5, ok, f"max |D - W| at h1 = h2: {worst:.2e}")
    assert worst <= 1e-15


def test_criterion_06_infinite_squeezing_limits():
    worst = mpmath.mpf(0)
    with _mpcore.workdps():
        for xi in np.linspace(0.0, PI, 64, endpoint=False):
            p = SetupParams(50.0, 1.0, 1.0, float(xi))
            c2 = abs(mpmath.cos(2 * mpmath.mpf(p.xi)))
            s2 = abs(mpmath.sin(2 * mpmath.mpf(p.xi)))
            pt = _mpcore.point(p)
            vis = visibility._measures_mp(pt)
            v, d = vis["V"], vis["D"]
            _, _, r, s, _ = correlation._correlations_mp(p, pt)
            worst = max(
                worst,
                abs(v - c2),
                abs(d - s2),
                abs(r * r + v * v - 1),
                abs(s * s + v * v - 1),
            )
        ok = worst <= mpmath.mpf("1e-20")
        worst_txt = mpmath.nstr(worst, 3)
    _verdict(6, ok, f"max limit deviation at a = 50: {worst_txt}")
    assert ok


def test_criterion_07_corrected_method():
    with _mpcore.workdps():
        # equal slits: the sum stays visibly below 1 across the sweep
        max_sum = mpmath.mpf(-1)
        max_gap = mpmath.mpf(-1)
        for a in np.linspace(2.0, 8.0, 61):
            p = SetupParams(float(a), 1.0, 1.0, 0.3)
            pt = _mpcore.point(p)
            v = visibility.single_particle_v_mp(pt)
            f = max(corrected._corrected_vis_mp(p, pt, "b4_xi"))
            total = v * v + f * f
            max_sum = max(max_sum, total)
            max_gap = max(max_gap, 1 - total)
        equal_ok = max_sum <= 1 + mpmath.mpf("1e-9") and max_gap >= mpmath.mpf("1e-3")
        # unequal slits: perfect complementarity in the strong-squeezing limit
        p = SetupParams(50.0, 1.0, 2.0, 0.7)
        pt = _mpcore.point(p)
        v = visibility.single_particle_v_mp(pt)
        f = max(corrected._corrected_vis_mp(p, pt, "b4_xi"))
        uneq_dev = abs(v * v + f * f - 1)
        uneq_ok = uneq_dev <= mpmath.mpf("1e-15")
        ok = equal_ok and uneq_ok
        detail = (
            f"equal slits max(1 - V^2 - F^2) = {float(max_gap):.3e}, "
            f"unequal-slit deviation = {mpmath.nstr(uneq_dev, 3)}"
        )
    _verdict(7, ok, detail)
    assert equal_ok
    assert uneq_ok


def test_criterion_08_wavenumber_correlation_magnitude():
    # the quoted 3e-32 (within a factor of 2) is the squared coefficient
    # rho_k^2, so the window applies to rho_k^2, not to |rho_k| = 1.7e-16
    p = SetupParams(10.0, 1.0, 1.0, PI / 4.0)
    sums = correlation.complementarity_sums(p)
    log_rho = sums.rho_k_log10_abs
    rho_abs = 10.0 ** log_rho
    rho_sq = 10.0 ** (2.0 * log_rho)
    # leading order |rho_k| = 4 a h1 h2 e^{-2a(h1^2+h2^2)}; the corrections
    # are O(e^{-40}) relative, far below the 1e-12 tolerance
    leading = 4.0 * p.a * p.h1 * p.h2 * math.exp(-2.0 * p.a * (p.h1**2 + p.h2**2))
    sign = sums.rho_k_sign
    square_ok = 1.5e-32 <= rho_sq <= 6.0e-32
    leading_ok = math.isclose(rho_abs, leading, rel_tol=1e-12)
    ok = square_ok and leading_ok and sign == -1
    _verdict(
        8,
        ok,
        f"|rho_k| = {rho_abs:.6e}, rho_k^2 = {rho_sq:.3e}, "
        "rho_k^2 required within [1.5e-32, 6.0e-32]",
    )
    assert square_ok, f"rho_k^2 = {rho_sq:.6e} is not within a factor of 2 of 3e-32"
    assert leading_ok, (
        f"|rho_k| = {rho_abs:.15e} differs from the leading-order "
        f"4 a h1 h2 e^(-2a(h1^2+h2^2)) = {leading:.15e} by more than 1e-12 relative"
    )
    assert sign == -1


@functools.lru_cache(maxsize=None)
def _slit_integral(a: float, h: float) -> mpmath.mpf:
    """int t e^{-t^2 / 2a} sin(2 h t) dt over the real line, numerically.

    The integral is the imaginary part of int g(t) dt with the entire
    g(t) = t e^{-t^2/2a + 2iht}, which decays along every horizontal line, so by
    Cauchy's theorem the path may move to Im t = 2ah.  On that line g no longer
    oscillates: it is (u + 2iah) e^{-u^2/2a} e^{-2ah^2}, so the quadrature does not
    cancel an O(sqrt a) integrand down to a value of size e^{-2ah^2}.  The integrand
    is scaled by e^{2ah^2}, because mpmath.quad stops on an absolute error.  No
    antiderivative is used, keeping this an independent route from the closed
    forms under test.
    """
    with mpmath.workdps(60):
        a_, h_ = mpmath.mpf(a), mpmath.mpf(h)
        half = 12 * mpmath.sqrt(a_)
        shift, scale = mpmath.mpc(0, 2 * a_ * h_), 2 * a_ * h_ * h_
        g = lambda t: t * mpmath.exp(-t * t / (2 * a_) + 2j * h_ * t + scale)
        total = mpmath.quad(lambda u: g(u + shift), mpmath.linspace(-half, half, 8))
        return mpmath.im(total) * mpmath.exp(-scale)


def _cov_k_oracle_mp(p: SetupParams) -> mpmath.mpf:
    """<k1 k2> via Fubini: the 2D integral factorizes into two 1D integrals.

    Writing |psi(k1,k2)|^2 with product-to-sum trig identities, every term
    except the sin(2 h1 k1) sin(2 h2 k2) cross term integrates to zero by parity,
    leaving cov = -(B^2 / (a pi)) (sin 2xi / 4) I(h1) I(h2).
    """
    b2 = b2_mp(p.a, p.h1, p.h2, p.xi)
    _, s2 = trig2(p.xi)
    return -(b2 / (mpmath.mpf(p.a) * mpmath.pi)) * s2 / 4 * _slit_integral(p.a, p.h1) * _slit_integral(p.a, p.h2)


def test_criterion_08_companion_verified_magnitude():
    p = SetupParams(10.0, 1.0, 1.0, PI / 4.0)
    with _mpcore.workdps():
        moments = correlation._moments_k_mp(_mpcore.point(p))
        cov_closed = moments[0]
        cov_oracle = _cov_k_oracle_mp(p)
        rel = abs(cov_closed - cov_oracle) / abs(cov_oracle)
        rho = correlation._rho_mp(moments)
        rho_float = float(abs(rho))
        rho_sq = float(rho * rho)
        assert rel < mpmath.mpf("1e-9")
    # the closed form is independently confirmed; |rho| is 1.699e-16 and its
    # square lands within a factor of 2 of the quoted 3e-32
    assert rho_float == pytest.approx(1.6993417021166358e-16, rel=1e-12)
    assert 1.5e-32 <= rho_sq <= 6.0e-32
    sys.__stdout__.write(
        f"criterion 08 companion: |rho_k| = {rho_float:.6e} (oracle-confirmed), "
        f"rho_k^2 = {rho_sq:.3e} matches the quoted 3e-32 within a factor of 2\n"
    )
    sys.__stdout__.flush()


@functools.lru_cache(maxsize=None)
def _gaussian_x_integrals(a: float, h: float) -> dict:
    """First moments of products of the shifted slit Gaussians, numerically.

    J[(alpha, gamma)] = int x g_alpha(x) g_gamma(x) dx with g_m/g_p centered
    at +h/-h; evaluated by mpmath quadrature, no antiderivatives used.
    """
    with mpmath.workdps(60):
        a_, h_ = mpmath.mpf(a), mpmath.mpf(h)
        half = h_ + 12 / mpmath.sqrt(a_)
        g = {
            "m": lambda x: mpmath.exp(-a_ * (x - h_) ** 2),
            "p": lambda x: mpmath.exp(-a_ * (x + h_) ** 2),
        }
        out = {}
        for alpha in ("m", "p"):
            for gamma in ("m", "p"):
                f = lambda x, ga=g[alpha], gg=g[gamma]: x * ga(x) * gg(x)
                out[(alpha, gamma)] = mpmath.quad(f, mpmath.linspace(-half, half, 24))
        return out


def _cov_x_oracle_mp(p: SetupParams) -> mpmath.mpf:
    """<x1 x2> from numerically integrated 1D factors of the product expansion.

    |psi|^2 expands into products f(x1) g(x2) of shifted-Gaussian pairs, so
    the 2D moment is a weighted sum of 1D first moments.
    """
    j1 = _gaussian_x_integrals(p.a, p.h1)
    j2 = _gaussian_x_integrals(p.a, p.h2)
    b2 = b2_mp(p.a, p.h1, p.h2, p.xi)
    angle = mpmath.pi / 4 - mpmath.mpf(p.xi)
    cp, sp = mpmath.cos(angle), mpmath.sin(angle)
    terms = (("m", "m", cp), ("p", "p", cp), ("m", "p", sp), ("p", "m", sp))
    total = mpmath.mpf(0)
    for alpha, beta, c1 in terms:
        for gamma, delta, c2 in terms:
            total += c1 * c2 * j1[(alpha, gamma)] * j2[(beta, delta)]
    return mpmath.mpf(p.a) / (2 * mpmath.pi) * b2 * total


def test_criterion_09_no_communication_identity():
    worst = 0.0
    for p in LATTICE:
        k = np.linspace(-8.0 * math.sqrt(p.a), 8.0 * math.sqrt(p.a), 101)
        worst = max(worst, float(np.max(np.abs(marginal_k1_mixed(p, k) - marginal_k1(p, k)))))
    ok = worst <= 1e-12
    _verdict(9, ok, f"max pointwise deviation = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_faster_convergence():
    violations = 0
    compared = 0
    with _mpcore.workdps():
        threshold = mpmath.mpf("1e-10")
        for a in np.linspace(2.0, 8.0, 121):
            p = SetupParams(float(a), 1.0, 1.0, 0.3)
            pt = _mpcore.point(p)
            vis = visibility._measures_mp(pt)
            v, d = vis["V"], vis["D"]
            r = correlation._correlations_mp(p, pt)[2]
            dev_r = abs(1 - v * v - r * r)
            dev_d = abs(1 - v * v - d * d)
            if dev_r > threshold and dev_d > threshold:
                compared += 1
                if not dev_r < dev_d:
                    violations += 1
    ok = violations == 0 and compared > 0
    _verdict(10, ok, f"{compared} comparable points, {violations} violations")
    assert compared > 0
    assert violations == 0


def _quad_moments(p: SetupParams, basis) -> tuple[float, float, float]:
    """(cov, var1, var2) by composite Gauss-Legendre with panel doubling."""
    (u_lo, u_hi), (v_lo, v_hi) = basis_domains(p, basis)
    n_u, n_v = basis_panel_hints(p, basis)
    prev = None
    for _ in range(8):
        xu, wu = gauss_panels(u_lo, u_hi, n_u)
        xv, wv = gauss_panels(v_lo, v_hi, n_v)
        rho = density_at(p, basis, xu[:, None], xv[None, :])
        cov = float((xu * wu) @ rho @ (xv * wv))
        var1 = float((xu * xu * wu) @ rho @ wv)
        var2 = float(wu @ rho @ (xv * xv * wv))
        current = (cov, var1, var2)
        if prev is not None and all(abs(c - q) <= 1e-10 * max(1.0, abs(c)) for c, q in zip(current, prev)):
            return current
        prev = current
        n_u, n_v = 2 * n_u, 2 * n_v
    return prev


def test_criterion_11_moment_oracle():
    rel_tol, abs_tol, tiny = 1e-8, 1e-25, 1e-20

    def agree(closed: float, oracle: float) -> bool:
        if abs(closed) < tiny and abs(oracle) < tiny:
            return abs(closed - oracle) <= abs_tol
        return abs(closed - oracle) <= rel_tol * max(abs(closed), abs(oracle))

    def agree_mp(closed, oracle) -> bool:
        if abs(closed) < mpmath.mpf(tiny) and abs(oracle) < mpmath.mpf(tiny):
            return bool(abs(closed - oracle) <= mpmath.mpf(abs_tol))
        return bool(abs(closed - oracle) <= mpmath.mpf(rel_tol) * abs(oracle))

    all_ok = True
    for p in LATTICE:
        mx = moments_x(p)
        cov_q, var1_q, var2_q = _quad_moments(p, XX)
        for closed, oracle in ((mx.var1, var1_q), (mx.var2, var2_q)):
            all_ok = all_ok and agree(closed, oracle)
        if abs(mx.cov) >= 1e-12:
            all_ok = all_ok and agree(mx.cov, cov_q)
        else:
            # near-separable angles the covariance sits at or below the float64
            # quadrature noise floor; certified by the factorized mp oracle
            with _mpcore.workdps():
                all_ok = all_ok and agree_mp(
                    correlation._moments_x_mp(_mpcore.point(p))[0], _cov_x_oracle_mp(p)
                )
        mk = moments_k(p)
        _, kvar1_q, kvar2_q = _quad_moments(p, KK)
        for closed, oracle in ((mk.var1, kvar1_q), (mk.var2, kvar2_q)):
            all_ok = all_ok and agree(closed, oracle)
        # the wavenumber covariance sits below the float64 cancellation floor
        # at large a; certified by the factorized extended-precision oracle
        with _mpcore.workdps():
            all_ok = all_ok and agree_mp(
                correlation._moments_k_mp(_mpcore.point(p))[0], _cov_k_oracle_mp(p)
            )
    ok = all_ok
    _verdict(11, ok, "closed-form moments vs quadrature oracles, both bases, full lattice")
    assert ok


def test_criterion_11_companion_wavenumber_covariance_is_relative():
    # criterion 11 lets covariances below 1e-20 agree absolutely; the
    # contour-shifted oracle is sharp enough to hold every nonzero one to 1e-8
    # relative.  At xi = 0, sin 2xi vanishes and both sides are exactly zero
    with _mpcore.workdps():
        for p in LATTICE:
            closed = correlation._moments_k_mp(_mpcore.point(p))[0]
            oracle = _cov_k_oracle_mp(p)
            if closed == 0:
                assert oracle == 0, p
            else:
                assert abs(closed - oracle) <= mpmath.mpf("1e-8") * abs(closed), (p, closed, oracle)


def test_criterion_12_byte_identical_across_thread_hints(tmp_path, capsys):
    outputs = {}
    for label, extra in (("t1", ["--threads", "1"]), ("t4", ["--threads", "4"])):
        sweep_path = tmp_path / f"sweep_{label}.csv"
        grid_path = tmp_path / f"grid_{label}.csv"
        assert cli_main(["sweep", "--xi", "0.3", "--sweep-count", "7", "--out", str(sweep_path)] + extra) == 0
        assert (
            cli_main(
                ["grid", "--a", "6", "--h2", "2", "--xi", "0.3", "--grid", "48x48", "--out", str(grid_path)]
                + extra
            )
            == 0
        )
        outputs[label] = (sweep_path.read_bytes(), grid_path.read_bytes())
    ok = outputs["t1"] == outputs["t4"]
    _verdict(12, ok, "sweep and grid bytes identical for --threads 1 vs 4")
    assert ok
