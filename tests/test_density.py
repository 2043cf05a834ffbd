"""Quadrature engine, normalization, and grid emission."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from pairvis import (
    KK,
    KX,
    XK,
    XX,
    Density2D,
    Grid2D,
    QuadratureError,
    SetupParams,
    default_domain,
    default_grid,
    density_at,
    normalization_mass,
    quadrature_2d,
)
from pairvis import density
from pairvis.corrected import corrected_density
from pairvis.density import basis_domains, basis_panel_hints, gauss_panels, integrate_1d_batch
from pairvis.radon import radon_numeric
from pairvis.state import Axis, psi

PI = math.pi


class TestIntegrate1d:
    # a scalar integrand, f(x) of shape (len(x),), integrates to a 0-d result

    def test_gaussian_mass(self):
        val = integrate_1d_batch(lambda x: np.exp(-x * x), -12.0, 12.0, tol=1e-12)
        assert val == pytest.approx(math.sqrt(PI), rel=1e-12)

    def test_oscillatory_integrand(self):
        # int_0^pi sin(x) dx = 2, with a rapidly oscillating perturbation that
        # integrates to zero over full periods
        val = integrate_1d_batch(lambda x: np.sin(x) + np.cos(40.0 * x), 0.0, PI, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-11)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError):
            integrate_1d_batch(lambda x: np.exp(-x * x), -12.0, 12.0, tol=0.0, max_doublings=3)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    @pytest.mark.parametrize("integrate", [
        lambda f, tol: integrate_1d_batch(f, -1.0, 1.0, tol=tol),
        lambda f, tol: integrate_1d_batch(lambda x: np.stack([f(x), f(x)]), -1.0, 1.0, tol=tol),
        lambda f, tol: quadrature_2d(lambda u, v: f(u + v), (-1.0, 1.0), (-1.0, 1.0), tol=tol),
    ], ids=["1d", "1d_batch", "2d"])
    def test_non_positive_tolerance_fails_before_evaluating(self, integrate, tol):
        calls = []

        def f(x):
            calls.append(x)
            return np.ones_like(x)

        with pytest.raises(QuadratureError):
            integrate(f, tol)
        assert calls == []

    @pytest.mark.parametrize("integrate,integrand", [
        (lambda g, tol: integrate_1d_batch(g, -6.0, 6.0, tol=tol), lambda x: np.exp(-x * x)),
        (
            lambda g, tol: integrate_1d_batch(g, -6.0, 6.0, tol=tol),
            lambda x: np.array([[1.0], [-3.0]]) * np.exp(-x * x),
        ),
        (
            lambda g, tol: quadrature_2d(g, (-6.0, 6.0), (-6.0, 6.0), tol=tol),
            lambda u, v: np.exp(-u * u - v * v),
        ),
    ], ids=["1d", "1d_batch", "2d"])
    def test_tolerance_below_float_resolution_fails_fast(self, integrate, integrand):
        calls = []

        def counted(*xs):
            calls.append(xs)
            return integrand(*xs)

        # the message names the tolerance and the estimate (for the batch, its
        # largest component, 3 sqrt(pi)) that cannot resolve it
        with pytest.raises(QuadratureError, match=r"tol=1e-300\b.*estimate (1\.77|3\.14|5\.31)"):
            integrate(counted, 1e-300)
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("integrate,integrand,cap,message", [
        (
            lambda g: integrate_1d_batch(g, 0.0, 1.0, tol=1e-6, min_panels=50),
            lambda x: np.full_like(x, x.size),
            ("_MAX_NODES_1D", 1000),
            r"^batched 1d .*node cap after evaluating 2 level\(s\); "
            r"the next level needs 1,200 nodes, over the cap of 1,000$",
        ),
        (
            lambda g: integrate_1d_batch(g, 0.0, 1.0, tol=1e-6, min_panels=50),
            lambda x: np.full((2, x.size), float(x.size)),
            ("_MAX_NODES_1D", 1000),
            r"^batched 1d .*node cap after evaluating 2 level\(s\); "
            r"the next level needs 1,200 nodes, over the cap of 1,000$",
        ),
        (
            lambda g: quadrature_2d(g, (0.0, 1.0), (0.0, 1.0), tol=1e-6),
            lambda u, v: np.full(np.broadcast(u, v).shape, float(u.size)),
            ("_MAX_NODES_2D", 5000),
            r"^2d .*node cap after evaluating 2 level\(s\); "
            r"the next level needs 16,384 nodes, over the cap of 5,000$",
        ),
    ], ids=["1d", "1d_batch", "2d"])
    def test_node_cap_names_itself(self, monkeypatch, integrate, integrand, cap, message):
        # the integrand grows with the node count, so no two levels agree
        monkeypatch.setattr(density, *cap)
        with pytest.raises(QuadratureError, match=message):
            integrate(integrand)

    @pytest.mark.parametrize("integrate,integrand,message", [
        (
            lambda g: integrate_1d_batch(g, 0.0, 1.0, tol=1e-6, max_doublings=2),
            lambda x: np.full_like(x, x.size),
            r"^batched 1d quadrature did not converge to tol=1e-06 within max_doublings=2 doublings; "
            r"the last level had 192 nodes$",
        ),
        (
            lambda g: integrate_1d_batch(g, 0.0, 1.0, tol=1e-6, max_doublings=2),
            lambda x: np.full((2, x.size), float(x.size)),
            r"^batched 1d .* within max_doublings=2 doublings; the last level had 192 nodes$",
        ),
        (
            lambda g: quadrature_2d(g, (0.0, 1.0), (0.0, 1.0), tol=1e-6, max_doublings=2),
            lambda u, v: np.full(np.broadcast(u, v).shape, float(u.size)),
            r"^2d .* within max_doublings=2 doublings; the last level had 16,384 nodes$",
        ),
    ], ids=["1d", "1d_batch", "2d"])
    def test_doubling_limit_names_itself(self, integrate, integrand, message):
        with pytest.raises(QuadratureError, match=message):
            integrate(integrand)

    def test_batch_matches_scalar(self):
        centers = np.array([-1.0, 0.0, 2.0])
        batch = integrate_1d_batch(
            lambda x: np.exp(-((centers[:, None] - x[None, :]) ** 2)), -14.0, 14.0, tol=1e-12
        )
        np.testing.assert_allclose(batch, math.sqrt(PI), rtol=1e-12)

    def test_result_types(self):
        # the 2-D rule returns a Python float; the batch an array of the
        # integrand's leading shape, also an empty one (radon_numeric of no s)
        val = quadrature_2d(lambda u, v: np.exp(-(u * u + v * v)), (-6.0, 6.0), (-6.0, 6.0))
        assert type(val) is float
        for shape in ((2, 3), (0,)):
            batch = integrate_1d_batch(lambda x: np.ones(shape + x.shape), 0.0, 1.0)
            assert isinstance(batch, np.ndarray) and batch.shape == shape


class TestQuadrature2d:
    def test_separable_gaussian(self):
        val = quadrature_2d(
            lambda u, v: np.exp(-(u * u + 2.0 * v * v)),
            (-10.0, 10.0),
            (-10.0, 10.0),
            tol=1e-11,
        )
        assert val == pytest.approx(PI / math.sqrt(2.0), rel=1e-10)


class TestNormalization:
    @pytest.mark.parametrize("basis", [XX, KK, KX, XK])
    def test_unit_mass_each_basis(self, basis):
        p = SetupParams(10.0, 1.0, 2.0, 0.3)
        assert normalization_mass(p, basis) == pytest.approx(1.0, abs=1e-9)

    def test_unit_mass_at_high_squeezing(self):
        p = SetupParams(50.0, 2.0, 2.0, PI / 4.0)
        assert normalization_mass(p, KK) == pytest.approx(1.0, abs=1e-9)


# the bench oracle lattice (a, h1, h2) at two entanglement angles, and the edge
# points of the robustness test at one
_ORACLE_POINTS = [
    SetupParams(a, h1, h2, xi)
    for a in (2.0, 5.0, 10.0, 30.0)
    for (h1, h2) in ((1.0, 1.0), (1.0, 2.0))
    for xi in (0.3, 2.0)
]
_EDGE_A = (1e-3, 0.05, 0.5, 100.0, 300.0)
_EDGE_H = ((0.05, 3.0), (3.0, 3.0), (0.5, 0.5))
_EDGE_POINTS = [SetupParams(a, h1, h2, 0.7) for a in _EDGE_A for (h1, h2) in _EDGE_H]


def _point_id(p):
    return f"a{p.a:g}-h{p.h1:g},{p.h2:g}-xi{p.xi:g}"


def _fixed_level(params, basis, weight, refine):
    """Mass and weighted moment of one Gauss level at ``refine`` times the panel hints per axis."""
    (ub, vb), hints = basis_domains(params, basis), basis_panel_hints(params, basis)
    xu, wu = gauss_panels(*ub, refine * hints[0])
    xv, wv = gauss_panels(*vb, refine * hints[1])
    mass = moment = 0.0
    for i in range(0, len(xv), 256):
        vs = xv[i : i + 256, None]
        rows = density_at(params, basis, xu[None, :], vs) * wu
        mass += float(rows.sum(axis=1) @ wv[i : i + 256])
        moment += float((rows * weight(xu[None, :], vs)).sum(axis=1) @ wv[i : i + 256])
    return mass, moment


class TestPanelHints:
    @pytest.mark.parametrize("a", _EDGE_A)
    @pytest.mark.parametrize("h1,h2", _EDGE_H)
    @pytest.mark.parametrize("xi", [0.0, 0.7, 2.0])
    def test_unit_mass_at_domain_edges(self, a, h1, h2, xi):
        # at a=300, h=(3, 3) a start 4x finer per axis would need a second
        # level over the 2-D node cap
        p = SetupParams(a, h1, h2, xi)
        for basis in (XX, KK, KX, XK):
            assert abs(normalization_mass(p, basis) - 1.0) <= 1e-8, (p, basis.token)

    @pytest.mark.parametrize("p", _ORACLE_POINTS + _EDGE_POINTS, ids=_point_id)
    def test_widths_resolve_a_fringe_half_period_and_a_peak_width(self, p):
        for basis in (XX, KK, KX, XK):
            hints = basis_panel_hints(p, basis)
            for axis, h, (lo, hi), panels in zip((basis.first, basis.second), (p.h1, p.h2),
                                                 basis_domains(p, basis), hints):
                bound = PI / (2.0 * h) if axis is Axis.WAVENUMBER else 1.0 / (2.0 * math.sqrt(p.a))
                assert (hi - lo) / panels <= bound, (basis.token, axis)

    @pytest.mark.parametrize("p", _ORACLE_POINTS + _EDGE_POINTS, ids=_point_id)
    def test_tolerance_holds_against_a_4x_finer_level(self, p):
        # the converged values agree within tol with one level at 4x the
        # hints per axis (16x the first level's nodes)
        tol = 1e-9
        for basis, weight in ((XX, lambda u, v: u * v), (KK, lambda u, v: u * u)):
            ref_mass, ref_moment = _fixed_level(p, basis, weight, 4)
            ub, vb = basis_domains(p, basis)
            hints = basis_panel_hints(p, basis)
            mass = quadrature_2d(lambda u, v: density_at(p, basis, u, v), ub, vb, tol=tol, min_panels=hints)
            moment = quadrature_2d(
                lambda u, v: weight(u, v) * density_at(p, basis, u, v), ub, vb, tol=tol, min_panels=hints
            )
            assert abs(mass - ref_mass) <= tol, (basis.token, mass, ref_mass)
            assert abs(moment - ref_moment) <= tol, (basis.token, moment, ref_moment)

    def test_normalization_node_count(self, monkeypatch):
        # the first doubling resolves and verifies: 784,000 nodes here, where
        # a start 4x finer per axis takes 12,454,560
        nodes = []
        eval_2d = density._eval_2d

        def counted(f, xu, wu, xv, wv):
            nodes.append(len(xu) * len(xv))
            return eval_2d(f, xu, wu, xv, wv)

        monkeypatch.setattr(density, "_eval_2d", counted)
        assert normalization_mass(SetupParams(30.0, 1.0, 2.0, 0.3), KK) == pytest.approx(1.0, abs=1e-9)
        assert sum(nodes) <= 1_000_000


class TestDomains:
    def test_position_domain_scales_with_slit_separation(self):
        p = SetupParams(4.0, 1.0, 3.0, 0.3)
        lo1, hi1 = default_domain(p, Axis.POSITION, 1)
        lo2, hi2 = default_domain(p, Axis.POSITION, 2)
        assert hi1 == -lo1 and hi2 == -lo2
        assert hi2 > hi1  # the wider slit pair needs the wider box

    def test_wavenumber_domain_scales_with_sqrt_a(self):
        narrow = default_domain(SetupParams(4.0, 1.0, 1.0, 0.3), Axis.WAVENUMBER)
        wide = default_domain(SetupParams(16.0, 1.0, 1.0, 0.3), Axis.WAVENUMBER)
        assert wide[1] == pytest.approx(2.0 * narrow[1], rel=1e-15)

    def test_mass_outside_default_domain_is_negligible(self):
        p = SetupParams(5.0, 1.0, 2.0, 0.7)
        (lo1, hi1), (lo2, hi2) = basis_domains(p, XX)
        u = np.linspace(lo1, hi1, 400)
        edge = float(np.max(density_at(p, XX, np.array([lo1, hi1]), 0.0)))
        assert edge < 1e-18
        assert float(np.max(density_at(p, XX, u, lo2))) < 1e-18


class TestGrid2D:
    def test_axis_endpoints_and_counts(self):
        g = Grid2D(-1.0, 1.0, 0.0, 2.0, 5, 3)
        assert g.u_axis()[0] == -1.0 and g.u_axis()[-1] == 1.0
        assert len(g.v_axis()) == 3

    @pytest.mark.parametrize("kwargs", [
        {"u_min": 1.0, "u_max": -1.0},
        {"n_u": 1},
        {"n_v": 0},
    ])
    def test_invalid_grid_raises(self, kwargs):
        base = {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0, "n_u": 4, "n_v": 4}
        base.update(kwargs)
        with pytest.raises(ValueError):
            Grid2D(**base)


class TestDensity2D:
    def test_trapezoid_mass_near_unity(self):
        p = SetupParams(10.0, 1.0, 1.0, 0.3)
        field = Density2D.evaluate(p, KK, default_grid(p, KK, 256, 256))
        inner = np.trapezoid(field.values, field.grid.v_axis(), axis=1)
        assert float(np.trapezoid(inner, field.grid.u_axis())) == pytest.approx(1.0, abs=1e-4)

    def test_csv_round_trips_at_full_precision(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        field = Density2D.evaluate(p, XX, default_grid(p, XX, 8, 8))
        lines = field.to_csv_text().strip().split("\n")
        assert lines[0] == "u,v,value"
        assert len(lines) == 1 + 8 * 8
        parsed = np.array([float(row.split(",")[2]) for row in lines[1:]]).reshape(8, 8)
        np.testing.assert_array_equal(parsed, field.values)

    @pytest.mark.parametrize("basis", [XX, KK, KX, XK], ids=lambda b: b.token)
    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (48, 48)])
    def test_csv_matches_per_cell_formatting(self, basis, shape):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        field = Density2D.evaluate(p, basis, default_grid(p, basis, *shape))
        assert field.to_csv_text() == _per_cell_csv(field)

    def test_csv_matches_per_cell_formatting_on_corrected_grid(self):
        # outside the narrow-slit regime the corrected quasi-distribution dips below 0
        p = SetupParams(0.3, 0.3, 1.0, 0.3)
        field = Density2D.evaluate(
            p, KK, default_grid(p, KK, 48, 48), fn=lambda u, v: corrected_density(p, u, v)
        )
        assert float(np.min(field.values)) < 0.0
        assert field.to_csv_text() == _per_cell_csv(field)

    def test_csv_matches_per_cell_formatting_on_extreme_values(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        special = [-0.0, 5e-324, 1e-300, 1e300, 0.1]
        values = np.array([special[(i + j) % len(special)] for i in range(3) for j in range(5)])
        field = Density2D(Grid2D(-1.5, 0.25, 1e-3, 7.0, 3, 5), KK, p, values.reshape(3, 5))
        text = field.to_csv_text()
        assert text == _per_cell_csv(field)
        assert text.split("\n")[1:3] == ["-1.5,0.001,-0", "-1.5,1.7507499999999998,4.9406564584124654e-324"]

    def test_json_payload_structure(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        field = Density2D.evaluate(p, KK, default_grid(p, KK, 4, 6))
        payload = json.loads(field.to_json_text())
        assert payload["basis"] == "kk"
        assert payload["grid"]["n_u"] == 4 and payload["grid"]["n_v"] == 6
        assert payload["params"]["h2"] == 2.0
        assert np.asarray(payload["values"]).shape == (4, 6)
        assert list(payload) == ["grid", "basis", "params", "values"]
        assert list(payload["grid"]) == ["u_min", "u_max", "v_min", "v_max", "n_u", "n_v"]
        assert list(payload["params"]) == ["a", "h1", "h2", "xi"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writers_send_one_u_row_per_write(self, fmt):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        field = Density2D.evaluate(p, KX, default_grid(p, KX, 5, 7))
        chunks = []

        class Recorder:
            def write(self, text):
                chunks.append(text)

        getattr(field, f"write_{fmt}")(Recorder())
        # the head, then one chunk per u-row (and the JSON's closing brackets)
        assert len(chunks) == 1 + 5 + (fmt == "json")
        assert "".join(chunks) == getattr(field, f"to_{fmt}_text")()

    def test_json_text_is_one_dumps_of_the_whole_object(self):
        p = SetupParams(4.0, 1.0, 2.0, 0.3)
        special = [-0.0, 5e-324, 1e-300, 1e300, 0.1, float("nan"), float("inf")]
        values = np.array([special[(i + j) % len(special)] for i in range(3) for j in range(5)])
        field = Density2D(Grid2D(-1.5, 0.25, 1e-3, 7.0, 3, 5), KK, p, values.reshape(3, 5))
        whole = {"grid": asdict(field.grid), "basis": "kk", "params": asdict(p), "values": field.values.tolist()}
        assert field.to_json_text() == json.dumps(whole) + "\n"

    def test_custom_field_function_hook(self):
        p = SetupParams(4.0, 1.0, 1.0, 0.3)
        grid = default_grid(p, KK, 16, 16)
        doubled = Density2D.evaluate(p, KK, grid, fn=lambda u, v: 2.0 * density_at(p, KK, u, v))
        plain = Density2D.evaluate(p, KK, grid)
        np.testing.assert_allclose(doubled.values, 2.0 * plain.values, rtol=1e-15)


_FACTOR_A = (0.3, 2.0, 30.0, 200.0)
_FACTOR_H = (0.3, 1.0, 2.0)
_FACTOR_XI = (0.0, PI / 8.0, PI / 4.0, PI / 2.0, 3.0 * PI / 4.0)


def _pointwise_density(p, basis, u, v):
    amp = psi(p, basis, u, v)
    return amp.real * amp.real + amp.imag * amp.imag


class TestFactoredDensity:
    @pytest.mark.parametrize("basis", [XX, KK, KX, XK], ids=lambda b: b.token)
    @pytest.mark.parametrize("u_is_column", [True, False], ids=["n1x1m", "1nxm1"])
    def test_axes_match_pointwise_density(self, basis, u_is_column):
        for a in _FACTOR_A:
            for h1 in _FACTOR_H:
                for h2 in _FACTOR_H:
                    for xi in _FACTOR_XI:
                        p = SetupParams(a, h1, h2, xi)
                        (lo1, hi1), (lo2, hi2) = basis_domains(p, basis)
                        u = np.linspace(lo1, hi1, 41)
                        v = np.linspace(lo2, hi2, 37)
                        u, v = (u[:, None], v[None, :]) if u_is_column else (u[None, :], v[:, None])
                        got = density_at(p, basis, u, v)
                        ref = _pointwise_density(p, basis, *np.broadcast_arrays(u, v))
                        assert got.shape == ref.shape
                        assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(ref)), p
                        assert float(np.min(got)) >= 0.0

    @pytest.mark.parametrize("basis", [XX, KK, KX, XK], ids=lambda b: b.token)
    def test_same_shape_inputs_keep_pointwise_bits(self, basis):
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        (_, hi1), (_, hi2) = basis_domains(p, basis)
        half = max(hi1, hi2)
        s = np.linspace(-half, half, 51)
        t = np.linspace(-1.4 * half, 1.4 * half, 97)
        c, sn = math.cos(0.7), math.sin(0.7)
        layouts = [
            # a rotated (s, t) block passed as full coordinate arrays
            (s[:, None] * c - t[None, :] * sn, s[:, None] * sn + t[None, :] * c),
            # a slice: one rotated line at a transverse offset
            (s * c - 0.1 * half * sn, s * sn + 0.1 * half * c),
        ]
        for u, v in layouts:
            assert density_at(p, basis, u, v).tobytes() == _pointwise_density(p, basis, u, v).tobytes()


def _generic_angles(rng, n):
    # away from 0 and +-pi/2, where the rotation degenerates to an axis swap
    return rng.uniform(0.1, PI / 2.0 - 0.1, n) * rng.choice((-1.0, 1.0), n)


def _rotated_density(p, basis, phi, s, t):
    c, sn = math.cos(phi), math.sin(phi)
    return _pointwise_density(p, basis, s * c - t * sn, s * sn + t * c)


def _line_half(p, basis):
    # the half-length of radon_numeric's line integral
    (_, hi1), (_, hi2) = basis_domains(p, basis)
    return math.sqrt(2.0) * max(hi1, hi2)


class TestRotatedDensity:
    @pytest.mark.parametrize("basis", [XX, KK], ids=lambda b: b.token)
    def test_line_meshes_match_pointwise_density(self, basis):
        rng = np.random.default_rng(606)
        for a in _FACTOR_A:
            for h1 in _FACTOR_H:
                for h2 in _FACTOR_H:
                    for xi in _FACTOR_XI:
                        p = SetupParams(a, h1, h2, xi)
                        half = _line_half(p, basis)
                        s = np.linspace(-half, half, 41)[:, None]
                        t = np.linspace(-half, half, 37)[None, :]
                        for phi in _generic_angles(rng, 2):
                            got = density_at(p, basis, s, t, phi=phi)
                            ref = _rotated_density(p, basis, phi, *np.broadcast_arrays(s, t))
                            assert got.shape == ref.shape
                            assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(ref)), (p, phi)
                            assert float(np.min(got)) >= 0.0

    @pytest.mark.parametrize("basis", [XX, KK, KX, XK], ids=lambda b: b.token)
    def test_pointwise_fallback_keeps_bits(self, basis):
        p = SetupParams(30.0, 1.0, 2.0, 0.3)
        half = _line_half(p, basis)
        s = np.linspace(-half, half, 51)
        t = np.linspace(-half, half, 97)
        phi = 0.7
        # same-shape inputs, a row of s against a column of t and interleaved
        # outer products in every basis, and line meshes in the mixed bases
        layouts = [
            np.meshgrid(s, t, indexing="ij"),
            (s, 0.1 * half * np.ones_like(s)),
            (s[None, :], t[:, None]),
            (s[:6].reshape(2, 1, 3), t[:5].reshape(1, 5, 1)),
        ]
        if basis.is_mixed:
            layouts.append((s[:, None], t[None, :]))
        for u, v in layouts:
            expected = _rotated_density(p, basis, phi, u, v)
            assert density_at(p, basis, u, v, phi=phi).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("basis", [XX, KK, KX, XK], ids=lambda b: b.token)
    def test_zero_angle_is_the_unrotated_density(self, basis):
        p = SetupParams(5.0, 1.0, 2.0, 1.1)
        (lo1, hi1), (lo2, hi2) = basis_domains(p, basis)
        u = np.linspace(lo1, hi1, 33)
        v = np.linspace(lo2, hi2, 29)
        for uu, vv in [(u[:, None], v[None, :]), (u[None, :], v[:, None]), np.meshgrid(u, v)]:
            assert density_at(p, basis, uu, vv, phi=0.0).tobytes() == density_at(p, basis, uu, vv).tobytes()

    @pytest.mark.parametrize("basis", [XX, KK], ids=lambda b: b.token)
    @pytest.mark.parametrize("phi", [0.1, 0.77, -1.2])
    def test_radon_numeric_matches_pointwise_line_integral(self, basis, phi):
        for p in (SetupParams(2.0, 1.0, 1.0, 0.3), SetupParams(30.0, 1.0, 2.0, 2.0)):
            half = _line_half(p, basis)
            s = np.linspace(-0.8 * half, 0.8 * half, 41)
            got = radon_numeric(p, phi, s, basis=basis, tol=1e-12).values
            ref = integrate_1d_batch(
                lambda t: _rotated_density(p, basis, phi, s[:, None], t[None, :]),
                -half,
                half,
                tol=1e-12,
                min_panels=256,
            )
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(np.max(ref)), p


def _per_cell_csv(field: Density2D) -> str:
    """Reference CSV writer: formats u, v and the value afresh for every cell."""
    u = field.grid.u_axis()
    v = field.grid.v_axis()
    lines = ["u,v,value"]
    for i in range(field.grid.n_u):
        row = field.values[i]
        ui = u[i]
        for j in range(field.grid.n_v):
            lines.append(f"{ui:.17g},{v[j]:.17g},{row[j]:.17g}")
    return "\n".join(lines) + "\n"


def test_density_is_nonnegative_everywhere():
    p = SetupParams(7.0, 1.0, 2.0, 1.1)
    rng = np.random.default_rng(11)
    for basis in (XX, KK, KX, XK):
        u = rng.uniform(-6.0, 6.0, 1000)
        v = rng.uniform(-6.0, 6.0, 1000)
        assert float(np.min(density_at(p, basis, u, v))) >= 0.0
