"""The self-check suite behind ``validate``: lattice subsets and check measures."""

import dataclasses
import math

from pairvis import correlation, validation
from pairvis.state import SetupParams

PI = math.pi


class TestLatticeSubsets:
    def test_full_subset_spans_every_entanglement_angle(self):
        small = validation._subset(validation._lattice(False), False)
        assert {p.xi for p in small} == set(validation._XI_GRID)

    def test_quick_subset_is_the_quick_lattice(self):
        lattice = validation._lattice(True)
        assert validation._subset(lattice, True) == lattice
        assert len(lattice) == 4


class TestMomentCheck:
    def test_product_states_pass(self):
        # the closed position covariance vanishes at xi = 0 (and is ~1e-16 at
        # xi = pi/2); it is measured against sqrt(var1 var2), not against itself
        points = [p for p in validation._lattice(False) if p.a == 2.0 and p.xi in (0.0, PI / 2.0)]
        assert len(points) == 6
        assert validation._moment_dev(points, 1e-9) <= 1e-8

    def test_shifted_covariance_fails(self, monkeypatch):
        p = SetupParams(2.0, 1.0, 2.0, PI / 8.0)
        assert validation._moment_dev([p], 1e-9) <= 1e-8
        exact = correlation.moments_x

        def shifted(params):
            m = exact(params)
            return dataclasses.replace(m, cov=m.cov + 1e-6 * math.sqrt(m.var1 * m.var2))

        monkeypatch.setattr(correlation, "moments_x", shifted)
        assert validation._moment_dev([p], 1e-9) > 1e-8


class TestEpsilonCheck:
    def test_deep_point_is_checked_in_mpmath(self, monkeypatch):
        # both values underflow float64 here; a float comparison would pass anything
        p = SetupParams(600.0, 1.0, 2.0, 0.3)
        assert validation._epsilon_bound_dev([p]) == 0.0
        bound = validation.visibility.bound_mp
        monkeypatch.setattr(validation.visibility, "bound_mp", lambda params: bound(params) / 1e10)
        assert validation._epsilon_bound_dev([p]) > 0.0
