"""Measures, domain boxes, and the normalizing weight map."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    min_pairwise_semidistance,
    reparametrize,
    tv_norm,
    weight_function,
)
from gmblasso.kernel import semi_distance_pairs

from conftest import random_locations


class TestLocation:
    """A location x = (t, u) is one coordinate row (t_1..t_d, u_1..u_d)."""

    def test_roundtrip(self):
        mu = DiscreteMeasure.from_arrays(np.array([1.0]),
                                         np.array([[1.0, -2.0, 0.5, 3.0]]))
        assert mu.d == 2
        np.testing.assert_allclose(mu.coords[0, :2], [1.0, -2.0])
        np.testing.assert_allclose(mu.coords[0, 2:], [0.5, 3.0])

    def test_scalar_inputs_promote(self):
        mu = DiscreteMeasure.from_arrays(1.0, np.array([0.25, 1.5]))
        assert mu.coords.shape == (1, 2) and mu.weights.shape == (1,)

    @pytest.mark.parametrize("t,u", [
        ((0.0,), (0.0,)),          # zero scale
        ((0.0,), (-1.0,)),         # negative scale
        ((0.0, 1.0), (1.0,)),      # length mismatch
        ((math.nan,), (1.0,)),     # non-finite
        ((), ()),                  # empty
    ])
    def test_rejects_invalid(self, t, u):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_arrays(np.array([1.0]), np.array(t + u))


class TestDiscreteMeasure:
    def test_from_arrays_and_atoms(self):
        mu = DiscreteMeasure.from_arrays(
            np.array([0.3, 0.7]), np.array([[0.0, 1.0], [2.0, 0.5]]))
        assert mu.s == 2 and mu.d == 1
        assert mu.weights[0] == 0.3
        np.testing.assert_array_equal(mu.coords[1], [2.0, 0.5])
        np.testing.assert_allclose(mu.locations_array(),
                                   [[0.0, 1.0], [2.0, 0.5]])

    def test_empty(self):
        mu = DiscreteMeasure.empty()
        assert mu.s == 0
        assert tv_norm(mu) == 0.0
        with pytest.raises(ValueError):
            mu.d

    @pytest.mark.parametrize("weights,coords", [
        ([-0.1], [[0.0, 1.0]]),            # negative weight
        ([math.inf], [[0.0, 1.0]]),        # non-finite weight
        ([0.5, 0.5], [[0.0, 1.0]]),        # length mismatch
        ([0.5], [[0.0, 0.0]]),             # zero scale
        ([0.5], [[math.nan, 1.0]]),        # non-finite coordinate
    ])
    def test_rejects_invalid(self, weights, coords):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_arrays(np.array(weights), np.array(coords))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.5, 0.5]),
                            [[0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.5]), np.array([[0.0, 1.0, 1.0]]))

    def test_arrays_are_read_only(self):
        mu = DiscreteMeasure.from_arrays(np.array([0.3]), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            mu.coords[0, 0] = 1.0
        with pytest.raises(ValueError):
            mu.weights[0] = 1.0


class TestDomainBox:
    def test_bounds_and_contains(self):
        box = DomainBox((-1.0,), (2.0,), 0.5, 1.5)
        np.testing.assert_allclose(box.lower(), [-1.0, 0.5])
        np.testing.assert_allclose(box.upper(), [2.0, 1.5])
        assert box.contains(np.array([0.0, 1.0]))
        assert not box.contains(np.array([3.0, 1.0]))
        assert not box.contains(np.array([0.0, 0.4]))
        assert box.contains(np.array([0.0, 0.4999999]), atol=1e-6)

    @pytest.mark.parametrize("kwargs", [
        dict(t_lo=(1.0,), t_hi=(0.0,), u_min=0.5, u_max=1.0),
        dict(t_lo=(0.0,), t_hi=(1.0,), u_min=0.0, u_max=1.0),
        dict(t_lo=(0.0,), t_hi=(1.0,), u_min=2.0, u_max=1.0),
        dict(t_lo=(0.0,), t_hi=(math.inf,), u_min=0.5, u_max=1.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DomainBox(**kwargs)


class TestWeightFunction:
    def test_reference_value(self):
        # prod_k (2 pi)^(-1/4) (2 u_k^2 + tau^2)^(-1/4) at u = tau = 1
        w = weight_function(np.array([0.0, 1.0]), 1.0)
        assert w == pytest.approx(0.4799264870591019, abs=1e-15)

    def test_product_over_coordinates(self):
        w1 = weight_function(np.array([0.0, 1.3]), 0.7)
        w2 = weight_function(np.array([5.0, 0.4]), 0.7)
        w12 = weight_function(np.array([0.0, 5.0, 1.3, 0.4]), 0.7)
        assert w12 == pytest.approx(w1 * w2, rel=1e-14)

    def test_batch_matches_scalar(self, ctx1):
        rng = np.random.default_rng(0)
        pts = random_locations(rng, 17, ctx1.box)
        batch = weight_function(pts, ctx1.tau)
        single = [weight_function(p, ctx1.tau) for p in pts]
        np.testing.assert_allclose(batch, single, rtol=1e-15)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            weight_function(np.array([0.0, 1.0]), 0.0)

    @given(u=st.floats(0.05, 50.0), tau=st.floats(0.05, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_and_decreasing_in_u(self, u, tau):
        w = weight_function(np.array([0.0, u]), tau)
        w_wider = weight_function(np.array([0.0, 1.1 * u]), tau)
        assert 0 < w_wider < w


class TestReparametrize:
    def test_roundtrip_identity(self, ctx1):
        rng = np.random.default_rng(3)
        pts = random_locations(rng, 6, ctx1.box)
        mu = DiscreteMeasure.from_arrays(rng.random(6) + 0.1, pts)
        back = reparametrize(
            reparametrize(mu, ctx1.tau, "to_omega"), ctx1.tau, "from_omega")
        np.testing.assert_allclose(back.weights, mu.weights, rtol=1e-14)
        np.testing.assert_array_equal(back.coords, mu.coords)

    def test_to_omega_scales_by_weight_function(self, ctx1):
        mu = DiscreteMeasure.from_arrays(np.array([2.0]), np.array([[0.3, 1.2]]))
        om = reparametrize(mu, ctx1.tau, "to_omega")
        expected = 2.0 * weight_function(np.array([0.3, 1.2]), ctx1.tau)
        assert om.weights[0] == pytest.approx(expected, rel=1e-15)

    def test_unknown_direction(self, ctx1):
        mu = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            reparametrize(mu, ctx1.tau, "sideways")

    def test_empty_measure_passthrough(self, ctx1):
        mu = DiscreteMeasure.empty()
        assert reparametrize(mu, ctx1.tau, "to_omega") is mu


class TestNorms:
    def test_tv_norm_is_weight_sum(self):
        mu = DiscreteMeasure.from_arrays(
            np.array([0.25, 1.5, 0.0]),
            np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
        assert tv_norm(mu) == pytest.approx(1.75, abs=1e-15)

    def test_min_pairwise_matches_bruteforce(self, ctx1):
        rng = np.random.default_rng(11)
        pts = random_locations(rng, 9, ctx1.box)
        mu = DiscreteMeasure.from_arrays(np.ones(9), pts)
        brute = min(
            float(semi_distance_pairs(pts[i], pts[j], ctx1))
            for i in range(9) for j in range(i + 1, 9))
        assert min_pairwise_semidistance(mu, ctx1) == pytest.approx(brute, rel=1e-13)

    def test_min_pairwise_needs_two_atoms(self, ctx1):
        mu = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            min_pairwise_semidistance(mu, ctx1)
