import math

import numpy as np
import pytest

from lfe.kinematics import State, lorentz_factor, phi, phi_inv


def test_phi_fixed_point_at_rest():
    assert np.array_equal(phi([0.0, 0.0, 0.0]), np.zeros(3))


def test_phi_closed_form():
    # sqrt(1 - 0.36) = 0.8
    assert np.allclose(phi([0.6, 0.0, 0.0]), [0.75, 0.0, 0.0], rtol=0, atol=1e-15)


def test_phi_near_light_is_large_without_overflow():
    p = phi([1.0 - 1e-8, 0.0, 0.0])
    assert np.all(np.isfinite(p))
    assert np.linalg.norm(p) > 1e3


def test_phi_rejects_superluminal():
    with pytest.raises(ValueError):
        phi([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        phi([0.8, 0.8, 0.0])
    # rejection margin: construction refuses the last 1e-12 below the cone
    with pytest.raises(ValueError):
        phi([1.0 - 1e-13, 0.0, 0.0])


def test_phi_inv_closed_form():
    assert np.array_equal(phi_inv([0.0, 0.0, 0.0]), np.zeros(3))
    # sqrt(1 + 0.5625) = 1.25
    assert np.allclose(phi_inv([0.75, 0.0, 0.0]), [0.6, 0.0, 0.0], rtol=0, atol=1e-15)


def test_phi_inv_stays_subluminal_sweep():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 6)
        assert np.linalg.norm(phi_inv(p)) < 1.0


def test_round_trip_velocity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(2000):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        v = d * rng.uniform(0.0, 1.0 - 1e-6)
        worst = max(worst, np.abs(phi_inv(phi(v)) - v).max())
    assert worst <= 1e-12


def test_round_trip_momentum():
    # conditioning note: recovering p from the velocity loses resolution by
    # the cube of the energy factor near the light cone
    rng = np.random.default_rng(13)
    for _ in range(500):
        p = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 2)
        cond = (1.0 + np.dot(p, p)) ** 1.5
        assert np.abs(phi(phi_inv(p)) - p).max() <= 5e-15 * cond


def test_collinearity():
    rng = np.random.default_rng(14)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.9) / np.linalg.norm(v)
        p = phi(v)
        cross = np.cross(p, v)
        assert np.linalg.norm(cross) <= 1e-14 * max(1.0, np.linalg.norm(p))
        assert np.dot(p, v) >= 0.0


def test_lorentz_factor():
    assert lorentz_factor([0.0, 0.0, 0.0]) == 1.0
    assert math.isclose(lorentz_factor([0.75, 0.0, 0.0]), 1.25, rel_tol=1e-15)


def test_phi_inv_and_lorentz_factor_take_a_cloud():
    rng = np.random.default_rng(16)
    # momenta up to ~1e170, past where |p|^2 overflows
    p = rng.normal(size=(64, 3)) * np.exp(rng.uniform(-8.0, 390.0, size=(64, 1)))
    p[0] = 0.0
    with np.errstate(all="raise"):
        v = phi_inv(p)
        gamma = lorentz_factor(p)
        assert np.array_equal(v, [phi_inv(b) for b in p])
        assert np.array_equal(gamma, [lorentz_factor(b) for b in p])
    assert v.shape == (64, 3) and gamma.shape == (64,)
    assert np.array_equal(v[0], np.zeros(3)) and gamma[0] == 1.0
    n = np.array([math.hypot(*b) for b in p])
    fast = n > 1e8  # the speed rounds to 1 there
    assert np.allclose(np.linalg.norm(v[fast], axis=1), 1.0, rtol=1e-15, atol=0.0)
    assert np.allclose(gamma[fast], n[fast], rtol=1e-15, atol=0.0)
    slow = ~fast
    closed = np.sqrt(1.0 + n[slow] ** 2)
    assert np.allclose(gamma[slow], closed, rtol=1e-15, atol=0.0)
    assert np.allclose(v[slow], p[slow] / closed[:, None], rtol=1e-15, atol=0.0)


def test_lorentz_factor_monotone_in_magnitude():
    rng = np.random.default_rng(15)
    for _ in range(300):
        p1 = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        p2 = p1 * rng.uniform(1.01, 5.0)
        assert lorentz_factor(p2) > lorentz_factor(p1)


def test_state_rejects_origin():
    with pytest.raises(ValueError):
        State(q=[0.0, 0.0, 0.0], p=[1.0, 0.0, 0.0])


def test_state_array_round_trip():
    x = State(q=[1.0, 2.0, 3.0], p=[-0.5, 0.0, 4.0])
    assert np.array_equal(State.from_array(x.as_array()).as_array(), x.as_array())


def test_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        State(q=[1.0, 2.0], p=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        State.from_array(np.zeros(5))
