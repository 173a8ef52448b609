"""Chord-length derivatives, the action, and its gradient field."""

import numpy as np
import pytest

from billiardflow import (
    chord_length,
    gradient_field,
    hessian,
    periodic_action,
    repeat_lift,
    second_partials,
    symmetric_birkhoff,
)
from billiardflow.lagrangian import _gradient_coords
from billiardflow.sequences import PeriodicLift
from oracles import force_minus, force_plus


def chord_angles(boundary, x, X):
    """Angles (theta, phi) of the chord with the tangents at x and at X."""
    zx, tx = boundary.jet(x, 1)
    zX, tX = boundary.jet(X, 1)
    d = zX - zx
    theta = np.arctan2(tx.real * d.imag - tx.imag * d.real,
                       tx.real * d.real + tx.imag * d.imag)
    phi = np.arctan2(d.real * tX.imag - d.imag * tX.real,
                     d.real * tX.real + d.imag * tX.imag)
    return theta, phi


def random_admissible_lift(rng, p, q, margin=0.1):
    """A (p, q)-lift with increments safely inside (0, 1)."""
    inc = rng.uniform(margin, 1.0 - margin, p)
    inc = inc / inc.sum() * q
    coords = np.concatenate(([rng.uniform(0, 0.3)], )) + np.r_[0.0, np.cumsum(inc[:-1])]
    return PeriodicLift(p, q, coords)


def test_chord_length_is_the_euclidean_distance(limacon4):
    x, X = 0.1, 0.35
    d = limacon4.jet(X, 0)[0] - limacon4.jet(x, 0)[0]
    expected = float(np.linalg.norm([d.real, d.imag]))
    assert chord_length(limacon4, x, X) == pytest.approx(expected, abs=1e-14)
    # vectorized call agrees with scalars
    xs = np.array([0.1, 0.2]); Xs = np.array([0.35, 0.8])
    pair = chord_length(limacon4, xs, Xs)
    assert pair[0] == pytest.approx(expected, abs=1e-14)


def test_chord_partials_match_finite_differences(limacon4_cs):
    h = 1e-7
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0, 1)
        X = x + rng.uniform(0.05, 0.95)
        fd1 = (chord_length(limacon4_cs, x + h, X)
               - chord_length(limacon4_cs, x - h, X)) / (2 * h)
        fd2 = (chord_length(limacon4_cs, x, X + h)
               - chord_length(limacon4_cs, x, X - h)) / (2 * h)
        assert force_plus(limacon4_cs, x, X) == pytest.approx(fd1, abs=2e-7)
        assert force_minus(limacon4_cs, x, X) == pytest.approx(fd2, abs=2e-7)


def test_chord_partials_in_terms_of_angles(limacon4_cs):
    # the first partials are (-cos incoming, +cos outgoing) scaled by speed;
    # cross-check through the chord angles
    c = limacon4_cs.speed
    x, X = 0.12, 0.55
    theta, phi = chord_angles(limacon4_cs, x, X)
    assert force_plus(limacon4_cs, x, X) == pytest.approx(-c * np.cos(theta),
                                                          rel=1e-12)
    assert force_minus(limacon4_cs, x, X) == pytest.approx(c * np.cos(phi),
                                                           rel=1e-12)


def test_chord_angles_lie_in_the_open_interval(limacon4_cs):
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 40)
    X = x + rng.uniform(0.02, 0.98, 40)
    theta, phi = chord_angles(limacon4_cs, x, X)
    assert np.all(theta > 0) and np.all(theta < np.pi)
    assert np.all(phi > 0) and np.all(phi < np.pi)


def test_second_partials_match_finite_differences(limacon4_cs):
    h = 1e-5
    b = limacon4_cs
    for (x, X) in ((0.05, 0.4), (0.3, 0.62), (0.8, 1.45)):
        sp = second_partials(b, x, X)
        fd11 = (force_plus(b, x + h, X) - force_plus(b, x - h, X)) / (2 * h)
        fd12 = (force_plus(b, x, X + h) - force_plus(b, x, X - h)) / (2 * h)
        fd22 = (force_minus(b, x, X + h) - force_minus(b, x, X - h)) / (2 * h)
        assert sp.d11 == pytest.approx(fd11, rel=1e-5, abs=1e-5)
        assert sp.d12 == pytest.approx(fd12, rel=1e-5, abs=1e-5)
        assert sp.d22 == pytest.approx(fd22, rel=1e-5, abs=1e-5)


def test_mixed_partial_is_positive(limacon4_cs):
    # strict convexity + admissible increments make the cross term positive
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 50)
    X = x + rng.uniform(0.03, 0.97, 50)
    assert np.all(second_partials(limacon4_cs, x, X).d12 > 0)


def test_periodic_action_is_the_polygon_perimeter(limacon4_cs):
    rng = np.random.default_rng(7)
    lift = random_admissible_lift(rng, 12, 3)
    z = limacon4_cs.jet(np.r_[lift.coords, lift.coords[0] + lift.q], 0)[0]
    chords = np.diff(z)
    expected = float(np.sum(np.linalg.norm([chords.real, chords.imag], axis=0)))
    assert periodic_action(limacon4_cs, lift) == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_the_two_route_assembly(limacon4_cs, limacon4, ellipse21):
    rng = np.random.default_rng(9)
    lift = random_admissible_lift(rng, 10, 3)
    x = lift.coords
    prev = np.r_[x[-1] - lift.q, x[:-1]]
    nxt = np.r_[x[1:], x[0] + lift.q]
    # the series table and two analytic (non-series) boundaries
    for boundary in (limacon4_cs, limacon4, ellipse21):
        two_route = (force_minus(boundary, prev, x)
                     + force_plus(boundary, x, nxt))
        assert np.allclose(gradient_field(boundary, lift), two_route, atol=1e-13)


@pytest.mark.parametrize("table", ["limacon4", "limacon4_cs", "circle4", "ellipse21",
                                   "ellipse21_cs"])
def test_kernel_returns_the_gradient_and_the_action_bit_for_bit(table, request):
    # the kernel's action comes from its order-1 jet and its own chords;
    # periodic_action takes an order-0 jet and np.diff: the two agree exactly
    boundary = request.getfixturevalue(table)
    rng = np.random.default_rng(5)
    for p, q in ((4, 1), (12, 3), (29, 11)):
        inc = rng.uniform(0.05, 0.95, p)
        inc *= q / inc.sum()
        lift = PeriodicLift(p, q, rng.uniform(-2, 2) + np.r_[0.0, np.cumsum(inc[:-1])])
        grad, action = _gradient_coords(boundary, lift.coords, q)
        assert action == periodic_action(boundary, lift)
        assert np.array_equal(grad, gradient_field(boundary, lift))


def test_periodic_action_of_a_long_lift_sums_the_chords(limacon4_cs):
    # p = 192 vertices winding q = 48 times: the last chord ends at x_0 + q
    rng = np.random.default_rng(17)
    lift = random_admissible_lift(rng, 192, 48)
    x = lift.coords
    nxt = np.r_[x[1:], x[0] + lift.q]
    expected = float(np.sum(chord_length(limacon4_cs, x, nxt)))
    assert periodic_action(limacon4_cs, lift) == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_finite_difference_of_action(limacon4_cs):
    rng = np.random.default_rng(13)
    lift = random_admissible_lift(rng, 8, 2)
    h = 1e-7
    grad = gradient_field(limacon4_cs, lift)
    for i in range(lift.p):
        up = lift.coords.copy(); up[i] += h
        dn = lift.coords.copy(); dn[i] -= h
        fd = (periodic_action(limacon4_cs, lift.with_coords(up))
              - periodic_action(limacon4_cs, lift.with_coords(dn))) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=5e-7)


def test_gradient_vanishes_at_symmetric_birkhoff(limacon4_cs, circle4):
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    for b in (limacon4_cs, circle4):
        assert np.max(np.abs(gradient_field(b, ref))) < 1e-12
    # both branches are stationary
    other = repeat_lift(symmetric_birkhoff(4, 1, branch=0), 3)
    assert np.max(np.abs(gradient_field(limacon4_cs, other))) < 1e-12


def test_gradient_rejects_inadmissible_lifts(limacon4_cs):
    bad = PeriodicLift(4, 1, np.array([0.0, 0.5, 0.4, 0.8]))  # decreasing step
    with pytest.raises(ValueError, match="admissible"):
        gradient_field(limacon4_cs, bad)
    too_wide = PeriodicLift(3, 2, np.array([0.0, 1.05, 1.5]))  # increment > 1
    with pytest.raises(ValueError, match="admissible"):
        gradient_field(limacon4_cs, too_wide)
    # a NaN increment is outside (0, 1) too, also for the Hessian's own check
    lost = PeriodicLift(3, 1, np.array([0.0, np.nan, 0.6]))
    with pytest.raises(ValueError, match="admissible region at increment 0"):
        gradient_field(limacon4_cs, lost)
    with pytest.raises(ValueError, match="admissible"):
        hessian(limacon4_cs, lost)


def test_inadmissible_lift_message_names_the_increment(limacon4_cs):
    bad = PeriodicLift(4, 1, np.array([0.0, 0.5, 0.4, 0.8]))
    with pytest.raises(ValueError) as info:
        gradient_field(limacon4_cs, bad)
    assert str(info.value) == ("lift leaves the admissible region at increment 1: "
                               "x[2] - x[1] = -0.1")
    # the wrapped increment x_0 + q - x_{p-1}
    wrap = PeriodicLift(3, 1, np.array([0.0, 0.2, 0.4]))
    with pytest.raises(ValueError) as info:
        gradient_field(limacon4_cs, wrap.with_coords(np.array([0.5, 0.7, 1.6])))
    assert str(info.value) == ("lift leaves the admissible region at increment 2: "
                               "x[0] - x[2] = -0.1")


def test_second_partials_require_constant_speed(limacon4):
    with pytest.raises(ValueError, match="constant"):
        second_partials(limacon4, 0.1, 0.4)
