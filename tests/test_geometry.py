"""Boundary construction, curvature, symmetry checks, reparametrization."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardflow import (
    check_equivariance,
    chord_length,
    convexity_margin,
    curvature_at,
    make_boundary,
    make_circle,
    make_ellipse,
    hessian,
    make_limacon,
    reparametrize_constant_speed,
)
from billiardflow import geometry
from billiardflow.geometry import orientation_det
from billiardflow.sequences import PeriodicLift
from oracles import trapezoid


def curve(boundary, x, order=0):
    """gamma^(order)(x) from the boundary's jet."""
    return boundary.jet(x, order)[order]


def xy(z):
    """Jet values as points (x, y), the components a tolerance applies to."""
    return np.stack((z.real, z.imag), axis=-1)


def fd_curvature(boundary, x, h=1e-4):
    """Independent curvature oracle: central differences of gamma."""
    g = partial(curve, boundary)
    d1 = (g(x + h) - g(x - h)) / (2 * h)
    d2 = (g(x + h) - 2 * g(x) + g(x - h)) / (h * h)
    cross = d1.real * d2.imag - d1.imag * d2.real
    return cross / (d1.real * d1.real + d1.imag * d1.imag) ** 1.5


def quad_length(boundary, samples=200_000):
    """Independent arc-length oracle: trapezoid rule on the speed."""
    x = np.linspace(0.0, 1.0, samples + 1)
    return trapezoid(np.abs(curve(boundary, x, 1)), x)


def test_convexity_threshold_closed_form():
    # at |alpha| = 1/(1+n^2) the minimum of det(gamma', gamma'') is zero
    for n in range(2, 10):
        for a in (1.0 / (1 + n * n), -1.0 / (1 + n * n)):
            assert abs(convexity_margin(make_limacon(n, a))) <= 1e-12 * (2 * np.pi) ** 3


def test_limacon_convex_below_threshold_concave_above():
    for n in (2, 3, 4, 5):
        star = 1.0 / (1 + n * n)
        assert convexity_margin(make_limacon(n, 0.8 * star)) > 0
        assert convexity_margin(make_limacon(n, 1.2 * star)) < 0


def test_limacon_margin_matches_closed_form():
    # the minimum of det(gamma', gamma'') sits at x = 1/(2n), where
    # r = 1 - a, r' = 0 and r'' = tau^2 n^2 a
    tau = 2 * np.pi
    for n in range(2, 10):
        star = 1.0 / (1 + n * n)
        for frac in (0.1, 0.5, 0.9, 0.99, 1.2):
            a = frac * star
            exact = tau ** 3 * (1 - a) * (1 - a * (1 + n * n))
            assert convexity_margin(make_limacon(n, a)) == pytest.approx(
                exact, rel=1e-12)


def test_circle_margin_is_the_flat_determinant():
    # det(gamma', gamma'') is constant on a circle: no strict minimum to bracket
    tau = 2 * np.pi
    for r in (0.5, 1.0, 2.5):
        assert convexity_margin(make_circle(r, 4)) == pytest.approx(
            tau ** 3 * r * r, rel=1e-12)


def test_circle_curvature_is_inverse_radius():
    for r in (0.5, 1.0, 2.5):
        b = make_circle(r)
        x = np.linspace(0, 1, 17)
        assert np.allclose(curvature_at(b, x), 1.0 / r, atol=1e-12)


def test_curvature_matches_finite_differences(limacon4, ellipse21):
    x = np.linspace(0.013, 0.987, 29)
    for b in (limacon4, ellipse21):
        # the FD oracle itself carries ~3e-6 relative error at this h
        assert np.allclose(curvature_at(b, x), fd_curvature(b, x),
                           rtol=1e-5, atol=1e-6)


def test_boundary_closes_up(limacon4, ellipse21):
    for b in (limacon4, ellipse21):
        assert np.allclose(xy(curve(b, 0.0)), xy(curve(b, 1.0)), atol=1e-12)
        assert np.allclose(xy(curve(b, 0.25, 1)), xy(curve(b, 1.25, 1)), atol=1e-12)


def test_equivariance_of_builtin_families(limacon4, ellipse21, circle4):
    assert check_equivariance(limacon4, 4)
    assert check_equivariance(ellipse21, 2)
    assert check_equivariance(circle4, 4)
    # an ellipse has no order-4 dihedral symmetry
    assert not check_equivariance(ellipse21, 4)


def test_equivariance_does_not_depend_on_the_tables_size():
    # the tolerance scales with the sampled curve: a large symmetric table
    # passes, and a tiny ellipse still lacks the order-4 symmetry
    assert check_equivariance(make_circle(1e6, 4), 4)
    assert check_equivariance(make_ellipse(2e6, 1e6), 2)
    assert not check_equivariance(make_ellipse(2e6, 1e6), 4)
    assert check_equivariance(make_ellipse(2e-11, 1e-11), 2)
    assert not check_equivariance(make_ellipse(2e-11, 1e-11), 4)


@settings(deadline=None, max_examples=25)
@given(n=st.integers(min_value=2, max_value=8),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_limacon_equivariance_property(n, frac):
    b = make_limacon(n, frac / (1 + n * n))
    assert check_equivariance(b, n)


def test_make_boundary_descriptor_round_trip():
    b = make_boundary({"family": "limacon", "n": 4, "alpha": 0.05})
    ref = make_limacon(4, 0.05)
    x = np.linspace(0, 1, 11)
    assert np.allclose(xy(curve(b, x)), xy(curve(ref, x)))
    e = make_boundary({"family": "ellipse", "a": 2.0, "b": 1.0})
    assert np.allclose(xy(curve(e, 0.25)), xy(curve(make_ellipse(2, 1), 0.25)))
    c = make_boundary({"family": "circle", "radius": 2.0})
    assert np.allclose(abs(curve(c, 0.37)), 2.0)
    with pytest.raises(ValueError):
        make_boundary({"family": "hyperbola"})


@pytest.mark.parametrize("descriptor", [
    {"family": "limacon", "n": 4.7, "alpha": 0.05},
    {"family": "circle", "radius": 1.0, "n": 4.5},
], ids=["limacon", "circle"])
def test_make_boundary_rejects_a_fractional_order(descriptor):
    # int() would quietly build the 4-fold table from either
    family = descriptor["family"]
    with pytest.raises(ValueError, match=f"{family} table order n = {descriptor['n']}"):
        make_boundary(descriptor)
    assert make_boundary({**descriptor, "n": 4.0}).symmetry_order == 4


@pytest.mark.parametrize("descriptor, key", [
    ({"family": "ellipse", "a": 1.3, "b": 1.0, "alpha": 0.2}, "alpha"),
    ({"family": "circle", "radius": 1.0, "alpha": 0.1}, "alpha"),
    ({"family": "limacon", "n": 4, "alpha": 0.05, "radius": 2.0}, "radius"),
], ids=["ellipse-alpha", "circle-alpha", "limacon-radius"])
def test_make_boundary_rejects_a_key_its_family_does_not_read(descriptor, key):
    family = descriptor["family"]
    with pytest.raises(ValueError, match=f"{family} table does not read the key '{key}'"):
        make_boundary(descriptor)


def test_speed_matches_quadrature_oracle(limacon4):
    cs = reparametrize_constant_speed(limacon4)
    assert cs.speed == pytest.approx(quad_length(limacon4), rel=1e-10)


# frozen: the constant speed (= circumference) of the constant-speed limacon,
# cross-checked against the trapezoid oracle above at build time
LIMACON4_LENGTH = 6.345591781726427


def test_limacon4_speed_frozen_value(limacon4_cs):
    assert limacon4_cs.speed == pytest.approx(LIMACON4_LENGTH, abs=1e-12)


def test_raw_table_lengths_match_frozen_values(limacon4, ellipse21, limacon4_cs,
                                               ellipse21_cs):
    # raw tables have no constant speed; their constant-speed tables take the
    # circumference from the speed's series; the ellipse value is the complete
    # elliptic integral 8 E(3/4) for semi-axes (2, 1)
    assert limacon4.speed is None and ellipse21.speed is None
    assert limacon4_cs.speed == pytest.approx(LIMACON4_LENGTH, abs=1e-12)
    assert ellipse21_cs.speed == pytest.approx(9.688448220547675, abs=1e-12)


def test_reparametrization_has_constant_speed(limacon4_cs, limacon2_19_cs):
    t = np.linspace(0.0, 1.0, 257)
    for cs in (limacon4_cs, limacon2_19_cs):
        speed = np.abs(curve(cs, t, 1))
        assert np.max(np.abs(speed - cs.speed)) < 1e-8 * cs.speed


def test_reparametrization_traces_the_same_curve(limacon4, limacon4_cs):
    # same point set: every reparametrized point lies on the original curve
    t = np.linspace(0.0, 1.0, 64, endpoint=False)
    z = curve(limacon4_cs, t)
    # invert through polar angle: the limacon is radial, r(theta) known
    theta = np.angle(z)
    r = np.abs(z)
    expected = 1.0 + 0.05 * np.cos(4 * theta)
    assert np.allclose(r, expected, atol=1e-9)


def test_reparametrization_fixes_symmetry_points(limacon4, limacon4_cs):
    # the 2n special points are fixed, so both parametrizations agree there
    j = np.arange(8)
    assert np.allclose(xy(curve(limacon4_cs, j / 8.0)), xy(curve(limacon4, j / 8.0)),
                       atol=1e-12)


def test_reparametrized_derivatives_chain_rule(limacon4_cs):
    # tangent from finite differences of the reparametrized curve itself
    h = 1e-6
    t = np.linspace(0.07, 0.93, 13)
    g = partial(curve, limacon4_cs)
    fd1 = (g(t + h) - g(t - h)) / (2 * h)
    assert np.allclose(xy(curve(limacon4_cs, t, 1)), xy(fd1), rtol=1e-7, atol=1e-6)
    fd2 = (g(t + h) - 2 * g(t) + g(t - h)) / (h * h)
    assert np.allclose(xy(curve(limacon4_cs, t, 2)), xy(fd2), rtol=1e-4, atol=1e-2)


def test_reparametrization_preserves_equivariance(limacon4_cs):
    assert check_equivariance(limacon4_cs, 4)


def test_reparametrization_preserves_curvature_function(limacon4, limacon4_cs):
    # curvature is geometric: at the same boundary POINT both agree; compare
    # at the fixed points where the parameters coincide
    j = np.arange(8) / 8.0
    assert np.allclose(curvature_at(limacon4_cs, j), curvature_at(limacon4, j),
                       rtol=1e-9)


@pytest.fixture(scope="module")
def raw_tables():
    """Limacons n = 2..9 at 0.9x their convexity threshold and the 2:1 and
    5:1 ellipses, as constructed."""
    raw = [make_limacon(n, 0.9 / (1 + n * n)) for n in range(2, 10)]
    return raw + [make_ellipse(2.0, 1.0), make_ellipse(5.0, 1.0)]


@pytest.fixture(scope="module")
def series_tables(raw_tables):
    """The constant-speed series of the raw tables, with their symmetry orders."""
    return [(b.symmetry_order, reparametrize_constant_speed(b)) for b in raw_tables]


def test_series_is_equivariant_to_roundoff(series_tables, monkeypatch):
    # to 1e-13, a thousand times inside the tolerance the check uses
    monkeypatch.setattr(geometry, "GEOMETRIC_TOL", 1e-13)
    for n, cs in series_tables:
        assert check_equivariance(cs, n)


def test_series_speed_is_constant_to_roundoff(series_tables):
    t = np.linspace(0.0, 1.0, 1001)
    for _, cs in series_tables:
        speed = np.abs(curve(cs, t, 1))
        assert np.max(np.abs(speed - cs.speed)) <= 1e-12 * cs.speed


def test_series_jet_is_the_curve_and_its_tangent(raw_tables, series_tables):
    # a jet of order m gives gamma, ..., gamma^(m) as complex numbers; each
    # entry agrees with the last entry of the jet of its own order, on the
    # analytic families and on the series, also on lifts far from [0, 1)
    x = np.r_[np.linspace(-3.0, 50.0, 1001), 49.75, 50.0]
    for b in raw_tables + [cs for _, cs in series_tables]:
        views = [curve(b, x, i) for i in range(3)]
        for order in range(3):
            jet = b.jet(x, order)
            assert len(jet) == order + 1
            for z, ref in zip(jet, views):
                assert z.shape == x.shape
                tol = 1e-15 * np.max(np.abs(xy(ref)))
                assert np.max(np.abs(z - ref)) <= tol
        point = b.jet(0.3, 2)
        for z, ref in zip(point, [curve(b, 0.3, i) for i in range(3)], strict=True):
            assert np.shape(z) == ()
            assert abs(z - ref) <= 1e-15 * np.max(np.abs(xy(ref)))


def test_each_query_evaluates_the_jet_once_per_endpoint(limacon4_cs):
    calls = []

    def spy(x, order):
        calls.append(order)
        return limacon4_cs.jet(x, order)

    b = replace(limacon4_cs, jet=spy)
    x = np.linspace(0.05, 0.95, 9)
    X = x + 0.3
    queries = {
        "orientation_det": (lambda: orientation_det(b, x), [2]),
        "curvature_at": (lambda: curvature_at(b, x), [2]),
        "hessian": (lambda: hessian(b, PeriodicLift(9, 1, x)), [2]),
        "chord_length": (lambda: chord_length(b, x, X), [0, 0]),
    }
    for name, (query, orders) in queries.items():
        calls.clear()
        query()
        assert calls == orders, name


def test_series_second_derivative_matches_finite_differences(ellipse21_cs):
    # fourth-order central differences of gamma'
    h = 1e-4
    t = np.linspace(0.013, 0.987, 31)
    for cs in (ellipse21_cs, reparametrize_constant_speed(make_limacon(2, 0.195))):
        d1 = partial(curve, cs, order=1)
        fd = (8 * (d1(t + h) - d1(t - h)) - (d1(t + 2 * h) - d1(t - 2 * h))) / (12 * h)
        dd = curve(cs, t, 2)
        assert np.max(np.abs(xy(dd - fd))) <= 1e-9 * np.max(np.abs(xy(dd)))


def test_reparametrization_rejects_a_claimed_symmetry_the_table_lacks():
    # a 3-fold limacon claiming 6-fold symmetry: its series has modes off the
    # lattice k = 1 (mod 6)
    with pytest.raises(ValueError, match="order-6"):
        reparametrize_constant_speed(replace(make_limacon(3, 0.05), symmetry_order=6))


def test_convexity_margin_positive_cases(limacon4, ellipse21, circle4):
    assert convexity_margin(limacon4) > 0
    assert convexity_margin(ellipse21) > 0
    assert convexity_margin(circle4) > 0


def test_reparametrize_is_idempotent_on_circles(circle4):
    again = reparametrize_constant_speed(circle4)
    t = np.linspace(0, 1, 33)
    assert np.allclose(xy(curve(again, t)), xy(curve(circle4, t)), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_parameters(bad, caplog):
    builds = {
        "alpha": lambda: make_limacon(4, bad),
        "semi-axis a": lambda: make_ellipse(bad, 1.0),
        "semi-axis b": lambda: make_ellipse(2.0, bad),
        "radius": lambda: make_circle(bad, 4),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match=name):
            build()
    assert not caplog.records      # each constructor rejects without logging


@pytest.mark.parametrize("n, alpha, message", [
    (1, 0.01, "symmetry order n=1 must be >= 2"),
    (4, 1.0, r"\|alpha\| = 1.0 >= 1 does not give a simple curve"),
    (4, -1.5, r"\|alpha\| = 1.5 >= 1 does not give a simple curve"),
], ids=["n-one", "alpha-one", "alpha-below-minus-one"])
def test_make_limacon_rejects_a_table_that_is_no_simple_symmetric_curve(n, alpha, message):
    with pytest.raises(ValueError, match=message):
        make_limacon(n, alpha)


@pytest.mark.parametrize("n", [0, -2])
def test_check_equivariance_rejects_an_order_below_one(limacon4, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        check_equivariance(limacon4, n)
