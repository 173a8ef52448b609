"""Strictly convex boundary curves: construction, curvature, reparametrization.

A boundary is a closed strictly convex C^2 curve traced counterclockwise by a
1-periodic map ``gamma : R -> R^2``.  Curves are supplied analytically as
vectorized closures (``gamma``, ``dgamma``, ``ddgamma``) so derivatives are
exact; every map accepts a scalar or an ndarray of parameters and returns an
array whose last axis has length 2.

The dihedral symmetry convention: a curve has n-fold symmetry when rotating by
2*pi/n advances the parameter by 1/n and reflecting across the horizontal axis
reverses it, i.e. ``R @ gamma(x) == gamma(x + 1/n)`` and
``S @ gamma(x) == gamma(-x)`` with R the rotation and S = diag(1, -1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

#: default residual tolerance for geometric identities (periodicity, symmetry)
GEOMETRIC_TOL = 1e-10
#: default relative tolerance for the constant-speed property after resampling
SPEED_TOL = 1e-8
#: arc-length table resolution per unit of parameter
KNOTS_PER_UNIT = 4096
#: periodic trapezoid rule for the circumference: first node count, the node
#: count past which it stops doubling, and the relative agreement it stops at
ARC_NODES_START = 64
ARC_NODES_CAP = 1 << 16
ARC_RTOL = 1e-14
#: grid points per bracket when refining the convexity minimum; each pass keeps
#: two of the 64 cells, and passes stop once the bracket is narrower than XTOL
MARGIN_GRID = 65
MARGIN_XTOL = 1e-12

CurveMap = Callable[[np.ndarray], np.ndarray]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class Boundary:
    """A closed convex curve with exact first and second derivatives.

    Attributes
    ----------
    gamma, dgamma, ddgamma : callable
        The curve and its first two derivatives, all vectorized and
        1-periodic: ``gamma(x + 1) == gamma(x)``.
    symmetry_order : int
        The n of the dihedral symmetry the curve is built with (1 if none).
    constant_speed : bool
        True when ``|dgamma|`` is constant (equal to ``total_length``).
    total_length : float
        Circumference of the curve.
    period : float
        Parameter period; always 1 for the provided families.
    """

    gamma: CurveMap
    dgamma: CurveMap
    ddgamma: CurveMap
    symmetry_order: int
    constant_speed: bool
    total_length: float
    period: float = 1.0


@dataclass(frozen=True)
class CurvePoint:
    """Pointwise curve data at parameter ``x``."""

    x: float
    position: np.ndarray
    tangent: np.ndarray
    curvature: float


def _speed(dgamma: CurveMap, x: np.ndarray) -> np.ndarray:
    d = dgamma(x)
    return np.sqrt(np.sum(d * d, axis=-1))


def _arc_length(dgamma: CurveMap) -> float:
    """Circumference by the periodic trapezoid rule.

    The speed is periodic and analytic, so the rule converges exponentially
    (Trefethen & Weideman, SIAM Review 56(3), 2014).  The node count doubles,
    reusing the previous nodes, until two estimates agree to ``ARC_RTOL``.
    """
    nodes = ARC_NODES_START
    total = float(_speed(dgamma, np.arange(nodes) / nodes).sum())
    estimate = total / nodes
    while nodes < ARC_NODES_CAP:
        total += float(_speed(dgamma, (np.arange(nodes) + 0.5) / nodes).sum())
        nodes *= 2
        previous, estimate = estimate, total / nodes
        change = abs(estimate - previous)
        if change <= ARC_RTOL * estimate:
            return estimate
    log.warning("arc-length quadrature error estimate %.3e", change)
    return estimate


def make_limacon(n: int, alpha: float) -> Boundary:
    """Polar-graph curve r(x) = 1 + alpha*cos(2*pi*n*x) over the unit circle.

    Has exact n-fold dihedral symmetry.  Strictly convex iff
    ``|alpha| <= limacon_convexity_threshold(n)`` (the constructor does not
    enforce convexity; use :func:`convexity_margin`).

    Raises
    ------
    ValueError
        If ``n < 2`` or ``|alpha| >= 1`` (the curve would not be simple).
    """
    if n < 2:
        raise ValueError(f"symmetry order n={n} must be >= 2")
    if abs(alpha) >= 1:
        raise ValueError(f"|alpha| = {abs(alpha)} >= 1 does not give a simple curve")
    tau = 2.0 * math.pi
    a = float(alpha)

    def gamma(x):
        x = np.asarray(x, dtype=float)
        r = 1.0 + a * np.cos(tau * n * x)
        return np.stack((r * np.cos(tau * x), r * np.sin(tau * x)), axis=-1)

    def dgamma(x):
        x = np.asarray(x, dtype=float)
        c, s = np.cos(tau * x), np.sin(tau * x)
        r = 1.0 + a * np.cos(tau * n * x)
        dr = -tau * n * a * np.sin(tau * n * x)
        return np.stack((dr * c - tau * r * s, dr * s + tau * r * c), axis=-1)

    def ddgamma(x):
        x = np.asarray(x, dtype=float)
        c, s = np.cos(tau * x), np.sin(tau * x)
        r = 1.0 + a * np.cos(tau * n * x)
        dr = -tau * n * a * np.sin(tau * n * x)
        ddr = -tau * tau * n * n * a * np.cos(tau * n * x)
        # radial / angular decomposition: gamma'' = (r'' - tau^2 r) u + 2 tau r' u_perp
        u_coef = ddr - tau * tau * r
        v_coef = 2.0 * tau * dr
        return np.stack((u_coef * c - v_coef * s, u_coef * s + v_coef * c), axis=-1)

    if a == 0.0:
        return Boundary(gamma, dgamma, ddgamma, symmetry_order=n,
                        constant_speed=True, total_length=tau)
    return Boundary(gamma, dgamma, ddgamma, symmetry_order=n,
                    constant_speed=False, total_length=_arc_length(dgamma))


def limacon_convexity_threshold(n: int) -> float:
    """Largest |alpha| for which ``make_limacon(n, alpha)`` stays convex."""
    if n < 2:
        raise ValueError(f"symmetry order n={n} must be >= 2")
    return 1.0 / (1.0 + n * n)


def make_ellipse(a: float, b: float) -> Boundary:
    """Axis-aligned ellipse (a*cos(2*pi*x), b*sin(2*pi*x)); 2-fold symmetric."""
    if a <= 0 or b <= 0:
        raise ValueError("ellipse semi-axes must be positive")
    tau = 2.0 * math.pi
    a, b = float(a), float(b)

    def gamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((a * np.cos(tau * x), b * np.sin(tau * x)), axis=-1)

    def dgamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((-tau * a * np.sin(tau * x), tau * b * np.cos(tau * x)), axis=-1)

    def ddgamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((-tau * tau * a * np.cos(tau * x),
                         -tau * tau * b * np.sin(tau * x)), axis=-1)

    if a == b:
        return Boundary(gamma, dgamma, ddgamma, symmetry_order=2,
                        constant_speed=True, total_length=tau * a)
    return Boundary(gamma, dgamma, ddgamma, symmetry_order=2,
                    constant_speed=False, total_length=_arc_length(dgamma))


def make_circle(radius: float = 1.0, symmetry_order: int = 2) -> Boundary:
    """Circle of the given radius.

    A circle is equivariant under every dihedral group; ``symmetry_order``
    records the n the caller intends to work with.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    tau = 2.0 * math.pi
    r = float(radius)

    def gamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((r * np.cos(tau * x), r * np.sin(tau * x)), axis=-1)

    def dgamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((-tau * r * np.sin(tau * x), tau * r * np.cos(tau * x)), axis=-1)

    def ddgamma(x):
        x = np.asarray(x, dtype=float)
        return np.stack((-tau * tau * r * np.cos(tau * x),
                         -tau * tau * r * np.sin(tau * x)), axis=-1)

    return Boundary(gamma, dgamma, ddgamma, symmetry_order=int(symmetry_order),
                    constant_speed=True, total_length=tau * r)


def make_boundary(descriptor: dict) -> Boundary:
    """Build a boundary from a plain descriptor, e.g. from a config file.

    Recognized families::

        {"family": "limacon", "n": 4, "alpha": 0.05}
        {"family": "ellipse", "a": 2.0, "b": 1.0}
        {"family": "circle", "radius": 1.0, "n": 4}
    """
    family = str(descriptor.get("family", "")).lower()
    if family == "limacon":
        return make_limacon(int(descriptor["n"]), float(descriptor["alpha"]))
    if family == "ellipse":
        return make_ellipse(float(descriptor["a"]), float(descriptor["b"]))
    if family == "circle":
        order = int(descriptor.get("n", descriptor.get("symmetry_order", 2)))
        return make_circle(float(descriptor.get("radius", 1.0)), order)
    raise ValueError(f"unknown boundary family {family!r}")


def scaled(boundary: Boundary, factor: float) -> Boundary:
    """The same curve magnified by ``factor`` (used for scale-invariance checks)."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    g, dg, ddg = boundary.gamma, boundary.dgamma, boundary.ddgamma
    f = float(factor)
    return replace(
        boundary,
        gamma=lambda x: f * g(x),
        dgamma=lambda x: f * dg(x),
        ddgamma=lambda x: f * ddg(x),
        total_length=f * boundary.total_length,
    )


def orientation_det(boundary: Boundary, x) -> np.ndarray:
    """det(gamma'(x), gamma''(x)); positive everywhere iff strictly convex."""
    d1 = boundary.dgamma(x)
    d2 = boundary.ddgamma(x)
    return d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]


def curvature_at(boundary: Boundary, x) -> np.ndarray:
    """Unsigned curvature |det(gamma', gamma'')| / |gamma'|^3.

    Raises
    ------
    ValueError
        If the tangent degenerates (|gamma'| ~ 0) at any requested point.
    """
    d1 = boundary.dgamma(x)
    d2 = boundary.ddgamma(x)
    speed_sq = np.sum(d1 * d1, axis=-1)
    if np.any(speed_sq <= 1e-24):
        raise ValueError("degenerate tangent: |gamma'(x)| vanishes")
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    return np.abs(det) / speed_sq ** 1.5


def point_at(boundary: Boundary, x: float) -> CurvePoint:
    """Bundle position, tangent and curvature at one parameter value."""
    return CurvePoint(
        x=float(x),
        position=boundary.gamma(x),
        tangent=boundary.dgamma(x),
        curvature=float(curvature_at(boundary, x)),
    )


def convexity_margin(boundary: Boundary, samples: int | None = None) -> float:
    """Minimum of det(gamma', gamma'') over the curve.

    Positive iff the curve is strictly convex.  Samples the determinant on a
    uniform grid, then shrinks a bracket around the best sample: each pass
    evaluates the determinant on ``MARGIN_GRID`` points across the bracket and
    keeps the two cells beside the smallest value, until the bracket is
    narrower than ``MARGIN_XTOL``.  A flat determinant (a circle) needs no
    strict bracket: the passes still shrink and every value is the minimum.

    Parameters
    ----------
    samples : int, optional
        Grid size; must be at least ``12 * symmetry_order`` so the grid
        resolves the symmetric oscillation of the determinant.
    """
    n = max(1, boundary.symmetry_order)
    if samples is None:
        samples = max(1024, 24 * n)
    samples = int(samples)
    if samples < 12 * n:
        raise ValueError(f"samples={samples} must be >= {12 * n} (12 per symmetry sector)")
    xs = np.arange(samples) / samples
    det = orientation_det(boundary, xs)
    j = int(np.argmin(det))
    best = float(det[j])
    lo, hi = xs[j] - 1.0 / samples, xs[j] + 1.0 / samples
    while hi - lo > MARGIN_XTOL:
        grid = np.linspace(lo, hi, MARGIN_GRID)
        vals = orientation_det(boundary, grid)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        i = min(max(i, 1), MARGIN_GRID - 2)
        lo, hi = grid[i - 1], grid[i + 1]
    return best


def check_equivariance(boundary: Boundary, n: int, samples: int = 128,
                       tol: float = GEOMETRIC_TOL) -> bool:
    """Verify the two dihedral identities at sampled parameters.

    Checks ``R @ gamma(x) == gamma(x + 1/n)`` (R = rotation by 2*pi/n) and
    ``S @ gamma(x) == gamma(-x)`` (S = diag(1, -1)) within ``tol``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = (np.arange(samples) + 0.382) / samples
    pts = boundary.gamma(xs)
    ang = 2.0 * math.pi / n
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    rotated = pts @ rot.T
    shifted = boundary.gamma(xs + 1.0 / n)
    if np.max(np.abs(rotated - shifted)) > tol:
        return False
    mirrored = pts * np.array([1.0, -1.0])
    reversed_ = boundary.gamma(-xs)
    return bool(np.max(np.abs(mirrored - reversed_)) <= tol)


def reparametrize_constant_speed(boundary: Boundary, tol: float = SPEED_TOL) -> Boundary:
    """Resample a boundary so that ``|dgamma|`` is constant.

    Builds the normalized arc-length map on a fine knot table (panel-wise
    Gauss-Legendre quadrature), inverts it by three Newton steps from the
    piecewise-linear inverse of the knot table, and returns a new
    :class:`Boundary` whose derivative closures use the exact chain rule.  The construction commutes with the
    dihedral symmetries, so equivariance carries over.

    Raises
    ------
    RuntimeError
        If the inversion residual exceeds ``tol`` (reported with the achieved
        tolerance).
    """
    if boundary.constant_speed:
        return boundary

    # cheap probe: the caller may not have flagged an already-uniform curve
    probe = _speed(boundary.dgamma, (np.arange(64) + 0.5) / 64)
    mean_speed = float(probe.mean())
    if np.max(np.abs(probe - mean_speed)) <= 1e-12 * mean_speed:
        return replace(boundary, constant_speed=True, total_length=mean_speed)

    n = max(1, boundary.symmetry_order)
    cell = 2 * n
    knots = int(math.ceil(KNOTS_PER_UNIT / cell) * cell)
    edges = np.arange(knots + 1) / knots
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / knots
    panel_pts = mid[:, None] + half * _GAUSS_NODES[None, :]
    panel_speed = _speed(boundary.dgamma, panel_pts.ravel()).reshape(knots, -1)
    panel_integral = half * (panel_speed @ _GAUSS_WEIGHTS)
    total = float(panel_integral.sum())
    s_knots = np.concatenate(([0.0], np.cumsum(panel_integral))) / total
    s_knots[-1] = 1.0

    def arc_fraction(x: np.ndarray) -> np.ndarray:
        """Normalized arc length of [0, x] for x in [0, 1], machine precision."""
        x = np.asarray(x, dtype=float)
        j = np.clip((x * knots).astype(int), 0, knots - 1)
        a = edges[j]
        halfw = 0.5 * (x - a)
        midp = 0.5 * (x + a)
        pts = midp[..., None] + halfw[..., None] * _GAUSS_NODES
        sp = _speed(boundary.dgamma, pts.reshape(-1)).reshape(pts.shape)
        part = halfw * (sp @ _GAUSS_WEIGHTS)
        return s_knots[j] + part / total

    def inverse(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        k = np.floor(t)
        frac = t - k
        x = np.interp(frac, s_knots, edges)
        for _ in range(3):
            x = x - (arc_fraction(x) - frac) * total / _speed(boundary.dgamma, x)
            x = np.clip(x, 0.0, 1.0)
        out = x + k
        return out[0] if scalar else out

    # dense inverse table: cubic Hermite with exact node derivatives keeps the
    # per-evaluation cost flat (no Newton in the hot path).  The node count is
    # a multiple of 2n, so the symmetry fixed points j/(2n) are exact nodes.
    x_nodes = inverse(edges)
    x_nodes[0], x_nodes[-1] = 0.0, 1.0
    dx_nodes = total / _speed(boundary.dgamma, x_nodes)

    def inverse_fast(t):
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        frac = t - k
        j = np.clip((frac * knots).astype(int), 0, knots - 1)
        u = frac * knots - j
        u2 = u * u
        um2 = (1.0 - u) * (1.0 - u)
        x = ((1.0 + 2.0 * u) * um2 * x_nodes[j]
             + u * um2 * (dx_nodes[j] / knots)
             + u2 * (3.0 - 2.0 * u) * x_nodes[j + 1]
             + u2 * (u - 1.0) * (dx_nodes[j + 1] / knots))
        return x + k

    # achieved inversion tolerance, measured off the table nodes where the
    # interpolation error peaks
    t_check = (np.arange(512) + 0.382) / 512
    achieved = float(np.max(np.abs(arc_fraction(inverse_fast(t_check)) - t_check)))
    if achieved > tol:
        raise RuntimeError(
            f"arc-length inversion achieved residual {achieved:.3e} > tol {tol:.3e}")

    g, dg, ddg = boundary.gamma, boundary.dgamma, boundary.ddgamma

    def gamma_new(y):
        return g(inverse_fast(y))

    def dgamma_new(y):
        x = inverse_fast(y)
        d1 = dg(x)
        v = np.sqrt(np.sum(d1 * d1, axis=-1, keepdims=True))
        return d1 * (total / v)

    def ddgamma_new(y):
        x = inverse_fast(y)
        d1 = dg(x)
        d2 = ddg(x)
        v_sq = np.sum(d1 * d1, axis=-1, keepdims=True)
        v = np.sqrt(v_sq)
        xp = total / v                                  # dx/dy
        dv = np.sum(d1 * d2, axis=-1, keepdims=True) / v  # d|gamma'|/dx
        xpp = -total * total * dv / (v_sq * v)          # d2x/dy2
        return d2 * xp * xp + d1 * xpp

    out = Boundary(gamma_new, dgamma_new, ddgamma_new,
                   symmetry_order=boundary.symmetry_order,
                   constant_speed=True, total_length=total)
    if boundary.symmetry_order > 1 and not check_equivariance(
            out, boundary.symmetry_order, tol=max(10 * tol, 1e-9)):
        log.warning("equivariance degraded past %.1e after reparametrization", max(10 * tol, 1e-9))
    return out
