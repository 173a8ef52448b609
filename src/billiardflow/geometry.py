"""Strictly convex boundary curves: construction, curvature, reparametrization.

A boundary is a closed strictly convex C^2 curve traced counterclockwise by a
1-periodic map ``gamma : R -> R^2``.  Curves are supplied analytically as
vectorized closures (``gamma``, ``dgamma``, ``ddgamma``) so derivatives are
exact; every map accepts a scalar or an ndarray of parameters and returns an
array whose last axis has length 2.  The ``jet`` map returns the position and
the tangent together, as complex numbers x + iy of the parameters' shape, from
one evaluation of the curve.

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
#: periodic trapezoid rule for the circumference: first node count, the node
#: count past which it stops doubling, and the relative agreement it stops at
ARC_NODES_START = 64
ARC_NODES_CAP = 1 << 16
ARC_RTOL = 1e-14
#: grid points per bracket when refining the convexity minimum; each pass keeps
#: two of the 64 cells, and passes stop once the bracket is narrower than XTOL
MARGIN_GRID = 65
MARGIN_XTOL = 1e-12
#: the constant-speed series: first node count, doubled while the top quarter
#: of the modes of the speed or of the curve is above SERIES_TOL relative to
#: the largest; modes below SERIES_TRIM relative to the largest are left out
SERIES_NODES_START = 256
SERIES_TOL = 1e-15
SERIES_TRIM = 1e-16
#: Newton inversion of the arc length: step limit, and the step size after
#: which the next correction is below roundoff
NEWTON_MAX_STEPS = 20
NEWTON_XTOL = 1e-10

CurveMap = Callable[[np.ndarray], np.ndarray]
JetMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Boundary:
    """A closed convex curve with exact first and second derivatives.

    Attributes
    ----------
    gamma, dgamma, ddgamma : callable
        The curve and its first two derivatives, all vectorized and
        1-periodic: ``gamma(x + 1) == gamma(x)``.
    jet : callable
        ``x -> (gamma(x), gamma'(x))`` as complex arrays of the shape of x,
        from one evaluation of the curve; the gradient kernel and the action
        use it.
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
    jet: JetMap
    symmetry_order: int
    constant_speed: bool
    total_length: float
    period: float = 1.0


def _jet(gamma: CurveMap, dgamma: CurveMap) -> JetMap:
    """The jet of a curve given by its point maps."""
    def jet(x):
        g, d = gamma(x), dgamma(x)
        return g[..., 0] + 1j * g[..., 1], d[..., 0] + 1j * d[..., 1]

    return jet


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

    jet = _jet(gamma, dgamma)
    if a == 0.0:
        return Boundary(gamma, dgamma, ddgamma, jet, symmetry_order=n,
                        constant_speed=True, total_length=tau)
    return Boundary(gamma, dgamma, ddgamma, jet, symmetry_order=n,
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

    jet = _jet(gamma, dgamma)
    if a == b:
        return Boundary(gamma, dgamma, ddgamma, jet, symmetry_order=2,
                        constant_speed=True, total_length=tau * a)
    return Boundary(gamma, dgamma, ddgamma, jet, symmetry_order=2,
                    constant_speed=False, total_length=_arc_length(dgamma))


def make_circle(radius: float = 1.0, symmetry_order: int = 2) -> Boundary:
    """Circle of the given radius: the ellipse with equal semi-axes.

    A circle is equivariant under every dihedral group; ``symmetry_order``
    records the n the caller intends to work with.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return replace(make_ellipse(radius, radius), symmetry_order=int(symmetry_order))


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
    g, dg, ddg, jet = boundary.gamma, boundary.dgamma, boundary.ddgamma, boundary.jet
    f = float(factor)

    def scaled_jet(x):
        z, dz = jet(x)
        return f * z, f * dz

    return replace(
        boundary,
        gamma=lambda x: f * g(x),
        dgamma=lambda x: f * dg(x),
        ddgamma=lambda x: f * ddg(x),
        jet=scaled_jet,
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


def _series_sums(coef: np.ndarray, n: int, y) -> np.ndarray:
    """The sums sum_j c_{1+nj} e^{2 pi i (1+nj) y} + c_{1-nj} e^{2 pi i (1-nj) y}.

    One complex sum per pair of rows of ``coef``, with ``coef[2r, j] = c_{1+nj}``
    and ``coef[2r + 1, j] = conj(c_{1-nj})`` (``coef[2r + 1, 0]`` is zero); the
    result has one row per pair and one column per entry of y, flattened.  The
    powers of w = e^{2 pi i n y} are built once for all rows, by doubling
    outwards from the dominant mode k = 1, which is cheaper than one
    exponential per mode and keeps that mode's phase to an ulp; y is reduced
    mod 1 first, so the long lifts of long orbits do too.
    """
    depth = coef.shape[1]
    y = np.asarray(y, dtype=float).reshape(-1)
    t = y - np.floor(y)
    powers = np.empty((depth, t.size), dtype=complex)
    powers[0] = 1.0
    jump = np.exp((2j * math.pi * n) * t)
    size = 1
    while size < depth:
        grow = min(size, depth - size)
        np.multiply(powers[:grow], jump, out=powers[size:size + grow])
        jump = jump * jump
        size += grow
    sums = coef @ powers
    return np.exp(2j * math.pi * t) * (sums[0::2] + sums[1::2].conj())


def _series_map(coef: np.ndarray, n: int) -> CurveMap:
    """The series of one pair of rows as a map to points (x, y)."""
    def f(y):
        return _series_sums(coef, n, y)[0].view(float).reshape(np.shape(y) + (2,))

    return f


def _series_jet(coef: np.ndarray, dcoef: np.ndarray, n: int) -> JetMap:
    """The series and its derivative from one power table and one product."""
    both = np.concatenate((coef, dcoef))

    def jet(y):
        z, dz = _series_sums(both, n, y)
        return z.reshape(np.shape(y)), dz.reshape(np.shape(y))

    return jet


def _resolved(coef: np.ndarray) -> bool:
    """Whether the top quarter of an FFT's modes is below SERIES_TOL relative."""
    top = coef[3 * coef.size // 8: coef.size - 3 * coef.size // 8 + 1]
    return bool(np.max(np.abs(top)) <= SERIES_TOL * np.max(np.abs(coef)))


def _arc_inverse(boundary: Boundary, speed: np.ndarray) -> np.ndarray:
    """The parameters x_j whose normalized arc length is j / nodes.

    ``speed`` is the FFT of the speed at the nodes.  Integrated term by term it
    gives sigma(x) = x + 2 Re sum_{k>0} a_k (e^{2 pi i k x} - 1), with
    a_k = speed_k / (2 pi i k L) and L the circumference.  Newton's method
    starts from the piecewise-linear inverse of sigma's node values (one
    inverse FFT) and evaluates sigma by Horner's rule in e^{2 pi i x}, in
    O(nodes) memory whatever the mode count.
    """
    nodes = speed.size
    y = np.arange(nodes) / nodes
    total = boundary.total_length
    k = np.arange(1, nodes // 2)
    a = speed[k] / (2j * math.pi * k * total)
    wiggle = np.fft.irfft(np.r_[0.0, a], nodes) * nodes
    x = np.interp(y, np.append(y + wiggle - wiggle[0], 1.0), np.append(y, 1.0))
    above = np.nonzero(np.abs(speed[k]) > SERIES_TRIM * speed[0].real)[0]
    a = a[:above.max(initial=-1) + 1]
    offset = a.real.sum()
    for _ in range(NEWTON_MAX_STEPS):
        u = np.exp(2j * math.pi * x)
        acc = np.zeros_like(u)
        for c in a[::-1]:
            acc = (acc + c) * u
        step = (x + 2.0 * (acc.real - offset) - y) * total / _speed(boundary.dgamma, x)
        x = x - step
        if np.max(np.abs(step)) <= NEWTON_XTOL:
            return x
    raise ValueError("the arc-length inversion did not converge")


def reparametrize_constant_speed(boundary: Boundary) -> Boundary:
    """The same curve traced at constant speed, as one trigonometric series.

    The speed is periodic and analytic, so its Fourier series converges
    exponentially.  The curve is sampled where its arc length is uniform (see
    :func:`_arc_inverse`) and transformed by FFT, on ``SERIES_NODES_START``
    nodes doubled until the top quarter of the modes of both the speed and the
    resampled curve is at roundoff.  Of the curve's modes only the
    wavenumbers k = 1 (mod n) with real coefficients are kept: exactly the
    series with ``R @ gamma(y) == gamma(y + 1/n)`` and
    ``S @ gamma(y) == gamma(-y)``, so dihedral equivariance holds by
    construction.  The returned ``gamma``, ``dgamma`` and ``ddgamma`` are that
    series and its exact derivatives; the speed is ``boundary.total_length``,
    the circumference computed at construction.

    Raises
    ------
    ValueError
        If the part the projection drops (modes off the lattice and imaginary
        parts) exceeds ``GEOMETRIC_TOL`` relative to the part it keeps, i.e.
        the table lacks the dihedral symmetry of the order it claims (order 1:
        the reflection alone); or if the series needs more than
        ``ARC_NODES_CAP`` nodes.
    """
    if boundary.constant_speed:
        return boundary
    n = max(1, boundary.symmetry_order)
    nodes = SERIES_NODES_START
    while True:
        speed = np.fft.fft(_speed(boundary.dgamma, np.arange(nodes) / nodes)) / nodes
        if _resolved(speed):
            pts = boundary.gamma(_arc_inverse(boundary, speed))
            coef = np.fft.fft(pts[:, 0] + 1j * pts[:, 1]) / nodes
            if _resolved(coef):
                break
        if nodes >= ARC_NODES_CAP:
            raise ValueError(f"{nodes} nodes do not resolve the constant-speed series")
        nodes *= 2

    wave = np.fft.fftfreq(nodes, 1.0 / nodes).astype(int)
    kept = np.where((wave - 1) % n == 0, coef.real, 0.0)
    dropped = float(np.sum(np.abs(coef - kept)) / np.sum(np.abs(kept)))
    if dropped > GEOMETRIC_TOL:
        raise ValueError(
            f"the constant-speed series drops {dropped:.3e} (relative) to keep "
            f"the order-{n} dihedral symmetry the table claims")

    # rows k = 1 + n j and k = 1 - n j, out to the last mode above SERIES_TRIM
    significant = wave[np.abs(kept) > SERIES_TRIM * np.max(np.abs(kept))]
    j = np.arange(max(significant.max() - 1, 1 - significant.min()) // n + 1)
    series = np.stack((kept[(1 + n * j) % nodes], kept[(1 - n * j) % nodes]))
    series[1, 0] = 0.0
    spin = 2j * math.pi * np.stack((1 + n * j, n * j - 1))
    return Boundary(_series_map(series, n),
                    _series_map(spin * series, n),
                    _series_map(spin * spin * series, n),
                    _series_jet(series, spin * series, n),
                    symmetry_order=boundary.symmetry_order,
                    constant_speed=True, total_length=boundary.total_length)
