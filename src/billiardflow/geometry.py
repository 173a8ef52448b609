"""Strictly convex boundary curves: construction, curvature, reparametrization.

A boundary is a closed strictly convex C^2 curve traced counterclockwise by a
1-periodic map ``gamma : R -> R^2``.  Each curve is one vectorized map, its
jet: ``jet(x, order)`` gives ``[gamma(x), gamma'(x), ...]`` up to
``order <= 2`` as complex numbers x + iy of the parameters' shape, from one
evaluation of the curve, so derivatives are exact.  A boundary is that jet,
its symmetry order and its speed: the constant |gamma'|, equal to the
circumference, when the parametrization has constant speed, else None.

The dihedral symmetry convention: a curve has n-fold symmetry when rotating by
2*pi/n advances the parameter by 1/n and reflecting across the horizontal axis
reverses it, i.e. ``R @ gamma(x) == gamma(x + 1/n)`` and
``S @ gamma(x) == gamma(-x)`` with R the rotation and S = diag(1, -1).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

#: residual tolerance of geometric identities (periodicity, symmetry)
GEOMETRIC_TOL = 1e-10
#: grid points per bracket when refining the convexity minimum; each pass keeps
#: two of the 64 cells, and passes stop once the bracket is narrower than XTOL
MARGIN_GRID = 65
MARGIN_XTOL = 1e-12
#: the constant-speed series: first node count, doubled up to ARC_NODES_CAP
#: while the top quarter of the modes of the speed or of the curve is above
#: SERIES_TOL relative to the largest; modes below SERIES_TRIM relative to the
#: largest are left out
SERIES_NODES_START = 256
ARC_NODES_CAP = 1 << 16
SERIES_TOL = 1e-15
SERIES_TRIM = 1e-16
#: Newton inversion of the arc length: step limit, and the step size after
#: which the next correction is below roundoff
NEWTON_MAX_STEPS = 20
NEWTON_XTOL = 1e-10

JetMap = Callable[[np.ndarray, int], Sequence[np.ndarray]]


@dataclass(frozen=True)
class Boundary:
    """A closed convex curve with exact first and second derivatives.

    Attributes
    ----------
    jet : callable
        ``jet(x, order) -> [gamma(x), gamma'(x), ...]`` up to ``order <= 2``,
        complex arrays of the shape of x from one evaluation of the curve;
        1-periodic: ``gamma(x + 1) == gamma(x)``.
    symmetry_order : int
        The n of the dihedral symmetry the curve is built with (1 if none).
    speed : float or None
        The constant ``|gamma'|``, which equals the circumference, when the
        parametrization has constant speed; None otherwise.
    """

    jet: JetMap
    symmetry_order: int
    speed: float | None


def _complex(re, im) -> np.ndarray:
    """x + iy from its two parts, with no arithmetic that could round."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _positive(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} = {value} must be positive and finite")
    return value


def _speed(jet: JetMap, x: np.ndarray) -> np.ndarray:
    d = jet(x, 1)[1]
    return np.sqrt(d.real * d.real + d.imag * d.imag)


def make_limacon(n: int, alpha: float) -> Boundary:
    """Polar-graph curve r(x) = 1 + alpha*cos(2*pi*n*x) over the unit circle.

    Has exact n-fold dihedral symmetry.  Strictly convex iff
    ``|alpha| < 1/(1 + n^2)`` (the constructor does not enforce convexity;
    use :func:`convexity_margin`).

    Raises
    ------
    ValueError
        If ``n < 2``, alpha is not finite or ``|alpha| >= 1`` (the curve would
        not be simple).
    """
    if n < 2:
        raise ValueError(f"symmetry order n={n} must be >= 2")
    a = float(alpha)
    if not math.isfinite(a):
        raise ValueError(f"alpha = {a} must be finite")
    if abs(a) >= 1:
        raise ValueError(f"|alpha| = {abs(a)} >= 1 does not give a simple curve")
    tau = 2.0 * math.pi

    def jet(x, order):
        x = np.asarray(x, dtype=float)
        turn = tau * x
        c, s = np.cos(turn), np.sin(turn)
        wave = tau * n * x
        cw = np.cos(wave)
        r = 1.0 + a * cw
        out = [_complex(r * c, r * s)]
        if order >= 1:
            dr = -tau * n * a * np.sin(wave)
            out.append(_complex(dr * c - tau * r * s, dr * s + tau * r * c))
        if order >= 2:
            # radial / angular decomposition: gamma'' = (r'' - tau^2 r) u + 2 tau r' u_perp
            u_coef = -tau * tau * n * n * a * cw - tau * tau * r
            v_coef = 2.0 * tau * dr
            out.append(_complex(u_coef * c - v_coef * s, u_coef * s + v_coef * c))
        return out

    return Boundary(jet, symmetry_order=n, speed=tau if a == 0.0 else None)


def make_ellipse(a: float, b: float) -> Boundary:
    """Axis-aligned ellipse (a*cos(2*pi*x), b*sin(2*pi*x)); 2-fold symmetric."""
    a, b = _positive("ellipse semi-axis a", a), _positive("ellipse semi-axis b", b)
    tau = 2.0 * math.pi

    def jet(x, order):
        turn = tau * np.asarray(x, dtype=float)
        c, s = np.cos(turn), np.sin(turn)
        out = [_complex(a * c, b * s), _complex(-tau * a * s, tau * b * c),
               _complex(-tau * tau * a * c, -tau * tau * b * s)]
        return out[:order + 1]

    return Boundary(jet, symmetry_order=2, speed=tau * a if a == b else None)


def make_circle(radius: float = 1.0, symmetry_order: int = 2) -> Boundary:
    """Circle of the given radius: the ellipse with equal semi-axes.

    A circle is equivariant under every dihedral group; ``symmetry_order``
    records the n the caller intends to work with.
    """
    radius = _positive("radius", radius)
    return replace(make_ellipse(radius, radius), symmetry_order=int(symmetry_order))


#: per family, the descriptor keys it requires and the keys it also reads
FAMILY_KEYS = {"limacon": (("n", "alpha"), ()), "ellipse": (("a", "b"), ()),
               "circle": ((), ("radius", "n"))}


def check_table_keys(descriptor: dict) -> str:
    """The family of ``descriptor``, once the family is known, every key it
    requires is present and no other key is one the family does not read;
    otherwise ValueError names the family or the key."""
    family = str(descriptor.get("family", "")).lower()
    if family not in FAMILY_KEYS:
        raise ValueError(f"unknown boundary family {family!r}")
    required, optional = FAMILY_KEYS[family]
    for key in required:
        if key not in descriptor:
            raise ValueError(f"{family} table lacks the key {key!r}")
    for key in descriptor:
        if key != "family" and key not in required + optional:
            raise ValueError(f"{family} table does not read the key {key!r}")
    return family


def make_boundary(descriptor: dict) -> Boundary:
    """Build a boundary from a plain descriptor, e.g. from a config file.

    Recognized families::

        {"family": "limacon", "n": 4, "alpha": 0.05}
        {"family": "ellipse", "a": 2.0, "b": 1.0}
        {"family": "circle", "radius": 1.0, "n": 4}

    A key the family does not read is rejected (:func:`check_table_keys`),
    and so is an order ``n`` that is not integral.
    """
    family = check_table_keys(descriptor)
    if family == "ellipse":
        return make_ellipse(float(descriptor["a"]), float(descriptor["b"]))
    n = float(descriptor.get("n", 2))
    if not n.is_integer():
        raise ValueError(f"{family} table order n = {descriptor['n']!r} is not an integer")
    if family == "limacon":
        return make_limacon(int(n), float(descriptor["alpha"]))
    return make_circle(float(descriptor.get("radius", 1.0)), int(n))


def orientation_det(boundary: Boundary, x) -> np.ndarray:
    """det(gamma'(x), gamma''(x)); positive everywhere iff strictly convex."""
    _, d1, d2 = boundary.jet(x, 2)
    return d1.real * d2.imag - d1.imag * d2.real


def curvature(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Unsigned curvature |det(gamma', gamma'')| / |gamma'|^3 from jet values.

    Raises
    ------
    ValueError
        If the tangent degenerates (|gamma'| ~ 0) at any point.
    """
    speed_sq = d1.real * d1.real + d1.imag * d1.imag
    if np.any(speed_sq <= 1e-24):
        raise ValueError("degenerate tangent: |gamma'(x)| vanishes")
    return np.abs(d1.real * d2.imag - d1.imag * d2.real) / speed_sq ** 1.5


def curvature_at(boundary: Boundary, x) -> np.ndarray:
    """Unsigned curvature of the boundary at the parameters x (see curvature)."""
    _, d1, d2 = boundary.jet(x, 2)
    return curvature(d1, d2)


def convexity_margin(boundary: Boundary) -> float:
    """Minimum of det(gamma', gamma'') over the curve.

    Positive iff the curve is strictly convex.  Samples the determinant on a
    uniform grid of max(1024, 24 n) points for symmetry order n, enough to
    resolve its symmetric oscillation, then shrinks a bracket around the best
    sample: each pass evaluates the determinant on ``MARGIN_GRID`` points
    across the bracket and keeps the two cells beside the smallest value,
    until the bracket is narrower than ``MARGIN_XTOL``.  A flat determinant (a circle) needs no
    strict bracket: the passes still shrink and every value is the minimum.
    """
    samples = max(1024, 24 * boundary.symmetry_order)
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


def check_equivariance(boundary: Boundary, n: int) -> bool:
    """Verify the two dihedral identities at 128 sampled parameters.

    Checks ``R @ gamma(x) == gamma(x + 1/n)`` (R = rotation by 2*pi/n, on
    jet values multiplication by e^{2 pi i/n}) and ``S @ gamma(x) == gamma(-x)``
    (S = diag(1, -1), conjugation): the largest real or imaginary difference
    must be within :data:`GEOMETRIC_TOL` times the largest real or imaginary
    part of the sampled gamma, so the test does not depend on the table's size.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = (np.arange(128) + 0.382) / 128
    z = boundary.jet(xs, 0)[0]
    tol = GEOMETRIC_TOL * np.max(np.abs([z.real, z.imag]))
    rotated = np.exp(2j * math.pi / n) * z
    for image, target in ((rotated, xs + 1.0 / n), (z.conj(), -xs)):
        diff = image - boundary.jet(target, 0)[0]
        if not np.max(np.abs([diff.real, diff.imag])) <= tol:
            return False
    return True


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
        size += grow
        if size < depth:        # the next block needs the next power
            jump = jump * jump
    sums = coef @ powers
    return np.exp(2j * math.pi * t) * (sums[0::2] + sums[1::2].conj())


def _resolved(coef: np.ndarray) -> bool:
    """Whether the top quarter of an FFT's modes is below SERIES_TOL relative."""
    top = coef[3 * coef.size // 8: coef.size - 3 * coef.size // 8 + 1]
    return bool(np.max(np.abs(top)) <= SERIES_TOL * np.max(np.abs(coef)))


def _arc_inverse(boundary: Boundary, speed: np.ndarray, total: float) -> np.ndarray:
    """The parameters x_j whose normalized arc length is j / nodes.

    ``speed`` is the FFT of the speed at the nodes and ``total`` the
    circumference L.  Integrated term by term the speed gives
    sigma(x) = x + 2 Re sum_{k>0} a_k (e^{2 pi i k x} - 1), with
    a_k = speed_k / (2 pi i k L).  Newton's method
    starts from the piecewise-linear inverse of sigma's node values (one
    inverse FFT) and evaluates sigma by Horner's rule in e^{2 pi i x}, in
    O(nodes) memory whatever the mode count.
    """
    nodes = speed.size
    y = np.arange(nodes) / nodes
    k = np.arange(1, nodes // 2)
    a = speed[k] / (2j * math.pi * k * total)
    wiggle = np.fft.irfft(np.r_[0.0, a], nodes) * nodes
    x = np.interp(y, np.append(y + wiggle - wiggle[0], 1.0), np.append(y, 1.0))
    above = np.nonzero(np.abs(speed[k]) > SERIES_TRIM * total)[0]
    a = a[:above.max(initial=-1) + 1]
    offset = a.real.sum()
    for _ in range(NEWTON_MAX_STEPS):
        u = np.exp(2j * math.pi * x)
        acc = np.zeros_like(u)
        for c in a[::-1].tolist():
            acc += c
            acc *= u
        step = (x + 2.0 * (acc.real - offset) - y) * total / _speed(boundary.jet, x)
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
    construction.  The returned jet is that series and its exact derivatives;
    its speed is the circumference, the mean of the speed's series: the
    periodic trapezoid rule, exact to roundoff once the series is resolved
    (Trefethen & Weideman, SIAM Review 56(3), 2014).

    Raises
    ------
    ValueError
        If the part the projection drops (modes off the lattice and imaginary
        parts) exceeds ``GEOMETRIC_TOL`` relative to the part it keeps, i.e.
        the table lacks the dihedral symmetry of the order it claims (order 1:
        the reflection alone); or if the series needs more than
        ``ARC_NODES_CAP`` nodes.
    """
    if boundary.speed is not None:
        return boundary
    n = max(1, boundary.symmetry_order)
    nodes = SERIES_NODES_START
    while True:
        speed = np.fft.fft(_speed(boundary.jet, np.arange(nodes) / nodes)) / nodes
        total = float(speed[0].real)
        if _resolved(speed):
            x = _arc_inverse(boundary, speed, total)
            coef = np.fft.fft(boundary.jet(x, 0)[0]) / nodes
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
    # then the rows of gamma' and gamma'', times 2 pi i k and (2 pi i k)^2;
    # a jet of order m takes one product with the first 2m + 2 rows
    spin = 2j * math.pi * np.stack((1 + n * j, n * j - 1))
    rows = np.concatenate((series, spin * series, spin * spin * series))

    def jet(y, order):
        return _series_sums(rows[:2 * order + 2], n, y).reshape((order + 1,) + np.shape(y))

    return Boundary(jet, symmetry_order=boundary.symmetry_order, speed=total)
