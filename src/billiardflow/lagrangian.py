"""Chord-length generating function on a boundary: partials, forces, gradient.

For boundary points gamma(x), gamma(X) the generating function is the chord
length l(x, X) = |gamma(X) - gamma(x)|, smooth away from x - X in Z.  Its
partials are expressed through the angles the chord makes with the two
tangents; all trigonometry here is done with cross/dot ratios or atan2, never
arccos, to keep full precision near the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Boundary, curvature

#: within this distance of the diagonal, first partials switch to their
#: continuous boundary extension (the raw quotient loses precision there)
DIAG_GUARD = 1e-9
#: closer than this to the diagonal counts as coincident points
COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class SecondPartials:
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray


def _check_not_coincident(x, X):
    t = np.mod(np.asarray(X, dtype=float) - np.asarray(x, dtype=float), 1.0)
    t = np.minimum(t, 1.0 - t)
    if np.any(t <= COINCIDENT_TOL):
        raise ValueError("coincident boundary points: x - X is an integer")


def chord_length(boundary: Boundary, x, X):
    d = boundary.jet(X, 0)[0] - boundary.jet(x, 0)[0]
    return np.sqrt(d.real * d.real + d.imag * d.imag)


def second_partials(boundary: Boundary, x, X) -> SecondPartials:
    """Second partials of the chord length, constant-speed parametrization only.

    With c the (constant) speed, L the chord length, theta/phi the chord
    angles and kappa the curvature:

        d11 = c^2 (sin^2 theta / L - kappa(x) sin theta)
        d12 = c^2 sin theta sin phi / L            (always positive)
        d22 = c^2 (sin^2 phi / L - kappa(X) sin phi)
    """
    c = boundary.speed
    if c is None:
        raise ValueError("second partials require a constant-speed boundary; "
                         "reparametrize first")
    _check_not_coincident(x, X)
    zx, tx, ddx = boundary.jet(x, 2)
    zX, tX, ddX = boundary.jet(X, 2)
    d = zX - zx
    length = np.sqrt(d.real * d.real + d.imag * d.imag)
    # sines from cross products; both positive for 0 < X - x < 1 on a convex curve
    sin_theta = (tx.real * d.imag - tx.imag * d.real) / (c * length)
    sin_phi = (d.real * tX.imag - d.imag * tX.real) / (c * length)
    kx = curvature(tx, ddx)
    kX = curvature(tX, ddX)
    c2 = c * c
    return SecondPartials(
        d11=c2 * (sin_theta * sin_theta / length - kx * sin_theta),
        d12=c2 * sin_theta * sin_phi / length,
        d22=c2 * (sin_phi * sin_phi / length - kX * sin_phi),
    )


def _force_domain_check(x, X):
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    if np.any(X < x - 1e-12) or np.any(X > x + 1.0 + 1e-12):
        raise ValueError("forces are defined for x <= X <= x + 1")
    return x, X


def _force(zx, zX, tangent, t):
    """The component of the tangent along the unit chord from zx to zX.

    Continued by +|tangent| at t = 0 and by -|tangent| at t = 1, where the
    chord vanishes.
    """
    d = zX - zx
    speed = np.sqrt(tangent.real * tangent.real + tangent.imag * tangent.imag)
    length = np.sqrt(d.real * d.real + d.imag * d.imag)
    raw = (tangent.real * d.real + tangent.imag * d.imag) / np.where(length > 0, length, 1.0)
    return np.where(t <= DIAG_GUARD, speed,
                    np.where(t >= 1.0 - DIAG_GUARD, -speed, raw))


def force_minus(boundary: Boundary, x, X):
    """d/dX of the chord length, |gamma'(X)| cos(phi), on x <= X <= x + 1.

    Equals +|gamma'(x)| at X = x and -|gamma'(x)| at X = x + 1; strictly
    increasing in x for fixed X on a strictly convex table.
    """
    x, X = _force_domain_check(x, X)
    zX, tX = boundary.jet(X, 1)
    return _force(boundary.jet(x, 0)[0], zX, tX, X - x)


def force_plus(boundary: Boundary, x, X):
    """d/dx of the chord length, -|gamma'(x)| cos(theta), on x <= X <= x + 1.

    Equals -|gamma'(x)| at X = x and +|gamma'(x)| at X = x + 1; strictly
    increasing in X for fixed x on a strictly convex table.
    """
    x, X = _force_domain_check(x, X)
    zx, tx = boundary.jet(x, 1)
    return -_force(zx, boundary.jet(X, 0)[0], tx, X - x)


def _increments(x: np.ndarray, q: int) -> np.ndarray:
    """x_{i+1} - x_i with the wraparound x_p = x_0 + q."""
    inc = np.empty(x.shape[0])
    inc[:-1] = x[1:] - x[:-1]
    inc[-1] = x[0] + q - x[-1]
    return inc


def _inadmissible(inc: np.ndarray) -> np.ndarray:
    return np.nonzero(~((inc > 0.0) & (inc < 1.0)))[0]      # NaN fails too


def _gradient_coords(boundary: Boundary, coords: np.ndarray, q: int) -> np.ndarray | None:
    """Gradient of the periodic action in plain-array form (hot path).

    Evaluates the curve once, as complex positions z_i and tangents z'_i, and
    assembles F_i = Re(conj(z'_i) (u_{i-1} - u_i)) with u_i the unit chord
    from z_i to z_{i+1}; by 1-periodicity of the curve the wrapped chord ends
    at z_0.  Equal to force_minus(x_{i-1}, x_i) + force_plus(x_i, x_{i+1}) on
    admissible lifts.  Returns None when an increment leaves (0, 1), where
    the action is not smooth.
    """
    if _inadmissible(_increments(coords, q)).size:
        return None
    z, dz = boundary.jet(coords, 1)
    # ring = (z_0, ..., z_{p-1}, z_0), whose differences are the chords; the
    # unit chords then overwrite ring[1:] and ring[0] takes u_{p-1}, so that
    # ring[:-1] holds u_{i-1}.  Lengths, quotients and the final product are
    # formed from real and imaginary parts: complex abs (hypot), division and
    # multiplication round differently, and the flow's step sequence follows
    # the last bit of the gradient.
    ring = np.empty(z.size + 1, dtype=complex)
    ring[:-1] = z
    ring[-1] = z[0]
    chords = ring[1:] - ring[:-1]
    length = np.sqrt(chords.real * chords.real + chords.imag * chords.imag)
    unit = ring[1:]
    np.divide(chords.real, length, out=unit.real)
    np.divide(chords.imag, length, out=unit.imag)
    ring[0] = unit[-1]
    turn = ring[:-1] - unit
    return dz.real * turn.real + dz.imag * turn.imag


def gradient_field(boundary: Boundary, lift) -> np.ndarray:
    """Action gradient F_i = force_minus(x_{i-1}, x_i) + force_plus(x_i, x_{i+1}).

    Uses the wraparound x_{-1} = x_{p-1} - q and x_p = x_0 + q.  Zero exactly
    at billiard configurations.  Raises ValueError (naming the first violating
    index) if any increment leaves (0, 1).
    """
    x = np.asarray(lift.coords, dtype=float)
    grad = _gradient_coords(boundary, x, lift.q)
    if grad is None:
        inc = _increments(x, lift.q)
        i = int(_inadmissible(inc)[0])
        raise ValueError(
            f"lift leaves the admissible region at increment {i}: "
            f"x[{(i + 1) % x.shape[0]}] - x[{i}] = {inc[i]:.6g}")
    return grad


def periodic_action(boundary: Boundary, lift) -> float:
    """Total chord length W of the closed polygon the lift traces.

    The curve is evaluated once; by 1-periodicity the last chord ends at the
    first vertex.
    """
    z = boundary.jet(np.asarray(lift.coords, dtype=float), 0)[0]
    return float(np.abs(np.diff(z, append=z[:1])).sum())
