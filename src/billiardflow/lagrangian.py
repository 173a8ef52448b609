"""Chord-length generating function on a boundary: partials and gradient.

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
from .sequences import first_inadmissible

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


def _gradient_coords(boundary: Boundary, coords: np.ndarray, q: int) -> tuple | None:
    """Gradient and value of the periodic action in plain-array form (hot path).

    Evaluates the curve once, as complex positions z_i and tangents z'_i, and
    assembles F_i = Re(conj(z'_i) (u_{i-1} - u_i)) with u_i the unit chord
    from z_i to z_{i+1}; by 1-periodicity of the curve the wrapped chord ends
    at z_0.  Returns (F, W), with W the total chord length, equal bit for bit
    to :func:`periodic_action`; None when an increment leaves (0, 1), where
    the action is not smooth.
    """
    if first_inadmissible(coords, q) is not None:
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
    action = float(np.abs(chords).sum())
    length = np.sqrt(chords.real * chords.real + chords.imag * chords.imag)
    unit = ring[1:]
    np.divide(chords.real, length, out=unit.real)
    np.divide(chords.imag, length, out=unit.imag)
    ring[0] = unit[-1]
    turn = ring[:-1] - unit
    return dz.real * turn.real + dz.imag * turn.imag, action


def gradient_field(boundary: Boundary, lift) -> np.ndarray:
    """Action gradient F_i = d/dx_i of the total chord length.

    Uses the wraparound x_{-1} = x_{p-1} - q and x_p = x_0 + q.  Zero exactly
    at billiard configurations.  Raises ValueError (naming the first violating
    index) if any increment leaves (0, 1).
    """
    x = np.asarray(lift.coords, dtype=float)
    out = _gradient_coords(boundary, x, lift.q)
    if out is None:
        i, inc = first_inadmissible(x, lift.q)
        raise ValueError(
            f"lift leaves the admissible region at increment {i}: "
            f"x[{(i + 1) % x.shape[0]}] - x[{i}] = {inc:.6g}")
    return out[0]


def periodic_action(boundary: Boundary, lift) -> float:
    """Total chord length W of the closed polygon the lift traces.

    The curve is evaluated once; by 1-periodicity the last chord ends at the
    first vertex.
    """
    z = boundary.jet(np.asarray(lift.coords, dtype=float), 0)[0]
    return float(np.abs(np.diff(z, append=z[:1])).sum())
