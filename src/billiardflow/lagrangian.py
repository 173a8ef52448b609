"""Chord-length generating function on a boundary: the action, its gradient
and its Hessian.

For boundary points gamma(x), gamma(X) the generating function is the chord
length l(x, X) = |gamma(X) - gamma(x)|, smooth away from x - X in Z.  Its
partials are expressed through the unit chord and the tangents; all of it is
done with cross/dot products of real and imaginary parts, never arccos, to
keep full precision near the diagonal.  One kernel, :func:`_gradient_coords`,
gives the action with its gradient and, on request, its Hessian's diagonals.
"""

from __future__ import annotations

import numpy as np

from .geometry import Boundary
from .sequences import first_inadmissible


def chord_length(boundary: Boundary, x, X):
    d = boundary.jet(X, 0)[0] - boundary.jet(x, 0)[0]
    return np.sqrt(d.real * d.real + d.imag * d.imag)


def _gradient_coords(boundary: Boundary, coords: np.ndarray, q: int,
                     order: int = 1) -> tuple | None:
    """Gradient and value of the periodic action in plain-array form (hot path).

    Evaluates the curve once, as complex positions z_i and tangents z'_i, and
    assembles F_i = Re(conj(z'_i) (u_{i-1} - u_i)) with u_i the unit chord
    from z_i to z_{i+1}; by 1-periodicity of the curve the wrapped chord ends
    at z_0.  Returns (F, W), with W the total chord length, equal bit for bit
    to :func:`periodic_action`; None when an increment leaves (0, 1), where
    the action is not smooth.  ``order`` 2 takes the order-2 jet instead and
    returns (F, W, (diag, off)): the Hessian of the action is cyclic
    tridiagonal, with diagonal ``diag`` and H[i, i+1] = H[i+1, i] = off[i],
    indices mod p (see :func:`hessian`).
    """
    if first_inadmissible(coords, q) is not None:
        return None
    z, dz, *second = boundary.jet(coords, order)
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
    grad = dz.real * turn.real + dz.imag * turn.imag
    if order == 1:
        return grad, action
    # chord i contributes, with a = Im(conj(u_i) z'_i), b = Im(conj(u_i) z'_{i+1})
    # and L its length, d11 = a^2/L - Re(conj(z''_i) u_i) to H[i, i],
    # d22 = b^2/L + Re(conj(z''_{i+1}) u_i) to H[i+1, i+1] and d12 = -ab/L to
    # H[i, i+1] and H[i+1, i], indices mod p; the jet at vertex i + 1 is a
    # ring slice, as the chords are
    dd = second[0]
    dz_next = np.concatenate((dz[1:], dz[:1]))
    dd_next = np.concatenate((dd[1:], dd[:1]))
    a = unit.real * dz.imag - unit.imag * dz.real
    b = unit.real * dz_next.imag - unit.imag * dz_next.real
    diag = a * a / length - (dd.real * unit.real + dd.imag * unit.imag)
    d22 = b * b / length + (dd_next.real * unit.real + dd_next.imag * unit.imag)
    diag[1:] += d22[:-1]
    diag[0] += d22[-1]
    return grad, action, (diag, -a * b / length)


def _kernel(boundary: Boundary, lift, order: int) -> tuple:
    """:func:`_gradient_coords` at ``lift``; off the admissible region a
    ValueError names the first increment outside (0, 1)."""
    x = np.asarray(lift.coords, dtype=float)
    out = _gradient_coords(boundary, x, lift.q, order)
    if out is None:
        i, inc = first_inadmissible(x, lift.q)
        raise ValueError(
            f"lift leaves the admissible region at increment {i}: "
            f"x[{(i + 1) % x.shape[0]}] - x[{i}] = {inc:.6g}")
    return out


def gradient_field(boundary: Boundary, lift) -> np.ndarray:
    """Action gradient F_i = d/dx_i of the total chord length.

    Uses the wraparound x_{-1} = x_{p-1} - q and x_p = x_0 + q.  Zero exactly
    at billiard configurations.  Raises ValueError (naming the first violating
    index) if any increment leaves (0, 1).
    """
    return _kernel(boundary, lift, 1)[0]


def hessian(boundary: Boundary, lift) -> np.ndarray:
    """Exact Hessian of the periodic action at an admissible lift.

    Cyclic tridiagonal: vertex i meets chords i - 1 and i (see
    :func:`_gradient_coords`).  One order-2 kernel call, valid for any
    parametrization and at any admissible lift, stationary or not; raises
    ValueError like :func:`gradient_field` off the admissible region.
    """
    diag, off = _kernel(boundary, lift, 2)[2]
    j = np.arange(diag.size)
    jn = (j + 1) % diag.size
    h = np.diag(diag)
    h[j, jn] += off
    # at p = 2 both chords join vertices 0 and 1, and this adds the other one
    h[jn, j] += off
    return h


def periodic_action(boundary: Boundary, lift) -> float:
    """Total chord length W of the closed polygon the lift traces.

    The curve is evaluated once; by 1-periodicity the last chord ends at the
    first vertex.
    """
    z = boundary.jet(np.asarray(lift.coords, dtype=float), 0)[0]
    return float(np.abs(np.diff(z, append=z[:1])).sum())
