"""Reference implementations that the tests compare the package against.

Each computes, by a second route, something the package computes another way:
the chord partials one endpoint at a time (the package assembles the gradient
in one kernel), the paper's closed form of the circulant Hessian at a
symmetric Birkhoff orbit, the comparison principle of two flow runs, integer
translates of a lift, and orbit equality by a loop over time shifts and
reversals.  It also holds the helpers only tests use: the lifts a flow run
visits, and writing an orbit file.
"""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from billiardflow import flow
from billiardflow.sequences import CLASSIFY_TOL, lift_text
from billiardflow.spectral import kappa_chord


def _force(zx, zX, tangent):
    """The component of ``tangent`` along the unit chord from zx to zX."""
    d = zX - zx
    length = np.sqrt(d.real * d.real + d.imag * d.imag)
    return (tangent.real * d.real + tangent.imag * d.imag) / length


def force_minus(boundary, x, X):
    """d/dX of the chord length, |gamma'(X)| cos(phi), for x < X < x + 1."""
    zX, tX = boundary.jet(X, 1)
    return _force(boundary.jet(x, 0)[0], zX, tX)


def force_plus(boundary, x, X):
    """d/dx of the chord length, -|gamma'(x)| cos(theta), for x < X < x + 1."""
    zx, tx = boundary.jet(x, 1)
    return -_force(zx, boundary.jet(X, 0)[0], tx)


class BirkhoffCoefficients(NamedTuple):
    """Half the diagonal (alpha) and the off-diagonal (beta) of the circulant
    Hessian, with the speed c, chord L and curvature kappa they come from."""

    alpha: float
    beta: float
    speed: float
    chord: float
    curvature: float


def birkhoff_coefficients(boundary, n, m, branch=1) -> BirkhoffCoefficients:
    """The (alpha, beta) of the circulant Hessian at a symmetric Birkhoff orbit,
    on a constant-speed parametrization:

        alpha = c^2 sin(m pi/n) (sin(m pi/n)/L - kappa)
        beta  = c^2 sin^2(m pi/n) / L
    """
    c = boundary.speed
    if c is None:
        raise ValueError("birkhoff_coefficients requires a constant-speed boundary")
    kappa, chord = kappa_chord(boundary, n, m, branch)
    s = math.sin(m * math.pi / n)
    return BirkhoffCoefficients(alpha=c * c * s * (s / chord - kappa),
                                beta=c * c * s * s / chord, speed=c,
                                chord=chord, curvature=kappa)


def circulant(p, alpha, beta):
    """The symmetric circulant tridiagonal matrix with corners, diagonal
    2 alpha and off-diagonal beta; mode j has eigenvalue
    2 alpha + 2 beta cos(2 pi j / p)."""
    h = 2.0 * alpha * np.eye(p)
    for i in range(p):
        h[i, (i + 1) % p] += beta
        h[(i + 1) % p, i] += beta
    return h


def recorded_run(boundary, start, **kwargs):
    """``(run, lifts)``: ``flow.integrate(boundary, start, **kwargs)`` and the
    coordinates of each of its samples, in the order of ``run.times``.

    The lifts come from a spy on the flow's kernel, ``flow._gradient_coords``.
    The flow evaluates its first sample at the start, and every later one at
    the projection of the last stage point of the step it accepts (the point
    itself without a system), so the spy keeps the first call and each call
    made at the projection of the previous call's point.
    """
    system = kwargs.get("system")
    project = (lambda x: x) if system is None else system.project
    lifts, previous = [], []
    kernel = flow._gradient_coords

    def spy(boundary, coords, q):
        if not previous or np.array_equal(coords, project(previous[-1])):
            lifts.append(coords.copy())
        previous[:] = [coords.copy()]
        return kernel(boundary, coords, q)

    flow._gradient_coords = spy
    try:
        run = flow.integrate(boundary, start, **kwargs)
    finally:
        flow._gradient_coords = kernel
    assert len(lifts) == len(run.times)
    return run, lifts


def comparison_check(recorded_x, recorded_y) -> bool:
    """Whether run x stays strictly below run y at every recorded time > 0.

    Each argument is a :func:`recorded_run` ``(run, lifts)``; the runs must
    start from ordered, distinct states x(0) <= y(0).  Samples of the two
    runs are aligned by per-coordinate linear interpolation on the union of
    their time grids, truncated to the shorter run.
    """
    (run_x, lifts_x), (run_y, lifts_y) = recorded_x, recorded_y
    x0 = lifts_x[0]
    y0 = lifts_y[0]
    if np.any(x0 > y0):
        raise ValueError("requires x(0) <= y(0) componentwise")
    if np.array_equal(x0, y0):
        raise ValueError("requires x(0) != y(0)")
    t_max = min(run_x.times[-1], run_y.times[-1])
    ts = np.union1d(run_x.times, run_y.times)
    ts = ts[(ts > 0.0) & (ts <= t_max)]
    if ts.size == 0:
        raise ValueError("runs share no positive recorded time")
    xs = np.vstack(lifts_x)
    ys = np.vstack(lifts_y)
    for j in range(xs.shape[1]):
        xj = np.interp(ts, run_x.times, xs[:, j])
        yj = np.interp(ts, run_y.times, ys[:, j])
        if not np.all(xj < yj):
            return False
    return True


def save_lift(path, lift, n, m) -> None:
    """Write the orbit file :func:`~billiardflow.sequences.lift_text` gives."""
    Path(path).write_text(lift_text(lift, n, m))


def translate(lift, c, d):
    """The integer translate of ``lift`` with coordinates x_{i+c} + d."""
    return lift.with_coords(lift.value(np.arange(lift.p) + c) + d)


def increments(lift):
    """x_{i+1} - x_i for i = 0..p-1, the last one wrapping to x_0 + q."""
    return np.diff(lift.value(np.arange(lift.p + 1)))


def loop_score(d):
    """max_i |d_i - M|, with M the integer nearest d_0."""
    return float(np.max(np.abs(d - round(float(d[0])))))


def loop_equality_scores(a, b):
    """The score of every forward and every reversed match of b to a.

    Forward (equal windings): b_i - a_{r+i}.  Reversed: traversing a (p, q)
    orbit backwards gives a (p, p - q) orbit, re-lifted to increasing order
    as b_i = a_{r-i} + i + M.
    """
    i = np.arange(a.p)
    scores = []
    if b.q == a.q:
        scores += [loop_score(b.coords - a.value(r + i)) for r in range(a.p)]
    if b.q == a.p - a.q:
        scores += [loop_score(b.coords - a.value(r - i) - i) for r in range(a.p)]
    return scores


def same_orbit(a, b) -> bool:
    """Whether two lifts describe the same orbit up to time shift or reversal:
    some match scores within ``CLASSIFY_TOL``."""
    return a.p == b.p and any(score <= CLASSIFY_TOL for score in loop_equality_scores(a, b))
