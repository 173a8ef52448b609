"""Reference implementations that the tests compare the package against.

Each computes, by a second route, something the package computes another way:
the chord partials one endpoint at a time (the package assembles the gradient
in one kernel), the Hessian of the action chord by chord in 40-digit decimal
arithmetic, the paper's closed form of the circulant Hessian at a
symmetric Birkhoff orbit, the comparison principle of two flow runs, integer
translates of a lift, and orbit equality by a loop over time shifts and
reversals.  It also holds the helpers only tests use: the history of a flow
run's samples, the trapezoid rule, and writing an orbit file.
"""

import math
from decimal import Decimal, localcontext
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


def decimal_hessian(boundary, lift) -> np.ndarray:
    """The Hessian of the action at ``lift``, assembled chord by chord in
    40-digit decimal arithmetic from the table's own float jet values.

    Chord i joins vertex i to vertex i + 1 (the last one ends at vertex 0, by
    1-periodicity of the curve).  With u its unit vector, L its length and
    the cross products a = u x gamma'_i, b = u x gamma'_{i+1}, it adds
    a^2/L - u.gamma''_i to H[i, i], b^2/L + u.gamma''_{i+1} to H[i+1, i+1]
    and -ab/L to H[i, i+1] and to H[i+1, i].  Only the final rounding to
    floats is left.
    """
    jet = boundary.jet(np.asarray(lift.coords, dtype=float), 2)
    z, dz, ddz = ([(Decimal(float(w.real)), Decimal(float(w.imag))) for w in v]
                  for v in jet)
    p = lift.p
    with localcontext() as ctx:
        ctx.prec = 40
        h = [[Decimal(0)] * p for _ in range(p)]
        for i in range(p):
            k = (i + 1) % p
            dx, dy = z[k][0] - z[i][0], z[k][1] - z[i][1]
            length = (dx * dx + dy * dy).sqrt()
            ux, uy = dx / length, dy / length
            a = ux * dz[i][1] - uy * dz[i][0]
            b = ux * dz[k][1] - uy * dz[k][0]
            h[i][i] += a * a / length - (ux * ddz[i][0] + uy * ddz[i][1])
            h[k][k] += b * b / length + (ux * ddz[k][0] + uy * ddz[k][1])
            h[i][k] -= a * b / length
            h[k][i] -= a * b / length
        return np.array([[float(v) for v in row] for row in h])


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


class Recording(NamedTuple):
    """A flow run and the history of its samples, read off its kernel calls:
    each sample's coordinates, time, action and sum of squared gradient
    entries."""

    run: flow.FlowResult
    lifts: list
    times: np.ndarray
    actions: np.ndarray
    grad_sq: np.ndarray


#: the largest drop of the action between samples that the flow-law tests
#: forgive: a few units in the last place of the actions they meet (their
#: worst drop is 1.1e-14), and below ten times the local error of every
#: step those runs take (at least 3.7e-13)
ACTION_ROUNDOFF = 1e-13


def recorded_run(boundary, start, **kwargs) -> Recording:
    """``flow.integrate(boundary, start, **kwargs)`` and the history of its
    samples, from a spy on the flow's kernel, ``flow._gradient_coords``.

    The flow evaluates its first sample at the start, and every later one at
    the projection of the last stage point of the step it accepts (the point
    itself without a system), so the samples are the first call and each
    call made at the projection of the previous call's point.  A sample's
    action and gradient are what the kernel returned there.  Its time adds
    the step dt of the attempt it ends, whose six calls precede it: the
    first is at x + (dt/5) F(x), with x and F(x) the previous sample's.
    """
    system = kwargs.get("system")
    project = (lambda x: x) if system is None else system.project
    calls = []
    kernel = flow._gradient_coords

    def spy(boundary, coords, q):
        out = kernel(boundary, coords, q)
        calls.append((coords.copy(), out))
        return out

    flow._gradient_coords = spy
    try:
        run = flow.integrate(boundary, start, **kwargs)
    finally:
        flow._gradient_coords = kernel
    samples = [0] + [i for i in range(1, len(calls))
                     if np.array_equal(calls[i][0], project(calls[i - 1][0]))]
    assert len(samples) == run.n_steps + (run.reason != "guard_violation")
    points = [calls[i] for i in samples]      # (coords, (F, W)) of each sample
    times = [0.0]
    for (x, (f, _)), i in zip(points, samples[1:]):
        times.append(times[-1] + 5.0 * float((calls[i - 6][0] - x) @ f / (f @ f)))
    return Recording(run=run, lifts=[x for x, _ in points], times=np.array(times),
                     actions=np.array([w for _, (_, w) in points]),
                     grad_sq=np.array([float(np.sum(f * f)) for _, (f, _) in points]))


def trapezoid(y, x) -> float:
    """The trapezoid rule for samples y at points x, summed as numpy's
    ``trapezoid`` sums it (numpy before 2.0 has no ``trapezoid``)."""
    y, x = np.asarray(y), np.asarray(x)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def comparison_check(recorded_x, recorded_y) -> bool:
    """Whether run x stays strictly below run y at every recorded time > 0.

    Each argument is a :func:`recorded_run` recording; the runs must start
    from ordered, distinct states x(0) <= y(0).  Samples of the two runs are
    aligned by per-coordinate linear interpolation on the union of their
    time grids, truncated to the shorter run.
    """
    x0 = recorded_x.lifts[0]
    y0 = recorded_y.lifts[0]
    if np.any(x0 > y0):
        raise ValueError("requires x(0) <= y(0) componentwise")
    if np.array_equal(x0, y0):
        raise ValueError("requires x(0) != y(0)")
    t_x, t_y = recorded_x.times, recorded_y.times
    t_max = min(t_x[-1], t_y[-1])
    ts = np.union1d(t_x, t_y)
    ts = ts[(ts > 0.0) & (ts <= t_max)]
    if ts.size == 0:
        raise ValueError("runs share no positive recorded time")
    xs = np.vstack(recorded_x.lifts)
    ys = np.vstack(recorded_y.lifts)
    for j in range(xs.shape[1]):
        xj = np.interp(ts, t_x, xs[:, j])
        yj = np.interp(ts, t_y, ys[:, j])
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
