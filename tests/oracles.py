"""Reference implementations that the tests compare the package against.

Each computes, by a second route, something the package computes another way:
the chord partials one endpoint at a time (the package assembles the gradient
in one kernel), the Hessian of the action chord by chord in 40-digit decimal
arithmetic, the paper's closed form of the circulant Hessian at a
symmetric Birkhoff orbit, the gradient flow itself by an explicit
Dormand-Prince integrator (the package searches by pseudo-transient
continuation instead), the class basis as a dense matrix and the orthogonal
projection onto a class (the package keeps the basis as two vectors and never
projects), the comparison principle of two flow runs, integer translates of a
lift, orbit equality by a loop over time shifts and reversals, the
classification from whole p x p identity tables, each a strided view of a
window (the package gathers only the entries a prefilter needs) and the crossing count by its loop over zeros
(the package counts a difference without zeros in one pass).  It also
holds the helpers only tests use: the trapezoid rule and writing an orbit
file.
"""

import math
from decimal import Decimal, localcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

from billiardflow.lagrangian import _gradient_coords
from billiardflow.sequences import (CLASSIFY_TOL, FAMILIES, SNAP_TOL, GroupDescription,
                                    SymmetryGenerator, first_inadmissible, lift_text,
                                    type_label)
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


def cyclic_tridiagonal(diag, off):
    """H with diagonal ``diag`` and H[i, i+1] = H[i+1, i] = off[i], indices
    mod p, added entry by entry (at p = 2 both off entries join 0 and 1)."""
    p = diag.size
    h = np.diag(diag)
    for i in range(p):
        h[i, (i + 1) % p] += off[i]
        h[(i + 1) % p, i] += off[i]
    return h


def dense_basis(system) -> np.ndarray:
    """The class's orthonormal (p, d) orbit basis B as a dense matrix: row i
    holds ``weight[i]`` in column ``column[i]``, and a fixed vertex's row is 0."""
    basis = np.zeros((system.weight.size, system.dim))
    free = system.weight != 0
    basis[free, system.column[free]] = system.weight[free]
    return basis


def project(system, coords) -> np.ndarray:
    """The orthogonal projection base + B B^T (x - base) onto the class,
    written on its two vectors: B^T is a sum per orbit and B a gather, so each
    free orbit's signed displacements are replaced by their mean and a fixed
    orbit's by 0.  Raises ValueError on a coordinate count other than p."""
    dx = system._check(coords) - system.base
    sums = np.bincount(system.column, system.weight * dx)
    return system.base + system.weight * sums[system.column]


# Dormand-Prince 5(4) tableau; the last row is the fifth-order weights, so
# the last stage point is the fifth-order solution
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
#: absolute and relative local-error tolerances of its step control
DP5_ABS_TOL = 1e-13
DP5_REL_TOL = 1e-11


class Recording(NamedTuple):
    """A gradient-flow trajectory: each accepted sample's coordinates, time,
    action and sum of squared gradient entries, and whether the last sample
    is stationary."""

    lifts: list
    times: np.ndarray
    actions: np.ndarray
    grad_sq: np.ndarray
    converged: bool


#: the largest drop of the action between samples that the flow-law tests
#: forgive: a few units in the last place of the actions they meet (their
#: worst drop is 1.1e-14), and below ten times the local error of every
#: step those runs take (at least 3.7e-13)
ACTION_ROUNDOFF = 1e-13


def dp5_flow(boundary, start, system=None, t_max=np.inf, tol=1e-10,
             max_steps=20_000, first_step=1e-2) -> Recording:
    """The gradient flow dx/dt = F(x) from ``start`` by an embedded
    Dormand-Prince 5(4) pair, each accepted step projected onto ``system``.

    The step control keeps the local error below DP5_ABS_TOL + DP5_REL_TOL
    |x|; a stage off the admissible region (:func:`first_inadmissible`,
    checked before each stage's kernel call) shrinks the step.  The run
    stops once ||F||_inf < tol, at t_max, after max_steps accepted steps or
    once the step falls below 1e-14, and records every accepted sample.
    """
    onto = (lambda x: x) if system is None else (lambda x: project(system, x))
    q = start.q
    x = onto(np.asarray(start.coords, dtype=float))
    f, action = _gradient_coords(boundary, x)
    lifts, times, actions, grad_sq = [x], [0.0], [action], [float(f @ f)]
    t, dt = 0.0, min(first_step, t_max)
    stages = np.empty((7, x.size))
    while np.max(np.abs(f)) >= tol and t < t_max and len(lifts) <= max_steps \
            and dt > 1e-14:
        stages[0] = f
        for s in range(1, 7):
            xs = x + dt * (stages[:s].T @ _A[s, :s])
            if first_inadmissible(xs, q) is not None:
                ratio = np.inf
                break
            stages[s] = _gradient_coords(boundary, xs)[0]
        else:
            err = xs - (x + dt * (stages.T @ _B4))
            scale = DP5_ABS_TOL + DP5_REL_TOL * np.maximum(np.abs(x), np.abs(xs))
            ratio = max(float(np.max(np.abs(err) / scale)), 1e-16)
        if ratio <= 1.0:
            t += dt
            x = onto(xs)
            f, action = _gradient_coords(boundary, x)
            lifts.append(x)
            times.append(t)
            actions.append(action)
            grad_sq.append(float(f @ f))
        factor = 0.2 if not np.isfinite(ratio) else min(max(0.9 * ratio ** -0.2, 0.2), 5.0)
        dt = min(dt * factor, 1e4, t_max - t)
    return Recording(lifts=lifts, times=np.array(times), actions=np.array(actions),
                     grad_sq=np.array(grad_sq), converged=bool(np.max(np.abs(f)) < tol))


def trapezoid(y, x) -> float:
    """The trapezoid rule for samples y at points x, summed as numpy's
    ``trapezoid`` sums it (numpy before 2.0 has no ``trapezoid``)."""
    y, x = np.asarray(y), np.asarray(x)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def comparison_check(recorded_x, recorded_y) -> bool:
    """Whether run x stays strictly below run y at every recorded time > 0.

    Each argument is a :func:`dp5_flow` recording; the runs must start
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


def identity_table(lift, family) -> np.ndarray:
    """[k, i] -> x_{k + d i} - sign x_i - c i for k, i = 0..p-1, with (d, sign, c)
    the row of ``family`` in ``FAMILIES``: row k is a run of p entries of the
    window x_{1-p} .. x_{2p-2}, reversed when d = -1."""
    d, sign, c = FAMILIES[family]
    p = lift.p
    runs = np.lib.stride_tricks.sliding_window_view(lift.value(np.arange(1 - p, 2 * p - 1)), p)
    return (runs[p - 1:] if d > 0 else runs[:p, ::-1]) - sign * lift.coords - c * np.arange(p)


def full_table_group(lift, n) -> GroupDescription:
    """:func:`~billiardflow.sequences.spatiotemporal_group` from whole tables:
    each family's p x p identity table, every row scored against every
    exponent e/n, well-ordering read off every entry of the
    rotation-preserving table and the minimal period off its divisor rows."""
    p = lift.p
    tables = {family: identity_table(lift, family) for family in FAMILIES}
    scores = {}
    for family, table in tables.items():
        first = table[:, 0] - (np.arange(n) / n)[:, None]
        nearest = np.round(first)
        spread = np.max(np.abs(table - table[:, :1]), axis=1)
        scores[family] = (np.maximum(spread, np.abs(first - nearest)), nearest)
    elements, exponents = [], {family: set() for family in FAMILIES}
    for e in range(n):
        for family, (score, nearest) in scores.items():
            hits = np.flatnonzero(score[e] <= CLASSIFY_TOL)
            if hits.size:
                k = int(hits[0])
                elements.append(SymmetryGenerator(family, e, k, int(nearest[e, k])))
                exponents[family].add(e)
    ref_pres, ref_rev = exponents["reflection_preserving"], exponents["reflection_reversing"]
    opposite = [scores["reflection_reversing"][0][e].min() for e in ref_pres - ref_rev]
    opposite += [scores["reflection_preserving"][0][e].min() for e in ref_rev - ref_pres]
    borderline = float(min(opposite, default=0.0)) if ref_pres | ref_rev else None
    rotation = tables["rotation_preserving"]
    nearest = np.round(rotation)
    ceilings = np.where(np.abs(rotation - nearest) < SNAP_TOL, nearest, np.ceil(rotation))
    birkhoff = bool(np.all(ceilings == ceilings[:, :1]))
    period = scores["rotation_preserving"][0][0]
    minimal = next((d for d in range(1, p) if p % d == 0 and period[d] <= CLASSIFY_TOL), p)
    return GroupDescription(elements, type_label(exponents, n, birkhoff), birkhoff,
                            minimal, lift.q * minimal // p, borderline)


def loop_intersection_index(xl, yl):
    """:func:`~billiardflow.sequences.intersection_index` with its loop over
    zeros on every call: sign changes of x - y over one period, or "tangent"
    when a zero (|x_i - y_i| <= SNAP_TOL) is no transversal crossing or every
    difference is one."""
    d = xl.coords - yl.coords
    p = xl.p
    zero = np.abs(d) <= SNAP_TOL
    if np.all(zero):
        return "tangent"
    for i in np.nonzero(zero)[0]:
        if not d[(i - 1) % p] * d[(i + 1) % p] < 0:
            return "tangent"
    signs = np.sign(d[~zero])
    return int(np.count_nonzero(signs[1:] != signs[:-1])) + int(signs[0] != signs[-1])
