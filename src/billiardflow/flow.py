"""Symmetry-constrained search for a local maximum of the periodic action.

Pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998)
in the symmetry class's orthonormal orbit basis B (see
:class:`~.sequences.AffineSystem`): each iterate is one linearly implicit
Euler step of the gradient flow dx/dt = F(x) with pseudo-time step delta,

    d = (I/delta - B^T H B)^{-1} B^T F,    x <- x + B d,

F, the action W and its Hessian H read off one order-2 kernel call.  B is a
gather and B^T a bincount.  The class keeps its orbits in path order, so
B^T H B is one bincount of H's entries into a tridiagonal matrix (with one
corner when the orbits form a cycle), and one pivot-free LDL^T per trial
step solves for d in O(d): no step builds a d x d matrix.  delta
grows by switched evolution relaxation (Mulder & van Leer, J. Comput. Phys.
59, 1985), so the step turns into Newton's method as the iterate nears a
maximum.  A step that leaves the guard, lowers the action or raises the
crossing count against a reference lift is rejected and delta cut.  At
delta = infinity the iteration is Newton's method from its first step, and a
rejected step ends the run: :func:`newton`, the corrector that accepts or
rejects a continued lift.  It keeps no per-iterate history: the result is
the stop reason and where the run stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .lagrangian import _gradient_coords
from .lagrangian import periodic_action  # noqa: F401 - a benchmark tracer site (ROADMAP item 1)
from .sequences import (SNAP_TOL, AffineSystem, PeriodicLift, _crossings,
                        first_inadmissible, intersection_index)

#: the admissible-increment guard: increments must stay in (floor, 1 - floor)
GUARD_FLOOR = 1e-6
#: convergence: ||F||_inf below RESIDUAL_TARGET, or below STATIONARITY_TOL
#: once the step ||d||_inf is no smaller than the last accepted one (the
#: step's roundoff floor; ||F||_inf's lies near 1e-12 at p = 192)
RESIDUAL_TARGET = 1e-12
STATIONARITY_TOL = 1e-10
#: accepted-step budget of one run
MAX_STEPS = 500
#: the first pseudo-time step of a search, and the cap of its growth
DELTA_START = 5e-3
DELTA_MAX = 1e12
#: a run whose rejections cut delta below this stops
DELTA_MIN = 1e-14
#: a step may lower the action by this much, relative, before it is rejected
ACTION_RTOL = 1e-12
#: a corrected lift is accepted only when Newton's first step passes the
#: simplified-Newton monotonicity test ||dx_bar_1|| < THETA_MAX ||dx_0||
THETA_MAX = 0.5


@dataclass
class FlowResult:
    """Outcome of one search: why it stopped and where.

    ``reason`` is the one stop reason: "stationary", or a failure
    ("max_steps", "step_underflow", and, at delta = infinity only,
    "guard_violation", "action_decrease", "crossing_increase").
    ``n_steps`` counts accepted iterations and ``t_final`` the pseudo-time
    they covered, the sum of their finite deltas.
    """

    final_lift: PeriodicLift
    final_action: float                 # the action at final_lift
    reason: str
    t_final: float
    grad_norm: float
    n_steps: int
    domain_violation: str | None = None  # the guard's message on "guard_violation"

    @property
    def converged(self) -> bool:
        return self.reason == "stationary"

    @property
    def failure(self) -> str | None:
        """The stop reason, unless the run converged."""
        return None if self.converged else self.reason


def _guard_violation(coords: np.ndarray, q: int):
    lo = GUARD_FLOOR
    bad = first_inadmissible(coords, q, lo)
    if bad is not None:
        return f"increment {bad[0]} = {bad[1]:.6g} left ({lo:.3g}, {1 - lo:.3g})"
    return None


def _evaluate(boundary, lift: PeriodicLift) -> tuple:
    """The order-2 kernel at ``lift``, (F, W, (diag, off)), once the lift is
    inside the guard; otherwise ValueError names the increment outside."""
    msg = _guard_violation(lift.coords, lift.q)
    if msg is not None:
        raise ValueError(f"start violates the admissible-increment guard: {msg}")
    return _gradient_coords(boundary, lift.coords, 2)


def _factor(diag: list, off: list) -> tuple:
    """Pivot-free LDL^T of the symmetric matrix with diagonal ``diag``,
    A[j, j+1] = off[j] and the corner A[d-1, 0] = off[d-1] (0 on a path; at
    d = 2 both entries of ``off`` join 0 and 1, at d = 1 neither counts), in
    O(d) (Golub & Van Loan, Matrix Computations, 4th ed., 4.3): the
    reciprocal pivots 1/D, L's sub-diagonal L[j, j-1] (0 at j = 0 and at
    j = d-1) and L's last row, which carries the corner's fill.  A zero or
    non-finite pivot gives the reciprocal NaN, which spreads to every later
    pivot and to every entry of a solve, so nothing raises.
    """
    d = len(diag)
    if not d:
        return [], [], []
    inf, nan = math.inf, math.nan
    inv, low, last = [], [0.0], []
    piv, fill, end = diag[0], off[-1], diag[-1]
    for a, b in zip(diag[1:-1], off):
        r = 1.0 / piv if 0.0 < abs(piv) < inf else nan
        l, m = b * r, fill * r
        inv.append(r)
        low.append(l)
        last.append(m)
        end -= m * fill
        piv, fill = a - l * b, -m * b
    if d > 1:       # the last row meets the sub-diagonal
        r = 1.0 / piv if 0.0 < abs(piv) < inf else nan
        fill += off[-2]
        m = fill * r
        inv.append(r)
        low.append(0.0)
        last.append(m)
        piv = end - m * fill
    inv.append(1.0 / piv if 0.0 < abs(piv) < inf else nan)
    return inv, low, last


def _solve(factor: tuple, g: list) -> list:
    """x with L D L^T x = g, for the ``factor`` of :func:`_factor`."""
    inv, low, last = factor
    y, prev = [], 0.0
    for v, l in zip(g, low):
        prev = v - l * prev
        y.append(prev)
    if not y:
        return y
    end = prev = (prev - sum(map(mul, last, y))) * inv[-1]
    x = [end]
    for v, r, l, m in zip(y[-2::-1], inv[-2::-1], low[:0:-1], last[::-1]):
        prev = v * r - l * prev - m * end
        x.append(prev)
    x.reverse()
    return x


def _search(boundary, start: PeriodicLift, system: AffineSystem,
            reference: PeriodicLift, delta: float, evaluation: tuple | None = None):
    """The iteration from ``start`` at first pseudo-time step ``delta``.

    ``evaluation`` is the order-2 kernel at the guarded ``start`` when the
    caller has it, else the search evaluates the start (:func:`_evaluate`).

    B^T H B is built only where a trial step follows, and at delta = infinity
    at the limit.  Each trial step factors it once (:func:`_factor`); a
    zero or non-finite pivot gives a NaN step, which the guard rejects, so
    at a finite delta delta is cut by 4, and at delta = infinity the run
    ends with "guard_violation".  Returns the :class:`FlowResult` and, at
    delta = infinity, the verdict of :func:`newton`: the first accepted
    step's contraction ratio ||(I/delta - R_0)^{-1} B^T F_1|| / ||d_0||
    (the simplified step at the new iterate against the step taken, with
    the old factorization; 0 without a step) and the first failed test.
    At a finite delta they are 0 and None.
    """
    exact = delta == np.inf
    q = start.q
    x = start.coords
    f, action, h = _evaluate(boundary, start) if evaluation is None else evaluation
    if system.residual(x) > SNAP_TOL:
        raise ValueError("start does not satisfy the constraint system")

    fnorm = float(np.abs(f).max())
    g = system.reduce(f)
    gnorm = None if exact else math.sqrt(g @ g)    # ||B^T F||, carried over
    cross = intersection_index(start, reference)
    # the last integer count; a tangent start bounds nothing until there is one
    last_crossing = cross if isinstance(cross, int) else np.inf
    steps, t, ratio, violation, last_size = 0, 0.0, 0.0, None, np.inf
    while True:
        if fnorm < RESIDUAL_TARGET:
            reason = "stationary"
            break
        if steps == MAX_STEPS:
            reason = "max_steps"
            break
        r_diag, r_off = system.reduced_hessian(*h)
        rhs, off = g.tolist(), (-r_off).tolist()
        while True:     # trial steps from x, delta cut after each rejection
            factor = _factor((1.0 / delta - r_diag).tolist(), off)
            step = _solve(factor, rhs)
            size = max(map(abs, step), default=0.0)
            if fnorm < STATIONARITY_TOL and size >= last_size:
                # the step has reached its roundoff floor
                reason = "stationary"
                break
            d = np.array(step)
            x_new = x + system.expand(d)
            violation = _guard_violation(x_new, q)
            reason = None if violation is None else "guard_violation"
            if reason is None:
                f_new, action_new, h_new = _gradient_coords(boundary, x_new, 2)
                cross = _crossings(x_new - reference.coords)
                if action_new < action - ACTION_RTOL * abs(action):
                    reason = "action_decrease"
                elif isinstance(cross, int) and cross > last_crossing:
                    reason = "crossing_increase"
            if reason is None or delta == np.inf:
                break
            delta /= 4.0
            if delta < DELTA_MIN:
                reason = "step_underflow"
                break
        if reason is not None:
            break

        steps += 1
        if delta < np.inf:
            t += delta
        g_new = system.reduce(f_new)
        if exact and steps == 1:
            norm = math.sqrt(d @ d)
            simplified = np.array(_solve(factor, g_new.tolist()))
            ratio = math.sqrt(simplified @ simplified) / norm if norm else 0.0
        if not exact:
            norm_new = math.sqrt(g_new @ g_new)
            # grow by the residual ratio, at least 2; a zero residual jumps to the cap
            growth = gnorm / norm_new if norm_new else np.inf
            delta = min(delta * max(growth, 2.0), DELTA_MAX)
            gnorm = norm_new
        x, f, action, h, g = x_new, f_new, action_new, h_new, g_new
        fnorm, last_size = float(np.abs(f).max()), size
        if isinstance(cross, int):
            last_crossing = cross

    run = FlowResult(final_lift=PeriodicLift(start.p, q, x), final_action=action,
                     reason=reason, t_final=t, grad_norm=fnorm,
                     n_steps=steps,
                     domain_violation=violation if reason == "guard_violation" else None)
    if not exact:
        return run, ratio, None
    if not ratio < THETA_MAX:
        return run, ratio, "step 1 failed the monotonicity test"
    if not run.converged:
        return run, ratio, f"{reason} after {steps} steps"
    # Sylvester's law of inertia: B^T H B is negative definite when every
    # pivot of -B^T H B is positive
    r_diag, r_off = system.reduced_hessian(*h)
    inv = _factor((-r_diag).tolist(), (-r_off).tolist())[0]
    up = sum(not r > 0 for r in inv)
    return run, ratio, None if not up else (
        f"the reduced Hessian has an eigenvalue >= 0: {up} of the {len(inv)} "
        "LDL^T pivots of -B^T H B are not positive")


def integrate(boundary, start: PeriodicLift, system: AffineSystem,
              reference: PeriodicLift, *, _evaluation: tuple | None = None) -> FlowResult:
    """Search from ``start`` for a stationary point of the action: the
    iteration at first pseudo-time step ``DELTA_START``.

    Parameters
    ----------
    system : AffineSystem
        Affine symmetry class; the start must satisfy it to ``SNAP_TOL``, and
        every step stays in it.  ``expand_constraints(n, (), p, q)`` is the
        class of every lift.
    reference : PeriodicLift
        Lift against which the integer crossing index may not increase.

    The run converges when ``||F||_inf < RESIDUAL_TARGET``, or when
    ``||F||_inf < STATIONARITY_TOL`` and the step ``||d||_inf`` is no smaller
    than the last accepted one, at the iterate the step was taken from; it
    stops unconverged after ``MAX_STEPS`` accepted steps, or when rejections
    cut delta below ``DELTA_MIN``.  ``_evaluation`` is internal: the
    caller's :func:`_evaluate` at ``start``, which the search then reuses.
    """
    return _search(boundary, start, system, reference, DELTA_START, _evaluation)[0]


def newton(boundary, guess: PeriodicLift, system: AffineSystem,
           reference: PeriodicLift):
    """The corrector: Newton's method in the class's orbit basis from
    ``guess``, the iteration at delta = infinity, where a rejected step ends
    the run.

    The guess, an affine combination of lifts of the class, is not projected
    (a stationary lift comes back bit for bit).  Returns (run, ratio, why):
    the :class:`FlowResult` (whose ``t_final`` is 0), the first step's
    contraction ratio (Deuflhard's simplified-Newton monotonicity ratio), and
    None when the lift is accepted, or else the first failed test: the first
    step fails ratio < THETA_MAX, the run stops unconverged, or B^T H B at
    the limit is not negative definite (the limit is no strict local maximum
    of the action in the class), read off the signs of the LDL^T pivots of
    -B^T H B.  A guess outside the guard is not run: run is None and ratio 0.
    """
    if _guard_violation(guess.coords, guess.q) is not None:
        return None, 0.0, "the guess is not admissible"
    return _search(boundary, guess, system, reference, np.inf,
                   _gradient_coords(boundary, guess.coords, 2))
