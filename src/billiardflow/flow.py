"""Symmetry-constrained search for a local maximum of the periodic action.

Pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998)
in the symmetry class's orthonormal orbit basis B (see
:class:`~.sequences.AffineSystem`): each iterate is one linearly implicit
Euler step of the gradient flow dx/dt = F(x) with pseudo-time step delta,

    d = (I/delta - B^T H B)^{-1} B^T F,    x <- x + B d,

F, the action W and its Hessian H read off one order-2 kernel call.  B is a
gather and B^T a bincount, and B^T H B is assembled from H's 3p nonzero
entries, so only the d x d solve costs more than O(p).  delta
grows by switched evolution relaxation (Mulder & van Leer, J. Comput. Phys.
59, 1985), so the step turns into Newton's method as the iterate nears a
maximum.  A step that leaves the guard, lowers the action or raises the
crossing count against a reference lift is rejected and delta cut.  At
delta = infinity the iteration is Newton's method from its first step, and a
rejected step ends the run.  It keeps no per-iterate history: the result is
the stop reason and where the run stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import _gradient_coords
from .lagrangian import periodic_action  # noqa: F401 - a benchmark tracer site (ROADMAP item 1)
from .sequences import (SNAP_TOL, AffineSystem, PeriodicLift, first_inadmissible,
                        intersection_index)

#: the admissible-increment guard: increments must stay in (floor, 1 - floor)
GUARD_FLOOR = 1e-6
#: convergence: ||F||_inf below RESIDUAL_TARGET, or below STATIONARITY_TOL
#: once a step no longer lowers it (its roundoff floor, which at p = 192
#: lies near 1e-12)
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


def _search(boundary, start: PeriodicLift, system: AffineSystem | None,
            reference: PeriodicLift | None, delta: float):
    """The iteration from ``start`` at first pseudo-time step ``delta``.

    Returns the :class:`FlowResult`, the first accepted step's contraction
    ratio ||(I/delta - R_0)^{-1} B^T F_1|| / ||d_0|| (the simplified step at
    the new iterate against the step taken, with the old matrix; 0 without a
    step) and the reduced Hessian R = B^T H B at the last iterate.  Without a
    ``system`` the class is every lift, B = I.
    """
    q = start.q
    x = np.asarray(start.coords, dtype=float)
    msg = _guard_violation(x, q)
    if msg is not None:
        raise ValueError(f"start violates the admissible-increment guard: {msg}")
    if system is None:
        system = AffineSystem.identity(x.size)
    if system.residual(x) > SNAP_TOL:
        raise ValueError("start does not satisfy the constraint system")
    eye = np.eye(system.dim)

    def crossing(coords):
        if reference is None:
            return None
        return intersection_index(PeriodicLift(start.p, q, coords), reference)

    f, action, h = _gradient_coords(boundary, x, q, 2)
    fnorm = float(np.max(np.abs(f)))
    g = system.reduce(f)
    cross = crossing(x)
    last_crossing = cross if isinstance(cross, int) else None
    steps, t, ratio, violation = 0, 0.0, 0.0, None
    while True:
        reduced = system.reduced_hessian(*h)
        if fnorm < RESIDUAL_TARGET:
            reason = "stationary"
            break
        if steps == MAX_STEPS:
            reason = "max_steps"
            break
        while True:     # trial steps from x, delta cut after each rejection
            matrix = eye / delta - reduced
            d = np.linalg.solve(matrix, g)
            x_new = x + system.expand(d)
            violation = _guard_violation(x_new, q)
            reason = None if violation is None else "guard_violation"
            if reason is None:
                f_new, action_new, h_new = _gradient_coords(boundary, x_new, q, 2)
                cross = crossing(x_new)
                if action_new < action - ACTION_RTOL * abs(action):
                    reason = "action_decrease"
                elif isinstance(cross, int) and last_crossing is not None \
                        and cross > last_crossing:
                    reason = "crossing_increase"
            if reason is None or delta == np.inf:
                break
            delta /= 4.0
            if delta < DELTA_MIN:
                reason = "step_underflow"
                break
        if reason is not None:
            break
        fnorm_new = float(np.max(np.abs(f_new)))
        if fnorm < STATIONARITY_TOL and not fnorm_new < fnorm:
            # the residual has reached its roundoff floor
            reason = "stationary"
            break

        steps += 1
        if delta < np.inf:
            t += delta
        g_new = system.reduce(f_new)
        if steps == 1:
            size = float(np.linalg.norm(d))
            ratio = float(np.linalg.norm(np.linalg.solve(matrix, g_new))) / size if size else 0.0
        if delta < DELTA_MAX:
            # grow by the residual ratio, at least 2; a zero residual jumps to the cap
            norm_new = float(np.linalg.norm(g_new))
            growth = float(np.linalg.norm(g)) / norm_new if norm_new else np.inf
            delta = min(delta * max(growth, 2.0), DELTA_MAX)
        x, f, fnorm, action, h, g = x_new, f_new, fnorm_new, action_new, h_new, g_new
        if isinstance(cross, int):
            last_crossing = cross

    run = FlowResult(final_lift=PeriodicLift(start.p, q, x), final_action=action,
                     reason=reason, t_final=t, grad_norm=fnorm,
                     n_steps=steps,
                     domain_violation=violation if reason == "guard_violation" else None)
    return run, ratio, reduced


def integrate(boundary, start: PeriodicLift, system: AffineSystem | None = None,
              reference: PeriodicLift | None = None) -> FlowResult:
    """Search from ``start`` for a stationary point of the action: the
    iteration at first pseudo-time step ``DELTA_START``.

    Parameters
    ----------
    system : AffineSystem, optional
        Affine symmetry class; the start must satisfy it to ``SNAP_TOL``, and
        every step stays in it.
    reference : PeriodicLift, optional
        Lift against which the integer crossing index may not increase.

    The run converges when ``||F||_inf < RESIDUAL_TARGET``, or when
    ``||F||_inf < STATIONARITY_TOL`` and a step does not lower it; it stops
    unconverged after ``MAX_STEPS`` accepted steps, or when rejections cut
    delta below ``DELTA_MIN``.
    """
    return _search(boundary, start, system, reference, DELTA_START)[0]


def newton(boundary, start: PeriodicLift, system: AffineSystem,
           reference: PeriodicLift | None = None):
    """Newton's method in the class's orbit basis from ``start``: the
    iteration at delta = infinity, where a rejected step ends the run.

    Returns the :class:`FlowResult` (whose ``t_final`` is 0), the first
    step's contraction ratio (Deuflhard's simplified-Newton monotonicity
    ratio) and the reduced Hessian B^T H B at the last iterate.
    """
    return _search(boundary, start, system, reference, np.inf)
