"""Symmetry-constrained gradient flow of the periodic action.

Integrates dx/dt = F(x) (F the action gradient) with an embedded
Dormand-Prince 5(4) pair, projecting every accepted step orthogonally onto the
symmetry class through its orbit basis (see :class:`~.sequences.AffineSystem`).
The run stops on a violated law of the flow (the action decreasing beyond the
local error, the crossing index against a reference lift increasing) and names
it.  It keeps no per-sample history: the result is the stop reason and where
the run stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import _gradient_coords
from .lagrangian import periodic_action  # noqa: F401 - a benchmark tracer site (ROADMAP item 1)
from .sequences import AffineSystem, PeriodicLift, first_inadmissible, intersection_index

# Dormand-Prince 5(4) tableau
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    # the fifth-order weights: the last stage point is the fifth-order solution
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])

#: the admissible-increment guard: increments must stay in (floor, 1 - floor)
GUARD_FLOOR = 1e-6
#: convergence: ||F||_inf below this
STATIONARITY_TOL = 1e-10
#: flow-time and accepted-step budgets of one run
MAX_TIME = 1e6
MAX_STEPS = 200_000
#: absolute and relative local-error tolerances of the step control
ABS_TOL = 1e-13
REL_TOL = 1e-11
#: first trial step and largest step of the integrator
INITIAL_STEP = 1e-2
MAX_STEP = 1e4
#: accepted steps without progress before the run is declared a plateau
PLATEAU_WINDOW = 400
#: ||F|| progress = beating the benchmark residual by this factor
PLATEAU_FACTOR = 0.9
#: consecutive stalled steps before the run is declared a plateau
PLATEAU_STEPS = 100
#: a step that moves the state less than this counts as stalled
DISPLACEMENT_TOL = 1e-12


@dataclass
class FlowResult:
    """Outcome of one flow run: why it stopped and where.

    ``reason`` is the one stop reason: "stationary", "max_time", or a failure
    ("step_underflow", "guard_violation", "action_decrease",
    "crossing_increase", "plateau", "persistent_tangency", "max_steps").
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
        """The stop reason, unless the run converged or reached max_time."""
        return None if self.reason in ("stationary", "max_time") else self.reason


def _guard_violation(coords: np.ndarray, q: int):
    lo = GUARD_FLOOR
    bad = first_inadmissible(coords, q, lo)
    if bad is not None:
        return f"increment {bad[0]} = {bad[1]:.6g} left ({lo:.3g}, {1 - lo:.3g})"
    return None


def integrate(boundary, start: PeriodicLift, system: AffineSystem | None = None,
              reference: PeriodicLift | None = None) -> FlowResult:
    """Run the constrained gradient flow from ``start`` until stationarity.

    Parameters
    ----------
    system : AffineSystem, optional
        Affine symmetry class; the start must (approximately) satisfy it, and
        the state is re-projected after every accepted step.
    reference : PeriodicLift, optional
        Lift against which the crossing index is checked to be non-increasing.

    The run converges when ``||F||_inf < STATIONARITY_TOL`` and the last step
    displacement is consistent with a stationary state; it stops unconverged
    at ``MAX_TIME`` or after ``MAX_STEPS`` accepted steps, on a guard
    violation, on a detected law violation (action decrease beyond 10x the
    local error, crossing increase), or on a plateau.
    A plateau is declared when, within the last ``PLATEAU_WINDOW`` accepted
    steps, ``||F||_inf`` has not improved by ``PLATEAU_FACTOR`` and no step
    gained action beyond its error budget (the integrator's local-error noise
    can floor the residual above the stationarity tolerance); the result then
    carries the best iterate, not the last one, with reason ``"plateau"``.
    """
    q = start.q
    x = np.asarray(start.coords, dtype=float).copy()
    msg = _guard_violation(x, q)
    if msg is not None:
        raise ValueError(f"start violates the admissible-increment guard: {msg}")
    if system is not None:
        projected = system.project(x)
        if np.max(np.abs(projected - x)) > 1e-6:
            raise ValueError("start does not satisfy the constraint system")
        x = projected

    def rhs(coords):
        return _gradient_coords(boundary, coords, q)

    def make_lift(coords):
        return PeriodicLift(start.p, q, coords)

    def crossing(coords):
        return None if reference is None else intersection_index(make_lift(coords), reference)

    f_cur, action = rhs(x)
    fnorm = float(np.max(np.abs(f_cur)))
    cross = crossing(x)
    reason = "stationary" if fnorm < STATIONARITY_TOL else None
    violation = None

    t = 0.0
    dt = min(INITIAL_STEP, MAX_TIME)
    steps = 0
    stalled = 0
    best_x, best_t, best_action, best_fnorm = x.copy(), t, action, fnorm
    bench_fnorm = fnorm      # benchmark at the last progress reset
    since_progress = 0
    last_crossing = cross if isinstance(cross, int) else None
    tangent_run = int(cross == "tangent")    # consecutive tangent samples
    stages = np.empty((7, x.size))

    while reason is None and steps < MAX_STEPS:
        stages[0] = f_cur
        for s in range(1, 7):
            xs = x + dt * (stages[:s].T @ _A[s, :s])
            f = rhs(xs)
            if f is None:
                err_ratio = np.inf
                break
            stages[s] = f[0]
        else:       # the last stage point xs is the fifth-order solution
            err_vec = xs - (x + dt * (stages.T @ _B4))
            scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(xs))
            err_ratio = max(float(np.max(np.abs(err_vec) / scale)), 1e-16)
        # a stage left the admissible region, or the error is not finite or
        # too large: retry with a smaller step
        if not err_ratio <= 1.0:
            dt *= max(0.2, 0.9 * err_ratio ** -0.2) if np.isfinite(err_ratio) else 0.2
            if dt < 1e-14:
                reason = "step_underflow"
            continue

        # accepted
        steps += 1
        x_new = xs if system is None else system.project(xs)
        err_abs = float(np.max(np.abs(err_vec)))
        violation = _guard_violation(x_new, q)
        if violation is not None:
            reason = "guard_violation"
            break
        displacement = float(np.max(np.abs(x_new - x)))
        t += dt
        x = x_new
        prev_action = action
        f_cur, action = rhs(x)
        fnorm = float(np.max(np.abs(f_cur)))

        budget = 10.0 * (err_abs * (1.0 + float(np.sum(np.abs(f_cur)))) + 1e-15)
        if action < prev_action - budget:
            reason = "action_decrease"
            break
        cross = crossing(x)
        tangent_run = tangent_run + 1 if cross == "tangent" else 0
        if isinstance(cross, int):
            if last_crossing is not None and cross > last_crossing:
                reason = "crossing_increase"
                break
            last_crossing = cross

        if fnorm < STATIONARITY_TOL and \
                displacement < max(DISPLACEMENT_TOL, dt * STATIONARITY_TOL):
            reason = "stationary"
            break

        # progress is judged against a benchmark frozen at the last reset, so
        # a slow steady decay (a few per mille per step) keeps resetting and
        # is never mistaken for a plateau; an action gain beyond the step's
        # error budget is progress too, since near a circle the flow leaves
        # the Birkhoff saddle with ||F|| rising for many steps
        since_progress += 1
        if fnorm < PLATEAU_FACTOR * bench_fnorm:
            since_progress = 0
            bench_fnorm = fnorm
        elif action - prev_action > budget:
            since_progress = 0
        if fnorm < best_fnorm:
            best_x, best_t, best_action, best_fnorm = x.copy(), t, action, fnorm
        stalled = stalled + 1 if displacement < DISPLACEMENT_TOL else 0
        if stalled >= PLATEAU_STEPS or since_progress >= PLATEAU_WINDOW:
            reason = "plateau"
            x, t, action, fnorm = best_x, best_t, best_action, best_fnorm
            break

        if t >= MAX_TIME:
            # a crossing index tangent at the last PLATEAU_STEPS samples
            # names the stop instead
            reason = "persistent_tangency" if tangent_run >= PLATEAU_STEPS else "max_time"
            break

        dt = min(max(dt * min(max(0.9 * err_ratio ** -0.2, 0.2), 5.0), 1e-14), MAX_STEP)
        dt = min(dt, MAX_TIME - t)

    return FlowResult(final_lift=make_lift(x), final_action=action,
                      reason=reason or "max_steps", t_final=t, grad_norm=fnorm,
                      n_steps=steps, domain_violation=violation)
