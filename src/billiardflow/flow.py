"""Symmetry-constrained gradient flow of the periodic action.

Integrates dx/dt = F(x) (F the action gradient) with an embedded
Dormand-Prince 5(4) pair, projecting every accepted step orthogonally onto the
symmetry class through its orbit basis (see :class:`~.sequences.AffineSystem`).
Along the way the run verifies the structural laws of the flow — the action
never decreases beyond the local error, the crossing index against a reference
lift never increases, the constraint residual stays at roundoff — and reports
any violation distinctly instead of silently continuing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lagrangian import _gradient_coords, periodic_action
from .sequences import AffineSystem, PeriodicLift, intersection_index

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

#: hard floor of the admissible-increment guard (applies even with margin 0)
GUARD_FLOOR = 1e-6
#: consecutive stalled steps before the run is declared a plateau
PLATEAU_STEPS = 100


@dataclass
class FlowOptions:
    """Tolerances and limits for :func:`integrate`."""

    initial_step: float = 1e-2
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    stationarity_tol: float = 1e-10      # convergence: ||F||_inf below this
    displacement_tol: float = 1e-12      # secondary check on the step displacement
    max_time: float = 1e6
    max_steps: int = 200_000
    max_step: float = 1e4
    guard_margin: float = 0.0            # increments must stay in [margin, 1-margin]
    plateau_window: int = 400            # accepted steps without ||F|| progress
    plateau_factor: float = 0.9          # "progress" = beating the best by this factor
    record_every: int = 1                # record every k-th accepted step
    record_lifts: bool = False           # keep coordinate snapshots (comparison runs)

    def __post_init__(self):
        if not 0.0 <= self.guard_margin < 0.5:
            raise ValueError("guard_margin must lie in [0, 0.5)")
        # written so that NaN fails each test
        if not (self.stationarity_tol > 0 and self.max_time > 0):
            raise ValueError("tolerances and max_time must be positive")
        if not (self.abs_tol >= 0 and self.rel_tol >= 0) or self.abs_tol == self.rel_tol == 0:
            raise ValueError(f"abs_tol and rel_tol must be >= 0 and not both 0, "
                             f"got {self.abs_tol} and {self.rel_tol}")
        if not (self.initial_step > 0 and self.max_step > 0):
            raise ValueError(f"initial_step and max_step must be positive, "
                             f"got {self.initial_step} and {self.max_step}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.plateau_window < 1 or not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_window must be >= 1 and plateau_factor in (0, 1)")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class FlowResult:
    """Outcome of one flow run, with per-sample histories for the law checks."""

    final_lift: PeriodicLift
    converged: bool
    reason: str                         # "stationary" | "max_time" | failure code
    t_final: float
    grad_norm: float
    n_steps: int
    times: np.ndarray
    actions: np.ndarray
    grad_sq: np.ndarray                 # sum of squared gradient entries per sample
    local_errors: np.ndarray            # embedded error estimate per sample
    constraint_residuals: np.ndarray
    crossings: list                     # per sample: int, "tangent", or None
    lifts: list | None = None           # coordinate snapshots when recorded
    failure: str | None = None
    domain_violation: str | None = None
    anomalies: list = field(default_factory=list)


def _guard_violation(coords: np.ndarray, q: int, lo: float):
    inc = np.diff(coords, append=coords[0] + q)
    bad = np.nonzero((inc < lo) | (inc > 1.0 - lo))[0]
    if bad.size:
        i = int(bad[0])
        return f"increment {i} = {inc[i]:.6g} left [{lo:.3g}, {1 - lo:.3g}]"
    return None


def integrate(boundary, start: PeriodicLift, system: AffineSystem | None = None,
              options: FlowOptions | None = None,
              reference: PeriodicLift | None = None) -> FlowResult:
    """Run the constrained gradient flow from ``start`` until stationarity.

    Parameters
    ----------
    system : AffineSystem, optional
        Affine symmetry class; the start must (approximately) satisfy it, and
        the state is re-projected after every accepted step.
    reference : PeriodicLift, optional
        Lift against which the crossing index is recorded and checked to be
        non-increasing.

    The run converges when ``||F||_inf < stationarity_tol`` and the last step
    displacement is consistent with a stationary state; it stops unconverged
    at ``max_time``, on a guard violation, on a detected law violation (action
    decrease beyond 10x the local error, crossing increase), or on a plateau.
    A plateau is declared when the best ``||F||_inf`` seen has not improved by
    ``plateau_factor`` within the last ``plateau_window`` accepted steps (the
    integrator's local-error noise can floor the residual above the
    stationarity tolerance); the result then carries the best iterate, not the
    last one, and ``converged=False`` with reason ``"plateau"``.
    """
    opts = options or FlowOptions()
    q = start.q
    lo = max(opts.guard_margin, GUARD_FLOOR)

    x = np.asarray(start.coords, dtype=float).copy()
    msg = _guard_violation(x, q, lo)
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

    times, actions, grad_sq, local_errors, residuals = [], [], [], [], []
    crossings = []
    lift_snaps = [] if opts.record_lifts else None

    def record(t, coords, fvec, err):
        times.append(t)
        actions.append(periodic_action(boundary, make_lift(coords)))
        grad_sq.append(float(np.sum(fvec * fvec)))
        local_errors.append(err)
        residuals.append(system.residual(coords) if system is not None else 0.0)
        if reference is not None:
            crossings.append(intersection_index(make_lift(coords), reference))
        else:
            crossings.append(None)
        if lift_snaps is not None:
            lift_snaps.append(coords.copy())

    def result(coords, converged, reason, t, fnorm, steps, failure=None, violation=None):
        return FlowResult(
            final_lift=make_lift(coords), converged=converged, reason=reason,
            t_final=t, grad_norm=fnorm, n_steps=steps,
            times=np.asarray(times), actions=np.asarray(actions),
            grad_sq=np.asarray(grad_sq), local_errors=np.asarray(local_errors),
            constraint_residuals=np.asarray(residuals), crossings=crossings,
            lifts=lift_snaps, failure=failure, domain_violation=violation,
        )

    f_cur = rhs(x)
    fnorm = float(np.max(np.abs(f_cur)))
    record(0.0, x, f_cur, 0.0)
    if fnorm < opts.stationarity_tol:
        return result(x, True, "stationary", 0.0, fnorm, 0)

    t = 0.0
    dt = min(opts.initial_step, opts.max_time)
    steps = 0
    stalled = 0
    best_x = x.copy()
    best_fnorm = fnorm
    best_t = 0.0
    bench_fnorm = fnorm      # benchmark at the last progress reset
    since_progress = 0
    last_recorded_action = actions[0]
    last_recorded_crossing = crossings[0] if isinstance(crossings[0], int) else None
    stages = np.empty((7, x.size))

    while steps < opts.max_steps:
        stages[0] = f_cur
        for s in range(1, 7):
            xs = x + dt * (stages[:s].T @ _A[s, :s])
            f = rhs(xs)
            if f is None:
                break
            stages[s] = f
        if f is not None:
            x5 = xs
            x4 = x + dt * (stages.T @ _B4)
            err_vec = x5 - x4
            scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x5))
            err_ratio = max(float(np.max(np.abs(err_vec) / scale)), 1e-16)
        # a stage left the admissible region, or the error is not finite:
        # retry with a smaller step
        if f is None or not np.isfinite(err_ratio):
            dt *= 0.2
            if dt < 1e-14:
                return result(x, False, "step_underflow", t, fnorm, steps,
                              failure="step_underflow")
            continue
        if err_ratio > 1.0:
            dt *= max(0.2, 0.9 * err_ratio ** -0.2)
            if dt < 1e-14:
                return result(x, False, "step_underflow", t, fnorm, steps,
                              failure="step_underflow")
            continue

        # accepted
        steps += 1
        x_new = x5 if system is None else system.project(x5)
        err_abs = float(np.max(np.abs(err_vec)))
        msg = _guard_violation(x_new, q, lo)
        if msg is not None:
            return result(x, False, "guard_violation", t, fnorm, steps,
                          failure="guard_violation", violation=msg)
        displacement = float(np.max(np.abs(x_new - x)))
        t += dt
        x = x_new
        f_cur = rhs(x)
        fnorm = float(np.max(np.abs(f_cur)))

        if steps % opts.record_every == 0 or fnorm < opts.stationarity_tol or t >= opts.max_time:
            record(t, x, f_cur, err_abs)
            action = actions[-1]
            budget = 10.0 * (err_abs * (1.0 + float(np.sum(np.abs(f_cur)))) + 1e-15)
            if action < last_recorded_action - budget:
                return result(x, False, "action_decrease", t, fnorm, steps,
                              failure="action_decrease")
            last_recorded_action = action
            cross = crossings[-1]
            if isinstance(cross, int):
                if last_recorded_crossing is not None and cross > last_recorded_crossing:
                    return result(x, False, "crossing_increase", t, fnorm, steps,
                                  failure="crossing_increase")
                last_recorded_crossing = cross

        if fnorm < opts.stationarity_tol and \
                displacement < max(opts.displacement_tol, dt * opts.stationarity_tol):
            return result(x, True, "stationary", t, fnorm, steps)

        # progress is judged against a benchmark frozen at the last reset, so
        # a slow steady decay (a few per mille per step) keeps resetting and
        # is never mistaken for a plateau
        since_progress += 1
        if fnorm < opts.plateau_factor * bench_fnorm:
            since_progress = 0
            bench_fnorm = fnorm
        if fnorm < best_fnorm:
            best_fnorm = fnorm
            best_x = x.copy()
            best_t = t
        stalled = stalled + 1 if displacement < opts.displacement_tol else 0
        if stalled >= PLATEAU_STEPS or since_progress >= opts.plateau_window:
            return result(best_x, False, "plateau", best_t, best_fnorm, steps,
                          failure="plateau")

        if t >= opts.max_time:
            reason = "max_time"
            failure = None
            if reference is not None and crossings and crossings[-1] == "tangent":
                trailing = 0
                for c in reversed(crossings):
                    if c == "tangent":
                        trailing += 1
                    else:
                        break
                if trailing >= PLATEAU_STEPS:
                    reason = failure = "persistent_tangency"
            return result(x, False, reason, t, fnorm, steps, failure=failure)

        dt = float(np.clip(dt * np.clip(0.9 * err_ratio ** -0.2, 0.2, 5.0),
                           1e-14, opts.max_step))
        dt = min(dt, opts.max_time - t)

    return result(x, False, "max_steps", t, fnorm, steps, failure="max_steps")


def comparison_check(run_x: FlowResult, run_y: FlowResult) -> bool:
    """Whether run_x stays strictly below run_y at every recorded time > 0.

    Both runs must have been recorded with ``record_lifts=True`` and start
    from ordered, distinct states x(0) <= y(0).  Samples of the two runs are
    aligned by per-coordinate linear interpolation on the union of their time
    grids, truncated to the shorter run.
    """
    if run_x.lifts is None or run_y.lifts is None:
        raise ValueError("comparison_check needs runs recorded with record_lifts=True")
    x0 = run_x.lifts[0]
    y0 = run_y.lifts[0]
    if np.any(x0 > y0):
        raise ValueError("requires x(0) <= y(0) componentwise")
    if np.array_equal(x0, y0):
        raise ValueError("requires x(0) != y(0)")
    t_max = min(run_x.times[-1], run_y.times[-1])
    ts = np.union1d(run_x.times, run_y.times)
    ts = ts[(ts > 0.0) & (ts <= t_max)]
    if ts.size == 0:
        raise ValueError("runs share no positive recorded time")
    xs = np.vstack(run_x.lifts)
    ys = np.vstack(run_y.lifts)
    for j in range(xs.shape[1]):
        xj = np.interp(ts, run_x.times, xs[:, j])
        yj = np.interp(ts, run_y.times, ys[:, j])
        if not np.all(xj < yj):
            return False
    return True
