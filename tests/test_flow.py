"""The search (pseudo-transient continuation) and, on the Dormand-Prince
oracle, the laws of the gradient flow it steps along: monotone action,
non-increasing crossings, the comparison principle."""

import numpy as np
import pytest

from billiardflow import (
    expand_constraints,
    gradient_field,
    integrate,
    periodic_action,
    repeat_lift,
    search_class,
    symmetric_birkhoff,
)
from billiardflow import flow as flow_module
from billiardflow.flow import newton
from billiardflow.sequences import PeriodicLift, intersection_index
import oracles
from oracles import (ACTION_ROUNDOFF, comparison_check, dp5_flow, increments, project,
                     trapezoid)


def flagship_setup(boundary):
    """The (12, 3) symmetric search class on an order-4 boundary."""
    search = search_class("main", 4, 1, N=4, s=3)
    system = expand_constraints(4, search.generators, 12, 3)
    return search.reference, system, search.start(0.05)


def spied_run(monkeypatch, boundary, start, **kwargs):
    """``integrate(boundary, start, **kwargs)`` and the (coords, output) of
    every kernel call it made."""
    kernel = flow_module._gradient_coords
    calls = []

    def spy(boundary, coords, order=1):
        out = kernel(boundary, coords, order)
        calls.append((coords.copy(), out))
        return out

    monkeypatch.setattr(flow_module, "_gradient_coords", spy)
    return integrate(boundary, start, **kwargs), calls


def test_stationary_start_returns_immediately(circle4):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    run = integrate(circle4, lift, expand_constraints(4, (), 12, 3), lift)
    assert run.converged
    assert run.reason == "stationary"
    assert run.t_final == 0.0
    assert run.n_steps == 0
    assert np.array_equal(run.final_lift.coords, lift.coords)


def test_flagship_flow_reaches_stationarity(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert run.converged
    assert run.reason == "stationary"
    assert run.grad_norm < flow_module.RESIDUAL_TARGET
    # independent recomputation of the final residual
    assert np.max(np.abs(gradient_field(limacon4_cs, run.final_lift))) < 1e-12
    # the search climbed: the critical point sits above the start
    assert periodic_action(limacon4_cs, run.final_lift) > \
        periodic_action(limacon4_cs, start)
    # pseudo-time steps grow from DELTA_START: the run covers far more than
    # the sum of its steps at the first one
    assert run.t_final > run.n_steps * flow_module.DELTA_START


def test_action_is_monotone_and_matches_gradient_power(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system)
    assert rec.converged
    acts = rec.actions
    assert np.all(np.diff(acts) >= -ACTION_ROUNDOFF)
    # dW/dt = sum_i F_i^2 along the flow: total gain matches the integrated
    # gradient power (trapezoid rule on the accepted-step grid)
    gain = acts[-1] - acts[0]
    assert gain > 0
    assert trapezoid(rec.grad_sq, rec.times) == pytest.approx(gain, rel=2e-2)


def test_crossings_never_increase_and_reach_prediction(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system)
    crossings = [intersection_index(start.with_coords(x), ref) for x in rec.lifts]
    counts = [c for c in crossings if isinstance(c, int)]
    assert counts, "expected integer crossing samples"
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 8  # 2N for the order-4 subgroup class
    assert counts[0] == 8   # the seeded mode already crosses 2N times


def test_each_recorded_action_is_the_action_of_its_sample(limacon4_cs, limacon2_10_cs,
                                                         monkeypatch):
    # the kernel returns the action with the gradient; it must be the action
    # of the point it was called at, bit for bit, in the flagship class and in
    # the class of every lift, and the run reports the action of its final
    # lift; the start may be its own reference, which reads "tangent" until
    # the first integer count
    ref, system, start = flagship_setup(limacon4_cs)
    run, calls = spied_run(monkeypatch, limacon4_cs, start, system=system, reference=ref)
    assert run.converged and len(calls) > run.n_steps
    assert [periodic_action(limacon4_cs, start.with_coords(x)) for x, _ in calls] == \
        [out[1] for _, out in calls]
    assert run.final_action == periodic_action(limacon4_cs, run.final_lift)
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    run, calls = spied_run(monkeypatch, limacon2_10_cs, x0,
                           system=expand_constraints(2, (), 4, 1), reference=x0)
    assert run.converged and run.n_steps > 0
    assert [periodic_action(limacon2_10_cs, x0.with_coords(x)) for x, _ in calls] == \
        [out[1] for _, out in calls]
    assert run.final_action == periodic_action(limacon2_10_cs, run.final_lift)


def test_constraint_residuals_stay_at_machine_precision(limacon4_cs, monkeypatch):
    # the oracle projects every accepted step; the search's steps lie in the
    # span of the orbit basis, so every point it evaluates stays in the class
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system)
    assert max(system.residual(x) for x in rec.lifts) <= 1e-12
    run, calls = spied_run(monkeypatch, limacon4_cs, start, system=system, reference=ref)
    assert run.converged
    assert max(system.residual(x) for x, _ in calls) <= 1e-12


def test_circle_perturbation_collapses_back(circle4):
    ref, system, start = flagship_setup(circle4)
    run = integrate(circle4, start, system=system, reference=ref)
    final = run.final_lift
    assert np.allclose(increments(final), 0.25, atol=1e-8)


def test_max_steps_stops_the_run(limacon4_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_STEPS", 3)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert not run.converged
    assert run.reason == "max_steps"
    assert run.failure == "max_steps"
    assert run.n_steps == 3


def test_plateau_returns_best_iterate(limacon4_cs, monkeypatch):
    # with an unreachable target the residual plateaus at its roundoff
    # floor: the first step that does not lower ||F||_inf below
    # STATIONARITY_TOL ends the run, which reports the iterate before it
    monkeypatch.setattr(flow_module, "RESIDUAL_TARGET", 0.0)
    ref, system, start = flagship_setup(limacon4_cs)
    run, calls = spied_run(monkeypatch, limacon4_cs, start, system=system, reference=ref)
    assert run.converged and run.reason == "stationary" and run.failure is None
    last = float(np.max(np.abs(calls[-1][1][0])))
    assert run.grad_norm < flow_module.STATIONARITY_TOL and not last < run.grad_norm
    assert not np.array_equal(calls[-1][0], run.final_lift.coords)
    # the reported state is the better iterate: its residual recomputes to grad_norm
    again = float(np.max(np.abs(gradient_field(limacon4_cs, run.final_lift))))
    assert again == run.grad_norm


def test_inadmissible_start_is_rejected(limacon4_cs):
    bad = PeriodicLift(4, 1, np.array([0.0, 0.5, 0.45, 0.9]))
    with pytest.raises(ValueError, match="guard"):
        integrate(limacon4_cs, bad, expand_constraints(4, (), 4, 1), bad)


def test_start_off_the_constraint_class_is_rejected(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    off = start.with_coords(start.coords + 1e-3 * np.sin(np.arange(12) ** 2))
    with pytest.raises(ValueError, match="constraint"):
        integrate(limacon4_cs, off, system=system, reference=ref)


def near_orbit_setup(boundary):
    """The flagship class, its orbit, and a start 5% of the way from the
    orbit to the reference, which has a larger smallest increment than the
    orbit."""
    ref, system, start = flagship_setup(boundary)
    orbit = integrate(boundary, start, system=system, reference=ref).final_lift
    near = orbit.with_coords(orbit.coords + 0.05 * (ref.coords - orbit.coords))
    assert system.residual(near.coords) < 1e-12
    return ref, system, orbit, near


def test_guard_margin_violation_stops_the_run(limacon4_cs, monkeypatch):
    # demand a guard the start satisfies but the orbit does not: Newton's
    # first step lands outside it and ends the run where it began, while at
    # a finite delta the same guard only rejects steps, until delta underflows
    ref, system, orbit, near = near_orbit_setup(limacon4_cs)
    floor = 0.5 * (increments(orbit).min() + increments(near).min())
    monkeypatch.setattr(flow_module, "GUARD_FLOOR", floor)
    run, ratio, why = newton(limacon4_cs, near, system, ref)
    assert not run.converged and why == "guard_violation after 0 steps"
    assert run.reason == run.failure == "guard_violation"
    assert run.domain_violation.startswith("increment ")
    assert run.n_steps == 0 and ratio == 0.0
    assert np.array_equal(run.final_lift.coords, near.coords)
    damped = integrate(limacon4_cs, near, system=system, reference=ref)
    assert damped.reason == "step_underflow" and damped.domain_violation is None
    assert increments(damped.final_lift).min() > floor


def test_inadmissible_stage_shrinks_the_step(limacon4_cs, monkeypatch):
    # the oracle: a first step far too long sends a stage out of the
    # admissible region; the check before the stage's kernel call finds it
    # and the run shrinks the step
    check = oracles.first_inadmissible
    returned = []

    def spy(*args):
        out = check(*args)
        returned.append(out is not None)
        return out

    monkeypatch.setattr(oracles, "first_inadmissible", spy)
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system, first_step=1e3)
    assert returned[0]
    assert rec.converged


def test_a_rejected_step_cuts_delta_and_the_search_goes_on(limacon4_cs, monkeypatch):
    # from a first pseudo-time step far too long, the first steps are close
    # to Newton's, which heads for the Birkhoff saddle and lowers the action:
    # each is rejected, delta cut, and the search still reaches the orbit
    ref, system, _ = flagship_setup(limacon4_cs)
    start = search_class("main", 4, 1, N=4, s=3).start(0.01)
    expected = integrate(limacon4_cs, start, system=system, reference=ref)
    monkeypatch.setattr(flow_module, "DELTA_START", 1e3)
    run, calls = spied_run(monkeypatch, limacon4_cs, start, system=system, reference=ref)
    assert run.converged
    assert len(calls) > run.n_steps + 2
    assert calls[1][1][1] < calls[0][1][1]      # the first trial lost action
    assert np.max(np.abs(run.final_lift.coords - expected.final_lift.coords)) < 1e-13


def test_a_value_error_inside_the_rhs_propagates(limacon4_cs, monkeypatch):
    # the guard is checked before every kernel call; any error the kernel
    # raises is a fault and propagates
    kernel = flow_module._gradient_coords
    calls = []

    def faulty(*args):
        calls.append(1)
        if len(calls) > 1:
            raise ValueError("fault inside the right-hand side")
        return kernel(*args)

    monkeypatch.setattr(flow_module, "_gradient_coords", faulty)
    ref, system, start = flagship_setup(limacon4_cs)
    with pytest.raises(ValueError, match="fault inside"):
        integrate(limacon4_cs, start, system=system, reference=ref)
    assert len(calls) == 2


def test_a_stage_that_stays_inadmissible_underflows_the_step(limacon4_cs, monkeypatch):
    # the oracle: every stage after the start is inadmissible, so the step
    # shrinks below its floor and the run stops where it began
    calls = []

    def always_inadmissible(coords, q):
        calls.append(1)
        return 0, float(coords[1] - coords[0])

    monkeypatch.setattr(oracles, "first_inadmissible", always_inadmissible)
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system)
    assert not rec.converged and len(rec.lifts) == 1 and list(rec.times) == [0.0]
    assert len(calls) > 1
    assert np.allclose(rec.lifts[0], start.coords, rtol=0, atol=1e-12)


def test_steps_that_stay_rejected_underflow_delta(limacon4_cs, monkeypatch):
    # a crossing index that counts up rejects every trial step: delta is cut
    # below DELTA_MIN and the run stops where it began
    calls = []

    def counting_up(xl, yl):
        calls.append(1)
        return len(calls)

    monkeypatch.setattr(flow_module, "intersection_index", counting_up)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert run.reason == run.failure == "step_underflow" and not run.converged
    assert run.n_steps == 0 and run.t_final == 0.0
    assert np.array_equal(run.final_lift.coords, start.coords)
    # one count at the start, and one per trial: DELTA_START cut by 4 each time
    cuts = int(np.ceil(np.log(flow_module.DELTA_START / flow_module.DELTA_MIN) / np.log(4)))
    assert len(calls) == 1 + cuts


def test_an_error_that_stays_too_large_underflows_the_step(limacon4_cs, monkeypatch):
    # the oracle: a fourth-order solution off by a whole step makes every
    # error estimate exceed the (tiny) tolerance, so the step shrinks below its floor
    monkeypatch.setattr(oracles, "_B4", 2 * oracles._B4)
    monkeypatch.setattr(oracles, "DP5_ABS_TOL", 1e-300)
    monkeypatch.setattr(oracles, "DP5_REL_TOL", 1e-300)
    ref, system, start = flagship_setup(limacon4_cs)
    rec = dp5_flow(limacon4_cs, start, system=system)
    assert not rec.converged and len(rec.lifts) == 1
    assert np.array_equal(rec.lifts[0], project(system, start.coords))


def test_a_descending_flow_stops_on_the_action_law(limacon4_cs):
    # Newton's method from the nudged start heads for the Birkhoff saddle,
    # which has less action: its first step lowers the action, and at
    # delta = infinity that ends the run
    ref, system, start = flagship_setup(limacon4_cs)
    nudged = search_class("main", 4, 1, N=4, s=3).start(0.01)
    run, ratio, why = newton(limacon4_cs, nudged, system, ref)
    assert run.reason == run.failure == "action_decrease" and not run.converged
    assert run.n_steps == 0 and run.t_final == 0.0 and ratio == 0.0
    assert why == "action_decrease after 0 steps"
    assert run.final_action == periodic_action(limacon4_cs, nudged)


def test_a_rising_crossing_count_stops_the_run(limacon4_cs, monkeypatch):
    # a crossing index that counts up breaks the crossing law at Newton's
    # first step, which ends the run
    ref, system, orbit, near = near_orbit_setup(limacon4_cs)
    calls = []

    def counting_up(xl, yl):
        calls.append(1)
        return len(calls)

    monkeypatch.setattr(flow_module, "intersection_index", counting_up)
    run, _, why = newton(limacon4_cs, near, system, ref)
    assert run.reason == run.failure == "crossing_increase" and not run.converged
    assert run.n_steps == 0 and why == "crossing_increase after 0 steps"
    assert len(calls) == 2    # the start's count, then the first step's


def test_newton_from_near_the_orbit_contracts_to_it(limacon4_cs):
    # the corrector's iteration: full Newton steps, no pseudo-time, a first
    # step that passes the monotonicity test, and the orbit's own limit
    ref, system, orbit, near = near_orbit_setup(limacon4_cs)
    run, ratio, why = newton(limacon4_cs, near, system, ref)
    assert run.converged and run.t_final == 0.0 and 0 < run.n_steps < 10
    assert 0 < ratio < 0.5
    assert np.max(np.abs(run.final_lift.coords - orbit.coords)) < 1e-13
    # accepted: the reduced Hessian at the limit is negative definite
    assert why is None


def test_comparison_runs_stay_strictly_ordered(limacon2_10_cs):
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    y0 = x0.with_coords(x0.coords + 0.01)
    assert comparison_check(dp5_flow(limacon2_10_cs, x0, t_max=2.0),
                            dp5_flow(limacon2_10_cs, y0, t_max=2.0))


def test_comparison_with_equality_at_some_indices(limacon2_10_cs):
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    bumped = x0.coords.copy()
    bumped[2] += 0.01
    y0 = x0.with_coords(bumped)
    assert comparison_check(dp5_flow(limacon2_10_cs, x0, t_max=2.0),
                            dp5_flow(limacon2_10_cs, y0, t_max=2.0))


def test_comparison_preconditions(limacon2_10_cs):
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    run_x = dp5_flow(limacon2_10_cs, x0, t_max=0.5)
    run_lo = dp5_flow(limacon2_10_cs, x0.with_coords(x0.coords - 0.01), t_max=0.5)
    with pytest.raises(ValueError, match="x\\(0\\)"):
        comparison_check(run_x, run_lo)
    with pytest.raises(ValueError, match="x\\(0\\)"):
        comparison_check(run_x, run_x)
