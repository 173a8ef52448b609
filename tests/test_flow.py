"""Gradient-flow integrator: convergence, monotone laws, comparison runs."""

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
from billiardflow.sequences import PeriodicLift
from oracles import comparison_check, increments, recorded_run


def flagship_setup(boundary):
    """The (12, 3) symmetric search class on an order-4 boundary."""
    search = search_class("main", 4, 1, N=4, s=3)
    system = expand_constraints(4, search.generators, 12, 3)
    return search.reference, system, search.start(0.05)


def test_stationary_start_returns_immediately(circle4):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    run = integrate(circle4, lift)
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
    assert run.grad_norm < 1e-10
    # independent recomputation of the final residual
    assert np.max(np.abs(gradient_field(limacon4_cs, run.final_lift))) < 1e-10
    # the flow climbed: the critical point sits above the start
    assert periodic_action(limacon4_cs, run.final_lift) > \
        periodic_action(limacon4_cs, start)


def test_action_is_monotone_and_matches_gradient_power(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    acts, times, power = run.actions, run.times, run.grad_sq
    budget = 10.0 * (run.local_errors + 1e-15)
    assert np.all(np.diff(acts) >= -budget[1:])
    # dW/dt = sum_i F_i^2 along the flow: total gain matches the integrated
    # gradient power (trapezoid rule on the accepted-step grid)
    gain = acts[-1] - acts[0]
    assert gain > 0
    assert np.trapezoid(power, times) == pytest.approx(gain, rel=2e-2)


def test_crossings_never_increase_and_reach_prediction(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    counts = [c for c in run.crossings if isinstance(c, int)]
    assert counts, "expected integer crossing samples"
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 8  # 2N for the order-4 subgroup class
    assert counts[0] == 8   # the seeded mode already crosses 2N times


def test_each_recorded_action_is_the_action_of_its_sample(limacon4_cs, limacon2_10_cs,
                                                         monkeypatch):
    # the kernel returns the action with the gradient; it must be the action
    # of the sample's own lift, bit for bit, with and without a system
    ref, system, start = flagship_setup(limacon4_cs)
    run, lifts = recorded_run(limacon4_cs, start, system=system, reference=ref)
    assert run.converged and len(lifts) == run.n_steps + 1
    assert [periodic_action(limacon4_cs, start.with_coords(x)) for x in lifts] == \
        list(run.actions)
    assert run.final_action == periodic_action(limacon4_cs, run.final_lift)
    monkeypatch.setattr(flow_module, "MAX_TIME", 2.0)
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    run, lifts = recorded_run(limacon2_10_cs, x0)
    assert run.n_steps > 0
    assert [periodic_action(limacon2_10_cs, x0.with_coords(x)) for x in lifts] == \
        list(run.actions)


def test_constraint_residuals_stay_at_machine_precision(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert np.max(run.constraint_residuals) <= 1e-12


def test_circle_perturbation_collapses_back(circle4):
    ref, system, start = flagship_setup(circle4)
    run = integrate(circle4, start, system=system, reference=ref)
    final = run.final_lift
    assert np.allclose(increments(final), 0.25, atol=1e-8)


def test_max_time_stops_the_run(limacon4_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_TIME", 0.5)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert not run.converged
    assert run.reason == "max_time"
    assert run.t_final == pytest.approx(0.5)


def test_max_steps_stops_the_run(limacon4_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_STEPS", 3)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert not run.converged
    assert run.reason == "max_steps"
    assert run.failure == "max_steps"
    assert run.n_steps == 3


def test_plateau_returns_best_iterate(limacon4_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "PLATEAU_WINDOW", 60)
    monkeypatch.setattr(flow_module, "STATIONARITY_TOL", 1e-15)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert not run.converged
    assert run.reason == "plateau"
    assert run.failure == "plateau"
    # the reported state is the best iterate: residual recomputes to grad_norm
    again = float(np.max(np.abs(gradient_field(limacon4_cs, run.final_lift))))
    assert again == pytest.approx(run.grad_norm, abs=1e-14)
    assert run.grad_norm < 1e-6


def test_inadmissible_start_is_rejected(limacon4_cs):
    bad = PeriodicLift(4, 1, np.array([0.0, 0.5, 0.45, 0.9]))
    with pytest.raises(ValueError, match="guard"):
        integrate(limacon4_cs, bad)


def test_start_off_the_constraint_class_is_rejected(limacon4_cs):
    ref, system, start = flagship_setup(limacon4_cs)
    off = start.with_coords(start.coords + 1e-3 * np.sin(np.arange(12) ** 2))
    with pytest.raises(ValueError, match="constraint"):
        integrate(limacon4_cs, off, system=system)


def test_guard_margin_violation_stops_the_run(limacon4_cs, monkeypatch):
    # demand a guard the start satisfies but the target orbit does not
    # (its smallest increment is about 0.218)
    monkeypatch.setattr(flow_module, "GUARD_FLOOR", 0.23)
    ref, system, _ = flagship_setup(limacon4_cs)
    start = search_class("main", 4, 1, N=4, s=3).start(0.01)
    assert np.min(increments(start)) > 0.23
    run = integrate(limacon4_cs, start, system=system)
    assert not run.converged
    assert run.reason == "guard_violation"
    assert run.domain_violation is not None


def test_inadmissible_stage_shrinks_the_step(limacon4_cs, monkeypatch):
    # a first step far too long sends a stage out of the admissible region;
    # the kernel reports it by returning None and the run shrinks the step
    kernel = flow_module._gradient_coords
    returned = []

    def spy(*args):
        out = kernel(*args)
        returned.append(out is None)
        return out

    monkeypatch.setattr(flow_module, "_gradient_coords", spy)
    monkeypatch.setattr(flow_module, "INITIAL_STEP", 1e3)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert returned[1]
    assert run.converged


def test_a_value_error_inside_the_rhs_propagates(limacon4_cs, monkeypatch):
    # only inadmissibility shrinks the step; any other error is a fault
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
        integrate(limacon4_cs, start, system=system)
    assert len(calls) == 2


def test_a_stage_that_stays_inadmissible_underflows_the_step(limacon4_cs, monkeypatch):
    # every stage after the start is inadmissible: the step shrinks below
    # its floor and the run stops where it began
    kernel = flow_module._gradient_coords
    calls = []

    def first_call_only(*args):
        calls.append(1)
        return kernel(*args) if len(calls) == 1 else None

    monkeypatch.setattr(flow_module, "_gradient_coords", first_call_only)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert run.reason == run.failure == "step_underflow" and not run.converged
    assert run.n_steps == 0 and run.t_final == 0.0
    assert np.allclose(run.final_lift.coords, start.coords, rtol=0, atol=1e-12)


def test_an_error_that_stays_too_large_underflows_the_step(limacon4_cs, monkeypatch):
    # a fourth-order solution off by a whole step makes every error estimate
    # exceed the (tiny) tolerance, so the step shrinks below its floor
    monkeypatch.setattr(flow_module, "_B4", 2 * flow_module._B4)
    monkeypatch.setattr(flow_module, "ABS_TOL", 1e-300)
    monkeypatch.setattr(flow_module, "REL_TOL", 1e-300)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert run.reason == run.failure == "step_underflow" and not run.converged
    assert run.n_steps == 0 and run.t_final == 0.0
    assert np.array_equal(run.final_lift.coords, system.project(start.coords))


def test_a_tangency_that_persists_to_max_time_is_reported(limacon4_cs, monkeypatch):
    # a crossing index that is tangent at every sample outlasts the plateau
    # count, so the run that reaches max_time names the tangency instead
    monkeypatch.setattr(flow_module, "intersection_index", lambda xl, yl: "tangent")
    monkeypatch.setattr(flow_module, "PLATEAU_STEPS", 5)
    monkeypatch.setattr(flow_module, "MAX_TIME", 0.5)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert run.reason == run.failure == "persistent_tangency" and not run.converged
    assert run.n_steps == 83
    assert run.t_final == pytest.approx(0.5)
    assert set(run.crossings) == {"tangent"}


def test_a_descending_flow_stops_on_the_action_law(limacon4_cs, monkeypatch):
    # the negated gradient lowers the action by far more than the local error;
    # the action the kernel returns with it is the true one
    kernel = flow_module._gradient_coords

    def descending(*args):
        out = kernel(*args)
        return None if out is None else (-out[0], out[1])

    monkeypatch.setattr(flow_module, "_gradient_coords", descending)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system)
    assert run.reason == run.failure == "action_decrease" and not run.converged
    assert run.n_steps == 1
    assert run.actions[-1] < run.actions[0]


def test_a_rising_crossing_count_stops_the_run(limacon4_cs, monkeypatch):
    # a crossing index that counts up breaks the flow's crossing law at the
    # first accepted step
    calls = []

    def counting_up(xl, yl):
        calls.append(1)
        return len(calls)

    monkeypatch.setattr(flow_module, "intersection_index", counting_up)
    ref, system, start = flagship_setup(limacon4_cs)
    run = integrate(limacon4_cs, start, system=system, reference=ref)
    assert run.reason == run.failure == "crossing_increase" and not run.converged
    assert run.n_steps == 1
    assert run.crossings == [1, 2]


def test_comparison_runs_stay_strictly_ordered(limacon2_10_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_TIME", 2.0)
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    y0 = x0.with_coords(x0.coords + 0.01)
    assert comparison_check(recorded_run(limacon2_10_cs, x0),
                            recorded_run(limacon2_10_cs, y0))


def test_comparison_with_equality_at_some_indices(limacon2_10_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_TIME", 2.0)
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    bumped = x0.coords.copy()
    bumped[2] += 0.01
    y0 = x0.with_coords(bumped)
    assert comparison_check(recorded_run(limacon2_10_cs, x0),
                            recorded_run(limacon2_10_cs, y0))


def test_comparison_preconditions(limacon2_10_cs, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_TIME", 0.5)
    x0 = PeriodicLift(4, 1, np.array([0.10, 0.30, 0.62, 0.85]))
    run_x = recorded_run(limacon2_10_cs, x0)
    run_lo = recorded_run(limacon2_10_cs, x0.with_coords(x0.coords - 0.01))
    with pytest.raises(ValueError, match="x\\(0\\)"):
        comparison_check(run_x, run_lo)
    with pytest.raises(ValueError, match="x\\(0\\)"):
        comparison_check(run_x, run_x)
