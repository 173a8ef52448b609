"""The search (pseudo-transient continuation) and, on the Dormand-Prince
oracle, the laws of the gradient flow it steps along: monotone action,
non-increasing crossings, the comparison principle."""

import numpy as np
import pytest

from billiardflow import (
    expand_constraints,
    gradient_field,
    integrate,
    make_boundary,
    periodic_action,
    repeat_lift,
    reparametrize_constant_speed,
    search_class,
    symmetric_birkhoff,
)
from billiardflow import flow as flow_module
from billiardflow.flow import newton
from billiardflow.lagrangian import _gradient_coords
from billiardflow.sequences import AffineSystem, PeriodicLift, intersection_index
import oracles
from oracles import (ACTION_ROUNDOFF, comparison_check, dense_basis, dp5_flow, increments,
                     project, trapezoid)


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


def test_a_class_without_a_free_orbit_is_stationary_at_its_reference(monkeypatch):
    # main n = 3, m = 1, N = 3, s = 2 fixes every index (d = 0): the search
    # takes no step and Newton's definiteness test factors an empty matrix
    boundary = reparametrize_constant_speed(
        make_boundary({"family": "limacon", "n": 3, "alpha": 0.05}))
    search = search_class("main", 3, 1, N=3, s=2)
    system = expand_constraints(3, search.generators, search.p, search.q)
    assert system.dim == 0
    reference = search.reference
    run = integrate(boundary, reference, system, reference)
    assert (run.reason, run.n_steps) == ("stationary", 0)

    factor, sizes = flow_module._factor, []

    def spy(diag, off):
        sizes.append(len(diag))
        return factor(diag, off)

    monkeypatch.setattr(flow_module, "_factor", spy)
    run, ratio, why = newton(boundary, reference, system, reference)
    assert (run.reason, run.n_steps, ratio, why) == ("stationary", 0, 0.0, None)
    assert np.array_equal(run.final_lift.coords, reference.coords)
    assert sizes == [0]
    assert flow_module._solve(factor([], []), []) == []


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


def test_plateau_stops_at_the_step_roundoff_floor(limacon4_cs, monkeypatch):
    # with an unreachable target the run goes on below STATIONARITY_TOL while
    # each step is smaller than the last accepted one; the first step that
    # is not ends it at the iterate it was taken from, before any kernel call
    # at the discarded point
    monkeypatch.setattr(flow_module, "RESIDUAL_TARGET", 0.0)
    ref, system, start = flagship_setup(limacon4_cs)
    solve, steps = flow_module._solve, []
    monkeypatch.setattr(flow_module, "_solve",
                        lambda *args: steps.append(solve(*args)) or steps[-1])
    run, calls = spied_run(monkeypatch, limacon4_cs, start, system=system, reference=ref)
    assert run.converged and run.reason == "stationary" and run.failure is None
    assert len(steps) == len(calls) == run.n_steps + 1
    sizes = [max(map(abs, step)) for step in steps]
    assert sizes[-1] >= sizes[-2] and run.grad_norm < flow_module.STATIONARITY_TOL
    # the run stops where the kernel was last called: its residual recomputes
    # to grad_norm
    assert np.array_equal(calls[-1][0], run.final_lift.coords)
    again = float(np.max(np.abs(gradient_field(limacon4_cs, run.final_lift))))
    assert again == run.grad_norm


#: the five tier-1 classes and main N = 1 at p = 192, each on a limacon
STEP_CLASSES = [("main", 4, 1, 4, 3, 0.05), ("typeI", 2, 1, None, 7, 0.15),
                ("typeII", 2, 1, None, 4, 0.15), ("typeV", 2, 1, None, 5, 0.15),
                ("main", 4, 1, 1, 5, 0.03), ("main", 4, 1, 1, 48, 0.03)]


@pytest.mark.parametrize("kind, n, m, N, s, alpha", STEP_CLASSES,
                         ids=[f"{c[0]}-s{c[4]}" for c in STEP_CLASSES])
def test_the_step_equals_the_dense_solve(kind, n, m, N, s, alpha):
    # one LDL^T of I/delta - B^T H B solves for B^T F as the dense solve
    # does, on a path and on the cycle of the class of every lift
    search = search_class(kind, n, m, N, s)
    table = reparametrize_constant_speed(make_boundary({"family": "limacon", "n": n,
                                                        "alpha": alpha}))
    f, _, h = _gradient_coords(table, search.start(0.01).coords, 2)
    for system in (expand_constraints(n, search.generators, search.p, search.q),
                   expand_constraints(n, (), search.p, search.q)):
        basis = dense_basis(system)
        reduced = basis.T @ oracles.cyclic_tridiagonal(*h) @ basis
        g = system.reduce(f)
        r_diag, r_off = system.reduced_hessian(*h)
        for delta in (5e-3, 1.0, np.inf):
            dense = np.linalg.solve(np.eye(system.dim) / delta - reduced, g)
            factor = flow_module._factor((1.0 / delta - r_diag).tolist(), (-r_off).tolist())
            step = np.array(flow_module._solve(factor, g.tolist()))
            assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense)), delta


def test_the_pivot_signs_count_the_negative_eigenvalues():
    # Sylvester's law of inertia: the LDL^T pivots of a symmetric tridiagonal
    # or cyclic tridiagonal matrix have as many negative signs as it has
    # negative eigenvalues, definite or not
    rng = np.random.default_rng(32)
    kinds = set()
    for trial in range(200):
        d = int(rng.integers(1, 25))
        diag, off = rng.standard_normal(d) + rng.uniform(-3, 3), rng.standard_normal(d)
        if trial % 2 == 0 or d < 3:
            off[-1] = 0.0           # a path; at d = 2 both entries join 0 and 1
        matrix = oracles.cyclic_tridiagonal(diag, off) if d > 1 else np.diag(diag)
        inv = flow_module._factor(diag.tolist(), off.tolist())[0]
        negative = int(np.sum(np.linalg.eigvalsh(matrix) < 0))
        assert sum(r < 0 for r in inv) == negative, trial
        kinds.add(min(negative, 1) + (negative == d))
    assert kinds == {0, 1, 2}       # definite both ways, and indefinite


def test_a_zero_pivot_gives_a_step_the_guard_rejects(limacon4_cs, monkeypatch):
    # an exact zero pivot raises nothing: every later pivot and the whole
    # step are NaN, which the guard rejects
    ref, system, _, near = near_orbit_setup(limacon4_cs)
    factor = flow_module._factor([0.0, 1.0, 2.0], [1.0, 1.0, 0.5])
    assert all(np.isnan(factor[0])) and all(np.isnan(flow_module._solve(factor, [1.0, 0, 0])))
    step = np.array(flow_module._solve(flow_module._factor([0.0], [0.0]), [1.0]))
    assert flow_module._guard_violation(near.coords + system.expand(step), near.q)
    # in the search, the first factorization of each run from near the
    # orbit meets a zero pivot (the flagship class has d = 1): at a finite
    # delta the step is rejected, delta cut by 4 and the run goes on; at
    # delta = infinity the run ends
    reduced, factor_of, pivots = system.reduced_hessian, flow_module._factor, []

    def first_zero(shift):
        def hessian(self, diag, off):
            r_diag, r_off = reduced(diag, off)
            return (r_diag if pivots else np.full(1, shift)), r_off
        return hessian

    monkeypatch.setattr(flow_module, "_factor",
                        lambda diag, off: pivots.append(diag[0]) or factor_of(diag, off))
    monkeypatch.setattr(AffineSystem, "reduced_hessian",
                        first_zero(1.0 / flow_module.DELTA_START))
    run = integrate(limacon4_cs, near, system=system, reference=ref)
    assert pivots[:2] == [0.0, 1.0 / (flow_module.DELTA_START / 4) - 1.0 / flow_module.DELTA_START]
    assert run.converged
    pivots.clear()
    monkeypatch.setattr(AffineSystem, "reduced_hessian", first_zero(0.0))
    run, ratio, why = newton(limacon4_cs, near, system, ref)
    assert pivots == [0.0] and run.reason == "guard_violation" and run.n_steps == 0
    assert why == "guard_violation after 0 steps" and "nan" in run.domain_violation


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

    def counting_up(*lifts_or_difference):
        calls.append(1)
        return len(calls)

    # the start's count goes through intersection_index, each trial's through
    # the counter it shares, on the difference from the reference
    monkeypatch.setattr(flow_module, "intersection_index", counting_up)
    monkeypatch.setattr(flow_module, "_crossings", counting_up)
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

    def counting_up(*lifts_or_difference):
        calls.append(1)
        return len(calls)

    # the start's count goes through intersection_index, each trial's through
    # the counter it shares, on the difference from the reference
    monkeypatch.setattr(flow_module, "intersection_index", counting_up)
    monkeypatch.setattr(flow_module, "_crossings", counting_up)
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
