"""Non-Birkhoff orbit search: reference orbit + symmetric nudge + constrained flow.

The pipeline builds the (n, m) symmetric Birkhoff reference inside the chosen
(p, q) = (s*n, s*m) class, evaluates the closed-form existence criterion,
perturbs the reference along the symmetric mode whose eigenvalue the margin
controls, and runs the symmetry-constrained gradient flow until it stabilizes.
The class is one orthonormal orbit basis (:func:`expand_constraints`): the flow
projects onto it and the Newton polish solves in it.
The limit is classified and every predicted property (minimal period, crossing
count, action gain, spatiotemporal group) is re-checked; mismatches are
recorded as anomalies instead of being silently accepted.
"""

from __future__ import annotations

import logging
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .flow import FlowOptions, FlowResult, integrate
from .geometry import (check_equivariance, convexity_margin,
                       make_boundary, reparametrize_constant_speed)
from .lagrangian import gradient_field, periodic_action
from .sequences import (AffineSystem, GroupDescription, PeriodicLift,
                        SymmetryGenerator, SymmetrySpec, expand_constraints,
                        intersection_index, is_birkhoff, minimal_period,
                        repeat_lift, spatiotemporal_group, symmetric_birkhoff)
from .spectral import (KINDS, CriterionReport, criterion, hessian,
                       kappa_chord, subgroup_mode_parameters)

log = logging.getLogger(__name__)

#: distance below which a limit is reported as one of the two adjacent
#: symmetric Birkhoff configurations X +- 1/(2n)
BOUNDARY_ORBIT_TOL = 1e-8
#: a Newton-polished limit counts as a stationary orbit below this |F|_inf,
#: even when the flow itself stopped on a plateau or a step cap
SETTLED_RESIDUAL_TOL = 1e-10
#: Newton polish only runs from states this close to stationary (gradient
#: scale), and may move the state by at most this much; otherwise the flow's
#: own iterate is reported unchanged
POLISH_BASIN_TOL = 1e-4


class CriterionInconclusive(RuntimeError):
    """The closed-form margin is non-positive, so no orbit is predicted.

    A non-positive margin never proves absence; pass ``force=True`` on the
    request to run the flow anyway.
    """

    def __init__(self, report: CriterionReport):
        super().__init__(
            f"margin = {report.margin:.6g} <= 0: no orbit of kind "
            f"{report.kind!r} is predicted in the ({report.p}, {report.q}) "
            "class.  This is inconclusive, not a proof of absence; pass "
            "force=True to run the flow anyway.")
        self.report = report


@dataclass
class SearchRequest:
    """Everything needed to hunt for one non-Birkhoff orbit.

    billiard is a boundary descriptor accepted by
    :func:`billiardflow.geometry.make_boundary`.  ``kind`` selects the
    constraint class ("main", "typeI", "typeII", "typeV"); ``N`` is the
    rotation count of the dihedral subgroup (main kind only), ``reflection``
    the exponent of its chosen reversing reflection, and ``shift`` overrides
    the derived index shift (picking, e.g., the opposite-parity representative
    when both are geometric).  ``epsilon`` is the nudge amplitude, required to
    lie in (0, 1/(2n)).
    """

    billiard: dict
    n: int
    m: int
    kind: str = "main"
    s: int = 2
    branch: int = 1
    N: int | None = None
    reflection: int = 0
    shift: int | None = None
    epsilon: float | None = None
    force: bool = False
    options: FlowOptions | None = None


@dataclass
class OrbitReport:
    """Outcome of one search: the limit lift and its re-checked properties.

    outcome is one of "non_birkhoff_found", "collapsed_to_birkhoff",
    "hit_boundary_orbit", "non_converged".  ``winding`` is the integer shift
    of the minimal-period block (equals q when the minimal period is p).
    ``anomalies`` lists every postdiction that failed; it is empty on a clean
    find.
    """

    outcome: str
    final_lift: PeriodicLift
    is_birkhoff: bool
    minimal_period: int
    winding: int
    group: GroupDescription
    crossings_vs_reference: object      # int, or "tangent"
    action_gain: float
    residual: float                     # |F|_inf at the reported lift
    anomalies: list
    epsilon: float
    criterion: CriterionReport
    flow: FlowResult


def _mode_vector(kind: str, p: int, K: int, k: int) -> np.ndarray:
    i = np.arange(p)
    if kind in ("main", "typeI"):
        return np.sin(2.0 * np.pi * i / K - np.pi * k / K)
    if kind == "typeII":
        return np.cos(2.0 * np.pi * i / p - np.pi * K / p)
    return np.sin(2.0 * np.pi * i / p - np.pi * k / p)      # typeV


def initial_perturbation(kind: str, reference: PeriodicLift, K: int, k: int,
                         epsilon: float) -> PeriodicLift:
    """The reference lift nudged by epsilon along the symmetric mode vector.

    main/typeI: v_i = sin(2 pi i/K - pi k/K) — K-periodic in the index and
    odd about the reflection axis, so the nudged lift satisfies the class
    constraints exactly.  typeII: v_i = cos(2 pi i/p - pi K/p).  typeV:
    v_i = sin(2 pi i/p - pi k/p).

    Raises
    ------
    ValueError
        If kind is unknown, or K < 3 for main/typeI (the mode degenerates).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind in ("main", "typeI") and K < 3:
        raise ValueError(f"degenerate symmetric mode: need K >= 3, got K={K}")
    v = _mode_vector(kind, reference.p, K, k)
    return reference.with_coords(reference.coords + epsilon * v)


def _class_generators(kind: str, n: int, m: int, branch: int, s: int,
                      K: int, k: int) -> tuple:
    """Generators of the affine symmetry class containing the reference.

    The exponent/offset pairs are read off the reference coordinates
    x_i = branch/(2n) + (m/n) i, so the reference satisfies every generator
    identity exactly.
    """
    if kind in ("main", "typeI"):
        a = (m * K) % n
        b = (branch + m * k) % n
        return (
            SymmetryGenerator("rotation_preserving", a, K, (m * K - a) // n),
            SymmetryGenerator("reflection_reversing", b, k, (branch + m * k - b) // n),
        )
    if kind == "typeII":
        a = (m * K) % n
        b = (branch + m * s) % n
        return (
            SymmetryGenerator("rotation_reversing", a, K, (m * K - a) // n),
            SymmetryGenerator("reflection_preserving", b, s, (branch + m * s - b) // n),
        )
    # typeV: one reflection exponent acting through two different index shifts
    b1 = (branch + m * k) % n
    b2 = (branch + m * s) % n
    return (
        SymmetryGenerator("reflection_reversing", b1, k, (branch + m * k - b1) // n),
        SymmetryGenerator("reflection_preserving", b2, s, (branch + m * s - b2) // n),
    )


def _expected_group(kind: str, n: int, m: int, branch: int, s: int,
                    n_rotations: int, K: int, k: int) -> dict:
    """Element sets and type label the limit orbit is predicted to have."""
    if kind in ("main", "typeI"):
        a0 = (m * K) % n
        rot = {(a0 * t) % n for t in range(n)}
        bb = (branch + m * k) % n
        return {
            ("rotation", "preserving"): rot,
            ("rotation", "reversing"): set(),
            ("reflection", "preserving"): set(),
            ("reflection", "reversing"): {(bb + e) % n for e in rot},
            "label": "I" if n_rotations >= 2 else "III",
        }
    if kind == "typeII":
        bp = (branch + m * s) % n
        return {
            ("rotation", "preserving"): {0},
            ("rotation", "reversing"): {1},
            ("reflection", "preserving"): {bp},
            ("reflection", "reversing"): {(bp + 1) % n},
            "label": "II",
        }
    # A reflection acting with both parities makes the sequence palindromic,
    # so pure time reversal (rotation exponent 0) is forced into the group.
    bb = (branch + m * k) % n
    return {
        ("rotation", "preserving"): {0},
        ("rotation", "reversing"): {0},
        ("reflection", "preserving"): {bb},
        ("reflection", "reversing"): {bb},
        "label": "V",
    }


def _newton_polish(boundary, lift: PeriodicLift, system: AffineSystem,
                   target: float = 1e-12, max_iter: int = 30):
    """Refine a near-stationary lift by Newton steps in the class's orbit basis.

    The adaptive flow stalls at its local-error noise floor; a couple of
    reduced Newton iterations push the stationarity residual to roundoff.
    Returns (refined lift, |F|_inf at it); never leaves the admissible region
    and falls back to the best iterate seen if a step misbehaves.
    """
    basis = system.basis
    cur = lift.coords.copy()
    best = cur
    best_norm = float(np.max(np.abs(gradient_field(boundary, lift))))
    if basis.shape[1] == 0:
        return lift, best_norm
    for _ in range(max_iter):
        grad = gradient_field(boundary, lift.with_coords(cur))
        norm = float(np.max(np.abs(grad)))
        if norm < best_norm:
            best, best_norm = cur, norm
        if norm <= target:
            break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # near-stationary by design
            hess = hessian(boundary, lift.with_coords(cur))
        reduced = basis.T @ hess @ basis
        try:
            delta = np.linalg.solve(reduced, -(basis.T @ grad))
        except np.linalg.LinAlgError:
            break
        step = basis @ delta
        scale = 1.0
        for _ in range(6):
            cand = cur + scale * step
            inc = np.diff(cand, append=cand[0] + lift.q)
            if inc.min() > 1e-9 and inc.max() < 1.0 - 1e-9:
                break
            scale *= 0.5
        else:
            break
        cur = system.project(cand)
    grad = gradient_field(boundary, lift.with_coords(cur))
    norm = float(np.max(np.abs(grad)))
    if norm < best_norm:
        best, best_norm = cur, norm
    return lift.with_coords(best), best_norm


def _resolve_shifts(request: SearchRequest, n_rotations: int):
    """Index shifts (K, k) of the constraint class, honoring any override."""
    n, m, s = request.n, request.m, request.s
    if request.kind in ("main", "typeI"):
        params = subgroup_mode_parameters(n, m, n_rotations, s,
                                          request.branch, request.reflection)
        if params.K < 3:
            raise ValueError(
                f"degenerate symmetric mode: K = s*n/N = {params.K} < 3")
        k = params.k if request.shift is None else int(request.shift)
        if (k - params.k) % n != 0:
            raise ValueError(
                f"shift {k} does not match the chosen reflection "
                f"(needs shift = {params.k} mod {n})")
        return params.K, k
    if request.kind == "typeII":
        K = 1 if request.shift is None else int(request.shift)
        if K % 2 == 0:
            raise ValueError(
                f"the reversing-rotation index shift must be odd, got {K}")
        return K, 0
    # typeV: the second reflection shift must share the parity of s
    k = s if request.shift is None else int(request.shift)
    if (k - s) % 2 != 0:
        raise ValueError(
            f"typeV reflection shifts must have equal parity: k={k}, s={s}")
    return 0, k


def find_orbit(request: SearchRequest) -> OrbitReport:
    """Search for a non-Birkhoff orbit in the requested symmetry class.

    Pipeline: validate the boundary (strict convexity, dihedral
    equivariance), evaluate the closed-form criterion, gate on its margin
    (raise :class:`CriterionInconclusive` unless forced), reparametrize to
    constant speed, nudge the symmetric Birkhoff reference along the class
    mode, flow to stationarity, classify the limit, and re-check every
    predicted property.
    """
    if request.kind not in KINDS:
        raise ValueError(f"unknown kind {request.kind!r}; expected one of {KINDS}")
    n, m, s, branch = request.n, request.m, request.s, request.branch

    boundary = make_boundary(request.billiard)
    cx = convexity_margin(boundary)
    if cx <= 0:
        raise ValueError(f"boundary is not strictly convex (min det = {cx:.3e})")
    if not check_equivariance(boundary, n):
        raise ValueError(f"boundary lacks the order-{n} dihedral symmetry")

    kappa, chord = kappa_chord(boundary, n, m, branch)
    report = criterion(request.kind, n, m, request.N, s, kappa, chord)
    if report.margin <= 0:
        if not request.force:
            raise CriterionInconclusive(report)
        log.warning("margin %.6g <= 0 for kind %s at (p, q) = (%d, %d); "
                    "running anyway (force)", report.margin, report.kind,
                    report.p, report.q)

    K, k = _resolve_shifts(request, report.N)
    p, q = report.p, report.q
    reference = repeat_lift(symmetric_birkhoff(n, m, branch), s)
    system = expand_constraints(
        SymmetrySpec(n, _class_generators(request.kind, n, m, branch, s, K, k)),
        p, q)
    ref_residual = system.residual(reference.coords)
    if ref_residual > 1e-9:
        raise RuntimeError("internal error: the reference violates its own "
                           f"symmetry class (residual {ref_residual:.3e})")

    eps_cap = 1.0 / (2 * n)
    eps = min(1.0 / (4 * n), 1e-2) if request.epsilon is None else float(request.epsilon)
    if not 0.0 < eps < eps_cap:
        raise ValueError(f"epsilon must lie in (0, {eps_cap:.6g}), got {eps}")

    cs = reparametrize_constant_speed(boundary)
    action_ref = periodic_action(cs, reference)
    start = initial_perturbation(request.kind, reference, K, k, eps)
    if report.margin > 0:
        # the certified mode must gain action; shrink the nudge if the gain
        # is swamped at the default amplitude
        for _ in range(6):
            gap = periodic_action(cs, start) - action_ref
            if gap > 0:
                break
            log.info("halving epsilon %.3g -> %.3g: action gap %.3e <= 0",
                     eps, 0.5 * eps, gap)
            eps *= 0.5
            start = initial_perturbation(request.kind, reference, K, k, eps)
        else:
            raise RuntimeError(
                f"no action gain along the certified mode down to epsilon = "
                f"{eps:.3g}; the margin {report.margin:.3g} is too small to "
                "resolve numerically")

    log.info("flowing kind=%s (p, q)=(%d, %d) K=%d k=%d epsilon=%.3g "
             "margin=%.6g", request.kind, p, q, K, k, eps, report.margin)
    flow = integrate(cs, start, system=system, options=request.options,
                     reference=reference)
    final = flow.final_lift
    residual = flow.grad_norm
    if flow.failure in (None, "plateau", "max_steps") and residual < POLISH_BASIN_TOL:
        # the explicit flow stalls at its noise floor; finish with Newton.
        # Plateau/step-capped runs still hold a good iterate, so polish those
        # too and judge by the achieved residual rather than the flow's own
        # verdict.  The basin gate keeps Newton from wandering to a different
        # critical point from a half-converged state, and a move larger than
        # the gate means it did exactly that, so the flow iterate stands.
        polished, polished_residual = _newton_polish(cs, final, system)
        moved = float(np.max(np.abs(polished.coords - final.coords)))
        if moved < POLISH_BASIN_TOL:
            final, residual = polished, polished_residual
    settled = flow.converged or residual < SETTLED_RESIDUAL_TOL

    third = np.full(p, 1.0 / (2 * n))
    near_plus = float(np.max(np.abs(final.coords - (reference.coords + third))))
    near_minus = float(np.max(np.abs(final.coords - (reference.coords - third))))
    if min(near_plus, near_minus) < BOUNDARY_ORBIT_TOL:
        outcome = "hit_boundary_orbit"
    elif not settled:
        outcome = "non_converged"
    elif is_birkhoff(final):
        outcome = "collapsed_to_birkhoff"
    else:
        outcome = "non_birkhoff_found"

    group = spatiotemporal_group(final, n)
    minimal = minimal_period(final)
    winding = int(round(float(final.value(minimal) - final.coords[0])))
    crossings = intersection_index(final, reference)
    action_gain = periodic_action(cs, final) - action_ref

    anomalies = list(flow.anomalies)
    if outcome == "non_birkhoff_found":
        if minimal != report.predicted_min_period:
            anomalies.append(f"minimal period {minimal} != predicted "
                             f"{report.predicted_min_period}")
        if crossings != report.predicted_crossings:
            anomalies.append(f"crossing count {crossings} != predicted "
                             f"{report.predicted_crossings}")
        if not action_gain > 0:
            anomalies.append(f"action gain {action_gain:.3e} is not positive")
        expected = _expected_group(request.kind, n, m, branch, s,
                                   report.N, K, k)
        for key in (("rotation", "preserving"), ("rotation", "reversing"),
                    ("reflection", "preserving"), ("reflection", "reversing")):
            got = group.exponents(*key)
            if got != expected[key]:
                anomalies.append(f"{key[1]} {key[0]} exponents {sorted(got)} "
                                 f"!= expected {sorted(expected[key])}")
        if group.type_label != expected["label"]:
            anomalies.append(f"type label {group.type_label!r} != expected "
                             f"{expected['label']!r}")

    return OrbitReport(
        outcome=outcome,
        final_lift=final,
        is_birkhoff=is_birkhoff(final),
        minimal_period=minimal,
        winding=winding,
        group=group,
        crossings_vs_reference=crossings,
        action_gain=float(action_gain),
        residual=float(residual),
        anomalies=anomalies,
        epsilon=eps,
        criterion=report,
        flow=flow,
    )


@dataclass
class SweepEntry:
    """One sweep point: its parameter value and whatever the run produced."""

    value: object
    criterion: CriterionReport | None = None
    report: OrbitReport | None = None
    error: str | None = None


def sweep(base: SearchRequest, param: str, values, workers: int | None = None):
    """Independent find_orbit runs over a list of parameter values.

    ``param`` is "alpha" (varies the boundary descriptor) or one of the
    integer request fields ("s", "N", "m", "n", "branch", "reflection",
    "shift") or "epsilon".  Failures — inconclusive criteria, invalid
    parameter combinations, flow breakdowns — are recorded on their entry and
    the sweep continues.  Entries run in parallel threads (each individual
    search is single-threaded); pass workers=1 to force serial execution.
    """
    requests = []
    for v in values:
        if param == "alpha":
            descriptor = dict(base.billiard)
            descriptor["alpha"] = float(v)
            requests.append(replace(base, billiard=descriptor))
        elif param in ("s", "N", "n", "m", "branch", "reflection", "shift"):
            requests.append(replace(base, **{param: int(v)}))
        elif param == "epsilon":
            requests.append(replace(base, epsilon=float(v)))
        else:
            raise ValueError(f"unknown sweep parameter {param!r}")

    def run(pair) -> SweepEntry:
        value, req = pair
        try:
            rep = find_orbit(req)
            return SweepEntry(value=value, criterion=rep.criterion, report=rep)
        except CriterionInconclusive as exc:
            return SweepEntry(value=value, criterion=exc.report,
                              error="inconclusive: margin <= 0")
        except Exception as exc:       # noqa: BLE001 - recorded per entry
            log.exception("sweep entry %r failed", value)
            return SweepEntry(value=value, error=f"{type(exc).__name__}: {exc}")

    pairs = list(zip(values, requests))
    if workers == 1 or len(pairs) <= 1:
        return [run(t) for t in pairs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, pairs))
