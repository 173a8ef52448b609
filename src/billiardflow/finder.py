"""Non-Birkhoff orbit search: reference orbit + symmetric nudge + constrained search.

The pipeline builds the (n, m) symmetric Birkhoff reference inside the chosen
(p, q) = (s*n, s*m) class, evaluates the closed-form existence criterion,
perturbs the reference along the symmetric mode whose eigenvalue the margin
controls, and runs the symmetry-constrained search (:mod:`~.flow`) until it
is stationary.  The class, its mode and its criterion come from one validated
:func:`~.spectral.search_class`.  The class is one orthonormal orbit basis
(:func:`expand_constraints`), in which the search solves.  The limit is
classified and every predicted property (minimal period, crossing count,
action gain, the group the class generators generate) is re-checked;
mismatches are recorded as anomalies, not silently accepted.  Along an alpha
sweep, Newton's method from the orbit of the previous entry (natural-parameter
continuation; the same search at delta = infinity) replaces the nudge whenever
it passes Deuflhard's monotonicity test and reaches a local maximum of the
action.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .flow import GUARD_FLOOR, FlowResult, integrate, newton
from .geometry import (check_equivariance, check_table_keys, convexity_margin,
                       make_boundary, reparametrize_constant_speed)
from .lagrangian import periodic_action
from .lagrangian import hessian  # noqa: F401 - a benchmark tracer site (ROADMAP item 1)
from .sequences import (AffineSystem, GroupDescription, PeriodicLift, expand_constraints,
                        first_inadmissible, generated_group, intersection_index,
                        spatiotemporal_group)
from .sequences import is_birkhoff, minimal_period  # noqa: F401 - tracer sites (ROADMAP item 1)
from .spectral import CriterionReport, SearchClass, class_criterion, kappa_chord, search_class
from .spectral import criterion  # noqa: F401 - a benchmark tracer site (ROADMAP item 1)

log = logging.getLogger(__name__)

#: a continued lift is accepted only when Newton's first step passes the
#: simplified-Newton monotonicity test ||dx_bar_1|| < THETA_MAX ||dx_0||
THETA_MAX = 0.5


class CriterionInconclusive(RuntimeError):
    """The closed-form verdict is "inconclusive", so no orbit is predicted.

    A margin that is not positive beyond roundoff never proves absence; pass
    ``force=True`` on the request (``--force`` on the command line) to run
    the flow anyway.
    """

    def __init__(self, report: CriterionReport):
        super().__init__(
            f"margin = {report.margin:.6g} is not positive beyond roundoff: "
            f"no orbit of kind {report.kind!r} is predicted in the "
            f"({report.p}, {report.q}) class.  This is inconclusive, not a "
            "proof of absence; pass force=True (--force on the command line) "
            "to run the flow anyway.")
        self.report = report


@dataclass
class SearchRequest:
    """Everything needed to hunt for one non-Birkhoff orbit.

    billiard is a boundary descriptor accepted by
    :func:`billiardflow.geometry.make_boundary`.  ``kind`` names a row of
    :data:`~.spectral.KINDS` ("main", "typeI", "typeII", "typeV"); ``N`` is
    the rotation count of the dihedral subgroup (each kind but main fixes
    it), ``reflection`` the exponent of its chosen reversing reflection, and
    ``shift`` overrides the derived index shift (picking, e.g., the
    opposite-parity representative when both are geometric).  ``epsilon`` is
    the nudge amplitude, required to lie in (0, 1/(2n)).
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


@dataclass
class OrbitReport:
    """Outcome of one search: the limit lift and its re-checked properties.

    outcome is one of "non_birkhoff_found", "collapsed_to_birkhoff",
    "non_converged".  Each fact is stated once: the classification is
    ``group``'s and the residual |F|_inf at the reported lift is
    ``flow.grad_norm``.  ``final_lift`` (``flow.final_lift``) and
    ``is_birkhoff`` (``group.is_birkhoff``) stay only because the benchmark
    harness reads them; ROADMAP item 2 deletes ``is_birkhoff``.
    ``anomalies`` lists every postdiction that failed; it is empty on a clean
    find.  ``start`` is "nudged" (the reference nudged by ``epsilon``) or
    "continued" (a warm lift corrected by Newton's method, see
    :func:`find_orbit`; ``epsilon`` is then None, ``flow`` is the
    corrector's Newton run and ``corrector_ratio`` its first step's
    monotonicity ratio).
    """

    outcome: str
    final_lift: PeriodicLift
    is_birkhoff: bool
    group: GroupDescription
    crossings_vs_reference: object      # int, or "tangent"
    action_gain: float
    anomalies: list
    epsilon: float | None
    criterion: CriterionReport
    flow: FlowResult
    start: str = "nudged"
    corrector_ratio: float | None = None


def checked_boundary(descriptor: dict, n: int):
    """The table of ``descriptor``, once it is strictly convex and has the
    order-n dihedral symmetry; otherwise ValueError names the failed check."""
    boundary = make_boundary(descriptor)
    cx = convexity_margin(boundary)
    if cx <= 0:
        raise ValueError(f"boundary is not strictly convex (min det = {cx:.3e})")
    if not check_equivariance(boundary, n):
        raise ValueError(f"boundary lacks the order-{n} dihedral symmetry")
    return boundary


def checked_criterion(request: SearchRequest):
    """The checked table of ``request`` (:func:`checked_boundary`), its
    validated class (:func:`~.spectral.search_class`) and the closed-form
    criterion of that class, once a given ``epsilon`` lies in (0, 1/(2n))."""
    n, m = request.n, request.m
    boundary = checked_boundary(request.billiard, n)
    kappa, chord = kappa_chord(boundary, n, m, request.branch)
    search = search_class(request.kind, n, m, request.N, request.s, request.branch,
                          request.reflection, request.shift)
    report = class_criterion(search, kappa, chord)
    if request.epsilon is not None:
        eps, cap = float(request.epsilon), 1.0 / (2 * n)
        if not 0.0 < eps < cap:
            raise ValueError(f"epsilon must lie in (0, {cap:.6g}), got {eps}")
    return boundary, search, report


@lru_cache(maxsize=32)
def _class_structures(search: SearchClass) -> tuple:
    """The class's :class:`AffineSystem`, with its B^T H B entries, and the
    group its generators generate (family -> exponents), built once per class
    and process, once the reference satisfies its own class.  Every caller
    gets the same objects, so they are read-only: the arrays, the mapping and
    its exponent sets."""
    system = expand_constraints(search.n, search.generators, search.p, search.q)
    ref_residual = system.residual(search.reference.coords)
    if ref_residual > 1e-9:
        raise RuntimeError("internal error: the reference violates its own "
                           f"symmetry class (residual {ref_residual:.3e})")
    for array in (*vars(system).values(), *system._hessian_entries):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    expected = {family: frozenset(exponents) for family, exponents
                in generated_group(search.n, search.generators).items()}
    return system, MappingProxyType(expected)


def _correct(boundary, guess: PeriodicLift, system: AffineSystem, reference: PeriodicLift):
    """Newton's method in the class's orbit basis from a predicted lift: the
    search at delta = infinity (:func:`~.flow.newton`).

    The guess, an affine combination of lifts of the class, is not projected
    (a stationary lift comes back bit for bit).  Returns (run, ratio, None),
    ratio Deuflhard's simplified-Newton monotonicity ratio of the first step,
    or run None and the reason as the last entry when the guess leaves the
    flow's guard (GUARD_FLOOR, 1 - GUARD_FLOOR), the first step fails the
    test ratio < THETA_MAX, the run stops unconverged (a rejected step ends
    it), or the reduced Hessian at the limit is not negative definite (the
    limit is no strict local maximum of the action in the class).
    """
    if first_inadmissible(guess.coords, guess.q, GUARD_FLOOR) is not None:
        return None, 0.0, "the guess is not admissible"
    run, ratio, reduced = newton(boundary, guess, system, reference)
    if not ratio < THETA_MAX:
        return None, ratio, "step 1 failed the monotonicity test"
    if not run.converged:
        return None, ratio, f"{run.reason} after {run.n_steps} steps"
    top = float(np.linalg.eigvalsh(reduced).max(initial=-np.inf))
    if not top < 0:
        return None, ratio, f"largest reduced Hessian eigenvalue {top:.3g} >= 0"
    return run, ratio, None


def find_orbit(request: SearchRequest, *, warm: tuple | None = None) -> OrbitReport:
    """Search for a non-Birkhoff orbit in the requested symmetry class.

    Pipeline: validate the boundary (strict convexity, dihedral
    equivariance), evaluate the closed-form criterion, gate on its margin
    (raise :class:`CriterionInconclusive` unless forced), reparametrize to
    constant speed, nudge the symmetric Birkhoff reference along the class
    mode, search from it to stationarity (:func:`~.flow.integrate`), classify
    the limit, and re-check every predicted property.

    ``warm`` is the (m_prev, x) margin and lift of an orbit of the class on a
    nearby table of the same family.  When the criterion predicts an orbit,
    Newton's method in the class basis corrects two predictions in turn:
    when m_prev > 0, x scaled about the Birkhoff reference by the root of the
    margin ratio, x + (sqrt(margin / m_prev) - 1)(x - reference), which is x
    itself at an equal margin; then x.  The first one the corrector accepts
    is the result ("continued"; its Newton run is the report's ``flow``).
    Otherwise the search runs exactly as without ``warm``.
    """
    boundary, search, report = checked_criterion(request)
    predicted = report.verdict == "orbit_predicted"
    if not predicted:
        if not request.force:
            raise CriterionInconclusive(report)
        log.warning("margin %.6g is inconclusive for kind %s at (p, q) = "
                    "(%d, %d); running anyway (force)", report.margin, report.kind,
                    report.p, report.q)

    n, p, q = search.n, search.p, search.q
    reference = search.reference
    system, expected = _class_structures(search)

    cs = reparametrize_constant_speed(boundary)
    action_ref = periodic_action(cs, reference)
    run = ratio = eps = None
    if warm is not None and predicted:
        m_prev, x = warm
        guesses = [("previous", x)]
        if m_prev > 0:
            # a predictor: sqrt(margin) is the law of a K >= 4 pitchfork; at K = 3
            # (flagship, transcritical) the branch is linear in the margin, yet
            # the corrector accepted this for 133 of 134 continued flagship entries
            scale = np.sqrt(report.margin / m_prev) - 1.0
            guesses.insert(0, ("scaled", x.with_coords(
                x.coords + scale * (x.coords - reference.coords))))
        for name, guess in guesses:
            run, ratio, why = _correct(cs, guess, system, reference)
            if run is not None:
                log.info("continued from the warm lift (%s prediction): %d Newton "
                         "steps, first-step monotonicity ratio %.3g", name,
                         run.n_steps, ratio)
                break
            log.info("continuation rejected the %s prediction: %s", name, why)
    if run is None:
        ratio = None
        eps = min(1.0 / (4 * n), 1e-2) if request.epsilon is None else float(request.epsilon)
        start = search.start(eps)
        if predicted:
            # the certified mode must gain action; shrink the nudge if the gain
            # is swamped at the default amplitude
            for _ in range(6):
                gap = periodic_action(cs, start) - action_ref
                if gap > 0:
                    break
                log.info("halving epsilon %.3g -> %.3g: action gap %.3e <= 0",
                         eps, 0.5 * eps, gap)
                eps *= 0.5
                start = search.start(eps)
            else:
                raise RuntimeError(
                    f"no action gain along the certified mode down to epsilon = "
                    f"{eps:.3g}; the margin {report.margin:.3g} is too small to "
                    "resolve numerically")
        log.info("flowing kind=%s (p, q)=(%d, %d) K=%d k=%d epsilon=%.3g "
                 "margin=%.6g", search.kind, p, q, search.K, search.k, eps,
                 report.margin)
        run = integrate(cs, start, system=system, reference=reference)
    final = run.final_lift
    group = spatiotemporal_group(final, n)
    if not run.converged:
        outcome = "non_converged"
    elif group.is_birkhoff:
        outcome = "collapsed_to_birkhoff"
    else:
        outcome = "non_birkhoff_found"

    crossings = intersection_index(final, reference)
    action_gain = run.final_action - action_ref

    anomalies = []
    if outcome == "non_birkhoff_found":
        if group.minimal_period != report.predicted_min_period:
            anomalies.append(f"minimal period {group.minimal_period} != predicted "
                             f"{report.predicted_min_period}")
        if crossings != report.predicted_crossings:
            anomalies.append(f"crossing count {crossings} != predicted "
                             f"{report.predicted_crossings}")
        if not action_gain > 0:
            anomalies.append(f"action gain {action_gain:.3e} is not positive")
        for family, want in expected.items():
            got = group.exponents(family)
            if got != want:
                kind, parity = family.split("_")
                anomalies.append(f"{parity} {kind} exponents {sorted(got)} "
                                 f"!= expected {sorted(want)}")

    return OrbitReport(
        outcome=outcome,
        final_lift=final,
        is_birkhoff=group.is_birkhoff,
        group=group,
        crossings_vs_reference=crossings,
        action_gain=float(action_gain),
        anomalies=anomalies,
        epsilon=eps,
        criterion=report,
        flow=run,
        start="nudged" if eps is not None else "continued",
        corrector_ratio=ratio,
    )


@dataclass
class SweepEntry:
    """One sweep point: its parameter value and whatever the run produced."""

    value: object
    criterion: CriterionReport | None = None
    report: OrbitReport | None = None
    error: str | None = None


def sweep(base: SearchRequest, param: str, values, workers: int | None = None):
    """find_orbit runs over a list of parameter values, in the given order.

    ``param`` is "alpha" (varies the boundary descriptor) or one of the
    integer request fields ("s", "N", "m", "n", "branch", "reflection",
    "shift"), whose values must be integral, or "epsilon".  Failures —
    inconclusive criteria, invalid parameter combinations, flow breakdowns —
    are recorded on their entry and the sweep continues; each failure other
    than an inconclusive criterion also logs one warning line, with its
    traceback only at DEBUG level.

    Every entry runs on the calling thread.  An alpha sweep follows the
    orbit branch: after an entry that found a non-Birkhoff orbit with no
    anomalies, the next passes find_orbit that entry's (margin, lift) as
    ``warm``, from which it predicts its start; after any other entry it
    passes none.  An entry whose continuation falls back to the nudged
    start, and every entry of another sweep, is the independent find of its
    request.  ``workers`` is accepted and ignored, for callers that still
    pass it (ROADMAP item 1).
    """
    requests = []
    for v in values:
        if param == "alpha":
            descriptor = dict(base.billiard)
            descriptor["alpha"] = float(v)
            check_table_keys(descriptor)
            requests.append(replace(base, billiard=descriptor))
        elif param in ("s", "N", "n", "m", "branch", "reflection", "shift"):
            if not float(v).is_integer():
                raise ValueError(f"sweep parameter {param!r} takes integers, got {v!r}")
            requests.append(replace(base, **{param: int(v)}))
        elif param == "epsilon":
            requests.append(replace(base, epsilon=float(v)))
        else:
            raise ValueError(f"unknown sweep parameter {param!r}")

    entries, warm = [], None
    for value, req in zip(values, requests):
        try:
            rep = find_orbit(req, warm=warm)
            entry = SweepEntry(value=value, criterion=rep.criterion, report=rep)
        except CriterionInconclusive as exc:
            entry = SweepEntry(value=value, criterion=exc.report,
                               error=f"inconclusive: margin = {exc.report.margin:.6g} "
                                     "is not positive beyond roundoff")
        except Exception as exc:       # noqa: BLE001 - recorded per entry
            entry = SweepEntry(value=value, error=f"{type(exc).__name__}: {exc}")
            log.warning("sweep entry %r failed: %s", value, entry.error,
                        exc_info=log.isEnabledFor(logging.DEBUG))
        rep = entry.report
        clean = param == "alpha" and rep is not None and \
            rep.outcome == "non_birkhoff_found" and not rep.anomalies
        warm = (rep.criterion.margin, rep.final_lift) if clean else None
        entries.append(entry)
    return entries
