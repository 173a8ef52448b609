"""Seeded workload inputs and the correctness gate on every operation.

A workload is a list of operations drawn from a seed.  Each operation is one
public-API call (``find_orbit``, ``sweep``, or the ``billiardflow check`` chain
``make_boundary -> convexity_margin -> check_equivariance -> kappa_chord ->
criterion``), the number of results it yields, and a gate that checks those
results against expectations computed independently of the call.  The
benchmark only generates inputs; the package functions are looked up on the
module at call time, so a tracer installed later sees the calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: a re-evaluated stationarity residual above this fails the gate
RESIDUAL_GATE = 1e-10
#: kappa*L must match its closed form to this
KAPPA_CHORD_GATE = 1e-9
#: draws for check_scan stay this far from the convexity threshold ...
THRESHOLD_GAP = 1e-4
#: ... and this far from a zero margin, so roundoff never decides a verdict
MARGIN_GAP = 1e-6
#: inputs generated per seed; the run cycles through them
POOL = {"find_small": 1000, "find_large": 1000, "sweep_alpha": 1000,
        "check_scan": 2000}

# (label, request fields, table symmetry n, alpha band, expected type label)
SMALL_CLASSES = [
    ("main(12,3)", dict(n=4, m=1, kind="main", N=4, s=3), 4, (0.046, 0.058), "I"),
    ("typeI s=7", dict(n=2, m=1, kind="typeI", s=7), 2, (0.09, 0.195), "I"),
    ("typeII s=4", dict(n=2, m=1, kind="typeII", s=4), 2, (0.12, 0.195), "II"),
    ("typeV s=5", dict(n=2, m=1, kind="typeV", s=5), 2, (0.04, 0.195), "V"),
    ("main N=1 s=5", dict(n=4, m=1, kind="main", N=1, s=5), 4, (0.01, 0.058), "III"),
]
LARGE_CLASSES = [
    (f"main N=1 s={s}", dict(n=4, m=1, kind="main", N=1, s=s), 4, (0.02, 0.058), "III")
    for s in (12, 24, 48)
]
SWEEP_CLASS = SMALL_CLASSES[0]
SWEEP_RANGE = (0.0455, 0.0585)
#: 4 rather than 8 values keeps a sweep call under a second; see README.md
SWEEP_POINTS = 4

WORKLOADS = tuple(POOL)
#: calls per pass over a workload's classes; a run stops only between passes,
#: so every class gets the same number of calls
PASS = {"find_small": len(SMALL_CLASSES), "find_large": len(LARGE_CLASSES),
        "sweep_alpha": 1, "check_scan": 1}


@dataclass
class Op:
    """One timed public-API call and the gate for its results."""

    label: str
    call: Callable[[], object]
    results: int
    gate: Callable[[object], list]    # -> one list of problems per result


def limacon(n: int, alpha: float) -> dict:
    return {"family": "limacon", "n": n, "alpha": alpha}


def expected_pq(fields: dict) -> tuple:
    s = fields["s"]
    return s * fields["n"], s * fields["m"]


def find_problems(bf, report, descriptor: dict, fields: dict, label: str) -> list:
    """Why one find result is wrong; empty when it is right.

    The residual is re-evaluated with ``gradient_field`` on a freshly built
    constant-speed table rather than read off the report.
    """
    problems = []
    if report.outcome != "non_birkhoff_found":
        problems.append(f"outcome {report.outcome}")
    if report.anomalies:
        problems.append(f"anomalies {report.anomalies}")
    pq = (report.final_lift.p, report.final_lift.q)
    if pq != expected_pq(fields):
        problems.append(f"(p, q) = {pq} != {expected_pq(fields)}")
    if report.is_birkhoff:
        problems.append("limit is Birkhoff")
    if report.group.type_label != label:
        problems.append(f"type label {report.group.type_label!r} != {label!r}")
    table = bf.reparametrize_constant_speed(bf.make_boundary(descriptor))
    residual = float(abs(bf.gradient_field(table, report.final_lift)).max())
    if not residual < RESIDUAL_GATE:
        problems.append(f"|F|_inf = {residual:.3e}")
    return problems


def _find_op(bf, cls, alpha: float) -> Op:
    name, fields, n, _, label = cls
    descriptor = limacon(n, alpha)
    request = bf.SearchRequest(billiard=descriptor, **fields)
    return Op(label=f"{name} alpha={alpha!r}",
              call=lambda: bf.find_orbit(request), results=1,
              gate=lambda rep: [find_problems(bf, rep, descriptor, fields, label)])


def _sweep_op(bf, offset: float) -> Op:
    name, fields, n, _, label = SWEEP_CLASS
    lo, hi = SWEEP_RANGE
    step = (hi - lo) / SWEEP_POINTS
    values = [lo + offset + step * i for i in range(SWEEP_POINTS)]
    base = bf.SearchRequest(billiard=limacon(n, values[0]), **fields)

    def gate(entries):
        out = []
        for value, entry in zip(values, entries):
            if entry.value != value or entry.report is None:
                out.append([f"alpha={value!r}: {entry.error or 'wrong entry'}"])
            else:
                out.append(find_problems(bf, entry.report, limacon(n, value),
                                         fields, label))
        return out + [["missing entry"]] * (SWEEP_POINTS - len(entries))

    # serial: on a shared 2-core host the default thread pool made sweep
    # times spread by up to 30% across runs, wider than any bound (README.md)
    return Op(label=f"sweep {name} offset={offset!r}",
              call=lambda: bf.sweep(base, "alpha", values, workers=1),
              results=SWEEP_POINTS, gate=gate)


def kappa_chord_closed_form(n: int, m: int, alpha: float) -> float:
    """kappa*L at the branch-1 (n, m) Birkhoff orbit of the limacon.

    The impact points sit where r = 1 - alpha; there the curvature of
    r = 1 + alpha cos(2 pi n x) is (1 - alpha(1 + n^2)) / (1 - alpha)^2 and the
    chord is 2 (1 - alpha) sin(pi m / n).
    """
    return 2.0 * math.sin(math.pi * m / n) * (1.0 - alpha * (1 + n * n)) / (1.0 - alpha)


def criterion_rhs(n: int, m: int, N: int, s: int) -> float:
    return 2.0 * math.sin(m * math.pi / n) * math.cos(N * math.pi / (s * n)) ** 2


def check_call(bf, n: int, m: int, N: int, s: int, alpha: float):
    """The ``billiardflow check`` path; a non-convex table is rejected."""
    boundary = bf.make_boundary(limacon(n, alpha))
    if bf.convexity_margin(boundary) <= 0:
        return None
    equivariant = bf.check_equivariance(boundary, n)
    kappa, chord = bf.kappa_chord(boundary, n, m, 1)
    return equivariant, bf.criterion("main", n, m, N, s, kappa, chord)


def check_problems(result, n: int, m: int, N: int, s: int, alpha: float) -> list:
    convex = alpha < 1.0 / (1 + n * n)
    if result is None:
        return [] if not convex else ["convex table rejected"]
    if not convex:
        return ["non-convex table accepted"]
    equivariant, report = result
    problems = [] if equivariant else ["equivariance check failed"]
    closed = kappa_chord_closed_form(n, m, alpha)
    if not abs(report.lhs - closed) <= KAPPA_CHORD_GATE:
        problems.append(f"kappa*L = {report.lhs!r} != closed form {closed!r}")
    predicted = criterion_rhs(n, m, N, s) - closed > 0
    if (report.verdict == "orbit_predicted") != predicted:
        problems.append(f"verdict {report.verdict} disagrees with the closed form")
    return problems


def _check_op(bf, n: int, m: int, N: int, s: int, alpha: float) -> Op:
    return Op(label=f"check n={n} m={m} N={N} s={s} alpha={alpha!r}",
              call=lambda: check_call(bf, n, m, N, s, alpha), results=1,
              gate=lambda res: [check_problems(res, n, m, N, s, alpha)])


def _check_draw(rng: random.Random) -> tuple:
    while True:
        n = rng.randint(2, 9)
        m = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
        N = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        s = rng.choice([k for k in range(2, 7) if math.gcd(k, N) == 1])
        threshold = 1.0 / (1 + n * n)
        alpha = rng.uniform(0.0, 1.5 * threshold)
        if abs(alpha - threshold) < THRESHOLD_GAP or alpha <= 0.0:
            continue
        if abs(criterion_rhs(n, m, N, s) - kappa_chord_closed_form(n, m, alpha)) < MARGIN_GAP:
            continue
        return n, m, N, s, alpha


def make_ops(bf, workload: str, seed: int) -> list[Op]:
    """The seeded operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    size = POOL[workload]
    if workload in ("find_small", "find_large"):
        classes = SMALL_CLASSES if workload == "find_small" else LARGE_CLASSES
        return [_find_op(bf, cls, rng.uniform(*cls[3]))
                for cls in (classes[i % len(classes)] for i in range(size))]
    if workload == "sweep_alpha":
        step = (SWEEP_RANGE[1] - SWEEP_RANGE[0]) / SWEEP_POINTS
        return [_sweep_op(bf, rng.uniform(0.0, step)) for _ in range(size)]
    if workload == "check_scan":
        return [_check_op(bf, *_check_draw(rng)) for _ in range(size)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
