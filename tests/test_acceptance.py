"""Acceptance suite: one test per headline capability, each with a pinned
tolerance and a runtime budget.  Run with ``pytest -s`` to see the one-line
PASS reports."""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from billiardflow import (
    SearchRequest,
    criterion,
    expand_constraints,
    find_orbit,
    hessian,
    is_birkhoff,
    kappa_chord,
    periodic_action,
    repeat_lift,
    reparametrize_constant_speed,
    symmetric_birkhoff,
)
from billiardflow import flow
from billiardflow.finder import checked_boundary, checked_criterion
from billiardflow.geometry import (
    convexity_margin,
    make_circle,
    make_ellipse,
    make_limacon,
)
from billiardflow.sequences import (PeriodicLift, generated_group, intersection_index,
                                    type_label)
from billiardflow.spectral import class_criterion, search_class
from oracles import (
    ACTION_ROUNDOFF,
    birkhoff_coefficients,
    circulant,
    increments,
    dp5_flow,
    project,
    same_orbit,
)


def announce(num: int, name: str, t0: float, budget: float, detail: str):
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE {num} [{name}]: PASS — {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} blew its {budget:.0f}s budget"


# ---------------------------------------------------------------------------
# 1. convexity threshold


def test_criterion_1_convexity_threshold():
    t0 = time.monotonic()

    def bisect_threshold(n: int) -> float:
        lo, hi = 0.0, 0.5
        assert convexity_margin(make_limacon(n, hi)) < 0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if convexity_margin(make_limacon(n, mid)) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    worst = 0.0
    for n in range(2, 10):
        found = bisect_threshold(n)
        expected = 1.0 / (1.0 + n * n)
        assert found == pytest.approx(expected, abs=1e-6), f"n={n}"
        worst = max(worst, abs(found - expected))
    # the four tabulated bulge limits
    for n, table in ((2, 0.2), (3, 0.1), (4, 0.0588), (5, 0.0385)):
        assert bisect_threshold(n) == pytest.approx(table, abs=1e-4)

    announce(1, "convexity threshold", t0, 5.0,
             f"bisection matches 1/(1+n^2) for n=2..9, worst |err| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Hessian eigenpairs


def action_fd_hessian(boundary, lift, h=1e-5):
    """Second differences of the action itself (independent of the gradient)."""
    p = lift.p
    out = np.zeros((p, p))

    def w(delta):
        return periodic_action(boundary, lift.with_coords(lift.coords + delta))

    for i in range(p):
        for j in range(i, p):
            d = np.zeros(p)
            d[i] += h
            d[j] += h
            wpp = w(d)
            d[j] -= 2 * h
            wpm = w(d)
            d[i] -= 2 * h
            wmm = w(d)
            d[j] += 2 * h
            wmp = w(d)
            out[i, j] = out[j, i] = (wpp - wpm - wmp + wmm) / (4.0 * h * h)
    return out


def test_criterion_2_hessian_eigenpairs():
    t0 = time.monotonic()
    boundaries = {
        "circle": make_circle(1.0, 4),
        "bulged": reparametrize_constant_speed(make_limacon(4, 0.05)),
    }
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    details = []
    for name, boundary in boundaries.items():
        h = hessian(boundary, ref)
        co = birkhoff_coefficients(boundary, 4, 1)
        dev = float(np.max(np.abs(h - circulant(12, co.alpha, co.beta))))
        assert dev < 1e-8, f"{name}: circulant deviation {dev:.3e}"
        worst_eig = 0.0
        for mode in range(7):
            lam = 2.0 * co.alpha + 2.0 * co.beta * math.cos(2.0 * math.pi * mode / 12)
            i = np.arange(12)
            for vec in (np.sin(2 * np.pi * mode * i / 12),
                        np.cos(2 * np.pi * mode * i / 12)):
                if np.max(np.abs(vec)) == 0.0:
                    continue
                res = float(np.max(np.abs(h @ vec - lam * vec)))
                worst_eig = max(worst_eig, res)
                assert res < 1e-8, f"{name} mode {mode}: residual {res:.3e}"
        fd = action_fd_hessian(boundary, ref)
        rel = float(np.max(np.abs(h - fd)) / np.max(np.abs(h)))
        assert rel < 1e-4, f"{name}: FD mismatch {rel:.3e}"
        details.append(f"{name}: circulant {dev:.1e}, eig {worst_eig:.1e}, "
                       f"FD {rel:.1e}")
    announce(2, "Hessian eigenpairs", t0, 10.0, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. criterion closed forms


def test_criterion_3_closed_forms():
    t0 = time.monotonic()
    main = criterion("main", 4, 1, 4, 3, 0.1, 1.0)
    target = 2.0 * math.sin(math.pi / 4) * math.cos(math.pi / 3) ** 2
    assert abs(main.rhs - target) < 1e-12
    assert main.rhs == pytest.approx(0.3535533906, abs=1e-9)

    t2 = criterion("typeII", 2, 1, None, 4, 0.1, 1.0)
    assert abs(t2.rhs - 2.0 * math.cos(math.pi / 8) ** 2) < 1e-12
    assert t2.rhs == pytest.approx(1.7071067812, abs=1e-9)

    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n))
        if math.gcd(m, n) != 1:
            continue
        N = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        s = int(rng.integers(2, 9))
        if math.gcd(s, N) != 1:
            continue
        circle = make_circle(float(rng.uniform(0.3, 4.0)), n)
        rep = criterion("main", n, m, N, s, *kappa_chord(circle, n, m))
        assert rep.margin <= 0, f"(n,m,N,s)=({n},{m},{N},{s})"
        checked += 1

    announce(3, "criterion closed forms", t0, 1.0,
             f"main rhs {main.rhs:.10f}, typeII rhs {t2.rhs:.10f}, "
             f"{checked} circle margins all <= 0")


# ---------------------------------------------------------------------------
# 4. orbit reproduction, fourfold symmetry


def test_criterion_4_main_orbit_reproduction():
    t0 = time.monotonic()
    rep = find_orbit(SearchRequest(
        billiard={"family": "limacon", "n": 4, "alpha": 0.05},
        n=4, m=1, kind="main", N=4, s=3))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.group.minimal_period == 12
    assert rep.group.winding == 3
    assert rep.crossings_vs_reference == 8
    assert rep.action_gain > 0
    assert rep.flow.grad_norm < 1e-10
    g = rep.group
    assert g.exponents("rotation_preserving") == {0, 1, 2, 3}
    assert g.exponents("reflection_reversing") == {0, 1, 2, 3}
    assert g.exponents("rotation_reversing") == set()
    assert g.exponents("reflection_preserving") == set()
    assert rep.anomalies == []
    announce(4, "main orbit reproduction", t0, 30.0,
             f"(12,3) orbit, full order-4 dihedral group, 8 crossings, "
             f"gain {rep.action_gain:.3e}, |F| {rep.flow.grad_norm:.1e}")


# ---------------------------------------------------------------------------
# 5. orbit reproduction, twofold types


def test_criterion_5_twofold_types():
    t0 = time.monotonic()
    two = find_orbit(SearchRequest(
        billiard={"family": "limacon", "n": 2, "alpha": 0.19},
        n=2, m=1, kind="typeII", s=4))
    assert two.outcome == "non_birkhoff_found"
    assert (two.final_lift.p, two.final_lift.q) == (8, 4)
    assert two.group.type_label == "II"
    assert two.flow.grad_norm < 1e-8
    rev_rot = [e for e in two.group.elements if e.kind == "rotation_reversing"]
    assert rev_rot and all(e.shift % 2 == 1 for e in rev_rot)

    five = find_orbit(SearchRequest(
        billiard={"family": "limacon", "n": 2, "alpha": 0.10},
        n=2, m=1, kind="typeV", s=5))
    assert five.outcome == "non_birkhoff_found"
    assert (five.final_lift.p, five.final_lift.q) == (10, 5)
    assert five.group.type_label == "V"
    assert five.flow.grad_norm < 1e-8
    both_ways = five.group.exponents("reflection_preserving") & \
        five.group.exponents("reflection_reversing")
    assert both_ways, "expected a reflection acting with both parities"

    announce(5, "twofold orbit types", t0, 60.0,
             f"type II (8,4) with odd reversing shift; type V (10,5) with a "
             f"two-parity reflection; residuals {two.flow.grad_norm:.1e}, "
             f"{five.flow.grad_norm:.1e}")


# ---------------------------------------------------------------------------
# 6. flow laws on randomized starts


def random_class_start(rng, reference, system, amp=0.03):
    for _ in range(30):
        coords = project(system, reference.coords
                         + amp * rng.standard_normal(reference.p))
        inc = np.diff(coords, append=coords[0] + reference.q)
        if 0.0 < inc.min() and inc.max() < 1.0 and \
                np.max(np.abs(coords - reference.coords)) > 1e-4:
            return reference.with_coords(coords)
        amp *= 0.7
    raise AssertionError("could not draw an admissible class start")


def test_criterion_6_flow_laws():
    t0 = time.monotonic()
    setups = []
    cases = [
        (search_class("main", 4, 1, N=4, s=3),
         reparametrize_constant_speed(make_limacon(4, 0.05)), 7),
        (search_class("typeII", 2, 1, s=4),
         reparametrize_constant_speed(make_limacon(2, 0.19)), 7),
        (search_class("typeII", 2, 1, s=3),
         reparametrize_constant_speed(make_ellipse(2.0, 1.0)), 6),
    ]
    for search, boundary, runs in cases:
        system = expand_constraints(search.n, search.generators, search.p, search.q)
        setups.append((boundary, search.reference, system, runs))

    rng = np.random.default_rng(77)
    total = 0
    for boundary, reference, system, runs in setups:
        for _ in range(runs):
            start = random_class_start(rng, reference, system)
            # the laws hold along the way: a run may stop on its step budget,
            # at the integrator's noise floor above the oracle's tolerance
            rec = dp5_flow(boundary, start, system=system, max_steps=1000)
            assert np.all(np.diff(rec.actions) >= -ACTION_ROUNDOFF)
            crossings = [intersection_index(start.with_coords(x), reference)
                         for x in rec.lifts]
            counts = [c for c in crossings if isinstance(c, int)]
            assert all(b <= a for a, b in zip(counts, counts[1:]))
            assert max(system.residual(x) for x in rec.lifts) < 1e-12
            for snap in rec.lifts:
                inc = np.diff(snap, append=snap[0] + reference.q)
                assert 0.0 < inc.min() and inc.max() < 1.0
            total += 1
    assert total == 20
    announce(6, "flow laws", t0, 120.0,
             "20 randomized class starts over 3 billiards: action up, "
             "crossings down, constraints < 1e-12, winding fixed")


# ---------------------------------------------------------------------------
# 7. circle null result


def test_criterion_7_circle_collapse():
    t0 = time.monotonic()
    devs = []
    for eps in (0.02, 0.1):
        rep = find_orbit(SearchRequest(
            billiard={"family": "circle", "radius": 1.0, "n": 4},
            n=4, m=1, kind="main", N=4, s=3, epsilon=eps, force=True))
        assert rep.outcome == "collapsed_to_birkhoff"
        assert rep.is_birkhoff
        dev = float(np.max(np.abs(increments(rep.final_lift) - 0.25)))
        assert dev < 1e-8
        devs.append(dev)
    announce(7, "circle null result", t0, 10.0,
             f"both nudges collapse to equal increments "
             f"(deviations {devs[0]:.1e}, {devs[1]:.1e})")


# ---------------------------------------------------------------------------
# 8. geometric distinctness of the dual pair


def test_criterion_8_dual_pair_distinct():
    t0 = time.monotonic()
    base = {"billiard": {"family": "limacon", "n": 7, "alpha": 0.015},
            "n": 7, "m": 2, "kind": "main", "N": 1, "s": 2}
    odd = find_orbit(SearchRequest(**base, shift=3))
    even = find_orbit(SearchRequest(**base, shift=10))
    for rep in (odd, even):
        assert rep.outcome == "non_birkhoff_found"
        assert (rep.final_lift.p, rep.final_lift.q) == (14, 4)
        assert not rep.is_birkhoff
        assert rep.anomalies == []
    assert not same_orbit(odd.final_lift, even.final_lift)
    announce(8, "dual pair distinctness", t0, 60.0,
             "shift 3 and shift 10 both give (14,4) non-Birkhoff orbits, "
             "geometrically distinct")


# ---------------------------------------------------------------------------
# 9. Birkhoff oracle equivalence


def order_preserving_brute_force(lift: PeriodicLift) -> bool:
    """Direct check that integer shifts preserve the order relations:
    x_i <= x_j + l must imply x_{i+m} <= x_{j+m} + l for every i, j, l, m.
    For each pair (i, j) only the smallest admissible l can fail, so it
    suffices to test l = ceil(x_i - x_j) against all shifts m.
    """
    p = lift.p
    idx = np.arange(2 * p)
    vals = lift.value(idx)
    for i in range(p):
        for j in range(p):
            l0 = math.ceil(vals[i] - vals[j] - 1e-12)
            for m in range(p):
                if vals[i + m] - vals[j + m] > l0 + 1e-9:
                    return False
    return True


def test_criterion_9_birkhoff_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    disagreements = 0
    for _ in range(200):
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, p))
        inc = rng.uniform(0.02, 0.98, p)
        inc *= q / inc.sum()
        if inc.max() >= 1.0:
            inc = np.full(p, q / p)  # fall back to an evenly spaced lift
        coords = rng.uniform(0, 1) + np.r_[0.0, np.cumsum(inc[:-1])]
        lift = PeriodicLift(p, q, coords)
        if is_birkhoff(lift) != order_preserving_brute_force(lift):
            disagreements += 1
    assert disagreements == 0
    announce(9, "Birkhoff oracle equivalence", t0, 10.0,
             "200 random lifts, order-preservation brute force agrees exactly")


# ---------------------------------------------------------------------------
# 10. near-circular tables: non-Birkhoff orbits on small perturbations of
# the circle, with periods that grow as the perturbation shrinks


def least_predicted_s(base: SearchRequest):
    """The least s >= 2 coprime to ``base.N`` whose class the criterion
    predicts an orbit in, the largest admissible s below it, and the verdict
    at each admissible s up to the first.  The table is checked, and its
    kappa L computed, once; only the class changes with s."""
    boundary = checked_boundary(base.billiard, base.n)
    kappa, chord = kappa_chord(boundary, base.n, base.m, base.branch)
    verdicts = {}
    for s in range(2, 1000):
        if math.gcd(s, base.N) != 1:
            continue
        try:
            search = search_class(base.kind, base.n, base.m, base.N, s, base.branch,
                                  base.reflection, base.shift)
            verdicts[s] = class_criterion(search, kappa, chord).verdict
        except ValueError:          # no admissible class at this s
            continue
        if verdicts[s] == "orbit_predicted":
            return s, max(t for t in verdicts if t < s), verdicts
    pytest.fail(f"no orbit predicted for s < 1000: {base}")


def test_criterion_10_near_circular_tables():
    # on the n = 4 limacon the margin 2 sin(pi/4) cos^2(N pi/(4 s)) - kappa L
    # turns positive only for s above about N pi/(16 sqrt(alpha)), so the
    # period 4 s* grows as alpha shrinks; s* is the smallest s coprime to N
    # that the criterion predicts
    t0 = time.monotonic()
    stars = {}
    for alpha in (4e-3, 1e-3, 2.5e-4):
        table = {"family": "limacon", "n": 4, "alpha": alpha}
        for N in (1, 4):
            base = SearchRequest(billiard=table, n=4, m=1, kind="main", N=N)
            star, below, verdicts = least_predicted_s(base)
            assert verdicts[below] == "inconclusive"
            rep = find_orbit(replace(base, s=star))
            search = search_class("main", 4, 1, N, star)
            label = type_label(generated_group(4, search.generators), 4, birkhoff=False)
            assert (rep.outcome, rep.group.type_label, rep.crossings_vs_reference,
                    rep.anomalies) == ("non_birkhoff_found", label, 2 * N, []), (alpha, N)
            forced = find_orbit(replace(base, s=below, force=True))
            assert forced.outcome == "collapsed_to_birkhoff", (alpha, N)
            stars[alpha, N] = star
    assert stars == {(4e-3, 1): 4, (4e-3, 4): 13, (1e-3, 1): 7, (1e-3, 4): 25,
                     (2.5e-4, 1): 13, (2.5e-4, 4): 51}
    announce(10, "near-circular tables", t0, 60.0,
             "n = 4 limacons at alpha = 4e-3, 1e-3, 2.5e-4, N = 1 and 4: a clean "
             "non-Birkhoff orbit with 2N crossings at the smallest predicted s, "
             "and a forced collapse at the largest admissible s below it")


# ---------------------------------------------------------------------------
# 11. the criterion is sharp on a grid of classes, m > 1 included


def criterion_grid():
    """The main-kind requests on limacons with n in {3, 5, 6, 7} at 0.3 and
    0.9 of the convexity threshold 1/(1 + n^2): every coprime m <= n/2,
    every N | n and s = 2..5 with gcd(s, N) = 1."""
    for n in (3, 5, 6, 7):
        for fraction in (0.3, 0.9):
            table = {"family": "limacon", "n": n, "alpha": fraction / (1 + n * n)}
            for m in range(1, n // 2 + 1):
                for N in (d for d in range(1, n + 1) if n % d == 0):
                    for s in range(2, 6):
                        if math.gcd(m, n) == 1 and math.gcd(s, N) == 1:
                            yield SearchRequest(billiard=table, n=n, m=m, kind="main",
                                                N=N, s=s)


#: the paper's D2 case: typeI, typeII and typeV classes on two ellipses
ELLIPSE_CLASSES = [("typeI", 5), ("typeII", 3), ("typeII", 4), ("typeV", 3), ("typeV", 5)]


def test_criterion_11_criterion_is_sharp_on_a_grid():
    """A positive margin gives a clean orbit; a forced non-positive one
    collapses to the reference.  The collapse holds on this grid, whose alpha
    lie far from the criterion roots, and is not a theorem: the flagship
    class keeps a non-Birkhoff maximum a little below its root
    (``test_a_forced_run_keeps_its_postdictions``)."""
    t0 = time.monotonic()
    ellipses = [SearchRequest(billiard={"family": "ellipse", "a": a, "b": 1.0},
                              n=2, m=1, kind=kind, s=s)
                for a in (1.3, 2.0) for kind, s in ELLIPSE_CLASSES]
    limacons = list(criterion_grid())
    assert len(limacons) == 110
    tally = Counter()
    for req in limacons + ellipses:
        name = (req.billiard, req.kind, req.m, req.N, req.s)
        family = req.billiard["family"]
        predicted = checked_criterion(req)[2].verdict == "orbit_predicted"
        if not predicted and req.s == 2 and req.N == req.n:
            # rhs = 0 at s = 2, N = n, and the class mode has period 2
            with pytest.raises(ValueError, match="degenerate symmetric mode"):
                find_orbit(replace(req, force=True))
            tally[family, "degenerate"] += 1
            continue
        rep = find_orbit(replace(req, force=not predicted))
        if predicted:
            assert (rep.outcome, rep.anomalies) == ("non_birkhoff_found", []), name
            tally[family, "found"] += 1
        else:
            assert rep.outcome == "collapsed_to_birkhoff", name
            tally[family, "collapsed"] += 1
    assert tally == {("limacon", "found"): 81, ("limacon", "collapsed"): 17,
                     ("limacon", "degenerate"): 12, ("ellipse", "found"): 10}
    announce(11, "criterion sharp on a grid", t0, 120.0,
             "clean non-Birkhoff orbits at the 81 positive limacon margins "
             "(n = 3, 5, 6, 7) and on the 10 ellipse classes; the 17 forced "
             "non-positive margins collapse; the 12 s = 2, N = n requests have a "
             "degenerate mode")


# ---------------------------------------------------------------------------
# 13. infinitely many orbits: main's rhs grows with s towards 2 sin(m pi/n)


#: (n, m, N, alpha, s0, the s at and above s0, the largest admissible s below
#: s0), s0 the least s with a positive closed-form margin; the listed s are
#: coprime to N, and p = s n stays at or below 4096
INFINITELY_MANY = [
    (4, 1, 1, 0.004, 4, (4, 5, 8, 16, 32, 64, 128, 256, 512, 1024), 3),
    (4, 1, 4, 0.02, 6, (7, 9, 11, 13, 15, 17, 19), 5),
    (5, 2, 1, 0.003, 3, (3, 4, 6, 8, 16, 32, 64, 100), 2),
]


def test_criterion_13_infinitely_many_orbits():
    """The paper's sufficient condition: kappa L < 2 sin(m pi/n) makes the
    main margin 2 sin(m pi/n) cos^2(N pi/(s n)) - kappa L positive for every
    s >= s0 coprime to N, and each such class holds a clean non-Birkhoff
    orbit of minimal period s n with 2N crossings.  Covered up to
    p = 4096."""
    t0 = time.monotonic()
    found = []
    for n, m, N, alpha, s0, sizes, below in INFINITELY_MANY:
        table = {"family": "limacon", "n": n, "alpha": alpha}
        kappa, chord = kappa_chord(make_limacon(n, alpha), n, m, 1)
        ceiling = 2 * math.sin(m * math.pi / n)
        assert kappa * chord < ceiling
        positive = [s for s in range(2, 1000)
                    if ceiling * math.cos(N * math.pi / (s * n)) ** 2 > kappa * chord]
        assert positive[0] == s0 and positive == list(range(s0, 1000))
        base = SearchRequest(billiard=table, n=n, m=m, kind="main", N=N)
        assert checked_criterion(replace(base, s=below))[2].verdict == "inconclusive"
        for s in sizes:
            rep = find_orbit(replace(base, s=s))
            assert (rep.outcome, rep.anomalies, rep.group.minimal_period,
                    rep.crossings_vs_reference) == \
                ("non_birkhoff_found", [], s * n, 2 * N), (n, m, N, s)
            found.append(rep.final_lift)
    assert not any(same_orbit(a, b) for i, a in enumerate(found) for b in found[i + 1:])
    announce(13, "infinitely many orbits", t0, 30.0,
             f"{len(found)} clean non-Birkhoff orbits at every listed s >= s0 on "
             "three limacon classes, p up to 4096, and an inconclusive margin "
             "below each s0")


# ---------------------------------------------------------------------------
# 14. D2-symmetric tables that are not ellipses


#: the n = 2 limacon at 0.3 and 0.9 of its convexity threshold 1/5, and the
#: D2 classes: kind -> (label, N, the s of the grid)
D2_CLASSES = {"typeI": ("I", 2, (3, 5, 7, 9)), "typeII": ("II", 1, range(2, 7)),
              "typeV": ("V", 1, range(3, 8))}


def test_criterion_14_d2_tables_that_are_not_ellipses():
    """Criterion 11's rule on a D2 table that is no ellipse: a positive margin
    gives a clean orbit with the kind's label, 2N crossings and minimal
    period p; a forced non-positive one collapses to the reference, which,
    as for criterion 11, holds on this grid and is not a theorem."""
    t0 = time.monotonic()
    tally = Counter()
    for alpha in (0.06, 0.18):
        for kind, (label, N, sizes) in D2_CLASSES.items():
            for s in sizes:
                req = SearchRequest(billiard={"family": "limacon", "n": 2, "alpha": alpha},
                                    n=2, m=1, kind=kind, s=s)
                predicted = checked_criterion(req)[2].verdict == "orbit_predicted"
                rep = find_orbit(replace(req, force=not predicted))
                name = (alpha, kind, s)
                if predicted:
                    assert (rep.outcome, rep.group.type_label, rep.crossings_vs_reference,
                            rep.group.minimal_period, rep.anomalies) == \
                        ("non_birkhoff_found", label, 2 * N, 2 * s, []), name
                else:
                    assert rep.outcome == "collapsed_to_birkhoff", name
                tally[rep.outcome] += 1
    assert tally == {"non_birkhoff_found": 25, "collapsed_to_birkhoff": 3}
    announce(14, "D2 tables that are not ellipses", t0, 30.0,
             "typeI, typeII and typeV classes on the n = 2 limacon at alpha = "
             "0.06 and 0.18: 25 clean orbits at the positive margins, and the 3 "
             "forced non-positive margins collapse")


# ---------------------------------------------------------------------------
# 15. any rational rotation number near the circle


#: the rotation numbers m/n of criterion 15: every coprime m <= n/2, n = 3..8
ROTATION_NUMBERS = [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (7, 1), (7, 2), (7, 3),
                    (8, 1), (8, 3)]


def test_criterion_15_any_rational_rotation_number_near_the_circle():
    """The paper: arbitrarily small analytic perturbations of the circle have
    non-Birkhoff orbits of any rational rotation number.  On the n-limacon
    at alpha = 1e-4 and 1e-5, main with N = 1 and each m/n above, the least
    predicted s* (criterion 10's search) holds a clean orbit of minimal
    period s* n with 2 crossings; the verdict at s* - 1 is inconclusive and
    a forced find there collapses.  The margin
    2 sin(m pi/n) cos^2(pi/(s n)) - kappa L turns positive for s above about
    pi/(n^2 sqrt(alpha)), whatever m, so s* grows by sqrt(10) from one alpha
    to the next."""
    t0 = time.monotonic()
    stars = {}
    for n, m in ROTATION_NUMBERS:
        for alpha in (1e-4, 1e-5):
            base = SearchRequest(billiard={"family": "limacon", "n": n, "alpha": alpha},
                                 n=n, m=m, kind="main", N=1)
            star, below, verdicts = least_predicted_s(base)
            name = (n, m, alpha)
            assert below == star - 1 and verdicts[below] == "inconclusive", name
            rep = find_orbit(replace(base, s=star))
            assert (rep.outcome, rep.anomalies, rep.crossings_vs_reference,
                    rep.group.minimal_period) == \
                ("non_birkhoff_found", [], 2, star * n), name
            forced = find_orbit(replace(base, s=below, force=True))
            assert forced.outcome == "collapsed_to_birkhoff", name
            stars[n, m, alpha] = star
    assert [stars[n, m, 1e-4] for n, m in ROTATION_NUMBERS] == \
        [35, 20, 13, 13, 9, 7, 7, 7, 5, 5]
    assert [stars[n, m, 1e-5] for n, m in ROTATION_NUMBERS] == \
        [111, 63, 40, 40, 28, 21, 21, 21, 16, 16]
    for n, m in ROTATION_NUMBERS:
        growth = stars[n, m, 1e-5] / stars[n, m, 1e-4]
        assert abs(growth / math.sqrt(10) - 1) < 0.1, (n, m, growth)
    announce(15, "any rational rotation number near the circle", t0, 30.0,
             f"{len(ROTATION_NUMBERS)} rotation numbers m/n, n = 3..8, on n-limacons "
             "at alpha = 1e-4 and 1e-5: a clean non-Birkhoff orbit of period s* n "
             "at the least predicted s*, a forced collapse at s* - 1, and s* "
             "growing by sqrt(10)")


#: criterion 15's forced finds at s* - 1 that end nearest the roundoff floor
#: of the step: (n, m, alpha, s* - 1)
FORCED_NEAR_THE_FLOOR = [(3, 1, 1e-5, 110), (3, 1, 1e-4, 34), (4, 1, 1e-5, 62),
                         (8, 3, 1e-5, 15)]


def test_criterion_15_forced_collapse_does_not_hang_on_the_last_bits(monkeypatch):
    """The forced finds at s* - 1 collapse to the reference whatever the last
    bits of each step: below STATIONARITY_TOL the run stops on the step
    size, not on whether roundoff happens to lower ||F||_inf.  Each step is
    scaled by 1 + k 2^-52, k = -8, -6, ..., 8 and k = -256, -248, ..., 256,
    a range wide enough that a stop on ||F||_inf ceasing to fall leaves
    (3, 1) at alpha = 1e-5 on a non-Birkhoff lift at seven of its k."""
    solve = flow._solve
    scales = sorted(set(range(-8, 9, 2)) | set(range(-256, 257, 8)))
    for n, m, alpha, s in FORCED_NEAR_THE_FLOOR:
        request = SearchRequest(billiard={"family": "limacon", "n": n, "alpha": alpha},
                                n=n, m=m, kind="main", N=1, s=s, force=True)
        for k in scales:
            monkeypatch.setattr(flow, "_solve", lambda factor, g, k=k: [
                v * (1 + k * 2.0 ** -52) for v in solve(factor, g)])
            assert find_orbit(request).outcome == "collapsed_to_birkhoff", (n, m, alpha, k)
