"""Stability coefficients, circulant Hessian, closed-form existence criteria."""

import math
from dataclasses import replace

import numpy as np
import pytest

from billiardflow import (
    criterion,
    gradient_field,
    hessian,
    kappa_chord,
    repeat_lift,
    search_class,
    symmetric_birkhoff,
)
from billiardflow.geometry import Boundary, make_circle
from billiardflow.spectral import class_criterion
from billiardflow.sequences import (
    PeriodicLift,
    SymmetryGenerator,
    generated_group,
    type_label,
)
from oracles import birkhoff_coefficients, circulant, decimal_hessian

# frozen reference values at the order-4 boundary with bulge 0.05, branch 1
LIMACON4_KAPPA = 0.1662049861495844
LIMACON4_CHORD = 1.3435028842544403


def mode_eigenvalue(alpha, beta, p, mode):
    """Oracle: eigenvalue of the circulant on the Fourier mode ``mode``."""
    return 2.0 * alpha + 2.0 * beta * math.cos(2.0 * math.pi * mode / p)


def fd_hessian(boundary, lift, h=1e-5):
    """Independent oracle: central differences of the gradient field."""
    p = lift.p
    out = np.zeros((p, p))
    for i in range(p):
        plus = lift.coords.copy()
        plus[i] += h
        minus = lift.coords.copy()
        minus[i] -= h
        fp = gradient_field(boundary, lift.with_coords(plus))
        fm = gradient_field(boundary, lift.with_coords(minus))
        out[i] = (fp - fm) / (2.0 * h)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# coefficients


def test_circle_coefficients_closed_form(circle4):
    co = birkhoff_coefficients(circle4, 4, 1)
    assert co.speed == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert co.chord == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert co.curvature == pytest.approx(1.0, rel=1e-10)
    assert co.beta == pytest.approx(2.0 * math.pi ** 2 / math.sqrt(2.0), rel=1e-9)
    # on the unit circle at (4, 1) the diagonal and off-diagonal cancel
    assert co.alpha == pytest.approx(-co.beta, rel=1e-9)
    assert co.alpha < 0


def test_limacon_kappa_chord_frozen(limacon4_cs):
    kappa, chord = kappa_chord(limacon4_cs, 4, 1)
    assert kappa == pytest.approx(LIMACON4_KAPPA, rel=1e-10)
    assert chord == pytest.approx(LIMACON4_CHORD, rel=1e-10)


def test_kappa_chord_rejects_a_degenerate_tangent():
    # gamma(x) = exp(i (2 pi x - sin 2 pi x)) stops at x = 0: gamma'(0) = 0
    def jet(x, order):
        x = np.asarray(x, dtype=float)
        turn = 2.0 * math.pi * x
        theta = turn - np.sin(turn)
        d_theta = 2.0 * math.pi * (1.0 - np.cos(turn))
        dd_theta = 4.0 * math.pi ** 2 * np.sin(turn)
        z = np.exp(1j * theta)
        return [z, 1j * d_theta * z, (1j * dd_theta - d_theta ** 2) * z][:order + 1]

    table = Boundary(jet, symmetry_order=1, speed=None)
    with pytest.raises(ValueError, match="degenerate tangent"):
        kappa_chord(table, 2, 1, 0)


def test_kappa_chord_is_parametrization_independent(limacon4, limacon4_cs):
    # the reference points sit on the symmetry axes, which both equivariant
    # parametrizations pin to the same parameter values
    assert kappa_chord(limacon4, 4, 1) == pytest.approx(
        kappa_chord(limacon4_cs, 4, 1), rel=1e-9)


def test_ellipse_minor_axis_two_bounce(ellipse21):
    kappa, chord = kappa_chord(ellipse21, 2, 1, branch=1)
    assert kappa == pytest.approx(0.25, rel=1e-9)   # b / a^2
    assert chord == pytest.approx(2.0, rel=1e-9)    # the minor axis
    kappa0, chord0 = kappa_chord(ellipse21, 2, 1, branch=0)
    assert kappa0 == pytest.approx(2.0, rel=1e-9)   # a / b^2
    assert chord0 == pytest.approx(4.0, rel=1e-9)   # the major axis


def test_coefficients_require_constant_speed(limacon4):
    with pytest.raises(ValueError, match="constant"):
        birkhoff_coefficients(limacon4, 4, 1)


# ---------------------------------------------------------------------------
# Hessian structure


def test_hessian_is_circulant_at_the_symmetric_orbit(limacon4_cs):
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    h = hessian(limacon4_cs, ref)
    co = birkhoff_coefficients(limacon4_cs, 4, 1)
    model = circulant(12, co.alpha, co.beta)
    assert np.max(np.abs(h - model)) < 1e-8
    assert np.allclose(h, h.T, atol=1e-12)


def test_mode_vectors_are_eigenvectors(limacon4_cs):
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    h = hessian(limacon4_cs, ref)
    co = birkhoff_coefficients(limacon4_cs, 4, 1)
    scale = np.max(np.abs(h))
    i = np.arange(12)
    for mode in range(0, 7):
        lam = mode_eigenvalue(co.alpha, co.beta, 12, mode)
        for vec in (np.sin(2 * np.pi * mode * i / 12), np.cos(2 * np.pi * mode * i / 12)):
            if np.max(np.abs(vec)) == 0.0:
                continue  # the sine vector vanishes for mode 0 and p/2
            assert np.max(np.abs(h @ vec - lam * vec)) <= 1e-9 * scale


def test_hessian_matches_finite_differences(limacon4_cs):
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    h = hessian(limacon4_cs, ref)
    fd = fd_hessian(limacon4_cs, ref)
    assert np.allclose(h, fd, rtol=1e-4, atol=1e-6 * np.max(np.abs(h)))


def test_hessian_matches_the_per_edge_assembly(limacon4, limacon4_cs):
    # reference: the per-chord formula in 40-digit decimals from the table's
    # own jet values, off a critical point so every entry differs, on a
    # constant-speed table and a raw one; at p = 2 both edges meet in the
    # off-diagonal entries
    rng = np.random.default_rng(17)
    for table in (limacon4_cs, limacon4):
        for p, q in ((2, 1), (3, 1), (7, 2), (12, 5), (48, 13)):
            inc = rng.uniform(0.2, 0.8, p)
            coords = 0.1 + np.r_[0.0, np.cumsum(inc / inc.sum() * q)[:-1]]
            lift = PeriodicLift(p, q, coords)
            ref = decimal_hessian(table, lift)
            h = hessian(table, lift)
            assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# criteria


def test_main_criterion_rhs_closed_form(limacon4_cs):
    kappa, chord = kappa_chord(limacon4_cs, 4, 1)
    rep = criterion("main", 4, 1, 4, 3, kappa, chord)
    assert rep.rhs == pytest.approx(
        2.0 * math.sin(math.pi / 4) * math.cos(math.pi / 3) ** 2, abs=1e-12)
    assert rep.rhs == pytest.approx(0.3535533905932738, abs=1e-12)
    assert rep.lhs == pytest.approx(LIMACON4_KAPPA * LIMACON4_CHORD, rel=1e-10)
    assert rep.margin == pytest.approx(0.13025651232383795, rel=1e-9)
    assert rep.verdict == "orbit_predicted"
    assert (rep.p, rep.q) == (12, 3)
    assert rep.predicted_crossings == 8
    assert rep.predicted_min_period == 12


def test_two_fold_criteria_rhs_closed_forms():
    rep2 = criterion("typeII", 2, 1, None, 4, 0.1, 1.0)
    assert rep2.rhs == pytest.approx(2.0 * math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert rep2.rhs == pytest.approx(1.7071067811865477, abs=1e-12)
    assert rep2.predicted_crossings == 2
    assert (rep2.p, rep2.q) == (8, 4)
    rep1 = criterion("typeI", 2, 1, None, 3, 0.1, 1.0)
    assert rep1.rhs == pytest.approx(2.0 * math.cos(math.pi / 3) ** 2, abs=1e-12)
    assert rep1.predicted_crossings == 4
    rep5 = criterion("typeV", 2, 1, None, 5, 0.1, 1.0)
    assert rep5.rhs == pytest.approx(2.0 * math.cos(math.pi / 10) ** 2, abs=1e-12)
    assert rep5.predicted_crossings == 2


def test_criterion_preconditions():
    with pytest.raises(ValueError, match="gcd\\(m, n\\)"):
        criterion("main", 4, 2, 4, 3, 0.1, 1.0)
    with pytest.raises(ValueError, match="divide"):
        criterion("main", 4, 1, 3, 3, 0.1, 1.0)
    with pytest.raises(ValueError, match="s="):
        criterion("main", 4, 1, 4, 1, 0.1, 1.0)
    with pytest.raises(ValueError, match="gcd\\(s, N\\)"):
        criterion("main", 4, 1, 4, 2, 0.1, 1.0)
    with pytest.raises(ValueError, match="odd s"):
        criterion("typeI", 2, 1, None, 4, 0.1, 1.0)
    with pytest.raises(ValueError, match="odd s"):
        criterion("typeI", 2, 1, None, 1, 0.1, 1.0)
    with pytest.raises(ValueError, match="2-fold"):
        criterion("typeII", 3, 1, None, 4, 0.1, 1.0)
    with pytest.raises(ValueError, match="unknown"):
        criterion("bogus", 4, 1, 4, 3, 0.1, 1.0)
    with pytest.raises(ValueError, match="N"):
        criterion("main", 4, 1, None, 3, 0.1, 1.0)
    with pytest.raises(ValueError, match="typeII' fixes N = 1, got N = 2"):
        criterion("typeII", 2, 1, 2, 4, 0.1, 1.0)
    assert criterion("typeII", 2, 1, 1, 4, 0.1, 1.0) == \
        criterion("typeII", 2, 1, None, 4, 0.1, 1.0)


def test_margin_sign_matches_the_mode_eigenvalue(limacon4_cs, circle4):
    # the criterion margin is the mode-N eigenvalue up to the positive factor
    # 2 c^2 sin(m pi/n) / L
    for boundary in (limacon4_cs, circle4):
        co = birkhoff_coefficients(boundary, 4, 1)
        for (N, s) in ((4, 3), (2, 3), (2, 5), (1, 2), (1, 3)):
            rep = criterion("main", 4, 1, N, s, co.curvature, co.chord)
            lam = mode_eigenvalue(co.alpha, co.beta, rep.p, N)
            factor = 2.0 * co.speed ** 2 * math.sin(math.pi / 4) / co.chord
            assert lam == pytest.approx(factor * rep.margin, rel=1e-10)
            assert (rep.margin > 0) == (lam > 0)


def test_margin_is_scale_invariant(limacon4):
    big = replace(limacon4, jet=lambda x, order: [3.0 * z for z in limacon4.jet(x, order)])
    for (N, s) in ((4, 3), (2, 3), (1, 2)):
        small_rep = criterion("main", 4, 1, N, s, *kappa_chord(limacon4, 4, 1))
        big_rep = criterion("main", 4, 1, N, s, *kappa_chord(big, 4, 1))
        assert big_rep.margin == pytest.approx(small_rep.margin, abs=1e-10)


def test_circle_margins_are_never_positive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n))
        if math.gcd(m, n) != 1:
            continue
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        N = int(rng.choice(divisors))
        s = int(rng.integers(2, 8))
        if math.gcd(s, N) != 1:
            continue
        radius = float(rng.uniform(0.2, 5.0))
        circle = make_circle(radius, n)
        kappa, chord = kappa_chord(circle, n, m)
        rep = criterion("main", n, m, N, s, kappa, chord)
        assert rep.margin <= 0
        assert rep.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# subgroup bookkeeping


def test_subgroup_mode_parameters_flagship():
    c = search_class("main", 4, 1, N=4, s=3, branch=1, reflection=0)
    assert (c.K, c.k) == (3, 3)


def test_subgroup_mode_parameters_odd_order_dual():
    c = search_class("main", 7, 2, N=1, s=2, branch=1, reflection=0)
    assert (c.K, c.k) == (14, 3)


def test_subgroup_mode_parameters_validation():
    with pytest.raises(ValueError, match="divide"):
        search_class("main", 4, 1, N=3, s=3, branch=1, reflection=0)
    with pytest.raises(ValueError, match="gcd"):
        search_class("main", 4, 3, N=4, s=2, branch=1, reflection=0)
    with pytest.raises(ValueError, match="n=1 must be >= 2"):
        search_class("main", 1, 1, N=1, s=2)


# ---------------------------------------------------------------------------
# the search table against the per-kind oracle


def oracle_generators(kind, n, m, branch, s, K, k):
    """Oracle: the class generators written out kind by kind."""
    def gen(family, value, shift):
        return SymmetryGenerator(family, value % n, shift, (value - value % n) // n)
    if kind in ("main", "typeI"):
        return (gen("rotation_preserving", m * K, K),
                gen("reflection_reversing", branch + m * k, k))
    if kind == "typeII":
        return (gen("rotation_reversing", m * K, K),
                gen("reflection_preserving", branch + m * s, s))
    return (gen("reflection_reversing", branch + m * k, k),
            gen("reflection_preserving", branch + m * s, s))


def oracle_group(kind, n, m, branch, s, N, K, k):
    """Oracle: the predicted exponent sets and type label, kind by kind."""
    if kind in ("main", "typeI"):
        rot = {(m * K * t) % n for t in range(n)}
        bb = (branch + m * k) % n
        return ({"rotation_preserving": rot, "rotation_reversing": set(),
                 "reflection_preserving": set(),
                 "reflection_reversing": {(bb + e) % n for e in rot}},
                "I" if N >= 2 else "III")
    if kind == "typeII":
        bp = (branch + m * s) % n
        return ({"rotation_preserving": {0}, "rotation_reversing": {1},
                 "reflection_preserving": {bp},
                 "reflection_reversing": {(bp + 1) % n}}, "II")
    bb = (branch + m * k) % n
    return ({"rotation_preserving": {0}, "rotation_reversing": {0},
             "reflection_preserving": {bb}, "reflection_reversing": {bb}},
            "V")


def search_grid():
    """(kind, n, m, N, s, branch, reflection, shift) of every class checked:
    main at n = 2..9 with every coprime m, every N | n, s = 2..8 coprime to N,
    branches 0..3 and every reflection; typeI/II/V at s = 2..11, branches
    0..3 and every valid shift in 0..p-1."""
    for n in range(2, 10):
        for m in range(1, n):
            for N in (d for d in range(1, n + 1) if n % d == 0):
                for s in range(2, 9):
                    if math.gcd(m, n) != 1 or math.gcd(s, N) != 1 or s * n // N < 3:
                        continue
                    for branch in range(4):
                        for reflection in range(n):
                            yield "main", n, m, N, s, branch, reflection, None
    for s in range(2, 12):
        for branch in range(4):
            for shift in range(2 * s):
                if s % 2 and s >= 3:
                    for reflection in (0, 1):
                        if (shift - reflection + branch) % 2 == 0:
                            yield "typeI", 2, 1, None, s, branch, reflection, shift
                if shift % 2:
                    yield "typeII", 2, 1, None, s, branch, 0, shift
                if (shift - s) % 2 == 0:
                    yield "typeV", 2, 1, None, s, branch, 0, shift


def test_search_table_reproduces_the_per_kind_classes():
    classes = 0
    for kind, n, m, N, s, branch, reflection, shift in search_grid():
        c = search_class(kind, n, m, N, s, branch, reflection, shift)
        K, k, generators = c.K, c.k, c.generators
        assert generators == oracle_generators(kind, n, m, branch, s, K, k)
        exponents, label = oracle_group(kind, n, m, branch, s,
                                        {"typeI": 2}.get(kind, N), K, k)
        group = generated_group(n, generators)
        assert group == exponents, (kind, n, m, N, s, branch, reflection, shift)
        assert type_label(group, n, birkhoff=False) == label
        classes += 1
    assert classes > 10_000


def test_the_criterion_of_a_class_equals_the_criterion_of_its_request():
    # the seven-argument criterion validates the default class of the
    # request; the criterion of any valid class of that request is equal
    for kind, n, m, N, s, branch, reflection, shift in search_grid():
        search = search_class(kind, n, m, N, s, branch, reflection, shift)
        for kappa, chord in ((0.1, 1.0), (1.7, 1.2)):
            assert class_criterion(search, kappa, chord) == \
                criterion(kind, n, m, N, s, kappa, chord)


def test_every_kind_uses_the_main_criterion():
    # oracle: the two-fold closed forms 2 cos^2(2 pi/p) with 4 crossings
    # (typeI) and 2 cos^2(pi/p) with 2 crossings (typeII, typeV)
    for s in range(2, 12):
        p = 2 * s
        forms = [("typeII", 2.0 * math.cos(math.pi / p) ** 2, 2),
                 ("typeV", 2.0 * math.cos(math.pi / p) ** 2, 2)]
        if s % 2:
            forms.append(("typeI", 2.0 * math.cos(2.0 * math.pi / p) ** 2, 4))
        for kind, rhs, crossings in forms:
            for kappa, chord in ((0.1, 1.0), (0.9, 2.1), (1.7, 1.2)):
                rep = criterion(kind, 2, 1, None, s, kappa, chord)
                assert rep.rhs == rhs
                assert (rep.p, rep.q, rep.N) == (p, s, crossings // 2)
                assert rep.predicted_crossings == crossings
                assert rep.predicted_min_period == p
                assert rep.margin == rhs - kappa * chord
                assert rep.verdict == ("orbit_predicted" if rep.margin > 0
                                       else "inconclusive")
