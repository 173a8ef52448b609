"""Periodic lifts, ordering, symmetry constraints, group detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardflow import (
    expand_constraints,
    geometrically_equal,
    intersection_index,
    is_birkhoff,
    load_lift,
    minimal_period,
    repeat_lift,
    save_lift,
    spatiotemporal_group,
    symmetric_birkhoff,
)
from billiardflow.finder import SearchRequest, _class_generators, _resolve_shifts
from billiardflow.sequences import (
    PeriodicLift,
    SymmetryGenerator,
    SymmetrySpec,
    aubry_vertices,
)


def brute_force_well_ordered(lift, tol=1e-9):
    """Independent oracle: no integer translate of the lift crosses it.

    Checks every translate x_{i+j} + d - x_i over one period for a sign
    change, for all j in 0..p-1 and every integer offset d that can matter.
    """
    p, q = lift.p, lift.q
    i = np.arange(2 * p)  # one full period of differences, any start
    for j in range(p):
        base = lift.value(i + j) - lift.value(i)
        for d in range(-q - 1, q + 2):
            diff = base + d
            if np.all(np.abs(diff) <= tol):
                continue  # the trivial translate of itself
            if np.max(diff) > tol and np.min(diff) < -tol:
                return False
    return True


def random_lift(rng, p, q, margin=0.05):
    inc = rng.uniform(margin, 1 - margin, p)
    inc *= q / inc.sum()
    start = rng.uniform(0, 1)
    return PeriodicLift(p, q, start + np.r_[0.0, np.cumsum(inc[:-1])])


# ---------------------------------------------------------------------------
# lift algebra


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 9), st.integers(1, 4), st.integers(-3, 3), st.integers(0, 30))
def test_lift_value_is_periodic_plus_winding(p, q, k, i):
    q = min(q, p - 1)
    rng = np.random.default_rng(abs(hash((p, q, k, i))) % 2**32)
    lift = random_lift(rng, p, q)
    assert lift.value(i + k * p) == pytest.approx(lift.value(i) + k * q, abs=1e-12)


def test_increments_wrap_to_the_winding():
    lift = PeriodicLift(4, 1, np.array([0.1, 0.3, 0.6, 0.9]))
    assert np.allclose(lift.increments(), [0.2, 0.3, 0.3, 0.2])
    shifted = lift.translate(2, -1)
    assert shifted.value(0) == pytest.approx(lift.value(2) - 1)


def test_symmetric_birkhoff_is_a_shifted_lattice():
    ref = symmetric_birkhoff(4, 1)  # branch 1
    assert ref.p == 4 and ref.q == 1
    assert np.allclose(ref.coords, 1 / 8 + np.arange(4) / 4)
    other = symmetric_birkhoff(4, 1, branch=0)
    assert np.allclose(other.coords, np.arange(4) / 4)
    tripled = repeat_lift(ref, 3)
    assert tripled.p == 12 and tripled.q == 3
    assert np.allclose(tripled.coords[:4], ref.coords)
    assert np.allclose(tripled.coords[4:8], ref.coords + 1)


# ---------------------------------------------------------------------------
# well-ordering


def test_linear_lifts_are_well_ordered():
    for (n, m) in ((4, 1), (5, 2), (7, 3)):
        assert is_birkhoff(repeat_lift(symmetric_birkhoff(n, m), 2))


def test_small_wiggles_preserve_well_ordering():
    # a minimal-period linear lift is strictly separated from its translates,
    # so small wiggles keep it well ordered ...
    base = symmetric_birkhoff(5, 2)
    wiggled = base.with_coords(base.coords + 1e-3 * np.sin(np.arange(5)))
    assert is_birkhoff(wiggled)
    # ... but a repeated lift touches its own shift, and a generic wiggle
    # turns that tangency into genuine crossings
    doubled = repeat_lift(symmetric_birkhoff(5, 2), 2)
    bumped = doubled.with_coords(doubled.coords + 1e-3 * np.sin(np.arange(10)))
    assert not is_birkhoff(bumped)


def test_birkhoff_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(42)
    disagreements = []
    for _ in range(300):
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, max(2, p)))
        lift = random_lift(rng, p, q, margin=0.02)
        if is_birkhoff(lift) != brute_force_well_ordered(lift):
            disagreements.append(lift)
    assert not disagreements


def test_birkhoff_flag_on_crossing_perturbation():
    base = repeat_lift(symmetric_birkhoff(4, 1), 3)
    mode = np.sin(2 * np.pi * np.arange(12) / 3 - np.pi / 3)
    assert not is_birkhoff(base.with_coords(base.coords + 0.02 * mode))


# ---------------------------------------------------------------------------
# intersection index


def test_intersection_index_is_symmetric_and_even():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = random_lift(rng, 10, 3)
        b = random_lift(rng, 10, 3)
        ab = intersection_index(a, b)
        if ab == "tangent":
            continue
        assert ab == intersection_index(b, a)
        assert ab % 2 == 0


def test_shifted_copy_never_crosses():
    rng = np.random.default_rng(2)
    a = random_lift(rng, 8, 3)
    b = a.with_coords(a.coords + 0.004)
    assert intersection_index(a, b) == 0


def test_identical_lifts_are_tangent():
    a = random_lift(np.random.default_rng(3), 6, 1)
    assert intersection_index(a, a) == "tangent"


def test_mode_perturbation_crossing_count():
    # a frequency-N wiggle crosses the base lift exactly 2N times per period
    base = repeat_lift(symmetric_birkhoff(4, 1), 3)
    i = np.arange(12)
    for K, freq in ((3, 4), (6, 2)):
        mode = np.sin(2 * np.pi * i / K - np.pi / K)
        perturbed = base.with_coords(base.coords + 1e-3 * mode)
        assert intersection_index(perturbed, base) == 2 * freq


# ---------------------------------------------------------------------------
# minimal period and geometric equality


def test_minimal_period_of_embedded_birkhoff():
    assert minimal_period(repeat_lift(symmetric_birkhoff(4, 1), 3)) == 4


def test_minimal_period_of_mode_perturbation():
    base = repeat_lift(symmetric_birkhoff(4, 1), 3)
    mode = np.sin(2 * np.pi * np.arange(12) / 3 - np.pi / 3)  # period 3 in i
    assert minimal_period(base.with_coords(base.coords + 1e-3 * mode)) == 12


def test_minimal_period_generic_is_full():
    lift = random_lift(np.random.default_rng(8), 12, 5, margin=0.02)
    assert minimal_period(lift) == 12


def reversed_lift(a, r=0):
    """The lift of the same orbit traversed backwards: winding becomes p-q."""
    i = np.arange(a.p)
    return PeriodicLift(a.p, a.p - a.q, a.value(r - i) + i)


def test_geometric_equality_up_to_shift_and_reversal():
    rng = np.random.default_rng(21)
    a = random_lift(rng, 9, 2)
    shifted = a.translate(4, -1)
    assert geometrically_equal(a, shifted)
    backwards = reversed_lift(a, r=5)  # a (9, 7) lift of the same points
    assert geometrically_equal(a, backwards)
    assert geometrically_equal(backwards, a)
    other = random_lift(rng, 9, 2)
    assert not geometrically_equal(a, other)


def test_geometric_equality_reversal_within_one_class():
    # only p = 2q classes contain their own reversals
    a = random_lift(np.random.default_rng(22), 10, 5)
    back = reversed_lift(a, r=3)
    assert back.q == 5
    assert geometrically_equal(a, back)


def test_reflection_of_parameters_is_not_the_same_orbit():
    # negating boundary parameters reflects the points: a different orbit
    a = random_lift(np.random.default_rng(24), 9, 2)
    mirrored = PeriodicLift(9, 2, -a.coords[::-1])
    assert not geometrically_equal(a, mirrored)


# ---------------------------------------------------------------------------
# affine symmetry systems


def flagship_system():
    # the order-4 preserving rotation class with a reversing reflection,
    # exponents/offsets read off the reference x_i = 1/8 + i/4:
    # x_{3+i} - x_i = 3/4 and x_{3-i} + x_i = 0/4 + 1
    gens = [SymmetryGenerator("rotation_preserving", exponent=3, shift=3, offset=0),
            SymmetryGenerator("reflection_reversing", exponent=0, shift=3, offset=1)]
    return SymmetrySpec(4, gens), 12, 3


def test_reference_satisfies_its_own_class():
    spec, p, q = flagship_system()
    system = expand_constraints(spec, p, q)
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    assert system.residual(ref.coords) < 1e-12


def test_projection_is_idempotent_and_affine():
    spec, p, q = flagship_system()
    system = expand_constraints(spec, p, q)
    rng = np.random.default_rng(17)
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    noisy = ref.coords + 0.01 * rng.standard_normal(p)
    once = system.project(noisy)
    assert system.residual(once) < 1e-12
    assert np.allclose(system.project(once), once, atol=1e-13)
    # projecting a point already in the class is the identity
    assert np.allclose(system.project(ref.coords), ref.coords, atol=1e-13)


def test_projected_lifts_realize_the_boundary_symmetry(limacon4_cs):
    # points of a class member map onto each other under the actual isometry
    spec, p, q = flagship_system()
    system = expand_constraints(spec, p, q)
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    rng = np.random.default_rng(23)
    member = PeriodicLift(p, q, system.project(ref.coords
                                               + 0.02 * rng.standard_normal(p)))
    c, s = np.cos(2 * np.pi * 3 / 4), np.sin(2 * np.pi * 3 / 4)
    rot = np.array([[c, -s], [s, c]])
    pts = limacon4_cs.gamma(member.coords)
    rotated = pts @ rot.T
    target = limacon4_cs.gamma(member.value(np.arange(p) + 3))  # shift K = 3
    assert np.allclose(rotated, target, atol=1e-9)


def test_infeasible_constraint_system_is_rejected():
    cases = [
        # a preserving rotation with zero index shift forces x_i = x_i + e/n
        [SymmetryGenerator("rotation_preserving", exponent=1, shift=0, offset=0)],
        # the same index shift cannot rotate by two different exponents
        [SymmetryGenerator("rotation_preserving", exponent=3, shift=3, offset=0),
         SymmetryGenerator("rotation_preserving", exponent=1, shift=3, offset=0)],
        # x_{2-i} + x_i = 0/4 + 1 and = 2/4 + 1 fix x_1 at 1/2 and at 3/4
        [SymmetryGenerator("reflection_reversing", exponent=0, shift=2, offset=1),
         SymmetryGenerator("reflection_reversing", exponent=2, shift=2, offset=1)],
    ]
    for gens in cases:
        with pytest.raises(ValueError, match="infeasible"):
            expand_constraints(SymmetrySpec(4, gens), 12, 3)


def test_affine_system_rejects_shape_mismatch():
    spec, p, q = flagship_system()
    system = expand_constraints(spec, p, q)
    for coords in (np.zeros(p - 1), np.zeros(p + 1), np.zeros((1, p))):
        with pytest.raises(ValueError):
            system.residual(coords)
        with pytest.raises(ValueError):
            system.project(coords)


def dense_constraints(spec, p, q):
    """Independent oracle: the class as a dense system A x = rhs.

    One row per generator and index, with each family's identity spelled out
    and indices outside 0..p-1 reduced by x_{j} = x_{j mod p} + q floor(j/p).
    """
    rows, rhs = [], []
    for g in spec.generators:
        c = g.exponent / spec.n + g.offset
        for i in range(p):
            if g.kind == "rotation_preserving":      # x_{k+i} - x_i = c
                j, ci, val = g.shift + i, -1.0, c
            elif g.kind == "rotation_reversing":     # x_{k-i} - x_i = c - i
                j, ci, val = g.shift - i, -1.0, c - i
            elif g.kind == "reflection_preserving":  # x_{k+i} + x_i = c + i
                j, ci, val = g.shift + i, 1.0, c + i
            else:                                    # x_{k-i} + x_i = c
                j, ci, val = g.shift - i, 1.0, c
            wrap, jj = divmod(j, p)
            row = np.zeros(p)
            row[jj] += 1.0
            row[i] += ci
            rows.append(row)
            rhs.append(val - q * wrap)
    return np.array(rows), np.array(rhs)


#: the classes the benchmark searches in, with the dimension of each
BENCHMARK_CLASSES = [
    (dict(kind="main", n=4, m=1, N=4, s=3), 1),
    (dict(kind="typeI", n=2, m=1, s=7), 3),
    (dict(kind="typeII", n=2, m=1, s=4), 2),
    (dict(kind="typeV", n=2, m=1, s=5), 3),
    (dict(kind="main", n=4, m=1, N=1, s=5), 10),
    (dict(kind="main", n=4, m=1, N=1, s=12), 24),
    (dict(kind="main", n=4, m=1, N=1, s=24), 48),
    (dict(kind="main", n=4, m=1, N=1, s=48), 96),
]


@pytest.mark.parametrize("fields, dim", BENCHMARK_CLASSES,
                         ids=[f"{f['kind']}-N{f.get('N')}-s{f['s']}"
                              for f, _ in BENCHMARK_CLASSES])
def test_orbit_basis_spans_the_null_space_of_the_dense_system(fields, dim):
    kind, n, m, s = fields["kind"], fields["n"], fields["m"], fields["s"]
    N = fields.get("N", 2 if kind == "typeI" else 1)
    K, k = _resolve_shifts(SearchRequest(billiard={}, **fields), N)
    spec = SymmetrySpec(n, _class_generators(kind, n, m, 1, s, K, k))
    p, q = s * n, s * m
    system = expand_constraints(spec, p, q)
    matrix, rhs = dense_constraints(spec, p, q)

    _, singular, vt = np.linalg.svd(matrix)
    null = vt[int(np.sum(singular > 1e-12 * singular[0])):].T
    basis = system.basis
    assert basis.shape == null.shape == (p, dim)
    assert np.allclose(basis.T @ basis, np.eye(dim), rtol=0, atol=1e-14)
    assert not np.any(matrix @ basis)
    assert np.max(np.abs(basis @ basis.T - null @ null.T)) < 1e-12

    # the same affine set: the reference lies in it, projections agree with
    # the pseudo-inverse projection and residuals with |A x - rhs|_inf
    ref = repeat_lift(symmetric_birkhoff(n, m), s)
    assert system.residual(ref.coords) < 1e-12
    pinv = np.linalg.pinv(matrix)
    rng = np.random.default_rng(p)
    for _ in range(3):
        x = ref.coords + 0.05 * rng.standard_normal(p)
        assert np.max(np.abs(system.project(x) - (x - pinv @ (matrix @ x - rhs)))) < 1e-12
        assert system.residual(x) == pytest.approx(np.max(np.abs(matrix @ x - rhs)),
                                                   rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# spatiotemporal group detection


def test_full_group_of_the_symmetric_birkhoff_orbit():
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    desc = spatiotemporal_group(ref, 4)
    assert desc.type_label == "Birkhoff-symmetric"
    assert desc.is_birkhoff
    assert desc.exponents("rotation", "preserving") == {0, 1, 2, 3}
    assert desc.exponents("reflection", "reversing") == {0, 1, 2, 3}


def test_group_of_a_constructed_class_member():
    spec, p, q = flagship_system()
    system = expand_constraints(spec, p, q)
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    rng = np.random.default_rng(29)
    member = PeriodicLift(p, q, system.project(ref.coords
                                               + 0.05 * rng.standard_normal(p)))
    desc = spatiotemporal_group(member, 4)
    assert desc.exponents("rotation", "preserving") >= {0, 1, 2, 3}
    assert desc.exponents("reflection", "reversing") >= {0}


def test_palindromic_reflection_membership_labels_type_v():
    # build a sequence fixed by one reflection in both time parities; offsets
    # are read off the reference x_i = 1/4 + i/2: x_{5-i} + x_i = 3 and
    # x_i + x_{5+i} = 3 + i
    gens = [SymmetryGenerator("reflection_reversing", exponent=0, shift=5, offset=3),
            SymmetryGenerator("reflection_preserving", exponent=0, shift=5, offset=3)]
    system = expand_constraints(SymmetrySpec(2, gens), 10, 5)
    ref = repeat_lift(symmetric_birkhoff(2, 1), 5)
    rng = np.random.default_rng(31)
    coords = system.project(ref.coords + 0.05 * rng.standard_normal(10))
    desc = spatiotemporal_group(PeriodicLift(10, 5, coords), 2)
    assert desc.type_label == "V"
    assert desc.exponents("reflection", "preserving") \
        == desc.exponents("reflection", "reversing") == {0}
    # palindromic: pure time reversal is in the group
    assert 0 in desc.exponents("rotation", "reversing")


def test_asymmetric_lift_has_trivial_group():
    lift = random_lift(np.random.default_rng(37), 10, 3, margin=0.02)
    desc = spatiotemporal_group(lift, 2)
    assert desc.type_label == "none"
    assert desc.exponents("rotation", "preserving") == {0}


def test_borderline_residual_reports_the_near_miss():
    # start from an exactly type-V sequence and break the preserving relation
    gens = [SymmetryGenerator("reflection_reversing", exponent=0, shift=5, offset=3),
            SymmetryGenerator("reflection_preserving", exponent=0, shift=5, offset=3)]
    system = expand_constraints(SymmetrySpec(2, gens), 10, 5)
    ref = repeat_lift(symmetric_birkhoff(2, 1), 5)
    rng = np.random.default_rng(41)
    coords = system.project(ref.coords + 0.05 * rng.standard_normal(10))
    bump = 1e-5
    only_rev = expand_constraints(
        SymmetrySpec(2, [gens[0]]), 10, 5)
    broken = only_rev.project(coords + bump * rng.standard_normal(10))
    desc = spatiotemporal_group(PeriodicLift(10, 5, broken), 2)
    assert desc.type_label == "III"
    assert desc.borderline_residual is not None
    assert desc.borderline_residual < 1e-3  # a near-V verdict, visibly small


# ---------------------------------------------------------------------------
# files and diagrams


def test_orbit_file_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    lift = random_lift(rng, 12, 5)
    path = tmp_path / "orbit.txt"
    save_lift(path, lift, 4, 1)
    loaded, n, m = load_lift(path)
    assert (n, m) == (4, 1)
    assert loaded.p == 12 and loaded.q == 5
    assert np.array_equal(loaded.coords, lift.coords)  # 17 digits: exact


def test_orbit_file_header_is_plain_text(tmp_path):
    lift = symmetric_birkhoff(4, 1)
    path = tmp_path / "orbit.txt"
    save_lift(path, lift, 4, 1)
    first = path.read_text().splitlines()[0].split()
    assert first == ["4", "1", "4", "1"]


def test_aubry_vertices_graph():
    lift = symmetric_birkhoff(4, 1)
    verts = aubry_vertices(lift)
    assert verts.shape == (5, 2)
    assert np.allclose(verts[:, 0], np.arange(5))
    assert verts[4, 1] == pytest.approx(lift.value(4))
    shifted = aubry_vertices(lift, c=2, d=-1)
    assert shifted[0, 1] == pytest.approx(lift.value(2) - 1)
