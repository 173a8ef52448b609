"""Periodic lifts, ordering, symmetry constraints, group detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardflow import (
    SearchRequest,
    expand_constraints,
    find_orbit,
    intersection_index,
    is_birkhoff,
    load_lift,
    minimal_period,
    repeat_lift,
    spatiotemporal_group,
    symmetric_birkhoff,
)
from billiardflow.sequences import (
    CLASSIFY_TOL,
    FAMILIES,
    SNAP_TOL,
    PeriodicLift,
    SymmetryGenerator,
    aubry_vertices,
    first_inadmissible,
    type_label,
)
from billiardflow.spectral import search_class
from billiardflow import sequences
from oracles import (cyclic_tridiagonal, dense_basis, full_table_group, identity_table,
                     loop_intersection_index, loop_score, project, same_orbit, save_lift,
                     translate)


def brute_force_well_ordered(lift, tol=1e-9):
    """Independent oracle: every integer translate keeps one sign against the lift.

    Checks every translate x_{i+j} + d - x_i over one period, for all j in
    0..p-1 and every integer offset d that can matter, with |diff| <= tol a
    zero: the rule of :func:`is_birkhoff`, so a translate that touches the
    lift without coinciding with it is not well-ordered.
    """
    p, q = lift.p, lift.q
    i = np.arange(2 * p)  # one full period of differences, any start
    for j in range(p):
        base = lift.value(i + j) - lift.value(i)
        for d in range(-q - 1, q + 2):
            diff = base + d
            signs = np.where(np.abs(diff) <= tol, 0.0, np.sign(diff))
            if np.any(signs != signs[0]):
                return False
    return True


def lift_from_increments(increments, q):
    """The lift starting at 0 with the given increments."""
    return PeriodicLift(len(increments), q, np.r_[0.0, np.cumsum(increments[:-1])])


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
    # increments 0.2, 0.3, 0.3 and the wrapped x_0 + q - x_3 = 0.2
    lift = PeriodicLift(4, 1, np.array([0.1, 0.3, 0.6, 0.9]))
    assert first_inadmissible(lift.coords, 1) is None
    assert first_inadmissible(lift.coords, 1, 0.25) == (0, pytest.approx(0.2))
    i, inc = first_inadmissible(np.array([0.1, 0.3, 0.6, 1.2]), 1)
    assert i == 3 and inc == pytest.approx(-0.1)
    assert first_inadmissible(lift.coords, 2) == (3, pytest.approx(1.2))
    # the interval is open: an increment equal to lo is outside, and so is NaN
    assert first_inadmissible(np.arange(4) / 4, 1, 0.25) == (0, 0.25)
    assert first_inadmissible(np.array([0.1, np.nan, 0.6, 0.9]), 1)[0] == 0
    # ... and so is an increment equal to 1 - lo (increments 3/8, 3/4, 3/8, 1/2)
    assert first_inadmissible(np.array([0.0, 0.375, 1.125, 1.5]), 2, 0.25) == (1, 0.75)
    assert first_inadmissible(np.array([0.0, 0.5, 1.5, 1.75]), 2) == (1, 1.0)
    shifted = translate(lift, 2, -1)
    assert shifted.value(0) == pytest.approx(lift.value(2) - 1)


@pytest.mark.parametrize("p, q, coords, message", [
    (4, 1, np.arange(3) / 4, r"expected 4 coordinates, got \(3,\)"),
    (4, 1, np.zeros((2, 2)), r"expected 4 coordinates, got \(2, 2\)"),
    (4, 0, np.arange(4) / 4, "winding q=0 must satisfy 0 < q < p=4"),
    (4, 4, np.arange(4), "winding q=4 must satisfy 0 < q < p=4"),
], ids=["too-few", "two-dimensional", "q-zero", "q-equal-p"])
def test_a_lift_rejects_a_wrong_shape_or_winding(p, q, coords, message):
    with pytest.raises(ValueError, match=message):
        PeriodicLift(p, q, coords)


@pytest.mark.parametrize("times", [0, -1])
def test_repeat_lift_rejects_fewer_than_one_copy(times):
    with pytest.raises(ValueError, match="times must be >= 1"):
        repeat_lift(symmetric_birkhoff(4, 1), times)


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
    # exact ties, which random lifts never meet: a translate that touches
    # without coinciding, (2, -1) and (3, -1) here, breaks well-ordering ...
    touching = lift_from_increments([1 / 2, 1 / 2, 1 / 4, 1 / 2, 1 / 4], 2)
    assert [intersection_index(touching, translate(touching, c, -1))
            for c in (2, 3)] == ["tangent", "tangent"]
    ties = [(touching, False),
            (lift_from_increments([1 / 2, 1 / 2, 1 / 2, 3 / 4, 3 / 4], 3), False),
            # ... and a translate that coincides, (3, -1), keeps it
            (repeat_lift(lift_from_increments([1 / 2, 1 / 4, 1 / 4], 1), 2), True)]
    for lift, ordered in ties:
        assert is_birkhoff(lift) == brute_force_well_ordered(lift) == ordered


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


def brute_force_crossings(x, y):
    """Independent count: walk the cycle of nonzero differences x_i - y_i and
    count sign flips between cyclic neighbours; a zero (|x_i - y_i| <=
    SNAP_TOL) whose neighbours do not have strictly opposite signs, or an
    all-zero difference, is "tangent"."""
    d = [float(u) for u in x.coords - y.coords]
    p = len(d)
    zeros = [abs(u) <= SNAP_TOL for u in d]
    if all(zeros):
        return "tangent"
    for i in range(p):
        if zeros[i] and not d[i - 1] * d[(i + 1) % p] < 0:
            return "tangent"
    signs = [u > 0 for u, z in zip(d, zeros) if not z]
    return sum(signs[j] != signs[j - 1] for j in range(len(signs)))


def test_intersection_index_matches_a_brute_force_count():
    rng = np.random.default_rng(11)
    seen = {"random": 0, "snapped": 0, "tangent": 0}
    for _ in range(300):
        p = int(rng.integers(2, 16))
        a = random_lift(rng, p, 1)
        if rng.uniform() < 0.3:
            b = random_lift(rng, p, 1)
            kind = "random"
        else:
            # differences of random sign and size, some snapped to zero
            d = rng.choice([-1.0, 1.0], p) * rng.uniform(1e-3, 1e-2, p)
            snap = rng.uniform(size=p) < 0.3
            d[snap] = rng.uniform(-0.5, 0.5, snap.sum()) * SNAP_TOL
            b = a.with_coords(a.coords + d)
            kind = "snapped" if snap.any() else "random"
        want = brute_force_crossings(a, b)
        assert intersection_index(a, b) == want
        seen["tangent" if want == "tangent" else kind] += 1
    assert min(seen.values()) >= 20, seen


def test_shifted_copy_never_crosses():
    rng = np.random.default_rng(2)
    a = random_lift(rng, 8, 3)
    b = a.with_coords(a.coords + 0.004)
    assert intersection_index(a, b) == 0


def test_identical_lifts_are_tangent():
    a = random_lift(np.random.default_rng(3), 6, 1)
    assert intersection_index(a, a) == "tangent"


def test_intersection_index_rejects_lifts_of_two_classes():
    # the same orbit embedded twice over is a (24, 6) lift, not a (12, 3) one
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    with pytest.raises(ValueError, match=r"same \(p, q\) class"):
        intersection_index(ref, repeat_lift(ref, 2))
    with pytest.raises(ValueError, match=r"same \(p, q\) class"):
        intersection_index(ref, repeat_lift(symmetric_birkhoff(4, 3), 3))


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
    shifted = translate(a, 4, -1)
    assert same_orbit(a, shifted)
    backwards = reversed_lift(a, r=5)  # a (9, 7) lift of the same points
    assert same_orbit(a, backwards)
    assert same_orbit(backwards, a)
    other = random_lift(rng, 9, 2)
    assert not same_orbit(a, other)


def test_geometric_equality_reversal_within_one_class():
    # only p = 2q classes contain their own reversals
    a = random_lift(np.random.default_rng(22), 10, 5)
    back = reversed_lift(a, r=3)
    assert back.q == 5
    assert same_orbit(a, back)


def test_reflection_of_parameters_is_not_the_same_orbit():
    # negating boundary parameters reflects the points: a different orbit
    a = random_lift(np.random.default_rng(24), 9, 2)
    mirrored = PeriodicLift(9, 2, -a.coords[::-1])
    assert not same_orbit(a, mirrored)


# ---------------------------------------------------------------------------
# the identity-table rules against the loops they replaced


def cubic_is_birkhoff(lift):
    """Oracle: the O(p^3) rule, the p x p block of snapped ordering integers
    l(i, j) = ceil(x_i - x_j) compared at every simultaneous index shift."""
    p = lift.p
    xe = lift.value(np.arange(2 * p))
    r = xe[:, None] - xe[None, :]
    nearest = np.round(r)
    l = np.where(np.abs(r - nearest) < SNAP_TOL, nearest, np.ceil(r))
    return all(np.array_equal(l[m:m + p, m:m + p], l[:p, :p]) for m in range(1, p))


def loop_period_scores(lift):
    """Oracle: divisor d of p -> the score of x_{d+i} - x_i."""
    i = np.arange(lift.p)
    return {d: loop_score(lift.value(i + d) - lift.coords)
            for d in range(1, lift.p + 1) if lift.p % d == 0}


def in_band(score):
    """Loop scores at which the two rules may disagree: the loop's score and
    the table's row score are within a factor 2 of each other."""
    return CLASSIFY_TOL / 2 < score <= 2 * CLASSIFY_TOL


def tie_lift(rng, p, q, D):
    """A lift with increments in (1/D)Z: many x_{j+k} - x_j are integers."""
    extra = rng.choice(p * (D - 2), q * D - p, replace=False) // (D - 2)
    units = 1 + np.bincount(extra, minlength=p)
    return PeriodicLift(p, q, rng.uniform(0, 1) + np.r_[0, np.cumsum(units[:-1])] / D)


def oracle_lifts(rng, noise):
    """Random lifts, exact-tie lifts (rational increments, repeated lifts) and
    the tie lifts with noise of amplitude drawn log-uniformly from ``noise``."""
    lifts = []
    for _ in range(150):
        p = int(rng.integers(2, 17))
        lifts.append(random_lift(rng, p, int(rng.integers(1, p)), margin=0.02))
        D = int(rng.integers(3, 7))
        ties = [tie_lift(rng, p, int(rng.integers(-(-p // D), p + (-p // D) + 1)), D)]
        times = int(rng.choice([t for t in (2, 3, 4) if p % t == 0] or [1]))
        if p // times >= 2:
            base = random_lift(rng, p // times, int(rng.integers(1, p // times)))
            ties.append(repeat_lift(base, times))
        for tie in ties:
            amplitude = 10 ** rng.uniform(*np.log10(noise))
            lifts += [tie, tie.with_coords(tie.coords + amplitude
                                           * rng.uniform(-1, 1, tie.p))]
    return lifts


@pytest.mark.parametrize("p, q, shift", [(2, 1, 0.0), (3, 1, 0.0), (12, 5, 0.0),
                                         (48, 17, 0.0), (48, 17, 1000.0)])
def test_the_window_tables_equal_the_double_loop(p, q, shift):
    lift = random_lift(np.random.default_rng(p), p, q)
    lift = lift.with_coords(lift.coords + shift)
    i = np.arange(p)
    for number, (family, (d, sign, c)) in enumerate(FAMILIES.items()):
        # the package's gather and the oracle's strided view of the window
        for table in (sequences._entries(sequences._window(lift), lift.coords, number,
                                         i[:, None], i), identity_table(lift, family)):
            assert table.shape == (p, p)
            for k in range(p):
                for j in range(p):
                    assert table[k, j] == lift.value(k + d * j) - sign * lift.coords[j] - c * j, \
                        (family, k, j)


def test_is_birkhoff_agrees_with_the_block_comparison():
    rng = np.random.default_rng(51)
    verdicts = [(is_birkhoff(lift), cubic_is_birkhoff(lift),
                 spatiotemporal_group(lift, 2).is_birkhoff)
                for lift in oracle_lifts(rng, (1e-11, 3e-10))]
    assert all(new == old == group for new, old, group in verdicts)
    assert {new for new, _, _ in verdicts} == {True, False}


@pytest.mark.parametrize("noise", [(1e-11, 3e-10), (1e-9, 1e-7)])
def test_minimal_period_agrees_outside_the_band(noise):
    rng = np.random.default_rng(52)
    compared, periods = 0, set()
    for lift in oracle_lifts(rng, noise):
        scores = loop_period_scores(lift)
        if any(map(in_band, scores.values())):
            continue
        expected = min(d for d, score in scores.items() if score <= CLASSIFY_TOL)
        assert minimal_period(lift) == expected
        group = spatiotemporal_group(lift, 2)
        assert (group.minimal_period, group.winding) == \
            (expected, round(float(lift.value(expected) - lift.coords[0])))
        compared += 1
        periods.add(expected < lift.p)
    assert compared > 300 and periods == {True, False}


# ---------------------------------------------------------------------------
# the prefiltered classification against whole tables


def touching_lifts():
    """Lifts one of whose translates touches them without coinciding, and
    their repeats, up to p = 45."""
    touching = [lift_from_increments([1 / 2, 1 / 2, 1 / 4, 1 / 2, 1 / 4], 2),
                lift_from_increments([1 / 2, 1 / 2, 1 / 2, 3 / 4, 3 / 4], 3)]
    return [repeat_lift(lift, times) for lift in touching for times in (1, 2, 5, 9)]


def class_members(rng, p_max):
    """Members of search classes up to period ``p_max``, at random points of
    the class: every class symmetry holds to roundoff."""
    members = []
    for kind, n, N, sizes in (("main", 4, 4, (3, 5, 7, 11)), ("main", 4, 1, (3, 12)),
                              ("typeI", 2, 2, (3, 7, 23)), ("typeII", 2, 1, (4, 24)),
                              ("typeV", 2, 1, (5, 24))):
        for s in sizes:
            search = search_class(kind, n, 1, N, s)
            if search.p > p_max:
                continue
            system = expand_constraints(n, search.generators, search.p, search.q)
            ref = search.reference
            amplitude = 10 ** rng.uniform(-4, -2)
            members.append((project(system, ref.coords + amplitude
                                    * rng.standard_normal(search.p)), ref.p, ref.q, n))
    return [(PeriodicLift(p, q, coords), n) for coords, p, q, n in members]


def classification_cases(rng):
    """(lift, n): random and exact-tie lifts, symmetric Birkhoff references,
    touching translates and class members, all with p <= 48."""
    lifts = oracle_lifts(rng, (1e-11, 3e-10)) + touching_lifts()
    lifts += [random_lift(rng, p, q) for p, q in ((24, 7), (36, 5), (48, 13))]
    lifts += [repeat_lift(symmetric_birkhoff(n, m, branch), s)
              for n, m in ((2, 1), (3, 1), (4, 1), (5, 2)) for branch in (0, 1)
              for s in (1, 3, 48 // n) if n * s >= 2]
    return [(lift, n) for lift in lifts for n in (2, 3, 4)] + class_members(rng, 48)


def test_the_classification_equals_the_whole_table_oracle():
    seen = set()
    for lift, n in classification_cases(np.random.default_rng(61)):
        want = full_table_group(lift, n)
        assert spatiotemporal_group(lift, n) == want, (lift, n)
        assert (is_birkhoff(lift), minimal_period(lift)) == \
            (want.is_birkhoff, want.minimal_period)
        seen |= {("birkhoff", want.is_birkhoff), ("borderline", want.borderline_residual),
                 ("repeated", want.minimal_period < lift.p), ("label", want.type_label)}
    assert {("birkhoff", True), ("birkhoff", False), ("borderline", None),
            ("borderline", 0.0), ("repeated", True), ("repeated", False)} <= seen
    assert {label for key, label in seen if key == "label"} >= \
        {"Birkhoff-symmetric", "I", "II", "III", "V", "none"}
    assert any(key == "borderline" and value not in (None, 0.0) for key, value in seen)


def entries_read(monkeypatch):
    """A list that receives the size of every identity-table read."""
    sizes, entries = [], sequences._entries

    def counting(*args):
        out = entries(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(sequences, "_entries", counting)
    return sizes


def test_a_lift_off_the_birkhoff_set_is_classified_in_o_p(monkeypatch):
    # a member of the p = 192 main N = 1 class: the four tables would hold
    # 4 p^2 entries; the prefilter and the rows it keeps read a few p
    search = search_class("main", 4, 1, 1, 48)
    system = expand_constraints(4, search.generators, search.p, search.q)
    ref = search.reference
    rng = np.random.default_rng(62)
    member = ref.with_coords(project(system, ref.coords + 1e-3 * rng.standard_normal(192)))
    want = full_table_group(member, 4)
    sizes = entries_read(monkeypatch)
    assert spatiotemporal_group(member, 4) == want
    assert not want.is_birkhoff and want.type_label == "III"
    assert sum(sizes) <= 48 * 192
    # a Birkhoff lift is confirmed on every entry of its rotation-preserving table
    sizes.clear()
    assert spatiotemporal_group(ref, 4) == full_table_group(ref, 4)
    assert sum(sizes) >= 192 * 192


def rows_read(monkeypatch):
    """A list that receives the (family, k) of every identity-table row read
    in full: the reads laid out [row, i], apart from the sampled gather."""
    rows, entries = [], sequences._entries

    def recording(window, coords, family, k, i):
        out = entries(window, coords, family, k, i)
        if out.ndim == 2:
            rows.extend(zip(np.ravel(family).tolist(), np.ravel(k).tolist()))
        return out

    monkeypatch.setattr(sequences, "_entries", recording)
    return rows


def test_a_classification_reads_each_row_in_full_at_most_once(monkeypatch):
    flagship = find_orbit(SearchRequest(billiard={"family": "limacon", "n": 4, "alpha": 0.05},
                                        n=4, m=1, kind="main", N=4, s=3)).final_lift
    search = search_class("main", 4, 1, 1, 48)
    system = expand_constraints(4, search.generators, search.p, search.q)
    rng = np.random.default_rng(64)
    member = search.reference.with_coords(
        project(system, search.reference.coords + 1e-3 * rng.standard_normal(search.p)))
    references = [repeat_lift(symmetric_birkhoff(4, 1, branch), 48) for branch in (0, 1)]
    for lift in [flagship, member] + references:
        want = full_table_group(lift, 4)
        rows = rows_read(monkeypatch)
        assert spatiotemporal_group(lift, 4) == want
        assert len(rows) == len(set(rows)), lift.p
        monkeypatch.undo()
        assert (is_birkhoff(lift), minimal_period(lift)) == \
            (want.is_birkhoff, want.minimal_period)
    # the Birkhoff reference reads its rotation-preserving table once, whole
    assert want.is_birkhoff and want.minimal_period == 4
    assert {(0, k) for k in range(192)} <= set(rows)


def test_intersection_index_equals_the_loop_over_zeros():
    rng = np.random.default_rng(63)
    seen = {"no zero": 0, "planted zeros": 0, "tangent": 0}
    for _ in range(400):
        p = int(rng.integers(2, 40))
        a = random_lift(rng, p, int(rng.integers(1, p)))
        d = rng.choice([-1.0, 1.0], p) * 10 ** rng.uniform(-8, -2, p)
        if rng.uniform() < 0.6:
            # zeros, most of them between neighbours of opposite signs
            crossing = d[np.arange(p) - 1] * d[(np.arange(p) + 1) % p] < 0
            zeros = rng.uniform(size=p) < np.where(crossing, 0.5, 0.05)
            d[zeros] = rng.uniform(-1, 1, zeros.sum()) * SNAP_TOL
        b = a.with_coords(a.coords + d)
        want = loop_intersection_index(a, b)
        assert intersection_index(a, b) == want
        zero = np.abs(d) <= SNAP_TOL
        seen["tangent" if want == "tangent" else
             "planted zeros" if zero.any() else "no zero"] += 1
    assert min(seen.values()) >= 40, seen


# ---------------------------------------------------------------------------
# affine symmetry systems


def flagship_system():
    # the order-4 preserving rotation class with a reversing reflection,
    # exponents/offsets read off the reference x_i = 1/8 + i/4:
    # x_{3+i} - x_i = 3/4 and x_{3-i} + x_i = 0/4 + 1
    gens = [SymmetryGenerator("rotation_preserving", exponent=3, shift=3, offset=0),
            SymmetryGenerator("reflection_reversing", exponent=0, shift=3, offset=1)]
    return expand_constraints(4, gens, 12, 3), 12, 3


def test_reference_satisfies_its_own_class():
    system, p, q = flagship_system()
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    assert system.residual(ref.coords) < 1e-12


def test_projection_is_idempotent_and_affine():
    system, p, q = flagship_system()
    rng = np.random.default_rng(17)
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    noisy = ref.coords + 0.01 * rng.standard_normal(p)
    once = project(system, noisy)
    assert system.residual(once) < 1e-12
    assert np.allclose(project(system, once), once, atol=1e-13)
    # projecting a point already in the class is the identity
    assert np.allclose(project(system, ref.coords), ref.coords, atol=1e-13)


def test_projected_lifts_realize_the_boundary_symmetry(limacon4_cs):
    # points of a class member map onto each other under the actual isometry
    system, p, q = flagship_system()
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    rng = np.random.default_rng(23)
    member = PeriodicLift(p, q, project(system, ref.coords
                                        + 0.02 * rng.standard_normal(p)))
    rotated = np.exp(2j * np.pi * 3 / 4) * limacon4_cs.jet(member.coords, 0)[0]
    target = limacon4_cs.jet(member.value(np.arange(p) + 3), 0)[0]  # shift K = 3
    assert np.allclose(rotated, target, atol=1e-9)


def test_a_generator_of_an_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown generator kind 'rotation'"):
        SymmetryGenerator("rotation", exponent=1, shift=3, offset=0)


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
            expand_constraints(4, gens, 12, 3)


def test_affine_system_rejects_shape_mismatch():
    system, p, q = flagship_system()
    for coords in (np.zeros(p - 1), np.zeros(p + 1), np.zeros((1, p))):
        with pytest.raises(ValueError):
            system.residual(coords)
        with pytest.raises(ValueError):
            project(system, coords)


def dense_constraints(n, generators, p, q):
    """Independent oracle: the class as a dense system A x = rhs.

    One row per generator and index, with each family's identity spelled out
    and indices outside 0..p-1 reduced by x_{j} = x_{j mod p} + q floor(j/p).
    """
    rows, rhs = [], []
    for g in generators:
        c = g.exponent / n + g.offset
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
    generators = search_class(kind, n, m, fields.get("N"), s).generators
    p, q = s * n, s * m
    system = expand_constraints(n, generators, p, q)
    matrix, rhs = dense_constraints(n, generators, p, q)

    _, singular, vt = np.linalg.svd(matrix)
    null = vt[int(np.sum(singular > 1e-12 * singular[0])):].T
    basis = dense_basis(system)
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
        assert np.max(np.abs(project(system, x) - (x - pinv @ (matrix @ x - rhs)))) < 1e-12
        assert system.residual(x) == pytest.approx(np.max(np.abs(matrix @ x - rhs)),
                                                   rel=0, abs=1e-12)


#: every KINDS row at a small and a large s (p up to 514), and the degenerate
#: main class of criterion 11 (n = N = 3, s = 2), which has no free orbit
O_P_CLASSES = [
    ("main", 4, 1, 4, 3), ("main", 4, 1, 4, 65), ("main", 4, 1, 1, 5),
    ("main", 4, 1, 1, 128), ("typeI", 2, 1, None, 7), ("typeI", 2, 1, None, 257),
    ("typeII", 2, 1, None, 4), ("typeII", 2, 1, None, 256),
    ("typeV", 2, 1, None, 5), ("typeV", 2, 1, None, 257), ("main", 3, 1, 3, 2),
]


@pytest.mark.parametrize("case", O_P_CLASSES + [2, 12],
                         ids=[f"{c[0]}-N{c[3]}-s{c[4]}" for c in O_P_CLASSES]
                         + ["identity-p2", "identity-p12"])
def test_the_class_forms_equal_the_dense_products(case):
    # B^T f and B d, kept as a bincount and a gather, against dense products
    # with the basis the oracle builds from the same column and weight vectors
    if isinstance(case, int):
        # no generators: the class of every lift, B = I
        system = expand_constraints(1, (), case, 1)
        assert np.array_equal(system.base, np.zeros(case))
        assert np.array_equal(system.column, np.arange(case))
        assert np.array_equal(system.weight, np.ones(case)) and system.dim == case
    else:
        kind, n, m, N, s = case
        search = search_class(kind, n, m, N, s)
        system = expand_constraints(n, search.generators, search.p, search.q)
    p, d = system.weight.size, system.dim
    assert (d == 0) == (case == ("main", 3, 1, 3, 2))
    basis = dense_basis(system)
    rng = np.random.default_rng(p)
    f, step = rng.standard_normal(p), rng.standard_normal(d)
    for fast, dense in [(system.reduce(f), basis.T @ f), (system.expand(step), basis @ step)]:
        assert fast.shape == dense.shape
        ulp = np.spacing(np.max(np.abs(dense), initial=1.0))
        assert np.max(np.abs(fast - dense), initial=0.0) <= 4 * ulp


@pytest.mark.parametrize("case", [c + (branch,) for c in O_P_CLASSES for branch in (0, 1)]
                         + [2, 3, 4, 12],
                         ids=[f"{c[0]}-N{c[3]}-s{c[4]}-branch{branch}" for c in O_P_CLASSES
                              for branch in (0, 1)]
                         + [f"identity-p{p}" for p in (2, 3, 4, 12)])
def test_the_reduced_hessian_is_cyclic_tridiagonal_in_path_order(case):
    # the free orbits are numbered along the chain of H's couplings, so
    # B^T H B is its diagonal, its sub-diagonal and (on a cycle) one corner:
    # consecutive vertices sit on orbits at most one apart, or on the corner
    # (0, d - 1), and the three match the dense product to 1e-14
    if isinstance(case, int):
        system = expand_constraints(1, (), case, 1)
    else:
        kind, n, m, N, s, branch = case
        search = search_class(kind, n, m, N, s, branch=branch)
        system = expand_constraints(n, search.generators, search.p, search.q)
    p, d = system.weight.size, system.dim
    col, free = system.column, system.weight != 0
    joined = free & np.roll(free, -1)
    gap = np.abs(col - np.roll(col, -1))[joined]
    assert np.all((gap <= 1) | ((gap == d - 1) & (d >= 3)))
    rng = np.random.default_rng(p)
    diag, off = rng.standard_normal(p), rng.standard_normal(p)
    basis = dense_basis(system)
    dense = basis.T @ cyclic_tridiagonal(diag, off) @ basis
    r_diag, r_off = system.reduced_hessian(diag, off)
    assert r_diag.shape == r_off.shape == (d,)
    if d < 3 and d:
        assert r_off[-1] == 0.0     # no corner off a cycle of three or more
    scale = np.max(np.abs(dense), initial=1.0)
    assert np.max(np.abs(cyclic_tridiagonal(r_diag, r_off) - dense), initial=0.0) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# spatiotemporal group detection


def test_full_group_of_the_symmetric_birkhoff_orbit():
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    desc = spatiotemporal_group(ref, 4)
    assert desc.type_label == "Birkhoff-symmetric"
    assert desc.is_birkhoff
    assert desc.exponents("rotation_preserving") == {0, 1, 2, 3}
    assert desc.exponents("reflection_reversing") == {0, 1, 2, 3}


def test_group_of_a_constructed_class_member():
    system, p, q = flagship_system()
    ref = repeat_lift(symmetric_birkhoff(4, 1), 3)
    rng = np.random.default_rng(29)
    member = PeriodicLift(p, q, project(system, ref.coords
                                        + 0.05 * rng.standard_normal(p)))
    desc = spatiotemporal_group(member, 4)
    assert desc.exponents("rotation_preserving") >= {0, 1, 2, 3}
    assert desc.exponents("reflection_reversing") >= {0}


def test_palindromic_reflection_membership_labels_type_v():
    # build a sequence fixed by one reflection in both time parities; offsets
    # are read off the reference x_i = 1/4 + i/2: x_{5-i} + x_i = 3 and
    # x_i + x_{5+i} = 3 + i
    gens = [SymmetryGenerator("reflection_reversing", exponent=0, shift=5, offset=3),
            SymmetryGenerator("reflection_preserving", exponent=0, shift=5, offset=3)]
    system = expand_constraints(2, gens, 10, 5)
    ref = repeat_lift(symmetric_birkhoff(2, 1), 5)
    rng = np.random.default_rng(31)
    coords = project(system, ref.coords + 0.05 * rng.standard_normal(10))
    desc = spatiotemporal_group(PeriodicLift(10, 5, coords), 2)
    assert desc.type_label == "V"
    assert desc.exponents("reflection_preserving") \
        == desc.exponents("reflection_reversing") == {0}
    # palindromic: pure time reversal is in the group
    assert 0 in desc.exponents("rotation_reversing")


def test_asymmetric_lift_has_trivial_group():
    lift = random_lift(np.random.default_rng(37), 10, 3, margin=0.02)
    desc = spatiotemporal_group(lift, 2)
    assert desc.type_label == "none"
    assert desc.exponents("rotation_preserving") == {0}


def test_preserving_reflections_alone_label_type_iv():
    # a member of the class of one preserving reflection, x_i + x_{5+i} = 3 + i
    gen = SymmetryGenerator("reflection_preserving", exponent=0, shift=5, offset=3)
    system = expand_constraints(2, [gen], 10, 5)
    ref = repeat_lift(symmetric_birkhoff(2, 1), 5)
    rng = np.random.default_rng(43)
    coords = project(system, ref.coords + 0.05 * rng.standard_normal(10))
    desc = spatiotemporal_group(PeriodicLift(10, 5, coords), 2)
    assert desc.type_label == "IV"
    assert desc.exponents("reflection_preserving") == {0}
    assert desc.exponents("reflection_reversing") == desc.exponents("rotation_reversing") \
        == set()
    # the rule itself: preserving reflections, no reversing element
    exponents = {family: set() for family in FAMILIES}
    exponents["rotation_preserving"] = {0}
    exponents["reflection_preserving"] = {0, 1}
    assert type_label(exponents, 2, birkhoff=False) == "IV"
    exponents["rotation_reversing"] = {0}
    assert type_label(exponents, 2, birkhoff=False) == "IV"
    exponents["rotation_reversing"] = {1}
    assert type_label(exponents, 2, birkhoff=False) == "II"


def test_borderline_residual_reports_the_near_miss():
    # start from an exactly type-V sequence and break the preserving relation
    gens = [SymmetryGenerator("reflection_reversing", exponent=0, shift=5, offset=3),
            SymmetryGenerator("reflection_preserving", exponent=0, shift=5, offset=3)]
    system = expand_constraints(2, gens, 10, 5)
    ref = repeat_lift(symmetric_birkhoff(2, 1), 5)
    rng = np.random.default_rng(41)
    coords = project(system, ref.coords + 0.05 * rng.standard_normal(10))
    bump = 1e-5
    only_rev = expand_constraints(2, [gens[0]], 10, 5)
    broken = project(only_rev, coords + bump * rng.standard_normal(10))
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
