"""Periodic lifts of billiard orbits: ordering tests, symmetry constraints,
spatiotemporal classification, and orbit-file I/O.

A (p, q)-periodic lift is a strictly increasing sequence x with
x_{i+p} = x_i + q and increments in (0, 1); it encodes a period-p orbit that
winds q times around the table.  Symmetries of the underlying orbit become
affine identities x_j = +-x_i + c between lift coordinates; this module walks
them into orbits of indices, which give the symmetry class an orthonormal
basis, one column per free orbit, kept as each vertex's column and weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

#: snapping tolerance of the ordering and crossing tests and of class membership
SNAP_TOL = 1e-9
#: tolerance of the minimal-period and classification residuals
CLASSIFY_TOL = 1e-8

#: the four generator families: kind -> (index direction d, sign on x_i,
#: coefficient c of i) in the identity x_{k + d i} = sign x_i + e/n + M + c i
FAMILIES = {
    "rotation_preserving": (+1, +1, 0),     # x_{k+i} - x_i = e/n + M
    "rotation_reversing": (-1, +1, -1),     # x_{k-i} - x_i = e/n + M - i
    "reflection_preserving": (+1, -1, +1),  # x_i + x_{k+i} = e/n + M + i
    "reflection_reversing": (-1, -1, 0),    # x_i + x_{k-i} = e/n + M
}


@dataclass
class PeriodicLift:
    """Coordinates x_0..x_{p-1} of a (p, q)-periodic lift.

    The extension rule x_{i+p} = x_i + q defines the value at any integer
    index; see :meth:`value`.
    """

    p: int
    q: int
    coords: np.ndarray

    def __post_init__(self):
        self.p = int(self.p)
        self.q = int(self.q)
        self.coords = np.asarray(self.coords, dtype=float).copy()
        if self.coords.shape != (self.p,):
            raise ValueError(f"expected {self.p} coordinates, got {self.coords.shape}")
        if not 0 < self.q < self.p:
            raise ValueError(f"winding q={self.q} must satisfy 0 < q < p={self.p}")

    def value(self, i):
        """x_i for any integer index (vectorized), via the extension rule."""
        i = np.asarray(i)
        return self.coords[np.mod(i, self.p)] + self.q * np.floor_divide(i, self.p)

    def with_coords(self, coords) -> "PeriodicLift":
        return PeriodicLift(self.p, self.q, coords)


def first_inadmissible(coords: np.ndarray, q: int, lo: float = 0.0):
    """The first increment u_i = x_{i+1} - x_i (the last one wraps to x_0 + q)
    outside the open interval (lo, 1 - lo), as (i, u_i); None when there is
    none.  A NaN increment is outside (a NaN extreme fails both tests).
    """
    inc = np.empty(coords.shape[0])
    inc[:-1] = coords[1:] - coords[:-1]
    inc[-1] = coords[0] + q - coords[-1]
    if inc.min() > lo and inc.max() < 1.0 - lo:
        return None
    inside = (inc > lo) & (inc < 1.0 - lo)
    i = int(np.argmin(inside))
    return i, float(inc[i])


def repeat_lift(lift: PeriodicLift, times: int) -> PeriodicLift:
    """Embed a (p, q) lift into the (times*p, times*q) class."""
    if times < 1:
        raise ValueError("times must be >= 1")
    return PeriodicLift(times * lift.p, times * lift.q,
                        lift.value(np.arange(times * lift.p)))


def _check_rotation(n: int, m: int, where: str = "") -> None:
    """Reject an (n, m) that names no rotation number m/n in lowest terms."""
    if not 0 < m < n:
        raise ValueError(f"{where}need 0 < m < n, got m={m}, n={n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"{where}gcd(m, n) = {math.gcd(m, n)} != 1")


def symmetric_birkhoff(n: int, m: int, branch: int = 1) -> PeriodicLift:
    """The (n, m) symmetric Birkhoff lift x_i = branch/(2n) + (m/n) i.

    ``branch`` selects one of the two geometric classes: even and odd values
    give the two distinct orbits (branch and branch + 2 describe the same
    orbit rotated by 1/n).

    Raises
    ------
    ValueError
        If gcd(m, n) != 1 or m is not in (0, n).
    """
    _check_rotation(n, m)
    coords = branch / (2.0 * n) + (m / n) * np.arange(n)
    return PeriodicLift(n, m, coords)


#: the rows of :data:`FAMILIES` in order, as one integer (4, 3) array
_FAMILY_ROWS = np.array(list(FAMILIES.values()))


def _window(lift: PeriodicLift) -> np.ndarray:
    """x_{1-p} .. x_{2p-2}: every x_{k + d i} with k, i = 0..p-1 and d = +-1."""
    p = lift.p
    return lift.value(np.arange(1 - p, 2 * p - 1))


def _entries(window: np.ndarray, coords: np.ndarray, family, k, i) -> np.ndarray:
    """x_{k + d i} - sign x_i - c i, (d, sign, c) the row ``family`` of
    :data:`FAMILIES` (numbered in order), broadcast over the three index
    arrays, read off the :func:`_window`: entries (k, i) of that family's
    identity table [k, i] -> x_{k + d i} - sign x_i - c i, k, i = 0..p-1.
    Row k is constant, e/n + an integer, exactly when the family's identity
    holds with exponent e and index shift k."""
    rows = _FAMILY_ROWS[family]
    d, sign, c = rows[..., 0], rows[..., 1], rows[..., 2]
    return window[coords.size - 1 + k + d * i] - sign * coords[i] - c * i


def _sample(p: int) -> np.ndarray:
    """The prefilter's columns: column 0 and a fixed handful spread over a row."""
    return np.unique([0, 1, p // 4, p // 2, 3 * p // 4, p - 1])


# ---------------------------------------------------------------------------
# ordering


def is_birkhoff(lift: PeriodicLift) -> bool:
    """Whether the lift is well-ordered (Birkhoff).

    Well-ordered means: for every integer translate (k, l) the sign of
    x_{i+k} + l - x_i, in {-1, 0, +1}, does not depend on i (Aubry & Le
    Daeron, Physica D 8, 1983).  So a translate that touches the lift without
    coinciding with it breaks well-ordering, as :func:`intersection_index`
    calls it "tangent"; differences within ``SNAP_TOL`` of an integer are
    ties.  Read off :func:`spatiotemporal_group`: O(p^2) on a Birkhoff lift.
    """
    return spatiotemporal_group(lift, 1).is_birkhoff


def intersection_index(xl: PeriodicLift, yl: PeriodicLift):
    """Number of sign changes of x - y over one period, or "tangent".

    Coordinates with |x_i - y_i| <= SNAP_TOL are treated as zeros; each zero
    must be a transversal crossing (neighbors of strictly opposite signs), else
    the configuration is reported as "tangent".  The count is even for distinct
    transversal lifts.
    """
    if (xl.p, xl.q) != (yl.p, yl.q):
        raise ValueError("intersection index requires lifts in the same (p, q) class")
    d = xl.coords - yl.coords
    p = xl.p
    zero = np.abs(d) <= SNAP_TOL
    if zero.any():
        if zero.all():
            return "tangent"
        for i in np.nonzero(zero)[0]:
            if not d[(i - 1) % p] * d[(i + 1) % p] < 0:
                return "tangent"
        d = d[~zero]
    signs = np.sign(d)
    return int(np.count_nonzero(signs[1:] != signs[:-1])) + int(signs[0] != signs[-1])


def minimal_period(lift: PeriodicLift) -> int:
    """Smallest divisor d of p with x_{d+i} - x_i one integer: see spatiotemporal_group."""
    return spatiotemporal_group(lift, 1).minimal_period


# ---------------------------------------------------------------------------
# symmetry constraints


@dataclass(frozen=True)
class SymmetryGenerator:
    """One spatiotemporal symmetry written as an affine identity on the lift.

    ``kind`` names one of the four families of :data:`FAMILIES`; each reads
    x_{k + d i} = sign x_i + e/n + M + c i, with n the rotation order of the
    ambient group, e the exponent of the isometry, k the index shift and M an
    integer offset.
    """

    kind: str
    exponent: int
    shift: int
    offset: int

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown generator kind {self.kind!r}")


@dataclass(frozen=True)
class AffineSystem:
    """The affine class base + span(B) cut out by symmetry generators.

    Each generator identity at each index is an edge
    x_dst = sign x_src + offset.  The edges split the indices into orbits
    whose displacements from ``base`` agree up to sign.  Each free orbit is
    one column of the orthonormal (p, d) basis B, with entries
    +-1/sqrt(|orbit|); an orbit that forces a displacement to equal its own
    negative is fixed at ``base`` and has no column.  B has one nonzero per
    row, so it is kept as two length-p vectors: ``column``, the column of each
    vertex's orbit, and ``weight``, its entry; a vertex of a fixed orbit has
    column 0 and weight 0.  The columns follow the free orbits in path
    order, so B^T H B is tridiagonal, with one corner when they form a
    cycle.  ``dim`` is d.  Every array is read-only, so one system can be
    shared.
    """

    base: np.ndarray
    column: np.ndarray
    weight: np.ndarray
    dim: int
    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    offset: np.ndarray

    def _check(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != self.base.shape:
            raise ValueError(f"expected {self.base.size} coordinates, got {coords.shape}")
        return coords

    def residual(self, coords: np.ndarray) -> float:
        """Largest violation of a generator identity."""
        x = self._check(coords)
        return float(np.abs(x[self.dst] - self.sign * x[self.src] - self.offset)
                     .max(initial=0.0))

    def reduce(self, f: np.ndarray) -> np.ndarray:
        """B^T f: one signed, weighted sum per free orbit.

        Fixed vertices add 0 to column 0, which a class without a free orbit
        (d = 0) slices off.
        """
        return np.bincount(self.column, self.weight * f, minlength=self.dim)[:self.dim]

    def expand(self, step: np.ndarray) -> np.ndarray:
        """B step: each vertex reads its orbit's entry."""
        if not self.dim:
            return np.zeros(self.weight.size)
        return self.weight * step[self.column]

    def reduced_hessian(self, diag: np.ndarray, off: np.ndarray) -> tuple:
        """B^T H B for the cyclic tridiagonal H with diagonal ``diag`` and
        H[i, i+1] = H[i+1, i] = off[i], indices mod p (at p = 2 both off[0]
        and off[1] join vertices 0 and 1), as its diagonal and its cyclic
        off-diagonal, two length-d vectors: the sub-diagonal, then the corner
        B^T H B[d-1, 0] (0 unless the orbits form a cycle of d >= 3), all
        from one bincount of H's 2p distinct entries."""
        slot, scale = self._hessian_entries
        d = self.dim
        values = np.bincount(slot, scale * np.concatenate((diag, off)), minlength=2 * d)
        return values[:d], values[d:2 * d]

    @cached_property
    def _hessian_entries(self) -> tuple:
        """Where each entry of H lands in (diagonal, off-diagonal) and its
        weight: H[i, i] on the diagonal at column_i, with w_i^2, and the pair
        H[i, i+1] = H[i+1, i], with w_i w_{i+1}, on the off-diagonal at the
        lesser column, at d - 1 when it joins the cycle's ends, or twice on
        the diagonal when both vertices lie on one orbit."""
        col, w = self.column, self.weight
        col_next, pair = np.roll(col, -1), w * np.roll(w, -1)
        d, loop = self.dim, col == col_next
        lesser = np.where(np.abs(col - col_next) == 1, np.minimum(col, col_next), d - 1)
        slot = np.concatenate((col, np.where(loop, col, d + lesser)))
        scale = np.concatenate((w * w, np.where(loop, 2.0, 1.0) * pair))
        slot.flags.writeable = scale.flags.writeable = False
        return slot, scale


def expand_constraints(n: int, generators, p: int, q: int) -> AffineSystem:
    """Expand symmetry generators of D_n into the affine class over x_0..x_{p-1}.

    Indices outside 0..p-1 are reduced by the extension rule
    x_{j} = x_{j mod p} + q * floor(j / p), which moves integer offsets into
    the edge offsets.  No generators give the class of every lift: no edges,
    one orbit per vertex.  Raises ValueError if the generators are infeasible:
    some edge is violated by more than ``SNAP_TOL`` at every class member.
    """
    i = np.arange(p)
    edges = [(i[:0], i[:0], np.zeros(0), np.zeros(0))]    # no generators: no edges
    for g in generators:
        d, s, c = FAMILIES[g.kind]
        wrap, j = np.divmod(g.shift + d * i, p)
        edges.append((i, j, np.full(p, float(s)),
                      g.exponent / n + g.offset + c * i - q * wrap))
    src, dst, sign, offset = (np.concatenate(e) for e in zip(*edges))

    # walk a spanning forest of the edges: x_i = parity_i x_{root_i} + shift_i
    links = [[] for _ in range(p)]
    for u, v, s, c in zip(src.tolist(), dst.tolist(), sign.tolist(), offset.tolist()):
        links[u].append((v, s, c))            # x_v = s x_u + c
        links[v].append((u, s, -s * c))       # x_u = s x_v - s c
    root, parity, shift = np.full(p, -1), np.ones(p), np.zeros(p)
    for r in range(p):
        if root[r] >= 0:
            continue
        root[r], stack = r, [r]
        while stack:
            u = stack.pop()
            for v, s, c in links[u]:
                if root[v] < 0:
                    root[v], parity[v], shift[v] = r, s * parity[u], s * shift[u] + c
                    stack.append(v)

    # an edge that flips the parity reads 2 parity_dst x_root =
    # sign shift_src + offset - shift_dst: it fixes its orbit at that value
    flip = parity[dst] != sign * parity[src]
    a, b = src[flip], dst[flip]
    root_value = np.zeros(p)
    root_value[root[a]] = 0.5 * parity[b] * (sign[flip] * shift[a] + offset[flip] - shift[b])
    base = parity * root_value[root] + shift
    # one column per free orbit, numbered along the chain that H's couplings
    # x_i ~ x_{i+1} trace through the orbits.  The edges' index maps are
    # dihedral, so an orbit meets at most two others: the free orbits form
    # paths (walked from an end), or one cycle (walked from the orbit of
    # vertex 0), and B^T H B is tridiagonal, with a corner on a cycle
    free = root == i
    free[root[a]] = False
    member = free[root]
    near = {r: [] for r in np.flatnonzero(free).tolist()}
    for u, v in zip(root.tolist(), np.roll(root, -1).tolist()):
        if u != v and u in near and v in near and v not in near[u]:
            near[u].append(v)
            near[v].append(u)
    rank = {}
    for r in sorted(near, key=lambda r: len(near[r]) == 2):
        while r not in rank:
            rank[r] = len(rank)
            r = next((v for v in near[r] if v not in rank), r)
    path = np.zeros(p, dtype=int)
    path[list(rank)] = list(rank.values())
    size = np.bincount(root, minlength=p)
    column = np.where(member, path[root], 0)
    weight = np.where(member, parity / np.sqrt(size[root]), 0.0)
    for array in (base, column, weight, src, dst, sign, offset):
        array.flags.writeable = False

    system = AffineSystem(base, column, weight, int(np.count_nonzero(free)),
                          src, dst, sign, offset)
    worst = system.residual(base)
    if worst > SNAP_TOL:
        raise ValueError(
            f"infeasible symmetry constraints (worst residual {worst:.3e}); "
            "the generators are incompatible with the (p, q) class")
    return system


# ---------------------------------------------------------------------------
# spatiotemporal classification


@dataclass(frozen=True)
class GroupDescription:
    elements: list      # the detected SymmetryGenerators
    type_label: str
    is_birkhoff: bool
    minimal_period: int
    winding: int        # x_d - x_0 = q d / p, d the minimal period (p/d such steps make q)
    borderline_residual: float | None = None

    def exponents(self, family: str) -> set:
        return {g.exponent for g in self.elements if g.kind == family}


def type_label(exponents: dict, n: int, birkhoff: bool) -> str:
    """The type label of a group given as family -> exponent set.

    One of Birkhoff-symmetric, I, II, III, IV, V, or none:

    - Birkhoff-symmetric: well-ordered and the full group acts (all rotations
      preserving, all reflections reversing);
    - I: >= 2 preserving rotations, reversing reflections, nothing else;
    - V: some reflection acts both preserving and reversing.  Such a sequence
      is palindromic, so the identity also shows up as a reversing "rotation"
      with exponent 0 — which is why II below demands a nontrivial exponent;
    - II: a nontrivial reversing rotation together with a preserving
      reflection;
    - IV: preserving reflections only;  III: reversing reflections only;
    - none: no pattern above applies.
    """
    rot_pres = exponents["rotation_preserving"]
    twisted_rev = exponents["rotation_reversing"] - {0}
    ref_pres = exponents["reflection_preserving"]
    ref_rev = exponents["reflection_reversing"]
    if birkhoff and len(rot_pres) == n and len(ref_rev) == n:
        return "Birkhoff-symmetric"
    if len(rot_pres) >= 2 and not twisted_rev and ref_rev and not ref_pres:
        return "I"
    if ref_pres & ref_rev:
        return "V"
    if twisted_rev and ref_pres:
        return "II"
    if ref_pres and not ref_rev and not twisted_rev:
        return "IV"
    if ref_rev and not ref_pres and not twisted_rev:
        return "III"
    return "none"


def generated_group(n: int, generators) -> dict:
    """family -> exponents of the subgroup of D_n x {preserving, reversing}
    that the generators generate.

    An element is (reflection?, exponent, reversing?); since
    R^a S R^b = R^(a-b) S, a reflection subtracts the exponent it is
    multiplied by, and the time parities multiply.
    """
    group, frontier = set(), [(False, 0, False)]
    while frontier:
        element = frontier.pop()
        if element not in group:
            group.add(element)
            r, e, t = element
            frontier += [(r != g.kind.startswith("reflection"),
                          (e - g.exponent if r else e + g.exponent) % n,
                          t != g.kind.endswith("reversing")) for g in generators]
    families = list(FAMILIES)     # rotations first, preserving before reversing
    exponents = {family: set() for family in families}
    for r, e, t in group:
        exponents[families[2 * r + t]].add(e)
    return exponents


def _rows(table: np.ndarray) -> tuple:
    """Each row of an identity table, its columns on axis 1, as its first
    entry (a copy, so the table is freed), its least and its largest."""
    return table[:, 0].copy(), table.min(axis=1), table.max(axis=1)


def _one_ceiling(least: np.ndarray, largest: np.ndarray) -> bool:
    """Whether each row has one snapped ceiling (the integer within ``SNAP_TOL``,
    else the ceiling).  It never decreases as its argument grows, so a row's
    least and largest entry decide; NaN has none."""
    extremes = np.array((least, largest))
    nearest = np.round(extremes)
    ceiling = np.where(np.abs(extremes - nearest) < SNAP_TOL, nearest, np.ceil(extremes))
    return bool(np.all(ceiling[0] == ceiling[1]))


def spatiotemporal_group(lift: PeriodicLift, n: int) -> GroupDescription:
    """Detect every dihedral element acting on the orbit, and its type label.

    Scores each exponent e = 0..n-1 against the rows of each family's
    identity table (:func:`_entries`): row k, less e/n, must be one
    integer M to ``CLASSIFY_TOL``.  Each hit is the
    :class:`SymmetryGenerator` (family, e, smallest such k, M), the element
    type symmetry classes are built from; the label follows
    :func:`type_label`.  The minimal period is the least divisor d < p of p
    whose rotation-preserving row is a hit at e = 0, else p.  The lift is
    well-ordered (:func:`is_birkhoff`) when each row k of the
    rotation-preserving table [k, i] -> x_{k+i} - x_i has one snapped
    ceiling: no sign of a translate (k, l) changes, except by zeros beside
    negative values, and row p - k, q minus the same differences, rules out
    zeros beside positive ones.

    ``borderline_residual`` reports, when reflections are present, how close
    the opposite-parity reflection test came to passing — a III verdict with a
    tiny value is a near-V case.

    No table is built whole: a row is its first, least and largest entry
    (:func:`_rows`).  The :func:`_sample` columns bound each row's score from
    below and can refute well-ordering.  Only the rows they keep, the
    borderline residual's rows whose bound is below the least score found and,
    unless refuted, the rotation-preserving rows are read in full, each once.
    """
    p, x = lift.p, lift.coords
    window, count, k = _window(lift), len(FAMILIES), np.arange(p)
    # the sampled columns, laid out [family, i, k]
    first, least, largest = _rows(
        _entries(window, x, np.arange(count)[:, None, None], k, _sample(p)[:, None]))

    def spread(least, largest):
        """[family, k] -> max |entry - first|, exact: subtraction is monotone."""
        return np.maximum(largest - first, first - least)

    # [e, family, k]: M and the score on the sampled columns
    target = (np.arange(n) / n)[:, None, None]
    nearest = np.round(first - target)
    bound = np.maximum(spread(least, largest), np.abs(first - target - nearest))
    # each row's least and largest entry once read in full, -inf and inf until then
    low, high = np.full((count, p), -np.inf), np.full((count, p), np.inf)

    def scores(rows: np.ndarray) -> np.ndarray:
        """[e, family, k] -> the score once ``rows`` ([family, k]) are read; inf if unread."""
        f, r = np.nonzero(rows & (low == -np.inf))
        if f.size:
            _, low[f, r], high[f, r] = _rows(_entries(window, x, f[:, None], r[:, None], k))
        return np.maximum(spread(low, high), bound)

    hit = scores(np.any(bound <= CLASSIFY_TOL, axis=0)) <= CLASSIFY_TOL
    shift = hit.argmax(axis=2)
    names = list(FAMILIES)
    elements, exponents = [], {name: set() for name in names}
    for e, f in zip(*(i.tolist() for i in np.nonzero(hit.any(axis=2)))):
        k_e = int(shift[e, f])
        elements.append(SymmetryGenerator(names[f], e, k_e, int(nearest[e, f, k_e])))
        exponents[names[f]].add(e)
    ref_pres, ref_rev = exponents["reflection_preserving"], exponents["reflection_reversing"]
    # the opposite-parity reflection rows: [e, family] -> whether they count
    opposite = np.zeros((n, count, 1), dtype=bool)
    opposite[sorted(ref_rev - ref_pres), names.index("reflection_preserving")] = True
    opposite[sorted(ref_pres - ref_rev), names.index("reflection_reversing")] = True
    borderline = 0.0 if ref_pres | ref_rev else None
    if opposite.any():
        # score the least bound's row, then every row whose bound lies below
        # the least score: no other row can score less
        bounds = np.where(opposite, bound, np.inf)

        def least_score(rows):
            return np.where(opposite, scores(rows), np.inf).min()

        top = np.zeros((count, p), dtype=bool)
        top[np.unravel_index(bounds.argmin(), bounds.shape)[1:]] = True
        borderline = float(least_score(np.any(bounds < least_score(top), axis=0)))
    # the sampled extremes can only refute well-ordering; all rows confirm it
    birkhoff = _one_ceiling(least[0], largest[0])
    if birkhoff:
        scores(np.arange(count)[:, None] == 0)
        birkhoff = _one_ceiling(low[0], high[0])
    divisors = k[1:][hit[0, 0, 1:] & (p % k[1:] == 0)]
    minimal = int(divisors[0]) if divisors.size else p
    return GroupDescription(elements, type_label(exponents, n, birkhoff), birkhoff,
                            minimal, lift.q * minimal // p, borderline)


# ---------------------------------------------------------------------------
# Aubry diagram and orbit files


def aubry_vertices(lift: PeriodicLift, c: int = 0, d: int = 0) -> np.ndarray:
    """Vertices (i, x_{i+c} + d) for i = 0..p of the (translated) Aubry graph."""
    i = np.arange(lift.p + 1)
    return np.stack((i.astype(float), lift.value(i + c) + d), axis=1)


def lift_text(lift: PeriodicLift, n: int, m: int) -> str:
    """The text of an orbit file: header "p q n m", then one coordinate per
    line, in 17 significant digits, enough to round-trip doubles."""
    lines = [f"{lift.p} {lift.q} {n} {m}"]
    lines += [f"{c:.17g}" for c in lift.coords]
    return "\n".join(lines) + "\n"


def load_lift(path):
    """Read an orbit file; returns (lift, n, m).

    Raises
    ------
    ValueError
        If the file is malformed, the header (n, m) is not a rotation number
        m/n in lowest terms with 0 < m < n, or the lift leaves the admissible
        region (some increment outside the open interval (0, 1)).
    """
    raw = [ln.strip() for ln in Path(path).read_text().splitlines()]
    rows = [(i, ln) for i, ln in enumerate(raw, 1) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"empty orbit file: {path}")
    (line, text), rows = rows[0], rows[1:]
    header = text.split()
    if len(header) != 4:
        raise ValueError(f"orbit header must be 'p q n m', got {text!r}")
    try:
        p, q, n, m = (int(v) for v in header)
    except ValueError:
        raise ValueError(f"{path}, line {line}: orbit header 'p q n m' must be four "
                         f"integers, got {text!r}") from None
    _check_rotation(n, m, f"orbit header {text!r}: ")
    coords = []
    for line, text in rows:
        try:
            coords.append(float(text))
        except ValueError:
            raise ValueError(f"{path}, line {line}: coordinate {text!r} "
                             "is not a number") from None
    coords = np.array(coords, dtype=float)
    if coords.shape != (p,):
        raise ValueError(f"expected {p} coordinates, found {coords.size}")
    lift = PeriodicLift(p, q, coords)
    bad = first_inadmissible(lift.coords, q)
    if bad is not None:
        raise ValueError(f"lift leaves the admissible region: increment {bad[0]} "
                         f"= {bad[1]:.6g} is outside (0, 1)")
    return lift, n, m
