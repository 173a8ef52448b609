"""Closed-form spectra at symmetric Birkhoff orbits and existence criteria.

At a symmetric Birkhoff configuration the Hessian of the periodic action is a
symmetric circulant tridiagonal matrix (with corners): diagonal 2*alpha,
off-diagonal beta > 0.  Its eigenvectors are the discrete Fourier modes, so
the sign of each mode eigenvalue — equivalently of a curvature-chord margin —
is available in closed form.  A positive margin certifies that the flow
started along the corresponding symmetric mode gains action, which is the
engine behind the non-Birkhoff orbit searches in :mod:`billiardflow.finder`.

The search kinds are one table, :data:`KINDS`; each kind's class generators,
mode and criterion are derived from its row.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import Boundary, curvature_at
from .lagrangian import chord_length, gradient_field, second_partials
from .sequences import (FAMILIES, PeriodicLift, SymmetryGenerator, _check_rotation,
                        symmetric_birkhoff)


def kappa_chord(boundary: Boundary, n: int, m: int, branch: int = 1):
    """Curvature and chord length at the (n, m) symmetric Birkhoff orbit.

    Both quantities are parametrization-independent, so any equivariant
    parametrization of the same curve gives the same values.
    """
    ref = symmetric_birkhoff(n, m, branch)
    kappa = float(curvature_at(boundary, ref.coords[0]))
    chord = float(chord_length(boundary, ref.coords[0], ref.value(1)))
    return kappa, chord


def hessian(boundary: Boundary, lift: PeriodicLift) -> np.ndarray:
    """Exact Hessian of the periodic action at a stationary lift.

    Assembled from the analytic second partials of the chord length; emits a
    warning (but still returns the matrix) if the configuration is not
    stationary to 1e-8.
    """
    residual = float(np.max(np.abs(gradient_field(boundary, lift))))
    if residual >= 1e-8:
        warnings.warn(f"Hessian requested at a non-stationary lift "
                      f"(|F|_inf = {residual:.3e})", stacklevel=2)
    p = lift.p
    x = np.asarray(lift.coords, dtype=float)
    # edge j joins vertex j to vertex j + 1, the last one to x_0 + q
    sp = second_partials(boundary, x, np.append(x[1:], x[0] + lift.q))
    j = np.arange(p)
    jn = (j + 1) % p
    h = np.zeros((p, p))
    np.add.at(h, (j, j), sp.d11)
    np.add.at(h, (jn, jn), sp.d22)
    np.add.at(h, (j, jn), sp.d12)
    np.add.at(h, (jn, j), sp.d12)
    return h


#: a margin within this many units in the last place of |lhs| + |rhs| is
#: roundoff, not a sign, and gets the verdict "inconclusive"
DEGENERATE_ULPS = 4


@dataclass(frozen=True)
class CriterionReport:
    """Result of one closed-form existence check.

    margin = rhs - kappa*L; a positive margin predicts a non-Birkhoff orbit
    of the stated kind (verdict "orbit_predicted"), a non-positive one is
    "inconclusive" (it never proves absence), and so is a positive margin
    within :data:`DEGENERATE_ULPS` ulps of |lhs| + |rhs|, whose sign roundoff
    decides.
    """

    kind: str
    n: int
    m: int
    N: int
    s: int
    p: int
    q: int
    kappa: float
    chord: float
    lhs: float
    rhs: float
    margin: float
    predicted_crossings: int
    predicted_min_period: int
    verdict: str


def _given_N(kind: str, n: int, m: int, N: int | None, s: int) -> None:
    if N is None:
        raise ValueError(f"kind {kind!r} needs the subgroup rotation count N")


def _two_fold(kind: str, n: int, m: int, N: int | None, s: int) -> None:
    if (n, m) != (2, 1):
        raise ValueError(f"kind {kind!r} is a 2-fold-symmetry statement; "
                         f"needs (n, m) = (2, 1), got ({n}, {m})")


def _two_fold_odd(kind: str, n: int, m: int, N: int | None, s: int) -> None:
    _two_fold(kind, n, m, N, s)
    if s < 3 or s % 2 == 0:
        raise ValueError(f"kind {kind!r} needs odd s >= 3, got s={s}")


def _subgroup_shifts(n, m, N, s, branch, reflection, shift):
    """K = s n/N; k solves the reflection identity at the reference,
    k = m^{-1} (reflection - branch) mod n, and an override keeps that
    residue (for odd n and even p, k + n is a geometrically distinct orbit)."""
    k0 = (pow(m, -1, n) * (reflection - branch)) % n
    k = k0 if shift is None else int(shift)
    if (k - k0) % n != 0:
        raise ValueError(f"shift {k} does not match the chosen reflection "
                         f"(needs shift = {k0} mod {n})")
    return s * n // N, k


def _rotation_shifts(n, m, N, s, branch, reflection, shift):
    """The reversing rotation's shift K is odd (default 1); k is unused."""
    K = 1 if shift is None else int(shift)
    if K % 2 == 0:
        raise ValueError(f"the reversing-rotation index shift must be odd, got {K}")
    return K, 0


def _reflection_shifts(n, m, N, s, branch, reflection, shift):
    """The reversing reflection's shift k has the parity of s (default s)."""
    k = s if shift is None else int(shift)
    if (k - s) % 2 != 0:
        raise ValueError(
            f"typeV reflection shifts must have equal parity: k={k}, s={s}")
    return 0, k


@dataclass(frozen=True)
class SearchKind:
    """One row of :data:`KINDS`.

    ``N``: rotation count of the kind's order-2N subgroup (None: the request
    sets it).  ``generators``: two (family of :data:`~.sequences.FAMILIES`,
    name of its index shift "K", "k" or "s") pairs.  ``mode``: (wave,
    period, phase) of the nudge v_i = wave(2 pi i/T - pi phi/T), T and phi
    the shifts (or "p") they name.  ``check`` (kind, n, m, N, s) and
    ``shifts`` (n, m, N, s, branch, reflection, shift) -> (K, k) raise
    ValueError with the kind's own messages.
    """

    N: int | None
    generators: tuple
    mode: tuple
    check: Callable
    shifts: Callable


_SUBGROUP = (("rotation_preserving", "K"), ("reflection_reversing", "k"))

#: the search kinds.  main is the paper's theorem for the order-2N subgroup
#: of D_n; typeI is main at n = 2 with N = 2; typeII and typeV, the D_2
#: generalization of the ellipse result, are main's criterion with N = 1
KINDS = {
    "main": SearchKind(None, _SUBGROUP, (np.sin, "K", "k"),
                       _given_N, _subgroup_shifts),
    "typeI": SearchKind(2, _SUBGROUP, (np.sin, "K", "k"),
                        _two_fold_odd, _subgroup_shifts),
    "typeII": SearchKind(1, (("rotation_reversing", "K"), ("reflection_preserving", "s")),
                         (np.cos, "p", "K"), _two_fold, _rotation_shifts),
    # one reflection acting through two index shifts of equal parity
    "typeV": SearchKind(1, (("reflection_reversing", "k"), ("reflection_preserving", "s")),
                        (np.sin, "p", "k"), _two_fold, _reflection_shifts),
}


def _search_kind(kind: str) -> SearchKind:
    """The :data:`KINDS` row of ``kind``; an unknown kind raises ValueError."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
    return KINDS[kind]


def _validated(kind: str, n: int, m: int, N: int | None, s: int):
    """The row of ``kind`` and its rotation count N, once every condition holds."""
    row = _search_kind(kind)
    row.check(kind, n, m, N, s)
    N = N if row.N is None else row.N
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    _check_rotation(n, m)
    if not 1 <= N <= n or n % N != 0:
        raise ValueError(f"N={N} must divide n={n}")
    if s < 2:
        raise ValueError(f"s={s} must be >= 2")
    if math.gcd(s, N) != 1:
        raise ValueError(f"gcd(s, N) = {math.gcd(s, N)} != 1")
    return row, N


def class_shifts(kind: str, n: int, m: int, N: int | None, s: int,
                 branch: int = 1, reflection: int = 0,
                 shift: int | None = None) -> tuple:
    """Index shifts (K, k) of the class a search of ``kind`` runs in;
    ``shift`` overrides the default of the one the kind leaves free."""
    row, N = _validated(kind, n, m, N, s)
    return row.shifts(n, m, N, s, branch, reflection, shift)


def class_generators(kind: str, n: int, m: int, branch: int, s: int,
                     K: int, k: int) -> tuple:
    """The two generators of the class containing the (n, m, branch) reference.

    A generator of a family with sign sigma on x_i and shift t has exponent
    e = (branch (1 - sigma)/2 + m t) mod n and offset M = (that - e)/n, so the
    reference x_i = branch/(2n) + (m/n) i satisfies its identity exactly.
    """
    shifts = {"K": K, "k": k, "s": s}
    generators = []
    for family, name in _search_kind(kind).generators:
        t = shifts[name]
        value = branch * (1 - FAMILIES[family][1]) // 2 + m * t
        generators.append(SymmetryGenerator(family, value % n, t, value // n))
    return tuple(generators)


def initial_perturbation(kind: str, reference: PeriodicLift, K: int, k: int,
                         epsilon: float) -> PeriodicLift:
    """The reference lift nudged by epsilon along the kind's symmetric mode.

    The mode is v_i = wave(2 pi i/T - pi phi/T): main/typeI sin with T = K,
    phi = k (K-periodic in the index and odd about the reflection axis);
    typeII cos with T = p, phi = K; typeV sin with T = p, phi = k.  It
    satisfies the class constraints, so the nudged lift stays in the class.
    An unknown kind, or T < 3 (a degenerate mode), raises ValueError.
    """
    wave, period, phase = _search_kind(kind).mode
    sizes = {"p": reference.p, "K": K, "k": k}
    T = sizes[period]
    if T < 3:
        raise ValueError(f"degenerate symmetric mode: need {period} >= 3, "
                         f"got {period}={T}")
    v = wave(2.0 * np.pi * np.arange(reference.p) / T - np.pi * sizes[phase] / T)
    return reference.with_coords(reference.coords + epsilon * v)


def criterion(kind: str, n: int, m: int, N: int | None, s: int,
              kappa: float, chord: float) -> CriterionReport:
    """Closed-form existence check for a non-Birkhoff orbit of the given kind.

    Every kind is the theorem for the order-2N subgroup of the order-n
    dihedral group: it predicts 2N crossings at period p = s n when
    rhs = 2 sin(m pi/n) cos^2(N pi/p) exceeds kappa*L.  Main takes N from the
    request and needs gcd(m, n) = 1, N | n, s >= 2 and gcd(s, N) = 1.
    typeI is main at (n, m) = (2, 1) with N = 2 and odd s >= 3; typeII and
    typeV are (n, m) = (2, 1) with N = 1: typeII limits have a reversing
    rotation and a preserving reflection, typeV limits a single reflection
    acting both ways.

    kappa and chord are the curvature and chord length at the reference
    symmetric Birkhoff orbit; the product kappa*chord is scale-invariant.
    """
    _, N = _validated(kind, n, m, N, s)
    p, q = s * n, s * m
    rhs = 2.0 * math.sin(m * math.pi / n) * math.cos(N * math.pi / p) ** 2
    lhs = kappa * chord
    margin = rhs - lhs
    resolved = margin > DEGENERATE_ULPS * math.ulp(abs(lhs) + abs(rhs))
    return CriterionReport(
        kind=kind, n=n, m=m, N=N, s=s, p=p, q=q,
        kappa=kappa, chord=chord, lhs=lhs, rhs=rhs, margin=margin,
        predicted_crossings=2 * N, predicted_min_period=p,
        verdict="orbit_predicted" if resolved else "inconclusive",
    )
