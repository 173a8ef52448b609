"""Closed-form spectra at symmetric Birkhoff orbits and existence criteria.

At a symmetric Birkhoff configuration the Hessian of the periodic action is a
symmetric circulant tridiagonal matrix (with corners): diagonal 2*alpha,
off-diagonal beta > 0.  Its eigenvectors are the discrete Fourier modes, so
the sign of each mode eigenvalue — equivalently of a curvature-chord margin —
is available in closed form.  A positive margin certifies that the flow
started along the corresponding symmetric mode gains action, which is the
engine behind the non-Birkhoff orbit searches in :mod:`billiardflow.finder`.

The search kinds are one table, :data:`KINDS`, whose rows state each kind's
rules as data; :func:`search_class` validates a request against its row once
and derives the class (shifts, generators, start) the criterion and the
search read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import Boundary, curvature_at
from .lagrangian import chord_length
from .sequences import (FAMILIES, PeriodicLift, SymmetryGenerator, _check_rotation,
                        repeat_lift, symmetric_birkhoff)


def kappa_chord(boundary: Boundary, n: int, m: int, branch: int = 1):
    """Curvature and chord length at the (n, m) symmetric Birkhoff orbit.

    Both quantities are parametrization-independent, so any equivariant
    parametrization of the same curve gives the same values.
    """
    ref = symmetric_birkhoff(n, m, branch)
    kappa = float(curvature_at(boundary, ref.coords[0]))
    chord = float(chord_length(boundary, ref.coords[0], ref.value(1)))
    return kappa, chord


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


@dataclass(frozen=True)
class SearchKind:
    """One row of :data:`KINDS`: a kind's rules, as data.

    ``N``: rotation count of the kind's order-2N subgroup (None: the request
    sets it).  ``two_fold``: it needs (n, m) = (2, 1); ``odd_s``: odd s >= 3.
    ``generators``: two (family of :data:`~.sequences.FAMILIES`, name of its
    index shift "K", "k" or "s") pairs, exactly one of them index-reversing;
    it fixes the nudge (see :meth:`SearchClass.start`).  ``shift``: (name,
    default, modulus) of the index shift a request may override; a default
    or modulus that is a name ("n", "s", "reflection") is that quantity of
    :func:`search_class`.
    """

    N: int | None
    two_fold: bool
    odd_s: bool
    generators: tuple
    shift: tuple


_SUBGROUP = (("rotation_preserving", "K"), ("reflection_reversing", "k"))

#: the search kinds.  main is the paper's theorem for the order-2N subgroup
#: of D_n; typeI is main at n = 2 with N = 2; typeII and typeV, the D_2
#: generalization of the ellipse result, are main's criterion with N = 1
KINDS = {
    # k keeps the residue that solves the reflection identity at the
    # reference (for odd n and even p, k + n is a geometrically distinct orbit)
    "main": SearchKind(None, False, False, _SUBGROUP, ("k", "reflection", "n")),
    "typeI": SearchKind(2, True, True, _SUBGROUP, ("k", "reflection", "n")),
    # the reversing rotation's shift is odd
    "typeII": SearchKind(1, True, False,
                         (("rotation_reversing", "K"), ("reflection_preserving", "s")),
                         ("K", 1, 2)),
    # one reflection acting through two index shifts of equal parity
    "typeV": SearchKind(1, True, False,
                        (("reflection_reversing", "k"), ("reflection_preserving", "s")),
                        ("k", "s", 2)),
}


@dataclass(frozen=True)
class SearchClass:
    """The symmetry class one search runs in (see :func:`search_class`).

    The (n, m, branch) symmetric Birkhoff reference repeated s times lies in
    the (p, q) = (s n, s m) class; K and k are the index shifts and
    ``generators`` the two :class:`~.sequences.SymmetryGenerator` of the class.
    :attr:`reference` and :attr:`mode` are built once per object, read-only.
    """

    kind: str
    n: int
    m: int
    N: int
    s: int
    branch: int
    K: int
    k: int
    generators: tuple

    @property
    def p(self) -> int:
        return self.s * self.n

    @property
    def q(self) -> int:
        return self.s * self.m

    @cached_property
    def reference(self) -> PeriodicLift:
        """The symmetric Birkhoff reference, as a (p, q) lift."""
        reference = repeat_lift(symmetric_birkhoff(self.n, self.m, self.branch), self.s)
        reference.coords.flags.writeable = False
        return reference

    @cached_property
    def mode(self) -> np.ndarray:
        """The class's wavenumber-N mode v_i = wave(2 pi i/T - pi t/T),
        T = p/N, about the axis t/2 of the index-reversing generator
        (shift t): sin, odd about it, for a reflection, cos for a rotation.
        T < 3 (a degenerate mode) raises ValueError.
        """
        T = self.p // self.N
        if T < 3:
            raise ValueError(f"degenerate symmetric mode: need K >= 3, got K={T}")
        axis = next(g for g in self.generators if FAMILIES[g.kind][0] == -1)
        wave = np.sin if FAMILIES[axis.kind][1] == -1 else np.cos
        mode = wave(2.0 * np.pi * np.arange(self.p) / T - np.pi * axis.shift / T)
        mode.flags.writeable = False
        return mode

    def start(self, epsilon: float) -> PeriodicLift:
        """The reference nudged by epsilon along the class's :attr:`mode`;
        the nudged lift stays in the class."""
        return self.reference.with_coords(self.reference.coords + epsilon * self.mode)


@lru_cache(maxsize=32)
def search_class(kind: str, n: int, m: int, N: int | None = None, s: int = 2,
                 branch: int = 1, reflection: int = 0,
                 shift: int | None = None) -> SearchClass:
    """The class a search of ``kind`` runs in, once every rule of its row holds.

    N is the row's, or the request's for main; s >= 2 and gcd(s, N) = 1.
    K = s n/N in the subgroup kinds (main, typeI) and 0 otherwise, k = 0,
    except for the shift the row lets ``shift`` override: its default is 1
    (typeII's odd K), s (typeV's k, of the parity of s) or the reflection
    residue m^{-1} (reflection - branch) mod n (main, typeI), and an
    override must be congruent to it.  A generator of a family with sign
    sigma on x_i and shift t has exponent e = (branch (1 - sigma)/2 + m t)
    mod n and offset M = (that - e)/n, so the reference satisfies its
    identity exactly.  A broken rule raises ValueError naming it, on every
    call; a valid request is built once (the last 32 are kept), so equal
    requests share one class and its reference and mode.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
    row = KINDS[kind]
    if row.N is not None and N not in (None, row.N):
        raise ValueError(f"kind {kind!r} fixes N = {row.N}, got N = {N}")
    N = row.N if N is None else N
    if N is None:
        raise ValueError(f"kind {kind!r} needs the subgroup rotation count N")
    if row.two_fold and (n, m) != (2, 1):
        raise ValueError(f"kind {kind!r} is a 2-fold-symmetry statement; "
                         f"needs (n, m) = (2, 1), got ({n}, {m})")
    if row.odd_s and (s < 3 or s % 2 == 0):
        raise ValueError(f"kind {kind!r} needs odd s >= 3, got s={s}")
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    _check_rotation(n, m)
    if not 1 <= N <= n or n % N != 0:
        raise ValueError(f"N={N} must divide n={n}")
    if s < 2:
        raise ValueError(f"s={s} must be >= 2")
    if math.gcd(s, N) != 1:
        raise ValueError(f"gcd(s, N) = {math.gcd(s, N)} != 1")

    named = {"n": n, "s": s, "reflection": (pow(m, -1, n) * (reflection - branch)) % n}
    name, default, modulus = row.shift
    default, modulus = named.get(default, default), named.get(modulus, modulus)
    value = default if shift is None else int(shift)
    if (value - default) % modulus != 0:
        raise ValueError(f"shift {value} does not match the {kind} class "
                         f"(needs shift = {default % modulus} mod {modulus})")
    K = s * n // N if row.generators == _SUBGROUP else 0
    shifts = {"K": K, "k": 0, "s": s, name: value}
    generators = []
    for family, t in row.generators:
        e = branch * (1 - FAMILIES[family][1]) // 2 + m * shifts[t]
        generators.append(SymmetryGenerator(family, e % n, shifts[t], e // n))
    return SearchClass(kind, n, m, N, s, branch, shifts["K"], shifts["k"],
                       tuple(generators))


def class_criterion(search: SearchClass, kappa: float, chord: float) -> CriterionReport:
    """Closed-form existence check for a non-Birkhoff orbit of a validated class.

    Every kind is the theorem for the order-2N subgroup of the order-n
    dihedral group: it predicts 2N crossings at period p = s n when
    rhs = 2 sin(m pi/n) cos^2(N pi/p) exceeds kappa*L; the verdict reads
    only the kind, n, m, N and s of the class.  typeII limits have a
    reversing rotation and a preserving reflection, typeV limits a single
    reflection acting both ways.

    kappa and chord are the curvature and chord length at the reference
    symmetric Birkhoff orbit; the product kappa*chord is scale-invariant.
    """
    n, m, N, p = search.n, search.m, search.N, search.p
    rhs = 2.0 * math.sin(m * math.pi / n) * math.cos(N * math.pi / p) ** 2
    lhs = kappa * chord
    margin = rhs - lhs
    resolved = margin > DEGENERATE_ULPS * math.ulp(abs(lhs) + abs(rhs))
    return CriterionReport(
        kind=search.kind, n=n, m=m, N=N, s=search.s, p=p, q=search.q,
        kappa=kappa, chord=chord, lhs=lhs, rhs=rhs, margin=margin,
        predicted_crossings=2 * N, predicted_min_period=p,
        verdict="orbit_predicted" if resolved else "inconclusive",
    )


def criterion(kind: str, n: int, m: int, N: int | None, s: int,
              kappa: float, chord: float) -> CriterionReport:
    """:func:`class_criterion` of the request's default class (:func:`search_class`)."""
    return class_criterion(search_class(kind, n, m, N, s), kappa, chord)
