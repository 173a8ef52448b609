"""Closed-form spectra at symmetric Birkhoff orbits and existence criteria.

At a symmetric Birkhoff configuration the Hessian of the periodic action is a
symmetric circulant tridiagonal matrix (with corners): diagonal 2*alpha,
off-diagonal beta > 0.  Its eigenvectors are the discrete Fourier modes, so
the sign of each mode eigenvalue — equivalently of a curvature-chord margin —
is available in closed form.  A positive margin certifies that the flow
started along the corresponding symmetric mode gains action, which is the
engine behind the non-Birkhoff orbit searches in :mod:`billiardflow.finder`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Boundary, curvature_at
from .lagrangian import chord_length, gradient_field, second_partials
from .sequences import PeriodicLift, symmetric_birkhoff

KINDS = ("main", "typeI", "typeII", "typeV")


@dataclass(frozen=True)
class BirkhoffCoefficients:
    """Circulant Hessian data at a symmetric Birkhoff orbit.

    alpha is half the diagonal entry, beta the off-diagonal entry; speed,
    chord and curvature are the constant speed c, the chord length L and the
    curvature kappa at the impact points.
    """

    alpha: float
    beta: float
    speed: float
    chord: float
    curvature: float


def kappa_chord(boundary: Boundary, n: int, m: int, branch: int = 1):
    """Curvature and chord length at the (n, m) symmetric Birkhoff orbit.

    Both quantities are parametrization-independent, so any equivariant
    parametrization of the same curve gives the same values.
    """
    ref = symmetric_birkhoff(n, m, branch)
    kappa = float(curvature_at(boundary, ref.coords[0]))
    chord = float(chord_length(boundary, ref.coords[0], ref.value(1)))
    return kappa, chord


def birkhoff_coefficients(boundary: Boundary, n: int, m: int,
                          branch: int = 1) -> BirkhoffCoefficients:
    """The (alpha, beta) of the circulant Hessian at a symmetric Birkhoff orbit.

    Requires a constant-speed parametrization (the closed forms assume it):

        alpha = c^2 sin(m pi/n) (sin(m pi/n)/L - kappa)
        beta  = c^2 sin^2(m pi/n) / L
    """
    if not boundary.constant_speed:
        raise ValueError("birkhoff_coefficients requires a constant-speed boundary")
    kappa, chord = kappa_chord(boundary, n, m, branch)
    c = boundary.total_length
    s = math.sin(m * math.pi / n)
    alpha = c * c * s * (s / chord - kappa)
    beta = c * c * s * s / chord
    return BirkhoffCoefficients(alpha=alpha, beta=beta, speed=c,
                                chord=chord, curvature=kappa)


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


@dataclass(frozen=True)
class ModeParameters:
    """Shift data of the symmetry class a search runs in."""

    p: int
    q: int
    K: int            # preserving-rotation index shift (period of the mode)
    k: int            # reversing-reflection index shift
    k_alternate: int | None  # opposite-parity choice, when it is geometric


def subgroup_mode_parameters(n: int, m: int, N: int, s: int, branch: int,
                             reflection: int) -> ModeParameters:
    """Map a chosen symmetry subgroup to index shifts (K, k).

    For the order-2N dihedral subgroup whose rotations are generated by the
    rotation with exponent n/N and whose reversing reflection has exponent
    ``reflection``: K = s n / N, and k solves the reflection identity at the
    (n, m, branch) Birkhoff configuration, i.e. k = m^{-1} (reflection -
    branch) mod n.  When n is odd and p = s n is even, k and k + n have
    different parities and produce geometrically distinct orbits; the
    alternate representative is reported.
    """
    _validate_main(n, m, N, s)
    p, q = s * n, s * m
    inv_m = pow(m, -1, n)
    k = (inv_m * (reflection - branch)) % n
    k_alt = k + n if (n % 2 == 1 and p % 2 == 0) else None
    return ModeParameters(p=p, q=q, K=s * n // N, k=k, k_alternate=k_alt)


@dataclass(frozen=True)
class CriterionReport:
    """Result of one closed-form existence check.

    margin = rhs - kappa*L; a positive margin predicts a non-Birkhoff orbit
    of the stated kind, a non-positive one is inconclusive (it never proves
    absence).
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

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "m": self.m, "N": self.N,
            "s": self.s, "p": self.p, "q": self.q, "kappa": self.kappa,
            "chord": self.chord, "lhs": self.lhs, "rhs": self.rhs,
            "margin": self.margin,
            "predicted_crossings": self.predicted_crossings,
            "predicted_min_period": self.predicted_min_period,
            "verdict": self.verdict,
        }


def _validate_main(n: int, m: int, N: int, s: int) -> None:
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd(m, n) = {math.gcd(m, n)} != 1")
    if not 1 <= N <= n or n % N != 0:
        raise ValueError(f"N={N} must divide n={n}")
    if s < 2:
        raise ValueError(f"s={s} must be >= 2")
    if math.gcd(s, N) != 1:
        raise ValueError(f"gcd(s, N) = {math.gcd(s, N)} != 1")


def criterion(kind: str, n: int, m: int, N: int | None, s: int,
              kappa: float, chord: float) -> CriterionReport:
    """Closed-form existence check for a non-Birkhoff orbit of the given kind.

    kind "main": the rotations of the chosen subgroup act preserving and its
    reflections reversing; requires gcd(m, n) = 1, N | n, s >= 2,
    gcd(s, N) = 1, and predicts 2N crossings at period p = s n with
    rhs = 2 sin(m pi/n) cos^2(N pi/p).

    kind "typeI": the n = 2 instance with N = 2 and s odd >= 3 (4 crossings).

    kinds "typeII"/"typeV": n = 2, m = 1, p = 2s, rhs = 2 cos^2(pi/p),
    2 crossings; typeII limits have a reversing rotation and a preserving
    reflection, typeV limits a single reflection acting both ways.

    kappa and chord are the curvature and chord length at the reference
    symmetric Birkhoff orbit; the product kappa*chord is scale-invariant.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown criterion kind {kind!r}; expected one of {KINDS}")
    if kind == "main":
        if N is None:
            raise ValueError("kind 'main' needs the subgroup rotation count N")
        _validate_main(n, m, N, s)
        p, q = s * n, s * m
        rhs = 2.0 * math.sin(m * math.pi / n) * math.cos(N * math.pi / p) ** 2
        crossings = 2 * N
        n_eff = N
    else:
        if (n, m) != (2, 1):
            raise ValueError(f"kind {kind!r} is a 2-fold-symmetry statement; "
                             f"needs (n, m) = (2, 1), got ({n}, {m})")
        if kind == "typeI":
            if s < 3 or s % 2 == 0:
                raise ValueError(f"kind 'typeI' needs odd s >= 3, got s={s}")
            p, q = 2 * s, s
            rhs = 2.0 * math.cos(2.0 * math.pi / p) ** 2
            crossings, n_eff = 4, 2
        else:
            if s < 2:
                raise ValueError(f"s={s} must be >= 2")
            p, q = 2 * s, s
            rhs = 2.0 * math.cos(math.pi / p) ** 2
            crossings, n_eff = 2, 1
    lhs = kappa * chord
    margin = rhs - lhs
    return CriterionReport(
        kind=kind, n=n, m=m, N=n_eff, s=s, p=p, q=q,
        kappa=kappa, chord=chord, lhs=lhs, rhs=rhs, margin=margin,
        predicted_crossings=crossings, predicted_min_period=p,
        verdict="orbit_predicted" if margin > 0 else "inconclusive",
    )
