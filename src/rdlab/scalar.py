"""Steady states of the scalar logistic reaction-diffusion equation.

On an interval, nonconstant Dirichlet steady states of
``D u'' + u (1 - u) = 0`` are orbits of the phase-plane system with
conserved energy ``u'^2 / 2 + F(u) / D`` where ``F(u) = u^2/2 - u^3/3``.
The length of the positive hump through amplitude ``mu`` is the time map

    L(mu) = sqrt(2 D) * integral_0^mu du / sqrt(F(mu) - F(u)),

an increasing function with limit ``pi * sqrt(D)`` as mu -> 0+ (the
critical interval length below which only the trivial state survives).
As F(mu) - F(u) = (mu - u)(r+ - u)(u - r-) / 3, with r+- the roots of
u^2 + (mu - 3/2) u + mu^2 - 3 mu / 2, L is an elliptic integral of the
first kind.  Carlson's reduction (DLMF 19.29(i)) gives it in closed form,
L(mu) = 2 sqrt(6 D) R_F(s, 3 (3/2 - mu)(1 - mu) / s, 3 (1 - mu)) with
s = (9/2 - 3 mu + sqrt(9/4 + 3 mu (1 - mu))) / 2 (see ``time_map``).

The Dirichlet profile and the radial shots from the regular center both
run on the kinetics module's DOPRI5 loop, which stops a shot at its
terminal events.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, _require_finite_positive
from .kinetics import _dopri5

MU_MIN = 1e-8
MU_MAX = 1.0 - 1e-6
BLOWUP_THRESHOLD = 1e6
PROFILE_POINTS = 16385  # odd, so the midpoint is a grid node

# Carlson's stopping factor Q / max|A_0 - x| at r = machine epsilon: once
# 4^-m Q < A_m, |X|, |Y|, |Z| < (3 r)^(1/8), and the terms of degree 8 that
# the DLMF 19.36.1 series leaves out stay below r (Carlson's (3 r)^(-1/6) is
# for his series through degree 5)
_RF_Q = (3.0 * np.finfo(float).eps) ** (-1.0 / 8.0)


def potential(u):
    """Antiderivative F(u) = u^2/2 - u^3/3 of the logistic nonlinearity."""
    u = np.asarray(u, dtype=float)
    return u * u / 2.0 - u * u * u / 3.0


def energy(u, uprime, D: float):
    """Conserved phase-plane energy u'^2/2 + u^2/(2D) - u^3/(3D)."""
    u = np.asarray(u, dtype=float)
    uprime = np.asarray(uprime, dtype=float)
    return uprime * uprime / 2.0 + potential(u) / D


def kiss_size(D: float) -> float:
    """Critical Dirichlet interval length pi * sqrt(D); D must be finite and positive."""
    _require_finite_positive("D", D)
    return float(np.pi * np.sqrt(D))


def _carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z), elementwise.

    The arguments broadcast; they must be finite and nonnegative, with at
    most one zero per triple.  Duplication (Carlson, Numer. Algorithms 10,
    1995; DLMF 19.36(i)) moves each triple towards its mean A_m, leaving R_F
    unchanged, until the DLMF 19.36.1 series reaches machine precision.  Each
    element stops at its own test, so it does not depend on the rest.
    """
    xyz = np.array(np.broadcast_arrays(x, y, z), dtype=float)
    a0 = (xyz[0] + xyz[1] + xyz[2]) / 3.0
    q = _RF_Q * np.abs(a0 - xyz).max(axis=0)
    w = np.concatenate([xyz, [a0]])  # x_m, y_m, z_m, A_m
    m = np.zeros(a0.shape, dtype=int)
    active = q >= a0
    while active.any():
        r = np.sqrt(w[:3])
        lam = r[0] * r[1] + r[1] * r[2] + r[2] * r[0]
        w = np.where(active, (w + lam) / 4.0, w)
        m = m + active
        active = np.ldexp(q, -2 * m) >= w[3]
    X, Y = np.ldexp(a0 - xyz[:2], -2 * m) / w[3]
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    series = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
              - 5.0 * e2 ** 3 / 208.0 + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)
    return series / np.sqrt(w[3])


def time_map(mu, D: float):
    """Length L(mu) of the positive Dirichlet hump with amplitude mu.

    L(mu) = 2 sqrt(6 D) R_F(s, 3 (3/2 - mu)(1 - mu) / s, 3 (1 - mu)) with
    s = (9/2 - 3 mu + sqrt(9/4 + 3 mu (1 - mu))) / 2, for 1e-8 <= mu <= 1 - 1e-6
    (where no argument cancels) and finite D > 0.  ``mu`` is a number (a float
    is returned) or an array.  As mu -> 0, L -> pi sqrt(D), the ``kiss_size``.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all((mu >= MU_MIN) & (mu <= MU_MAX)):  # a NaN fails both tests
        raise ValueError(f"amplitude mu must lie in [{MU_MIN:g}, {MU_MAX:g}]")
    _require_finite_positive("D", D)
    s = (4.5 - 3.0 * mu + np.sqrt(2.25 + 3.0 * mu * (1.0 - mu))) / 2.0
    rf = _carlson_rf(s, 3.0 * (1.5 - mu) * (1.0 - mu) / s, 3.0 * (1.0 - mu))
    length = 2.0 * np.sqrt(6.0 * D) * rf
    return float(length) if length.ndim == 0 else length


@dataclass(frozen=True)
class SteadyProfile:
    """Sampled nonconstant Dirichlet steady state with its amplitude mu_star."""

    x: np.ndarray
    u: np.ndarray
    uprime: np.ndarray
    mu_star: float


def dirichlet_steady_profile(L: float, D: float) -> SteadyProfile | None:
    """Positive Dirichlet steady state on (0, L), or None when L <= pi sqrt(D).

    The amplitude mu* solving L(mu*) = L is found by bisection (time_map is
    increasing); the profile is then integrated outward from the midpoint
    (mu*, 0) by ``_dopri5`` at tol 1e-10, sampled on 16385 nodes and mirrored.
    Lengths beyond time_map(1 - 1e-6) are out of range and raise ValueError,
    as do an ``L`` or ``D`` that is not finite and positive.
    """
    _require_finite_positive("L", L)
    _require_finite_positive("D", D)
    if L <= kiss_size(D):
        return None
    top = time_map(MU_MAX, D)
    if top < L:
        raise ValueError(
            f"target length {L:g} exceeds the supported amplitude range "
            f"(time_map({MU_MAX:g}) = {top:g})"
        )
    lo, hi = MU_MIN, MU_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if time_map(mid, D) < L:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    else:
        raise NumericalFailure("amplitude bisection did not converge in 200 iterations")
    mu_star = 0.5 * (lo + hi)

    def rhs(x, y, out):
        out[0] = y[1]
        out[1] = -y[0] * (1.0 - y[0]) / D
        return out

    half = np.linspace(0.0, L / 2.0, (PROFILE_POINTS + 1) // 2)
    # tol 1e-10 runs at rtol 1e-10 and atol 1e-12
    right, right_slope = _dopri5(rhs, np.array([mu_star, 0.0]), L / 2.0, 1e-10,
                                 t_eval=half).samples
    u = np.concatenate([right[:0:-1], right])
    u[0] = 0.0
    u[-1] = 0.0
    # the left half is the mirror image, so its slope flips sign
    up = np.concatenate([-right_slope[:0:-1], right_slope])
    x = np.linspace(0.0, L, PROFILE_POINTS)
    return SteadyProfile(x, u, up, mu_star)


@dataclass(frozen=True)
class ShootResult:
    """Radially symmetric shooting run from center amplitude c."""

    outcome: str  # 'blow-up' | 'hit-zero' | 'stayed-positive'
    first_zero_r: float | None
    r: np.ndarray
    u: np.ndarray
    uprime: np.ndarray


def radial_shoot(c: float, D: float, R: float, m: int = 2, samples: int = 1000) -> ShootResult:
    """Integrate u'' + ((m-1)/r) u' = -u(1-u)/D from u(0) = c, u'(0) = 0.

    The removable singularity at the center is handled by the regularized
    limit u''(0) = -c(1-c)/(m D).  Integration stops at the first zero of u
    (outcome 'hit-zero' with the event radius), when u reaches 1e6
    ('blow-up'), or at radius R ('stayed-positive').  The profile is
    sampled at ``samples`` radii from 0 to that stop by a second run, which
    takes the same steps.  ``c``, ``D`` and ``R`` must be finite and
    positive and ``samples`` at least 2; otherwise ValueError is raised.
    """
    for name, value in (("center amplitude c", c), ("D", D), ("R", R)):
        _require_finite_positive(name, value)
    if m < 1:
        raise ValueError("space dimension m must be at least 1")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")

    def rhs(r, y, out):
        u, up = y
        out[0] = up
        if r == 0.0:
            out[1] = -u * (1.0 - u) / (D * m)
        else:
            out[1] = -u * (1.0 - u) / D - (m - 1) * up / r
        return out

    u_axis = np.array([1.0, 0.0])
    events = [
        (u_axis, np.zeros(2), -1, True),  # hit zero
        (u_axis, np.array([BLOWUP_THRESHOLD, 0.0]), 1, True),  # blow up
    ]
    def shoot(t_eval=()):
        # tol 1e-8 runs at rtol 1e-8 and atol 1e-10
        return _dopri5(rhs, np.array([c, 0.0]), float(R), 1e-8, t_eval=t_eval, events=events)

    zero_events, blow_events = shoot().t_events
    if blow_events.size:
        outcome, first_zero = "blow-up", None
        r_stop = float(blow_events[0])
    elif zero_events.size:
        outcome, first_zero = "hit-zero", float(zero_events[0])
        r_stop = first_zero
    else:
        outcome, first_zero = "stayed-positive", None
        r_stop = R
    # where the run stops is known only once it has run: a second run takes
    # the same steps and roots and samples them
    rr = np.linspace(0.0, r_stop, samples)
    uu, up = shoot(rr).samples
    return ShootResult(outcome, first_zero, rr, uu, up)
