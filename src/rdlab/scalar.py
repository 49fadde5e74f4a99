"""Steady states of the scalar logistic reaction-diffusion equation.

On an interval, nonconstant Dirichlet steady states of
``D u'' + u (1 - u) = 0`` are orbits of the phase-plane system with
conserved energy ``u'^2 / 2 + F(u) / D`` where ``F(u) = u^2/2 - u^3/3``.
The length of the positive hump through amplitude ``mu`` is the time map

    L(mu) = sqrt(2 D) * integral_0^mu du / sqrt(F(mu) - F(u)),

an increasing function with limit ``pi * sqrt(D)`` as mu -> 0+ (the
critical interval length below which only the trivial state survives).
The Dirichlet profile and the radial shots from the regular center both
run on the kinetics module's DOPRI5 loop, which stops a shot at its
terminal events.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .kinetics import _dopri5

MU_MIN = 1e-8
MU_MAX = 1.0 - 1e-6
BLOWUP_THRESHOLD = 1e6
PROFILE_POINTS = 16385  # odd, so the midpoint is a grid node

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def potential(u):
    """Antiderivative F(u) = u^2/2 - u^3/3 of the logistic nonlinearity."""
    u = np.asarray(u, dtype=float)
    return u * u / 2.0 - u * u * u / 3.0


def energy(u, uprime, D: float):
    """Conserved phase-plane energy u'^2/2 + u^2/(2D) - u^3/(3D)."""
    u = np.asarray(u, dtype=float)
    uprime = np.asarray(uprime, dtype=float)
    return uprime * uprime / 2.0 + potential(u) / D


def _require_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and positive.

    A NaN passes every ``<= 0`` test, and a NaN or infinite length or
    diffusion coefficient would send the bisection and the profile
    integration below into NaN arithmetic that never terminates.
    """
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def kiss_size(D: float) -> float:
    """Critical Dirichlet interval length pi * sqrt(D); D must be finite and positive."""
    _require_finite_positive("D", D)
    return float(np.pi * np.sqrt(D))


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, f(a + half * (_GL_NODES + 1.0))))


def _adaptive_gl(f, a: float, b: float, rtol: float) -> float:
    """Adaptive bisection with 16-point Gauss-Legendre panels.

    The integrand must be positive, so per-panel relative acceptance bounds
    the global relative error by ``rtol``.
    """
    total = 0.0
    stack = [(a, b, _gl_panel(f, a, b), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        fine = left + right
        if abs(fine - coarse) <= rtol * abs(fine) or depth >= 48:
            if depth >= 48:
                raise NumericalFailure("quadrature panel recursion exhausted")
            total += fine
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def time_map(mu: float, D: float) -> float:
    """Length L(mu) of the positive Dirichlet hump with amplitude mu.

    Valid for 1e-8 <= mu <= 1 - 1e-6 and finite D > 0.  The substitutions
    u = mu * z and z = 1 - w^2 remove the inverse-square-root endpoint
    singularity exactly: with g(u) = (mu + u)/2 - (mu^2 + mu u + u^2)/3 the
    integrand becomes 2 sqrt(mu) / sqrt(g(mu (1 - w^2))), smooth on [0, 1],
    and is integrated by adaptive Gauss-Legendre panels to relative
    tolerance 1e-8.
    """
    if not MU_MIN <= mu <= MU_MAX:
        raise ValueError(f"amplitude mu must lie in [{MU_MIN:g}, {MU_MAX:g}]")
    _require_finite_positive("D", D)

    def integrand(w):
        u = mu * (1.0 - w * w)
        g = (mu + u) / 2.0 - (mu * mu + mu * u + u * u) / 3.0
        return 2.0 * np.sqrt(mu) / np.sqrt(g)

    return float(np.sqrt(2.0 * D) * _adaptive_gl(integrand, 0.0, 1.0, 1e-8))


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
    lo, hi = MU_MIN, MU_MAX
    if time_map(hi, D) < L:
        raise ValueError(
            f"target length {L:g} exceeds the supported amplitude range "
            f"(time_map({MU_MAX:g}) = {time_map(hi, D):g})"
        )
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
    run = _dopri5(rhs, np.array([mu_star, 0.0]), L / 2.0, 1e-10, keep_from=0.0)
    right, right_slope = run.dense(half)
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
    ('blow-up'), or at radius R ('stayed-positive').  ``c``, ``D`` and ``R``
    must be finite and positive and ``samples`` at least 2; otherwise
    ValueError is raised.
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

    events = [
        (lambda r, y: y[0], -1, True),  # hit zero
        (lambda r, y: y[0] - BLOWUP_THRESHOLD, 1, True),  # blow up
    ]
    # tol 1e-8 runs at rtol 1e-8 and atol 1e-10
    run = _dopri5(rhs, np.array([c, 0.0]), float(R), 1e-8, keep_from=0.0, events=events)
    zero_events, blow_events = run.t_events
    if blow_events.size:
        outcome, first_zero = "blow-up", None
        r_stop = float(blow_events[0])
    elif zero_events.size:
        outcome, first_zero = "hit-zero", float(zero_events[0])
        r_stop = first_zero
    else:
        outcome, first_zero = "stayed-positive", None
        r_stop = R
    rr = np.linspace(0.0, r_stop, samples)
    uu, up = run.dense(rr)
    return ShootResult(outcome, first_zero, rr, uu, up)
