"""Pointwise kinetics: trajectories, limit-cycle detection and Floquet data.

Trajectories are integrated with an adaptive embedded Runge-Kutta 5(4)
scheme with dense output.  Periodic orbits are detected on a Poincare
section anchored at a post-transient state with the local velocity as its
normal; monodromy and diffusion-shifted modal systems are integrated
directly alongside the orbit (the diagonal diffusion matrix does not
commute with the time-dependent Jacobian, so no factorization shortcut
is taken).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NEGATIVITY_TOL, InvariantViolation, NumericalFailure
from .model import CompetitionModel, equilibria, jacobian, reaction

DEFAULT_TOL = 1e-7
DEFAULT_MAX_TIME = 2000.0
RETURN_STATE_TOL = 1e-6
RETURN_TIME_RTOL = 1e-4
SETTLE_TOL = 1e-8
SETTLE_SAMPLES = 10
TRIVIAL_MULTIPLIER_TOL = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """Integrated kinetic trajectory with a dense interpolant."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    dense: object  # callable t -> state(s), the integrator's interpolant

    def at(self, t) -> np.ndarray:
        """Evaluate the dense interpolant; returns shape (n,) or (n, len(t))."""
        return self.dense(t)


def _solve(model, U0, t_span, tol, **kw):
    sol = solve_ivp(lambda t, y: reaction(model, y), t_span, U0, method="RK45",
                    rtol=tol, atol=tol * 1e-2, dense_output=True, **kw)
    if not sol.success and sol.status == -1:
        raise NumericalFailure(f"kinetic integration failed: {sol.message}")
    return sol


def _checked_start(model, U0, span: float, span_name: str, tol: float) -> np.ndarray:
    """U0 as a float array, once it and the run parameters are finite.

    A NaN or infinite time span, tolerance or state would keep the adaptive
    integrator stepping forever, so each raises ValueError up front.
    """
    U0 = np.asarray(U0, dtype=float)
    if U0.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},)")
    if not np.isfinite(U0).all():
        raise ValueError("initial state must be finite")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"{span_name} must be finite and positive, got {span}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return U0


def integrate(model: CompetitionModel, U0, t_end: float, tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the kinetics from U0 over [0, t_end].

    U0 must be finite and nonnegative, ``t_end`` and ``tol`` finite and
    positive; otherwise ValueError is raised.  Nonnegativity is enforced as
    an invariant check, not a projection: an excursion below -1e-8 raises
    InvariantViolation; smaller round-off dips are clamped to zero in the
    reported states only.
    """
    U0 = _checked_start(model, U0, t_end, "t_end", tol)
    if np.any(U0 < 0.0):
        raise ValueError("initial state must be nonnegative")
    sol = _solve(model, U0, (0.0, t_end), tol)
    states = sol.y.T
    low = states.min()
    if low < -NEGATIVITY_TOL:
        raise InvariantViolation(f"state dipped to {low:.3e}, below -{NEGATIVITY_TOL:g}")
    return Trajectory(sol.t, np.maximum(states, 0.0), sol.sol)


@dataclass(frozen=True)
class OrbitAnalysis:
    """Outcome of long-run orbit classification.

    ``status`` is "periodic", "converged" or "undetermined".  For periodic
    orbits the anchor lies on the cycle, ``sample_times``/``sample_states``
    cover one full period, and the monodromy matrix with its multipliers is
    attached.  ``crossing_times`` keeps the raw section-return times for
    spread diagnostics.
    """

    status: str
    periodic: bool
    period: float | None
    anchor: np.ndarray | None
    sample_times: np.ndarray | None
    sample_states: np.ndarray | None
    monodromy: np.ndarray | None
    multipliers: np.ndarray | None
    converged_to: str | None
    crossing_times: np.ndarray | None


def _is_settled(model, dense, t_lo, t_hi):
    ts = np.linspace(max(t_lo, t_hi - (SETTLE_SAMPLES - 1)), t_hi, SETTLE_SAMPLES)
    states = dense(ts)
    norms = np.linalg.norm(reaction(model, states), axis=0)
    return bool(np.all(norms < SETTLE_TOL))


def _settled_equilibrium_label(model, point):
    """Label of the sink the state has settled onto, or None.

    Requiring a sink guards against slow near-saddle passages: an orbit
    creeping past a saddle can hold ||f|| below the settle tolerance for
    many time units and still leave along the unstable direction.
    """
    eqs = equilibria(model)
    dists = [np.linalg.norm(eq.point - point) for eq in eqs]
    nearest = eqs[int(np.argmin(dists))]
    if nearest.stability == "sink" and min(dists) < 1e-4:
        return nearest.label
    return None


def detect_limit_cycle(model: CompetitionModel, U0, max_time: float = DEFAULT_MAX_TIME,
                       tol: float = DEFAULT_TOL) -> OrbitAnalysis:
    """Classify the long-run behavior of the orbit through U0.

    The first half of ``max_time`` is discarded as transient; the section
    through the post-transient state with the velocity as normal then
    collects one-sided crossings.  The orbit is declared periodic when
    three consecutive returns agree pairwise within 1e-6 in state and 1e-4
    relative in return time (period = mean return time).  If instead
    ||f(U)|| stays below 1e-8 for 10 consecutive unit-spaced samples and a
    sink is nearby, the orbit has converged to it; a settle next to a
    non-sink is left "undetermined", as are all remaining outcomes (this
    routine reports rather than raises).  A U0 that is not finite, or a
    ``max_time`` or ``tol`` that is not finite and positive, raises
    ValueError.
    """
    U0 = _checked_start(model, U0, max_time, "max_time", tol)
    t_half = max_time / 2.0
    sol1 = _solve(model, U0, (0.0, t_half), tol)
    if sol1.y.min() < -NEGATIVITY_TOL:
        raise InvariantViolation("transient left the nonnegative cone")
    anchor0 = sol1.y[:, -1]
    if _is_settled(model, sol1.sol, 0.0, t_half):
        label = _settled_equilibrium_label(model, anchor0)
        if label is not None:
            return OrbitAnalysis("converged", False, None, None, None, None, None, None,
                                 label, None)
        return OrbitAnalysis("undetermined", False, None, None, None, None, None, None,
                             None, None)

    velocity = reaction(model, anchor0)
    normal = velocity / np.linalg.norm(velocity)

    def crossing(t, y):
        return float(normal @ (y - anchor0))

    crossing.terminal = False
    crossing.direction = 1

    sol2 = _solve(model, anchor0, (0.0, max_time - t_half), tol, events=[crossing])
    t_cross = sol2.t_events[0]
    x_cross = sol2.y_events[0]

    hit = None
    if t_cross.size >= 4:
        gaps = np.diff(t_cross)
        for k in range(len(gaps) - 1, 1, -1):
            last = gaps[k - 2:k + 1]
            mean_gap = last.mean()
            states = x_cross[k - 1:k + 2]
            state_ok = all(np.linalg.norm(states[i] - states[j]) <= RETURN_STATE_TOL
                           for i in range(3) for j in range(i + 1, 3))
            time_ok = (last.max() - last.min()) <= RETURN_TIME_RTOL * mean_gap
            if state_ok and time_ok:
                hit = (float(mean_gap), x_cross[k + 1], t_cross[:k + 2])
                break

    if hit is not None:
        period, anchor, crossings = hit
        t_samp = np.linspace(0.0, period, 401)
        sol3 = _solve(model, anchor, (0.0, period), tol, t_eval=t_samp)
        closure = np.linalg.norm(sol3.y[:, -1] - anchor)
        if closure < RETURN_STATE_TOL:
            mono = _monodromy_matrix(model, anchor, period, np.zeros(model.n), tol)
            mult = np.linalg.eigvals(mono)
            mult = mult[np.argsort(-np.abs(mult))]
            return OrbitAnalysis("periodic", True, period, anchor, t_samp, sol3.y.T,
                                 mono, mult, None, crossings)

    if _is_settled(model, sol2.sol, 0.0, max_time - t_half):
        label = _settled_equilibrium_label(model, sol2.y[:, -1])
        if label is not None:
            return OrbitAnalysis("converged", False, None, None, None, None, None, None,
                                 label, None)
    return OrbitAnalysis("undetermined", False, None, None, None, None, None, None, None,
                         t_cross if t_cross.size else None)


def _monodromy_matrix(model, anchor, period, lam_d, tol):
    """Fundamental solution over one period of X' = (-diag(lam_d) + J(U(t))) X."""
    n = model.n
    shift = np.diag(lam_d)

    def rhs(t, y):
        U = y[:n]
        X = y[n:].reshape(n, n)
        return np.concatenate([reaction(model, U), ((jacobian(model, U) - shift) @ X).ravel()])

    y0 = np.concatenate([anchor, np.eye(n).ravel()])
    sol = solve_ivp(rhs, (0.0, period), y0, method="RK45", rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise NumericalFailure(f"variational integration failed: {sol.message}")
    return sol.y[n:, -1].reshape(n, n)


def _require_periodic(orbit):
    if not (orbit.periodic and orbit.period is not None and orbit.anchor is not None):
        raise ValueError("a periodic OrbitAnalysis is required")


def monodromy(model: CompetitionModel, orbit: OrbitAnalysis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Monodromy matrix of the kinetics linearized along one period of the orbit."""
    _require_periodic(orbit)
    return _monodromy_matrix(model, orbit.anchor, orbit.period, np.zeros(model.n), tol)


def modal_multipliers(model: CompetitionModel, orbit: OrbitAnalysis, lam: float,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """Floquet multipliers of the spatial-mode system g' = (-lam D + J(U(t))) g.

    ``lam`` is a Laplacian eigenvalue; lam = 0 recovers the plain monodromy
    spectrum.  The shifted system is integrated directly (the diagonal
    diffusion matrix does not commute with the Jacobian along the orbit, so
    multipliers are not in general e^{-lam d T} times the base ones).
    Multipliers are sorted by decreasing modulus.
    """
    _require_periodic(orbit)
    if lam < 0.0:
        raise ValueError("Laplacian eigenvalue must be nonnegative")
    mono = _monodromy_matrix(model, orbit.anchor, orbit.period, lam * model.d, tol)
    mult = np.linalg.eigvals(mono)
    return mult[np.argsort(-np.abs(mult))]


@dataclass(frozen=True)
class StabilityVerdict:
    """Orbital stability assessment from base and modal Floquet multipliers."""

    verdict: str  # 'stable' | 'unstable' | 'inconclusive'
    base_multipliers: np.ndarray
    modal_multipliers: dict[int, np.ndarray]  # mode index k >= 1 -> multipliers


def orbital_stability(model: CompetitionModel, orbit: OrbitAnalysis, k_max: int | None = None,
                      eigenvalues=None, L: float | None = None,
                      tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Judge orbital stability of a periodic orbit under diffusive modes.

    ``eigenvalues`` supplies the Laplacian eigenvalues for modes 1..k_max;
    alternatively pass an interval length ``L`` and ``k_max`` to use the
    Neumann sequence (k pi / L)^2.  With neither, only the base multipliers
    are judged (k_max = 0).  A trustworthy computation must exhibit the
    unit multiplier: if no simple multiplier sits within 1e-3 of 1 the
    verdict is "inconclusive" regardless of the other moduli.  Otherwise
    "stable" needs every remaining modulus below 1 - 1e-6 and "unstable"
    needs some modulus above 1 + 1e-6; borderline moduli are
    "inconclusive".
    """
    _require_periodic(orbit)
    if eigenvalues is None:
        if L is not None:
            if k_max is None or k_max < 0:
                raise ValueError("k_max must accompany an interval length")
            eigenvalues = [(k * np.pi / L) ** 2 for k in range(1, k_max + 1)]
        else:
            eigenvalues = []
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if k_max is None:
        k_max = eigenvalues.shape[0]
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if eigenvalues.shape[0] < k_max:
        raise ValueError(f"need {k_max} Laplacian eigenvalues, got {eigenvalues.shape[0]}")
    base = orbit.multipliers
    if base is None:
        base = np.linalg.eigvals(monodromy(model, orbit, tol))
        base = base[np.argsort(-np.abs(base))]
    near_one = np.abs(base - 1.0) < TRIVIAL_MULTIPLIER_TOL
    unit_simple = int(near_one.sum()) == 1
    modal = {k: modal_multipliers(model, orbit, float(eigenvalues[k - 1]), tol)
             for k in range(1, k_max + 1)}
    if not unit_simple:
        return StabilityVerdict("inconclusive", base, modal)
    moduli = list(np.abs(base[~near_one])) + [abs(m) for ms in modal.values() for m in ms]
    if any(m > 1.0 + 1e-6 for m in moduli):
        verdict = "unstable"
    elif all(m < 1.0 - 1e-6 for m in moduli):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict, base, modal)
