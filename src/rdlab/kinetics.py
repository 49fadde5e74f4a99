"""Pointwise kinetics: trajectories, limit-cycle detection and Floquet data.

Every trajectory is integrated by ``_dopri5``, a Dormand-Prince 5(4) loop
with a quartic dense output.  It reproduces scipy's
``solve_ivp(method="RK45")`` bit for bit: the tableau is read from
``scipy.integrate.RK45`` and each floating-point operation (initial step,
stage sums, RMS error norm, step control, section roots, interpolated
samples) is the one scipy performs, so results do not depend on which of
the two ran.  It drops scipy's per-step overhead: the wrapper layers around
the right-hand side, an interpolant object per step where none is needed,
and event bookkeeping on steps without a sign change.
``tests/test_kinetics.py`` holds the loop to that contract.

Periodic orbits are detected on a Poincare section anchored at a
post-transient state with the local velocity as its normal; monodromy and
diffusion-shifted modal systems are integrated directly alongside the orbit
(the diagonal diffusion matrix does not commute with the time-dependent
Jacobian, so no factorization shortcut is taken).
"""

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import NEGATIVITY_TOL, InvariantViolation, NumericalFailure
from .model import CompetitionModel, equilibria, reaction

DEFAULT_TOL = 1e-7
DEFAULT_MAX_TIME = 2000.0
RETURN_STATE_TOL = 1e-6
RETURN_TIME_RTOL = 1e-4
SETTLE_TOL = 1e-8
SETTLE_SAMPLES = 10
TRIVIAL_MULTIPLIER_TOL = 1e-3

# scipy's RK45 tableau and step control.  C is not needed: both right-hand
# sides are autonomous.
_STAGE_ROWS = [RK45.A[s, :s] for s in range(1, RK45.n_stages)]
_ERROR_EXPONENT = -1 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverStats:
    """Deterministic counters of one adaptive run."""

    accepted_steps: int
    rejected_steps: int
    nfev: int
    min_state: float  # smallest density over the accepted states, the start included


def _interpolate(t, t_old, h, Q, y_old):
    """One step's quartic at t (scalar or 1-D), evaluated as scipy's RkDenseOutput does."""
    t = np.asarray(t)
    x = (t - t_old) / h
    if t.ndim == 0:
        p = np.cumprod(np.tile(x, Q.shape[1]))
    else:
        p = np.cumprod(np.tile(x, (Q.shape[1], 1)), axis=0)
    y = h * np.dot(Q, p)
    y += y_old[:, None] if y.ndim == 2 else y_old
    return y


class _Interpolant:
    """Piecewise quartic dense output over consecutive accepted steps.

    Segment lookup and evaluation follow scipy's OdeSolution; a step's
    coefficient matrix Q = K^T P is formed only when the step is evaluated.
    """

    def __init__(self, ts, y_old, K):
        self.ts = ts  # step boundaries, shape (m + 1,)
        self._y_old = y_old  # shape (m, n)
        self._K = K  # stage derivatives, shape (m, stages + 1, n)

    def _segment(self, i, t):
        Q = self._K[i].T.dot(RK45.P)
        return _interpolate(t, self.ts[i], self.ts[i + 1] - self.ts[i], Q, self._y_old[i])

    def __call__(self, t):
        """State(s) at t: shape (n,) for a scalar, (n, len(t)) for a 1-D array."""
        t = np.asarray(t)
        last = len(self.ts) - 2
        if t.ndim == 0:
            ind = int(np.searchsorted(self.ts, t, side="left"))
            return self._segment(min(max(ind - 1, 0), last), t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, last)
        ys = []
        start = 0
        for segment, group in groupby(segments):
            stop = start + len(list(group))
            ys.append(self._segment(segment, t_sorted[start:stop]))
            start = stop
        return np.hstack(ys)[:, reverse]


@dataclass(frozen=True)
class _Run:
    t: np.ndarray  # accepted times, from 0 to t_end
    y: np.ndarray  # accepted states, shape (len(t), m)
    stats: SolverStats
    dense: _Interpolant | None  # over the steps ending at or after keep_from
    t_events: np.ndarray | None  # upward section crossings
    y_events: np.ndarray | None
    y_eval: np.ndarray | None  # samples at t_eval, shape (m, len(t_eval))


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """scipy's select_initial_step for a forward run from t = 0."""
    scale = atol + np.abs(y0) * rtol
    root_n = y0.size ** 0.5
    d0 = np.linalg.norm(y0 / scale) / root_n
    d1 = np.linalg.norm(f0 / scale) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(y0 + h0 * f0, np.empty(y0.size))
    d2 = np.linalg.norm((f1 - f0) / scale) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (RK45.error_estimator_order + 1))
    return min(100 * h0, h1, t_end)


def _dopri5(rhs, y0, t_end, tol, *, densities=None, keep_from=math.inf, t_eval=None,
            section=None) -> _Run:
    """Integrate the autonomous system y' = f(y) from y0 over [0, t_end].

    ``rhs(y, out)`` writes f(y) into ``out`` and returns it.  The run
    matches ``solve_ivp(lambda t, y: f(y), (0, t_end), y0, method="RK45",
    rtol=tol, atol=tol * 1e-2)`` operation for operation, so its times,
    states, nfev, section roots and samples equal scipy's bit for bit.

    - ``keep_from``: the dense output covers the steps ending at or after it
      (0 keeps all of them; the default keeps none).
    - ``t_eval``: sorted times in [0, t_end]; each step evaluates its quartic
      on the ones it covers, as solve_ivp does.
    - ``section``: y -> float; each upward zero crossing (``g <= 0`` at the
      step start and ``>= 0`` at its end) is refined by brentq on the step's
      quartic with xtol = rtol = 4 eps, and is recorded with its state.
    - ``densities``: the number of leading components that ``min_state``
      covers (all by default).

    Raises NumericalFailure when the step size falls below 10 ulp(t).
    """
    rtol, atol = max(tol, 100 * _EPS), tol * 1e-2  # scipy raises rtol to 100 eps
    rtol_v, atol_v = np.array(rtol), np.array(atol)
    n = y0.size
    root_n = n ** 0.5
    K = np.empty((RK45.n_stages + 1, n))
    stages = [(K[s], K[:s].T, a) for s, a in enumerate(_STAGE_ROWS, start=1)]
    K_B, K_E = K[:-1].T, K.T
    B, E, P = RK45.B, RK45.E, RK45.P

    t, y = 0.0, y0
    h_abs = _initial_step(rhs, y, rhs(y, K[0]), t_end, rtol, atol)
    nfev, rejected_steps = 2, 0
    abs_y = np.abs(y)
    ts, ys, kept = [t], [y], []
    if section is not None:
        g = section(y)
        t_events, y_events = [], []
    if t_eval is not None:
        i_eval, y_eval = 0, []

    while t < t_end:
        min_step = 10 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalFailure(
                    f"integration failed at t = {t:.6g}: required step size is "
                    "less than spacing between numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            hv = np.array(h)  # a 0-d array scales an array faster than a float does
            for row, K_s, a in stages:
                rhs(y + K_s.dot(a) * hv, row)
            y_new = y + hv * K_B.dot(B)
            rhs(y_new, K[-1])
            nfev += RK45.n_stages
            abs_new = np.abs(y_new)
            scale = atol_v + np.maximum(abs_y, abs_new) * rtol_v
            err = K_E.dot(E) * hv / scale
            error_norm = math.sqrt(err.dot(err)) / root_n
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected_steps += 1

        t_old, y_old = t, y
        t, y, abs_y = t_new, y_new, abs_new
        ts.append(t)
        ys.append(y)
        if t >= keep_from:
            kept.append(K.copy())
        if section is not None:
            g_new = section(y)
            if g <= 0 and g_new >= 0:
                Q = K_E.dot(P)
                root = brentq(lambda s: section(_interpolate(s, t_old, h, Q, y_old)),
                              t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                t_events.append(root)
                y_events.append(_interpolate(root, t_old, h, Q, y_old))
            g = g_new
        if t_eval is not None:
            i_new = np.searchsorted(t_eval, t, side="right")
            if i_new > i_eval:
                y_eval.append(_interpolate(t_eval[i_eval:i_new], t_old, h, K_E.dot(P), y_old))
                i_eval = i_new
        K[0] = K[-1]  # the next step starts from this step's end derivative

    Y = np.array(ys)
    stats = SolverStats(len(ts) - 1, rejected_steps, nfev, float(Y[:, :densities].min()))
    dense = None
    if kept:
        m = len(kept)
        dense = _Interpolant(np.array(ts[-m - 1:]), Y[-m - 1:-1], np.array(kept))
    return _Run(
        np.array(ts), Y, stats, dense,
        None if section is None else np.asarray(t_events),
        None if section is None else np.asarray(y_events),
        None if t_eval is None else np.hstack(y_eval),
    )


def _kinetic_rhs(model):
    """f(U) = U (1 - a U) into ``out``, with the arithmetic of ``model.reaction``."""
    a = model.a
    one = np.array(1.0)

    def rhs(U, out):
        return np.multiply(U, one - a @ U, out=out)

    return rhs


def _variational_rhs(model, lam_d):
    """(U, X) -> (f(U), (J(U) - diag(lam_d)) X) into ``out``.

    The arithmetic is that of ``model.reaction`` and ``model.jacobian``.
    """
    n = model.n
    a = model.a
    minus_a = -a
    diag = np.diag_indices(n)
    shift = np.diag(lam_d)
    one = np.array(1.0)

    def rhs(y, out):
        U = y[:n]
        X = y[n:].reshape(n, n)
        growth = one - a @ U
        J = minus_a * U[:, None]
        J[diag] += growth
        return np.concatenate([U * growth, ((J - shift) @ X).ravel()], out=out)

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """Integrated kinetic trajectory with a dense interpolant."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    dense: object  # callable t -> state(s), the integrator's interpolant

    def at(self, t) -> np.ndarray:
        """Evaluate the dense interpolant; returns shape (n,) or (n, len(t))."""
        return self.dense(t)


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
    run = _dopri5(_kinetic_rhs(model), U0, t_end, tol, keep_from=0.0)
    low = run.stats.min_state
    if low < -NEGATIVITY_TOL:
        raise InvariantViolation(f"state dipped to {low:.3e}, below -{NEGATIVITY_TOL:g}")
    return Trajectory(run.t, np.maximum(run.y, 0.0), run.dense)


@dataclass(frozen=True)
class OrbitAnalysis:
    """Outcome of long-run orbit classification.

    ``status`` is "periodic", "converged" or "undetermined".  For periodic
    orbits the anchor lies on the cycle, ``sample_times``/``sample_states``
    cover one full period, and the monodromy matrix with its multipliers is
    attached.  ``crossing_times`` keeps the raw section-return times for
    spread diagnostics.  ``solver`` maps each integration that ran
    ("transient", "section", "closure", "monodromy", in that order) to its
    counters.
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
    solver: dict[str, SolverStats] = field(default_factory=dict)


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
    rhs = _kinetic_rhs(model)
    t_half = max_time / 2.0
    # _is_settled samples the last SETTLE_SAMPLES - 1 time units; one more
    # unit keeps the step that contains the first sample
    transient = _dopri5(rhs, U0, t_half, tol, keep_from=t_half - SETTLE_SAMPLES)
    solver = {"transient": transient.stats}
    if transient.stats.min_state < -NEGATIVITY_TOL:
        raise InvariantViolation("transient left the nonnegative cone")
    anchor0 = transient.y[-1]

    def outcome(status, converged_to=None, crossing_times=None):
        return OrbitAnalysis(status, False, None, None, None, None, None, None,
                             converged_to, crossing_times, solver)

    if _is_settled(model, transient.dense, 0.0, t_half):
        label = _settled_equilibrium_label(model, anchor0)
        return outcome("undetermined" if label is None else "converged", label)

    velocity = reaction(model, anchor0)
    normal = velocity / np.linalg.norm(velocity)

    def crossing(y):
        return float(normal @ (y - anchor0))

    span = max_time - t_half
    run = _dopri5(rhs, anchor0, span, tol, keep_from=span - SETTLE_SAMPLES, section=crossing)
    solver["section"] = run.stats
    t_cross = run.t_events
    x_cross = run.y_events

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
        one_period = _dopri5(rhs, anchor, period, tol, t_eval=t_samp)
        solver["closure"] = one_period.stats
        closure = np.linalg.norm(one_period.y_eval[:, -1] - anchor)
        if closure < RETURN_STATE_TOL:
            mono, solver["monodromy"] = _monodromy_matrix(model, anchor, period,
                                                          np.zeros(model.n), tol)
            mult = np.linalg.eigvals(mono)
            mult = mult[np.argsort(-np.abs(mult))]
            return OrbitAnalysis("periodic", True, period, anchor, t_samp, one_period.y_eval.T,
                                 mono, mult, None, crossings, solver)

    if _is_settled(model, run.dense, 0.0, span):
        label = _settled_equilibrium_label(model, run.y[-1])
        if label is not None:
            return outcome("converged", label)
    return outcome("undetermined", crossing_times=t_cross if t_cross.size else None)


def _monodromy_matrix(model, anchor, period, lam_d, tol):
    """Fundamental solution over one period of X' = (-diag(lam_d) + J(U(t))) X.

    Returns the matrix and the run's counters.
    """
    n = model.n
    y0 = np.concatenate([anchor, np.eye(n).ravel()])
    run = _dopri5(_variational_rhs(model, lam_d), y0, period, tol, densities=n)
    return run.y[-1, n:].reshape(n, n), run.stats


def _require_periodic(orbit):
    if not (orbit.periodic and orbit.period is not None and orbit.anchor is not None):
        raise ValueError("a periodic OrbitAnalysis is required")


def monodromy(model: CompetitionModel, orbit: OrbitAnalysis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Monodromy matrix of the kinetics linearized along one period of the orbit."""
    _require_periodic(orbit)
    return _monodromy_matrix(model, orbit.anchor, orbit.period, np.zeros(model.n), tol)[0]


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
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"Laplacian eigenvalue must be finite and nonnegative, got {lam}")
    mono, _ = _monodromy_matrix(model, orbit.anchor, orbit.period, lam * model.d, tol)
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
    "inconclusive".  ``L`` must be finite and positive and the eigenvalues
    finite and nonnegative; otherwise ValueError is raised before any
    integration.
    """
    _require_periodic(orbit)
    if L is not None and not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"interval length L must be finite and positive, got {L}")
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
    if not (np.isfinite(eigenvalues[:k_max]).all() and (eigenvalues[:k_max] >= 0.0).all()):
        raise ValueError("Laplacian eigenvalues must be finite and nonnegative")
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
