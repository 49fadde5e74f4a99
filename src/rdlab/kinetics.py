"""Pointwise kinetics: trajectories, limit-cycle detection and Floquet data.

Every adaptive integration in rdlab runs on ``_dopri5``, a Dormand-Prince
5(4) loop with a quartic dense output and event location.  It gives scipy's
RK45 steps bit for bit, without scipy's structure: the tableau is written
with scipy's float-literal quotients, and each floating-point operation
(initial step, stage times and sums, RMS error norm, step control,
interpolated samples) is the one scipy performs, so results do not
depend on which of the two ran.  What it drops is bookkeeping: the wrapper
layers around the right-hand side, an interpolant object per step,
OdeSolution's sort of the sample times, and event handling on steps
without a sign change.  Events are affine in the state, so a root is a
root of the step's own quartic, found by safeguarded Newton iteration; it
agrees with solve_ivp's root to the rounding of the event over the step.
No integration loads scipy.
``tests/test_kinetics.py`` holds the loop to that contract.

Periodic orbits are detected on a Poincare section anchored at a
post-transient state with the local velocity as its normal; monodromy and
diffusion-shifted modal systems are integrated directly alongside the orbit
(the diagonal diffusion matrix does not commute with the time-dependent
Jacobian, so no factorization shortcut is taken).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NEGATIVITY_TOL, InvariantViolation, NumericalFailure, _require_finite_positive
from .model import CompetitionModel, equilibria, reaction
from .pde import neumann_eigenvalue

DEFAULT_TOL = 1e-7
DEFAULT_MAX_TIME = 2000.0
RETURN_STATE_TOL = 1e-6
RETURN_TIME_RTOL = 1e-4
SETTLE_TOL = 1e-8
SETTLE_SAMPLES = 10
TRIVIAL_MULTIPLIER_TOL = 1e-3
MODULUS_MARGIN = 1e-6  # a multiplier modulus within it of 1 is borderline

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EPS = np.finfo(float).eps

# The Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6, 1980) with the
# quartic dense output of Shampine (Math. Comp. 46, 1986), written with the
# same float-literal quotients as scipy's RK45, so both hold the same
# doubles.  Stage s = 1 .. 5 sits at t + C[s - 1] h with weights A[s - 1].
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = tuple(map(np.array, (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
)))
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)


@dataclass(frozen=True)
class SolverStats:
    """Deterministic counters of one adaptive run."""

    accepted_steps: int
    rejected_steps: int
    nfev: int
    min_state: float  # smallest density over the accepted states, the start included


def _interpolate(t, t_old, h, Q, y_old):
    """One step's quartic at the 1-D times t, evaluated as scipy's RkDenseOutput does."""
    x = (t - t_old) / h
    p = np.cumprod(np.tile(x, (Q.shape[1], 1)), axis=0)
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


class _Interpolant:
    """Piecewise quartic dense output over consecutive accepted steps.

    A time on a step boundary belongs to the step on its left, as in
    scipy's OdeSolution; a step's coefficient matrix Q = K^T P is formed
    only when the step is evaluated.  A segment cut at a terminal root keeps
    the quartic of its full step.
    """

    def __init__(self, ts, hs, y_old, K):
        self.ts = ts  # segment boundaries, shape (m + 1,)
        self._hs = hs  # step lengths, shape (m,)
        self._y_old = y_old  # shape (m, n)
        self._K = K  # stage derivatives, shape (m, stages + 1, n)

    def __call__(self, t):
        """State(s) at t: shape (n,) for a scalar, (n, len(t)) for a 1-D array.

        All the times on one step are evaluated in one product, whatever
        their order: ``Q @ p`` does not give the same bits for every column
        count, and scipy evaluates a step's times together.
        """
        times = np.atleast_1d(t)
        steps = np.clip(np.searchsorted(self.ts, times, side="left") - 1, 0, len(self._hs) - 1)
        order = np.argsort(steps, kind="stable")
        y = np.empty((self._y_old.shape[1], times.size))
        for group in np.split(order, np.flatnonzero(np.diff(steps[order])) + 1):
            i = steps[group[0]]
            y[:, group] = _interpolate(times[group], self.ts[i], self._hs[i],
                                       self._K[i].T.dot(_P), self._y_old[i])
        return y[:, 0] if np.ndim(t) == 0 else y


@dataclass(frozen=True)
class _Run:
    t: np.ndarray  # accepted times, from 0 to t_end or to a terminal root
    y: np.ndarray  # accepted states, shape (len(t), m)
    stats: SolverStats
    dense: _Interpolant | None  # over the steps ending at or after keep_from
    t_events: list  # one array of roots per event
    y_events: list  # one array of states per event, shape (roots, m)


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """scipy's select_initial_step for a forward run from t = 0."""
    scale = atol + np.abs(y0) * rtol
    root_n = y0.size ** 0.5
    d0 = np.linalg.norm(y0 / scale) / root_n
    d1 = np.linalg.norm(f0 / scale) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, y0 + h0 * f0, np.empty(y0.size))
    d2 = np.linalg.norm((f1 - f0) / scale) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    # a Python float keeps the step loop's times and step sizes off numpy scalars
    return float(min(100 * h0, h1, t_end))


def _dopri5(rhs, y0, t_end, tol, *, densities=None, keep_from=math.inf, events=()) -> _Run:
    """Integrate y' = f(t, y) from y0 over [0, t_end].

    ``rhs(t, y, out)`` writes f(t, y) into ``out`` and returns it.  The run
    matches scipy's RK45 at rtol = tol and atol = tol * 1e-2 operation for
    operation, so its times, states, nfev and dense output equal scipy's
    bit for bit, except the time and state a terminal root cuts the run at.

    - ``keep_from``: the dense output covers the steps ending at or after it
      (0 keeps all of them; the default keeps none).
    - ``events``: ``(w, p, direction, terminal)`` tuples, each the affine
      event g(y) = w . (y - p).  Its step-end values are those of scipy's
      event function ``w.dot(y - p)``, so the same steps show a sign change
      in the given direction (> 0 upward, < 0 downward, 0 either way).  On
      such a step g is a quartic in the step fraction, whose root
      ``_quartic_root`` finds; it agrees with solve_ivp's root to the
      rounding of g over the step.  When a terminal event fires, the
      step's roots are sorted by (time, event index) and cut after the
      first terminal one, and the run ends at that root.
    - ``densities``: the number of leading components that ``min_state``
      covers (all by default).

    Raises NumericalFailure when the step size falls below 10 ulp(t).
    """
    rtol, atol = max(tol, 100 * _EPS), tol * 1e-2  # scipy raises rtol to 100 eps
    rtol_v, atol_v = np.array(rtol), np.array(atol)
    n = y0.size
    root_n = n ** 0.5
    K = np.empty((len(_B) + 1, n))
    stages = [(K[s], K[:s].T, a, c) for s, (a, c) in enumerate(zip(_A, _C), start=1)]
    K_B, K_E = K[:-1].T, K.T

    t, y = 0.0, y0
    h_abs = _initial_step(rhs, y, rhs(t, y, K[0]), t_end, rtol, atol)
    nfev, rejected_steps = 2, 0
    abs_y = np.abs(y)
    ts, ys, hs, kept = [t], [y], [], []
    g = [float(w.dot(y - p)) for w, p, _, _ in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    terminate = False

    while t < t_end and not terminate:
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
            for row, K_s, a, c in stages:
                rhs(t + c * h, y + K_s.dot(a) * hv, row)
            y_new = y + hv * K_B.dot(_B)
            rhs(t + h, y_new, K[-1])
            nfev += len(_B)
            abs_new = np.abs(y_new)
            scale = atol_v + np.maximum(abs_y, abs_new) * rtol_v
            err = K_E.dot(_E) * hv / scale
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
        active = []
        for i, (w, p, direction, _) in enumerate(events):
            before, g[i] = g[i], float(w.dot(y - p))
            if (direction >= 0 and before <= 0 <= g[i]) or (direction <= 0 and before >= 0 >= g[i]):
                active.append((i, before))
        if active:
            # on this step g = c0 + sum_k h (w . Q[:, k - 1]) theta^k, c0 its start value
            Q = K_E.dot(_P)
            roots = []
            for i, before in active:
                theta = _quartic_root(before, g[i], *(h * events[i][0].dot(Q)).tolist())
                roots.append((t_old + theta * h, i))
            for root, i in sorted(roots):
                y_root = _interpolate(np.array([root]), t_old, h, Q, y_old)[:, 0]
                t_events[i].append(root)
                y_events[i].append(y_root)
                if events[i][3]:
                    t, y, terminate = root, y_root, True
                    break
        ts.append(t)
        ys.append(y)
        if t >= keep_from:
            kept.append(K.copy())
            hs.append(h)
        K[0] = K[-1]  # the next step starts from this step's end derivative

    Y = np.array(ys)
    stats = SolverStats(len(ts) - 1, rejected_steps, nfev, float(Y[:, :densities].min()))
    dense = None
    if kept:
        m = len(kept)
        dense = _Interpolant(np.array(ts[-m - 1:]), np.array(hs), Y[-m - 1:-1], np.array(kept))
    return _Run(np.array(ts), Y, stats, dense,
                [np.asarray(te) for te in t_events], [np.asarray(ye) for ye in y_events])


def _quartic_root(c0, end, c1, c2, c3, c4):
    """The step fraction theta in [0, 1] where c0 + c1 theta + ... + c4 theta^4 = 0.

    c0 and ``end`` are the event's values at the step's two ends, of
    opposite signs or zero; they, not the quartic at 1, bracket the root,
    so a zero step-end value returns 1 even when the quartic rounds to the
    other side there.  A Newton step that leaves the bracket is replaced by
    bisection, and the iteration stops once a step moves theta by at most
    4 eps.
    """
    if c0 == 0:
        return 0.0
    if end == 0:
        return 1.0
    positive_lo = c0 > 0
    lo, hi = 0.0, 1.0
    theta = c0 / (c0 - end)
    while True:
        value = c0 + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))
        if value == 0:
            return theta
        if (value > 0) == positive_lo:
            lo = theta
        else:
            hi = theta
        slope = c1 + theta * (2 * c2 + theta * (3 * c3 + theta * 4 * c4))
        new = theta - value / slope if slope else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - theta) <= 4 * _EPS:
            return new
        theta = new


def _kinetic_rhs(model):
    """(t, U) -> f(U) = U (1 - a U) into ``out``, with the arithmetic of ``model.reaction``."""
    a = model.a
    one = np.array(1.0)

    def rhs(t, U, out):
        return np.multiply(U, one - a.dot(U), out=out)

    return rhs


def _variational_rhs(model, lam_d):
    """(t, (U, X)) -> (f(U), (J(U) - diag(lam_d)) X) into ``out``.

    The arithmetic is that of ``model.reaction`` and ``model.jacobian``.
    """
    n = model.n
    a = model.a
    minus_a = -a
    diag = np.diag_indices(n)
    shift = np.diag(lam_d)
    one = np.array(1.0)

    def rhs(t, y, out):
        U = y[:n]
        X = y[n:].reshape(n, n)
        growth = one - a.dot(U)
        J = minus_a * U[:, None]
        J[diag] += growth
        return np.concatenate([U * growth, (J - shift).dot(X).ravel()], out=out)

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """Integrated kinetic trajectory with a dense interpolant."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    dense: object  # callable t -> state(s), the integrator's interpolant

    def at(self, t) -> np.ndarray:
        """The dense interpolant at t, clamped at zero as ``states`` is.

        Returns shape (n,) for a scalar t and (n, len(t)) for a 1-D array.
        """
        return np.maximum(self.dense(t), 0.0)


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
    _require_finite_positive(span_name, span)
    _require_finite_positive("tol", tol)
    return U0


def integrate(model: CompetitionModel, U0, t_end: float, tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the kinetics from U0 over [0, t_end].

    U0 must be finite and nonnegative, ``t_end`` and ``tol`` finite and
    positive; otherwise ValueError is raised.  Nonnegativity is enforced as
    an invariant check, not a projection: an excursion below -1e-8 raises
    InvariantViolation; smaller round-off dips are clamped to zero in the
    reported states and in ``Trajectory.at`` only.
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

    ``status`` is "periodic", "converged" or "undetermined"; the fields a
    status does not fill stay None.  For periodic orbits the anchor lies on
    the cycle, and the monodromy matrix with its multipliers (by decreasing
    modulus) is attached.  ``crossing_times`` keeps the raw section-return
    times for spread diagnostics.  ``solver`` maps each integration that ran
    ("transient", "section", "closure", "monodromy", in that order) to its
    counters.
    """

    status: str
    period: float | None = None
    anchor: np.ndarray | None = None
    monodromy: np.ndarray | None = None
    multipliers: np.ndarray | None = None
    converged_to: str | None = None
    crossing_times: np.ndarray | None = None
    solver: dict[str, SolverStats] = field(default_factory=dict)


def _is_settled(model, dense, t_hi):
    ts = np.linspace(max(0.0, t_hi - (SETTLE_SAMPLES - 1)), t_hi, SETTLE_SAMPLES)
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
    if _is_settled(model, transient.dense, t_half):
        label = _settled_equilibrium_label(model, anchor0)
        return OrbitAnalysis("undetermined" if label is None else "converged",
                             converged_to=label, solver=solver)

    velocity = reaction(model, anchor0)
    normal = velocity / np.linalg.norm(velocity)
    span = max_time - t_half
    run = _dopri5(rhs, anchor0, span, tol, keep_from=span - SETTLE_SAMPLES,
                  events=[(normal, anchor0, 1, False)])
    solver["section"] = run.stats
    t_cross = run.t_events[0]
    x_cross = run.y_events[0]

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
        one_period = _dopri5(rhs, anchor, period, tol)
        solver["closure"] = one_period.stats
        if np.linalg.norm(one_period.y[-1] - anchor) < RETURN_STATE_TOL:
            mono, solver["monodromy"] = _monodromy_matrix(model, anchor, period,
                                                          np.zeros(model.n), tol)
            return OrbitAnalysis("periodic", period, anchor, mono, _multipliers(mono),
                                 crossing_times=crossings, solver=solver)

    if _is_settled(model, run.dense, span):
        label = _settled_equilibrium_label(model, run.y[-1])
        if label is not None:
            return OrbitAnalysis("converged", converged_to=label, solver=solver)
    return OrbitAnalysis("undetermined", crossing_times=t_cross if t_cross.size else None,
                         solver=solver)


def _monodromy_matrix(model, anchor, period, lam_d, tol):
    """Fundamental solution over one period of X' = (-diag(lam_d) + J(U(t))) X.

    Returns the matrix and the run's counters.
    """
    n = model.n
    y0 = np.concatenate([anchor, np.eye(n).ravel()])
    run = _dopri5(_variational_rhs(model, lam_d), y0, period, tol, densities=n)
    return run.y[-1, n:].reshape(n, n), run.stats


def _multipliers(mono):
    """The eigenvalues of a monodromy matrix, by decreasing modulus."""
    mult = np.linalg.eigvals(mono)
    return mult[np.argsort(-np.abs(mult))]


def _require_periodic(orbit):
    """Raise ValueError unless the orbit is periodic with the fields the Floquet routines read."""
    if orbit.status != "periodic" or any(
            x is None for x in (orbit.period, orbit.anchor, orbit.multipliers)):
        raise ValueError("a periodic OrbitAnalysis is required")


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
    return _multipliers(mono)


@dataclass(frozen=True)
class StabilityVerdict:
    """Orbital stability assessment from the orbit's multipliers and the modal ones."""

    verdict: str  # 'stable' | 'unstable' | 'inconclusive'
    modal_multipliers: dict[int, np.ndarray]  # mode index k >= 1 -> multipliers


def orbital_stability(model: CompetitionModel, orbit: OrbitAnalysis, k_max: int | None = None,
                      eigenvalues=None, L: float | None = None,
                      tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Judge orbital stability of a periodic orbit under diffusive modes.

    ``eigenvalues`` supplies the Laplacian eigenvalues for modes 1..k_max;
    alternatively pass an interval length ``L`` and ``k_max`` to use the
    Neumann sequence (k pi / L)^2.  With neither, only ``orbit.multipliers``
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
    if L is not None:
        _require_finite_positive("interval length L", L)
    if eigenvalues is None:
        if L is not None:
            if k_max is None or k_max < 0:
                raise ValueError("k_max must accompany an interval length")
            eigenvalues = [neumann_eigenvalue(L, k) for k in range(1, k_max + 1)]
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
    near_one = np.abs(base - 1.0) < TRIVIAL_MULTIPLIER_TOL
    unit_simple = int(near_one.sum()) == 1
    modal = {k: modal_multipliers(model, orbit, float(eigenvalues[k - 1]), tol)
             for k in range(1, k_max + 1)}
    if not unit_simple:
        return StabilityVerdict("inconclusive", modal)
    moduli = list(np.abs(base[~near_one])) + [abs(m) for ms in modal.values() for m in ms]
    if any(m > 1.0 + MODULUS_MARGIN for m in moduli):
        verdict = "unstable"
    elif all(m < 1.0 - MODULUS_MARGIN for m in moduli):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict, modal)
