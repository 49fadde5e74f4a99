"""Diffusion-driven flattening analysis and long-run PDE classification.

The core quantity is sigma = lambda1 * min(d) - M, where lambda1 is the
first nonzero Neumann Laplacian eigenvalue of the interval and M bounds the
kinetic Jacobian norm over a positively invariant region (Conway, Hoff &
Smoller 1978).  The region is read from the rows of ``a`` alone, so one
function decides it for every caller.  Positive sigma guarantees
exponential collapse of spatial gradients, after which the dynamics
follows the spatially averaged kinetics.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import REGION_TIE_TOL, CompetitionModel, equilibria
from .pde import PdeTrajectory, neumann_eigenvalue, spatial_average

PERIODIC_SCORE = 0.9  # periodicity scores above it are periodic
CLASSIFICATION_HORIZON = 50.0  # classify_omega needs a run at least this long


def _region_pieces(model: CompetitionModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Polytope pieces {U : G U <= h} whose union is the model's invariant region.

    Two species: the union over rows i of U >= 0, (a U)_i <= 1.  Three
    species: region A, the union over i != j of U >= 0, (a U)_i <= 1 <= (a U)_j,
    bounded since a > 0.  Any other size raises ValueError.
    """
    n, a = model.n, model.a
    orthant = -np.eye(n)  # U >= 0
    if n == 2:
        return [(np.vstack([orthant, row]), np.array([0.0, 0.0, 1.0])) for row in a]
    if n == 3:
        return [(np.vstack([orthant, a[i], -a[j]]), np.array([0.0, 0.0, 0.0, 1.0, -1.0]))
                for i, j in itertools.permutations(range(3), 2)]
    raise ValueError(f"no invariant region for {n} species (2 or 3 needed)")


def _norm_batch(model: CompetitionModel, pts: np.ndarray, norm: str) -> np.ndarray:
    """Norm of the kinetic Jacobian at each row of ``pts``."""
    if norm not in ("frobenius", "operator"):
        raise ValueError(f"unknown norm {norm!r}")
    a = model.a
    J = -a[None, :, :] * pts[:, :, None]
    idx = np.arange(model.n)
    J[:, idx, idx] += 1.0 - pts @ a.T
    return np.linalg.norm(J, ord="fro" if norm == "frobenius" else 2, axis=(1, 2))


def sup_jacobian_norm(model: CompetitionModel, *, norm: str = "frobenius") -> float:
    """Supremum of the kinetic Jacobian norm over the model's invariant region.

    The region comes from the rows of ``a``.  For two species it is the
    union of the triangles U >= 0, (a U)_i <= 1, one per row i (on a unit
    diagonal, u + b v <= 1 and c u + v <= 1).  For three species it is
    region A, the states with min_i (a U)_i <= 1 <= max_i (a U)_i.  Other
    species counts raise ValueError.  ``norm`` is "frobenius" or "operator".

    The value is exact.  The Jacobian is affine in U, so both norms are
    convex in U, and a convex function on a polytope attains its maximum
    at a corner (Rockafellar, Convex Analysis, Cor. 32.3.2).  Each region
    is a finite union of polytope pieces {U : G U <= h}, so the supremum is
    the largest norm over their corners: the solutions of n of a piece's
    planes that meet all of its planes within REGION_TIE_TOL.
    """
    corners = []
    for G, h in _region_pieces(model):
        for rows in map(list, itertools.combinations(range(h.size), model.n)):
            try:
                p = np.linalg.solve(G[rows], h[rows])
            except np.linalg.LinAlgError:
                continue
            if np.all(G @ p <= h + REGION_TIE_TOL):
                corners.append(p)
    return float(_norm_batch(model, np.array(corners), norm).max())


@dataclass(frozen=True)
class ChsReport:
    """Gradient-collapse certificate sigma = lambda1 * min(d) - M_sup on an interval of length L."""

    L: float
    lambda1: float
    d_min: float
    M_sup: float
    sigma: float
    flat_guarantee: bool
    threshold_d: float
    threshold_d_origin: float  # the same floor with the norm of J(0) = I for M_sup


def chs_report(model: CompetitionModel, L: float, *, norm: str = "frobenius") -> ChsReport:
    """Certificate for diffusion-driven flattening on an interval of length L.

    The Jacobian norm is maximized over the model's invariant region, read
    from the rows of ``a`` by ``sup_jacobian_norm``, which exists for n = 2
    or 3 only; other sizes raise ValueError.  flat_guarantee is sigma > 0,
    and threshold_d = M_sup / lambda1 is the diffusion floor at which the
    guarantee kicks in.  threshold_d_origin is the same floor with the norm
    of J(0) = I in place of M_sup: sqrt(n) / lambda1 for the Frobenius norm
    and 1 / lambda1 for the operator norm.
    """
    lambda1 = neumann_eigenvalue(L, 1)  # raises ValueError unless L is finite and positive
    M_sup = sup_jacobian_norm(model, norm=norm)
    d_min = float(model.d.min())
    sigma = lambda1 * d_min - M_sup
    origin_norm = _norm_batch(model, np.zeros((1, model.n)), norm)[0]
    return ChsReport(float(L), lambda1, d_min, M_sup, float(sigma), bool(sigma > 0.0),
                     float(M_sup / lambda1), float(origin_norm / lambda1))


def decay_fit(trajectory: PdeTrajectory, window: tuple[float, float] | None = None):
    """Least-squares exponential decay rate of the gradient norm.

    Fits log ||grad u(t)|| ~ log A - rate * t over snapshot times in
    ``window`` (default [t_end/10, t_end/2]), a pair [t_lo, t_hi] with
    t_lo < t_hi.  Requires at least 10 snapshots in the window, all with
    gradient norm above 1e-14.  Returns (rate, amplitude).
    """
    t_end = float(trajectory.times[-1])
    if window is None:
        window = (t_end / 10.0, t_end / 2.0)
    if len(window) != 2 or not window[0] < window[1]:
        raise ValueError(f"window must be [t_lo, t_hi] with t_lo < t_hi, got {list(window)}")
    t_lo, t_hi = window
    keep = (trajectory.times >= t_lo) & (trajectory.times <= t_hi)
    if int(keep.sum()) < 10:
        raise ValueError(f"need at least 10 snapshots in window [{t_lo:g}, {t_hi:g}]")
    times = trajectory.times[keep]
    norms = trajectory.grad_l2_norms()[keep]
    if norms.min() <= 1e-14:
        raise ValueError("gradient norm at or below 1e-14 in window; nothing left to fit")
    slope, intercept = np.polyfit(times, np.log(norms), 1)
    return float(-slope), float(np.exp(intercept))


def periodicity_score(times: np.ndarray, values: np.ndarray):
    """Autocorrelation periodicity score of a scalar time series.

    Needs at least 200 uniformly spaced samples; a caller scoring part of a
    run passes that part.  The Pearson correlation between the trace and
    its lagged copy is scanned over lags up to half the series; the score
    is the height of the first peak after the correlation has decayed below
    1/2, and the period is that lag.  Per-lag standardization keeps slowly
    drifting amplitudes from masking an otherwise clean cycle.  All lags
    cost O(n log n) together: the overlap means and second moments
    come from cumulative sums, the lagged products from one numpy FFT of the
    trace zero-padded to length 2n - 1, so no lag wraps around.  A (near)
    constant trace scores 0.  Returns (score, period | None).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if times.size < 200:
        raise ValueError("need at least 200 samples")
    dt = np.diff(times)
    if dt.max() - dt.min() > 1e-9 * dt.mean():
        raise ValueError("periodicity score requires uniform sampling")
    x = values - values.mean()
    var = float(np.mean(x * x))
    if var < 1e-24 or np.sqrt(var) < 1e-12 * max(1.0, np.abs(values).max()):
        return 0.0, None
    n = x.size
    max_lag = n // 2
    floor = 1e-12 * max(1.0, float(np.abs(values).max()))
    # Pearson correlation of a = x[:n - lag] and b = x[lag:] for every lag:
    # window sums from cumulative sums, lagged products from one zero-padded FFT
    lags = np.arange(max_lag + 1)
    count = (n - lags).astype(float)
    s1 = np.concatenate(([0.0], np.cumsum(x)))
    s2 = np.concatenate(([0.0], np.cumsum(x * x)))
    mean_a = s1[n - lags] / count
    mean_b = (s1[n] - s1[lags]) / count
    var_a = np.maximum(s2[n - lags] / count - mean_a * mean_a, 0.0)
    var_b = np.maximum((s2[n] - s2[lags]) / count - mean_b * mean_b, 0.0)
    size = 2 * n - 1
    spectrum = np.fft.rfft(x, size)
    lagged = np.fft.irfft(spectrum * spectrum.conj(), size)[: max_lag + 1]
    cov = lagged / count - mean_a * mean_b
    denom = np.sqrt(var_a * var_b)
    corr = np.divide(cov, denom, out=np.zeros(max_lag + 1), where=denom >= floor * floor)
    below = np.nonzero(corr < 0.5)[0]
    if below.size == 0:
        return 0.0, None
    start = int(below[0])
    inner = lags[max(start, 1):max_lag]
    peaks = inner[(corr[inner] >= corr[inner - 1]) & (corr[inner] >= corr[inner + 1])
                  & (corr[inner] > 0.0)].tolist()
    if not peaks:
        return 0.0, None
    k0 = peaks[0]
    # keep climbing through adjacent rising peaks of a broad first bump,
    # stopping well short of the double-period peak
    best = k0
    for k in peaks:
        if k > 1.5 * k0:
            break
        if corr[k] > corr[best]:
            best = k
    lag_dt = float(times[1] - times[0])
    return float(corr[best]), float(best * lag_dt)


@dataclass(frozen=True)
class OmegaClassification:
    """Long-run PDE regime with its supporting evidence."""

    kind: str  # constant-equilibrium | flat-periodic | heterogeneous-steady |
    #           heterogeneous-periodic | undetermined
    label: str | None
    flatness: float
    periodicity: float | None
    equilibrium_distance: float


def classify_omega(trajectory: PdeTrajectory, model: CompetitionModel) -> OmegaClassification:
    """Classify the late-time regime of a PDE run (final quarter of the run).

    Flat runs (spatial oscillation < 1e-4) are matched against equilibria
    (distance < 1e-6 -> constant-equilibrium) or scored for periodicity at
    the probes (> 0.9 -> flat-periodic).  Strongly heterogeneous runs
    (>= 1e-2) split into steady (temporal variation < 1e-6) and periodic
    (score > 0.9 at every probe).  Everything else is undetermined.
    """
    t_end = float(trajectory.times[-1])
    if t_end < CLASSIFICATION_HORIZON:
        raise ValueError(
            f"classification needs a run of at least {CLASSIFICATION_HORIZON:g} time units")
    t_lo = 0.75 * t_end
    keep = trajectory.times >= t_lo
    flat = float(trajectory.flatness()[keep].max())

    per_probe = []
    pkeep = trajectory.probe_times >= t_lo
    if int(pkeep.sum()) >= 200:
        times = trajectory.probe_times[pkeep]
        for j in range(trajectory.probe_points.size):
            scores = [periodicity_score(times, trajectory.probe_values[pkeep, s, j])[0]
                      for s in range(model.n)]
            # a probe is periodic if its non-constant components are; constants score 0
            per_probe.append(min((x for x in scores if x > 0.0), default=0.0))
    min_score = min(per_probe) if per_probe else None

    eqs = equilibria(model)  # never empty: P_0 is always one
    final_avg = spatial_average(trajectory.final)
    dists = [float(np.linalg.norm(eq.point - final_avg)) for eq in eqs]
    k = int(np.argmin(dists))
    eq_dist, label = dists[k], eqs[k].label

    if flat < 1e-4:
        if eq_dist < 1e-6:
            return OmegaClassification("constant-equilibrium", label, flat, min_score, eq_dist)
        if min_score is not None and min_score > PERIODIC_SCORE:
            return OmegaClassification("flat-periodic", None, flat, min_score, eq_dist)
        return OmegaClassification("undetermined", None, flat, min_score, eq_dist)
    if flat >= 1e-2:
        drift = float(np.max(np.abs(trajectory.fields[keep] - trajectory.fields[-1])))
        if drift < 1e-6:
            return OmegaClassification("heterogeneous-steady", None, flat, min_score, eq_dist)
        if min_score is not None and min_score > PERIODIC_SCORE:
            return OmegaClassification("heterogeneous-periodic", None, flat, min_score, eq_dist)
    return OmegaClassification("undetermined", None, flat, min_score, eq_dist)
