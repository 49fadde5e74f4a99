"""Diffusion-driven flattening analysis and long-run PDE classification.

The core quantity is sigma = lambda1 * min(d) - M, where lambda1 is the
first nonzero Neumann Laplacian eigenvalue of the interval and M bounds the
kinetic Jacobian norm over a positively invariant region.  Positive sigma
guarantees exponential collapse of spatial gradients, after which the
dynamics follows the spatially averaged kinetics.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import REGION_TIE_TOL, CompetitionModel, equilibria
from .pde import PdeTrajectory, neumann_eigenvalue, spatial_average

REGION_SIGMA_2SPECIES = "sigma-region-2species"
REGION_A_3SPECIES = "region-A-3species"
PERIODIC_SCORE = 0.9  # periodicity scores above it are periodic


def _region_box_and_mask(model: CompetitionModel, region):
    """Bounding box and membership test of a named region or an explicit box."""
    a = model.a
    if isinstance(region, str):
        if region == REGION_SIGMA_2SPECIES:
            if model.n != 2:
                raise ValueError(f"{region} requires a two-species model")
            b, c = float(a[0, 1]), float(a[1, 0])
            box = np.array([[0.0, max(1.0, 1.0 / c)], [0.0, max(1.0, 1.0 / b)]])

            def member(pts):
                return ((pts[:, 0] <= 1.0 - b * pts[:, 1] + REGION_TIE_TOL)
                        | (pts[:, 1] <= 1.0 - c * pts[:, 0] + REGION_TIE_TOL))

            return box, member
        if region == REGION_A_3SPECIES:
            if model.n != 3:
                raise ValueError(f"{region} requires a three-species model")
            u_max = float(max(1.0 / a[:, k].min() for k in range(3))) + 1.0
            box = np.array([[0.0, u_max]] * 3)

            def member(pts):
                r = pts @ a.T
                return ((r.min(axis=1) <= 1.0 + REGION_TIE_TOL)
                        & (r.max(axis=1) >= 1.0 - REGION_TIE_TOL))

            return box, member
        raise ValueError(f"unknown region {region!r}")
    box = np.asarray(region, dtype=float)
    if box.shape != (model.n, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box region must be an (n, 2) array of increasing bounds")
    return box, lambda pts: np.ones(pts.shape[0], dtype=bool)


def _region_vertices(model: CompetitionModel, region, box: np.ndarray) -> np.ndarray:
    """Corner candidates of the polytope pieces making up the region.

    Every piece is cut out of the bounding box by the region's own planes,
    so each of its corners is an n-fold intersection of box faces and region
    planes; all such intersections inside the box are returned.  Some lie
    outside the region and are left for the membership test to drop.
    """
    n = model.n
    a = model.a
    planes = [(np.eye(n)[k], float(box[k, 0])) for k in range(n)]
    planes += [(np.eye(n)[k], float(box[k, 1])) for k in range(n)]
    if isinstance(region, str) and region == REGION_SIGMA_2SPECIES:
        b, c = float(a[0, 1]), float(a[1, 0])
        planes += [(np.array([1.0, b]), 1.0), (np.array([c, 1.0]), 1.0)]
    elif isinstance(region, str) and region == REGION_A_3SPECIES:
        planes += [(a[i].astype(float), 1.0) for i in range(3)]
    pts = []
    for combo in itertools.combinations(range(len(planes)), n):
        lhs = np.array([planes[k][0] for k in combo])
        rhs = np.array([planes[k][1] for k in combo])
        try:
            p = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            continue
        p[np.abs(p) < 1e-13] = 0.0
        if np.all(p >= box[:, 0] - 1e-9) and np.all(p <= box[:, 1] + 1e-9):
            pts.append(np.clip(p, box[:, 0], box[:, 1]))
    return np.array(pts) if pts else np.empty((0, n))


def _norm_batch(model: CompetitionModel, pts: np.ndarray, norm: str) -> np.ndarray:
    """Norm of the kinetic Jacobian at each row of ``pts``."""
    if norm not in ("frobenius", "operator"):
        raise ValueError(f"unknown norm {norm!r}")
    a = model.a
    J = -a[None, :, :] * pts[:, :, None]
    idx = np.arange(model.n)
    J[:, idx, idx] += 1.0 - pts @ a.T
    return np.linalg.norm(J, ord="fro" if norm == "frobenius" else 2, axis=(1, 2))


def sup_jacobian_norm(model: CompetitionModel, region, *, norm: str = "frobenius") -> float:
    """Supremum of the kinetic Jacobian norm over an invariant region.

    ``region`` is "sigma-region-2species" (union of the two triangles under
    u = 1 - b v and v = 1 - c u), "region-A-3species" (states with
    min_i (a U)_i <= 1 <= max_i (a U)_i, confined to the box that contains
    it), or an explicit (n, 2) bounds array.  ``norm`` is "frobenius" or
    "operator".

    The value is exact.  The Jacobian is affine in U, so both norms are
    convex in U, and a convex function on a polytope attains its maximum
    at a corner (Rockafellar, Convex Analysis, Cor. 32.3.2).  Each region
    is a finite union of polytopes, so the supremum is the largest norm
    over the corners of its pieces: the plane intersections listed by
    ``_region_vertices`` that pass the region's membership test.
    """
    box, member = _region_box_and_mask(model, region)
    verts = _region_vertices(model, region, box)
    verts = verts[member(verts)]
    return float(_norm_batch(model, verts, norm).max())


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

    The Jacobian norm is maximized over the named invariant region, which
    exists for n = 2 or 3 only; other sizes raise ValueError.  flat_guarantee
    is sigma > 0, and threshold_d = M_sup / lambda1 is the diffusion floor at
    which the guarantee kicks in.  threshold_d_origin is the same floor with the
    norm of J(0) = I in place of M_sup: sqrt(n) / lambda1 for the Frobenius
    norm and 1 / lambda1 for the operator norm.
    """
    lambda1 = neumann_eigenvalue(L, 1)  # raises ValueError unless L is finite and positive
    regions = {2: REGION_SIGMA_2SPECIES, 3: REGION_A_3SPECIES}
    if model.n not in regions:
        raise ValueError(f"no named invariant region for {model.n} species (2 or 3 needed)")
    region = regions[model.n]
    M_sup = sup_jacobian_norm(model, region, norm=norm)
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


def periodicity_score(times: np.ndarray, values: np.ndarray,
                      window: tuple[float, float] | None = None):
    """Autocorrelation periodicity score of a scalar time series.

    Uses the uniformly sampled points inside ``window`` (the whole series
    by default; at least 200 samples).  The Pearson correlation between the
    trace and its lagged copy is scanned over lags up to half the window;
    the score is the height of the first peak after the correlation has
    decayed below 1/2, and the period is that lag.  Per-lag standardization
    keeps slowly drifting amplitudes from masking an otherwise clean cycle.
    All lags cost O(n log n) together: the window means and second moments
    come from cumulative sums, the lagged products from one zero-padded FFT.
    A (near) constant trace scores 0.  Returns (score, period | None).
    """
    from scipy.fft import irfft, next_fast_len, rfft

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, values = times[keep], values[keep]
    if times.size < 200:
        raise ValueError("need at least 200 samples in the window")
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
    size = next_fast_len(2 * n - 1, real=True)
    spectrum = rfft(x, size)
    lagged = irfft(spectrum * spectrum.conj(), size)[: max_lag + 1]
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
    if t_end < 50.0:
        raise ValueError("classification needs a run of at least 50 time units")
    t_lo = 0.75 * t_end
    keep = trajectory.times >= t_lo
    flat = float(trajectory.flatness()[keep].max())

    scores = []
    pkeep = trajectory.probe_times >= t_lo
    if int(pkeep.sum()) >= 200:
        for j in range(trajectory.probe_points.size):
            for s in range(trajectory.probe_values.shape[1]):
                trace = trajectory.probe_values[pkeep, s, j]
                score, _ = periodicity_score(trajectory.probe_times[pkeep], trace)
                scores.append((j, s, score))
    per_probe = None
    if scores:
        by_probe = {}
        for j, s, score in scores:
            by_probe.setdefault(j, []).append(score)
        # a probe is periodic if its non-constant components are; constants score 0
        per_probe = [max(v) if max(v) == 0.0 else min(s for s in v if s > 0.0)
                     for v in by_probe.values()]
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
