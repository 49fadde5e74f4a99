"""One-dimensional reaction-diffusion solver on intervals and radial disks.

Space is discretized with second-order central differences on a uniform
vertex grid including the boundary nodes.  Neumann conditions use mirror
ghost nodes, Dirichlet conditions pin the boundary values to zero, and the
radial center node uses the regularized form m * u''(0).  Time stepping is
Strang splitting: a Crank-Nicolson half step of diffusion, a full classical
RK4 step of the pointwise kinetics, and a second diffusion half step; the
scheme is second order in dt.  The species are stacked into one tridiagonal
Crank-Nicolson system with no coupling between species blocks.  Since
(I - cL)^-1 (I + cL) = 2 (I - cL)^-1 - I, each half step is a single solve
over all species.  A diagonal similarity makes the matrix symmetric positive
definite, so it is factored once per run with LAPACK ``dpttrf`` and solved
with ``dpttrs``; radial domains with m >= 3, where no such similarity exists,
keep the pivoted LU ``dgttrf``/``dgttrs``.  These four routines are imported
from ``scipy.linalg.lapack`` by ``_cn_half_step``, once per run, so importing
this module loads numpy alone.  The RK4 step works on buffers
allocated once per run: each stage's growth factor 1 - a y comes from one
BLAS product of the augmented matrix [-a | 1] with the stage state stacked
on a row of ones, and the four stage rates are combined by one dot.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NEGATIVITY_TOL, InvariantViolation, _require_finite_positive
from .model import CompetitionModel, reaction

DEFAULT_SNAPSHOTS = 200
DEFAULT_PROBE_FRACTIONS = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class Domain1D:
    """Uniform 1-D grid: an interval of length L or a radial disk of radius R.

    ``N`` counts interior nodes; the grid has N + 2 nodes including both
    boundaries with spacing h = length / (N + 1).  Radial domains require a
    space dimension m >= 2 and are rotationally symmetric about r = 0
    (which is a regular point, not a boundary condition).  An omitted ``m``
    is 1 on an interval and 2 on a radial domain (a disk).
    """

    kind: str  # 'interval' | 'radial'
    length: float
    N: int
    bc: str  # 'neumann' | 'dirichlet'
    m: int | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", 2 if self.kind == "radial" else 1)
        if self.kind not in ("interval", "radial"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.bc not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        _require_finite_positive("domain length", self.length)
        if self.N < 8:
            raise ValueError("at least 8 interior nodes are required")
        if self.kind == "radial" and self.m < 2:
            raise ValueError("radial domains require space dimension m >= 2")
        if self.kind == "interval" and self.m != 1:
            raise ValueError("interval domains must have m = 1")

    @property
    def h(self) -> float:
        return self.length / (self.N + 1)

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.N + 2)


def _laplacian_diagonals(domain: Domain1D):
    """(sub, main, super) diagonals of the discrete Laplacian on the full grid.

    Boundary rows encode the boundary handling: mirror-ghost rows for
    Neumann, zero rows for Dirichlet (those values are pinned), and the
    regularized 2m(u1 - u0)/h^2 row at a radial center.
    """
    G = domain.N + 2
    h = domain.h
    sub = np.zeros(G)
    main = np.zeros(G)
    sup = np.zeros(G)
    inv_h2 = 1.0 / (h * h)
    main[1:-1] = -2.0 * inv_h2
    if domain.kind == "interval":
        sub[1:-1] = inv_h2
        sup[1:-1] = inv_h2
        if domain.bc == "neumann":
            main[0] = -2.0 * inv_h2
            sup[0] = 2.0 * inv_h2
            main[-1] = -2.0 * inv_h2
            sub[-1] = 2.0 * inv_h2
    else:
        r = domain.grid()[1:-1]
        drift = (domain.m - 1) / (2.0 * h * r)
        sub[1:-1] = inv_h2 - drift
        sup[1:-1] = inv_h2 + drift
        # regular center: Laplacian(0) = m u''(0) ~= 2m (u1 - u0) / h^2
        main[0] = -2.0 * domain.m * inv_h2
        sup[0] = 2.0 * domain.m * inv_h2
        if domain.bc == "neumann":
            main[-1] = -2.0 * inv_h2
            sub[-1] = 2.0 * inv_h2
    # Dirichlet boundary rows stay zero: boundary values are pinned at 0.
    return sub, main, sup


def neumann_eigenvalue(L: float, k: int) -> float:
    """k-th Neumann Laplacian eigenvalue (k pi / L)^2 on an interval of length L."""
    _require_finite_positive("interval length", L)
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    return float((k * np.pi / L) ** 2)


@dataclass(frozen=True)
class Field:
    """Vector-valued grid function: values[i, j] is species i at grid node j."""

    domain: Domain1D
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        if values.shape[-1] != self.domain.N + 2:
            raise ValueError(f"field needs {self.domain.N + 2} columns, got {values.shape[-1]}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_species(self) -> int:
        return self.values.shape[0]


def _quadrature_weights(domain: Domain1D) -> np.ndarray:
    # trapezoid weights; radial domains carry the r^(m-1) volume factor
    G = domain.N + 2
    w = np.full(G, domain.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    if domain.kind == "radial":
        w = w * domain.grid() ** (domain.m - 1)
    return w


def _average(domain: Domain1D, values: np.ndarray) -> np.ndarray:
    # over the last axis, so one field (n, G) or a stack of them (S, n, G)
    w = _quadrature_weights(domain)
    return values @ w / w.sum()


def _oscillation(values: np.ndarray) -> np.ndarray:
    # max - min over the grid, largest across species; one field or a stack
    return (values.max(axis=-1) - values.min(axis=-1)).max(axis=-1)


def spatial_average(field: Field) -> np.ndarray:
    """Measure-normalized spatial average of each species (exact on constants)."""
    return _average(field.domain, field.values)


def flatness(field: Field) -> float:
    """Largest spatial oscillation max - min over the grid, across species."""
    return float(_oscillation(field.values))


def _grad_sq_sum(domain: Domain1D, values: np.ndarray) -> np.ndarray:
    # over the last two axes, so one field (n, G) or a stack of them (S, n, G)
    h = domain.h
    g = np.diff(values, axis=-1) / h
    w = np.full(g.shape[-1], h)
    if domain.kind == "radial":
        mid = 0.5 * (domain.grid()[1:] + domain.grid()[:-1])
        w = w * mid ** (domain.m - 1)
    # each field is summed as one contiguous row, whatever the stack's shape
    return (g * g * w).reshape(values.shape[:-2] + (-1,)).sum(axis=-1)


def grad_l2_norm(field: Field) -> float:
    """Discrete L2 norm of the spatial gradient over all species.

    Forward differences live on cell midpoints; radial cells carry the
    midpoint volume factor r^(m-1).
    """
    return float(np.sqrt(_grad_sq_sum(field.domain, field.values)))


@dataclass(frozen=True)
class PdeTrajectory:
    """Snapshots plus dense probe traces from one evolve() run."""

    domain: Domain1D
    times: np.ndarray  # snapshot times, shape (S,)
    fields: np.ndarray  # shape (S, n_species, N + 2)
    probe_points: np.ndarray  # shape (K,)
    probe_times: np.ndarray  # shape (P,)
    probe_values: np.ndarray  # shape (P, n_species, K)

    def snapshot(self, index: int) -> Field:
        return Field(self.domain, self.fields[index])

    @property
    def final(self) -> Field:
        return Field(self.domain, self.fields[-1])

    def spatial_averages(self) -> np.ndarray:
        """spatial_average of every snapshot, shape (S, n_species)."""
        return _average(self.domain, self.fields)

    def flatness(self) -> np.ndarray:
        """flatness of every snapshot, shape (S,)."""
        return _oscillation(self.fields)

    def grad_l2_norms(self) -> np.ndarray:
        """grad_l2_norm of every snapshot, shape (S,)."""
        return np.sqrt(_grad_sq_sum(self.domain, self.fields))


def default_dt(domain: Domain1D, model: CompetitionModel) -> float:
    h = domain.h
    return min(1e-2, h * h / (2.0 * float(model.d.max())) * 10.0)


def _cn_half_step(domain: Domain1D, d: np.ndarray, dt: float):
    """The Crank-Nicolson half step u -> (I - cL)^-1 (I + cL) u, c = d dt / 4.

    All species are stacked into one tridiagonal matrix I - cL of size
    n (N + 2) with no coupling between species blocks, factored here once.
    The returned function maps an (n, N + 2) array to the next half step by
    one solve, 2 (I - cL)^-1 u - u.  Couplings into a pinned Dirichlet node
    (an identity row, whose value is 0) are dropped, which is exact.  If then
    every remaining product lower_i upper_i is positive, the diagonal D with
    (D_i+1 / D_i)^2 = lower_i / upper_i makes S = D^-1 (I - cL) D symmetric,
    with off-diagonals -sqrt(lower_i upper_i).  S is positive definite since
    L is self-adjoint in the quadrature-weighted inner product with spectrum
    <= 0, so S is factored by ``dpttrf`` and (I - cL)^-1 u = D S^-1 D^-1 u.
    The radial centre row has a zero (m = 3) or negative (m >= 4) product;
    those domains use the pivoted LU ``dgttrf``/``dgttrs``.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

    sub, main, sup = _laplacian_diagonals(domain)
    c = (np.asarray(d, dtype=float) * (dt / 4.0))[:, None]
    G = domain.N + 2
    shape = (c.shape[0], G)
    diag = (1.0 - c * main).ravel()
    lower = -(c * sub).ravel()[1:]  # lower[i] couples row i + 1 to column i
    upper = -(c * sup).ravel()[:-1]  # upper[i] couples row i to column i + 1
    lower[G - 1::G] = 0.0  # no coupling between species blocks
    upper[G - 1::G] = 0.0
    pinned = np.flatnonzero(np.tile((sub == 0.0) & (main == 0.0) & (sup == 0.0), shape[0]))
    lower[pinned[pinned < lower.size]] = 0.0
    upper[pinned[pinned > 0] - 1] = 0.0

    product = lower * upper
    if np.all((product > 0.0) | ((lower == 0.0) & (upper == 0.0))):
        ratio = np.divide(lower, upper, out=np.ones_like(lower), where=product > 0.0)
        scale = np.cumprod(np.concatenate(([1.0], np.sqrt(ratio)))).reshape(shape)
        inv_scale, two_scale = 1.0 / scale, 2.0 * scale
        factor_d, factor_e, info = dpttrf(diag, -np.sqrt(product))
        if info != 0:
            raise InvariantViolation(
                f"Crank-Nicolson matrix is not positive definite (dpttrf info = {info})")

        def half_step(values):
            out = values * inv_scale
            dpttrs(factor_d, factor_e, out.reshape(-1), overwrite_b=1)  # solves in place
            out *= two_scale
            out -= values
            return out

        return half_step

    *factors, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise InvariantViolation(f"Crank-Nicolson matrix is singular (dgttrf info = {info})")

    def half_step(values):
        solved, _ = dgttrs(*factors, values.ravel())
        return 2.0 * solved.reshape(shape) - values

    return half_step


def _rk4_reaction_step(a: np.ndarray, dt: float, shape):
    """The classical RK4 step of the pointwise kinetics u' = u (1 - a u), in place.

    Its buffers are allocated here, once per evolve call.  Each stage state
    y sits in the first n rows of Y, whose last row is all ones, so one
    BLAS call A Y with A = [-a | 1] gives the growth factor 1 - a y, and the
    stage rate y (1 - a y) goes into one row of a (4, n, G) array.  The
    returned function adds the rates to its (n, G) argument in one dot with
    dt (1, 2, 2, 1) / 6.  The argument must be a fresh array: it is updated
    in place.
    """
    n = shape[0]
    A = np.hstack((-a, np.ones((n, 1))))
    Y = np.ones((n + 1, shape[1]))
    y = Y[:n]
    growth = np.empty(shape)
    rates = np.empty((4,) + shape)
    stage_rates = list(rates)
    flat_rates = rates.reshape(4, -1)
    weights = dt * np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    increment = np.empty(flat_rates.shape[1])
    stage_steps = (0.5 * dt, 0.5 * dt, dt)

    def step(U):
        np.copyto(y, U)
        for k, c in zip(stage_rates, stage_steps):
            np.dot(A, Y, out=growth)
            np.multiply(y, growth, out=k)
            np.multiply(k, c, out=y)  # the next stage state U + c k
            np.add(y, U, out=y)
        np.dot(A, Y, out=growth)
        np.multiply(y, growth, out=stage_rates[3])
        np.dot(weights, flat_rates, out=increment)
        U += increment.reshape(shape)

    return step


def evolve(model: CompetitionModel, domain: Domain1D, phi: Field, t_end: float,
           dt: float | None = None, *, snapshots: int = DEFAULT_SNAPSHOTS,
           probes=None, include_reaction: bool = True,
           probe_stride: int = 1) -> PdeTrajectory:
    """Evolve the reaction-diffusion system from the initial field phi.

    Strang splitting per step: Crank-Nicolson diffusion half steps around a
    full RK4 kinetics step (pointwise, species-coupled).  The Crank-Nicolson
    matrix of all species is factored once per call (symmetric positive
    definite ``dpttrf``, or pivoted LU on radial domains with m >= 3), so
    each half step is one LAPACK tridiagonal solve over every species at
    once.  The RK4 step runs in place on buffers allocated once per call:
    per stage, one product [-a | 1] [y; 1] gives 1 - a y and one multiply
    the stage rate; the four rates are combined by one dot with
    dt (1, 2, 2, 1) / 6.  ``dt``
    defaults to min(1e-2, h^2 / (2 max d) * 10); it is rounded so t_end is
    an integer number of steps.  About ``snapshots`` full-field snapshots
    are kept; probe traces at ``probes`` (fractions 0.1/0.5/0.9 of the
    length by default) are recorded every ``probe_stride`` steps and at
    t_end; the bracketing node values are stored during the run and
    interpolated once at the end.

    ``t_end`` and ``dt`` must be finite and positive, ``snapshots`` and
    ``probe_stride`` at least 1, the probes inside the domain and phi finite
    and nonnegative; otherwise ValueError is raised.  Negative
    excursions beyond -NEGATIVITY_TOL raise InvariantViolation; there is no
    clamping during time stepping.
    """
    if phi.domain != domain:
        raise ValueError("initial field was built on a different domain")
    if phi.n_species != model.n:
        raise ValueError(f"initial field has {phi.n_species} species, model has {model.n}")
    _require_finite_positive("t_end", t_end)
    if dt is None:
        dt = default_dt(domain, model)
    _require_finite_positive("dt", dt)
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end} / {dt} is too many steps")
    if snapshots < 1:
        raise ValueError(f"snapshots must be at least 1, got {snapshots}")
    if probe_stride < 1:
        raise ValueError(f"probe_stride must be at least 1, got {probe_stride}")
    U = np.array(phi.values, dtype=float)
    if not (np.isfinite(U).all() and U.min() >= 0.0):
        raise ValueError("initial field must be finite and nonnegative")
    x = domain.grid()
    h = domain.h

    if domain.bc == "dirichlet":
        if np.max(np.abs(U[:, [0, -1]])) > 1e-12:
            warnings.warn("Dirichlet initial field was nonzero on the boundary; pinned to 0")
        U[:, 0] = 0.0
        U[:, -1] = 0.0
    else:
        lo = np.abs(-1.5 * U[:, 0] + 2.0 * U[:, 1] - 0.5 * U[:, 2]) / h
        hi = np.abs(1.5 * U[:, -1] - 2.0 * U[:, -2] + 0.5 * U[:, -3]) / h
        scale = max(1.0, float(np.abs(U).max()))
        # the one-sided stencil itself carries O(h^2 f''') truncation error,
        # so smooth zero-slope data must not trip the check
        if max(lo.max(), hi.max()) > max(1e-6, 100.0 * h * h) * scale:
            warnings.warn("initial field has nonzero boundary slope; Neumann compatibility "
                          "is violated at t = 0 (solution adjusts immediately)")

    nsteps = max(1, round(t_end / dt))
    dt = t_end / nsteps

    half_diffusion = _cn_half_step(domain, model.d, dt)

    if probes is None:
        probes = domain.length * np.asarray(DEFAULT_PROBE_FRACTIONS)
    probes = np.asarray(probes, dtype=float)
    if not np.all((probes >= 0.0) & (probes <= domain.length)):
        raise ValueError("probe points must lie inside the domain")
    idx = np.minimum(np.searchsorted(x, probes, side="right") - 1, x.size - 2)
    frac = (probes - x[idx]) / h
    K = idx.size
    columns = np.concatenate((idx, idx + 1))

    # the steps whose state is recorded: 0, every stride, and the last
    snap_every = max(1, nsteps // snapshots)
    probe_steps = np.unique(np.append(np.arange(0, nsteps + 1, probe_stride), nsteps))
    snap_steps = np.unique(np.append(np.arange(0, nsteps + 1, snap_every), nsteps))
    brackets = np.empty((probe_steps.size, model.n, 2 * K))
    snaps = np.empty((snap_steps.size,) + U.shape)
    np.take(U, columns, axis=1, out=brackets[0], mode="clip")
    snaps[0] = U
    probe_row = snap_row = 1

    reaction_step = _rk4_reaction_step(model.a, dt, U.shape)
    for step in range(1, nsteps + 1):
        U = half_diffusion(U)
        if include_reaction:
            reaction_step(U)
        U = half_diffusion(U)
        low = U.min()
        if not low >= -NEGATIVITY_TOL:  # also true for NaN, which the solves pass through
            raise InvariantViolation(
                f"field dipped to {low:.3e} at t = {step * dt:.6g}, below -{NEGATIVITY_TOL:g}")
        if step % probe_stride == 0 or step == nsteps:
            np.take(U, columns, axis=1, out=brackets[probe_row], mode="clip")
            probe_row += 1
        if step % snap_every == 0 or step == nsteps:
            snaps[snap_row] = U
            snap_row += 1

    probe_values = brackets[..., :K] * (1.0 - frac) + brackets[..., K:] * frac
    return PdeTrajectory(domain, snap_steps * dt, snaps, probes, probe_steps * dt, probe_values)
