"""One-dimensional reaction-diffusion solver on intervals and radial disks.

Space is discretized with second-order differences on a uniform vertex
grid including the boundary nodes.  The grid has one cell geometry,
``_cells``: a volume for each node's cell and an area for each face
between neighbours (the trapezoid on an interval, exact shell volumes and
r^(m-1) faces on a radial grid).  Every Laplacian row is the flux through
its cell's faces over its volume, so Neumann conditions become mirror
ghost nodes, the radial center the regularized form m * u''(0), and every
coupling between neighbours is positive; Dirichlet conditions pin the
boundary values to zero.  The same volumes weight every spatial average,
which is therefore the quantity the scheme conserves, and the same areas
weight gradient norms.

Time stepping is Strang splitting: a Crank-Nicolson half step of
diffusion, a full classical RK4 step of the pointwise kinetics, and a
second diffusion half step; the scheme is second order in dt.  Between two
recorded states, the closing half step of one step and the opening half
step of the next are one Crank-Nicolson step of dt, once a run of split
steps at the start has damped the stiff diffusion modes that one such step
barely damps.  The species are stacked into one tridiagonal Crank-Nicolson
system with no coupling between species blocks.  Since
(I - cL)^-1 (I + cL) = 2 (I - cL)^-1 - I, each half or whole step is a
single solve over all species.  Weighting its rows by the cell volumes
makes both halved matrices symmetric positive definite on every domain, so
each is factored once per run with LAPACK ``dpttrf``; a solve is then a
weighting, one ``dpttrs`` and one subtraction.  A radial grid whose cell
volumes leave the floating-point range raises ValueError in ``_cells``,
the grid's one range guard.  Both routines are imported from
``scipy.linalg.lapack`` by ``_cn_steps``, once per run, so importing this
module loads numpy alone.  The RK4 step works on buffers allocated once
per run, with the stage sizes folded into the stage products: each stage's
scaled rate c y (1 - a y) comes from one BLAS product of c [-a | 1] with
the stage state stacked on a row of ones and one multiply, the next stage
state is one add, and the four scaled rates are combined by one dot.
"""

import math
import sys
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


def _cells(domain: Domain1D):
    """The grid's one cell geometry: (volumes, areas, root_rim).

    ``areas[k]`` is r^(m-1) at the face r_k+1/2 between nodes k and k + 1,
    and ``volumes[i]`` the measure over h of node i's cell between its
    faces, both relative to the rim face r_N+1/2, whose physical r^(m-1) is
    ``root_rim`` squared.  ``root_rim`` is taken directly as the power
    (m - 1) / 2, so it stays finite wherever a gradient norm, about
    r^((m-1)/2), does, even where r^(m-1) overflows.  An interval has unit
    areas and the trapezoid volumes [1/2, 1, ..., 1, 1/2].  Radial volumes
    are exact, the centre's a half cell, and the rim's areas[N] / 2, as the
    mirror-ghost Neumann row implies.  Powers are of ratios to the rim, so
    none leaves the float range; where the volumes' span, about
    2m (2N + 1)^(m-1), does (m = 150 at N = 64), ValueError is raised
    before m is converted to a float.
    """
    N, m = domain.N, domain.m
    if domain.kind == "interval":
        volumes = np.ones(N + 2)
        volumes[[0, -1]] = 0.5
        return volumes, np.ones(N + 1), 1.0
    # the centre's volume 1 / (2m (2N + 1)^(m-1)) stays above 2^-1025, losing
    # at most 3 bits to subnormals, while log2 m + (m - 1) log2(2N + 1) < 1024,
    # which compares m as an int
    if m - 1 >= (1024.0 - math.log2(m)) / math.log2(2 * N + 1):
        raise ValueError(f"the cell geometry of a radial grid with m = {m} and N = {N} "
                         "leaves the floating-point range")
    face = np.arange(N + 1) + 0.5  # r_k+1/2 / h
    areas = (face / face[-1]) ** (m - 1)
    volumes = np.empty(N + 2)
    volumes[0] = areas[0] * 0.5 / m
    # V_i / r_i+1/2^(m-1) is the mean of q^k over k < m, q = r_i-1/2 / r_i+1/2:
    # expm1 of m ln q takes (1 - q^m) / (m (1 - q)) with no cancelling subtraction
    volumes[1:-1] = areas[1:] * (-np.expm1(m * np.log1p(-1.0 / face[1:])) * face[1:] / m)
    volumes[-1] = 0.5 * areas[-1]
    with np.errstate(over="ignore"):
        root_rim = (domain.h * face[-1]) ** ((m - 1) / 2)
    return volumes, areas, root_rim


def _laplacian_diagonals(domain: Domain1D, cells=None):
    """(sub, main, super) diagonals of the discrete Laplacian on the full grid.

    One flux form over ``_cells`` for every domain: sub_i = A_i-1/2 / (h^2 V_i),
    sup_i = A_i+1/2 / (h^2 V_i) and main_i = -(sub_i + sup_i).  That gives
    the mirror-ghost Neumann rows, the regularized radial centre row
    2m (u1 - u0) / h^2, and interior rows second order with positive
    couplings, self-adjoint in the volume-weighted product.  Dirichlet
    boundary rows are zero: those values are pinned.  A spacing h whose
    1 / h^2 leaves the float range raises ValueError.
    """
    volumes, areas, _ = _cells(domain) if cells is None else cells
    h2 = domain.h * domain.h
    if not h2 * sys.float_info.max >= 1.0:  # 1 / h^2 would overflow, or h^2 is 0
        raise ValueError(f"the grid spacing h = {domain.h:g} is too small: "
                         "1 / h^2 leaves the float range")
    inv_h2 = 1.0 / h2
    faces = np.concatenate(([0.0], areas, [0.0]))  # no flux beyond the ends
    sub = inv_h2 * (faces[:-1] / volumes)
    sup = inv_h2 * (faces[1:] / volumes)
    main = -(sub + sup)
    if domain.bc == "dirichlet":
        pinned = [-1] if domain.kind == "radial" else [0, -1]
        sub[pinned] = main[pinned] = sup[pinned] = 0.0
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


def _average(domain: Domain1D, values: np.ndarray) -> np.ndarray:
    # over the last axis, so one field (n, G) or a stack of them (S, n, G)
    w = _cells(domain)[0] * domain.h
    return values @ w / w.sum()


def _oscillation(values: np.ndarray) -> np.ndarray:
    # max - min over the grid, largest across species; one field or a stack
    return (values.max(axis=-1) - values.min(axis=-1)).max(axis=-1)


def spatial_average(field: Field) -> np.ndarray:
    """Average of each species weighted by the ``_cells`` volumes (exact on constants).

    On a Neumann domain it is the quantity pure diffusion conserves.
    """
    return _average(field.domain, field.values)


def flatness(field: Field) -> float:
    """Largest spatial oscillation max - min over the grid, across species."""
    return float(_oscillation(field.values))


def _grad_norm(domain: Domain1D, values: np.ndarray) -> np.ndarray:
    # over the last two axes, so one field (n, G) or a stack of them (S, n, G)
    _, areas, root_rim = _cells(domain)
    g = np.diff(values, axis=-1) / domain.h
    w = areas * domain.h
    # each field is summed as one contiguous row, whatever the stack's shape;
    # the rim factor is applied outside the sum, as its square root
    return np.sqrt((g * g * w).reshape(values.shape[:-2] + (-1,)).sum(axis=-1)) * root_rim


def grad_l2_norm(field: Field) -> float:
    """Discrete L2 norm of the spatial gradient over all species.

    Forward differences live on the faces, weighted by h times the
    ``_cells`` face area (r^(m-1) on a radial grid).
    """
    return float(_grad_norm(field.domain, field.values))


@dataclass(frozen=True)
class PdeTrajectory:
    """Snapshots plus dense probe traces from one evolve() run."""

    domain: Domain1D
    times: np.ndarray  # snapshot times, shape (S,)
    fields: np.ndarray  # shape (S, n_species, N + 2)
    probe_points: np.ndarray  # shape (K,)
    probe_times: np.ndarray  # shape (P,)
    probe_values: np.ndarray  # shape (P, n_species, K)
    steps: int  # time steps taken
    dt: float  # the step actually used, t_end / steps
    min_value: float  # smallest value of the initial state and of each step's last computed one
    diffusion_solves: int  # tridiagonal solves: two per split step, one per merged step

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
        return _grad_norm(self.domain, self.fields)


def default_dt(domain: Domain1D, model: CompetitionModel) -> float:
    h = domain.h
    return min(1e-2, h * h / (2.0 * float(model.d.max())) * 10.0)


# Steps merge once the split steps have damped the stiffest diffusion mode to
# this fraction of its t = 0 amplitude.  For rough data, such as the O(0.1)
# jump a pinned node makes, that leaves stiff modes of about 1e-9, below
# the scheme's own error at that time: on a radial Dirichlet disk (N = 2048,
# dt = 1e-3) the merged and split runs agree with a dt = 1e-4 run to two
# digits from t = 0.01 through t = 1.
STIFF_DAMPING = 1e-8


def _cn_steps(domain: Domain1D, d: np.ndarray, dt: float):
    """The Crank-Nicolson solves of a step dt and the split start: (half, whole, split).

    The half step is u -> (I - cL)^-1 (I + cL) u with c = d dt / 4, the whole
    step the same map with c = d dt / 2; each matrix is factored here once.
    All species are stacked into one tridiagonal matrix T = I - cL of size
    n (N + 2) with no coupling between species blocks.  Since
    (I - cL)^-1 (I + cL) u = 2 T^-1 u - u, each returned function maps an
    (n, N + 2) array to the next state by one solve.  Couplings into a pinned
    Dirichlet node (an identity row, whose value is 0) are dropped, which is
    exact.  L is in flux form over the cell volumes V of ``_cells``, so
    V_i sup_i = V_i+1 sub_i+1 is the area of the face between them over h^2:
    diag(V) T is symmetric, and positive definite, since L is self-adjoint
    in the V-weighted inner product with spectrum <= 0.  So M = diag(V) T / 2
    is factored by ``dpttrf`` and 2 T^-1 u = M^-1 (V u); the one row V, at
    most 1, serves every species block and both matrices.  A step so large
    that M overflows raises ValueError, and so does one whose c max|main|
    passes 2^53: the identity part of the diagonal then falls below its
    rounding, and a Neumann matrix is numerically singular.

    ``split`` is how many steps evolve keeps split before it merges half
    steps.  Two CN half steps multiply a mode of z = dt d |lambda| by r^2,
    with r = (1 - z/4) / (1 + z/4); one CN(dt) step multiplies it by
    (1 - z/2) / (1 + z/2), which tends to -1 as z grows, so a merged step
    barely damps the stiff modes that rough t = 0 data carries.  The run
    stays split until r^2 to the power of the step count falls to
    STIFF_DAMPING on the stiffest mode, whose z is bounded by Gershgorin:
    z = dt max(d) max_i (|sub_i| + |main_i| + |sup_i|).
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    cells = _cells(domain)  # one evaluation weights both the Laplacian and its rows
    sub, main, sup = _laplacian_diagonals(domain, cells)
    volumes = cells[0]
    d = np.asarray(d, dtype=float)
    shape = (d.size, domain.N + 2)

    def flat(band):  # one species block's band after another, zero between blocks
        return np.hstack((band, np.zeros((shape[0], 1)))).ravel()[:-1]

    def solver(c):  # the solve for the column of step sizes c, of M = diag(V) T / 2
        with np.errstate(over="ignore"):  # an overflowed diagonal is checked below
            diag = (volumes * (0.5 - 0.5 * c * main)).ravel()
        if not np.all(np.isfinite(diag)):  # then |sup| <= |main| keeps upper finite too
            raise ValueError(f"the Crank-Nicolson matrix of step {dt} leaves the float range")
        if 0.5 * np.max(c) * np.max(np.abs(main)) > 2.0**52:  # halved as in diag: no overflow
            raise ValueError(f"the Crank-Nicolson matrix of step {dt} (max d {np.max(d):g}, "
                             f"h {domain.h:g}) loses its identity part to rounding")
        upper = volumes[:-1] * (-0.5 * c * sup[:-1])  # upper[:, j] couples node j to node j + 1
        upper[:, sub[1:] == 0.0] = 0.0  # node j + 1 is pinned
        factor_d, factor_e, info = dpttrf(diag, flat(upper))
        if info != 0:
            raise InvariantViolation(
                f"Crank-Nicolson matrix is not positive definite (dpttrf info = {info})")

        def step(values):
            out = values * volumes
            dpttrs(factor_d, factor_e, out.reshape(-1), overwrite_b=1)  # solves in place
            out -= values
            return out

        return step

    c = (d * (dt / 4.0))[:, None]
    z = dt * float(np.max(d)) * float(np.max(np.abs(sub) + np.abs(main) + np.abs(sup)))
    r2 = ((1.0 - z / 4.0) / (1.0 + z / 4.0)) ** 2
    if r2 == 0.0:  # z = 4: the half step annihilates the stiffest mode
        split = 0
    elif not r2 < 1.0:  # z below rounding, or overflowed: the mode is never damped
        split = sys.maxsize
    else:
        split = math.ceil(math.log(STIFF_DAMPING) / math.log(r2))
    return solver(c), solver(2.0 * c), split


def _rk4_reaction_step(a: np.ndarray, dt: float, shape):
    """The classical RK4 step of the pointwise kinetics u' = u (1 - a u), in place.

    Its buffers are allocated here, once per evolve call.  Each stage state
    y sits in the first n rows of Y, whose last row is all ones.  The stage
    sizes c = dt/2, dt/2, dt, dt/6 are folded into the stage products: one
    BLAS call A_s Y with A_s = c [-a | 1] gives c (1 - a y), so one multiply
    puts the scaled rate c k = c y (1 - a y) into one row of a (4, n, G)
    array, and the next stage state U + c k is one add.  The returned
    function adds the rates to its (n, G) argument in one dot with the
    weights (1/3, 2/3, 1/3, 1), which make dt (k1 + 2 k2 + 2 k3 + k4) / 6 of
    the scaled rates.  The argument must be a fresh array: it is updated in
    place.
    """
    n = shape[0]
    augmented = np.hstack((-a, np.ones((n, 1))))
    stage_matrices = [c * augmented for c in (0.5 * dt, 0.5 * dt, dt, dt / 6.0)]
    Y = np.ones((n + 1, shape[1]))
    y = Y[:n]
    growth = np.empty(shape)
    rates = np.empty((4,) + shape)
    flat_rates = rates.reshape(4, -1)
    weights = np.array([1.0, 2.0, 1.0, 3.0]) / 3.0
    increment = np.empty(flat_rates.shape[1])
    *stages, (last_A, last_k) = zip(stage_matrices, rates)

    def step(U):
        np.copyto(y, U)
        for A, k in stages:
            np.dot(A, Y, out=growth)
            np.multiply(y, growth, out=k)
            np.add(U, k, out=y)  # the next stage state U + c k
        np.dot(last_A, Y, out=growth)
        np.multiply(y, growth, out=last_k)
        np.dot(weights, flat_rates, out=increment)
        U += increment.reshape(shape)

    return step


def evolve(model: CompetitionModel, domain: Domain1D, phi: Field, t_end: float,
           dt: float | None = None, *, snapshots: int = DEFAULT_SNAPSHOTS,
           probes=None, include_reaction: bool = True,
           probe_stride: int = 1) -> PdeTrajectory:
    """Evolve the reaction-diffusion system from the initial field phi.

    Strang splitting per step: Crank-Nicolson diffusion half steps around a
    full RK4 kinetics step (pointwise, species-coupled).  A step whose state
    is not recorded (no probe sample, no snapshot, not the last step) leaves
    its closing half step to the next step, which does both in one
    Crank-Nicolson solve of dt, except in the split start that ``_cn_steps``
    counts, whose steps damp the stiffest diffusion mode to STIFF_DAMPING of
    its t = 0 amplitude (78 steps for the reference model on an N = 2048
    disk at dt = 1e-3).  The half-step and whole-step matrices are factored
    once per call (symmetric positive definite ``dpttrf`` after weighting rows
    by the cell volumes, on every domain), so each diffusion solve is one
    LAPACK tridiagonal solve over every species at once between two
    elementwise passes.  The RK4 step runs in place on buffers allocated
    once per call, with the stage sizes folded into the stage products: per
    stage, one product c [-a | 1] [y; 1] and one multiply give the scaled
    rate, and one add the next stage state.
    ``dt`` defaults to min(1e-2, h^2 / (2 max d) * 10); it is rounded so
    t_end is an integer number of steps.  About ``snapshots`` full-field
    snapshots are kept; probe traces at ``probes`` (fractions 0.1/0.5/0.9 of
    the length by default) are recorded every ``probe_stride`` steps and at
    t_end; the bracketing node values are stored during the run and
    interpolated once at the end.  The trajectory also records the number
    of steps, the dt used, the number of tridiagonal solves and
    ``min_value``, the smallest value of the initial state and of each
    step's last computed state: the end of a split step, and the state
    after the kinetics of a step that merged its closing half step.

    ``t_end`` and ``dt`` must be finite and positive, ``snapshots`` and
    ``probe_stride`` at least 1, the probes inside the domain and phi finite
    and nonnegative; otherwise ValueError is raised, as it is where the cell
    volumes (m = 150 at N = 64) or the CN matrices leave the float range.
    Negative excursions beyond -NEGATIVITY_TOL in those same states raise
    InvariantViolation; there is no clamping during time stepping.
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
        U[:, [0, -1]] = 0.0
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

    half_diffusion, diffusion, split_steps = _cn_steps(domain, model.d, dt)

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
    U.take(columns, 1, brackets[0], "clip")
    snaps[0] = U
    probe_row = snap_row = 1
    min_value = np.minimum.reduce(U, axis=None)

    reaction_step = _rk4_reaction_step(model.a, dt, U.shape)
    merges = 0
    deferred = False  # the previous step's closing half step is still to do
    for step in range(1, nsteps + 1):
        U = diffusion(U) if deferred else half_diffusion(U)
        if include_reaction:
            reaction_step(U)
        probed = step % probe_stride == 0 or step == nsteps
        snapped = step % snap_every == 0 or step == nsteps
        # past the split start, an unrecorded step leaves its closing half
        # step to the next step, whose opening one joins it in one CN(dt) solve
        deferred = step > split_steps and not (probed or snapped)
        if deferred:
            merges += 1
        else:
            U = half_diffusion(U)
        low = np.minimum.reduce(U, axis=None)
        if not low >= -NEGATIVITY_TOL:  # also true for NaN, which the solves pass through
            raise InvariantViolation(
                f"field dipped to {low:.3e} at t = {step * dt:.6g}, below -{NEGATIVITY_TOL:g}")
        if low < min_value:
            min_value = low
        if probed:
            U.take(columns, 1, brackets[probe_row], "clip")
            probe_row += 1
        if snapped:
            snaps[snap_row] = U
            snap_row += 1

    probe_values = brackets[..., :K] * (1.0 - frac) + brackets[..., K:] * frac
    return PdeTrajectory(domain, snap_steps * dt, snaps, probes, probe_steps * dt, probe_values,
                         nsteps, dt, float(min_value), 2 * nsteps - merges)
