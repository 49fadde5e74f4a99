"""Competitive interaction models and their equilibrium algebra.

The state is a vector ``U`` of ``n`` nonnegative species densities with
kinetics ``f_i(U) = U_i * (1 - sum_j a[i, j] * U_j)``.  All interaction
coefficients ``a[i, j]`` are strictly positive (full competition, growth
rates normalized to 1) and every species carries a positive diffusion
coefficient ``d[i]`` used by the PDE solver.

Besides the vector field and its Jacobian, this module enumerates all
equilibria supported on subsets of species, classifies their linear type,
and, for three species, evaluates the determinant/cone conditions that
decide between a stable interior state and a periodic attractor.
"""

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    OMIT,
    REQUIRED,
    ConfigError,
    DegenerateModelError,
    _integer,
    _load_config,
    _number_rows,
    _numbers,
    _parse,
)

EQUILIBRIUM_RESIDUAL_TOL = 1e-10
HYPERBOLICITY_TOL = 1e-8
REGION_TIE_TOL = 1e-12
MAX_ENUMERATION_SPECIES = 8

_SPECIES_LETTERS = "uvw"


@dataclass(frozen=True)
class CompetitionModel:
    """Interaction matrix ``a`` (n x n, positive) and diffusion vector ``d`` (positive)."""

    a: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        try:
            a = np.array(self.a, dtype=float)
        except ValueError as exc:  # a ragged matrix
            raise ValueError("interaction matrix must be square and nonempty") from exc
        d = np.array(self.d, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("interaction matrix must be square and nonempty")
        if d.shape != (a.shape[0],):
            raise ValueError("diffusion vector length must match the matrix size")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(d)):
            raise ValueError("model coefficients must be finite")
        if np.any(a <= 0.0):
            raise ValueError("all interaction coefficients must be strictly positive")
        if np.any(d <= 0.0):
            raise ValueError("all diffusion coefficients must be strictly positive")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def reaction(model: CompetitionModel, U: np.ndarray) -> np.ndarray:
    """Kinetic vector field f_i(U) = U_i (1 - (a U)_i).

    ``U`` may be a single state of shape (n,) or a batch of shape (n, m);
    the result has the same shape.
    """
    U = np.asarray(U, dtype=float)
    return U * (1.0 - model.a @ U)


def jacobian(model: CompetitionModel, U: np.ndarray) -> np.ndarray:
    """Jacobian of the kinetics at a single state U (shape (n, n))."""
    U = np.asarray(U, dtype=float)
    J = -model.a * U[:, None]
    J[np.diag_indices_from(J)] += 1.0 - model.a @ U
    return J


# --- equilibria ---------------------------------------------------------


@dataclass(frozen=True)
class SupportSolution:
    """Outcome of solving one support's linear system a[S, S] x = 1."""

    support: tuple[int, ...]
    status: str  # 'equilibrium' | 'not-positive' | 'degenerate'
    point: np.ndarray | None


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    support: tuple[int, ...]
    label: str
    eigenvalues: np.ndarray
    stability: str  # 'source' | 'sink' | 'saddle' | 'non-hyperbolic'


def support_label(support: tuple[int, ...], n: int) -> str:
    """Canonical equilibrium name: P_0, P_1 (full support), P_u/P_v/P_w parts for n <= 3."""
    if len(support) == 0:
        return "P_0"
    if len(support) == n:
        return "P_1"
    if n <= 3:
        return "P_" + "".join(_SPECIES_LETTERS[i] for i in support)
    return "P_{" + ",".join(str(i + 1) for i in support) + "}"


def support_solutions(model: CompetitionModel) -> list[SupportSolution]:
    """Solve every one of the 2^n support systems, reporting degenerate ones explicitly."""
    n = model.n
    if n > MAX_ENUMERATION_SPECIES:
        raise ValueError(f"support enumeration limited to n <= {MAX_ENUMERATION_SPECIES}")
    out = []
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            if size == 0:
                out.append(SupportSolution((), "equilibrium", np.zeros(n)))
                continue
            sub = model.a[np.ix_(support, support)]
            ones = np.ones(size)
            try:
                x = np.linalg.solve(sub, ones)
                x = x + np.linalg.solve(sub, ones - sub @ x)  # one refinement step
            except np.linalg.LinAlgError:
                out.append(SupportSolution(support, "degenerate", None))
                continue
            if np.max(np.abs(sub @ x - ones)) > 1e-8:
                out.append(SupportSolution(support, "degenerate", None))
                continue
            point = np.zeros(n)
            point[list(support)] = x
            if np.all(x > 0.0):
                out.append(SupportSolution(support, "equilibrium", point))
            else:
                out.append(SupportSolution(support, "not-positive", point))
    return out


def classify(model: CompetitionModel, point: np.ndarray) -> tuple[np.ndarray, str]:
    """Eigenvalues and linear type of an equilibrium.

    Requires ``||f(point)||_inf <= 1e-8``.  Eigenvalues are sorted by
    (real, imag); the type is non-hyperbolic as soon as any eigenvalue has
    |Re| below 1e-8.
    """
    point = np.asarray(point, dtype=float)
    if np.max(np.abs(reaction(model, point))) > 1e-8:
        raise ValueError("point is not an equilibrium (residual above 1e-8)")
    eig = np.linalg.eigvals(jacobian(model, point))
    eig = eig[np.lexsort((eig.imag, eig.real))]
    re = eig.real
    if np.any(np.abs(re) < HYPERBOLICITY_TOL):
        kind = "non-hyperbolic"
    elif np.all(re > 0.0):
        kind = "source"
    elif np.all(re < 0.0):
        kind = "sink"
    else:
        kind = "saddle"
    return eig, kind


def equilibria(model: CompetitionModel) -> list[Equilibrium]:
    """All nonnegative equilibria, one per admissible support, with labels and types."""
    out = []
    for sol in support_solutions(model):
        if sol.status != "equilibrium":
            continue
        residual = np.max(np.abs(reaction(model, sol.point)))
        if residual > EQUILIBRIUM_RESIDUAL_TOL:
            raise DegenerateModelError(
                f"support {sol.support} solved with residual {residual:.3e} above "
                f"{EQUILIBRIUM_RESIDUAL_TOL:g}; matrix too ill-conditioned"
            )
        eig, kind = classify(model, sol.point)
        pt = sol.point.copy()
        pt.setflags(write=False)
        out.append(Equilibrium(pt, sol.support, support_label(sol.support, model.n), eig, kind))
    return out


# --- three-species cone conditions --------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Determinants, interior point, trace surplus p and case assignment for n = 3."""

    W: float
    W_u: float
    W_v: float
    W_w: float
    p: float
    ineq9_holds: bool
    case: str
    interior_point: np.ndarray | None


def _det3(m) -> float:
    # explicit cofactor expansion along the first row
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _replace_column(a: np.ndarray, j: int, col) -> np.ndarray:
    out = a.copy()
    out[:, j] = col
    return out


def condition_report(model: CompetitionModel) -> ConditionReport:
    """Cone/determinant analysis of the interior equilibrium for three species.

    Computes W = det(a) and the three determinants with one column replaced
    by ones, the interior point (W_u, W_v, W_w)/W, the surplus
    p = sum_i a[i, i] * P1_i - 1, and the column-dominance inequality
    min over the off-diagonal column entries < diagonal entry, per column.

    Case assignment: with all four determinants positive the interior point
    lies in the open positive cone; then p < 0 together with the column
    inequality yields "periodic-attractor-candidate", p > 0 yields
    "P1-stable", |p| < 1e-10 yields "p-zero-degenerate", and p < 0 without
    the column inequality is "not-covered".  All four determinants negative
    also places the point in the cone but is reported "not-covered" (no
    stability statement is implemented for that sign pattern).  Mixed
    determinant signs mean the interior point leaves the cone:
    "P1-outside-cone".
    """
    if model.n != 3:
        raise ValueError("condition_report requires a three-species model")
    a = model.a
    ones = np.ones(3)
    W = _det3(a)
    if abs(W) < 1e-12:
        raise DegenerateModelError("interaction matrix is singular (|det| < 1e-12)")
    W_u = _det3(_replace_column(a, 0, ones))
    W_v = _det3(_replace_column(a, 1, ones))
    W_w = _det3(_replace_column(a, 2, ones))
    P1 = np.array([W_u, W_v, W_w]) / W
    p = float(np.sum(np.diag(a) * P1) - 1.0)
    ineq9 = all(min(a[j][k] for j in range(3) if j != k) < a[k][k] for k in range(3))
    dets = (W, W_u, W_v, W_w)
    if all(v > 0.0 for v in dets):
        if abs(p) < 1e-10:
            case = "p-zero-degenerate"
        elif p > 0.0:
            case = "P1-stable"
        elif ineq9:
            case = "periodic-attractor-candidate"
        else:
            case = "not-covered"
    elif all(v < 0.0 for v in dets):
        case = "not-covered"
    else:
        case = "P1-outside-cone"
    interior = P1 if np.all(P1 > 0.0) else None
    return ConditionReport(float(W), float(W_u), float(W_v), float(W_w), p, bool(ineq9), case, interior)


def region_membership(model: CompetitionModel, U: np.ndarray) -> str:
    """Locate a nonnegative state relative to the planes (a U)_i = 1.

    Returns "D_plus" when every (a U)_i exceeds 1, "D_minus" when every one
    is below 1, and "A" in between.  Values within 1e-12 of 1 are treated as
    ties and resolve to "A".
    """
    U = np.asarray(U, dtype=float)
    if np.any(U < 0.0):
        raise ValueError("region membership is defined on the nonnegative cone")
    r = model.a @ U
    if np.min(r) > 1.0 + REGION_TIE_TOL:
        return "D_plus"
    if np.max(r) < 1.0 - REGION_TIE_TOL:
        return "D_minus"
    return "A"


def two_species_case(model: CompetitionModel) -> str:
    """Outcome class of a two-species model, read from its normalized matrix.

    Dividing each column j of ``a`` by a[j, j] (density in units of the
    carrying capacity) gives unit self-interaction with b = a[0, 1] / a[1, 1]
    and c = a[1, 0] / a[0, 0], so any positive diagonal is accepted (Hofbauer
    & Sigmund 1998, Sec. 3.3).  Both below 1 gives "coexistence", b < 1 < c
    gives "u-wins", c < 1 < b gives "v-wins", both above 1 gives "bistable".
    Values of b or c within 1e-10 of 1 are degenerate.
    """
    if model.n != 2:
        raise ValueError("two_species_case requires a two-species model")
    (a00, a01), (a10, a11) = model.a
    b, c = float(a01 / a11), float(a10 / a00)
    if abs(b - 1.0) < 1e-10 or abs(c - 1.0) < 1e-10:
        raise DegenerateModelError("two-species case undefined for b or c within 1e-10 of 1")
    if b < 1.0 and c < 1.0:
        return "coexistence"
    if b < 1.0 and c > 1.0:
        return "u-wins"
    if b > 1.0 and c < 1.0:
        return "v-wins"
    return "bistable"


# --- model files ---------------------------------------------------------


def model_to_dict(model: CompetitionModel) -> dict:
    return {"n": model.n, "a": model.a.tolist(), "d": model.d.tolist()}


_MODEL = {"a": (_number_rows, REQUIRED), "d": (_numbers, REQUIRED), "n": (_integer, OMIT)}


def load_model(source) -> CompetitionModel:
    """Build a model from a dict, or a JSON file, holding arrays a and d and
    optionally the species count n.

    The input is checked by the same config schema as the CLI's, and every
    error is a ConfigError that starts with "model" (for a file, with
    "model file" and the file's name).
    """
    where = "model"
    if isinstance(source, (str, Path)):
        source, where = _load_config(source, "model file"), f"model file {str(source)!r}"
    spec = _parse(source, _MODEL, where)
    try:
        model = CompetitionModel(spec["a"], spec["d"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if spec.get("n", model.n) != model.n:
        raise ConfigError(f"{where}: 'a' must be {spec['n']}x{spec['n']} to match n")
    return model
