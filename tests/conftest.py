"""Shared fixtures: the benchmark model, its initial data, the pinned run."""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from rdlab import CompetitionModel
from rdlab.cli import REFERENCE_DIFFUSION, REFERENCE_MATRIX, REFERENCE_PHI_COEFFS, main
from rdlab.pde import _laplacian_diagonals


@pytest.fixture
def reference_model() -> CompetitionModel:
    """Three-species benchmark with small unequal diffusion rates."""
    return CompetitionModel(a=np.array(REFERENCE_MATRIX), d=np.array(REFERENCE_DIFFUSION))


@pytest.fixture
def reference_kinetics() -> CompetitionModel:
    """Same interaction matrix with unit diffusion (kinetics-only work)."""
    return CompetitionModel(a=np.array(REFERENCE_MATRIX), d=np.ones(3))


def reference_phi_values(x: np.ndarray) -> np.ndarray:
    """The three polynomial bumps of the benchmark initial data on [0, 1]."""
    from numpy.polynomial import polynomial as P

    return np.array([P.polyval(x, np.array(c)) for c in REFERENCE_PHI_COEFFS])


def laplacian_matrix(domain) -> np.ndarray:
    """The discrete Laplacian as a dense matrix, assembled from the CN step's diagonals."""
    sub, main, sup = _laplacian_diagonals(domain)
    return np.diag(main) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


@dataclass(frozen=True)
class ReproductionRun:
    out_dir: Path
    elapsed_seconds: float


@pytest.fixture(scope="session")
def reproduction_run(tmp_path_factory) -> ReproductionRun:
    """One pinned benchmark run via the CLI, shared across test modules."""
    base = tmp_path_factory.mktemp("reproduction")
    config = base / "config.json"
    config.write_text(json.dumps({"svg": False}))
    out = base / "run"
    start = time.perf_counter()
    rc = main(["reproduce-paper", "--config", str(config), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    return ReproductionRun(out, elapsed)


@pytest.fixture
def circulant_cycle_model() -> CompetitionModel:
    """Circulant competition matrix with a robust planar limit cycle.

    The kinetics conserve V = uvw / (u + v + w)^3 along orbits, which makes
    the cycle part of a one-parameter family: the monodromy picks up a
    second unit multiplier and stability verdicts must come out
    inconclusive.  That degeneracy is exactly what the Floquet tests need.
    """
    a = np.array([[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]])
    return CompetitionModel(a=a, d=np.full(3, 0.01))
