"""Acceptance gate: twelve end-to-end criteria with one verdict line each.

Each test prints exactly one "criterion NN (...): PASS/FAIL" line with
capture suspended, so the gate is auditable in the live pytest output.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rdlab import CompetitionModel
from rdlab.analysis import (
    REGION_A_3SPECIES,
    REGION_SIGMA_2SPECIES,
    _norm_batch,
    decay_fit,
    periodicity_score,
    sup_jacobian_norm,
)
from rdlab.kinetics import detect_limit_cycle, integrate, modal_multipliers, monodromy
from rdlab.model import (
    condition_report,
    equilibria,
    jacobian,
    reaction,
    region_membership,
)
from rdlab.pde import Domain1D, Field, evolve, spatial_average
from rdlab.scalar import dirichlet_steady_profile, radial_shoot, time_map
from tests.conftest import REFERENCE_MATRIX, laplacian_matrix


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, name):
        record = {"detail": ""}
        try:
            yield record
        except Exception as exc:
            with capsys.disabled():
                print(f"criterion {num:02d} ({name}): FAIL - {exc}", flush=True)
            raise
        with capsys.disabled():
            print(f"criterion {num:02d} ({name}): PASS - {record['detail']}", flush=True)

    return _criterion


@pytest.fixture(scope="module")
def kinetics_model():
    return CompetitionModel(a=np.array(REFERENCE_MATRIX), d=np.ones(3))


@pytest.fixture(scope="module")
def flattening_run(kinetics_model):
    """Unit-diffusion benchmark run: ripples flatten, then the cycle takes over."""
    dom = Domain1D(kind="interval", length=1.0, N=128, bc="neumann")
    x = dom.grid()
    phi = Field(
        dom,
        np.array(
            [
                0.12 + 0.05 * np.cos(np.pi * x),
                0.10 - 0.04 * np.cos(np.pi * x),
                0.08 + 0.03 * np.cos(2.0 * np.pi * x),
            ]
        ),
    )
    # snapshots every 0.1 so the early decay window holds enough samples
    traj = evolve(kinetics_model, dom, phi, 60.0, dt=1e-3, snapshots=601)
    return dom, phi, traj


def test_criterion_01_small_amplitude_limit(criterion):
    with criterion(1, "small-amplitude length limit") as rec:
        start = time.perf_counter()
        value = time_map(1e-4, 0.1)
        elapsed = time.perf_counter() - start
        target = np.pi * np.sqrt(0.1)
        assert abs(value - target) < 1e-3
        assert elapsed < 1.0
        rec["detail"] = f"L(1e-4)={value:.9f} vs pi*sqrt(D)={target:.9f}, {elapsed:.3f}s"


def test_criterion_02_time_map_monotone(criterion):
    with criterion(2, "time map monotonicity") as rec:
        mus = np.linspace(1e-3, 0.999, 100)
        lengths = [time_map(float(m), 0.1) for m in mus]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        top = time_map(0.999, 0.1)
        floor = 3.0 * np.pi * np.sqrt(0.1)
        assert top > floor
        rec["detail"] = f"strictly increasing on 100 points, L(0.999)={top:.6f} > {floor:.6f}"


def test_criterion_03_dirichlet_threshold(criterion):
    with criterion(3, "Dirichlet threshold and profile") as rec:
        assert dirichlet_steady_profile(0.9, 0.1) is None
        profile = dirichlet_steady_profile(2.0, 0.1)
        assert profile is not None
        # BVP residual via an independent derivative differencing
        h = profile.x[1] - profile.x[0]
        upp = (profile.uprime[2:] - profile.uprime[:-2]) / (2.0 * h)
        interior = profile.u[1:-1]
        residual = float(np.max(np.abs(0.1 * upp + interior * (1.0 - interior))))
        assert residual < 1e-6
        # the PDE run from a bump settles onto that profile
        model = CompetitionModel(a=np.array([[1.0]]), d=np.array([0.1]))
        dom = Domain1D(kind="interval", length=2.0, N=128, bc="dirichlet")
        x = dom.grid()
        phi = Field(dom, (0.5 * np.sin(np.pi * x / 2.0))[None, :])
        traj = evolve(model, dom, phi, 200.0, dt=2e-3)
        target = np.interp(x, profile.x, profile.u)
        sup_err = float(np.max(np.abs(traj.fields[-1][0] - target)))
        assert sup_err < 1e-4
        rec["detail"] = (
            f"L=0.9 none; L=2 residual={residual:.2e}, PDE sup-gap={sup_err:.2e} at t=200"
        )


def test_criterion_04_radial_shooting(criterion):
    with criterion(4, "radial shooting") as rec:
        hit = radial_shoot(0.5, 0.1, 6.0, m=2)
        bound = np.pi * np.sqrt(0.1) / 2.0
        assert hit.outcome == "hit-zero"
        assert hit.first_zero_r > bound
        blow = radial_shoot(1.5, 0.1, 10.0, m=2)
        assert blow.outcome == "blow-up"
        rec["detail"] = f"first zero {hit.first_zero_r:.6f} > {bound:.6f}; c=1.5 blows up"


def test_criterion_05_two_species_norm_formula(criterion):
    with criterion(5, "two-species norm formula") as rec:
        model = CompetitionModel(a=np.ones((2, 2)), d=np.ones(2))
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 2.0, size=(10_000, 2))
        u, v = pts.T
        # closed form for b = c = 1, expanded by hand
        closed = 2.0 - 6.0 * u - 6.0 * v + 6.0 * u * u + 6.0 * v * v + 8.0 * u * v
        worst = float(np.max(np.abs(_norm_batch(model, pts, "frobenius") ** 2 - closed)))
        assert worst < 1e-12
        sup = sup_jacobian_norm(model, REGION_SIGMA_2SPECIES)
        assert abs(sup**2 - 2.0) < 1e-6
        origin_norm_sq = _norm_batch(model, np.zeros((1, 2)), "frobenius")[0] ** 2
        assert abs(origin_norm_sq - sup**2) < 1e-12  # attained at the origin
        rec["detail"] = f"max formula gap {worst:.2e} on 1e4 samples; sup^2={sup**2:.12f} at origin"


def test_criterion_06_reference_matrix_algebra(criterion, kinetics_model):
    with criterion(6, "benchmark-matrix algebra") as rec:
        worst = max(
            float(np.max(np.abs(reaction(kinetics_model, eq.point))))
            for eq in equilibria(kinetics_model)
        )
        assert worst < 1e-10
        rep = condition_report(kinetics_model)
        assert rep.W > 0 and rep.W_u > 0 and rep.W_v > 0 and rep.W_w > 0
        assert rep.p < 0
        assert rep.ineq9_holds
        # exact-rational oracle, frozen before the implementation was written
        assert abs(rep.W - float(Fraction(37759, 2000))) < 1e-12 * rep.W
        assert abs(rep.W_u - float(Fraction(297, 100))) < 1e-12
        assert abs(rep.W_v - float(Fraction(88, 25))) < 1e-12
        assert abs(rep.W_w - float(Fraction(117, 40))) < 1e-12
        assert abs(rep.p - float(Fraction(-99, 37759))) < 1e-15
        rec["detail"] = (
            f"residuals<{worst:.1e}; W={rep.W:.4f}, p={rep.p:.10f}, inequality holds"
        )


def test_criterion_07_characteristic_cubic(criterion, kinetics_model):
    def cubic_gap(model):
        rep = condition_report(model)
        prod = float(np.prod(rep.interior_point)) * rep.W
        quad = np.roots([1.0, rep.p, prod])
        roots = np.concatenate([[-1.0 + 0.0j], quad.astype(complex)])
        roots = roots[np.lexsort((roots.imag, roots.real))]
        eig = np.linalg.eigvals(jacobian(model, rep.interior_point))
        eig = eig[np.lexsort((eig.imag, eig.real))]
        return float(np.max(np.abs(roots - eig)))

    with criterion(7, "characteristic cubic consistency") as rec:
        gap = cubic_gap(kinetics_model)
        assert gap < 1e-8
        rng = np.random.default_rng(7)
        worst = gap
        accepted = 0
        while accepted < 20:
            model = CompetitionModel(a=rng.uniform(0.5, 3.0, size=(3, 3)), d=np.ones(3))
            try:
                rep = condition_report(model)
            except Exception:
                continue
            if rep.interior_point is None:
                continue
            accepted += 1
            worst = max(worst, cubic_gap(model))
        assert worst < 1e-8
        rec["detail"] = f"benchmark + 20 random admissible, worst root gap {worst:.2e}"


def test_criterion_08_limit_cycle(criterion, kinetics_model):
    with criterion(8, "limit cycle detection") as rec:
        start = time.perf_counter()
        orbit = detect_limit_cycle(
            kinetics_model, np.array([0.1, 0.0095238, 0.0333333]),
            max_time=24000.0, tol=1e-7,
        )
        elapsed = time.perf_counter() - start
        assert orbit.periodic
        returns = np.diff(orbit.crossing_times)[-5:]
        spread = float((returns.max() - returns.min()) / returns.mean())
        assert spread < 1e-3
        cycle = integrate(kinetics_model, orbit.anchor, orbit.period, tol=1e-9)
        samples = cycle.at(np.linspace(0.0, orbit.period, 400))
        regions = {region_membership(kinetics_model, samples[:, k]) for k in range(400)}
        assert regions == {"A"}
        assert elapsed < 30.0
        rec["detail"] = (
            f"period {orbit.period:.6f}, return spread {spread:.2e}, "
            f"confined to A, {elapsed:.2f}s"
        )


def test_criterion_09_floquet(criterion, circulant_cycle_model):
    with criterion(9, "Floquet multipliers") as rec:
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        assert orbit.periodic
        unit_gap = float(np.min(np.abs(orbit.multipliers - 1.0)))
        assert unit_gap < 1e-3
        # Liouville route: det M = exp of the trace integral over one period
        from scipy.integrate import simpson

        M = monodromy(circulant_cycle_model, orbit, tol=1e-12)
        traj = integrate(circulant_cycle_model, orbit.anchor, orbit.period, tol=1e-12)
        t = np.linspace(0.0, orbit.period, 4001)
        states = traj.at(t)
        traces = np.array(
            [np.trace(jacobian(circulant_cycle_model, states[:, k])) for k in range(t.size)]
        )
        det_gap = float(abs(np.linalg.det(M) - np.exp(simpson(traces, x=t))))
        assert det_gap < 1e-6
        # scalar diffusion: modal multipliers factor through the base spectrum
        d = float(circulant_cycle_model.d[0])
        lam = (2.0 * np.pi) ** 2
        direct = np.sort_complex(
            modal_multipliers(circulant_cycle_model, orbit, lam, tol=1e-12)
        )
        factored = np.sort_complex(np.exp(-d * lam * orbit.period) * np.linalg.eigvals(M))
        factor_gap = float(np.max(np.abs(direct - factored)))
        assert factor_gap < 1e-6
        rec["detail"] = (
            f"|rho-1|={unit_gap:.2e}, det-vs-trace gap {det_gap:.2e}, "
            f"factorization gap {factor_gap:.2e}"
        )


def test_criterion_10_flattening_regime(criterion, kinetics_model, flattening_run):
    with criterion(10, "large-diffusion flattening") as rec:
        dom, phi, traj = flattening_run
        from rdlab.pde import flatness as field_flatness

        threshold = np.sqrt(3.0) / np.pi**2
        assert float(kinetics_model.d.min()) == 1.0 > threshold
        k50 = int(np.searchsorted(traj.times, 50.0))
        flat50 = field_flatness(traj.snapshot(k50))
        assert flat50 < 1e-4
        rate, _ = decay_fit(traj, window=(0.2, 2.5))
        sigma_floor = np.pi**2 - np.sqrt(3.0)
        assert rate >= sigma_floor
        # averaged field against the kinetics started from the same average
        avg0 = spatial_average(traj.snapshot(0))
        ode = integrate(kinetics_model, avg0, 60.0, tol=1e-10)
        keep = traj.times >= 20.0
        pde_avgs = np.array([spatial_average(traj.snapshot(i)) for i in np.nonzero(keep)[0]])
        gap = float(np.max(np.abs(pde_avgs - ode.at(traj.times[keep]).T)))
        assert gap < 1e-3
        rec["detail"] = (
            f"flatness(t=50)={flat50:.2e}, decay rate {rate:.3f} >= {sigma_floor:.3f}, "
            f"average-vs-kinetics gap {gap:.2e}"
        )


def test_criterion_11_heterogeneous_regime(criterion, reproduction_run):
    with criterion(11, "small-diffusion heterogeneous regime") as rec:
        data = np.loadtxt(
            reproduction_run.out_dir / "probes.csv", delimiter=",", skiprows=1
        )
        t = data[:, 0]
        v_traces = [data[:, 4 + j] for j in range(3)]  # second species at x=0.1/0.5/0.9
        keep = t >= 50.0
        sups = []
        for i in range(3):
            for j in range(i + 1, 3):
                sups.append(float(np.max(np.abs(v_traces[i][keep] - v_traces[j][keep]))))
        assert min(sups) > 0.05
        scores = []
        for trace in v_traces:
            score, _ = periodicity_score(t, trace, window=(50.0, 100.0))
            scores.append(score)
            assert score > 0.9
        assert reproduction_run.elapsed_seconds < 300.0
        rec["detail"] = (
            f"pairwise sups {', '.join(f'{s:.3f}' for s in sups)}; "
            f"periodicity {', '.join(f'{s:.4f}' for s in scores)}; "
            f"{reproduction_run.elapsed_seconds:.0f}s at N=512"
        )


def test_criterion_12_numerical_hygiene(criterion, kinetics_model, flattening_run, reproduction_run):
    with criterion(12, "numerical hygiene") as rec:
        # negativity: the stepper guards every run; spot-check both big runs
        _, _, traj = flattening_run
        assert float(traj.fields.min()) >= -1e-8
        final_field = np.loadtxt(
            reproduction_run.out_dir / "final_field.csv", delimiter=",", skiprows=1
        )
        assert float(final_field[:, 1:].min()) >= -1e-8

        # second-order dt convergence of the splitting
        bench = CompetitionModel(a=np.array(REFERENCE_MATRIX), d=np.array([1e-3, 2e-3, 0.5e-3]))
        dom = Domain1D(kind="interval", length=1.0, N=64, bc="neumann")
        from tests.conftest import reference_phi_values

        phi = Field(dom, reference_phi_values(dom.grid()))
        finals = {
            dt: evolve(bench, dom, phi, 1.0, dt=dt, snapshots=2).fields[-1]
            for dt in (0.02, 0.01, 0.0025)
        }
        err_coarse = float(np.max(np.abs(finals[0.02] - finals[0.0025])))
        err_fine = float(np.max(np.abs(finals[0.01] - finals[0.0025])))
        dt_ratio = err_coarse / err_fine
        assert 3.5 < dt_ratio < 4.5

        # second-order h convergence of the Laplacian on eigenfunctions
        def defect(domain, u, lam):
            applied = laplacian_matrix(domain) @ u
            return float(np.max(np.abs(applied[1:-1] + lam * u[1:-1])))

        from scipy.special import j0, jn_zeros

        ratios = []
        for build in (
            lambda N: (
                Domain1D(kind="interval", length=1.0, N=N, bc="neumann"),
                lambda x: np.cos(3.0 * np.pi * x),
                (3.0 * np.pi) ** 2,
            ),
            lambda N: (
                Domain1D(kind="interval", length=2.0, N=N, bc="dirichlet"),
                lambda x: np.sin(np.pi * x),
                np.pi**2,
            ),
            lambda N: (
                Domain1D(kind="radial", length=1.0, N=N, bc="dirichlet", m=2),
                lambda r: j0(jn_zeros(0, 1)[0] * r),
                jn_zeros(0, 1)[0] ** 2,
            ),
        ):
            defects = []
            for N in (64, 128):
                domain, mode, lam = build(N)
                defects.append(defect(domain, mode(domain.grid()), lam))
            ratios.append(defects[0] / defects[1])
        assert all(3.5 < r < 4.5 for r in ratios)
        rec["detail"] = (
            f"min field ok; dt ratio {dt_ratio:.2f}; "
            f"h ratios {', '.join(f'{r:.2f}' for r in ratios)}"
        )
