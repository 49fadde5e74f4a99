"""Spatial discretization and reaction-diffusion time stepping."""

import warnings

import numpy as np
import pytest

from rdlab import CompetitionModel, InvariantViolation
from rdlab.pde import (
    Domain1D,
    Field,
    _cn_half_step,
    default_dt,
    evolve,
    flatness,
    grad_l2_norm,
    neumann_eigenvalue,
    spatial_average,
)
from rdlab.scalar import dirichlet_steady_profile
from tests.conftest import laplacian_matrix, reference_phi_values


def _interval(N, L=1.0, bc="neumann"):
    return Domain1D(kind="interval", length=L, N=N, bc=bc)


def _grad_l2_norm_reference(field):
    """The per-field gradient norm as first written: one np.sum over the 2-D array."""
    h = field.domain.h
    g = np.diff(field.values, axis=1) / h
    w = np.full(g.shape[1], h)
    if field.domain.kind == "radial":
        mid = 0.5 * (field.domain.grid()[1:] + field.domain.grid()[:-1])
        w = w * mid ** (field.domain.m - 1)
    return float(np.sqrt(np.sum(g * g * w)))


def _eigenfunction_defect(domain, u, lam):
    """Sup norm of (Laplacian u + lam u) over interior nodes."""
    applied = laplacian_matrix(domain) @ u
    return float(np.max(np.abs(applied[1:-1] + lam * u[1:-1])))


class TestLaplacian:
    def test_neumann_mode_h_convergence(self):
        # cos(3 pi x): defect must drop fourfold when h halves
        defects = []
        for N in (64, 128):
            dom = _interval(N)
            x = dom.grid()
            lam = neumann_eigenvalue(1.0, 3)
            defects.append(_eigenfunction_defect(dom, np.cos(3 * np.pi * x), lam))
        ratio = defects[0] / defects[1]
        assert 3.5 < ratio < 4.5

    def test_dirichlet_mode_h_convergence(self):
        defects = []
        for N in (64, 128):
            dom = _interval(N, L=2.0, bc="dirichlet")
            x = dom.grid()
            lam = (2.0 * np.pi / 2.0) ** 2
            defects.append(_eigenfunction_defect(dom, np.sin(2.0 * np.pi * x / 2.0), lam))
        ratio = defects[0] / defects[1]
        assert 3.5 < ratio < 4.5

    def test_radial_mode_h_convergence(self):
        # first radial eigenfunction J0(j0 r / R) of the disk, m = 2
        from scipy.special import j0, jn_zeros

        j0_1 = jn_zeros(0, 1)[0]
        defects = []
        for N in (64, 128):
            dom = Domain1D(kind="radial", length=1.0, N=N, bc="dirichlet", m=2)
            r = dom.grid()
            lam = j0_1**2
            defects.append(_eigenfunction_defect(dom, j0(j0_1 * r), lam))
        ratio = defects[0] / defects[1]
        assert 3.5 < ratio < 4.5

    def test_neumann_eigenvalue_formula(self):
        assert neumann_eigenvalue(1.0, 1) == pytest.approx(np.pi**2, rel=1e-15)
        assert neumann_eigenvalue(2.0, 3) == pytest.approx((1.5 * np.pi) ** 2, rel=1e-15)

    @pytest.mark.parametrize("L", [0.0, -1.0, float("nan"), float("inf")])
    def test_neumann_eigenvalue_rejects_bad_length(self, L):
        with pytest.raises(ValueError, match="finite and positive"):
            neumann_eigenvalue(L, 1)


class TestFieldDiagnostics:
    def test_reference_phi_averages_are_exact_rationals(self):
        dom = _interval(512)
        field = Field(dom, reference_phi_values(dom.grid()))
        exact = np.array([1.0 / 10.0, 1.0 / 105.0, 1.0 / 30.0])
        assert np.max(np.abs(spatial_average(field) - exact)) < 1e-10

    def test_gradient_norm_on_cosine_mode(self):
        # ||d/dx cos(k pi x)||_L2 on [0, 1] is k pi / sqrt(2)
        dom = _interval(256)
        x = dom.grid()
        for k in (1, 2, 3):
            field = Field(dom, np.cos(k * np.pi * x)[None, :])
            assert grad_l2_norm(field) == pytest.approx(
                k * np.pi / np.sqrt(2.0), rel=1e-3
            )

    def test_flatness_is_max_oscillation(self):
        dom = _interval(32)
        x = dom.grid()
        field = Field(dom, np.array([0.5 + 0.25 * np.cos(np.pi * x), np.ones_like(x)]))
        assert flatness(field) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind, m", [("interval", 1), ("radial", 2)])
    def test_trajectory_diagnostics_equal_per_snapshot_ones(self, reference_model, kind, m):
        dom = Domain1D(kind=kind, length=1.0, N=300, bc="neumann", m=m)
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(reference_model, dom, phi, 0.5, dt=0.01, snapshots=20)
        snaps = [traj.snapshot(i) for i in range(len(traj.times))]
        assert np.array_equal(traj.spatial_averages(), [spatial_average(f) for f in snaps])
        assert np.array_equal(traj.flatness(), [flatness(f) for f in snaps])
        reference = [_grad_l2_norm_reference(f) for f in snaps]
        assert np.array_equal([grad_l2_norm(f) for f in snaps], reference)
        assert np.array_equal(traj.grad_l2_norms(), reference)

    @pytest.mark.parametrize("kind, m", [("interval", 1), ("radial", 2)])
    def test_omitted_space_dimension_follows_the_kind(self, kind, m):
        assert Domain1D(kind=kind, length=1.0, N=32, bc="neumann").m == m

    def test_radial_domain_with_m_1_is_rejected(self):
        with pytest.raises(ValueError, match="m >= 2"):
            Domain1D(kind="radial", length=1.0, N=32, bc="neumann", m=1)

    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_length_must_be_finite_and_positive(self, length):
        with pytest.raises(ValueError):
            Domain1D(kind="interval", length=length, N=32, bc="neumann")

    def test_field_shape_validation(self):
        dom = _interval(32)
        with pytest.raises(ValueError):
            Field(dom, np.zeros((2, 10)))


class TestEvolveValidation:
    def test_species_count_mismatch_rejected(self, reference_model):
        dom = _interval(32)
        phi = Field(dom, np.ones((2, 34)) * 0.1)
        with pytest.raises(ValueError):
            evolve(reference_model, dom, phi, 1.0)

    def test_negative_initial_field_rejected(self, reference_model):
        dom = _interval(32)
        for bad in (-0.2, float("nan"), float("inf")):
            values = np.full((3, 34), 0.1)
            values[1, 5] = bad
            with pytest.raises(ValueError):
                evolve(reference_model, dom, phi=Field(dom, values), t_end=1.0)

    def test_nonzero_boundary_slope_warns(self, reference_model):
        dom = _interval(64)
        x = dom.grid()
        values = np.array([0.2 + 0.1 * x, 0.1 + 0.05 * x, 0.1 * np.ones_like(x)])
        with pytest.warns(UserWarning, match="boundary slope"):
            evolve(reference_model, dom, Field(dom, values), 0.01, dt=0.005)

    def test_smooth_compatible_data_does_not_warn(self, reference_model):
        # zero-slope polynomial data: the one-sided stencil's own truncation
        # error must not trip the compatibility check at fine resolution
        dom = _interval(512)
        phi = Field(dom, reference_phi_values(dom.grid()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(reference_model, dom, phi, 0.002, dt=0.001)

    def test_dirichlet_boundary_pinning_warns(self, reference_model):
        dom = _interval(32, bc="dirichlet")
        phi = Field(dom, np.full((3, 34), 0.1))
        with pytest.warns(UserWarning, match="pinned"):
            evolve(reference_model, dom, phi, 0.02, dt=0.01)

    @pytest.mark.parametrize(
        "t_end, kwargs",
        [
            (float("inf"), {}),
            (float("nan"), {}),
            (0.0, {}),
            (1.0, {"dt": float("inf")}),
            (1.0, {"dt": float("nan")}),
            (1.0, {"dt": -0.01}),
            (1.0, {"dt": 5e-324}),
            (1.0, {"probe_stride": 0}),
            (1.0, {"probe_stride": -1}),
            (1.0, {"snapshots": 0}),
            (1.0, {"probes": [float("nan")]}),
        ],
    )
    def test_bad_run_parameters_rejected(self, reference_model, t_end, kwargs):
        dom = _interval(32)
        phi = Field(dom, reference_phi_values(dom.grid()))
        with pytest.raises(ValueError):
            evolve(reference_model, dom, phi, t_end, **kwargs)

    def test_default_dt_formula(self, reference_model):
        dom = _interval(99)  # h = 0.01
        expected = min(1e-2, dom.h**2 / (2.0 * 2e-3) * 10.0)
        assert default_dt(dom, reference_model) == pytest.approx(expected, rel=1e-12)


class TestEvolveAccuracy:
    def test_dt_halving_is_second_order(self, reference_model):
        # Strang splitting: halving dt must cut the error about fourfold
        dom = _interval(64)
        phi = Field(dom, reference_phi_values(dom.grid()))
        finals = {}
        for dt in (0.02, 0.01, 0.0025):
            traj = evolve(reference_model, dom, phi, 1.0, dt=dt, snapshots=2)
            finals[dt] = traj.fields[-1]
        err_coarse = np.max(np.abs(finals[0.02] - finals[0.0025]))
        err_fine = np.max(np.abs(finals[0.01] - finals[0.0025]))
        # reference at dt/8: its own error contributes ~1.6% to the ratio
        assert 3.3 < err_coarse / err_fine < 4.7

    def test_heat_mode_decay_rate(self):
        # reaction off: u = 1 + eps cos(pi x) decays at exactly d pi^2
        from rdlab.analysis import decay_fit

        model = CompetitionModel(a=np.eye(3) * 2.0 + 0.1, d=np.full(3, 0.3))
        dom = _interval(128)
        x = dom.grid()
        phi = Field(dom, np.tile(1.0 + 0.1 * np.cos(np.pi * x), (3, 1)))
        traj = evolve(model, dom, phi, 1.2, dt=0.002, include_reaction=False)
        rate, _ = decay_fit(traj, window=(0.1, 1.0))
        assert rate == pytest.approx(0.3 * np.pi**2, rel=0.02)

    def test_constant_equilibrium_is_preserved(self, reference_model):
        from rdlab.model import condition_report

        P1 = condition_report(reference_model).interior_point
        dom = _interval(32)
        phi = Field(dom, np.tile(P1[:, None], (1, 34)))
        traj = evolve(reference_model, dom, phi, 20.0, dt=0.01)
        drift = np.max(np.abs(traj.fields[-1] - P1[:, None]))
        assert drift < 1e-9

    def test_dirichlet_subcritical_interval_decays_to_zero(self):
        # below the threshold length the only steady state is extinction
        model = CompetitionModel(a=np.array([[1.0]]), d=np.array([0.1]))
        dom = Domain1D(kind="interval", length=0.9, N=64, bc="dirichlet")
        x = dom.grid()
        phi = Field(dom, (0.5 * np.sin(np.pi * x / 0.9))[None, :])
        traj = evolve(model, dom, phi, 50.0, dt=0.005)
        assert float(np.max(traj.fields[-1])) < 1e-3

    def test_dirichlet_supercritical_bump_approaches_steady_profile(self):
        # above threshold the bump heads for the nonconstant steady state
        model = CompetitionModel(a=np.array([[1.0]]), d=np.array([0.1]))
        dom = Domain1D(kind="interval", length=2.0, N=128, bc="dirichlet")
        x = dom.grid()
        phi = Field(dom, (0.5 * np.sin(np.pi * x / 2.0))[None, :])
        traj = evolve(model, dom, phi, 60.0, dt=0.002)
        profile = dirichlet_steady_profile(2.0, 0.1)
        target = np.interp(x, profile.x, profile.u)
        err = float(np.max(np.abs(traj.fields[-1][0] - target)))
        assert err < 5e-3
        assert float(traj.fields[-1].min()) >= -1e-8

    def test_negativity_guard_raises_without_clamping(self):
        # Crank-Nicolson at diffusion number d dt / h^2 ~ 420 undershoots the
        # edges of a box to about -0.3 in the first step; the guard must raise
        # instead of clamping
        model = CompetitionModel(a=np.array([[1.0]]), d=np.array([1.0]))
        for bc in ("neumann", "dirichlet"):
            dom = _interval(64, bc=bc)
            box = (np.abs(dom.grid() - 0.5) < 0.1).astype(float)
            with pytest.raises(InvariantViolation, match="at t = 0.1,"):
                evolve(model, dom, Field(dom, box[None, :]), 1.0, dt=0.1,
                       include_reaction=False)

    def test_dirichlet_boundary_stays_pinned_at_large_diffusion_number(self):
        # c / h^2 > 1 here; the pinned boundary nodes must stay exactly 0, or
        # the logistic growth amplifies their rounding error like e^t
        model = CompetitionModel(a=np.array([[1.0]]), d=np.array([0.1]))
        dom = Domain1D(kind="interval", length=2.0, N=128, bc="dirichlet")
        x = dom.grid()
        phi = Field(dom, (0.5 * np.sin(np.pi * x / 2.0))[None, :])
        traj = evolve(model, dom, phi, 200.0, dt=0.01)
        assert np.all(traj.fields[..., 0] == 0.0)
        assert np.all(traj.fields[..., -1] == 0.0)
        assert float(traj.fields[-1, 0, 1:-1].min()) > 0.0


def _dense_cn_reference(domain, d, values, dt):
    """One diffusion-only step by dense linear algebra: two CN half steps per species."""
    G = domain.N + 2
    lap = laplacian_matrix(domain)
    out = []
    for di, u in zip(d, values):
        c = di * dt / 4.0
        lhs, rhs = np.eye(G) - c * lap, np.eye(G) + c * lap
        for _ in range(2):
            u = np.linalg.solve(lhs, rhs @ u)
        out.append(u)
    return np.array(out)


class TestCrankNicolsonSolve:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("kind, m", [("interval", 1), ("radial", 2), ("radial", 3),
                                         ("radial", 4)])
    def test_stacked_solve_matches_dense_per_species(self, kind, m, bc, n):
        # distinct d per species: a coupling across species blocks would show.
        # Radial m = 3 and 4 have a zero and a negative centre off-diagonal
        # product, so they run the pivoted LU path; the others the symmetric one
        d = np.array([0.05, 0.4, 1.3])[:n]
        model = CompetitionModel(a=np.eye(n) + 0.1, d=d)
        dom = Domain1D(kind=kind, length=1.5, N=24, bc=bc, m=m)
        x = dom.grid() / dom.length
        k = np.arange(1, n + 1)[:, None]
        if bc == "dirichlet":
            values = np.sin(np.pi * x)[None, :] * (1.0 + 0.3 * np.cos(k * np.pi * x))
        else:
            values = 1.0 + 0.5 * np.cos(k * np.pi * x)
        dt = 0.02
        traj = evolve(model, dom, Field(dom, values), dt, dt=dt, include_reaction=False)
        expected = _dense_cn_reference(dom, d, traj.fields[0], dt)
        assert np.max(np.abs(traj.fields[-1] - expected)) < 1e-12

    def test_diffusion_conserves_neumann_interval_average(self):
        model = CompetitionModel(a=np.eye(3) * 2.0 + 0.1, d=np.array([0.3, 0.05, 1.0]))
        dom = _interval(128)
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(model, dom, phi, 1.0, dt=0.01, include_reaction=False)
        drift = np.abs(spatial_average(traj.final) - spatial_average(phi))
        assert np.max(drift) < 1e-13


def _rk4_reference(a, dt, U):
    """The classical RK4 step of u' = u (1 - a u) as evolve wrote it before its buffers."""
    k1 = U * (1.0 - a @ U)
    y2 = U + 0.5 * dt * k1
    k2 = y2 * (1.0 - a @ y2)
    y3 = U + 0.5 * dt * k2
    k3 = y3 * (1.0 - a @ y3)
    y4 = U + dt * k3
    k4 = y4 * (1.0 - a @ y4)
    return U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _random_model(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.5, (n, n))
    np.fill_diagonal(a, 1.0)
    return CompetitionModel(a=a, d=rng.uniform(0.01, 0.5, n))


def _vanishing_field(domain, n, seed):
    # positive inside; on a Dirichlet domain zero at both ends, since evolve
    # also pins the radial centre at t = 0 (ROADMAP item 1)
    x = domain.grid() / domain.length
    bumps = np.random.default_rng(seed).uniform(0.2, 1.2, (n, 1))
    values = bumps * (1.0 + 0.5 * np.cos(np.pi * x * (np.arange(n)[:, None] + 2.0)))
    if domain.bc == "dirichlet":
        values = values * x * (1.0 - x)
    return Field(domain, values)


class TestReactionStep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind, bc, m", [("interval", "neumann", 1),
                                             ("interval", "dirichlet", 1),
                                             ("radial", "dirichlet", 2)])
    def test_one_step_is_half_rk4_half(self, kind, bc, m, n):
        model = _random_model(n, seed=n)
        dom = Domain1D(kind=kind, length=1.3, N=40, bc=bc, m=m)
        phi = _vanishing_field(dom, n, seed=10 + n)
        dt = 0.01
        traj = evolve(model, dom, phi, dt, dt=dt, snapshots=1, probe_stride=1)
        half = _cn_half_step(dom, model.d, dt)
        expected = half(_rk4_reference(model.a, dt, half(phi.values)))
        assert traj.times.tolist() == [0.0, dt]
        assert np.max(np.abs(traj.fields[-1] - expected)) <= 1e-14
        pinned = {"neumann": [], "dirichlet": [0, -1] if kind == "interval" else [-1]}[bc]
        assert np.all(traj.fields[:, :, pinned] == 0.0)

    def test_no_state_leaks_between_calls(self):
        dom_a = Domain1D(kind="interval", length=1.0, N=48, bc="dirichlet")
        dom_b = Domain1D(kind="radial", length=2.0, N=30, bc="neumann", m=2)
        model_a, model_b = _random_model(3, seed=1), _random_model(2, seed=2)
        phi_a, phi_b = _vanishing_field(dom_a, 3, seed=3), _vanishing_field(dom_b, 2, seed=4)
        first = evolve(model_a, dom_a, phi_a, 0.4, dt=0.02)
        evolve(model_b, dom_b, phi_b, 0.3, dt=0.01)
        again = evolve(model_a, dom_a, phi_a, 0.4, dt=0.02)
        assert np.array_equal(first.fields, again.fields)
        assert np.array_equal(first.probe_values, again.probe_values)


class TestProbes:
    def test_probe_traces_match_snapshots_at_nodes(self, reference_model):
        dom = _interval(64)
        phi = Field(dom, reference_phi_values(dom.grid()))
        x = dom.grid()
        probe_x = [float(x[13]), float(x[40])]
        traj = evolve(reference_model, dom, phi, 1.0, dt=0.01, probes=probe_x)
        assert traj.probe_values.shape[1:] == (3, 2)
        # at t = 0 the probe values sample the initial field exactly
        expected0 = reference_phi_values(np.array(probe_x))
        assert np.max(np.abs(traj.probe_values[0] - expected0)) < 1e-12

    def test_probe_stride_subsamples_times(self, reference_model):
        dom = _interval(32)
        phi = Field(dom, reference_phi_values(dom.grid()))
        t1 = evolve(reference_model, dom, phi, 0.5, dt=0.01, probe_stride=1)
        t5 = evolve(reference_model, dom, phi, 0.5, dt=0.01, probe_stride=5)
        assert t1.probe_times.size == 51
        assert t5.probe_times.size == 11
        assert np.allclose(t5.probe_times, t1.probe_times[::5])

    def test_probe_traces_interpolate_every_stored_field(self, reference_model):
        dom = _interval(32)
        x = dom.grid()
        phi = Field(dom, reference_phi_values(x))
        probe_x = np.array([0.0, 0.13, 0.5, 0.871, 1.0])
        # 50 steps, every one stored as a snapshot and sampled by the probes
        traj = evolve(reference_model, dom, phi, 0.5, dt=0.01, snapshots=50, probes=probe_x,
                      probe_stride=1)
        assert np.array_equal(traj.times, traj.probe_times)
        idx = np.minimum(np.searchsorted(x, probe_x, side="right") - 1, x.size - 2)
        frac = (probe_x - x[idx]) / dom.h
        expected = traj.fields[:, :, idx] * (1.0 - frac) + traj.fields[:, :, idx + 1] * frac
        assert np.array_equal(traj.probe_values, expected)

    def test_probe_stride_ends_at_t_end(self, reference_model):
        dom = _interval(32)
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(reference_model, dom, phi, 0.5, dt=0.01, probe_stride=7)
        # 50 steps: samples at steps 0, 7, ..., 49 and the last step 50
        assert traj.probe_times.size == 9
        assert traj.probe_values.shape == (9, 3, 3)
        assert traj.probe_times[-1] == 0.5
        assert np.array_equal(traj.probe_times[:-1], np.arange(0, 50, 7) * 0.01)

    def test_probe_outside_domain_rejected(self, reference_model):
        dom = _interval(32)
        phi = Field(dom, reference_phi_values(dom.grid()))
        with pytest.raises(ValueError):
            evolve(reference_model, dom, phi, 0.1, probes=[1.5])

    def test_snapshot_count_and_endpoints(self, reference_model):
        dom = _interval(32)
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(reference_model, dom, phi, 1.0, dt=0.01, snapshots=50)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.max(np.abs(traj.fields[0] - phi.values)) == 0.0
