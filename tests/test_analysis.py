"""Jacobian-norm suprema, flattening certificates, decay fits, classification."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from rdlab import CompetitionModel
from rdlab.analysis import (
    chs_report,
    classify_omega,
    decay_fit,
    periodicity_score,
    sup_jacobian_norm,
)
from rdlab.model import jacobian
from rdlab.pde import Domain1D, PdeTrajectory, evolve, Field
from tests.conftest import reference_phi_values


def _two_species(b, c):
    return CompetitionModel(a=np.array([[1.0, b], [c, 1.0]]), d=np.ones(2))


def _region_pieces(a):
    """Polytope pieces {U : A U <= b} of the model's invariant region, from its definition.

    For two species, the union over rows i of U >= 0, (a U)_i <= 1.  For
    three species, region A: the union over i != j of
    U >= 0, (a U)_i <= 1 <= (a U)_j.
    """
    n = a.shape[0]
    orthant = (-np.eye(n), np.zeros(n))
    if n == 2:
        return [(np.vstack([orthant[0], row]), np.append(orthant[1], 1.0)) for row in a]
    return [(np.vstack([orthant[0], a[i], -a[j]]), np.append(orthant[1], [1.0, -1.0]))
            for i in range(n) for j in range(n) if i != j]


def _unit_diagonal_pieces(a):
    """The two triangles u + b v <= 1 and c u + v <= 1 that assume a[i, i] = 1."""
    return _region_pieces(np.array([[1.0, a[0, 1]], [a[1, 0], 1.0]]))


def _piece_corners(A, b):
    """Corners of {U : A U <= b} by Qhull, or None for a piece with no interior."""
    # Chebyshev centre: the deepest interior point, needed to seed Qhull
    norms = np.linalg.norm(A, axis=1)
    n = A.shape[1]
    lp = linprog(np.append(np.zeros(n), -1.0), A_ub=np.column_stack([A, norms]), b_ub=b,
                 bounds=[(None, None)] * n + [(0.0, None)])
    if lp.status != 0 or lp.x[-1] < 1e-9:
        return None
    return HalfspaceIntersection(np.column_stack([A, -b]), lp.x[:n]).intersections


def _jacobians(model, pts):
    # J_ij = delta_ij (1 - (a U)_i) - U_i a_ij, one matrix per row of pts
    a = model.a
    return np.eye(a.shape[0]) * (1.0 - pts @ a.T)[:, :, None] - pts[:, :, None] * a


def _norms(mats, norm):
    return np.linalg.norm(mats, ord="fro" if norm == "frobenius" else 2, axis=(1, 2))


def _random_model(rng, n):
    return CompetitionModel(a=rng.uniform(0.2, 3.0, size=(n, n)), d=np.ones(n))


def _corner_maximum(model, pieces, norm):
    corners = [c for c in (_piece_corners(A, b) for A, b in pieces) if c is not None]
    assert corners
    corners = np.concatenate(corners)
    return corners, _norms(_jacobians(model, corners), norm).max()


class TestSupJacobianNorm:
    def test_three_species_frobenius_exact_vertex_value(self, reference_kinetics):
        # hand-derived maximizer: third axis hits the second species' plane
        # at w = 10/9; the squared entries sum to exactly 9505/324
        sup = sup_jacobian_norm(reference_kinetics)
        assert sup**2 == pytest.approx(9505.0 / 324.0, rel=1e-12)

    def test_three_species_operator_norm(self, reference_kinetics):
        op = sup_jacobian_norm(reference_kinetics, norm="operator")
        fro = sup_jacobian_norm(reference_kinetics)
        assert op <= fro + 1e-12
        assert op == pytest.approx(4.871957129315187, rel=1e-12)

    def test_two_species_unit_coupling_sup_at_origin(self):
        sup = sup_jacobian_norm(_two_species(1.0, 1.0))
        assert sup**2 == pytest.approx(2.0, rel=1e-12)

    def test_two_species_weak_coupling_sup_at_far_corner(self):
        # b = c = 1/2: region reaches (2, 0), where the squared norm is 10
        sup = sup_jacobian_norm(_two_species(0.5, 0.5))
        assert sup**2 == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("norm", ["frobenius", "operator"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_brute_force_corner_maximum(self, n, norm):
        # The corners are recomputed by Qhull from the region's definition,
        # and a dense sample checks that no member point beats them.  The
        # last four two-species draws have every a[i, i] below 1/2 and every
        # a[i, j] above it, so their triangles reach past the unit-diagonal
        # u + b v <= 1, c u + v <= 1, and on each of the four the maximum
        # over those would be wrong.
        rng = np.random.default_rng(1978 + 10 * n)
        moved = 0
        for draw in range(8 if n == 2 else 4):
            if draw < 4:
                model = _random_model(rng, n)
            else:
                a = rng.uniform(0.5, 3.0, size=(n, n))
                a[np.diag_indices(n)] = rng.uniform(0.2, 0.5, size=n)
                model = CompetitionModel(a=a, d=np.ones(n))
            sup = sup_jacobian_norm(model, norm=norm)

            pieces = _region_pieces(model.a)
            corners, expected = _corner_maximum(model, pieces, norm)
            mats = _jacobians(model, corners)
            assert np.allclose(mats, [jacobian(model, c) for c in corners], rtol=0.0, atol=1e-13)
            assert sup == pytest.approx(expected, rel=1e-12)
            if n == 2:
                _, assumed = _corner_maximum(model, _unit_diagonal_pieces(model.a), norm)
                moved += abs(assumed - expected) > 1e-6 * expected

            hi = corners.max(axis=0)
            pts = rng.uniform(0.0, 1.0, size=(60_000, n)) * hi
            inside = np.zeros(len(pts), dtype=bool)
            for A, b in pieces:
                inside |= np.all(pts @ A.T <= b, axis=1)
            assert inside.sum() > 1000
            assert _norms(_jacobians(model, pts[inside]), norm).max() <= sup * (1.0 + 1e-12)
        if n == 2:
            assert moved == 4

    @pytest.mark.parametrize("n", [1, 4])
    def test_region_validation(self, n):
        # the invariant region exists for two and three species only
        with pytest.raises(ValueError, match="2 or 3 needed"):
            sup_jacobian_norm(CompetitionModel(a=np.ones((n, n)), d=np.ones(n)))

    def test_rows_of_a_set_the_two_species_region(self):
        # a = [[1/2, 1], [1, 1/2]]: the triangles reach (2, 0) and (0, 2), not
        # the unit-diagonal u + v <= 1, and J(2, 0) = [[-1, -2], [0, -1]]
        model = CompetitionModel(a=np.array([[0.5, 1.0], [1.0, 0.5]]), d=np.full(2, 0.2))
        assert np.array_equal(jacobian(model, np.array([2.0, 0.0])), [[-1.0, -2.0], [0.0, -1.0]])
        assert sup_jacobian_norm(model) == pytest.approx(np.sqrt(6.0), rel=0.0, abs=1e-12)
        assert sup_jacobian_norm(model, norm="operator") == pytest.approx(
            1.0 + np.sqrt(2.0), rel=0.0, abs=1e-12)
        rep = chs_report(model, 1.0)
        assert rep.M_sup == pytest.approx(np.sqrt(6.0), rel=0.0, abs=1e-12)
        assert rep.sigma == pytest.approx(0.2 * np.pi**2 - np.sqrt(6.0), rel=0.0, abs=1e-12)
        assert not rep.flat_guarantee


class TestChsReport:
    def test_unit_diffusion_certificate(self, reference_kinetics):
        rep = chs_report(reference_kinetics, 1.0)
        assert rep.lambda1 == pytest.approx(np.pi**2, rel=1e-15)
        assert rep.M_sup**2 == pytest.approx(9505.0 / 324.0, rel=1e-12)
        assert rep.sigma == pytest.approx(4.453293871486534, abs=1e-9)
        assert rep.threshold_d == pytest.approx(0.5487869938338156, abs=1e-9)
        assert rep.flat_guarantee

    def test_sigma_linear_in_minimum_diffusion(self):
        a = np.array([[2.0, 1.1, 3.1], [3.1, 2.0, 0.9], [0.95, 2.9, 2.0]])
        sigmas = []
        for d_min in (1.0, 2.0, 4.0):
            model = CompetitionModel(a=a, d=np.array([d_min, d_min + 1.0, d_min + 2.0]))
            sigmas.append(chs_report(model, 1.0).sigma)
        lam1 = np.pi**2
        assert sigmas[1] - sigmas[0] == pytest.approx(lam1, rel=1e-9)
        assert sigmas[2] - sigmas[1] == pytest.approx(2.0 * lam1, rel=1e-9)

    def test_lambda1_scales_with_length(self, reference_kinetics):
        rep2 = chs_report(reference_kinetics, 2.0)
        assert rep2.lambda1 == pytest.approx((np.pi / 2.0) ** 2, rel=1e-15)
        # small diffusion on a long interval: no flattening guarantee
        assert not rep2.flat_guarantee

    @pytest.mark.parametrize("L", [0.0, -1.0, float("nan"), float("inf")])
    def test_length_validation(self, reference_kinetics, L):
        with pytest.raises(ValueError):
            chs_report(reference_kinetics, L)


def _synthetic_trajectory(u_of_tx, t_end=80.0, n_times=161, N=64, probe_count=3):
    """Build a PdeTrajectory from a callable u(t, x) -> (n_species, len(x))."""
    dom = Domain1D(kind="interval", length=1.0, N=N, bc="neumann")
    x = dom.grid()
    times = np.linspace(0.0, t_end, n_times)
    fields = np.array([u_of_tx(t, x) for t in times])
    probe_x = np.linspace(0.1, 0.9, probe_count)
    probe_times = np.linspace(0.0, t_end, 4001)
    probe_values = np.array(
        [
            np.stack([np.interp(probe_x, x, comp) for comp in u_of_tx(t, x)], axis=0)
            for t in probe_times
        ]
    )
    return PdeTrajectory(dom, times, fields, probe_x, probe_times, probe_values,
                         n_times - 1, t_end / (n_times - 1), float(fields.min()),
                         2 * (n_times - 1))


class TestDecayFit:
    def test_recovers_synthetic_rate(self):
        sigma = 2.0

        def u(t, x):
            return (0.5 + 0.1 * np.exp(-sigma * t) * np.cos(np.pi * x))[None, :]

        traj = _synthetic_trajectory(u, t_end=4.0, n_times=81)
        rate, amplitude = decay_fit(traj, window=(0.5, 3.5))
        assert rate == pytest.approx(sigma, rel=1e-6)

    def test_tolerates_multiplicative_noise(self):
        sigma = 1.5
        rng = np.random.default_rng(41)
        noise = {}

        def u(t, x):
            if t not in noise:
                noise[t] = 1.0 + 0.01 * rng.standard_normal()
            amp = 0.1 * noise[t] * np.exp(-sigma * t)
            return (0.5 + amp * np.cos(np.pi * x))[None, :]

        traj = _synthetic_trajectory(u, t_end=4.0, n_times=81)
        rate, _ = decay_fit(traj, window=(0.5, 3.5))
        assert rate == pytest.approx(sigma, rel=0.02)

    def test_window_with_too_few_snapshots_rejected(self):
        def u(t, x):
            return (0.5 + 0.1 * np.exp(-t) * np.cos(np.pi * x))[None, :]

        traj = _synthetic_trajectory(u, t_end=4.0, n_times=81)
        with pytest.raises(ValueError):
            decay_fit(traj, window=(3.9, 4.0))

    @pytest.mark.parametrize("window", [(3.5, 0.5), (2.0, 2.0), (0.5,), (0.5, 1.0, 3.5)])
    def test_window_must_be_an_increasing_pair(self, window):
        def u(t, x):
            return (0.5 + 0.1 * np.exp(-t) * np.cos(np.pi * x))[None, :]

        traj = _synthetic_trajectory(u, t_end=4.0, n_times=81)
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            decay_fit(traj, window=window)

    def test_gradient_free_run_rejected(self):
        def u(t, x):
            return np.full((1, x.size), 0.5)

        traj = _synthetic_trajectory(u, t_end=4.0, n_times=81)
        with pytest.raises(ValueError):
            decay_fit(traj)


def _periodicity_score_by_lag(times, values):
    """Brute-force periodicity_score: one Pearson correlation per lag, O(n^2)."""
    x = values - values.mean()
    var = float(np.mean(x * x))
    if var < 1e-24 or np.sqrt(var) < 1e-12 * max(1.0, np.abs(values).max()):
        return 0.0, None
    n = x.size
    max_lag = n // 2
    floor = 1e-12 * max(1.0, float(np.abs(values).max()))
    corr = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        a = x[: n - lag]
        b = x[lag:]
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt(float(np.mean(da * da)) * float(np.mean(db * db)))
        corr[lag] = 0.0 if denom < floor * floor else float(np.mean(da * db)) / denom
    below = np.nonzero(corr < 0.5)[0]
    if below.size == 0:
        return 0.0, None
    start = int(below[0])
    peaks = [k for k in range(max(start, 1), max_lag)
             if corr[k] >= corr[k - 1] and corr[k] >= corr[k + 1] and corr[k] > 0.0]
    if not peaks:
        return 0.0, None
    best = k0 = peaks[0]
    for k in peaks:
        if k > 1.5 * k0:
            break
        if corr[k] > corr[best]:
            best = k
    return float(corr[best]), float(best * float(times[1] - times[0]))


def _drifting_noisy_sine(rng, n):
    t = np.linspace(0.0, rng.uniform(20.0, 200.0), n)
    drift = rng.uniform(-0.5, 0.5) * t / t[-1]
    values = ((1.0 + drift) * np.sin(2.0 * np.pi * t / rng.uniform(2.0, 30.0) + rng.uniform(0.0, 6.0))
              + rng.uniform(0.0, 2.0) * t / t[-1] + rng.uniform(-5.0, 5.0)
              + rng.uniform(0.0, 0.5) * rng.standard_normal(n))
    return t, values


def _drifting_noisy_sines(count):
    rng = np.random.default_rng(2011)
    for _ in range(count):
        yield _drifting_noisy_sine(rng, int(rng.integers(200, 3000)))


class TestPeriodicityScore:
    def test_matches_brute_force_per_lag_correlation(self):
        t = np.linspace(0.0, 70.0, 1401)
        rng = np.random.default_rng(1999)
        # the FFT length 2n - 1 is prime at these sizes (1501 is the pde-field
        # window), so no fast length rounds it up
        awkward = [_drifting_noisy_sine(rng, n) for n in (201, 1000, 1501, 4096)]
        cases = list(_drifting_noisy_sines(40)) + awkward + [
            (t, np.full_like(t, 0.3)),
            # amplitude just above the variance floor of a unit-offset trace
            (t, 1.0 + 3e-12 * np.sin(2.0 * np.pi * t / 7.0)),
            # a constant stretch: windows with zero variance score 0 at their lags
            (t, 0.1234 + np.where(t > 50.0, np.sin(2.0 * np.pi * t / 3.0), 0.0)),
        ]
        for times, values in cases:
            score, period = periodicity_score(times, values)
            expected_score, expected_period = _periodicity_score_by_lag(times, values)
            assert abs(score - expected_score) <= 1e-12
            assert period == expected_period

    def test_clean_sine(self):
        t = np.linspace(0.0, 70.0, 1401)
        score, period = periodicity_score(t, np.sin(2.0 * np.pi * t / 7.0))
        assert score > 0.99
        assert period == pytest.approx(7.0, rel=0.02)

    def test_growing_amplitude_keeps_base_period(self):
        # amplitude drift must not promote the double-period peak
        t = np.linspace(0.0, 70.0, 1401)
        values = (1.0 + 0.3 * t / 70.0) * np.sin(2.0 * np.pi * t / 7.0)
        score, period = periodicity_score(t, values)
        assert score > 0.9
        assert period == pytest.approx(7.0, rel=0.02)

    def test_constant_scores_zero(self):
        t = np.linspace(0.0, 70.0, 1401)
        score, period = periodicity_score(t, np.full_like(t, 0.3))
        assert score == 0.0
        assert period is None

    def test_aperiodic_noise_scores_low(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 70.0, 1401)
        score, _ = periodicity_score(t, rng.standard_normal(t.size))
        assert score < 0.5

    def test_sampling_validation(self):
        t = np.linspace(0.0, 70.0, 1401)
        with pytest.raises(ValueError):
            periodicity_score(t[:100], np.sin(t[:100]))
        t_bad = np.concatenate([t[:700], t[700:] + 0.01])
        with pytest.raises(ValueError):
            periodicity_score(t_bad, np.sin(t_bad))


class TestClassifyOmega:
    def test_constant_equilibrium(self, reference_kinetics):
        from rdlab.model import condition_report

        P1 = condition_report(reference_kinetics).interior_point

        def u(t, x):
            return np.tile(P1[:, None], (1, x.size))

        traj = _synthetic_trajectory(u)
        cls = classify_omega(traj, reference_kinetics)
        assert cls.kind == "constant-equilibrium"
        assert cls.label == "P_1"
        assert cls.equilibrium_distance < 1e-6

    def test_flat_periodic(self, reference_kinetics):
        def u(t, x):
            level = 0.3 + 0.1 * np.sin(2.0 * np.pi * t / 7.0)
            return np.tile(np.array([[level], [level], [level]]), (1, x.size))

        traj = _synthetic_trajectory(u)
        cls = classify_omega(traj, reference_kinetics)
        assert cls.kind == "flat-periodic"
        assert cls.periodicity > 0.9

    def test_heterogeneous_steady(self, reference_kinetics):
        def u(t, x):
            return np.tile((0.3 + 0.2 * np.cos(np.pi * x))[None, :], (3, 1))

        traj = _synthetic_trajectory(u)
        cls = classify_omega(traj, reference_kinetics)
        assert cls.kind == "heterogeneous-steady"

    def test_heterogeneous_periodic(self, reference_kinetics):
        # cos(2 pi x) is nonzero at all three probe points
        def u(t, x):
            wave = 0.3 + 0.2 * np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * t / 7.0)
            return np.tile(wave[None, :], (3, 1))

        traj = _synthetic_trajectory(u)
        cls = classify_omega(traj, reference_kinetics)
        assert cls.kind == "heterogeneous-periodic"

    def test_short_run_rejected(self, reference_kinetics):
        def u(t, x):
            return np.full((3, x.size), 0.2)

        traj = _synthetic_trajectory(u, t_end=20.0)
        with pytest.raises(ValueError):
            classify_omega(traj, reference_kinetics)

    def test_real_run_with_small_diffusion_stays_heterogeneous(self, reference_model):
        # the benchmark diffusion rates are far below the flattening threshold:
        # at t = 100 the run is still spatially structured and unresolved
        dom = Domain1D(kind="interval", length=1.0, N=32, bc="neumann")
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(reference_model, dom, phi, 100.0, dt=5e-3, probe_stride=5)
        cls = classify_omega(traj, reference_model)
        assert cls.flatness > 1e-2
        assert cls.kind in ("undetermined", "heterogeneous-periodic")

    def test_real_flat_periodic_run_with_large_diffusion(self, reference_kinetics):
        # diffusion above the certificate threshold flattens the field, after
        # which the averaged kinetics settles onto its limit cycle; the late
        # window is long enough to hold two full turns of the slowed cycle
        dom = Domain1D(kind="interval", length=1.0, N=32, bc="neumann")
        phi = Field(dom, reference_phi_values(dom.grid()))
        traj = evolve(reference_kinetics, dom, phi, 400.0, dt=5e-3, probe_stride=5)
        cls = classify_omega(traj, reference_kinetics)
        assert cls.kind == "flat-periodic"
        assert cls.flatness < 1e-4
        assert cls.periodicity > 0.9
