"""Scalar steady-state machinery: time map, Dirichlet profiles, radial shooting."""

import numpy as np
import pytest

from rdlab import NumericalFailure  # noqa: F401  (documents the raised type)
from rdlab.scalar import (
    BLOWUP_THRESHOLD,
    MU_MAX,
    MU_MIN,
    _carlson_rf,
    dirichlet_steady_profile,
    energy,
    kiss_size,
    potential,
    radial_shoot,
    time_map,
)

# Frozen against an adaptive-quadrature oracle with endpoint-singularity
# weighting, run at rtol 1e-12 before the implementation existed.
TIME_MAP_TABLE = [
    ((1e-4, 0.1), 0.993500993016),
    ((0.001, 0.1), 0.993880737197),
    ((0.5, 0.1), 1.314390617295),
    ((0.9, 0.1), 2.220764299736),
    ((0.999, 0.1), 5.107736203378),
    ((0.5, 1.0), 4.156468085807),
    ((0.2, 0.01), 0.344885649264),
]


class TestTimeMap:
    @pytest.mark.parametrize("args,expected", TIME_MAP_TABLE)
    def test_frozen_values(self, args, expected):
        assert time_map(*args) == pytest.approx(expected, abs=5e-10)

    def test_small_amplitude_limit_is_kiss(self):
        assert abs(time_map(1e-4, 0.1) - np.pi * np.sqrt(0.1)) < 1e-3

    def test_kiss_size_closed_form(self):
        assert kiss_size(0.1) == pytest.approx(np.pi * np.sqrt(0.1), rel=1e-15)
        assert kiss_size(1.0) == pytest.approx(np.pi, rel=1e-15)

    def test_diffusion_scaling_law(self):
        # L(mu, D) = sqrt(D) L(mu, 1): substitute x -> x / sqrt(D)
        rng = np.random.default_rng(21)
        for _ in range(10):
            mu = rng.uniform(0.01, 0.99)
            D = rng.uniform(0.05, 5.0)
            assert time_map(mu, D) == pytest.approx(
                np.sqrt(D) * time_map(mu, 1.0), rel=1e-9
            )

    def test_strictly_increasing_on_grid(self):
        mus = np.linspace(1e-3, 0.999, 100)
        lengths = [time_map(float(mu), 0.1) for mu in mus]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_large_amplitude_exceeds_three_kiss(self):
        assert time_map(0.999, 0.1) > 3.0 * np.pi * np.sqrt(0.1)

    def test_upper_endpoint_value(self):
        assert time_map(MU_MAX, 0.1) == pytest.approx(9.47637194091761, abs=1e-8)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            time_map(0.0, 0.1)
        with pytest.raises(ValueError):
            time_map(1.0, 0.1)
        with pytest.raises(ValueError):
            time_map(0.5, 0.0)
        # a NaN fails both range tests; one bad amplitude rejects the array
        for mu in (float("nan"), [0.5, float("nan")], [0.5, 1.0]):
            with pytest.raises(ValueError, match="amplitude mu"):
                time_map(mu, 0.1)

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(14)
        mus = np.concatenate([[MU_MIN, MU_MAX], np.linspace(MU_MIN, MU_MAX, 200),
                              rng.uniform(MU_MIN, MU_MAX, 100)])
        for D in (1e-6, 0.1, 1e6):
            lengths = time_map(mus, D)
            assert isinstance(time_map(0.5, D), float)
            assert lengths.shape == mus.shape
            assert lengths.tolist() == [time_map(float(mu), D) for mu in mus]
            assert np.array_equal(time_map(mus.reshape(2, 151), D), lengths.reshape(2, 151))

    @pytest.mark.parametrize("D", [1e-6, 0.1, 1e6])
    def test_matches_quadrature_of_the_defining_integral(self, D):
        # with t = mu - u, F(mu) - F(u) = t g(t) and g has no root on [0, mu];
        # quad's algebraic weight takes the t^(-1/2) endpoint singularity exactly
        from scipy.integrate import quad

        def reference(mu):
            def g(t):
                return mu * (1.0 - mu) + t * (mu - 0.5) - t * t / 3.0

            value, _ = quad(lambda t: 1.0 / np.sqrt(g(t)), 0.0, mu, weight="alg",
                            wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
            return np.sqrt(2.0 * D) * value

        mus = np.concatenate([[MU_MIN, MU_MAX], np.linspace(MU_MIN, MU_MAX, 50)])
        expected = np.array([reference(mu) for mu in mus])
        np.testing.assert_allclose(time_map(mus, D), expected, rtol=1e-11, atol=0.0)


class TestCarlsonRF:
    def test_matches_scipy_elliprf(self):
        from scipy.special import elliprf

        rng = np.random.default_rng(19)
        x, y, z = 10.0 ** rng.uniform(-200.0, 200.0, (3, 5000))
        zero = rng.integers(0, 4, x.size)  # 3 leaves the triple without a zero
        for k, arg in enumerate((x, y, z)):
            arg[zero == k] = 0.0
        expected = elliprf(x, y, z)
        # scipy returns NaN for a zero next to two arguments whose product
        # underflows; R_F is homogeneous of degree -1/2, so scaling all three
        # by 4^150 and the value by 2^150 is exact
        gap = np.isnan(expected)
        expected[gap] = elliprf(x[gap] * 4.0**150, y[gap] * 4.0**150, z[gap] * 4.0**150) * 2.0**150
        assert np.isfinite(expected).all()
        np.testing.assert_allclose(_carlson_rf(x, y, z), expected, rtol=1e-14, atol=0.0)

    def test_closed_form_values(self):
        # R_F(x, x, x) = x^(-1/2), R_F(0, 1, 1) = pi/2 and the lemniscate
        # constant R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi)) (DLMF 19.20.2)
        from math import gamma, pi, sqrt

        assert _carlson_rf(4.0, 4.0, 4.0) == 0.5
        assert _carlson_rf(0.0, 1.0, 1.0) == pytest.approx(pi / 2.0, rel=1e-15)
        assert _carlson_rf(0.0, 1.0, 2.0) == pytest.approx(
            gamma(0.25) ** 2 / (4.0 * sqrt(2.0 * pi)), rel=1e-15)
        # the time map's mu -> 0 limit
        assert 2.0 * sqrt(6.0) * _carlson_rf(3.0, 1.5, 3.0) == pytest.approx(pi, rel=1e-15)


class TestDirichletProfile:
    def test_below_threshold_returns_none(self):
        assert dirichlet_steady_profile(0.9, 0.1) is None
        # just under the threshold length
        assert dirichlet_steady_profile(0.999 * kiss_size(0.1), 0.1) is None

    def test_just_above_threshold_exists(self):
        profile = dirichlet_steady_profile(1.05 * kiss_size(0.1), 0.1)
        assert profile is not None
        assert 0.0 < profile.mu_star < 1.0

    def test_frozen_amplitude(self):
        profile = dirichlet_steady_profile(2.0, 0.1)
        assert profile.mu_star == pytest.approx(0.8553626171866104, abs=1e-9)

    def test_profile_shape(self):
        profile = dirichlet_steady_profile(2.0, 0.1)
        assert profile.u[0] == pytest.approx(0.0, abs=1e-12)
        assert profile.u[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(profile.u) == pytest.approx(profile.mu_star, abs=1e-9)
        # even about the midpoint
        sym = np.max(np.abs(profile.u - profile.u[::-1]))
        assert sym < 1e-9
        assert np.all(profile.u >= -1e-15)

    def test_energy_identity(self):
        # u'^2/2 + F(u)/D is conserved along the hump and equals F(mu*)/D
        D = 0.1
        profile = dirichlet_steady_profile(2.0, D)
        level = potential(profile.mu_star) / D
        values = energy(profile.u, profile.uprime, D)
        assert np.max(np.abs(values - level)) < 1e-6

    def test_ode_residual_by_differencing(self):
        # second route: difference u' and check D u'' + u(1 - u) = 0 inside
        D = 0.1
        profile = dirichlet_steady_profile(2.0, D)
        x, u, up = profile.x, profile.u, profile.uprime
        h = x[1] - x[0]
        upp = (up[2:] - up[:-2]) / (2.0 * h)
        residual = D * upp + u[1:-1] * (1.0 - u[1:-1])
        assert np.max(np.abs(residual)) < 1e-6

    @pytest.mark.parametrize("L, D", [(2.0, 0.1), (1.05 * np.pi * np.sqrt(0.1), 0.1),
                                      (5.0, 0.3), (30.0, 2.0)])
    def test_matches_solve_ivp_bit_for_bit(self, L, D):
        # the reference is the phase-plane run on scipy's RK45 at the same
        # tolerances, sampled on the same half grid and mirrored
        from scipy.integrate import solve_ivp

        profile = dirichlet_steady_profile(L, D)
        sol = solve_ivp(lambda _, y: [y[1], -y[0] * (1.0 - y[0]) / D], (0.0, L / 2.0),
                        [profile.mu_star, 0.0], method="RK45", rtol=1e-10, atol=1e-12,
                        dense_output=True)
        right, right_slope = sol.sol(np.linspace(0.0, L / 2.0, profile.x.size // 2 + 1))
        u = np.concatenate([right[:0:-1], right])
        u[0] = u[-1] = 0.0
        assert np.array_equal(profile.u, u)
        assert np.array_equal(profile.uprime, np.concatenate([-right_slope[:0:-1], right_slope]))

    def test_length_beyond_map_range_raises(self):
        with pytest.raises(ValueError):
            dirichlet_steady_profile(10.0, 0.1)

    @pytest.mark.parametrize(
        "L, D",
        [
            (float("nan"), 0.1),
            (float("inf"), 0.1),
            (0.0, 0.1),
            (2.0, float("nan")),
            (2.0, float("inf")),
            (2.0, 0.0),
        ],
    )
    def test_non_finite_inputs_rejected(self, L, D):
        # a NaN length used to pass the L <= 0 check, run the bisection on
        # NaN comparisons and leave the profile integration running
        with pytest.raises(ValueError, match="must be finite and positive"):
            dirichlet_steady_profile(L, D)


class TestNonFiniteDiffusion:
    @pytest.mark.parametrize("D", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_kiss_size_and_time_map_reject(self, D):
        # a NaN D passed the D <= 0 checks and wrote NaN lengths
        with pytest.raises(ValueError, match="D must be finite and positive"):
            kiss_size(D)
        with pytest.raises(ValueError, match="D must be finite and positive"):
            time_map(0.5, D)


def _solve_ivp_shoot(c, D, R, m, samples=1000):
    """The former radial_shoot on scipy's solve_ivp, kept as the reference."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        u, up = y
        if r == 0.0:
            return [up, -u * (1.0 - u) / (D * m)]
        return [up, -u * (1.0 - u) / D - (m - 1) * up / r]

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def blow_up(r, y):
        return y[0] - BLOWUP_THRESHOLD

    blow_up.terminal = True
    blow_up.direction = 1

    sol = solve_ivp(rhs, (0.0, R), [c, 0.0], method="RK45", rtol=1e-8, atol=1e-10,
                    dense_output=True, events=[hit_zero, blow_up])
    zero_events, blow_events = sol.t_events
    if blow_events.size:
        outcome, first_zero, r_stop = "blow-up", None, float(blow_events[0])
    elif zero_events.size:
        outcome, first_zero = "hit-zero", float(zero_events[0])
        r_stop = first_zero
    else:
        outcome, first_zero, r_stop = "stayed-positive", None, R
    rr = np.linspace(0.0, r_stop, samples)
    uu, up = sol.sol(rr)
    return outcome, first_zero, rr, uu, up


class TestRadialShoot:
    def test_fewer_than_two_samples_rejected(self):
        # one sample wrote a one-row table and could not be charted
        with pytest.raises(ValueError, match="samples must be at least 2"):
            radial_shoot(0.5, 0.1, 2.0, samples=1)

    def test_frozen_first_zero_m2(self):
        result = radial_shoot(0.5, 0.1, 6.0, m=2)
        assert result.outcome == "hit-zero"
        assert result.first_zero_r == pytest.approx(0.9609038716131156, abs=1e-9)
        # the half-hump bound: first zero beyond half the threshold length
        assert result.first_zero_r > kiss_size(0.1) / 2.0

    def test_frozen_first_zero_m3(self):
        result = radial_shoot(0.9, 0.1, 6.0, m=3)
        assert result.outcome == "hit-zero"
        assert result.first_zero_r == pytest.approx(1.7506990600219852, abs=1e-9)

    def test_m1_reduces_to_half_time_map(self):
        # in one dimension the radial problem is the planar hump cut in half
        result = radial_shoot(0.5, 0.1, 6.0, m=1)
        assert result.first_zero_r == pytest.approx(time_map(0.5, 0.1) / 2.0, abs=1e-8)

    def test_supercritical_amplitude_blows_up(self):
        result = radial_shoot(1.5, 0.1, 10.0, m=2)
        assert result.outcome == "blow-up"
        assert result.first_zero_r is None

    def test_short_window_stays_positive(self):
        result = radial_shoot(0.5, 0.1, 0.5, m=2)
        assert result.outcome == "stayed-positive"
        assert result.first_zero_r is None
        assert np.all(result.u > 0.0)

    def test_profile_starts_at_center_amplitude(self):
        result = radial_shoot(0.5, 0.1, 6.0, m=2)
        assert result.u[0] == pytest.approx(0.5, abs=1e-12)
        assert result.uprime[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("c, R, outcome", [(0.5, 6.0, "hit-zero"), (1.5, 10.0, "blow-up"),
                                               (0.5, 0.5, "stayed-positive")])
    def test_matches_solve_ivp_bit_for_bit(self, c, R, outcome, m):
        result = radial_shoot(c, 0.1, R, m=m)
        ref = _solve_ivp_shoot(c, 0.1, R, m)
        assert result.outcome == ref[0] == outcome
        assert result.first_zero_r == ref[1]
        for mine, theirs in zip((result.r, result.u, result.uprime), ref[2:]):
            assert np.array_equal(mine, theirs)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            radial_shoot(-0.5, 0.1, 6.0)
        with pytest.raises(ValueError):
            radial_shoot(0.5, 0.0, 6.0)
        with pytest.raises(ValueError):
            radial_shoot(0.5, 0.1, 6.0, m=0)

    @pytest.mark.parametrize(
        "c, D, R",
        [
            (float("nan"), 0.1, 6.0),
            (0.5, float("nan"), 6.0),
            (0.5, float("inf"), 6.0),
            (0.5, 0.1, float("nan")),
            (0.5, 0.1, float("inf")),
        ],
    )
    def test_non_finite_inputs_rejected(self, c, D, R):
        # a NaN D or an infinite R would keep the integrator stepping forever
        with pytest.raises(ValueError):
            radial_shoot(c, D, R)
