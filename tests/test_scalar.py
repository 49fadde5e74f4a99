"""Scalar steady-state machinery: time map, Dirichlet profiles, radial shooting."""

import numpy as np
import pytest

from rdlab import NumericalFailure  # noqa: F401  (documents the raised type)
from rdlab.scalar import (
    MU_MAX,
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
