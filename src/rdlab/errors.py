"""Exception types shared across the package, the negativity tolerance and
the finite-and-positive argument check.

Plain ``ValueError`` is raised for ordinary bad arguments; the classes here
mark conditions the CLI maps to dedicated exit codes.
"""

import math

# Densities below -NEGATIVITY_TOL break positivity and raise InvariantViolation,
# in both the kinetic integrator and the reaction-diffusion stepper.
NEGATIVITY_TOL = 1e-8


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""


class DegenerateModelError(ValueError):
    """The interaction matrix is singular where the requested analysis needs it regular."""


class NumericalFailure(RuntimeError):
    """An iteration or integrator failed to converge within its budget, or an
    artifact would have held a NaN or an Infinity."""


class InvariantViolation(RuntimeError):
    """A computed state broke a guaranteed invariant (e.g. negativity beyond tolerance)."""


class NoCycleError(RuntimeError):
    """A periodic orbit was required but none was detected."""


def _require_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and positive.

    A NaN passes every ``<= 0`` test, and a NaN or infinite length, time
    span, step or tolerance would send a bisection, a step loop or an
    adaptive integrator into NaN arithmetic that never terminates.
    """
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
