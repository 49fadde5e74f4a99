"""Exception types shared across the package, and the negativity tolerance.

Plain ``ValueError`` is raised for ordinary bad arguments; the classes here
mark conditions the CLI maps to dedicated exit codes.
"""

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
