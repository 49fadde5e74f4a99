"""Exception types shared across the package, the negativity tolerance, the
finite-and-positive argument check and the JSON config schema.

Plain ``ValueError`` is raised for ordinary bad arguments; the classes here
mark conditions the CLI maps to dedicated exit codes.  The config schema
(``_parse`` and its key parsers) checks JSON input by type, key by key, for
the CLI's commands and for ``model.load_model``, so a model is read by the
same rules whether it comes from a command's config or a library call.
"""

import json
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


def _load_config(path: str, noun: str = "config"):
    """Read a JSON file; errors name it as ``noun`` (a config, a model file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {noun} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{noun} {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# config schemas: a schema maps each allowed key to (parser, default), where a
# parser takes (value, dotted key path) and returns the parsed value

REQUIRED = object()  # the key must be present
OMIT = object()  # an absent key stays absent, so the library's own default applies


def _parse(obj, schema: dict, where: str = "") -> dict:
    """Check one JSON object against a schema and return its parsed values by key."""
    name = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"{name} has unknown keys: {', '.join(unknown)}")
    parsed = {}
    for key, (parse, default) in schema.items():
        if key in obj:
            parsed[key] = parse(obj[key], f"{where}.{key}" if where else key)
        elif default is REQUIRED:
            raise ConfigError(f"{name} is missing required key {key!r}")
        elif default is not OMIT:
            parsed[key] = default
    return parsed


def _number(value, where: str) -> float:
    """A finite number: NaN, Infinity and literals beyond the float range (1e999) are rejected."""
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer literal too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number")
    return x


def _exact_type(kind: type, what: str):
    def parse(value, where: str):
        if type(value) is not kind:  # also keeps true/false out of the integers
            raise ConfigError(f"{where} must be {what}")
        return value

    return parse


_integer = _exact_type(int, "an integer")
_boolean = _exact_type(bool, "true or false")
_string = _exact_type(str, "a string")


def _nonempty_list(item, what: str):
    def parse(value, where: str) -> list:
        if type(value) is not list or not value:
            raise ConfigError(f"{where} must be a non-empty array of {what}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return parse


_numbers = _nonempty_list(_number, "numbers")
_number_rows = _nonempty_list(_numbers, "number arrays")
