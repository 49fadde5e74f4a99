"""Command-line front end: validated JSON configs in, reproducible artifacts out.

Every subcommand reads one JSON config, writes CSV/JSON (and optional SVG)
files into an output directory, and finishes with a manifest.json listing
each artifact's sha256.  Outputs carry no timestamps or machine identifiers,
so rerunning a command with the same config reproduces the same bytes.

Exit codes: 0 success, 2 config error, 3 degenerate model, 4 numerical
failure, 5 no periodic orbit where one was required.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import chs_report, classify_omega, decay_fit
from .emit import svg_line_chart, write_csv, write_json, write_manifest
from .errors import (
    ConfigError,
    DegenerateModelError,
    InvariantViolation,
    NoCycleError,
    NumericalFailure,
)
from .kinetics import detect_limit_cycle, integrate, orbital_stability
from .model import (
    CompetitionModel,
    condition_report,
    equilibria,
    load_model,
    model_to_dict,
    region_membership,
    support_solutions,
    two_species_case,
)
from .pde import Domain1D, Field, evolve, neumann_eigenvalue, spatial_average
from .scalar import dirichlet_steady_profile, kiss_size, radial_shoot, time_map

# Built-in three-species benchmark: a competition matrix known to sustain
# oscillatory coexistence at small unequal diffusion rates.
REFERENCE_MATRIX = [[2.0, 1.1, 3.1], [3.1, 2.0, 0.9], [0.95, 2.9, 2.0]]
REFERENCE_DIFFUSION = [1.0e-3, 2.0e-3, 0.5e-3]

# "paper-phi" initial data: one polynomial bump per species on [0, 1],
# ascending coefficients.  Exact spatial averages: 1/10, 1/105, 1/30.
REFERENCE_PHI_COEFFS = (
    (0.0, 0.0, 6.0, -18.0, 18.0, -6.0),
    (0.0, 0.0, 0.0, 0.0, 1.0, -2.0, 1.0),
    (0.0, 0.0, 0.0, 2.0, -4.0, 2.0),
)
REFERENCE_PHI_AVERAGES = (1.0 / 10.0, 1.0 / 105.0, 1.0 / 30.0)

# Pinned parameters of the reproduce-paper run.
REPRODUCTION = {
    "N": 512,
    "dt": 1.0e-3,
    "t_end": 100.0,
    "tol": 1.0e-7,
    "max_time": 24000.0,
    "ode_initial_point": [0.1, 0.0095238, 0.0333333],
    "probes": [0.1, 0.5, 0.9],
    "probe_stride": 10,
}

SVG_W, SVG_H = 640, 400


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def _check_keys(obj: dict, where: str, required=(), optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where} is missing required key {key!r}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {', '.join(unknown)}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _as_float_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty array of numbers")
    return [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _cfg(fn, *args, **kwargs):
    """Run a constructor, converting its ValueError into a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except (DegenerateModelError, NumericalFailure, InvariantViolation, NoCycleError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_model(spec, where: str = "model") -> CompetitionModel:
    if spec == {"preset": "reference"} or spec == "reference":
        return load_model({"n": 3, "a": REFERENCE_MATRIX, "d": REFERENCE_DIFFUSION})
    if isinstance(spec, dict) and set(spec) == {"file"}:
        if not isinstance(spec["file"], str):
            raise ConfigError(f"{where}.file must be a path string")
        return load_model(spec["file"])
    if isinstance(spec, dict):
        _check_keys(spec, where, required=("a", "d"), optional=("n",))
        a = spec["a"]
        if not isinstance(a, list):
            raise ConfigError(f"{where}.a must be a square matrix (array of arrays)")
        n = spec.get("n", len(a))
        return load_model({"n": _as_int(n, f"{where}.n"), "a": a, "d": spec["d"]})
    raise ConfigError(f"{where} must be a preset, a file reference, or inline a/d arrays")


def _parse_domain(spec, where: str = "domain") -> Domain1D:
    _check_keys(spec, where, required=("kind", "length", "N", "bc"), optional=("m",))
    kind = spec["kind"]
    if kind not in ("interval", "radial"):
        raise ConfigError(f"{where}.kind must be 'interval' or 'radial'")
    m = spec.get("m", 2 if kind == "radial" else 1)
    return _cfg(
        Domain1D,
        kind=kind,
        length=_as_float(spec["length"], f"{where}.length"),
        N=_as_int(spec["N"], f"{where}.N"),
        bc=spec["bc"] if isinstance(spec["bc"], str) else "",
        m=_as_int(m, f"{where}.m"),
    )


def _reference_phi_values(x: np.ndarray) -> np.ndarray:
    from numpy.polynomial import polynomial as P

    return np.array([P.polyval(x, np.array(c)) for c in REFERENCE_PHI_COEFFS])


def _parse_phi(spec, domain: Domain1D, n: int, where: str = "phi") -> Field:
    x = domain.grid()
    if spec == "paper-phi":
        if n != 3 or domain.kind != "interval" or abs(domain.length - 1.0) > 0.0:
            raise ConfigError(
                f"{where}: the paper-phi preset needs a 3-species model on an interval of length 1"
            )
        return Field(domain, _reference_phi_values(x))
    if isinstance(spec, dict) and set(spec) == {"constant"}:
        levels = _as_float_list(spec["constant"], f"{where}.constant")
        if len(levels) != n:
            raise ConfigError(f"{where}.constant needs {n} entries, got {len(levels)}")
        return _cfg(Field, domain, np.outer(levels, np.ones_like(x)))
    if isinstance(spec, dict) and set(spec) == {"poly"}:
        coeffs = spec["poly"]
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise ConfigError(f"{where}.poly needs one coefficient array per species ({n})")
        from numpy.polynomial import polynomial as P

        rows = [P.polyval(x, np.array(_as_float_list(c, f"{where}.poly[{i}]")))
                for i, c in enumerate(coeffs)]
        return _cfg(Field, domain, np.array(rows))
    raise ConfigError(f"{where} must be \"paper-phi\", {{\"constant\": [...]}} or {{\"poly\": [[...], ...]}}")


def _eig_columns(n: int) -> list[str]:
    cols = []
    for k in range(1, n + 1):
        cols += [f"eig{k}_re", f"eig{k}_im"]
    return cols


def _condition_dict(rep) -> dict:
    return {
        "W": rep.W,
        "W_u": rep.W_u,
        "W_v": rep.W_v,
        "W_w": rep.W_w,
        "p": rep.p,
        "ineq9_holds": rep.ineq9_holds,
        "case": rep.case,
        "interior_point": None if rep.interior_point is None else list(rep.interior_point),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (written file paths, manifest extras)


def _run_equilibria(config: dict, out: Path):
    _check_keys(config, "config", required=("model",))
    model = _parse_model(config["model"])
    eqs = _cfg(equilibria, model)
    n = model.n

    header = ["label"] + [f"u{i + 1}" for i in range(n)] + ["stability"] + _eig_columns(n)
    rows = []
    for eq in eqs:
        row = [eq.label] + [float(v) for v in eq.point] + [eq.stability]
        for lam in eq.eigenvalues:
            row += [float(np.real(lam)), float(np.imag(lam))]
        rows.append(row)
    csv_path = out / "equilibria.csv"
    write_csv(csv_path, header, rows)

    report = {
        "model": model_to_dict(model),
        "supports": [
            {
                "support": list(sol.support),
                "status": sol.status,
                "point": None if sol.point is None else list(sol.point),
            }
            for sol in support_solutions(model)
        ],
        "equilibrium_count": len(eqs),
    }
    if n == 3:
        report["condition"] = _condition_dict(condition_report(model))
    if n == 2:
        report["two_species_case"] = two_species_case(model)
    json_path = out / "report.json"
    write_json(json_path, report)
    return [csv_path, json_path], None


def _run_timemap(config: dict, out: Path):
    _check_keys(config, "config", required=("D",), optional=("mu", "L_target", "svg"))
    D = _as_float(config["D"], "D")
    if "mu" not in config and "L_target" not in config:
        raise ConfigError("config needs \"mu\" (grid or list) and/or \"L_target\"")

    kiss = _cfg(kiss_size, D)
    report: dict = {"D": D, "kiss": kiss}
    files = []

    # every computation precedes the first write, so a rejected input leaves
    # the output directory empty
    mus: list[float] = []
    if "mu" in config:
        spec = config["mu"]
        if isinstance(spec, dict):
            _check_keys(spec, "mu", required=("start", "stop", "count"))
            start = _as_float(spec["start"], "mu.start")
            stop = _as_float(spec["stop"], "mu.stop")
            count = _as_int(spec["count"], "mu.count")
            if count < 2:
                raise ConfigError("mu.count must be at least 2")
            mus = list(np.linspace(start, stop, count))
        else:
            mus = _as_float_list(spec, "mu")
        lengths = [_cfg(time_map, mu, D) for mu in mus]
    if "L_target" in config:
        L_target = _as_float(config["L_target"], "L_target")
        profile = _cfg(dirichlet_steady_profile, L_target, D)

    if "mu" in config:
        csv_path = out / "timemap.csv"
        write_csv(csv_path, ["mu", "L"], list(zip(mus, lengths)))
        files.append(csv_path)
        report["mu_count"] = len(mus)
        if config.get("svg"):
            _as_bool(config["svg"], "svg")
            svg_path = out / "timemap.svg"
            svg_line_chart(
                svg_path,
                [("L(mu)", np.array(mus), np.array(lengths))],
                title=f"Dirichlet hump length, D = {D:g}",
                x_label="amplitude mu",
                y_label="interval length L",
            )
            files.append(svg_path)

    if "L_target" in config:
        if profile is None:
            report["profile"] = {"L": L_target, "exists": False}
        else:
            report["profile"] = {
                "L": L_target,
                "exists": True,
                "mu_star": float(profile.mu_star),
                "max_value": float(profile.u.max()),
            }
            csv_path = out / "profile.csv"
            write_csv(csv_path, ["x", "u"], list(zip(profile.x, profile.u)))
            files.append(csv_path)

    json_path = out / "report.json"
    write_json(json_path, report)
    files.append(json_path)
    return files, None


def _run_shoot(config: dict, out: Path):
    _check_keys(config, "config", required=("D", "c"), optional=("m", "r_max", "samples", "svg"))
    D = _as_float(config["D"], "D")
    c = _as_float(config["c"], "c")
    m = _as_int(config.get("m", 2), "m")
    r_max = _as_float(config.get("r_max", 10.0), "r_max")
    samples = _as_int(config.get("samples", 1000), "samples")

    result = _cfg(radial_shoot, c, D, r_max, m=m, samples=samples)
    csv_path = out / "shoot.csv"
    write_csv(csv_path, ["r", "u", "uprime"], list(zip(result.r, result.u, result.uprime)))
    report = {
        "D": D,
        "c": c,
        "m": m,
        "r_max": r_max,
        "outcome": result.outcome,
        "first_zero_r": result.first_zero_r,
        "turning_points": list(result.turning_points),
    }
    json_path = out / "report.json"
    write_json(json_path, report)
    files = [csv_path, json_path]
    if config.get("svg"):
        _as_bool(config["svg"], "svg")
        svg_path = out / "shoot.svg"
        svg_line_chart(
            svg_path,
            [("u(r)", result.r, result.u)],
            title=f"Radial profile, c = {c:g}, D = {D:g}, m = {m}",
            x_label="radius r",
            y_label="u",
        )
        files.append(svg_path)
    return files, None


def _solver_counters(orbit) -> dict:
    """Each orbit integration's deterministic counters, keyed by leg."""
    return {leg: asdict(stats) for leg, stats in orbit.solver.items()}


def _run_ode(config: dict, out: Path):
    _check_keys(
        config,
        "config",
        required=("model", "U0", "t_end"),
        optional=("tol", "samples", "detect_cycle", "svg"),
    )
    model = _parse_model(config["model"])
    U0 = _as_float_list(config["U0"], "U0")
    if len(U0) != model.n:
        raise ConfigError(f"U0 needs {model.n} entries, got {len(U0)}")
    t_end = _as_float(config["t_end"], "t_end")
    tol = _as_float(config.get("tol", 1.0e-9), "tol")
    samples = _as_int(config.get("samples", 2001), "samples")
    if samples < 2:
        raise ConfigError("samples must be at least 2")

    traj = _cfg(integrate, model, np.array(U0), t_end, tol=tol)
    t = np.linspace(0.0, t_end, samples)
    states = traj.at(t)
    csv_path = out / "trajectory.csv"
    write_csv(
        csv_path,
        ["t"] + [f"u{i + 1}" for i in range(model.n)],
        np.column_stack([t, states.T]),
    )

    final = states[:, -1]
    report: dict = {
        "model": model_to_dict(model),
        "U0": U0,
        "t_end": t_end,
        "tol": tol,
        "final_state": [float(v) for v in final],
    }
    if model.n in (2, 3):
        report["final_region"] = region_membership(model, final)

    cycle_spec = config.get("detect_cycle")
    if cycle_spec:
        kwargs = {}
        if isinstance(cycle_spec, dict):
            _check_keys(cycle_spec, "detect_cycle", optional=("max_time", "tol"))
            if "max_time" in cycle_spec:
                kwargs["max_time"] = _as_float(cycle_spec["max_time"], "detect_cycle.max_time")
            if "tol" in cycle_spec:
                kwargs["tol"] = _as_float(cycle_spec["tol"], "detect_cycle.tol")
        elif cycle_spec is not True:
            raise ConfigError("detect_cycle must be true or an options object")
        orbit = _cfg(detect_limit_cycle, model, np.array(U0), **kwargs)
        report["cycle"] = {
            "status": orbit.status,
            "periodic": orbit.periodic,
            "period": orbit.period,
            "anchor": None if orbit.anchor is None else [float(v) for v in orbit.anchor],
            "converged_to": orbit.converged_to,
            "solver": _solver_counters(orbit),
        }

    json_path = out / "report.json"
    write_json(json_path, report)
    files = [csv_path, json_path]
    if config.get("svg"):
        _as_bool(config["svg"], "svg")
        svg_path = out / "trajectory.svg"
        svg_line_chart(
            svg_path,
            [(f"u{i + 1}", t, states[i]) for i in range(model.n)],
            title="Kinetic trajectory",
            x_label="time t",
            y_label="density",
        )
        files.append(svg_path)
    return files, None


def _pde_outputs(model, traj, out: Path, *, svg: bool, decay_window=None,
                 classification_extra=None, prefix: str = ""):
    """Shared emission for the pde and reproduce-paper runs."""
    x = traj.domain.grid()
    n = model.n
    files = []

    avgs = np.array([spatial_average(traj.snapshot(i)) for i in range(len(traj.times))])
    avg_path = out / f"{prefix}averages.csv"
    write_csv(
        avg_path,
        ["t"] + [f"avg_u{i + 1}" for i in range(n)],
        np.column_stack([traj.times, avgs]),
    )
    files.append(avg_path)

    from .pde import flatness as field_flatness

    flat = [field_flatness(traj.snapshot(i)) for i in range(len(traj.times))]
    flat_path = out / f"{prefix}flatness.csv"
    write_csv(flat_path, ["t", "flatness"], list(zip(traj.times, flat)))
    files.append(flat_path)

    final_path = out / f"{prefix}final_field.csv"
    write_csv(
        final_path,
        ["x"] + [f"u{i + 1}" for i in range(n)],
        np.column_stack([x, traj.fields[-1].T]),
    )
    files.append(final_path)

    if traj.probe_points is not None:
        header = ["t"]
        for i in range(n):
            for xp in traj.probe_points:
                header.append(f"u{i + 1}@x={xp:.6g}")
        block = traj.probe_values.reshape(traj.probe_values.shape[0], -1)
        probe_path = out / f"{prefix}probes.csv"
        write_csv(probe_path, header, np.column_stack([traj.probe_times, block]))
        files.append(probe_path)
        if svg:
            series = []
            for i in range(n):
                for j, xp in enumerate(traj.probe_points):
                    series.append(
                        (f"u{i + 1}@x={xp:.3g}", traj.probe_times, traj.probe_values[:, i, j])
                    )
            svg_path = out / f"{prefix}probes.svg"
            svg_line_chart(
                svg_path,
                series,
                title="Probe traces",
                x_label="time t",
                y_label="density",
            )
            files.append(svg_path)

    classification = None
    if float(traj.times[-1]) >= 50.0:
        cls = classify_omega(traj, model)
        classification = {
            "kind": cls.kind,
            "label": cls.label,
            "flatness": cls.flatness,
            "periodicity": cls.periodicity,
            "equilibrium_distance": cls.equilibrium_distance,
        }
    cls_obj = {"classification": classification}
    if classification_extra:
        cls_obj.update(classification_extra)
    cls_path = out / f"{prefix}classification.json"
    write_json(cls_path, cls_obj)
    files.append(cls_path)

    if decay_window is not None:
        rate, amplitude = _cfg(decay_fit, traj, decay_window)
        from .pde import grad_l2_norm

        keep = (traj.times >= decay_window[0]) & (traj.times <= decay_window[1])
        times = traj.times[keep]
        grads = [grad_l2_norm(traj.snapshot(i)) for i in np.nonzero(keep)[0]]
        fitted = amplitude * np.exp(-rate * times)
        decay_path = out / f"{prefix}decay.csv"
        write_csv(
            decay_path,
            ["t", "grad_norm", "fitted"],
            np.column_stack([times, grads, fitted]),
        )
        files.append(decay_path)
        return files, {"decay_rate": rate, "decay_amplitude": amplitude}
    return files, None


def _run_pde(config: dict, out: Path):
    _check_keys(
        config,
        "config",
        required=("model", "domain", "phi", "t_end"),
        optional=("dt", "snapshots", "probes", "probe_stride", "svg", "decay_window"),
    )
    model = _parse_model(config["model"])
    domain = _parse_domain(config["domain"])
    phi = _parse_phi(config["phi"], domain, model.n)
    t_end = _as_float(config["t_end"], "t_end")

    kwargs: dict = {}
    if "dt" in config:
        kwargs["dt"] = _as_float(config["dt"], "dt")
    if "snapshots" in config:
        kwargs["snapshots"] = _as_int(config["snapshots"], "snapshots")
    if "probes" in config:
        kwargs["probes"] = _as_float_list(config["probes"], "probes")
    if "probe_stride" in config:
        kwargs["probe_stride"] = _as_int(config["probe_stride"], "probe_stride")

    decay_window = None
    if "decay_window" in config:
        window = _as_float_list(config["decay_window"], "decay_window")
        if len(window) != 2 or window[0] >= window[1]:
            raise ConfigError("decay_window must be [t_lo, t_hi] with t_lo < t_hi")
        decay_window = (window[0], window[1])

    svg = _as_bool(config.get("svg", False), "svg")
    traj = _cfg(evolve, model, domain, phi, t_end, **kwargs)
    files, extras = _pde_outputs(model, traj, out, svg=svg, decay_window=decay_window)
    return files, extras


def _run_floquet(config: dict, out: Path):
    _check_keys(
        config,
        "config",
        required=("model", "U0"),
        optional=("max_time", "tol", "k_max", "L", "eigenvalues"),
    )
    model = _parse_model(config["model"])
    U0 = _as_float_list(config["U0"], "U0")
    if len(U0) != model.n:
        raise ConfigError(f"U0 needs {model.n} entries, got {len(U0)}")
    kwargs = {}
    if "max_time" in config:
        kwargs["max_time"] = _as_float(config["max_time"], "max_time")
    stab_kwargs: dict = {}
    if "tol" in config:
        kwargs["tol"] = stab_kwargs["tol"] = _as_float(config["tol"], "tol")

    orbit = _cfg(detect_limit_cycle, model, np.array(U0), **kwargs)
    if orbit.status != "periodic":
        raise NoCycleError(
            f"no periodic orbit from this initial point (detector status: {orbit.status})"
        )

    if "eigenvalues" in config:
        stab_kwargs["eigenvalues"] = _as_float_list(config["eigenvalues"], "eigenvalues")
    if "k_max" in config:
        stab_kwargs["k_max"] = _as_int(config["k_max"], "k_max")
    if "L" in config:
        stab_kwargs["L"] = _as_float(config["L"], "L")
    verdict = _cfg(orbital_stability, model, orbit, **stab_kwargs)

    header = ["mode_k", "kind", "index", "re", "im", "modulus"]
    rows = []
    for idx, mult in enumerate(verdict.base_multipliers):
        rows.append([0, "base", idx, float(np.real(mult)), float(np.imag(mult)),
                     float(np.abs(mult))])
    for k in sorted(verdict.modal_multipliers):
        for idx, mult in enumerate(verdict.modal_multipliers[k]):
            rows.append([k, "modal", idx, float(np.real(mult)), float(np.imag(mult)),
                         float(np.abs(mult))])
    csv_path = out / "multipliers.csv"
    write_csv(csv_path, header, rows)

    report = {
        "model": model_to_dict(model),
        "U0": U0,
        "period": orbit.period,
        "anchor": [float(v) for v in orbit.anchor],
        "verdict": verdict.verdict,
        "base_multiplier_moduli": [float(np.abs(m)) for m in verdict.base_multipliers],
        "modal_modes": [int(k) for k in sorted(verdict.modal_multipliers)],
        "solver": _solver_counters(orbit),
    }
    json_path = out / "floquet.json"
    write_json(json_path, report)
    return [csv_path, json_path], None


def _run_chs(config: dict, out: Path):
    _check_keys(
        config,
        "config",
        required=("model", "L"),
        optional=("norm", "run"),
    )
    model = _parse_model(config["model"])
    L = _as_float(config["L"], "L")
    norm = config.get("norm", "frobenius")
    if norm not in ("frobenius", "operator"):
        raise ConfigError("norm must be 'frobenius' or 'operator'")

    rep = _cfg(chs_report, model, L, norm=norm)
    report = {
        "model": model_to_dict(model),
        "L": L,
        "norm": norm,
        "lambda1": rep.lambda1,
        "d_min": rep.d_min,
        "M_sup": rep.M_sup,
        "sigma": rep.sigma,
        "flat_guarantee": rep.flat_guarantee,
        "threshold_d": rep.threshold_d,
        "threshold_d_origin": float(np.sqrt(model.n) / rep.lambda1),
        # The classical length floor 2^(-1/4) pi min(d) compares a length to a
        # diffusion rate; it is dimensionally inconsistent, so the sigma sign
        # above is the operative criterion and the floor is reported untouched.
        "length_threshold_note": (
            "classical floor L < 2^(-1/4)*pi*min(d) compares a length to a "
            "diffusion coefficient; sigma > 0 is the operative test"
        ),
        "classical_length_floor": float(2.0 ** -0.25 * np.pi * rep.d_min),
    }
    files = []

    run_spec = config.get("run")
    extras = None
    if run_spec is not None:
        _check_keys(run_spec, "run", required=("phi", "t_end"),
                    optional=("N", "dt", "window"))
        N = _as_int(run_spec.get("N", 128), "run.N")
        domain = _cfg(Domain1D, kind="interval", length=L, N=N, bc="neumann")
        phi = _parse_phi(run_spec["phi"], domain, model.n, where="run.phi")
        t_end = _as_float(run_spec["t_end"], "run.t_end")
        kwargs = {}
        if "dt" in run_spec:
            kwargs["dt"] = _as_float(run_spec["dt"], "run.dt")
        window = None
        if "window" in run_spec:
            w = _as_float_list(run_spec["window"], "run.window")
            if len(w) != 2 or w[0] >= w[1]:
                raise ConfigError("run.window must be [t_lo, t_hi] with t_lo < t_hi")
            window = (w[0], w[1])
        traj = _cfg(evolve, model, domain, phi, t_end, **kwargs)
        rate, amplitude = _cfg(decay_fit, traj, window)
        from .pde import grad_l2_norm

        grads = [grad_l2_norm(traj.snapshot(i)) for i in range(len(traj.times))]
        fitted = amplitude * np.exp(-rate * traj.times)
        decay_path = out / "decay.csv"
        write_csv(
            decay_path,
            ["t", "grad_norm", "fitted"],
            np.column_stack([traj.times, grads, fitted]),
        )
        files.append(decay_path)
        report["run"] = {
            "N": N,
            "t_end": t_end,
            "fitted_decay_rate": rate,
            "fitted_amplitude": amplitude,
            "rate_at_least_sigma": bool(rate >= rep.sigma - 1.0e-6),
        }

    json_path = out / "chs.json"
    write_json(json_path, report)
    files.append(json_path)
    return files, extras


def _run_reproduce(config: dict, out: Path):
    _check_keys(config, "config", optional=("svg",))
    svg = _as_bool(config.get("svg", True), "svg")
    model = load_model({"n": 3, "a": REFERENCE_MATRIX, "d": REFERENCE_DIFFUSION})
    P = REPRODUCTION
    U0 = np.array(P["ode_initial_point"])
    orbit = detect_limit_cycle(model, U0, max_time=P["max_time"], tol=P["tol"])
    traj_ode = integrate(model, U0, P["t_end"], tol=P["tol"])
    domain = Domain1D(kind="interval", length=1.0, N=P["N"], bc="neumann")
    phi = Field(domain, _reference_phi_values(domain.grid()))
    traj_pde = evolve(
        model,
        domain,
        phi,
        P["t_end"],
        dt=P["dt"],
        probes=P["probes"],
        probe_stride=P["probe_stride"],
    )

    files = []

    cond = condition_report(model)
    cond_path = out / "condition.json"
    write_json(cond_path, {"model": model_to_dict(model), "condition": _condition_dict(cond)})
    files.append(cond_path)

    t = np.linspace(0.0, P["t_end"], 2001)
    states = traj_ode.at(t)
    ode_path = out / "ode_run.csv"
    write_csv(ode_path, ["t", "u1", "u2", "u3"], np.column_stack([t, states.T]))
    files.append(ode_path)

    cycle_path = out / "cycle.json"
    write_json(
        cycle_path,
        {
            "U0": [float(v) for v in U0],
            "status": orbit.status,
            "periodic": orbit.periodic,
            "period": orbit.period,
            "anchor": None if orbit.anchor is None else [float(v) for v in orbit.anchor],
            "crossings": None
            if orbit.crossing_times is None
            else len(orbit.crossing_times),
        },
    )
    files.append(cycle_path)

    pde_files, _ = _pde_outputs(model, traj_pde, out, svg=svg)
    files += pde_files

    # side-by-side comparison on the snapshot grid
    avgs = np.array([spatial_average(traj_pde.snapshot(i)) for i in range(len(traj_pde.times))])
    ode_at_snaps = traj_ode.at(traj_pde.times).T
    diff = np.abs(avgs - ode_at_snaps).max(axis=1)
    cmp_path = out / "comparison.csv"
    write_csv(
        cmp_path,
        ["t", "ode_u1", "ode_u2", "ode_u3", "avg_u1", "avg_u2", "avg_u3", "max_abs_diff"],
        np.column_stack([traj_pde.times, ode_at_snaps, avgs, diff]),
    )
    files.append(cmp_path)
    if svg:
        series = [(f"ode_u{i + 1}", traj_pde.times, ode_at_snaps[:, i]) for i in range(3)]
        series += [(f"avg_u{i + 1}", traj_pde.times, avgs[:, i]) for i in range(3)]
        cmp_svg = out / "comparison.svg"
        svg_line_chart(
            cmp_svg,
            series,
            title="Kinetic orbit vs spatial averages",
            x_label="time t",
            y_label="density",
        )
        files.append(cmp_svg)

    sigma_rep = chs_report(model, 1.0)
    sigma_path = out / "sigma_report.json"
    write_json(
        sigma_path,
        {
            "L": 1.0,
            "lambda1": sigma_rep.lambda1,
            "d_min": sigma_rep.d_min,
            "M_sup": sigma_rep.M_sup,
            "sigma": sigma_rep.sigma,
            "flat_guarantee": sigma_rep.flat_guarantee,
            "threshold_d": sigma_rep.threshold_d,
            "threshold_d_origin": float(np.sqrt(3.0) / np.pi**2),
        },
    )
    files.append(sigma_path)

    extras = {
        "pinned": {k: P[k] for k in ("N", "dt", "t_end", "tol", "max_time",
                                     "probes", "probe_stride")},
        "ode_initial_point": [float(v) for v in U0],
        "phi_spatial_average": [float(v) for v in spatial_average(phi)],
        "phi_exact_average": list(REFERENCE_PHI_AVERAGES),
    }
    return files, extras


_HANDLERS = {
    "equilibria": _run_equilibria,
    "timemap": _run_timemap,
    "shoot": _run_shoot,
    "ode": _run_ode,
    "pde": _run_pde,
    "floquet": _run_floquet,
    "chs": _run_chs,
    "reproduce-paper": _run_reproduce,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdlab",
        description="Reaction-diffusion laboratory for competitive systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("equilibria", "enumerate kinetic equilibria and classify the interaction matrix"),
        ("timemap", "amplitude-to-length map for scalar Dirichlet humps"),
        ("shoot", "radial shooting for positive steady profiles"),
        ("ode", "integrate the kinetic system, optionally hunting a limit cycle"),
        ("pde", "evolve the reaction-diffusion system on an interval or disk"),
        ("floquet", "multipliers and modal stability of a detected limit cycle"),
        ("chs", "gradient-collapse certificate, optionally checked by a run"),
        ("reproduce-paper", "pinned benchmark run reproducing the reference scenario"),
    ):
        sp = sub.add_parser(name, help=help_text)
        if name == "reproduce-paper":
            sp.add_argument("--config", default=None, help="optional JSON config")
        else:
            sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory (default rdlab-<command>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        if args.config is None:
            config: dict = {}
        else:
            config = _load_config(args.config)
        out = Path(args.out) if args.out else Path(f"rdlab-{args.command}")
        out.mkdir(parents=True, exist_ok=True)
        files, extras = _HANDLERS[args.command](config, out)
        write_manifest(out, args.command, config, files, extra=extras)
    except ConfigError as exc:
        print(f"rdlab: config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateModelError as exc:
        print(f"rdlab: degenerate model: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailure, InvariantViolation) as exc:
        print(f"rdlab: numerical failure: {exc}", file=sys.stderr)
        return 4
    except NoCycleError as exc:
        print(f"rdlab: no cycle: {exc}", file=sys.stderr)
        return 5
    print(f"rdlab {args.command}: wrote {len(files) + 1} files to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
