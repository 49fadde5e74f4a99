"""Command-line front end: validated JSON configs in, reproducible artifacts out.

Every subcommand reads one JSON config, writes CSV/JSON (and optional SVG)
files into an output directory, and finishes with a manifest.json listing
each artifact's sha256.  Outputs carry no timestamps or machine identifiers,
so rerunning a command with the same config reproduces the same bytes.

Each command declares its config keys once, in a schema table that
``errors._parse`` checks before the command's handler runs; a model is
read by ``model.load_model``, which checks it by the same schema, so the
library and the CLI accept and reject the same models with the same
message.  A handler runs every computation before it writes its first
file, and it writes into a hidden staging directory inside the output
directory.  The manifest lists every file in that directory; the files
move up into the output directory, by renames on the same filesystem, only
after the manifest is written.  So a run that fails leaves no file of its
own there and overwrites none from an earlier run.

Exit codes: 0 success, 2 config error, 3 degenerate model, 4 numerical
failure or a run too large for memory, 5 no periodic orbit where one was
required.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from .analysis import chs_report, classify_omega, decay_fit
from .emit import svg_line_chart, write_csv, write_json, write_manifest
from .errors import (
    OMIT,
    REQUIRED,
    ConfigError,
    DegenerateModelError,
    InvariantViolation,
    NoCycleError,
    NumericalFailure,
    _boolean,
    _integer,
    _load_config,
    _number,
    _number_rows,
    _numbers,
    _parse,
    _string,
)
from .kinetics import detect_limit_cycle, integrate, orbital_stability
from .model import (
    CompetitionModel,
    condition_report,
    equilibria,
    has_unit_diagonal,
    load_model,
    model_to_dict,
    region_membership,
    support_solutions,
    two_species_case,
)
from .pde import Domain1D, Field, evolve, spatial_average
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


def _reference_model() -> CompetitionModel:
    return load_model({"n": 3, "a": REFERENCE_MATRIX, "d": REFERENCE_DIFFUSION})


_MODEL_FILE = {"file": (_string, REQUIRED)}


def _model(spec, where: str) -> CompetitionModel:
    """The reference preset, inline a/d arrays (n optional), or {"file": path}
    naming a JSON file that holds such arrays; load_model checks both."""
    if spec == "reference" or spec == {"preset": "reference"}:
        return _reference_model()
    if isinstance(spec, dict) and "file" not in spec:
        return load_model(spec)
    # a {"file": path} object; anything that is no object fails here too
    return load_model(_parse(spec, _MODEL_FILE, where)["file"])


_DOMAIN = {
    "kind": (_string, REQUIRED),
    "length": (_number, REQUIRED),
    "N": (_integer, REQUIRED),
    "bc": (_string, REQUIRED),
    "m": (_integer, OMIT),
}


_PHI = {"constant": (_numbers, OMIT), "poly": (_number_rows, OMIT)}


def _phi(spec, where: str):
    """Initial data: "paper-phi", {"constant": levels} or {"poly": coefficient rows}."""
    if spec == "paper-phi":
        return spec
    if isinstance(spec, dict) and len(spec) == 1:
        return _parse(spec, _PHI, where)
    raise ConfigError(f"{where} must be \"paper-phi\", {{\"constant\": [...]}} or {{\"poly\": [[...], ...]}}")


_MU_GRID = {"start": (_number, REQUIRED), "stop": (_number, REQUIRED), "count": (_integer, REQUIRED)}


def _mu(spec, where: str) -> list[float]:
    """An explicit amplitude list, or {"start", "stop", "count"} for an evenly spaced grid."""
    if not isinstance(spec, dict):
        return _numbers(spec, where)
    grid = _parse(spec, _MU_GRID, where)
    if grid["count"] < 2:
        raise ConfigError(f"{where}.count must be at least 2")
    return list(np.linspace(grid["start"], grid["stop"], grid["count"]))


_CYCLE = {"max_time": (_number, OMIT), "tol": (_number, OMIT)}


def _cycle_options(spec, where: str) -> dict | None:
    """Detector keyword arguments: true or an options object runs it; false or null does not."""
    if spec is True:
        return {}
    if isinstance(spec, dict):
        return _parse(spec, _CYCLE, where)
    if not spec:
        return None
    raise ConfigError(f"{where} must be true or an options object")


_CHS_RUN = {
    "phi": (_phi, REQUIRED),
    "t_end": (_number, REQUIRED),
    "N": (_integer, 128),
    "dt": (_number, OMIT),
    "window": (_numbers, OMIT),
}


def _chs_run(spec, where: str) -> dict | None:
    return None if spec is None else _parse(spec, _CHS_RUN, where)


def _picked(parsed: dict, *keys: str) -> dict:
    """The keys that are present, as keyword arguments for a library call."""
    return {key: parsed[key] for key in keys if key in parsed}


# ---------------------------------------------------------------------------
# shared pieces of the handlers


def _phi_field(spec, domain: Domain1D, n: int, where: str = "phi") -> Field:
    x = domain.grid()
    if spec == "paper-phi":
        if n != 3 or domain.kind != "interval" or domain.length != 1.0:
            raise ConfigError(
                f"{where}: the paper-phi preset needs a 3-species model on an interval of length 1"
            )
        spec = {"poly": REFERENCE_PHI_COEFFS}
    if "constant" in spec:
        return Field(domain, np.outer(spec["constant"], np.ones_like(x)))
    return Field(domain, np.array([polyval(x, np.array(c)) for c in spec["poly"]]))


def _eig_columns(n: int) -> list[str]:
    cols = []
    for k in range(1, n + 1):
        cols += [f"eig{k}_re", f"eig{k}_im"]
    return cols


_DECAY_HEADER = ["t", "grad_norm", "fitted"]


def _decay(traj, window, clip: bool):
    """The gradient decay fit (rate, amplitude) and its decay.csv rows.

    The rows (t, gradient norm, fitted curve) cover the fit window when
    ``clip`` is set and every snapshot otherwise.
    """
    rate, amplitude = decay_fit(traj, window)
    grads = traj.grad_l2_norms()
    keep = (traj.times >= window[0]) & (traj.times <= window[1]) if clip else slice(None)
    times = traj.times[keep]
    return rate, amplitude, np.column_stack([times, grads[keep], amplitude * np.exp(-rate * times)])


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed config and the staging directory,
# writes its files there and returns the manifest extras (None for most)


def _run_equilibria(cfg: dict, out: Path):
    model = cfg["model"]
    n = model.n
    eqs = equilibria(model)
    report = {
        "model": model_to_dict(model),
        "supports": support_solutions(model),
        "equilibrium_count": len(eqs),
    }
    if n == 3:
        report["condition"] = condition_report(model)
    if n == 2:
        report["two_species_case"] = two_species_case(model) if has_unit_diagonal(model) else None

    header = ["label"] + [f"u{i + 1}" for i in range(n)] + ["stability"] + _eig_columns(n)
    rows = []
    for eq in eqs:
        row = [eq.label] + [float(v) for v in eq.point] + [eq.stability]
        for lam in eq.eigenvalues:
            row += [float(np.real(lam)), float(np.imag(lam))]
        rows.append(row)
    write_csv(out / "equilibria.csv", header, rows)
    write_json(out / "report.json", report)


def _run_timemap(cfg: dict, out: Path):
    D = cfg["D"]
    if "mu" not in cfg and "L_target" not in cfg:
        raise ConfigError("config needs \"mu\" (grid or list) and/or \"L_target\"")
    report: dict = {"D": D, "kiss": kiss_size(D)}
    if "mu" in cfg:
        mus = cfg["mu"]
        if cfg["svg"] and len(mus) < 2:
            raise ConfigError("svg needs at least 2 mu values")
        lengths = time_map(mus, D)
    if "L_target" in cfg:
        L_target = cfg["L_target"]
        profile = dirichlet_steady_profile(L_target, D)

    if "mu" in cfg:
        write_csv(out / "timemap.csv", ["mu", "L"], np.column_stack([mus, lengths]))
        report["mu_count"] = len(mus)
        if cfg["svg"]:
            svg_line_chart(
                out / "timemap.svg",
                [("L(mu)", np.array(mus), np.array(lengths))],
                title=f"Dirichlet hump length, D = {D:g}",
                x_label="amplitude mu",
                y_label="interval length L",
            )

    if "L_target" in cfg:
        if profile is None:
            report["profile"] = {"L": L_target, "exists": False}
        else:
            report["profile"] = {
                "L": L_target,
                "exists": True,
                "mu_star": float(profile.mu_star),
                "max_value": float(profile.u.max()),
            }
            write_csv(out / "profile.csv", ["x", "u"], np.column_stack([profile.x, profile.u]))

    write_json(out / "report.json", report)


def _run_shoot(cfg: dict, out: Path):
    D, c, m, r_max = cfg["D"], cfg["c"], cfg["m"], cfg["r_max"]
    result = radial_shoot(c, D, r_max, m=m, samples=cfg["samples"])
    report = {
        "D": D,
        "c": c,
        "m": m,
        "r_max": r_max,
        "outcome": result.outcome,
        "first_zero_r": result.first_zero_r,
    }
    write_csv(out / "shoot.csv", ["r", "u", "uprime"],
              np.column_stack([result.r, result.u, result.uprime]))
    write_json(out / "report.json", report)
    if cfg["svg"]:
        svg_line_chart(
            out / "shoot.svg",
            [("u(r)", result.r, result.u)],
            title=f"Radial profile, c = {c:g}, D = {D:g}, m = {m}",
            x_label="radius r",
            y_label="u",
        )


def _run_ode(cfg: dict, out: Path):
    model, U0, t_end, tol = cfg["model"], cfg["U0"], cfg["t_end"], cfg["tol"]
    if cfg["samples"] < 2:
        raise ConfigError("samples must be at least 2")
    traj = integrate(model, np.array(U0), t_end, tol=tol)
    t = np.linspace(0.0, t_end, cfg["samples"])
    states = traj.at(t)

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
    if cfg["detect_cycle"] is not None:
        report["cycle"] = detect_limit_cycle(model, np.array(U0), **cfg["detect_cycle"])

    write_csv(out / "trajectory.csv", ["t"] + [f"u{i + 1}" for i in range(model.n)],
              np.column_stack([t, states.T]))
    write_json(out / "report.json", report)
    if cfg["svg"]:
        svg_line_chart(
            out / "trajectory.svg",
            [(f"u{i + 1}", t, states[i]) for i in range(model.n)],
            title="Kinetic trajectory",
            x_label="time t",
            y_label="density",
        )


def _pde_outputs(model, traj, out: Path, *, svg: bool, decay_window=None):
    """Shared emission for the pde and reproduce-paper runs; computes all, then writes."""
    x = traj.domain.grid()
    n = model.n
    avgs = traj.spatial_averages()

    classification = classify_omega(traj, model) if float(traj.times[-1]) >= 50.0 else None
    extras = None
    if decay_window is not None:
        rate, amplitude, decay_rows = _decay(traj, decay_window, clip=True)
        extras = {"decay_rate": rate, "decay_amplitude": amplitude}

    write_csv(out / "averages.csv", ["t"] + [f"avg_u{i + 1}" for i in range(n)],
              np.column_stack([traj.times, avgs]))
    write_csv(out / "flatness.csv", ["t", "flatness"],
              np.column_stack([traj.times, traj.flatness()]))
    write_csv(out / "final_field.csv", ["x"] + [f"u{i + 1}" for i in range(n)],
              np.column_stack([x, traj.fields[-1].T]))
    if traj.probe_points is not None:
        header = ["t"]
        for i in range(n):
            for xp in traj.probe_points:
                header.append(f"u{i + 1}@x={xp:.6g}")
        block = traj.probe_values.reshape(traj.probe_values.shape[0], -1)
        write_csv(out / "probes.csv", header, np.column_stack([traj.probe_times, block]))
        if svg:
            series = []
            for i in range(n):
                for j, xp in enumerate(traj.probe_points):
                    series.append(
                        (f"u{i + 1}@x={xp:.3g}", traj.probe_times, traj.probe_values[:, i, j])
                    )
            svg_line_chart(
                out / "probes.svg",
                series,
                title="Probe traces",
                x_label="time t",
                y_label="density",
            )
    write_json(out / "classification.json", {
        "classification": classification,
        "solver": {"steps": traj.steps, "dt": traj.dt, "min_value": traj.min_value},
    })
    if decay_window is not None:
        write_csv(out / "decay.csv", _DECAY_HEADER, decay_rows)
    return extras


def _run_pde(cfg: dict, out: Path):
    model, domain = cfg["model"], cfg["domain"]
    phi = _phi_field(cfg["phi"], domain, model.n)
    traj = evolve(model, domain, phi, cfg["t_end"],
                  **_picked(cfg, "dt", "snapshots", "probes", "probe_stride"))
    return _pde_outputs(model, traj, out, svg=cfg["svg"], decay_window=cfg.get("decay_window"))


def _run_floquet(cfg: dict, out: Path):
    model, U0 = cfg["model"], cfg["U0"]
    orbit = detect_limit_cycle(model, np.array(U0), **_picked(cfg, "max_time", "tol"))
    if orbit.status != "periodic":
        raise NoCycleError(
            f"no periodic orbit from this initial point (detector status: {orbit.status})"
        )
    verdict = orbital_stability(model, orbit, **_picked(cfg, "tol", "eigenvalues", "k_max", "L"))

    header = ["mode_k", "kind", "index", "re", "im", "modulus"]
    rows = []
    for idx, mult in enumerate(verdict.base_multipliers):
        rows.append([0, "base", idx, float(np.real(mult)), float(np.imag(mult)),
                     float(np.abs(mult))])
    for k in sorted(verdict.modal_multipliers):
        for idx, mult in enumerate(verdict.modal_multipliers[k]):
            rows.append([k, "modal", idx, float(np.real(mult)), float(np.imag(mult)),
                         float(np.abs(mult))])
    write_csv(out / "multipliers.csv", header, rows)
    write_json(out / "floquet.json",
               {"model": model_to_dict(model), "U0": U0, **vars(orbit), **vars(verdict)})


def _run_chs(cfg: dict, out: Path):
    model, L, norm = cfg["model"], cfg["L"], cfg["norm"]
    rep = chs_report(model, L, norm=norm)
    report = {"model": model_to_dict(model), "norm": norm, **vars(rep)}
    run = cfg.get("run")
    if run is not None:
        domain = Domain1D(kind="interval", length=L, N=run["N"], bc="neumann")
        phi = _phi_field(run["phi"], domain, model.n, where="run.phi")
        traj = evolve(model, domain, phi, run["t_end"], **_picked(run, "dt"))
        rate, amplitude, decay_rows = _decay(traj, run.get("window"), clip=False)
        report["run"] = {
            "N": run["N"],
            "t_end": run["t_end"],
            "fitted_decay_rate": rate,
            "fitted_amplitude": amplitude,
            "rate_at_least_sigma": bool(rate >= rep.sigma - 1.0e-6),
        }
        write_csv(out / "decay.csv", _DECAY_HEADER, decay_rows)
    write_json(out / "chs.json", report)


def _run_reproduce(cfg: dict, out: Path):
    svg = cfg["svg"]
    model = _reference_model()
    P = REPRODUCTION
    U0 = np.array(P["ode_initial_point"])
    orbit = detect_limit_cycle(model, U0, max_time=P["max_time"], tol=P["tol"])
    traj_ode = integrate(model, U0, P["t_end"], tol=P["tol"])
    domain = Domain1D(kind="interval", length=1.0, N=P["N"], bc="neumann")
    phi = _phi_field("paper-phi", domain, model.n)
    traj_pde = evolve(
        model,
        domain,
        phi,
        P["t_end"],
        dt=P["dt"],
        probes=P["probes"],
        probe_stride=P["probe_stride"],
    )
    cond = condition_report(model)
    sigma_rep = chs_report(model, 1.0)
    t = np.linspace(0.0, P["t_end"], 2001)
    states = traj_ode.at(t)
    # side-by-side comparison on the snapshot grid
    avgs = traj_pde.spatial_averages()
    ode_at_snaps = traj_ode.at(traj_pde.times).T
    diff = np.abs(avgs - ode_at_snaps).max(axis=1)

    _pde_outputs(model, traj_pde, out, svg=svg)
    write_json(out / "condition.json", {"model": model_to_dict(model), "condition": cond})
    write_csv(out / "ode_run.csv", ["t", "u1", "u2", "u3"], np.column_stack([t, states.T]))
    write_json(out / "cycle.json", {"U0": [float(v) for v in U0], **vars(orbit)})
    write_csv(
        out / "comparison.csv",
        ["t", "ode_u1", "ode_u2", "ode_u3", "avg_u1", "avg_u2", "avg_u3", "max_abs_diff"],
        np.column_stack([traj_pde.times, ode_at_snaps, avgs, diff]),
    )
    if svg:
        series = [(f"ode_u{i + 1}", traj_pde.times, ode_at_snaps[:, i]) for i in range(3)]
        series += [(f"avg_u{i + 1}", traj_pde.times, avgs[:, i]) for i in range(3)]
        svg_line_chart(
            out / "comparison.svg",
            series,
            title="Kinetic orbit vs spatial averages",
            x_label="time t",
            y_label="density",
        )
    write_json(out / "sigma_report.json", sigma_rep)

    extras = {
        "pinned": {k: P[k] for k in ("N", "dt", "t_end", "tol", "max_time",
                                     "probes", "probe_stride")},
        "ode_initial_point": [float(v) for v in U0],
        "phi_spatial_average": [float(v) for v in spatial_average(phi)],
        "phi_exact_average": list(REFERENCE_PHI_AVERAGES),
    }
    return extras


# ---------------------------------------------------------------------------
# the commands: name -> (help text, handler, config schema)

_COMMANDS = {
    "equilibria": (
        "enumerate kinetic equilibria and classify the interaction matrix",
        _run_equilibria,
        {"model": (_model, REQUIRED)},
    ),
    "timemap": (
        "amplitude-to-length map for scalar Dirichlet humps",
        _run_timemap,
        {"D": (_number, REQUIRED), "mu": (_mu, OMIT), "L_target": (_number, OMIT),
         "svg": (_boolean, False)},
    ),
    "shoot": (
        "radial shooting for positive steady profiles",
        _run_shoot,
        {"D": (_number, REQUIRED), "c": (_number, REQUIRED), "m": (_integer, 2),
         "r_max": (_number, 10.0), "samples": (_integer, 1000), "svg": (_boolean, False)},
    ),
    "ode": (
        "integrate the kinetic system, optionally hunting a limit cycle",
        _run_ode,
        {"model": (_model, REQUIRED), "U0": (_numbers, REQUIRED), "t_end": (_number, REQUIRED),
         "tol": (_number, 1.0e-9), "samples": (_integer, 2001),
         "detect_cycle": (_cycle_options, None), "svg": (_boolean, False)},
    ),
    "pde": (
        "evolve the reaction-diffusion system on an interval or disk",
        _run_pde,
        {"model": (_model, REQUIRED),
         "domain": (lambda spec, where: Domain1D(**_parse(spec, _DOMAIN, where)), REQUIRED),
         "phi": (_phi, REQUIRED), "t_end": (_number, REQUIRED), "dt": (_number, OMIT),
         "snapshots": (_integer, OMIT), "probes": (_numbers, OMIT),
         "probe_stride": (_integer, OMIT), "svg": (_boolean, False),
         "decay_window": (_numbers, OMIT)},
    ),
    "floquet": (
        "multipliers and modal stability of a detected limit cycle",
        _run_floquet,
        {"model": (_model, REQUIRED), "U0": (_numbers, REQUIRED), "max_time": (_number, OMIT),
         "tol": (_number, OMIT), "k_max": (_integer, OMIT), "L": (_number, OMIT),
         "eigenvalues": (_numbers, OMIT)},
    ),
    "chs": (
        "gradient-collapse certificate, optionally checked by a run",
        _run_chs,
        {"model": (_model, REQUIRED), "L": (_number, REQUIRED),
         "norm": (_string, "frobenius"), "run": (_chs_run, OMIT)},
    ),
    "reproduce-paper": (
        "pinned benchmark run reproducing the reference scenario",
        _run_reproduce,
        {"svg": (_boolean, True)},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdlab",
        description="Reaction-diffusion laboratory for competitive systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "reproduce-paper":
            sp.add_argument("--config", default=None, help="optional JSON config")
        else:
            sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory (default rdlab-<command>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, handler, schema = _COMMANDS[args.command]
    try:
        config = {} if args.config is None else _load_config(args.config)
        out = Path(args.out) if args.out else Path(f"rdlab-{args.command}")
        # the run writes into a staging directory inside out (same filesystem,
        # writable whenever out is), and its files move up into out only once
        # all of them, the manifest last, are written
        try:
            out.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        except OSError as exc:  # out, or a parent of it, is a file or not writable
            raise ConfigError(f"cannot write into output directory {out}: {exc}") from exc
        try:
            extras = handler(_parse(config, schema), staging)
            files = sorted(staging.iterdir())
            files.append(write_manifest(staging, args.command, config, files, extra=extras))
            for f in files:
                os.replace(f, out / f.name)
        except BaseException:
            shutil.rmtree(staging)
            raise
        staging.rmdir()
    except DegenerateModelError as exc:
        print(f"rdlab: degenerate model: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and every library argument check
        print(f"rdlab: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, InvariantViolation) as exc:
        print(f"rdlab: numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # e.g. numpy refusing a step index array for t_end / dt steps
        print(f"rdlab: out of memory: {exc}", file=sys.stderr)
        return 4
    except NoCycleError as exc:
        print(f"rdlab: no cycle: {exc}", file=sys.stderr)
        return 5
    print(f"rdlab {args.command}: wrote {len(files)} files to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
