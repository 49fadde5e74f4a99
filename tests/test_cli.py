"""End-to-end CLI runs: artifacts, manifests, exit codes, determinism."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rdlab import cli, emit
from rdlab.cli import main
from rdlab.errors import ConfigError
from rdlab.kinetics import OrbitAnalysis, StabilityVerdict, integrate
from rdlab.model import load_model
from rdlab.scalar import dirichlet_steady_profile, radial_shoot, time_map
from test_emit import _csv_reference


# the fields of kinetics.OrbitAnalysis, the keys of every cycle object
ORBIT_KEYS = {"status", "period", "anchor", "monodromy", "multipliers", "reason",
              "converged_to", "crossing_times", "solver"}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, payload, out_name="out"):
    out = tmp_path / out_name
    rc = main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)])
    return rc, out


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEquilibria:
    def test_reference_run(self, tmp_path):
        rc, out = _run(tmp_path, "equilibria", {"model": {"preset": "reference"}})
        assert rc == 0
        header, rows = _csv_rows(out / "equilibria.csv")
        assert header[:5] == ["label", "u1", "u2", "u3", "stability"]
        assert len(rows) == 5
        report = json.loads((out / "report.json").read_text())
        assert len(report["supports"]) == 8
        assert report["condition"]["case"] == "periodic-attractor-candidate"
        assert report["condition"]["p"] == pytest.approx(-99.0 / 37759.0, abs=1e-15)

    def test_two_species_report(self, tmp_path):
        payload = {"model": {"a": [[1.0, 0.3], [1.5, 1.0]], "d": [1.0, 1.0]}}
        rc, out = _run(tmp_path, "equilibria", payload)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["two_species_case"] == "u-wins"

    def test_model_from_file(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(
            json.dumps({"n": 2, "a": [[1.0, 0.3], [0.4, 1.0]], "d": [1.0, 1.0]})
        )
        rc, out = _run(tmp_path, "equilibria", {"model": {"file": str(model_file)}})
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["two_species_case"] == "coexistence"


class TestTimemap:
    def test_grid_profile_and_svg(self, tmp_path):
        payload = {
            "D": 0.1,
            "mu": {"start": 0.01, "stop": 0.9, "count": 20},
            "L_target": 2.0,
            "svg": True,
        }
        rc, out = _run(tmp_path, "timemap", payload)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kiss"] == pytest.approx(np.pi * np.sqrt(0.1), rel=1e-12)
        assert report["profile"]["exists"]
        assert report["profile"]["mu_star"] == pytest.approx(0.8553626171866104, abs=1e-8)
        _, rows = _csv_rows(out / "timemap.csv")
        lengths = [float(r[1]) for r in rows]
        assert lengths == sorted(lengths)
        ET.fromstring((out / "timemap.svg").read_text())  # well-formed XML

    def test_explicit_mu_list_full_precision(self, tmp_path):
        rc, out = _run(tmp_path, "timemap", {"D": 0.1, "mu": [0.5]})
        assert rc == 0
        _, rows = _csv_rows(out / "timemap.csv")
        assert float(rows[0][1]) == pytest.approx(1.314390617295, abs=5e-10)
        assert len(rows[0][1]) >= 13  # full float precision, not a rounded echo

    def test_subthreshold_profile_reported_absent(self, tmp_path):
        rc, out = _run(tmp_path, "timemap", {"D": 0.1, "L_target": 0.9})
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["profile"] == {"L": 0.9, "exists": False}
        assert not (out / "profile.csv").exists()


class TestShoot:
    def test_hit_zero_run(self, tmp_path):
        rc, out = _run(tmp_path, "shoot", {"D": 0.1, "c": 0.5, "m": 2, "r_max": 6.0})
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"] == "hit-zero"
        assert report["first_zero_r"] == pytest.approx(0.9609038716131156, abs=1e-8)
        header, rows = _csv_rows(out / "shoot.csv")
        assert header == ["r", "u", "uprime"]
        assert float(rows[0][1]) == 0.5

    def test_blow_up_is_a_result_not_an_error(self, tmp_path):
        rc, out = _run(tmp_path, "shoot", {"D": 0.1, "c": 1.5})
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["outcome"] == "blow-up"


class TestFloatTables:
    """timemap and shoot hand their numeric tables to write_csv as float arrays."""

    def test_csv_bytes_match_the_library_outputs(self, tmp_path, monkeypatch):
        def refuse(value):
            raise AssertionError("a numeric table took the per-value path")

        monkeypatch.setattr(emit, "_fmt", refuse)
        rc, timemap = _run(tmp_path, "timemap", {
            "D": 0.1, "mu": {"start": 0.01, "stop": 0.9, "count": 20}, "L_target": 2.0})
        assert rc == 0
        mus = np.linspace(0.01, 0.9, 20)
        assert (timemap / "timemap.csv").read_text() == _csv_reference(
            ["mu", "L"], [(mu, time_map(mu, 0.1)) for mu in mus])
        profile = dirichlet_steady_profile(2.0, 0.1)
        assert (timemap / "profile.csv").read_text() == _csv_reference(
            ["x", "u"], zip(profile.x, profile.u))

        rc, shoot = _run(tmp_path, "shoot", {"D": 0.1, "c": 0.5, "m": 2, "r_max": 6.0},
                         out_name="shoot")
        assert rc == 0
        result = radial_shoot(0.5, 0.1, 6.0, m=2, samples=1000)
        assert (shoot / "shoot.csv").read_text() == _csv_reference(
            ["r", "u", "uprime"], zip(result.r, result.u, result.uprime))


class TestOde:
    def test_trajectory_with_cycle_detection(self, tmp_path):
        payload = {
            "model": {"preset": "reference"},
            "U0": [0.1, 0.0095238, 0.0333333],
            "t_end": 50.0,
            "samples": 501,
            "detect_cycle": {"tol": 1e-7, "max_time": 24000.0},
        }
        rc, out = _run(tmp_path, "ode", payload)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cycle"]["status"] == "periodic"
        assert report["cycle"]["period"] == pytest.approx(207.76984226637737, rel=1e-5)
        assert report["final_region"] == "A"
        _, rows = _csv_rows(out / "trajectory.csv")
        assert len(rows) == 501
        # the trajectory leg's counters, as the library reports them (tol 1e-9)
        traj = integrate(cli._reference_model(), payload["U0"], np.linspace(0.0, 50.0, 501),
                         tol=1e-9)
        assert report["solver"] == vars(traj.stats)
        assert report["solver"]["nfev"] == 2 + 6 * (traj.stats.accepted_steps
                                                    + traj.stats.rejected_steps)

    def test_converging_orbit_still_exits_zero(self, tmp_path):
        payload = {
            "model": {"a": [[1.0, 0.3], [0.3, 1.0]], "d": [1.0, 1.0]},
            "U0": [0.4, 0.5],
            "t_end": 30.0,
            "detect_cycle": {"max_time": 200.0, "tol": 1e-10},
        }
        rc, out = _run(tmp_path, "ode", payload)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cycle"]["status"] == "converged"
        assert report["cycle"]["multipliers"] is None
        # the orbit settled after the transient leg, so only that leg ran
        solver = report["cycle"]["solver"]
        assert list(solver) == ["transient"]
        leg = solver["transient"]
        assert leg["nfev"] == 2 + 6 * (leg["accepted_steps"] + leg["rejected_steps"])

    def test_round_off_dips_are_clamped_in_the_trajectory(self, tmp_path):
        # u2 wins, u1 dies out, and the interpolant between steps dips below
        # zero by round-off; the samples are clamped, as integrate clamps them
        payload = {"model": {"a": [[1, 2], [0.5, 1]], "d": [1, 1]}, "U0": [0.5, 0.5],
                   "t_end": 200}
        rc, out = _run(tmp_path, "ode", payload)
        assert rc == 0
        _, rows = _csv_rows(out / "trajectory.csv")
        cells = np.array(rows, dtype=float)[:, 1:]
        assert cells.min() == 0.0
        assert cells[-1, 0] < 1e-10


class TestPde:
    def test_reference_phi_short_run(self, tmp_path):
        payload = {
            "model": {"preset": "reference"},
            "domain": {"kind": "interval", "length": 1.0, "N": 32, "bc": "neumann"},
            "phi": "paper-phi",
            "t_end": 0.5,
            "dt": 0.01,
            "svg": True,
        }
        rc, out = _run(tmp_path, "pde", payload)
        assert rc == 0
        for name in (
            "averages.csv",
            "flatness.csv",
            "final_field.csv",
            "probes.csv",
            "probes.svg",
            "classification.json",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        header, rows = _csv_rows(out / "averages.csv")
        assert header == ["t", "avg_u1", "avg_u2", "avg_u3"]
        first = np.array([float(v) for v in rows[0][1:]])
        exact = np.array([1.0 / 10.0, 1.0 / 105.0, 1.0 / 30.0])
        # N = 32 grid quadrature: averages are accurate to O(h^2) here
        assert np.max(np.abs(first - exact)) < 1e-6
        # short runs cannot be classified: recorded as null, not guessed
        report = json.loads((out / "classification.json").read_text())
        assert report["classification"] is None
        solver = report["solver"]
        assert solver["steps"] == 50 and solver["dt"] == 0.01
        # a probe sample every step: no half steps merge
        assert solver["diffusion_solves"] == 100
        # paper-phi vanishes at x = 1, and no later state dips below that
        assert solver["min_value"] == 0.0

    def test_dirichlet_decay_outputs(self, tmp_path):
        payload = {
            "model": {"a": [[1.0]], "d": [0.1]},
            "domain": {"kind": "interval", "length": 0.9, "N": 48, "bc": "dirichlet"},
            "phi": {"poly": [[0.0, 0.45, -0.5]]},
            "t_end": 25.0,
            "dt": 0.005,
            "decay_window": [5.0, 20.0],
        }
        rc, out = _run(tmp_path, "pde", payload)
        assert rc == 0
        manifest = _manifest(out)
        # extinction on a subcritical interval: gradient dies at D (pi/L)^2 - 1
        assert manifest["decay_rate"] == pytest.approx(
            0.1 * (np.pi / 0.9) ** 2 - 1.0, rel=0.05
        )
        assert (out / "decay.csv").exists()

    @pytest.mark.parametrize("length", [1000.0, 0.001])
    def test_radial_grid_at_large_m_runs_at_any_radius(self, tmp_path, length):
        # r^(m-1) at m = 120 leaves the float range on these radii; the cell
        # geometry takes its powers relative to the rim face
        payload = {
            "model": {"a": [[1.0]], "d": [0.1]},
            "domain": {"kind": "radial", "length": length, "N": 64, "bc": "neumann", "m": 120},
            "phi": {"constant": [0.5]},
            "t_end": 0.01,
            "dt": 1e-3,
        }
        rc, out = _run(tmp_path, "pde", payload)
        assert rc == 0
        _, rows = _csv_rows(out / "averages.csv")
        assert np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_radial_gradient_norm_at_large_m_and_radius_is_finite(self, tmp_path):
        # r^(m-1) overflows at the rim, but the norm, about r^((m-1)/2), does not
        payload = {
            "model": {"a": [[1.0]], "d": [0.1]},
            "domain": {"kind": "radial", "length": 1000.0, "N": 64, "bc": "neumann", "m": 120},
            "phi": {"poly": [[0.5, 0.0, 3e-8, -2e-11]]},  # zero slope at 0 and 1000
            "t_end": 0.01,
            "dt": 1e-3,
            "decay_window": [0.0, 0.01],
        }
        rc, out = _run(tmp_path, "pde", payload)
        assert rc == 0
        _, rows = _csv_rows(out / "decay.csv")
        grads = np.array(rows, dtype=float)[:, 1]
        assert grads.size > 0 and np.all(np.isfinite(grads)) and np.all(grads > 1e150)


class TestFloquet:
    def test_circulant_cycle_base_only(self, tmp_path):
        payload = {
            "model": {"a": [[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]],
                      "d": [0.01, 0.01, 0.01]},
            "U0": [0.45, 0.3, 0.25],
            "max_time": 2000.0,
        }
        rc, out = _run(tmp_path, "floquet", payload)
        assert rc == 0
        report = json.loads((out / "floquet.json").read_text())
        assert report["period"] == pytest.approx(55.543542261712105, rel=1e-5)
        assert report["verdict"] == "inconclusive"
        # the detector's OrbitAnalysis and the StabilityVerdict, written whole
        assert {f.name for f in fields(OrbitAnalysis)} == ORBIT_KEYS
        assert set(report) == {"model", "U0", *ORBIT_KEYS,
                               *(f.name for f in fields(StabilityVerdict))}
        assert report["modal_multipliers"] == {}
        assert len(report["multipliers"]) == 3
        solver = report["solver"]
        assert set(solver) == {"transient", "section", "closure", "monodromy"}
        for leg in solver.values():
            assert set(leg) == {"accepted_steps", "rejected_steps", "nfev", "min_state"}
            assert leg["accepted_steps"] > 0
            assert leg["nfev"] == 2 + 6 * (leg["accepted_steps"] + leg["rejected_steps"])
            assert leg["min_state"] > 0.0
        header, rows = _csv_rows(out / "multipliers.csv")
        assert header == ["mode_k", "kind", "index", "re", "im", "modulus"]
        assert len(rows) == 3
        moduli = sorted(float(r[5]) for r in rows)
        assert moduli[-1] == pytest.approx(1.0, abs=1e-3)

    def test_no_cycle_names_the_reason(self, tmp_path, capsys):
        # at this horizon the reference orbit crosses its section twice
        payload = {"model": {"preset": "reference"}, "U0": [0.1, 0.0095238, 0.0333333],
                   "max_time": 100.0}
        rc, out = _run(tmp_path, "floquet", payload)
        assert rc == 5
        assert "(detector status: undetermined, reason: no-crossings)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_multiplier_rows_are_the_json_multipliers(self, tmp_path):
        payload = {"model": CIRCULANT, "U0": [0.45, 0.3, 0.25], "max_time": 400.0,
                   "k_max": 2, "L": 1.0}
        rc, out = _run(tmp_path, "floquet", payload)
        assert rc == 0
        report = json.loads((out / "floquet.json").read_text())
        _, rows = _csv_rows(out / "multipliers.csv")
        groups = {}
        for k, kind, index, real, imag, _ in rows:
            groups.setdefault((int(k), kind), []).append((int(index), real, imag))
        # the base rows are the orbit's multipliers, mode k's the verdict's
        want = {(0, "base"): report["multipliers"]}
        want.update({(int(k), "modal"): m for k, m in report["modal_multipliers"].items()})
        assert list(groups) == [(0, "base"), (1, "modal"), (2, "modal")]
        for key, mults in want.items():
            assert groups[key] == [(i, format(m["re"], ".15g"), format(m["im"], ".15g"))
                                   for i, m in enumerate(mults)]


class TestChs:
    @pytest.mark.parametrize("norm, m_sup", [("frobenius", np.sqrt(6.0)),
                                             ("operator", 1.0 + np.sqrt(2.0))],
                             ids=["frobenius", "operator"])
    def test_region_from_the_rows_of_a(self, tmp_path, norm, m_sup):
        # the triangles (a U)_i <= 1 reach (2, 0), where J = [[-1, -2], [0, -1]];
        # read as if a[i, i] = 1 they would stop at u + v <= 1, with M_sup = sqrt 2
        payload = {"model": {"a": [[0.5, 1.0], [1.0, 0.5]], "d": [0.2, 0.2]}, "L": 1.0,
                   "norm": norm}
        rc, out = _run(tmp_path, "chs", payload)
        assert rc == 0
        report = json.loads((out / "chs.json").read_text())
        assert report["M_sup"] == pytest.approx(m_sup, rel=0.0, abs=1e-12)
        assert report["sigma"] == pytest.approx(0.2 * np.pi**2 - m_sup, rel=0.0, abs=1e-12)
        assert report["flat_guarantee"] is False

    def test_certificate_values(self, tmp_path):
        payload = {
            "model": {"a": [[2.0, 1.1, 3.1], [3.1, 2.0, 0.9], [0.95, 2.9, 2.0]],
                      "d": [1.0, 1.0, 1.0]},
            "L": 1.0,
        }
        rc, out = _run(tmp_path, "chs", payload)
        assert rc == 0
        report = json.loads((out / "chs.json").read_text())
        assert report["sigma"] == pytest.approx(4.453293871486534, abs=1e-9)
        assert report["threshold_d"] == pytest.approx(0.5487869938338156, abs=1e-9)
        assert report["flat_guarantee"] is True
        assert report["threshold_d_origin"] == pytest.approx(np.sqrt(3.0) / np.pi**2, rel=1e-12)
        # the dimensionally inconsistent length floor and its note are gone;
        # threshold_d is the diffusion floor
        assert not {"classical_length_floor", "length_threshold_note"} & set(report)

    @pytest.mark.parametrize("norm, origin_norm", [("frobenius", np.sqrt(3.0)), ("operator", 1.0)])
    def test_origin_threshold_uses_the_chosen_norm(self, tmp_path, norm, origin_norm):
        # J(0) = I has Frobenius norm sqrt(n) but operator norm 1; the operator
        # run used to write sqrt(3) / pi^2 as well
        payload = {"model": {"preset": "reference"}, "L": 1.0, "norm": norm}
        rc, out = _run(tmp_path, "chs", payload)
        assert rc == 0
        report = json.loads((out / "chs.json").read_text())
        assert report["L"] == 1.0
        assert report["norm"] == norm
        assert report["threshold_d_origin"] == pytest.approx(origin_norm / np.pi**2, rel=1e-12)
        assert report["threshold_d_origin"] <= report["threshold_d"]

    def test_run_records_the_solver_counters_of_the_same_pde_run(self, tmp_path):
        phi = {"poly": [[0.5, 0.0, 0.03, -0.02], [0.25, 0.0, -0.03, 0.02]]}
        run = {"phi": phi, "t_end": 2.0, "N": 16, "dt": 0.05, "window": [0.2, 1.0]}
        rc, out = _run(tmp_path, "chs", {"model": TWO_SPECIES_SINK, "L": 1.0, "run": run})
        assert rc == 0
        solver = json.loads((out / "chs.json").read_text())["run"]["solver"]
        assert solver["steps"] == 40 and solver["dt"] == 0.05
        # the pde command on the same interval writes the same counters
        pde = {"model": TWO_SPECIES_SINK, "phi": phi, "t_end": 2.0, "dt": 0.05,
               "domain": {"kind": "interval", "length": 1.0, "N": 16, "bc": "neumann"}}
        rc, out = _run(tmp_path, "pde", pde, out_name="pde")
        assert rc == 0
        assert solver == json.loads((out / "classification.json").read_text())["solver"]
        assert 0.0 < solver["min_value"] <= 0.25


class TestReproducePaper:
    def test_pinned_run_artifacts(self, reproduction_run):
        out = reproduction_run.out_dir
        manifest = _manifest(out)
        names = {e["name"] for e in manifest["files"]}
        assert {
            "condition.json",
            "ode_run.csv",
            "cycle.json",
            "probes.csv",
            "averages.csv",
            "flatness.csv",
            "final_field.csv",
            "classification.json",
            "comparison.csv",
            "sigma_report.json",
        } <= names
        assert manifest["pinned"]["N"] == 512
        assert manifest["pinned"]["dt"] == 0.001

    def test_initial_point_matches_phi_average(self, reproduction_run):
        manifest = _manifest(reproduction_run.out_dir)
        u0 = np.array(manifest["ode_initial_point"])
        phi_avg = np.array(manifest["phi_spatial_average"])
        assert np.max(np.abs(u0 - phi_avg)) < 1e-5

    def test_cycle_and_condition(self, reproduction_run):
        out = reproduction_run.out_dir
        cycle = json.loads((out / "cycle.json").read_text())
        assert cycle["status"] == "periodic"
        assert cycle["period"] == pytest.approx(207.76984226637737, rel=1e-5)
        for leg in cycle["solver"].values():  # the detector's counters, leg by leg
            assert leg["nfev"] == 2 + 6 * (leg["accepted_steps"] + leg["rejected_steps"])
        assert {"transient", "section", "closure"} <= set(cycle["solver"])
        # the section's return gaps: the period is the mean of the last three
        assert set(cycle) == {"U0", *ORBIT_KEYS}
        gaps = np.diff(cycle["crossing_times"])
        assert (gaps > 0.0).all()
        assert gaps[-3:].mean() == cycle["period"]
        # every multiplier is an {"re", "im"} object, real ones included
        assert len(cycle["multipliers"]) == 3
        assert all(set(m) == {"re", "im"} and m["im"] == 0.0 for m in cycle["multipliers"])
        solver = json.loads((out / "classification.json").read_text())["solver"]
        assert solver["steps"] == 100_000 and solver["dt"] == 1e-3
        assert solver["min_value"] == 0.0
        # 8 split steps, then probes every 10 steps: 89,992 steps merge
        assert solver["diffusion_solves"] == 200_000 - (99_992 - 10_000)
        condition = json.loads((out / "condition.json").read_text())
        assert condition["condition"]["case"] == "periodic-attractor-candidate"
        sigma = json.loads((out / "sigma_report.json").read_text())
        assert sigma["threshold_d_origin"] == pytest.approx(np.sqrt(3.0) / np.pi**2, rel=1e-12)
        assert sigma["flat_guarantee"] is False  # benchmark diffusion is tiny

    def test_manifest_checksums_match_artifacts(self, reproduction_run):
        out = reproduction_run.out_dir
        for entry in _manifest(out)["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["name"]


class TestDeterminism:
    @pytest.mark.parametrize("command, payload", [
        ("timemap", {"D": 0.1, "mu": {"start": 0.01, "stop": 0.9, "count": 10}, "svg": True}),
        ("pde", {"model": {"a": [[1.0, 0.5], [0.5, 1.0]], "d": [0.1, 0.02]},
                 "domain": {"kind": "radial", "length": 1.0, "N": 32, "bc": "neumann", "m": 3},
                 "phi": {"poly": [[0.5, 0.0, 0.3, -0.2], [0.25, 0.0, -0.3, 0.2]]}, "t_end": 0.5,
                 "dt": 0.01, "snapshots": 10, "svg": True}),
        # the fuzz suite's floquet base config
        ("floquet", {"model": {"a": [[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]],
                               "d": [0.01, 0.02, 0.01]},
                     "U0": [0.45, 0.3, 0.25], "max_time": 400.0, "k_max": 1,
                     "eigenvalues": [1.0]}),
    ])
    def test_identical_bytes_across_reruns(self, tmp_path, command, payload):
        rc, out1 = _run(tmp_path, command, payload, out_name="run1")
        assert rc == 0
        _, out2 = _run(tmp_path, command, payload, out_name="run2")
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        rc, _ = _run(tmp_path, "equilibria", {"model": {"preset": "reference"}, "oops": 1})
        assert rc == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["equilibria", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        rc = main(
            ["equilibria", "--config", str(tmp_path / "absent.json"),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_mu_out_of_range_is_config_error(self, tmp_path):
        rc, _ = _run(tmp_path, "timemap", {"D": 0.1, "mu": [1.5]})
        assert rc == 2

    def test_singular_matrix_is_degenerate(self, tmp_path):
        payload = {"model": {"a": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]],
                             "d": [1.0, 1.0, 1.0]}}
        rc, _ = _run(tmp_path, "equilibria", payload)
        assert rc == 3

    def test_negativity_violation_is_numerical_failure(self, tmp_path, capsys):
        # constant data pinned to 0 at the ends: the Crank-Nicolson step at
        # diffusion number ~420 undershoots next to the boundary
        payload = {
            "model": {"a": [[1.0]], "d": [1.0]},
            "domain": {"kind": "interval", "length": 1.0, "N": 64, "bc": "dirichlet"},
            "phi": {"constant": [1.0]},
            "t_end": 1.0,
            "dt": 0.1,
        }
        with pytest.warns(UserWarning, match="pinned to 0"):
            rc, _ = _run(tmp_path, "pde", payload)
        assert rc == 4
        assert "field dipped to" in capsys.readouterr().err

    @pytest.mark.parametrize("source, artifact", [("time_map", "timemap.csv"),
                                                  ("kiss_size", "report.json")])
    def test_non_finite_artifact_is_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                      source, artifact):
        # a writer fed a NaN refuses its file instead of writing "nan" or NaN;
        # the stand-in keeps its first argument's shape (time_map takes all mu at once)
        monkeypatch.setattr(cli, source, lambda x, *rest: np.multiply(x, float("nan")))
        rc, out = _run(tmp_path, "timemap", {"D": 0.1, "mu": [0.3, 0.5], "svg": True})
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("rdlab: numerical failure: ") and artifact in err
        assert not (out / artifact).exists()
        assert not (out / "manifest.json").exists()
        # the files written before the failure (timemap.csv and timemap.svg
        # when report.json fails) stay out of the output directory too
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    def test_failed_run_leaves_an_earlier_run_untouched(self, tmp_path, monkeypatch):
        payload = {"D": 0.1, "mu": [0.3, 0.5], "svg": True}
        rc, out = _run(tmp_path, "timemap", payload)
        assert rc == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(cli, "kiss_size", lambda *args: float("nan"))
        rc, _ = _run(tmp_path, "timemap", {**payload, "mu": [0.4, 0.6]})
        assert rc == 4
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_files_move_up_from_a_staging_directory_inside_out(self, tmp_path, monkeypatch):
        # staging inside --out keeps every move a rename on out's own
        # filesystem (out may be a mount point or a symlink elsewhere) and
        # needs no write access to out's parent
        moves = []
        replace = os.replace

        def spy(src, dst):
            moves.append((src, dst))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", spy)
        rc, out = _run(tmp_path, "timemap", {"D": 0.1, "mu": [0.3, 0.5], "svg": True})
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
        assert sorted(p.name for p in out.iterdir()) == sorted(d.name for _, d in moves)
        for src, dst in moves:
            assert src.parent.parent == out and src.parent.name.startswith(".staging-")
            assert dst == out / src.name

    @pytest.mark.parametrize("out_name", ["afile", "afile/sub"])
    def test_out_on_an_existing_file_is_config_error(self, tmp_path, capsys, out_name):
        # --out naming a file, or a path under one, cannot hold the run
        (tmp_path / "afile").write_text("keep me\n")
        rc, _ = _run(tmp_path, "equilibria", {"model": {"preset": "reference"}}, out_name)
        assert rc == 2
        assert "config error: cannot write into output directory" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "keep me\n"

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="directory permissions do not bind root")
    def test_out_under_a_read_only_parent(self, tmp_path):
        out = tmp_path / "locked" / "out"
        out.mkdir(parents=True)
        (tmp_path / "locked").chmod(0o555)
        try:
            rc = main(["timemap", "--config",
                       _write_config(tmp_path, {"D": 0.1, "mu": [0.3, 0.5], "svg": True}),
                       "--out", str(out)])
        finally:
            (tmp_path / "locked").chmod(0o755)
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "report.json", "timemap.csv", "timemap.svg"]

    def test_run_too_large_for_memory_is_one_line_exit_4(self, tmp_path):
        # 1e11 steps: evolve's step index array alone would take 745 GiB; the
        # child's address space is capped so the allocation fails whatever
        # the host's overcommit policy
        payload = {
            "model": {"a": [[1.0]], "d": [1.0]},
            "domain": {"kind": "interval", "length": 1.0, "N": 8, "bc": "neumann"},
            "phi": {"constant": [0.5]},
            "t_end": 1e9,
            "dt": 1e-2,
        }
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "rdlab.cli", "pde", "--config",
             _write_config(tmp_path, payload), "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30)),
        )
        assert proc.returncode == 4
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("rdlab: out of memory:"), err
        assert list(out.iterdir()) == []

    def test_dirichlet_logistic_run_exits_zero(self, tmp_path):
        # c / h^2 > 1: the pinned boundary must stay exactly 0 over t = 200
        payload = {
            "model": {"a": [[1.0]], "d": [0.1]},
            "domain": {"kind": "interval", "length": 2.0, "N": 128, "bc": "dirichlet"},
            "phi": {"poly": [[0.0, 1.0, -0.5]]},
            "t_end": 200.0,
            "dt": 0.01,
        }
        rc, out = _run(tmp_path, "pde", payload)
        assert rc == 0
        _, rows = _csv_rows(out / "final_field.csv")
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0

    def test_no_cycle_exit(self, tmp_path):
        payload = {
            "model": {"a": [[1.0, 0.3], [0.3, 1.0]], "d": [1.0, 1.0]},
            "U0": [0.4, 0.5],
            "max_time": 200.0,
        }
        rc, _ = _run(tmp_path, "floquet", payload)
        assert rc == 5

    def test_retired_thread_budget_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RDLAB_THREADS", "many")
        rc, _ = _run(tmp_path, "equilibria", {"model": {"preset": "reference"}})
        assert rc == 0

    def test_thread_counts_are_left_to_the_caller(self, tmp_path, monkeypatch):
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        rc, _ = _run(tmp_path, "equilibria", {"model": {"preset": "reference"}})
        assert rc == 0
        assert not set(names) & set(os.environ)

    @pytest.mark.parametrize("key, value", [("probe_stride", 0), ("t_end", float("inf"))])
    def test_bad_evolve_input_is_one_line_config_error(self, tmp_path, capsys, key, value):
        payload = {
            "model": {"preset": "reference"},
            "domain": {"kind": "interval", "length": 1.0, "N": 32, "bc": "neumann"},
            "phi": "paper-phi",
            "t_end": 1.0,
            key: value,
        }
        rc, _ = _run(tmp_path, "pde", payload)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rdlab: config error:")
        assert key in err[0]

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("chs", {"model": {"preset": "reference"}, "L": 1.0, "grid_points": 200},
             "grid_points"),
            ("chs", {"model": {"preset": "reference"}, "L": float("nan")}, "L"),
            ("pde", {"model": {"preset": "reference"},
                     "domain": {"kind": "interval", "length": float("inf"), "N": 32,
                                "bc": "neumann"},
                     "phi": {"constant": [0.1, 0.1, 0.1]}, "t_end": 1.0}, "length"),
            ("ode", {"model": {"preset": "reference"}, "U0": [0.1, 0.1, 0.1],
                     "t_end": float("inf")}, "t_end"),
            ("floquet", {"model": {"preset": "reference"}, "U0": [0.1, 0.1, 0.1],
                         "max_time": float("inf")}, "max_time"),
            ("shoot", {"D": float("nan"), "c": 0.5}, "D"),
            ("timemap", {"D": 0.1, "mu": [0.5], "L_target": float("nan")}, "L"),
            ("timemap", {"D": float("nan"), "mu": [0.5], "L_target": 2.0}, "D"),
            ("timemap", {"D": float("inf"), "mu": [0.5], "L_target": 2.0}, "D"),
        ],
    )
    def test_rejected_input_writes_nothing(self, tmp_path, capsys, command, payload, key):
        # grid_points is not a chs key; a non-finite time, tolerance, length or
        # diffusion coefficient would otherwise write NaN artifacts or keep an
        # integrator running (timemap with L_target NaN never returned)
        rc, out = _run(tmp_path, command, payload)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rdlab: config error:")
        assert key in err[0]
        assert list(out.iterdir()) == []

    def test_paper_phi_needs_unit_interval(self, tmp_path):
        payload = {
            "model": {"preset": "reference"},
            "domain": {"kind": "interval", "length": 2.0, "N": 32, "bc": "neumann"},
            "phi": "paper-phi",
            "t_end": 1.0,
        }
        rc, _ = _run(tmp_path, "pde", payload)
        assert rc == 2


TWO_SPECIES_SINK = {"a": [[1.0, 0.3], [0.3, 1.0]], "d": [1.0, 1.0]}
CIRCULANT = {"a": [[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]], "d": [0.01, 0.01, 0.01]}
DIRICHLET_BUMP = {
    "model": {"a": [[1.0]], "d": [0.1]},
    "domain": {"kind": "interval", "length": 0.9, "N": 16, "bc": "dirichlet"},
    "phi": {"poly": [[0.0, 0.45, -0.5]]},
    "t_end": 1.0,
    "dt": 0.05,
}


# (model, a fragment of its error message); inline the message is prefixed
# "model", from a file "model file '<path>'"
BAD_MODELS = [
    ({"a": [[1.0, 0.5], [0.5, 1.0]], "d": {}}, ".d must be a non-empty array"),
    ({"a": [[1.0, 0.5], [0.5]], "d": [1.0, 1.0]}, "interaction matrix must be square"),
    ({"n": True, "a": [["1.0"]], "d": [True]}, ".a[0][0] must be a finite number"),
    ({"n": True, "a": [[1.0]], "d": [1.0]}, ".n must be an integer"),
    ({"n": 3, "a": [[1.0, 0.5], [0.5, 1.0]], "d": [1.0, 1.0]}, "'a' must be 3x3"),
    ({"a": [[1.0]], "d": [1.0], "x": 1}, "has unknown keys: x"),
    ({"a": [[1.0]]}, "is missing required key 'd'"),
    ({"a": [[1.0]], "d": [float("inf")]}, ".d[0] must be a finite number"),
    ({"a": [[1.0]], "d": [-1.0]}, "diffusion"),
    ({"n": 1, "a": [["1.0"]], "d": [True]}, ".a[0][0] must be a finite number"),
    ({"a": [[1.0]], "d": [True]}, ".d[0] must be a finite number"),
]


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("shoot", {"D": 0.1, "c": 0.5, "svg": "yes"}, "svg"),
            ("shoot", {"D": 0.1, "c": 0.5, "samples": 1, "svg": True}, "samples"),
            ("timemap", {"D": 0.1, "mu": [0.25, 0.5], "svg": "yes"}, "svg"),
            ("timemap", {"D": 0.1, "mu": [0.5], "svg": True}, "svg"),
            ("ode", {"model": TWO_SPECIES_SINK, "U0": [0.4, 0.5], "t_end": 1.0, "svg": 0}, "svg"),
            ("ode", {"model": TWO_SPECIES_SINK, "U0": [0.4, 0.5], "t_end": 1.0,
                     "detect_cycle": {"max_time": -1}}, "max_time"),
            ("ode", {"model": TWO_SPECIES_SINK, "U0": [0.4, 0.5], "t_end": 1.0,
                     "detect_cycle": {"tol": float("nan")}}, "detect_cycle.tol"),
            ("pde", {**DIRICHLET_BUMP, "decay_window": [0.9, 1.0]}, None),
            ("floquet", {"model": CIRCULANT, "U0": [0.45, 0.3, 0.25], "max_time": 400.0,
                         "k_max": 1, "L": 0}, "L"),
            ("floquet", {"model": CIRCULANT, "U0": [0.45, 0.3, 0.25], "max_time": 400.0,
                         "k_max": 1, "L": float("nan")}, "L"),
            ("floquet", {"model": {"preset": "reference"}, "U0": [-0.1, 0.1, 0.1]},
             "initial state must be nonnegative"),
            ("pde", {**DIRICHLET_BUMP, "phi": {"constant": [0.5]},
                     "domain": {"kind": "radial", "length": 1.0, "N": 64, "bc": "neumann",
                                "m": 150}}, "m = 150 and N = 64 leaves the floating-point range"),
            ("chs", {"model": TWO_SPECIES_SINK, "L": 1.0,
                     "run": {"phi": {"constant": [0.5, 0.5]}, "t_end": float("inf")}},
             "run.t_end"),
            ("equilibria", {"model": {"a": [[1.0, 0.5], [0.5, 1.0]], "d": {}}}, "model.d"),
            ("equilibria", {"model": {"a": [[1.0, 0.5], [0.5]], "d": [1.0, 1.0]}},
             "model: interaction matrix"),
            ("floquet", {"model": CIRCULANT, "U0": [0.45, 0.3, 0.25], "max_time": 400.0,
                         "k_max": 1, "L": 2.0, "eigenvalues": [1.0]}, "not both"),
            # m = 10**400 converts to no float, and m = 10**300 to one far out of range
            *(("pde", {**DIRICHLET_BUMP, "phi": {"constant": [0.5]},
                       "domain": {"kind": "radial", "length": 1.0, "N": 64, "bc": "neumann",
                                  "m": m}}, "leaves the floating-point range")
              for m in (10**400, 10**300)),
            ("pde", {"model": {"a": [[1.0]], "d": [16.0]}, "phi": {"constant": [0.5]},
                     "domain": {"kind": "interval", "length": 1.0, "N": 8, "bc": "neumann"},
                     "t_end": 1e307, "dt": 1e307}, "Crank-Nicolson matrix of step 1e+307"),
            # h^2 underflows to 0 at this length, on an interval and on a disk
            *(("pde", {"model": {"a": [[1.0]], "d": [0.1]}, "phi": {"constant": [0.5]},
                       "domain": {"kind": kind, "length": 1e-170, "N": 64, "bc": "neumann"},
                       "t_end": 0.01, "dt": 1e-3}, "1 / h^2 leaves the float range")
              for kind in ("interval", "radial")),
            # 1 / h^2 is finite here, but c max|main| near 2e299 swamps the identity
            *(("pde", {"model": {"a": [[1.0]], "d": [0.1]}, "phi": {"constant": [0.5]},
                       "domain": {"kind": kind, "length": 1e-150, "N": 64, "bc": "neumann"},
                       "t_end": 0.01, "dt": 1e-3}, "loses its identity part to rounding")
              for kind in ("interval", "radial")),
        ],
    )
    def test_rejected_config_leaves_output_empty(self, tmp_path, capsys, command, payload, key):
        # every computation, library checks included, runs before the first write
        rc, out = _run(tmp_path, command, payload)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rdlab: config error:")
        if key is not None:
            assert key in err[0]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["inline", "file", "library"])
    @pytest.mark.parametrize("model, message", BAD_MODELS)
    def test_bad_model_is_rejected_inline_and_from_a_file(self, tmp_path, capsys, source,
                                                          model, message):
        # a {"file": path} model goes through the same schema as an inline one,
        # and rdlab.load_model raises the very message the CLI prints
        if source == "library":
            with pytest.raises(ConfigError) as raised:
                load_model(model)
            library_error = f"rdlab: config error: {raised.value}"
        if source == "file":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model))
            model = {"file": str(path)}
        rc, out = _run(tmp_path, "equilibria", {"model": model})
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rdlab: config error:")
        assert message in err[0]
        if source == "file":
            assert str(tmp_path / "model.json") in err[0]
        if source == "library":
            assert err[0] == library_error
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("model, message", [
        ("referenc", "model must be a JSON object"),
        ({"preset": "referenc"}, 'model.preset must be "reference"'),
        ("model.json", "model must be a JSON object"),
        ([[1.0]], "model must be a JSON object"),
        ({"file": "model.json", "n": 1}, "model has unknown keys: n"),
        ({"file": 1}, "model.file must be a string"),
    ])
    def test_model_is_the_preset_an_object_or_a_file_reference(self, tmp_path, capsys,
                                                               monkeypatch, model, message):
        # a string other than the preset is no model, not a path, even where
        # such a file exists; a file reference holds the key "file" alone
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.json").write_text(json.dumps({"a": [[1.0]], "d": [1.0]}))
        if isinstance(model, dict) and model.get("file") == "model.json":
            model["file"] = str(tmp_path / "model.json")
        rc, out = _run(tmp_path, "equilibria", {"model": model})
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"rdlab: config error: {message}"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text, message", [("[1, 2]", "must be a JSON object"),
                                               ("{", "is not valid JSON")])
    def test_model_file_that_is_no_object_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        rc, _ = _run(tmp_path, "equilibria", {"model": {"file": str(path)}})
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    def test_empty_detect_cycle_object_runs_the_detector(self, tmp_path):
        payload = {"model": TWO_SPECIES_SINK, "U0": [0.4, 0.5], "t_end": 1.0, "detect_cycle": {}}
        rc, out = _run(tmp_path, "ode", payload)
        assert rc == 0
        cycle = json.loads((out / "report.json").read_text())["cycle"]
        assert set(cycle) == ORBIT_KEYS
        assert "transient" in cycle["solver"]

    def test_two_species_case_without_unit_diagonal(self, tmp_path):
        # read from b = a01 / a11 = 0.5 and c = a10 / a00 = 0.25
        payload = {"model": {"a": [[2.0, 0.5], [0.5, 1.0]], "d": [1.0, 1.0]}}
        rc, out = _run(tmp_path, "equilibria", payload)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["two_species_case"] == "coexistence"
        assert report["equilibrium_count"] == 4

    def test_two_species_case_degenerate_without_unit_diagonal(self, tmp_path):
        # b = a01 / a11 = 1: the same exit 3 as a unit-diagonal b = 1
        payload = {"model": {"a": [[2.0, 1.0], [1.0, 1.0]], "d": [1.0, 1.0]}}
        rc, _ = _run(tmp_path, "equilibria", payload)
        assert rc == 3


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config_keys() -> dict[str, set[str]]:
    """README's "command | key | type | default" table: command -> the keys it lists."""
    lines = README.read_text().splitlines()
    start = lines.index("| command | key | type | default |") + 2  # past the rule
    keys: dict[str, set[str]] = {}
    command = None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        command = cells[0].strip("`") or command
        keys.setdefault(command, set()).update(cells[1].replace("`", "").split(", "))
    return keys


class TestReadme:
    def test_config_key_table_lists_each_commands_schema(self):
        documented = _readme_config_keys()
        assert set(documented) == set(cli._COMMANDS)
        for command, (_, _, schema) in cli._COMMANDS.items():
            assert documented[command] == set(schema), command

    def test_library_tour_examples_run(self):
        # the ```python blocks of the Library tour, in one namespace, as a
        # reader would paste them; stale API fails here
        text = README.read_text()
        tour = text[text.index("## Library tour"):text.index("## CLI")]
        blocks = [block.split("```", 1)[0] for block in tour.split("```python\n")[1:]]
        assert len(blocks) == 2
        namespace = {}
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
        assert namespace["rep"].case == "periodic-attractor-candidate"
