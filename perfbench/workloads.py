"""Seeded op lists for the three benchmark workloads, and their output checks.

An op is one ``rdlab <command> --config ... --out ...`` invocation.  A round
is the workload's fixed list of ops; a run repeats rounds back to back.
The seed selects one of ``VARIANTS`` input variants (seed mod VARIANTS), so
every variant's key outputs can be recorded once in ``references.json`` and
checked on every op.  Only the worker imports this module: the reference
model and pinned point come from ``rdlab.cli`` itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
from rdlab.cli import REFERENCE_DIFFUSION, REFERENCE_MATRIX, REFERENCE_PHI_COEFFS, REPRODUCTION

VARIANTS = 8
TWO_SPECIES = [[1.0, 0.6], [0.7, 1.0]]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _jitter(rng: random.Random, scale: float = 0.01) -> float:
    """A factor within +-scale of 1."""
    return 1.0 + scale * (2.0 * rng.random() - 1.0)


def _scaled_matrix(rng: random.Random, base) -> list[list[float]]:
    """Off-diagonal entries jittered; the unit-scale diagonal is kept."""
    return [[v if i == j else v * _jitter(rng) for j, v in enumerate(row)]
            for i, row in enumerate(base)]


def _pde_ops(rng: random.Random) -> list[dict]:
    reference = {"preset": "reference"}
    # Factors are multiples of 2^-10, so the scaled coefficients are exact and
    # each row still evaluates to exactly 0 at x = 1 (evolve rejects -1e-16).
    # Scaling a paper-phi row keeps its zero end slopes (Neumann-compatible).
    factors = [1.0 + rng.randint(-10, 10) / 1024.0 for _ in REFERENCE_PHI_COEFFS]
    phi = {"poly": [[f * c for c in row] for f, row in zip(factors, REFERENCE_PHI_COEFFS)]}
    # a (1 - r^2) bumps vanish on the Dirichlet rim of the disk
    disk_phi = {"poly": [[f * c, 0.0, -f * c] for f, c in zip(factors, (0.1, 0.01, 0.03))]}
    return [
        {"id": "pde-dense-N512", "command": "pde", "config": {
            "model": reference, "phi": phi, "t_end": 5.0, "dt": 1.0e-3,
            "domain": {"kind": "interval", "length": 1.0, "N": 512, "bc": "neumann"},
            "probe_stride": 1, "svg": True}},
        {"id": "pde-long-N128", "command": "pde", "config": {
            "model": reference, "phi": phi, "t_end": 60.0,
            "domain": {"kind": "interval", "length": 1.0, "N": 128, "bc": "neumann"}}},
        {"id": "pde-disk-N2048", "command": "pde", "config": {
            "model": reference, "phi": disk_phi, "t_end": 2.0, "dt": 1.0e-3,
            "domain": {"kind": "radial", "length": 1.0, "N": 2048, "bc": "dirichlet"},
            "probe_stride": 10}},
    ]


def _kinetics_ops(rng: random.Random) -> list[dict]:
    reference = {"preset": "reference"}
    pinned = REPRODUCTION["ode_initial_point"]
    detect = {"max_time": REPRODUCTION["max_time"], "tol": REPRODUCTION["tol"]}
    ops = []
    for k in (1, 2):
        u0 = [v * _jitter(rng) for v in pinned]
        ops.append({"id": f"ode-jitter{k}", "command": "ode", "config": {
            "model": reference, "U0": u0, "t_end": 1000.0, "detect_cycle": detect}})
    ops.append({"id": "floquet-pinned", "command": "floquet", "config": {
        "model": reference, "U0": pinned, **detect, "k_max": 4, "L": 1.0}})
    return ops


def _theory_ops(rng: random.Random) -> list[dict]:
    two = {"a": _scaled_matrix(rng, TWO_SPECIES), "d": [1.0, 1.0]}
    three = {"a": _scaled_matrix(rng, REFERENCE_MATRIX), "d": REFERENCE_DIFFUSION}
    D = 0.05 * _jitter(rng)
    # grid_points is left unset on purpose: the sup search may retire it.
    return [
        {"id": "equilibria-2", "command": "equilibria", "config": {"model": two}},
        {"id": "equilibria-3", "command": "equilibria", "config": {"model": three}},
        {"id": "chs-2-frobenius", "command": "chs",
         "config": {"model": two, "L": 1.0, "norm": "frobenius"}},
        {"id": "chs-2-operator", "command": "chs",
         "config": {"model": two, "L": 1.0, "norm": "operator"}},
        {"id": "chs-3-frobenius", "command": "chs",
         "config": {"model": three, "L": 1.0, "norm": "frobenius"}},
        {"id": "chs-3-operator", "command": "chs",
         "config": {"model": three, "L": 1.0, "norm": "operator"}},
        {"id": "timemap", "command": "timemap", "config": {
            "D": D, "mu": {"start": 0.01, "stop": 0.99, "count": 200}, "L_target": 1.5}},
        {"id": "shoot", "command": "shoot", "config": {
            "D": D, "c": 0.5 * _jitter(rng), "r_max": 10.0, "m": 2}},
    ]


_BUILDERS = {"pde-field": _pde_ops, "kinetics-cycle": _kinetics_ops, "theory": _theory_ops}
WORKLOADS = tuple(_BUILDERS)


def round_ops(workload: str, seed: int) -> list[dict]:
    """The ops of one round of ``workload`` for ``seed``; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{variant_of(seed)}")
    return _BUILDERS[workload](rng)


# ---------------------------------------------------------------------------
# output checks

# Tolerances pass floating-point reordering (a reordered CN solve agreed with
# the current one to 2.8e-13) while catching any change of method or result.
FIELD_ATOL = 1e-9  # pde field values, which are O(0.1)
ALGEBRAIC_RTOL = 1e-9  # equilibria points (absolute), M_sup, sigma: linear algebra or a search
ADAPTIVE_RTOL = 1e-6  # adaptive quadrature and ODE outputs: time-map lengths, first zero
PERIOD_RTOL = 1e-5  # detected cycle period, from an adaptive RK45 run at tol 1e-7

_NONFINITE = re.compile(rb"(?i)\b(nan|inf|infinity)\b")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _field_fingerprint(path: Path) -> list[list[float]]:
    """Per species: 33 evenly spaced node values and the node mean of the final field."""
    data = np.array(_read_csv(path)[1], dtype=float)
    picks = np.linspace(0, data.shape[0] - 1, 33).round().astype(int)
    return [data[picks, i].tolist() + [float(data[:, i].mean())]
            for i in range(1, data.shape[1])]


def key_numbers(op: dict, out: Path) -> dict:
    """The numbers an op is judged by; recorded once per variant as references."""
    cmd = op["command"]
    if cmd == "pde":
        cls = json.loads((out / "classification.json").read_text())["classification"]
        return {"final_field": _field_fingerprint(out / "final_field.csv"),
                "classification": None if cls is None else cls["kind"]}
    if cmd == "ode":
        cycle = json.loads((out / "report.json").read_text())["cycle"]
        return {"status": cycle["status"], "period": cycle["period"]}
    if cmd == "floquet":
        rep = json.loads((out / "floquet.json").read_text())
        return {"status": rep["verdict"], "period": rep["period"]}
    if cmd == "chs":
        rep = json.loads((out / "chs.json").read_text())
        return {"M_sup": rep["M_sup"], "sigma": rep["sigma"]}
    if cmd == "equilibria":
        header, cells = _read_csv(out / "equilibria.csv")
        n = sum(1 for h in header if re.fullmatch(r"u\d+", h))
        return {"labels": [c[0] for c in cells],
                "points": [[float(v) for v in c[1:1 + n]] for c in cells]}
    if cmd == "timemap":
        rows = _read_csv(out / "timemap.csv")[1]
        rep = json.loads((out / "report.json").read_text())
        return {"lengths": [float(r[1]) for r in rows],
                "profile_exists": rep["profile"]["exists"]}
    if cmd == "shoot":
        rep = json.loads((out / "report.json").read_text())
        return {"outcome": rep["outcome"], "first_zero_r": rep["first_zero_r"]}
    raise ValueError(f"no key numbers for command {cmd!r}")


_TOLERANCE = {
    "final_field": ("abs", FIELD_ATOL),
    "points": ("abs", ALGEBRAIC_RTOL),
    "M_sup": ("rel", ALGEBRAIC_RTOL),
    "sigma": ("rel", ALGEBRAIC_RTOL),
    "lengths": ("rel", ADAPTIVE_RTOL),
    "first_zero_r": ("rel", ADAPTIVE_RTOL),
    "period": ("rel", PERIOD_RTOL),
}


def _close(got, want, kind: str, tol: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, kind, tol) for g, w in zip(got, want)))
    if want is None or got is None:
        return got is want
    slack = tol if kind == "abs" else tol * max(abs(want), 1e-300)
    return abs(got - want) <= slack


def check_op(op: dict, out: Path, reference: dict | None) -> list[str]:
    """Problems with one op's artifacts; an empty list means the op is verified."""
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    problems = []
    manifest = json.loads(manifest_path.read_text())
    listed = {entry["name"] for entry in manifest["files"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    if listed != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(on_disk)}")
    for entry in manifest["files"]:
        path = out / entry["name"]
        if not path.is_file():
            continue
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"] or len(blob) != entry["bytes"]:
            problems.append(f"{entry['name']}: checksum or size does not match the manifest")
        if _NONFINITE.search(blob):
            problems.append(f"{entry['name']}: contains NaN or Infinity")
    if _NONFINITE.search(manifest_path.read_bytes()):
        problems.append("manifest.json: contains NaN or Infinity")
    if problems:
        return problems
    if reference is None:
        return ["no reference recorded for this op"]
    got = key_numbers(op, out)
    for key, want in reference.items():
        kind, tol = _TOLERANCE.get(key, ("exact", 0.0))
        ok = got.get(key) == want if kind == "exact" else _close(got.get(key), want, kind, tol)
        if not ok:
            problems.append(f"{key}: got {str(got.get(key))[:120]}, reference {str(want)[:120]}")
    return problems
