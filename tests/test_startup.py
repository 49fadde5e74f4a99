"""Start-up cost: importing rdlab loads numpy alone, and each command only the scipy it uses.

The checks run in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rdlab

_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import rdlab
loaded["import rdlab"] = scipy_modules()
import rdlab.cli
loaded["import rdlab.cli"] = scipy_modules()
loaded["numpy.polynomial"] = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
for command, config, out in json.loads(sys.argv[1]):
    rc = rdlab.cli.main([command, "--config", config, "--out", out])
    loaded[command] = scipy_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""

_CONFIGS = {
    "equilibria": {"model": {"preset": "reference"}},
    "chs": {"model": {"preset": "reference"}, "L": 1.0},
    "pde": {
        "model": {"preset": "reference"},
        "domain": {"kind": "interval", "length": 1.0, "N": 16, "bc": "neumann"},
        "phi": "paper-phi",
        "t_end": 0.5,
    },
}

# t_end >= 50, so classify_omega scores the probe traces for periodicity
_CLASSIFIED_PDE = dict(_CONFIGS["pde"], t_end=50.0)


_INTEGRATING_CONFIGS = {
    "timemap": {"D": 0.05, "L_target": 1.5},
    # the section run records 16 crossings
    "ode": {"model": {"preset": "reference"}, "U0": [0.1, 0.0095238, 0.0333333],
            "t_end": 10.0, "detect_cycle": {"max_time": 2000.0}},
    # the first zero is a terminal event root
    "shoot": {"D": 0.05, "c": 0.5, "r_max": 10.0},
    # the circulant model of tests/conftest.py, whose orbit closes within max_time
    "floquet": {
        "model": {"a": [[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]], "d": [1.0, 1.0, 1.0]},
        "U0": [0.45, 0.3, 0.25],
        "max_time": 2000.0,
    },
}


def _loaded_modules(tmp_path, configs):
    """The scipy modules loaded after the import and after each command, in one fresh process."""
    runs = []
    for command, config in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        runs.append([command, str(path), str(tmp_path / command)])
    env = dict(os.environ, PYTHONPATH=str(Path(rdlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_load_only_the_scipy_modules_they_use(tmp_path):
    loaded = _loaded_modules(tmp_path, _CONFIGS)
    # the theory commands and the import itself stay on numpy alone
    for step in ("import rdlab", "import rdlab.cli", "equilibria", "chs"):
        assert loaded[step] == [], step
    # nor does the CLI's import load numpy's polynomial package
    assert loaded["numpy.polynomial"] == []
    # a pde run needs LAPACK's tridiagonal solvers, not the ODE integrators
    assert isinstance(loaded["pde"], list), loaded["pde"]
    assert "scipy.linalg.lapack" in loaded["pde"]
    assert not {"scipy.integrate", "scipy.optimize"} & set(loaded["pde"])


def test_a_classified_pde_run_loads_no_more_scipy(tmp_path):
    # one process per config; periodicity scores run on numpy's FFT
    plain = _loaded_modules(tmp_path, {"pde": _CONFIGS["pde"]})["pde"]
    classified = _loaded_modules(tmp_path, {"pde": _CLASSIFIED_PDE})["pde"]
    assert isinstance(classified, list), classified
    assert not [m for m in classified if m.startswith("scipy.fft")]
    assert classified == plain


def test_integrations_load_no_scipy(tmp_path):
    # one process per command, so no command inherits another's modules;
    # event roots come from the step's quartic, not from scipy.optimize
    for command, config in _INTEGRATING_CONFIGS.items():
        assert _loaded_modules(tmp_path, {command: config})[command] == [], command


def test_a_shot_that_stays_positive_loads_no_scipy(tmp_path):
    # neither terminal event fires
    config = {"D": 0.1, "c": 0.5, "r_max": 0.5}
    loaded = _loaded_modules(tmp_path, {"shoot": config})["shoot"]
    assert loaded == []
