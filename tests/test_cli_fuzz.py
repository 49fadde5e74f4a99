"""Property test of the CLI config boundary: every mutated config ends in a documented exit.

One small valid config per command (two for ``pde``: an interval and a
radial domain) is mutated once or twice (a nested value replaced from a
fixed pool, a key deleted, or an unknown key added) and run through
``main``.  Whatever the input, the run must return 0, 2, 3, 4 or 5
without raising and print exactly one stderr line.  A successful run leaves a
manifest that lists exactly the files on disk with matching checksums, and no
artifact holding a NaN or an Infinity; a failed run leaves no manifest, and a
config error (exit 2) leaves the output directory empty.

Nonzero pool magnitudes lie between 0.5 and 16, so every accepted mutation
is still a short run.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdlab.cli import main

TWO_SPECIES = {"a": [[1.0, 0.5], [0.5, 1.0]], "d": [1.0, 0.5]}
# circulant May-Leonard matrix with alpha + beta = 2: a periodic orbit in ~50 ms
CIRCULANT = {"a": [[1.0, 1.2, 0.8], [0.8, 1.0, 1.2], [1.2, 0.8, 1.0]], "d": [0.01, 0.02, 0.01]}

BASE_CONFIGS = {
    "equilibria": {"model": TWO_SPECIES},
    "timemap": {"D": 0.1, "mu": {"start": 0.25, "stop": 0.75, "count": 3}, "L_target": 2.0,
                "svg": True},
    "shoot": {"D": 0.1, "c": 0.5, "m": 2, "r_max": 2.0, "samples": 16, "svg": True},
    "ode": {"model": TWO_SPECIES, "U0": [0.5, 0.25], "t_end": 2.0, "tol": 1e-6, "samples": 16,
            "detect_cycle": {"max_time": 16.0, "tol": 1e-6}, "svg": True},
    "pde": {"model": {"a": [[1.0]], "d": [0.5]},
            "domain": {"kind": "interval", "length": 1.0, "N": 8, "bc": "dirichlet"},
            "phi": {"poly": [[0.0, 1.0, -1.0]]}, "t_end": 1.0, "dt": 0.05, "snapshots": 16,
            "probes": [0.5], "probe_stride": 2, "decay_window": [0.2, 0.9], "svg": True},
    # a case named "<command>-<variant>" runs <command>
    "pde-radial": {"model": {"a": [[1.0]], "d": [0.5]},
                   "domain": {"kind": "radial", "length": 1.0, "N": 8, "bc": "neumann", "m": 3},
                   "phi": {"poly": [[0.5, 0.0, 0.75, -0.5]]}, "t_end": 1.0, "dt": 0.05,
                   "snapshots": 16, "probes": [0.5], "probe_stride": 2, "svg": True},
    "floquet": {"model": CIRCULANT, "U0": [0.45, 0.3, 0.25], "max_time": 400.0, "k_max": 1,
                "eigenvalues": [1.0]},
    "chs": {"model": TWO_SPECIES, "L": 1.0, "norm": "operator",
            "run": {"phi": {"poly": [[0.5, 0.0, 0.03, -0.02], [0.25, 0.0, -0.03, 0.02]]},
                    "t_end": 2.0, "N": 8, "dt": 0.05, "window": [0.2, 1.0]}},
}

POOL = [None, True, False, 0, 1, -1, 2, 16, 0.5, -0.5, math.nan, math.inf, -math.inf,
        "x", "", [], [1.0], [[1.0]], {}, {"x": 1}]

_NONFINITE = re.compile(rb"(?i)\b(nan|inf|infinity)\b")


def _nodes(value):
    """(container, key) of every value nested in ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


def _mutate(config: dict, data) -> None:
    """Replace one nested value from POOL, delete one key, or add an unknown key, in place."""
    nodes = list(_nodes(config))
    op = data.draw(st.sampled_from(("replace", "delete", "add")))
    if op == "add" or not nodes:
        objects = [config] + [c[k] for c, k in nodes if isinstance(c[k], dict)]
        target = objects[data.draw(st.integers(0, len(objects) - 1))]
        target["unknown"] = copy.deepcopy(data.draw(st.sampled_from(POOL)))
        return
    if op == "delete":
        nodes = [(c, k) for c, k in nodes if isinstance(c, dict)]
    container, key = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    if op == "delete":
        del container[key]
    else:
        container[key] = copy.deepcopy(data.draw(st.sampled_from(POOL)))


@pytest.mark.parametrize("case", sorted(BASE_CONFIGS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_config_ends_in_a_documented_exit(case, data):
    command = case.split("-")[0]
    config = copy.deepcopy(BASE_CONFIGS[case])
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(config, data)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True):
            rc = main([command, "--config", str(cfg_path), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4, 5), lines
        assert len(lines) == 1 and lines[0].startswith("rdlab"), lines
        on_disk = {p.name: p.read_bytes() for p in out.iterdir()}
        if rc == 0:
            manifest = json.loads(on_disk["manifest.json"])
            assert {e["name"] for e in manifest["files"]} == set(on_disk) - {"manifest.json"}
            for entry in manifest["files"]:
                assert hashlib.sha256(on_disk[entry["name"]]).hexdigest() == entry["sha256"]
            for name, content in on_disk.items():
                assert not _NONFINITE.search(content), name
        else:
            assert "manifest.json" not in on_disk, lines
        if rc == 2:
            assert on_disk == {}, (lines, sorted(on_disk))
