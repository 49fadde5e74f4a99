"""One benchmark worker: runs rounds of a workload's ops through rdlab.cli.main.

Started by run.py with the BLAS pools pinned to one thread before numpy
loads.  In an untraced run it also times fresh interpreters importing
``rdlab.cli`` (``setup_s``), one before each round and one after the last,
so that the samples span the run as the rounds do.  Untraced rounds run
under a ``SpeedProbe`` (speedprobe.py), whose samples are the unit of the
host-normalised times.  Prints one JSON object
(rounds, setup samples, failures, environment and, in a traced run,
per-layer data) as its last stdout line.  With ``--record`` it runs one
round and prints each op's key numbers instead, for references.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import rdlab.cli
from rdlab import pde
from rdlab.cli import REFERENCE_DIFFUSION, REFERENCE_MATRIX
from rdlab.model import load_model
from speedprobe import SpeedProbe, snippet
from tracer import Tracer
from workloads import WORKLOADS, check_op, key_numbers, round_ops, variant_of

REFERENCES = Path(__file__).resolve().parent / "references.json"
MICRO_SIZES = (128, 512, 2048)
MICRO_STEPS = 300
MICRO_REPEATS = 3
# Each traced round must reach these functions once per op of these commands;
# a call missed through an unpatched binding shows as a shortfall.
EXPECTED_CALLS = {
    "pde.evolve": ("pde",),
    "kinetics.detect_limit_cycle": ("ode", "floquet"),
    "analysis.chs_report": ("chs",),
}


def _reference_model():
    return load_model({"n": 3, "a": REFERENCE_MATRIX, "d": REFERENCE_DIFFUSION})


def _pde_steps(op: dict) -> int:
    """Time steps evolve takes for a pde op (all use the reference model); 0 otherwise."""
    if op["command"] != "pde":
        return 0
    cfg = op["config"]
    dt = cfg.get("dt") or pde.default_dt(pde.Domain1D(**cfg["domain"]), _reference_model())
    return max(1, round(cfg["t_end"] / dt))  # evolve's rounding of t_end / dt


def _site_updates(op: dict) -> int:
    """Species x grid nodes x time steps of one op."""
    if op["command"] != "pde":
        return 0
    return len(REFERENCE_DIFFUSION) * (op["config"]["domain"]["N"] + 2) * op["steps"]


def _setup_seconds() -> float:
    """Fresh interpreter start until ``import rdlab.cli`` returns."""
    code = "import time, rdlab.cli; print(time.monotonic())"
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _run_op(op: dict, work: Path, tracer: Tracer | None, op_index: int,
            probe: SpeedProbe | None = None):
    """Run one op; returns (seconds, cpu seconds, exit code, captured stderr, out dir).

    The seconds exclude the time the probe's samples took during the op.
    """
    cfg_path = work / f"{op['id']}.json"
    cfg_path.write_text(json.dumps(op["config"]))
    out = work / op["id"]
    if out.exists():
        shutil.rmtree(out)
    argv = [op["command"], "--config", str(cfg_path), "--out", str(out)]
    if tracer is not None:
        tracer.op = op_index
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        w0, p0 = probe.spent() if probe else (0.0, 0.0)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = rdlab.cli.main(argv)
        except Exception:  # a crash is a failed op; the run goes on
            rc = -1
            err.write(traceback.format_exc())
        t1, c1 = time.perf_counter(), time.process_time()
        w1, p1 = probe.spent() if probe else (0.0, 0.0)
    return (t1 - t0) - (w1 - w0), (c1 - c0) - (p1 - p0), rc, err.getvalue(), out


def _run_round(ops, references, work, tracer, traced, op_base, failures):
    record = {"traced": traced, "op_s": [], "wall_s": 0.0, "cpu_s": 0.0, "failed": 0,
              "site_updates": 0, "emit_files": 0, "emit_bytes": 0}
    probe = None if traced else SpeedProbe()
    if traced:
        first_span, counts_before = len(tracer.spans), dict(tracer.counts)
        tracer.install()
    else:
        probe.start()
    try:
        for k, op in enumerate(ops):
            seconds, cpu, rc, err, out = _run_op(op, work, tracer if traced else None, op_base + k,
                                                 probe)
            problems = [f"exit code {rc}: {err.strip()[-400:]}"] if rc != 0 else \
                check_op(op, out, references.get(op["id"]))
            if out.is_dir():
                files = [p for p in out.iterdir() if p.is_file()]
                record["emit_files"] += len(files)
                record["emit_bytes"] += sum(p.stat().st_size for p in files)
                shutil.rmtree(out)
            record["op_s"].append(seconds)
            record["wall_s"] += seconds
            record["cpu_s"] += cpu
            if problems:
                record["failed"] += 1
                failures.append({"op": op["id"], "problems": problems})
            else:
                record["site_updates"] += _site_updates(op)
    finally:
        if traced:
            tracer.uninstall()
        else:
            probe.stop()
    if not traced:
        record["probe_samples"] = len(probe.wall)
        record["probe_s"] = statistics.fmean(probe.wall)
        record["probe_cpu_s"] = statistics.fmean(probe.cpu)
    if traced:
        record["trace"] = tracer.summary(first_span)
        record["trace"]["counts"] = {name: tracer.counts[name] - counts_before.get(name, 0)
                                     for name in tracer.counts}
    return record


def _step_split(phi_poly) -> dict:
    """Per-step evolve cost with and without the reaction, through the public API.

    Interval of length 1, Neumann, reference model, the workload's scaled
    paper-phi, dt = 1e-3; observation is cut to one snapshot and one probe
    sample at the end.
    """
    model = _reference_model()
    out = {}
    for N in MICRO_SIZES:
        dom = pde.Domain1D(kind="interval", length=1.0, N=N, bc="neumann")
        x = dom.grid()
        phi = pde.Field(dom, np.array([np.polynomial.polynomial.polyval(x, c)
                                       for c in phi_poly]))
        samples = {True: [], False: []}
        for _ in range(MICRO_REPEATS):
            for reaction in (True, False):
                t0 = time.perf_counter()
                pde.evolve(model, dom, phi, MICRO_STEPS * 1e-3, dt=1e-3, snapshots=1,
                           probe_stride=MICRO_STEPS, include_reaction=reaction)
                samples[reaction].append(time.perf_counter() - t0)
        step = statistics.median(samples[True]) / MICRO_STEPS * 1e6
        diffusion = statistics.median(samples[False]) / MICRO_STEPS * 1e6
        out[f"N{N}"] = {"step_us": step, "diffusion_step_us": diffusion,
                        "reaction_step_us": step - diffusion}
    return out


def _missed_calls(ops, rounds) -> list[str]:
    """Traced rounds whose span counts disagree with the ops that ran."""
    problems = []
    for name, commands in EXPECTED_CALLS.items():
        want = sum(op["command"] in commands for op in ops)
        for k in range(1, len(rounds), 2):  # the traced rounds
            got = rounds[k]["trace"]["calls"].get(name, 0)
            if got != want:
                problems.append(f"round {k}: {name} traced {got} calls, expected {want}")
    return problems


def _environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "seed": seed, "variant": variant_of(seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ops = round_ops(args.workload, args.seed)
    for op in ops:  # these call rdlab, so they must not run inside a traced round
        op["steps"] = _pde_steps(op)

    if args.record:
        keys = {}
        for k, op in enumerate(ops):
            _, _, rc, err, out = _run_op(op, work, None, k)
            if rc != 0:
                print(f"{op['id']}: exit code {rc}: {err}", file=sys.stderr)
                return 1
            keys[op["id"]] = key_numbers(op, out)
            shutil.rmtree(out)
        print(json.dumps(keys))
        return 0

    all_refs = json.loads(REFERENCES.read_text())
    references = all_refs.get(args.workload, {}).get(str(variant_of(args.seed)), {})
    tracer = Tracer() if args.trace else None
    rounds, failures, setup = [], [], []
    if not args.trace:
        _setup_seconds()  # warm-up: bytecode caches and the page cache
        for _ in range(20):
            snippet()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if not args.trace:
            setup.append(_setup_seconds())
        t0 = time.perf_counter()
        rounds.append(_run_round(ops, references, work, tracer, traced,
                                 len(rounds) * len(ops), failures))
        last = time.perf_counter() - t0
        # At least two rounds (a traced run needs one of each kind); after that,
        # start another only if one as long as the last still ends in time.
        if len(rounds) >= 2 and time.perf_counter() - start + last > args.seconds:
            break
    if not args.trace:
        setup.append(_setup_seconds())

    result = {"rounds": rounds, "setup_s": setup, "failures": failures,
              "env": _environment(args.seed), "ops_per_round": len(ops),
              "pde_steps_per_round": sum(op["steps"] for op in ops)}
    if args.trace:
        result["trace_problems"] = _missed_calls(ops, rounds)
        if args.workload == "pde-field":
            result["step_split"] = _step_split(ops[0]["config"]["phi"]["poly"])
        spans_path = work / "spans.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
