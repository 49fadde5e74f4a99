"""rdlab benchmark: one seeded workload, end-to-end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pde-field --seed 1 --seconds 44 --trace 0

The program is run from ``src/`` as it stands; nothing is installed.  This
process starts one worker process (perfbench/worker.py) with the BLAS pools
pinned to one thread and ``RDLAB_THREADS`` unset.  The worker runs rounds of
the workload's ops back to back (a closed loop with one client), checks
every op's artifacts, samples the host's speed during the untraced rounds
(speedprobe.py) and, between rounds, times fresh interpreters importing
``rdlab.cli`` for ``setup_s``.
The last stdout line is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

WORKER_TIMEOUT_S = 170

# Round times go into the JSON in units of the speed probe's snippet
# (speedprobe.py), sampled during the same round: in seconds, the same code
# spread by more than any allowed bound as the host's speed drifted.  The
# seconds are printed beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_probe", "probe"),
    ("cpu_probe", "probe"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, how it is read from a traced round's summary)
_SPAN_METRICS = (
    ("pde.evolve.calls", "count", "calls", "pde.evolve"),
    ("pde.evolve.s", "s", "self_s", "pde.evolve"),
    ("pde.banded_solves", "count", "counts", "pde.banded_solves"),
    ("pde.self.s", "s", "self_s", "pde.self"),
    ("kinetics.detect_limit_cycle.calls", "count", "calls", "kinetics.detect_limit_cycle"),
    ("kinetics.detect_limit_cycle.s", "s", "self_s", "kinetics.detect_limit_cycle"),
    ("kinetics.integrate.s", "s", "self_s", "kinetics.integrate"),
    ("kinetics.orbital_stability.s", "s", "self_s", "kinetics.orbital_stability"),
    ("kinetics.modal_multipliers.calls", "count", "calls", "kinetics.modal_multipliers"),
    ("kinetics.modal_multipliers.s", "s", "self_s", "kinetics.modal_multipliers"),
    ("kinetics.rhs_evals", "count", "counts", "kinetics.rhs_evals"),
    ("kinetics.jac_evals", "count", "counts", "kinetics.jac_evals"),
    ("kinetics.self.s", "s", "self_s", "kinetics.self"),
    ("analysis.sup_jacobian_norm.calls", "count", "calls", "analysis.sup_jacobian_norm"),
    ("analysis.sup_jacobian_norm.s", "s", "self_s", "analysis.sup_jacobian_norm"),
    ("analysis.chs_report.s", "s", "self_s", "analysis.chs_report"),
    ("analysis.classify_omega.s", "s", "self_s", "analysis.classify_omega"),
    ("analysis.periodicity_score.calls", "count", "calls", "analysis.periodicity_score"),
    ("analysis.periodicity_score.s", "s", "self_s", "analysis.periodicity_score"),
    ("analysis.self.s", "s", "self_s", "analysis.self"),
    ("model.equilibria.calls", "count", "calls", "model.equilibria"),
    ("model.equilibria.s", "s", "self_s", "model.equilibria"),
    ("model.condition_report.s", "s", "self_s", "model.condition_report"),
    ("model.self.s", "s", "self_s", "model.self"),
    ("scalar.time_map.calls", "count", "calls", "scalar.time_map"),
    ("scalar.time_map.s", "s", "self_s", "scalar.time_map"),
    ("scalar.dirichlet_steady_profile.s", "s", "self_s", "scalar.dirichlet_steady_profile"),
    ("scalar.radial_shoot.s", "s", "self_s", "scalar.radial_shoot"),
    ("scalar.self.s", "s", "self_s", "scalar.self"),
    ("emit.write_csv.s", "s", "self_s", "emit.write_csv"),
    ("emit.write_json.s", "s", "self_s", "emit.write_json"),
    ("emit.svg_line_chart.s", "s", "self_s", "emit.svg_line_chart"),
    ("emit.write_manifest.s", "s", "self_s", "emit.write_manifest"),
    ("emit.self.s", "s", "self_s", "emit.self"),
    ("cli.self.s", "s", "self_s", "cli.self"),
)
STEP_SPLIT = tuple((f"pde.{kind}.N{N}", "us", kind, f"N{N}")
                   for kind in ("step_us", "diffusion_step_us", "reaction_step_us")
                   for N in (128, 512, 2048))
PER_LAYER = (
    tuple((name, unit) for name, unit, _, _ in _SPAN_METRICS)
    + tuple((name, unit) for name, unit, _, _ in STEP_SPLIT)
    + (("pde.steps", "count"), ("site_updates_per_s", "1/s"), ("emit.files", "count"),
       ("emit.bytes", "bytes"), ("cli.main.s", "s"), ("cli.ops", "count"),
       ("cli.failed_ops", "count"), ("trace.overhead_s", "s"))
    + tuple((f"{m}.sloc", "lines") for m in LAYERS)
)


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("RDLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(result: dict, untraced: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_probe": _median([r["wall_s"] / r["probe_s"] for r in untraced]),
        "cpu_probe": _median([r["cpu_s"] / r["probe_cpu_s"] for r in untraced]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _printed_only(untraced: list[dict], failed: int, attempted: int) -> dict:
    """Printed and recorded, not in the JSON metrics: see perfbench/README.md."""
    return {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "cpu_s": _median([r["cpu_s"] for r in untraced]),
        "probe_s": _median([r["probe_s"] for r in untraced]),
        "ops_per_s": _median([(len(r["op_s"]) - r["failed"]) / r["wall_s"] for r in untraced]),
        # each op of the round at its median over rounds, then the median op
        "op_p50_s": _median([_median(t) for t in zip(*(r["op_s"] for r in untraced))]),
        "site_updates_per_s": _median([r["site_updates"] / r["wall_s"] for r in untraced]),
        "error_rate": failed / attempted,
    }


def _per_layer(result: dict, untraced: list[dict], traced: list[dict], root: Path) -> dict:
    out = {}
    for name, _, table, key in _SPAN_METRICS:
        out[name] = _median([r["trace"][table].get(key, 0) for r in traced])
    split = result.get("step_split", {})
    for name, _, kind, size in STEP_SPLIT:
        out[name] = split.get(size, {}).get(kind, 0.0)
    out["pde.steps"] = result["pde_steps_per_round"]
    out["site_updates_per_s"] = _median([r["site_updates"] / r["wall_s"] for r in untraced])
    out["emit.files"] = _median([r["emit_files"] for r in traced])
    out["emit.bytes"] = _median([r["emit_bytes"] for r in traced])
    out["cli.main.s"] = _median([r["trace"]["main_s"] for r in traced])
    out["cli.ops"] = result["ops_per_round"]
    out["cli.failed_ops"] = _median([r["failed"] for r in traced])
    out["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                               - _median([r["wall_s"] for r in untraced]))
    for m in LAYERS:
        out[f"{m}.sloc"] = _sloc(root / "src" / "rdlab" / f"{m}.py")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rdlab" / "cli.py").is_file():
        print("perfbench: src/rdlab/cli.py not found; run from the root of an rdlab checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    try:
        done = subprocess.run(cmd, env=pinned_env(root), cwd=root, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        print(f"perfbench: worker exited with code {done.returncode}", file=sys.stderr)
        return 3
    result = json.loads(done.stdout.strip().splitlines()[-1])

    rounds = result["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values = _per_layer(result, untraced, traced, root)
        units = dict(PER_LAYER)
        gap = max(r["trace"]["self_sum_gap_s"] for r in traced)
        problems = result["trace_problems"]
        if gap > 1e-6:
            problems.append(f"op self times differ from cli.main by {gap:.3g} s")
        for problem in problems:
            print(f"perfbench: trace check failed: {problem}", file=sys.stderr)
        consistent = not problems
    else:
        values = _end_to_end(result, untraced)
        units = dict(END_TO_END)
        consistent = True

    env_record = dict(result["env"], git_commit=_git_commit(root), workload=args.workload,
                      seconds=args.seconds, trace=args.trace)
    print(f"# rdlab benchmark  workload={args.workload} seed={args.seed} "
          f"variant={env_record['variant']} trace={args.trace}")
    print("# " + json.dumps(env_record, sort_keys=True))
    print(f"# rounds: {len(untraced)} untraced, {len(traced)} traced; "
          f"{result['ops_per_round']} ops per round; ops timed: "
          f"{sum(len(r['op_s']) for r in untraced)} untraced; probe samples per untraced "
          f"round: {_median([r['probe_samples'] for r in untraced]):g}")
    for failure in result["failures"]:
        print(f"# FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    report = dict(values)
    if not args.trace:
        report.update(_printed_only(untraced, failed, attempted))
    units = dict(units, wall_s="s", cpu_s="s", probe_s="s", ops_per_s="1/s", op_p50_s="s",
                 site_updates_per_s="1/s", error_rate="ratio")
    for name, value in report.items():
        print(f"{name:38s} {value:>16.6g} {units[name]}")
    metrics = {n: {"value": v, "unit": units[n]} for n, v in report.items()}
    (work / "result.json").write_text(json.dumps(
        {"env": env_record, "metrics": metrics, "setup_samples_s": result["setup_s"],
         "rounds": rounds, "failures": result["failures"]}, indent=1))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
