"""Record references.json: the key numbers of every op of every input variant.

Run from the root of a source checkout:

    python3 perfbench/record_refs.py [workload ...]

Each (workload, variant) runs one round in a pinned worker.  References are
recorded at one commit and checked by every later run, so refresh them only
in a change that states why the outputs moved, with its evidence.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from run import pinned_env  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    root = Path.cwd()
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    env = pinned_env(root)
    for workload in argv or WORKLOADS:
        refs[workload] = {}
        for variant in range(VARIANTS):
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(variant), "--workdir", str(root / ".perfbench" / "record"),
                 "--record"],
                env=env, cwd=root, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            refs[workload][str(variant)] = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} variant {variant}: recorded", file=sys.stderr)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
