"""Record the reference outputs that run.py checks against.

Run from the repository root at the commit whose outputs are the reference::

    python3 perfbench/record.py

Every workload command runs once per seed in REFERENCE_SEEDS, in a fresh
``python -m phrmt.cli`` process, and the outputs go to perfbench/reference.json.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from outputs import ATOL, KS_ATOL, RTOL, dump_reference, pack, read_outputs
from workloads import REFERENCE_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    commands = {cmd.key: cmd for w in WORKLOADS.values() for cmd in w.commands}
    entries = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for key, cmd in commands.items():
            records = []
            for seed in REFERENCE_SEEDS:
                out = Path(tmp) / f"{len(entries)}_{seed}"
                argv = [sys.executable, "-m", "phrmt.cli", *cmd.argv(seed, str(out))]
                subprocess.run(argv, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
                records.append(read_outputs(out))
            entries[key] = pack(records)
            print(f"recorded {key}", file=sys.stderr)
    reference = {
        "seeds": list(REFERENCE_SEEDS),
        "tolerance": {"rtol": RTOL, "atol": ATOL, "ks_atol": KS_ATOL},
        "commands": entries,
    }
    (HERE / "reference.json").write_text(dump_reference(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
