"""Record the reference outputs the correctness gate compares against.

Run from the root of a checkout, at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs the evolve_q1 and sweep_search CLI calls at the reference seed and
copies their CSVs to perfbench/reference.  validate_files needs no reference:
its expected report follows from the seed.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_DIR, REFERENCE_SEED, WORKLOADS  # noqa: E402

FILES = {"evolve_q1": {"dist.csv": "evolve_q1_dist.csv", "std.csv": "evolve_q1_std.csv"},
         "sweep_search": {"sweep.csv": "sweep_search.csv"}}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, files in FILES.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for call in WORKLOADS[name].calls(REFERENCE_SEED, workers=2):
                subprocess.run([sys.executable, "-m", "sqwsim.cli", *call.argv], cwd=tmp, env=env, check=True)
            for produced, kept in files.items():
                (REFERENCE_DIR / kept).write_bytes((Path(tmp) / produced).read_bytes())
                print(f"wrote {REFERENCE_DIR / kept}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
