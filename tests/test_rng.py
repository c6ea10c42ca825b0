import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqwsim
from sqwsim.rng import child_seed


def _numpy_child_seed(master_seed, *path):
    return int(np.random.SeedSequence((master_seed, *path)).generate_state(1, np.uint64)[0])


def test_child_seed_is_stable():
    assert child_seed(0, 0) == child_seed(0, 0)
    assert child_seed(5, 1, 2) == child_seed(5, 1, 2)


def test_child_seed_varies_with_path():
    seeds = {child_seed(3, r) for r in range(200)}
    assert len(seeds) == 200
    assert child_seed(3, 0) != child_seed(4, 0)
    assert child_seed(3, 0, 1) != child_seed(3, 1, 0)


def test_rejects_negative_master():
    with pytest.raises(ValueError):
        child_seed(-1, 0)


@pytest.mark.parametrize("path", [(-1,), (0, -1), (2**40, np.int64(-3))])
def test_rejects_negative_path_entry(path):
    with pytest.raises(ValueError):
        child_seed(0, *path)


@pytest.mark.parametrize("args", [(1.5,), (0, 2.0), (3, np.float64(1.0)), (0, np.True_)])
def test_rejects_non_integers(args):
    with pytest.raises(TypeError):
        child_seed(*args)


def test_pinned_values():
    # fixed here, so a change of numpy's SeedSequence cannot move both the
    # derivation and its oracle unseen
    assert child_seed(0) == 15793235383387715774
    assert child_seed(0, 0) == 15793235383387715774
    assert child_seed(7, 3) == 5061563556724077661
    assert child_seed(2**64 + 5, 1) == 12918575357904905761


EDGE_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100)


def test_equals_numpy_seed_sequence():
    rnd = random.Random(20_000)
    cases = [(m, *path) for m in EDGE_MASTERS
             for path in ((), (0,), (1, 2), (2**32 - 1, 2**32), (2**40, 0, 5), (1, 2, 3, 2**40))]
    for bound in (100, 2**32, 2**64, 2**100):
        for _ in range(5_000):
            path = [rnd.randrange(rnd.choice((10, 2**32, 2**40 + 1))) for _ in range(rnd.randrange(5))]
            cases.append((rnd.randrange(bound), *path))
    cases += [(np.int64(7), np.uint64(3)), (np.uint64(2**64 - 1), np.int64(2**40)),
              (True, False, 1), (np.int32(5), True)]
    assert len(cases) >= 20_000
    mismatches = [args for args in cases if child_seed(*args) != _numpy_child_seed(*args)]
    assert mismatches == []


# Runs each walk command through cli.main in its own directory under argv[1]
# with ``--workers argv[2]`` and prints whether numpy.random was imported.
_WALKS = """
import os, sys
from sqwsim.cli import main
out, workers = sys.argv[1], sys.argv[2]
calls = {
    "sweep": ["sweep", "--n-list", "4", "--q-list", "1,2", "--p-list", "0,0.1", "--noise", "polygons",
              "--split", "one_vs_rest", "--runs", "3", "--seed", "4", "--out", "sweep.csv"],
    "search": ["search", "--n", "4", "--noise", "vertices", "--p", "0.1", "--runs", "3", "--seed", "4",
               "--out", "search.csv"],
    "evolve": ["evolve", "--n", "4", "--steps", "5", "--runs", "3", "--noise", "vertices", "--p", "0.1",
               "--seed", "4", "--out-dist", "dist.csv", "--out-std", "std.csv"],
}
for name, argv in calls.items():
    os.makedirs(os.path.join(out, name))
    os.chdir(os.path.join(out, name))
    assert main(argv + ["--workers", workers]) == 0
print("numpy.random" in sys.modules)
"""


def test_pool_coordinator_never_imports_numpy_random(tmp_path):
    src = str(Path(sqwsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    written, loaded = {}, {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run([sys.executable, "-c", _WALKS, str(out), workers],
                              env=env, capture_output=True, text=True, check=True)
        loaded[workers] = proc.stdout.split()[-1]
        written[workers] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    # the serial call draws in its own process; the pool's workers draw for the other
    assert loaded == {"1": "True", "2": "False"}
    assert len(written["1"]) == 4 and written["2"] == written["1"]
