"""The determinism contract at the sizes where it can break: a report's bytes
(ignoring `runtime_seconds`) do not depend on how many processes run its
chunks, nor on how many threads run its blocks.

Narrow blocks start one process per chunk of at least CHUNK_SIZE // 2
replicates, so each pooled config holds at least two such chunks, and its
`workers=2` run starts a real pool in this process.  Wide blocks start no
process and run on one thread per usable CPU, so the thread check runs its
configs in a child process whose own CPU affinity is a single CPU.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from hilbert_gauss.harness import ExperimentConfig, run_experiment

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Name -> (config, the pools a workers=2 run starts, whether the run must pass).
POOLED = {
    "learning_curve": (
        {"kind": "learning_curve", "model": "wiener:64", "subspace": list(range(1, 9)), "zeta": "4:0.7",
         "replicates": 8200},
        [2],
        True,
    ),
    # 300 cutoffs, each target a sum of many squares; the report may fail a check.
    "curve_300_cutoffs": (
        {"kind": "learning_curve", "model": "wiener:1024", "subspace": list(range(1, 301)),
         "zeta": {"coords": {str(k): (-1) ** k / k for k in range(1, 301)}}, "replicates": 8296},
        [2],
        False,
    ),
    # level draws all 2048 modes: wide blocks, run here on threads whatever the workers.
    "scattered_level": (
        {"kind": "level", "model": "wiener:2048", "subspace": list(range(1, 200, 2)), "subspace0": [1, 3],
         "replicates": 4200},
        [],
        True,
    ),
    # noise_law draws the 199 modes up to U's last: narrow, so two full chunks start a pool.
    "scattered_noise_law": (
        {"kind": "noise_law", "model": "wiener:2048", "subspace": list(range(1, 200, 2)), "subspace0": [1, 3],
         "replicates": 8296},
        [2],
        True,
    ),
    # coverage_known draws each full chunk in one pass, at the largest seed,
    # whose key words wrap in the Philox rounds.
    "one_pass_largest_seed": (
        {"kind": "coverage_known", "model": "wiener:256", "subspace": [4], "b": "4:1.0", "replicates": 8200,
         "master_seed": 2**64 - 1},
        [2],
        True,
    ),
}


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool started: real pools, only counted."""
    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return sizes


@pytest.mark.parametrize("name", POOLED)
def test_report_bytes_do_not_depend_on_the_worker_count(pool_sizes, name):
    data, pools, must_pass = POOLED[name]
    config = ExperimentConfig.from_dict(data)
    one = run_experiment(config, workers=1)
    assert pool_sizes == []
    two = run_experiment(config, workers=2)
    assert pool_sizes == pools
    assert one.comparable_json() == two.comparable_json()
    assert one.passed or not must_pass


# Each config's comparable_json, run in a child whose own affinity is one CPU.
ONE_CPU = """
import json, os, sys
from hilbert_gauss.harness import ExperimentConfig, run_experiment
assert len(os.sched_getaffinity(0)) == 1
print(json.dumps([run_experiment(ExperimentConfig.from_dict(data)).comparable_json() for data in json.loads(sys.argv[1])]))
"""

# Kinds that read all 2048 modes: wide blocks, run on one thread per usable CPU.
THREADED = [
    # The subspace test is conservative here: its report reads 0 rejections whatever the draws.
    {"kind": "level", "model": "wiener:2048", "subspace": [4, 5, 6], "subspace0": [4], "replicates": 4200},
    # Every draw enters the moments' sums, which are added in block order.
    {"kind": "moments", "model": "wiener:2048", "replicates": 4200},
]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
def test_report_bytes_do_not_depend_on_the_thread_count():
    # The child runs each config's blocks on one thread, this process on all of its CPUs.
    cpu = min(os.sched_getaffinity(0))
    res = subprocess.run(
        [sys.executable, "-c", ONE_CPU, json.dumps(THREADED)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    for data, one_cpu in zip(THREADED, json.loads(res.stdout.splitlines()[-1])):
        for workers in (None, 2):
            assert run_experiment(ExperimentConfig.from_dict(data), workers=workers).comparable_json() == one_cpu
