"""Golden-report pins: every experiment kind at small replicate counts must
reproduce the recorded check outcomes and estimates.

The fixture `golden_reports.json` was recorded from the per-replicate
loops that preceded the batched chunk runner; it holds, per kind, the
check names, sidedness and pass flags, the estimates, and the sha256 of
the report's `comparable_json`.  The batched runner reproduces every
report byte for byte, so the hash is pinned too; the outcome and estimate
checks say what moved should it ever fail.  The dense learning curve was
recorded from the per-cutoff closed-form targets that preceded the
row-block ones.  Regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py

only when a change is meant to move report bytes, and say so in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from hilbert_gauss import harness, sampling
from hilbert_gauss.harness import CHUNK_SIZE, EXPERIMENT_KINDS, ExperimentConfig, ReplicateStreams, derive_stream
from hilbert_gauss.harness import run_experiment

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
DIM = 64
# More than two chunks and a partial one.
REPLICATES = 2 * CHUNK_SIZE + 17
MASTER_SEED = 7
REL_TOL = 1e-12


def golden_config(kind: str) -> ExperimentConfig:
    """The acceptance suite's configuration of one kind, at DIM modes."""
    return ExperimentConfig.from_dict(golden_data(kind, DIM))


def golden_data(kind: str, dim: int) -> dict:
    data = {
        "kind": kind,
        "model": {"basis_id": "wiener", "dim": dim},
        "subspace": [4],
        "b": {"coords": {"4": 2.0**0.5}},
        "zeta": {"coords": {"4": 0.7}},
        "sigma": 1.0,
        "alpha": 0.05,
        "replicates": REPLICATES,
        "master_seed": MASTER_SEED,
    }
    if kind == "moments":
        data.update(subspace=None, b=None, zeta=None)
    elif kind == "level":
        data.update(subspace=[4, 5, 6], subspace0=[4], b=None)
    elif kind == "noise_law":
        data.update(subspace=[4, 5, 6], subspace0=[4], sigma=1.7, b=None)
    elif kind == "risk":
        data.update(sigma=1.3)
    elif kind == "learning_curve":
        data.update(subspace=list(range(1, 9)), b=None)
    return {k: v for k, v in data.items() if v is not None}


def dense_config() -> ExperimentConfig:
    """A learning curve whose mean is nonzero on every mode of U, so that each
    closed-form target sums many squares; cutoffs unsorted, 0 and |U| among them."""
    data = golden_data("learning_curve", 1024)
    data.update(subspace=list(range(1, 41)), zeta={"coords": {str(k): (-1) ** k * 1.5 / k for k in range(1, 41)}},
                sigma=0.8, cutoffs=[17, 0, 40, 3, 29, 8, 1, 35, 12, 24])
    return ExperimentConfig.from_dict(data)


# Blocks of 16 rows, so that a chunk runs its blocks on threads when it may.
WIDE_DIM = 1024
# Name -> kind: the kinds that read every mode, a frame U (read in full) and a
# complement U, whose summed outputs are WIDE_DIM wide.
WIDE = {kind: kind for kind in ("coverage_unknown", "level", "unbiasedness", "moments", "independence", "risk")}
WIDE.update(frame_coverage_known="coverage_known", complement_unbiasedness="unbiasedness")


# Name -> kind: paths that the configs above miss, each pinned at workers 1
# and 3.  A U of more runs of modes than a block takes as slices (so its
# projections take np.where), with U0 inside it; a frame U, whose test keeps
# two projections for its shift; a complement U, whose residual is a plain
# index set.  A flat spectrum makes the test and the interval exact, so each
# report counts outcomes that hinge on the statistic, not a rate of 0 or 1.
# Recorded from the two-pass statistics that preceded the one-pass ones.
PINNED = {"scattered_level": "level", "frame_level": "level", "complement_coverage_unknown": "coverage_unknown"}


def wide_config(name: str) -> ExperimentConfig:
    """A golden config at WIDE_DIM modes; its fixture key is 'wide_' + name."""
    data = golden_data({**WIDE, **PINNED}[name], WIDE_DIM)
    if name == "frame_coverage_known":
        frame = [[0.0] * WIDE_DIM for _ in range(2)]  # e4 and e6: Q-invariant, as a frame must be
        frame[0][3] = frame[1][5] = 1.0
        data["subspace"] = {"frame": frame}
    elif name == "complement_unbiasedness":
        # U is modes 1..6, so the worst-coordinate check runs over six coordinates, not over WIDE_DIM.
        U = {"indices": list(range(7, WIDE_DIM + 1)), "complement": True}
        data.update(subspace=U, zeta={"coords": {"5": 0.7}}, use_tail=False)
    if name in PINNED:
        data["model"] = {"eigenvalues": [1.0] * WIDE_DIM}
    if name == "scattered_level":
        data.update(subspace=list(range(1, 100, 2)), subspace0=[5, 7], zeta={"coords": {"5": 0.7}})
    elif name == "frame_level":
        frame = [[0.0] * WIDE_DIM for _ in range(2)]
        frame[0][3] = frame[1][5] = 1.0
        data["subspace"] = {"frame": frame}
    elif name == "complement_coverage_unknown":
        data.update(subspace={"indices": list(range(7, WIDE_DIM + 1)), "complement": True}, use_tail=False)
    return ExperimentConfig.from_dict(data)


# sha256 of the first STREAM_NORMALS standard normals (float64 bytes) of
# derive_stream(seed, replicate), recorded under numpy 2.4.6: the first and
# last replicates of the golden configs, and the extreme keys.  numpy keeps a
# bit generator's raw stream fixed across versions (NEP 19), but not what
# Generator.standard_normal makes of it, and every sha256 above rests on it.
STREAM_NORMALS = 64
STREAM_FINGERPRINTS = {
    (MASTER_SEED, 0): "40cebb0ef47ac043fcea28cf50508a346a744fccf627a19f7699f3417c65345b",
    (MASTER_SEED, 1): "866fa334c9affac940ad1ec1e2484442cd5ec36e2f8c2d68f9ee11b25d095be0",
    (MASTER_SEED, REPLICATES - 1): "30ae066a203df78029f95d70b689da48202817aa453b8be9a7a1611c8c1240e1",
    (0, 0): "4ab6795e6c089114c2bc5596c4cb82299db54790e4d6dd882f53e5d74201c2b5",
    (2**64 - 1, 2**64 - 1): "cc0281299a3031dbc0ab740be1ff845e742961647667a97cffab070b148c3744",
}


def test_normal_stream_fingerprint():
    rows = {key: derive_stream(*key).standard_normal(STREAM_NORMALS) for key in STREAM_FINGERPRINTS}
    got = {key: hashlib.sha256(row.tobytes()).hexdigest() for key, row in rows.items()}
    assert got == STREAM_FINGERPRINTS, (
        f"numpy {np.__version__} moved the normal stream of derive_stream: Generator.standard_normal "
        "no longer gives the bytes recorded under numpy 2.4.6, so the golden sha256 pins cannot hold "
        "whatever the package does"
    )
    # The batched runner re-keys one generator per seed, row after row: same rows.
    for seed in {seed for seed, _ in rows}:
        replicates = [replicate for key, replicate in rows if key == seed]
        batched = np.empty((len(replicates), STREAM_NORMALS))
        ReplicateStreams(seed).standard_normal_rows(replicates, batched)
        assert batched.tobytes() == np.vstack([rows[seed, r] for r in replicates]).tobytes(), seed


def digest(report) -> dict:
    return {
        "passed": report.passed,
        "checks": [[c["name"], c["sided"], c["passed"]] for c in report.checks],
        "estimates": dict(report.estimates),
        "sha256": hashlib.sha256(report.comparable_json().encode()).hexdigest(),
    }


def load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", (*EXPERIMENT_KINDS, "dense_learning_curve"))
def test_golden_report(kind):
    want = load_fixture()[kind]
    config = dense_config() if kind == "dense_learning_curve" else golden_config(kind)
    serial = run_experiment(config, workers=1)
    got = digest(serial)
    assert got["passed"] == want["passed"]
    assert got["checks"] == want["checks"]
    assert sorted(got["estimates"]) == sorted(want["estimates"])
    for name, value in want["estimates"].items():
        assert got["estimates"][name] == pytest.approx(value, rel=REL_TOL, abs=0.0), name
    assert got["sha256"] == want["sha256"]
    parallel = run_experiment(config, workers=3)
    assert parallel.comparable_json() == serial.comparable_json()


@pytest.mark.parametrize("name", WIDE)
def test_wide_report_is_thread_invariant(monkeypatch, name):
    # Blocks run on threads here, in this process whatever `workers` allows:
    # neither the thread count nor the worker count changes a byte.
    # Three threads on fewer cores, switching often, would show a block taken
    # out of order or a slot reused too soon.
    want = load_fixture()["wide_" + name]
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus, workers in ((1, 1), (2, 1), (3, 1), (4, 2)):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            reports.append(run_experiment(wide_config(name), workers=workers).comparable_json())
    finally:
        sys.setswitchinterval(interval)
    assert hashlib.sha256(reports[0].encode()).hexdigest() == want["sha256"]
    assert reports[1:] == reports[:1] * 3


def test_heads_keep_the_constants_their_kinds_read(monkeypatch):
    # The narrow kinds read their plan constants off a head of the plan; each
    # equals the full plan's, bit for bit (a head's traces differ, and none is read).
    heads = []
    cut = sampling.Plan.head

    def recorded(plan, width):
        heads.append((plan, cut(plan, width)))
        return heads[-1][1]

    monkeypatch.setattr(sampling.Plan, "head", recorded)
    for kind in ("coverage_known", "noise_law"):
        harness._build(golden_config(kind))
    (known, known_head), (noise, noise_head) = heads
    assert known_head.model.dim < DIM and noise_head.model.dim < DIM
    assert known_head.variance_factor == known.variance_factor
    assert noise_head.decomposition == noise.decomposition  # lam, n, mu and m
    assert noise_head.leading.indices == noise.leading.indices
    (coords, lam, mu), (want_coords, want_lam, want_mu) = noise_head.whitening, noise.whitening
    assert coords.tobytes() == want_coords.tobytes() and lam.tobytes() == want_lam.tobytes() and mu == want_mu


@pytest.mark.parametrize("name", PINNED)
def test_pinned_report(name):
    want = load_fixture()["wide_" + name]
    serial = run_experiment(wide_config(name), workers=1)
    assert digest(serial) == want
    assert run_experiment(wide_config(name), workers=3).comparable_json() == serial.comparable_json()


if __name__ == "__main__":
    fixture = {kind: digest(run_experiment(golden_config(kind), workers=1)) for kind in EXPERIMENT_KINDS}
    fixture.update({"wide_" + name: digest(run_experiment(wide_config(name), workers=1)) for name in (*WIDE, *PINNED)})
    fixture["dense_learning_curve"] = digest(run_experiment(dense_config(), workers=1))
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
