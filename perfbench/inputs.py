"""Workloads, their seeded inputs, and the requests that drive the package.

Every input is generated here, with numpy alone, before any timing starts.
The observation banks are fixed, so that their outputs could be recorded
once (see `record.py`); the `--seed` argument picks the Monte Carlo master
seeds from a bank of recorded ones and draws the order and mix of the
single-observation requests.

The package is reached only through its public names, looked up on the
`hilbert_gauss` namespace at call time so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

KINDS = (
    "coverage_known",
    "coverage_unknown",
    "level",
    "unbiasedness",
    "moments",
    "independence",
    "noise_law",
    "risk",
    "learning_curve",
)

# Master seeds with recorded reference reports, per Monte Carlo setting.
MASTER_SEEDS = tuple(1000 + i for i in range(16))
# Observations per bank with recorded reference outputs.
OBS_BANK = 128
TRAJ_BANK = 16
TRAJ_POINTS = 512
TRAJ_DIM = 256
REG_DIM = 64
ALPHA = 0.05
# Requests drawn per run; a run that uses them all starts over.
STREAM_LENGTH = 200_000
# Kinds per run whose report is rerun at workers=2 and compared.
WORKER_CHECKS = 3

FUNCTIONAL_OPS = ("est_mean", "est_variance", "ci_known", "ci_unknown", "test_subspace")
REGRESSION_OPS = ("lse", "ci_beta_known", "ci_beta_unknown", "test_beta")
# (family, op, share of requests): 45% functional, 45% regression, 10%
# trajectories, each of which is extracted and then runs the functional set.
REQUEST_MIX = (
    *(("functional", op, 0.45 / len(FUNCTIONAL_OPS)) for op in FUNCTIONAL_OPS),
    *(("regression", op, 0.45 / len(REGRESSION_OPS)) for op in REGRESSION_OPS),
    ("trajectory", "functional_set", 0.10),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: its Monte Carlo setting and its single-observation part.

    Monte Carlo requests run at workers=1.  `mc_share` is the share of the
    measured time given to them; the rest goes to single-observation
    requests, whose functional family uses a Wiener model of `obs_dim`
    modes.
    """

    name: str
    mc_dim: int
    replicates: int
    obs_dim: int
    mc_share: float


WORKLOADS = {
    w.name: w
    for w in (
        # 4100 = one full chunk of 4096 plus a partial one.
        Workload("mc_small_dim", 256, 4100, 256, 0.85),
        Workload("mc_large_dim", 8192, 500, 8192, 0.9),
        Workload("single_obs", 256, 128, 256, 0.20),
    )
}

# Monte Carlo settings (dim, replicates) with recorded reference reports.
MC_SETTINGS = sorted({(w.mc_dim, w.replicates) for w in WORKLOADS.values()})
OBS_DIMS = sorted({w.obs_dim for w in WORKLOADS.values()})


def mc_config_dict(kind: str, dim: int, replicates: int, master_seed: int) -> dict:
    """The acceptance suite's configuration of one experiment kind."""
    data = {
        "kind": kind,
        "model": {"basis_id": "wiener", "dim": dim},
        "subspace": [4],
        "b": {"coords": {"4": float(np.sqrt(2.0))}},
        "zeta": {"coords": {"4": 0.7}},
        "sigma": 1.0,
        "alpha": ALPHA,
        "replicates": replicates,
        "master_seed": master_seed,
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
    return data


def mc_reference_key(kind: str, dim: int, replicates: int, master_seed: int) -> str:
    return f"{kind}/{dim}/{replicates}/{master_seed}"


# ---------------------------------------------------------------------------
# observation banks


def wiener_eigenvalues(dim: int) -> np.ndarray:
    k = np.arange(1, dim + 1, dtype=float)
    return 1.0 / ((k - 0.5) ** 2 * np.pi**2)


def functional_bank(dim: int) -> np.ndarray:
    """Draws of N(0.7 e_4, Q) for the Wiener model of `dim` modes."""
    rng = np.random.default_rng([7, dim])
    mean = np.zeros(dim)
    mean[3] = 0.7
    return mean + np.sqrt(wiener_eigenvalues(dim)) * rng.standard_normal((OBS_BANK, dim))


# The design of the acceptance suite's regression item: A g_1 = 1.3 e_4,
# A g_2 = -0.4 e_5, on a Wiener model of 64 modes.
def design_columns() -> np.ndarray:
    cols = np.zeros((2, REG_DIM))
    cols[0, 3] = 1.3
    cols[1, 4] = -0.4
    return cols


def regression_bank() -> np.ndarray:
    """Draws around A beta, alternating beta = (2, 1) and the null (2, 0)."""
    rng = np.random.default_rng([8, REG_DIM])
    betas = np.where(np.arange(OBS_BANK)[:, None] % 2 == 0, [2.0, 1.0], [2.0, 0.0])
    means = betas @ design_columns()
    return means + np.sqrt(wiener_eigenvalues(REG_DIM)) * rng.standard_normal((OBS_BANK, REG_DIM))


def trajectory_bank() -> tuple:
    """Grid points and sampled Wiener paths with mean 0.7 e_4."""
    rng = np.random.default_rng([9, TRAJ_DIM])
    t = np.linspace(0.0, 1.0, TRAJ_POINTS)
    mean = np.zeros(TRAJ_DIM)
    mean[3] = 0.7
    coeffs = mean + np.sqrt(wiener_eigenvalues(TRAJ_DIM)) * rng.standard_normal((TRAJ_BANK, TRAJ_DIM))
    freq = np.arange(1, TRAJ_DIM + 1) - 0.5
    basis = np.sqrt(2.0) * np.sin(np.outer(freq, np.pi * t))
    return t, coeffs @ basis


# ---------------------------------------------------------------------------
# per-run inputs


@dataclasses.dataclass
class Inputs:
    workload: Workload
    master_seed: int
    configs: dict
    worker_checks: tuple
    functional: np.ndarray
    regression: np.ndarray
    traj_t: np.ndarray
    traj_y: np.ndarray
    ops: np.ndarray
    idx: np.ndarray


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Everything a run needs, generated from the workload and the seed."""
    import hilbert_gauss as hg

    rng = np.random.default_rng([seed % 2**64, 1])
    master_seed = MASTER_SEEDS[int(rng.integers(len(MASTER_SEEDS)))]
    configs = {
        kind: hg.ExperimentConfig.from_dict(
            mc_config_dict(kind, workload.mc_dim, workload.replicates, master_seed)
        )
        for kind in KINDS
    }
    worker_checks = tuple(KINDS[i] for i in sorted(rng.choice(len(KINDS), WORKER_CHECKS, replace=False)))
    shares = np.array([share for _, _, share in REQUEST_MIX])
    ops = rng.choice(len(REQUEST_MIX), size=STREAM_LENGTH, p=shares / shares.sum())
    bank_size = np.where(ops == len(REQUEST_MIX) - 1, TRAJ_BANK, OBS_BANK)
    idx = (rng.random(STREAM_LENGTH) * bank_size).astype(np.int64)
    traj_t, traj_y = trajectory_bank()
    return Inputs(
        workload=workload,
        master_seed=master_seed,
        configs=configs,
        worker_checks=worker_checks,
        functional=functional_bank(workload.obs_dim),
        regression=regression_bank(),
        traj_t=traj_t,
        traj_y=traj_y,
        ops=ops,
        idx=idx,
    )


# ---------------------------------------------------------------------------
# requests, handled as the command line handles them but in-process: each
# one builds its model, subspaces and vectors from their specs, calls the
# package, and converts the result to the dict the command would print.


def _functional(op: str, model, y):
    import hilbert_gauss as hg

    dim = model.dim
    U = hg.Subspace.from_indices(dim, [4])
    if op == "est_mean":
        return hg.est_mean(y, U)
    if op == "est_variance":
        return hg.est_variance(y, model, U)
    if op == "test_subspace":
        U3 = hg.Subspace.from_indices(dim, [4, 5, 6])
        return hg.test_subspace(y, model, U3, U, ALPHA).to_dict()
    coeffs = np.zeros(dim)
    coeffs[3] = float(np.sqrt(2.0))
    b = hg.HVector(coeffs)
    if op == "ci_known":
        return hg.ci_known(b, y, model, U, 1.0, ALPHA).to_dict()
    return hg.ci_unknown(b, y, model, U, ALPHA).to_dict()


def _regression(op: str, coeffs: np.ndarray):
    import hilbert_gauss as hg

    model = hg.wiener_model(REG_DIM)
    design = hg.DesignOperator(model, design_columns())
    y = hg.HVector(coeffs)
    c = np.array([1.0, 0.0])
    if op == "lse":
        return hg.lse(design, y)
    if op == "ci_beta_known":
        return hg.ci_beta_known(c, design, y, 1.0, ALPHA).to_dict()
    if op == "ci_beta_unknown":
        return hg.ci_beta_unknown(c, design, y, ALPHA).to_dict()
    return hg.test_beta(y, design, [np.array([1.0, 0.0])], ALPHA).to_dict()


def _trajectory(t: np.ndarray, values: np.ndarray):
    import hilbert_gauss as hg

    model = hg.wiener_model(TRAJ_DIM)
    y = hg.coeffs_from_trajectory(model, hg.Grid(t), values)
    return [y] + [_functional(op, model, y) for op in FUNCTIONAL_OPS]


def handle(inputs: Inputs, family: str, op: str, i: int):
    """Run one single-observation request and return its raw result."""
    import hilbert_gauss as hg

    if family == "functional":
        model = hg.wiener_model(inputs.workload.obs_dim)
        return _functional(op, model, hg.HVector(inputs.functional[i]))
    if family == "regression":
        return _regression(op, inputs.regression[i])
    return _trajectory(inputs.traj_t, inputs.traj_y[i])


def digest(result) -> list:
    """The numbers of a request's result that are checked against the
    reference: interval centres and half-widths, test statistics,
    thresholds and reject flags, and two checksums of each vector."""
    if isinstance(result, list):
        return [v for part in result for v in digest(part)]
    if isinstance(result, dict):
        if "half_width" in result:
            return [float(result["center"]), float(result["half_width"])]
        return [float(result["statistic"]), float(result["threshold"]), float(result["reject"])]
    if isinstance(result, float):
        return [result]
    coeffs = np.asarray(getattr(result, "coeffs", result), dtype=float)
    if coeffs.size <= 2:
        return [float(v) for v in coeffs]
    weights = np.arange(1, coeffs.size + 1) / coeffs.size
    return [float(coeffs @ coeffs), float(coeffs @ weights)]


def obs_reference_key(family: str, op: str, dim: int) -> str:
    if family == "functional":
        return f"functional/{dim}/{op}"
    return f"{family}/{op}"
