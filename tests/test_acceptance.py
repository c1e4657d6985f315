"""Acceptance suite: one test per contract item, pinned seeds and tolerances.

Every Monte Carlo check uses a fixed master seed, so each test is fully
deterministic.  Seeds were chosen once, up front; the statistical checks
themselves keep their nominal three-standard-error tolerances.
"""

import time

import numpy as np
import pytest
from scipy.special import fdtr, stdtr

from hilbert_gauss import inference
from hilbert_gauss.distributions import (
    gamma_ratio_reduction,
    gamma_sample,
    ks_critical_value,
    ks_statistic,
    t_ratio_reduction,
)
from hilbert_gauss.estimators import gm_variances, risk_mean
from hilbert_gauss.harness import ExperimentConfig, derive_stream, run_experiment
from hilbert_gauss.processes import bridge_model, wiener_model
# qualified access for test_beta: the bare name collides with pytest collection
from hilbert_gauss import regression
from hilbert_gauss.regression import DesignOperator, ci_beta_known, ci_beta_unknown, lse
from hilbert_gauss.sampling import GaussianLaw, noise_decomposition, sample
from hilbert_gauss.spectral import HVector, SpectralModel, Subspace

WIENER_EIG_1 = 0.4052847345693511
WIENER_EIG_4 = 0.008271117032027573
SQRT2 = np.sqrt(2.0)

AMPLITUDE = {
    "model": {"basis_id": "wiener", "dim": 256},
    "subspace": [4],
    "b": {"coords": {"4": SQRT2}},
    "zeta": {"coords": {"4": 0.7}},
    "sigma": 1.0,
    "alpha": 0.05,
}


def run(kind, seed, replicates, **overrides):
    data = {**AMPLITUDE, "kind": kind, "master_seed": seed, "replicates": replicates}
    data.update(overrides)
    return run_experiment(ExperimentConfig.from_dict(data))


def test_c01_model_traces():
    t0 = time.perf_counter()
    for factory, total in ((wiener_model, 0.5), (bridge_model, 1.0 / 6.0)):
        m = factory(100_000)
        truncated = float(np.sum(m.eigenvalues))
        assert 0.0 < total - truncated <= 1.2e-6
        assert abs(m.trace() - total) <= 1e-15
    assert time.perf_counter() - t0 < 1.0


def test_c02_norm_sq_moments():
    t0 = time.perf_counter()
    big = {"dim": 1024}

    r = run("moments", seed=11, replicates=100_000,
            model={"basis_id": "wiener", **big}, subspace=None, b=None, zeta=None)
    assert r.passed, r.check_rows()
    assert abs(r.targets["norm_sq_mean"]["value"] - 0.5) <= 1e-15
    assert r.targets["norm_sq_var"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    r = run("moments", seed=12, replicates=100_000,
            model={"basis_id": "bridge", **big}, subspace=None, b=None, zeta=None)
    assert r.passed, r.check_rows()
    assert abs(r.targets["norm_sq_mean"]["value"] - 1.0 / 6.0) <= 1e-15
    assert r.targets["norm_sq_var"]["value"] == pytest.approx(1.0 / 45.0, abs=1e-9)

    r = run("moments", seed=13, replicates=100_000,
            model={"basis_id": "wiener", **big}, subspace=None, b=None,
            zeta={"coords": {"1": 0.7}})
    assert r.passed, r.check_rows()
    assert r.targets["norm_sq_mean"]["value"] == pytest.approx(0.5 + 0.49, abs=1e-12)
    assert r.targets["norm_sq_var"]["value"] == pytest.approx(
        1.0 / 3.0 + 4.0 * WIENER_EIG_1 * 0.49, abs=1e-9
    )
    assert time.perf_counter() - t0 < 30.0


def test_c03_unbiased_estimators():
    t0 = time.perf_counter()
    for seed, sigma in ((21, 0.5), (22, 1.0), (23, 2.0)):
        r = run("unbiasedness", seed=seed, replicates=100_000, sigma=sigma)
        assert r.passed, (sigma, r.check_rows())
        assert r.targets["s2_mean"]["value"] == sigma**2
    assert time.perf_counter() - t0 < 30.0


def test_c04_risk_formulas():
    sigma = 1.3
    r = run("risk", seed=31, replicates=100_000, sigma=sigma)
    assert r.passed, r.check_rows()
    model = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    assert r.targets["mean_risk"]["value"] == risk_mean(model, u, sigma)
    assert r.targets["mean_risk"]["value"] == pytest.approx(sigma**2 * WIENER_EIG_4, rel=1e-13)
    bound = 2.0 * sigma**4
    assert r.targets["s2_risk_bound"]["value"] == bound
    assert r.estimates["s2_risk"] <= bound + 3.0 * r.standard_errors["s2_risk"]


def test_c05_known_sigma_coverage():
    for seed, alpha in ((41, 0.05), (42, 0.10)):
        r = run("coverage_known", seed=seed, replicates=100_000, alpha=alpha)
        assert r.passed, (alpha, r.check_rows())
        tol = 3.0 * np.sqrt(alpha * (1.0 - alpha) / 100_000)
        assert abs(r.estimates["coverage"] - (1.0 - alpha)) <= tol + 1e-9
        row = r.checks[0]
        assert row["sided"] == "two"
        assert row["tolerance"] == pytest.approx(tol, abs=1e-10)


def test_c06_unknown_sigma_coverage():
    r = run("coverage_unknown", seed=51, replicates=100_000)
    assert r.passed, r.check_rows()
    tol = 3.0 * np.sqrt(0.05 * 0.95 / 100_000)
    assert r.estimates["coverage"] >= 0.95 - tol - 1e-9
    model = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    tau, lam, n = inference.ci_params_unknown(model, u)
    assert abs(tau - (0.5 - WIENER_EIG_4)) <= 1e-15
    assert tau == pytest.approx(0.4917289, abs=5e-8)
    assert lam == 4.0 / np.pi**2
    assert n == 1


def test_c07_test_level():
    r = run(
        "level",
        seed=61,
        replicates=100_000,
        subspace=[4, 5, 6],
        subspace0=[4],
        b=None,
    )
    assert r.passed, r.check_rows()
    tol = 3.0 * np.sqrt(0.05 * 0.95 / 100_000)
    assert r.estimates["rejection_rate"] <= 0.05 + tol + 1e-9
    model = wiener_model(256)
    u = Subspace.from_indices(256, [4, 5, 6])
    u0 = Subspace.from_indices(256, [4])
    lam, mu, n, m = inference.test_params(model, u, u0)
    assert (n * lam) / (m * mu) == 40.5


def test_c08_identity_model_constants():
    model = SpectralModel(np.ones(5))
    u = Subspace.from_indices(5, [1, 2])
    u0 = Subspace.from_indices(5, [1])
    assert inference.ci_params_unknown(model, u) == (3.0, 1.0, 3)
    assert inference.test_params(model, u, u0) == (1.0, 1.0, 3, 1)


def test_c09_noise_laws():
    draws = 10_000
    r = run(
        "noise_law",
        seed=71,
        replicates=draws,
        subspace=[4, 5, 6],
        subspace0=[4],
        sigma=1.7,
        b=None,
    )
    assert r.passed, r.check_rows()
    crit = ks_critical_value(draws, alpha=0.05)
    assert r.estimates["ks_s"] < crit
    assert r.estimates["ks_t"] < crit

    # scaled-ratio reductions, checked against the plain t and Fisher laws
    model = wiener_model(256)
    dec = noise_decomposition(
        model, Subspace.from_indices(256, [4, 5, 6]), Subspace.from_indices(256, [4])
    )
    rng = derive_stream(72, 0)
    z = rng.normal(size=draws)
    y = gamma_sample(rng, dec.s_shape, dec.s_rate, size=draws)
    scale, dof, pearson = t_ratio_reduction(dec.s_shape, dec.s_rate)
    assert pearson.m == dec.s_shape + 0.5
    d = ks_statistic(z / np.sqrt(y), lambda x: stdtr(dof, x / scale))
    assert d < crit

    x = gamma_sample(rng, dec.t_shape, dec.t_rate, size=draws)
    w = gamma_sample(rng, dec.s_shape, dec.s_rate, size=draws)
    fscale, fparams = gamma_ratio_reduction(dec.t_shape, dec.t_rate, dec.s_shape, dec.s_rate)
    assert (fparams.m, fparams.n) == (2.0 * dec.t_shape, 2.0 * dec.s_shape)
    d = ks_statistic(x / w, lambda v: fdtr(fparams.m, fparams.n, v / fscale))
    assert d < crit


def test_c10_estimator_independence():
    m = 100_000
    r = run("independence", seed=81, replicates=m)
    assert r.passed, r.check_rows()
    assert abs(r.estimates["correlation"]) < 3.0 / np.sqrt(m)


def test_c11_optimality():
    rng = np.random.default_rng(91)
    gm_violations = 0
    for _ in range(1000):
        dim = int(rng.integers(3, 16))
        model = SpectralModel(np.sort(rng.uniform(0.0, 2.0, size=dim))[::-1])
        size = int(rng.integers(1, dim))
        idx = rng.choice(np.arange(1, dim + 1), size=size, replace=False)
        u = Subspace.from_indices(dim, idx.tolist())
        b = HVector(rng.normal(size=dim))
        w = rng.normal(size=dim)
        w[np.array(u.indices) - 1] = 0.0
        sigma = float(rng.uniform(0.2, 3.0))
        best, other = gm_variances(b, b + HVector(w), model, u, sigma)
        if best > other + 1e-12:
            gm_violations += 1
    assert gm_violations == 0

    risk_violations = 0
    for _ in range(1000):
        dim = int(rng.integers(3, 24))
        lam = rng.uniform(0.0, 2.0, size=dim)
        size = int(rng.integers(1, dim))
        idx = rng.choice(np.arange(dim), size=size, replace=False)
        mask = np.zeros(dim, dtype=bool)
        mask[idx] = True
        # any linear reconstruction fixing U: coordinate weights 1 on U
        t = rng.uniform(-2.0, 2.0, size=dim)
        t[mask] = 1.0
        sigma = float(rng.uniform(0.2, 3.0))
        competitor = sigma**2 * float(np.sum(t**2 * lam))
        projection = sigma**2 * float(np.sum(lam[mask]))
        if competitor < projection - 1e-12:
            risk_violations += 1
    assert risk_violations == 0


def test_c12_regression():
    dim = 64
    model = wiener_model(dim)
    design = DesignOperator(
        model,
        [HVector.basis_vector(dim, 4, scale=1.3), HVector.basis_vector(dim, 5, scale=-0.4)],
    )
    beta = np.array([2.0, 1.0])

    # exact recovery without noise
    assert np.allclose(lse(design, design.apply(beta)), beta, atol=1e-12)

    # least squares agrees with a derivative-free grid refinement
    y = sample(GaussianLaw(model, design.apply(beta), 1.0), derive_stream(100, 0))
    beta_hat = lse(design, y)
    center, width = beta_hat.copy(), 0.02
    for _ in range(4):
        g0 = np.linspace(center[0] - width, center[0] + width, 41)
        g1 = np.linspace(center[1] - width, center[1] + width, 41)
        fits = design.columns @ np.stack(np.meshgrid(g0, g1, indexing="ij")).reshape(2, -1)
        losses = np.sum((y.coeffs[:, None] - fits) ** 2, axis=0)
        i, j = np.unravel_index(int(np.argmin(losses)), (41, 41))
        center = np.array([g0[i], g1[j]])
        width /= 20.0
    assert np.max(np.abs(center - beta_hat)) <= 1e-6

    m = 100_000
    c = np.array([1.0, 0.0])
    truth = float(c @ beta)
    tol = 3.0 * np.sqrt(0.05 * 0.95 / m)

    law = GaussianLaw(model, design.apply(beta), 1.0)
    hits = sum(
        ci_beta_known(c, design, sample(law, derive_stream(101, i)), 1.0, 0.05).covers(truth)
        for i in range(m)
    )
    assert abs(hits / m - 0.95) <= tol

    hits = sum(
        ci_beta_unknown(c, design, sample(law, derive_stream(102, i)), 0.05).covers(truth)
        for i in range(m)
    )
    assert hits / m >= 0.95 - tol

    null_law = GaussianLaw(model, design.apply(np.array([2.0, 0.0])), 1.0)
    g0 = [np.array([1.0, 0.0])]
    rejects = sum(
        regression.test_beta(sample(null_law, derive_stream(103, i)), design, g0, 0.05).reject
        for i in range(m)
    )
    assert rejects / m <= 0.05 + tol


def test_c13_determinism():
    kwargs = dict(kind="coverage_known", seed=2, replicates=2 * 4096 + 17)
    first = run(**kwargs)
    second = run(**kwargs)
    assert first.comparable_json() == second.comparable_json()
    data = {**AMPLITUDE, "kind": "coverage_known", "master_seed": 2, "replicates": 2 * 4096 + 17}
    parallel = run_experiment(ExperimentConfig.from_dict(data), workers=3)
    assert parallel.comparable_json() == first.comparable_json()
