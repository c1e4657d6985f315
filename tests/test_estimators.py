import numpy as np
import pytest

from hilbert_gauss.estimators import (
    RiskReport,
    est_functional,
    est_mean,
    est_variance,
    gm_variances,
    learning_gap,
    risk_mean,
    risk_partial,
    variance_est_risk,
)
from hilbert_gauss.processes import wiener_model
from hilbert_gauss.spectral import HVector, SpectralModel, Subspace, inner, project

WIENER_EIG_1 = 0.4052847345693511
WIENER_EIG_4 = 0.008271117032027573


def test_est_mean_projection():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4])
    y = HVector.basis_vector(16, 4, scale=2.5) + HVector.basis_vector(16, 1, scale=-1.0)
    zhat = est_mean(y, u)
    assert zhat.coeffs[3] == 2.5
    assert zhat.norm() == 2.5
    inside = HVector.basis_vector(16, 4, scale=0.3)
    assert est_mean(inside, u) == inside


def test_est_functional_identities():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [2, 3])
    rng = np.random.default_rng(0)
    for _ in range(25):
        b = HVector(rng.normal(size=16))
        y = HVector(rng.normal(size=16))
        assert est_functional(b, y, u) == pytest.approx(inner(project(b, u), y), abs=1e-12)
    b_perp = HVector.basis_vector(16, 9)
    assert est_functional(b_perp, y, u) == 0.0


def test_amplitude_functional():
    # amplitude gamma on mode k recovered through b with coefficient sqrt(2)
    m = wiener_model(16)
    k, gamma = 4, 1.37
    u = Subspace.from_indices(16, [k])
    zeta = HVector.basis_vector(16, k, scale=gamma / np.sqrt(2.0))
    b = HVector.basis_vector(16, k, scale=np.sqrt(2.0))
    assert est_functional(b, zeta, u) == pytest.approx(gamma, abs=1e-14)


def test_est_variance_denominator():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    y = HVector.basis_vector(256, 1)  # residual norm 1
    with_tail = est_variance(y, m, u, use_tail=True)
    assert with_tail == pytest.approx(1.0 / (0.5 - WIENER_EIG_4), rel=1e-13)
    truncated = est_variance(y, m, u, use_tail=False)
    denom = float(np.sum(m.eigenvalues)) - WIENER_EIG_4
    assert truncated == pytest.approx(1.0 / denom, rel=1e-13)
    assert est_variance(HVector.basis_vector(256, 4, scale=3.0), m, u) == 0.0


def test_est_variance_zero_denominator():
    m = SpectralModel([1.0, 2.0])
    u = Subspace.from_indices(2, [1, 2])
    with pytest.raises(ValueError):
        est_variance(HVector.zero(2), m, u)
    # A positive tail alone would divide a residual that the truncated modes leave at zero.
    with pytest.raises(ValueError, match="over the truncated modes is zero"):
        est_variance(HVector.zero(8), wiener_model(8), Subspace.from_indices(8, range(1, 9)), use_tail=True)


def test_risk_mean_values():
    m = wiener_model(64)
    u = Subspace.from_indices(64, [4])
    assert risk_mean(m, u, 1.0) == pytest.approx(0.0082711, abs=5e-8)
    assert risk_mean(m, u, 2.0) == pytest.approx(4.0 * risk_mean(m, u, 1.0), rel=1e-15)


def test_risk_partial_cases():
    m = wiener_model(16)
    zeta = HVector.basis_vector(16, 2, scale=0.7)
    sigma = 1.1
    covering = risk_partial(m, Subspace.from_indices(16, [1, 2]), zeta, sigma)
    assert covering.bias == 0.0
    assert covering.risk == pytest.approx(sigma**2 * (m.eigenvalues[0] + m.eigenvalues[1]), rel=1e-14)
    empty = risk_partial(m, Subspace.from_indices(16, []), zeta, sigma)
    assert empty.variance == 0.0
    assert empty.risk == pytest.approx(0.49, rel=1e-14)
    partial = risk_partial(m, Subspace.from_indices(16, [1]), zeta, sigma)
    assert partial.risk == pytest.approx(sigma**2 * WIENER_EIG_1 + 0.49, rel=1e-13)


def test_risk_report_identity():
    r = RiskReport.from_parts(bias=0.3, variance=0.11)
    assert r.risk == r.variance + r.bias**2
    with pytest.raises(ValueError):
        RiskReport.from_parts(bias=-0.1, variance=0.0)


def test_learning_gap_identity():
    m = wiener_model(32)
    u = Subspace.from_indices(32, [2, 5, 9])
    zeta = HVector(np.zeros(32))
    arr = np.array(zeta.coeffs)
    arr[1], arr[4], arr[8] = 0.9, 0.5, 0.2
    zeta = HVector(arr)
    sigma = 1.3
    full = risk_partial(m, u, zeta, sigma).risk
    for cutoff in range(0, 4):
        head = Subspace.from_indices(32, u.indices[:cutoff])
        expect = risk_partial(m, head, zeta, sigma).risk - full
        assert learning_gap(m, u, zeta, sigma, cutoff) == pytest.approx(expect, abs=1e-12)
    assert learning_gap(m, u, zeta, sigma, 3) == 0.0
    with pytest.raises(ValueError):
        learning_gap(m, u, zeta, sigma, 4)


def test_learning_gap_zero_mean_sign():
    m = wiener_model(32)
    u = Subspace.from_indices(32, [1, 2, 3, 4])
    zeta = HVector.zero(32)
    gaps = [learning_gap(m, u, zeta, 1.0, c) for c in range(5)]
    assert all(g <= 0.0 for g in gaps)
    assert gaps == sorted(gaps)  # shrinks in magnitude toward zero
    assert gaps[-1] == 0.0


def test_variance_est_risk():
    single = SpectralModel([0.7, 0.3])
    u = Subspace.from_indices(2, [1])
    assert variance_est_risk(single, u, 1.4) == pytest.approx(2.0 * 1.4**4, rel=1e-14)
    m = wiener_model(256)
    u4 = Subspace.from_indices(256, [4])
    got = variance_est_risk(m, u4, 1.0)
    lam = np.delete(m.eigenvalues, 3)
    want = 2.0 * (np.sqrt(np.sum(lam**2)) / np.sum(lam)) ** 2
    assert got == pytest.approx(want, rel=1e-13)
    assert got < 2.0


def test_gm_variances():
    m = wiener_model(16)
    k = 4
    u = Subspace.from_indices(16, [k])
    b = HVector.basis_vector(16, k, scale=np.sqrt(2.0))
    best, other = gm_variances(b, project(b, u), m, u, 1.0)
    assert best == other
    assert best == pytest.approx(2.0 * m.eigenvalues[k - 1], rel=1e-14)
    c = b + HVector.basis_vector(16, 9)
    best, other = gm_variances(b, c, m, u, 1.0)
    assert other - best == pytest.approx(m.eigenvalues[8], rel=1e-12)
    bad = b + HVector.basis_vector(16, k, scale=0.1)
    with pytest.raises(ValueError):
        gm_variances(b, bad, m, u, 1.0)


def test_gm_randomized_instances():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(3, 12))
        eig = np.sort(rng.uniform(0.0, 2.0, size=dim))[::-1]
        model = SpectralModel(eig)
        size = int(rng.integers(1, dim))
        idx = rng.choice(np.arange(1, dim + 1), size=size, replace=False)
        u = Subspace.from_indices(dim, idx.tolist())
        b = HVector(rng.normal(size=dim))
        w = rng.normal(size=dim)
        w[np.array(u.indices) - 1] = 0.0  # keep c - b orthogonal to U
        c = b + HVector(w)
        sigma = float(rng.uniform(0.2, 3.0))
        best, other = gm_variances(b, c, model, u, sigma)
        assert best <= other + 1e-12
