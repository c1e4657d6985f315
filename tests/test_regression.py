import numpy as np
import pytest

from hilbert_gauss import inference, regression
from hilbert_gauss.estimators import est_functional
from hilbert_gauss.processes import wiener_model
from hilbert_gauss.regression import (
    DesignOperator,
    ci_beta_known,
    ci_beta_unknown,
    lse,
    pullback_functional,
)
from hilbert_gauss.spectral import HVector, SpectralModel, Subspace, project


def coordinate_design(dim=16, scale=(2.0, -1.0)):
    m = wiener_model(dim)
    cols = [
        HVector.basis_vector(dim, 2, scale=scale[0]),
        HVector.basis_vector(dim, 5, scale=scale[1]),
    ]
    return m, DesignOperator(m, cols)


def test_design_basics():
    m, a = coordinate_design()
    assert a.n_params == 2
    assert a.range.indices == (2, 5)
    fitted = a.apply([3.0, 4.0])
    assert fitted.coeffs[1] == 6.0
    assert fitted.coeffs[4] == -4.0
    with pytest.raises(ValueError):
        a.apply([1.0])


def test_design_frame_path():
    m = SpectralModel([1.0, 1.0, 0.5])
    a = DesignOperator(m, [np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0])])
    u = a.range
    v = HVector(np.array([0.3, -0.7, 2.0]))
    direct = project(v, Subspace.from_indices(3, [1, 2]))
    assert np.allclose(project(v, u).coeffs, direct.coeffs, atol=1e-12)


def test_design_rejects_non_invariant_range():
    m = wiener_model(8)
    with pytest.raises(ValueError):
        DesignOperator(m, [np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])])


def test_design_validation():
    m = wiener_model(8)
    with pytest.raises(ValueError):
        DesignOperator(m, [])
    with pytest.raises(ValueError):
        DesignOperator(m, [np.ones(5)])
    col = HVector.basis_vector(8, 3).coeffs
    with pytest.raises(ValueError):
        DesignOperator(m, [col, 2.0 * col])  # proportional columns
    bad = np.zeros(8)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        DesignOperator(m, [bad])
    # Every column is a 1-d vector of model.dim numbers: a matrix is not
    # split into columns, a (dim, 1) array is no column, and lengths differ
    # by column, each named by its index and shape.
    for columns, message in (
        ([np.ones((8, 2))], r"column 0 has shape \(8, 2\)"),
        ([np.ones(8)[:, None]], r"column 0 has shape \(8, 1\)"),
        ([np.eye(8)[2], np.ones(7)], r"column 1 has shape \(7,\)"),
        ([np.eye(8)[2], [1.0] * 9], r"column 1 has shape \(9,\)"),
    ):
        with pytest.raises(ValueError, match=message):
            DesignOperator(m, columns)


def test_lse_noiseless_recovery():
    m, a = coordinate_design()
    beta = np.array([0.8, -2.5])
    got = lse(a, a.apply(beta))
    assert np.allclose(got, beta, atol=1e-12)


def test_lse_geometry():
    m, a = coordinate_design()
    rng = np.random.default_rng(5)
    y = HVector(rng.normal(size=16) * np.sqrt(m.eigenvalues))
    beta = lse(a, y)
    fitted = a.apply(beta)
    # normal equations and residual orthogonal to every column
    assert np.allclose(a.gram @ beta, a.columns.T @ y.coeffs, atol=1e-12)
    resid = y - fitted
    assert np.allclose(a.columns.T @ resid.coeffs, 0.0, atol=1e-10)
    assert np.allclose(fitted.coeffs, project(y, a.range).coeffs, atol=1e-10)
    # beta is the global minimizer of the squared distance
    base = resid.norm_sq()
    for _ in range(200):
        delta = rng.normal(size=2) * rng.choice([1e-3, 1e-1, 1.0])
        assert (y - a.apply(beta + delta)).norm_sq() >= base


def test_pullback_defining_property():
    m, a = coordinate_design()
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.normal(size=2)
        b = pullback_functional(a, c)
        for j in range(2):
            assert b.coeffs @ a.columns[:, j] == pytest.approx(c[j], abs=1e-12)
    with pytest.raises(ValueError):
        pullback_functional(a, np.ones(3))


def test_pullback_functional_consistency():
    m, a = coordinate_design()
    rng = np.random.default_rng(9)
    y = HVector(rng.normal(size=16) * np.sqrt(m.eigenvalues))
    c = np.array([1.5, 0.25])
    b = pullback_functional(a, c)
    assert est_functional(b, y, a.range) == pytest.approx(c @ lse(a, y), abs=1e-12)


def test_ci_beta_matches_manual_reduction():
    m, a = coordinate_design()
    rng = np.random.default_rng(13)
    y = HVector(rng.normal(size=16) * np.sqrt(m.eigenvalues))
    c = np.array([1.0, 0.0])
    b = pullback_functional(a, c)
    known = ci_beta_known(c, a, y, sigma=0.5, alpha=0.05)
    manual = inference.ci_known(b, y, m, a.range, 0.5, 0.05)
    assert known == manual
    unknown = ci_beta_unknown(c, a, y, alpha=0.1)
    manual_u = inference.ci_unknown(b, y, m, a.range, 0.1)
    assert unknown == manual_u
    assert known.covers(c @ lse(a, y))


def test_beta_hypothesis_test():
    dim = 32
    m = wiener_model(dim)
    a = DesignOperator(
        m,
        [
            HVector.basis_vector(dim, 4, scale=1.3),
            HVector.basis_vector(dim, 5, scale=-0.4),
            HVector.basis_vector(dim, 6, scale=2.0),
        ],
    )
    rng = np.random.default_rng(21)
    y = HVector(rng.normal(size=dim) * np.sqrt(m.eigenvalues))
    res = regression.test_beta(y, a, [np.array([1.0, 0.0, 0.0])], alpha=0.05)
    direct = inference.test_subspace(
        y, m, a.range, Subspace.from_indices(dim, [4]), alpha=0.05
    )
    assert res.statistic == pytest.approx(direct.statistic, rel=1e-14)
    assert res.threshold == direct.threshold
    assert res.params == direct.params


def test_beta_hypothesis_validation():
    m, a = coordinate_design()
    y = HVector(np.ones(16))
    with pytest.raises(ValueError):
        regression.test_beta(y, a, [], alpha=0.05)
    with pytest.raises(ValueError):
        regression.test_beta(y, a, [np.ones(3)], alpha=0.05)
    full = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError):
        regression.test_beta(y, a, full, alpha=0.05)


@pytest.mark.parametrize("g0", ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))
def test_beta_dependent_hypothesis_is_rank_deficient(g0):
    # Both G0 bases span one line; on a coordinate design the first maps to
    # two columns on the same mode, which is no index set.
    m = wiener_model(16)
    a = DesignOperator(m, [HVector.basis_vector(16, 4, 1.3), HVector.basis_vector(16, 5, -0.4),
                           HVector.basis_vector(16, 6, 2.0)])
    with pytest.raises(ValueError, match="design columns are rank deficient"):
        regression.test_beta(HVector(np.ones(16)), a, [np.array(g) for g in g0], alpha=0.05)
