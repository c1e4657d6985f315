import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import fdtr, ndtr, stdtr

from hilbert_gauss.distributions import (
    GenFisherParams,
    Pearson7Params,
    f_quantile,
    gamma_cdf,
    gamma_quantile,
    gamma_ratio_reduction,
    gamma_sample,
    ks_critical_value,
    ks_statistic,
    norm_quantile,
    t_quantile,
    t_ratio_reduction,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# CDFs against independent closed forms


def test_norm_cdf_against_stdlib_erf():
    for x in (-4.0, -1.3, 0.0, 0.5, 2.7):
        oracle = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert ndtr(x) == pytest.approx(oracle, abs=1e-15)


def test_t1_closed_form():
    # Cauchy: CDF(x) = 1/2 + arctan(x)/pi, quantile(a) = tan(pi(a - 1/2))
    for x in (-3.0, 0.0, 0.4, 10.0):
        assert stdtr(1, x) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-14)
    assert t_quantile(1, 0.975) == pytest.approx(math.tan(0.475 * math.pi), abs=1e-10)
    assert t_quantile(1, 0.5) == 0.0


def test_t2_closed_form():
    for x in (-2.0, 0.3, 1.7):
        oracle = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
        assert stdtr(2, x) == pytest.approx(oracle, abs=1e-14)


def test_f21_closed_form():
    # F(2,1): CDF(x) = 1 - (1 + 2x)^(-1/2); the 0.95 quantile is 199.5 exactly
    for x in (0.1, 1.0, 50.0):
        assert fdtr(2, 1, x) == pytest.approx(1.0 - (1.0 + 2.0 * x) ** -0.5, abs=1e-14)
    assert f_quantile(2, 1, 0.95) == pytest.approx(199.5, abs=1e-9)


def test_quantile_frozen_values():
    assert norm_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-12)
    assert norm_quantile(0.95) == pytest.approx(1.6448536269514727, abs=1e-12)
    assert norm_quantile(0.5) == 0.0
    assert t_quantile(3, 0.975) == pytest.approx(3.1824463052837096, abs=1e-10)
    assert f_quantile(3, 7, 0.95) == pytest.approx(4.346831399907818, abs=1e-9)


def test_quantiles_cross_checked_against_scipy_stats():
    assert norm_quantile(0.31) == pytest.approx(scipy.stats.norm.ppf(0.31), abs=1e-11)
    assert t_quantile(7, 0.9) == pytest.approx(scipy.stats.t.ppf(0.9, 7), abs=1e-9)
    assert f_quantile(4, 9, 0.99) == pytest.approx(scipy.stats.f.ppf(0.99, 4, 9), abs=1e-8)
    assert gamma_quantile(2.5, 2.0, 0.7) == pytest.approx(
        scipy.stats.gamma.ppf(0.7, 2.5, scale=0.5), abs=1e-10
    )


def test_symmetries():
    assert norm_quantile(0.2) == pytest.approx(-norm_quantile(0.8), abs=1e-13)
    assert f_quantile(6, 6, 0.5) == pytest.approx(1.0, abs=1e-9)
    # reciprocal identity
    assert f_quantile(3, 5, 0.9) == pytest.approx(1.0 / f_quantile(5, 3, 0.1), abs=1e-9)
    # large-dof t approaches the normal quantile
    assert t_quantile(10**6, 0.975) == pytest.approx(1.959964, abs=1e-2)


@pytest.mark.parametrize(
    "quantile,cdf",
    [
        pytest.param(norm_quantile, ndtr, id="norm_quantile-norm_cdf"),
        (lambda a: t_quantile(3, a), lambda x: stdtr(3, x)),
        (lambda a: t_quantile(1, a), lambda x: stdtr(1, x)),
        (lambda a: f_quantile(2, 1, a), lambda x: fdtr(2, 1, x)),
        (lambda a: f_quantile(5, 8, a), lambda x: fdtr(5, 8, x)),
        (lambda a: gamma_quantile(0.5, 1.2337, a), lambda x: gamma_cdf(x, 0.5, 1.2337)),
    ],
)
def test_roundtrip_grid(quantile, cdf):
    for i in range(1, 100):
        a = i / 100.0
        assert cdf(quantile(a)) == pytest.approx(a, abs=1e-9)


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            norm_quantile(bad)
        with pytest.raises(ValueError):
            t_quantile(2, bad)
        with pytest.raises(ValueError):
            f_quantile(2, 3, bad)
    with pytest.raises(ValueError):
        t_quantile(0, 0.5)
    with pytest.raises(ValueError):
        gamma_quantile(-1.0, 1.0, 0.5)


def test_quantile_monotone_in_alpha():
    hw = [norm_quantile(1.0 - a / 2.0) for a in (0.01, 0.05, 0.10, 0.2)]
    assert hw == sorted(hw, reverse=True)


# ---------------------------------------------------------------------------
# samplers


def test_gamma_sample_moments():
    lam = 0.4052847
    draws = gamma_sample(rng(1), 0.5, 1.0 / (2.0 * lam), size=100_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - lam) < 3.0 * se


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (1.0, 3.0), (4.7, 0.25)])
def test_gamma_sample_ks(alpha, beta):
    draws = gamma_sample(rng(2), alpha, beta, size=10_000)
    d = ks_statistic(draws, lambda x: gamma_cdf(x, alpha, beta))
    assert d < ks_critical_value(draws.size, alpha=0.05)


def test_gamma_sample_scalar_and_validation():
    x = gamma_sample(rng(3), 2.0, 2.0)
    assert np.isscalar(x) and x > 0.0
    with pytest.raises(ValueError):
        gamma_sample(rng(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_sample(rng(3), 1.0, -2.0)


def test_gamma_rate_scaling():
    # beta scaled by c scales samples by 1/c: same underlying stream
    a = gamma_sample(rng(7), 1.5, 1.0, size=1000)
    b = gamma_sample(rng(7), 1.5, 4.0, size=1000)
    np.testing.assert_allclose(a, 4.0 * b, rtol=1e-12)


def test_t_and_f_sample_ks():
    d_t = ks_statistic(rng(4).standard_t(5.0, 10_000), lambda x: stdtr(5.0, x))
    assert d_t < ks_critical_value(10_000, alpha=0.05)
    d_f = ks_statistic(rng(5).f(3.0, 8.0, 10_000), lambda x: fdtr(3.0, 8.0, x))
    assert d_f < ks_critical_value(10_000, alpha=0.05)


# ---------------------------------------------------------------------------
# appendix reductions


def test_t_ratio_reduction_values():
    scale, dof, pearson = t_ratio_reduction(0.5, 0.5)
    assert scale == 1.0 and dof == 1.0
    assert pearson == Pearson7Params(1.0, 1.0)
    scale, dof, pearson = t_ratio_reduction(1.0, 2.0)
    assert scale == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert dof == 2.0
    assert pearson == Pearson7Params(2.0, 1.5)
    with pytest.raises(ValueError):
        t_ratio_reduction(-1.0, 1.0)


def test_pearson_scaling():
    p = Pearson7Params(2.0, 1.5)
    assert p.scaled(3.0) == Pearson7Params(6.0, 1.5)
    with pytest.raises(ValueError):
        Pearson7Params(1.0, 0.5)  # m must exceed 1/2


def test_gamma_ratio_reduction_values():
    scale, fparams = gamma_ratio_reduction(1.0, 2.0, 3.0, 4.0)
    assert scale == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fparams.m == 2.0 and fparams.n == 6.0
    assert fparams.a == pytest.approx(scale) and fparams.b == 1.0
    assert fparams.scaled(1.5).a == pytest.approx(1.0)
    scale, fparams = gamma_ratio_reduction(0.5, 0.5, 0.5, 0.5)
    assert scale == 1.0 and (fparams.m, fparams.n) == (1.0, 1.0)


def test_t_ratio_reduction_empirical():
    # X / sqrt(Y) against scale * t_(2 alpha) samples
    alpha, beta = 1.5, 0.7
    n = 10_000
    g = rng(6)
    x = g.standard_normal(n)
    y = gamma_sample(g, alpha, beta, size=n)
    scale, dof, _ = t_ratio_reduction(alpha, beta)
    ref = scale * rng(7).standard_t(dof, n)
    d = scipy.stats.ks_2samp(x / np.sqrt(y), ref).statistic
    assert d < ks_critical_value(n, n, alpha=0.05)


def test_gamma_ratio_reduction_empirical():
    alpha, beta, gamma, delta = 1.0, 2.0, 3.0, 4.0
    n = 10_000
    g = rng(8)
    x = gamma_sample(g, alpha, beta, size=n)
    y = gamma_sample(g, gamma, delta, size=n)
    scale, fparams = gamma_ratio_reduction(alpha, beta, gamma, delta)
    ref = scale * rng(9).f(fparams.m, fparams.n, n)
    d = scipy.stats.ks_2samp(x / y, ref).statistic
    assert d < ks_critical_value(n, n, alpha=0.05)


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_critical_value_closed_form():
    c = math.sqrt(-0.5 * math.log(0.025))
    assert ks_critical_value(400) == pytest.approx(c / 20.0, rel=1e-12)
    assert ks_critical_value(100, 400) == pytest.approx(c * math.sqrt(5.0 / 400.0), rel=1e-12)


def test_ks_statistic_detects_mismatch():
    draws = rng(10).standard_normal(2000)
    assert ks_statistic(draws, ndtr) < ks_critical_value(2000)
    shifted = ks_statistic(draws + 0.5, ndtr)
    assert shifted > ks_critical_value(2000)


def test_ks_two_sample_null():
    a = rng(11).standard_normal(3000)
    b = rng(12).standard_normal(3000)
    assert scipy.stats.ks_2samp(a, b).statistic < ks_critical_value(3000, 3000)


def test_genfisher_validation():
    with pytest.raises(ValueError):
        GenFisherParams(1.0, 1.0, -1.0, 1.0)
