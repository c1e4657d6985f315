import numpy as np
import pytest

from hilbert_gauss.distributions import gamma_cdf, ks_critical_value, ks_statistic
from hilbert_gauss.harness import derive_stream
from hilbert_gauss.processes import wiener_model
from hilbert_gauss.sampling import (
    GaussianLaw,
    NoiseDecomposition,
    noise_decomposition,
    noise_plan,
    norm_sq_moments,
    sample,
    transformed_norm_sq_moments,
)
from hilbert_gauss.spectral import HVector, SpectralModel, Subspace


class FixedNormalsRng:
    """Stand-in generator with preset normal draws, for deterministic tests."""

    def __init__(self, values):
        self._values = np.atleast_1d(np.asarray(values, dtype=float))
        self._cursor = 0

    def standard_normal(self, size=None):
        count = 1 if size is None else int(size)
        if self._cursor + count > self._values.size:
            raise ValueError("stub generator exhausted")
        out = self._values[self._cursor : self._cursor + count]
        self._cursor += count
        return float(out[0]) if size is None else out.copy()


def test_law_validation():
    m = SpectralModel([1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        GaussianLaw(m, HVector.zero(3), 0.0)
    with pytest.raises(ValueError):
        GaussianLaw(m, HVector.zero(2), 1.0)
    u = Subspace.from_indices(3, [2])
    with pytest.raises(ValueError):
        GaussianLaw(m, HVector.basis_vector(3, 1), 1.0, subspace=u)
    law = GaussianLaw(m, HVector.basis_vector(3, 2, scale=4.0), 2.0, subspace=u)
    assert law.sigma == 2.0


def test_sample_exact_with_stub_rng():
    m = SpectralModel([4.0, 1.0])
    law = GaussianLaw(m, HVector(np.array([10.0, 20.0])), 3.0)
    y = sample(law, FixedNormalsRng([1.0, -2.0]))
    # mean + sigma * sqrt(lambda) * z, coordinatewise
    np.testing.assert_allclose(y.coeffs, [10.0 + 3.0 * 2.0, 20.0 - 3.0 * 2.0], atol=1e-15)


def test_stub_rng_exhaustion():
    stub = FixedNormalsRng([0.5])
    stub.standard_normal()
    with pytest.raises(ValueError):
        stub.standard_normal()


def test_sample_marginal_moments():
    m = wiener_model(32)
    zeta = HVector.basis_vector(32, 1, scale=0.7)
    law = GaussianLaw(m, zeta, 1.5)
    rng = derive_stream(21, 0)
    draws = np.array([sample(law, rng).coeffs for _ in range(20_000)])
    lam1 = m.eigenvalues[0]
    se_mean = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
    assert abs(draws[:, 0].mean() - 0.7) < 3.0 * se_mean
    var = draws[:, 0].var(ddof=1)
    se_var = var * np.sqrt(2.0 / (draws.shape[0] - 1))
    assert abs(var - 1.5**2 * lam1) < 3.0 * se_var
    # linear functional <b, Y> has variance sigma^2 <Qb, b>
    b = np.zeros(32)
    b[0], b[2] = 1.0, -2.0
    fvals = draws @ b
    target = 1.5**2 * (b[0] ** 2 * m.eigenvalues[0] + b[2] ** 2 * m.eigenvalues[2])
    se_f = fvals.var(ddof=1) * np.sqrt(2.0 / (fvals.size - 1))
    assert abs(fvals.var(ddof=1) - target) < 3.0 * se_f


def brute_moments(model, zeta, sigma, indices, tail=0.0):
    """Explicit per-coordinate sums for the weighted chi-square moments."""
    mean = sigma**2 * tail
    var = 0.0
    for k in indices:
        lam = model.eigenvalues[k - 1]
        z = zeta.coeffs[k - 1]
        mean += sigma**2 * lam + z * z
        var += 2.0 * sigma**4 * lam * lam + 4.0 * sigma**2 * lam * z * z
    return mean, var


def test_norm_sq_moments_formula():
    m = SpectralModel([0.9, 0.4, 0.1], tail_trace=0.03)
    zeta = HVector(np.array([0.5, -1.0, 2.0]))
    law = GaussianLaw(m, zeta, 1.3)
    got_mean, got_var = norm_sq_moments(law, use_tail=True)
    want_mean, want_var = brute_moments(m, zeta, 1.3, [1, 2, 3], tail=0.03)
    assert got_mean == pytest.approx(want_mean, rel=1e-14)
    assert got_var == pytest.approx(want_var, rel=1e-14)
    # without the tail the unobserved mass drops out of the mean
    got_mean_nt, _ = norm_sq_moments(law, use_tail=False)
    assert got_mean_nt == pytest.approx(want_mean - 1.3**2 * 0.03, rel=1e-14)


def test_transformed_norm_sq_moments_formula():
    m = SpectralModel([0.9, 0.4, 0.1, 0.05])
    zeta = HVector(np.array([0.5, -1.0, 2.0, 0.0]))
    law = GaussianLaw(m, zeta, 0.8)
    t_sub = Subspace.from_indices(4, [2, 4])
    got_mean, got_var = transformed_norm_sq_moments(law, t_sub)
    want_mean, want_var = brute_moments(m, zeta, 0.8, [2, 4])
    assert got_mean == pytest.approx(want_mean, rel=1e-14)
    assert got_var == pytest.approx(want_var, rel=1e-14)


def test_transformed_norm_sq_moments_default_tail_on_a_builtin_model():
    # The tail lies past the truncation: a plain S has none, a complement S has it all.
    m = wiener_model(16)
    law = GaussianLaw(m, HVector.basis_vector(16, 4, scale=0.7), 1.3)
    plain = Subspace.from_indices(16, [4, 5])
    assert transformed_norm_sq_moments(law, plain) == transformed_norm_sq_moments(law, plain, use_tail=False)
    with pytest.raises(ValueError, match="complement subspaces only"):
        transformed_norm_sq_moments(law, plain, use_tail=True)
    comp = plain.complement()
    mean, var = transformed_norm_sq_moments(law, comp)
    mean_nt, var_nt = transformed_norm_sq_moments(law, comp, use_tail=False)
    assert (mean, var) == transformed_norm_sq_moments(law, comp, use_tail=True)
    assert m.tail_trace > 0.0 and var == var_nt
    assert mean == pytest.approx(mean_nt + 1.3**2 * m.tail_trace, rel=1e-14)


def test_norm_sq_moments_against_mc():
    m = wiener_model(64)
    law = GaussianLaw(m, HVector.basis_vector(64, 1, scale=0.7), 1.0)
    rng = derive_stream(22, 0)
    vals = np.array([sample(law, rng).norm_sq() for _ in range(20_000)])
    mean_t, var_t = norm_sq_moments(law, use_tail=False)
    se_mean = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - mean_t) < 3.0 * se_mean
    centered = vals - vals.mean()
    mu4 = np.mean(centered**4)
    se_var = np.sqrt(max(mu4 - vals.var(ddof=1) ** 2, 0.0) / vals.size)
    assert abs(vals.var(ddof=1) - var_t) < 3.0 * se_var


def test_noise_decomposition_wiener():
    m = wiener_model(256)
    dec = noise_decomposition(m, Subspace.from_indices(256, [4]))
    assert dec.lam == m.eigenvalues[0] and dec.n == 1
    assert dec.mu is None and dec.m is None
    assert dec.s_shape == 0.5
    assert dec.s_rate == pytest.approx(1.0 / (2.0 * m.eigenvalues[0]), rel=1e-15)
    dec2 = noise_decomposition(m, Subspace.from_indices(256, [4, 5, 6]), Subspace.from_indices(256, [4]))
    assert dec2.mu == m.eigenvalues[4] and dec2.m == 2
    assert dec2.t_shape == 1.0
    assert dec2.t_rate == pytest.approx(1.0 / (2.0 * m.eigenvalues[4]), rel=1e-15)


def test_noise_decomposition_identity_block():
    m = SpectralModel(np.ones(5))
    u = Subspace.from_indices(5, [1, 2])
    u0 = Subspace.from_indices(5, [1])
    dec = noise_decomposition(m, u, u0)
    assert (dec.lam, dec.n, dec.mu, dec.m) == (1.0, 3, 1.0, 1)


def test_noise_decomposition_degenerate():
    m = SpectralModel([1.0, 1.0], tail_trace=0.2)
    with pytest.raises(ValueError):
        noise_decomposition(m, Subspace.from_indices(2, [1, 2]))
    with pytest.raises(ValueError):
        NoiseDecomposition(lam=1.0, n=1, mu=2.0, m=None)


def test_whitened_statistic_needs_no_complement():
    # U spans every mode, so Q vanishes on its complement: the decomposition
    # (and the test) are undefined there, the whitened statistic is not.
    m = SpectralModel([1.0, 0.5, 0.25])
    u, u0 = Subspace.from_indices(3, [1, 2, 3]), Subspace.from_indices(3, [1])
    y = HVector([1.0, 2.0, 3.0])
    plan = noise_plan(m, u, u0)
    assert float(plan.whitened_norm_sq(y.coeffs, 2.0)) == 0.5 * (4.0 / 0.5 + 9.0 / 0.25) / 4.0
    with pytest.raises(ValueError, match="truncated complement"):
        noise_decomposition(m, u, u0)
    assert float(plan.whitened_norm_sq(y.coeffs, 2.0)) == 5.5


def test_noise_statistics_gamma_laws():
    m = wiener_model(128)
    u = Subspace.from_indices(128, [4, 5, 6])
    u0 = Subspace.from_indices(128, [4])
    sigma = 1.7
    law = GaussianLaw(m, HVector.basis_vector(128, 4, scale=0.7), sigma, subspace=u)
    rng = derive_stream(23, 0)
    n_draws = 5000
    s_vals = np.empty(n_draws)
    t_vals = np.empty(n_draws)
    for i in range(n_draws):
        y = sample(law, rng)
        s_vals[i] = float(noise_plan(m, u, None).leading_norm_sq(y.coeffs, sigma))
        t_vals[i] = float(noise_plan(m, u, u0).whitened_norm_sq(y.coeffs, sigma))
    dec = noise_decomposition(m, u, u0)
    crit = ks_critical_value(n_draws, alpha=0.05)
    assert ks_statistic(s_vals, lambda x: gamma_cdf(x, dec.s_shape, dec.s_rate)) < crit
    assert ks_statistic(t_vals, lambda x: gamma_cdf(x, dec.t_shape, dec.t_rate)) < crit
