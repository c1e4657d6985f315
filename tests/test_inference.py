import numpy as np
import pytest

from hilbert_gauss.distributions import f_quantile, t_quantile
from hilbert_gauss.estimators import est_variance
# qualified access: several library names collide with pytest collection rules
from hilbert_gauss import inference
from hilbert_gauss.inference import (
    Interval,
    ZeroResidualError,
    ci_known,
    ci_params_unknown,
    ci_unknown,
    functional_plan,
)
from hilbert_gauss.processes import custom_model, wiener_model
from hilbert_gauss.sampling import noise_plan
from hilbert_gauss.spectral import HVector, SpectralModel, Spectrum, Subspace, difference_subspace, project

WIENER_EIG_4 = 0.008271117032027573

# Frozen against a direct evaluation of z_{0.975} * sqrt(2 * eig_4):
# the half-width of the level-0.95 amplitude interval below.
AMPLITUDE_HW = 0.25208393633673496


def test_interval_geometry():
    iv = Interval(center=1.0, half_width=0.25, level=0.9)
    assert iv.lower == 0.75
    assert iv.upper == 1.25
    assert iv.covers(1.25) and iv.covers(0.75)
    assert not iv.covers(1.2500001)
    with pytest.raises(ValueError):
        Interval(center=0.0, half_width=-0.1, level=0.9)
    with pytest.raises(ValueError):
        Interval(center=0.0, half_width=0.1, level=1.0)


def test_test_result_boundary():
    r = inference.TestResult.from_statistic(2.0, 2.0, params={})
    assert r.reject
    assert not inference.TestResult.from_statistic(1.999, 2.0, params={}).reject


def test_functional_variance_factor():
    m = SpectralModel([2.0, 1.0, 0.5])
    u = Subspace.from_indices(3, [1, 3])
    b = HVector(np.array([1.0, 4.0, -2.0]))
    # sum over U of lam_k b_k^2
    assert functional_plan(m, u, b).variance_factor == pytest.approx(2.0 + 0.5 * 4.0, rel=1e-15)


def test_ci_known_amplitude_half_width():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    b = HVector.basis_vector(256, 4, scale=np.sqrt(2.0))
    y = HVector.basis_vector(256, 4, scale=0.7)
    iv = ci_known(b, y, m, u, sigma=1.0, alpha=0.05)
    assert iv.half_width == pytest.approx(AMPLITUDE_HW, abs=1e-9)
    assert iv.center == pytest.approx(0.7 * np.sqrt(2.0), rel=1e-15)
    assert iv.level == 0.95
    # linear in sigma, and wider at a stricter level
    assert ci_known(b, y, m, u, 2.0, 0.05).half_width == pytest.approx(2.0 * iv.half_width, rel=1e-14)
    assert ci_known(b, y, m, u, 1.0, 0.01).half_width > iv.half_width


def test_ci_known_validation():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4])
    y = HVector.zero(16)
    b_perp = HVector.basis_vector(16, 9)
    with pytest.raises(ValueError):
        ci_known(b_perp, y, m, u, 1.0, 0.05)
    b = HVector.basis_vector(16, 4)
    with pytest.raises(ValueError):
        ci_known(b, y, m, u, 0.0, 0.05)
    with pytest.raises(ValueError):
        ci_known(b, y, m, u, 1.0, 1.5)


def test_ci_params_unknown_values():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    tau, lam, n = ci_params_unknown(m, u)
    assert abs(tau - (0.5 - WIENER_EIG_4)) <= 1e-15
    assert tau == pytest.approx(0.4917289, abs=5e-8)
    assert lam == 4.0 / np.pi**2
    assert n == 1
    prefactor = np.sqrt(tau / (lam * n)) * t_quantile(1.0, 0.975)
    assert prefactor == pytest.approx(13.995827629378288, rel=1e-9)


def test_ci_params_unknown_identity_model():
    m = SpectralModel(np.ones(5))
    u = Subspace.from_indices(5, [1, 2])
    tau, lam, n = ci_params_unknown(m, u)
    assert (tau, lam, n) == (3.0, 1.0, 3)


def test_ci_params_unknown_degenerate():
    m = SpectralModel([1.0, 1.0])
    u = Subspace.from_indices(2, [1, 2])
    with pytest.raises(ValueError):
        ci_params_unknown(m, u)


def test_ci_params_unknown_names_no_tail_for_a_complement():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4, 5]).complement()
    with pytest.raises(ValueError, match="--no-tail"):
        ci_params_unknown(m, u)
    assert ci_params_unknown(m, u, use_tail=False) == functional_plan(m, u, use_tail=False).complement_params


def test_frame_complement_takes_the_tail_of_an_index_set():
    # A frame lies inside the truncated modes, so the mass past the
    # truncation lies in its complement, as for the index set it spans.
    m = wiener_model(16)
    frame = Subspace.from_frame(m, np.eye(16)[[3]])
    index = Subspace.from_indices(16, [4])
    b = HVector.basis_vector(16, 4, scale=1.3)
    y = HVector(np.random.default_rng(5).normal(size=16) * np.sqrt(m.eigenvalues))
    got, want = (ci_unknown(b, y, m, u, 0.05) for u in (frame, index))
    assert got.center == pytest.approx(want.center, rel=1e-12, abs=0.0)
    assert got.half_width == pytest.approx(want.half_width, rel=1e-12, abs=0.0)
    assert est_variance(y, m, frame) == pytest.approx(est_variance(y, m, index), rel=1e-12, abs=0.0)


def test_ci_unknown_structure():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4])
    b = HVector.basis_vector(256, 4, scale=np.sqrt(2.0))
    rng = np.random.default_rng(3)
    y = HVector(rng.normal(size=256) * np.sqrt(m.eigenvalues))
    iv = ci_unknown(b, y, m, u, alpha=0.05)
    resid = (y - project(y, u)).norm()
    tau, lam, n = ci_params_unknown(m, u)
    v = functional_plan(m, u, b).variance_factor
    # tau cancels between the variance estimate and the width prefactor
    want = np.sqrt(1.0 / (lam * n)) * t_quantile(float(n), 0.975) * resid * np.sqrt(v)
    assert iv.half_width == pytest.approx(want, rel=1e-12)
    other = ci_unknown(b, y, m, u, alpha=0.05, use_tail=False)
    assert other.half_width == pytest.approx(iv.half_width, rel=1e-12)


def test_ci_unknown_zero_residual():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4])
    b = HVector.basis_vector(16, 4)
    y = HVector.basis_vector(16, 4, scale=1.3)
    iv = ci_unknown(b, y, m, u, alpha=0.05)
    assert iv.half_width == 0.0
    assert iv.center == pytest.approx(1.3, rel=1e-15)


def test_test_params_wiener_prefactor():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4, 5, 6])
    u0 = Subspace.from_indices(256, [4])
    lam, mu, n, m_ = inference.test_params(m, u, u0)
    assert lam == 4.0 / np.pi**2
    assert n == 1
    assert mu == pytest.approx(1.0 / (4.5**2 * np.pi**2), rel=1e-15)
    assert m_ == 2
    assert (n * lam) / (m_ * mu) == 40.5


def test_test_params_identity_model():
    m = SpectralModel(np.ones(5))
    u = Subspace.from_indices(5, [1, 2])
    u0 = Subspace.from_indices(5, [1])
    assert inference.test_params(m, u, u0) == (1.0, 1.0, 3, 1)


def test_test_subspace_statistic_identity():
    m = wiener_model(256)
    u = Subspace.from_indices(256, [4, 5, 6])
    u0 = Subspace.from_indices(256, [4])
    rng = np.random.default_rng(11)
    y = HVector(rng.normal(size=256) * np.sqrt(m.eigenvalues))
    res = inference.test_subspace(y, m, u, u0, alpha=0.05)
    pu = project(y, u)
    pu0 = project(y, u0)
    resid_sq = (y - pu).norm_sq()
    shift_sq = (pu - pu0).norm_sq()
    assert res.statistic == pytest.approx(40.5 * shift_sq / resid_sq, rel=1e-14)
    # orthogonal split of the distance to U0
    assert (y - pu0).norm_sq() == pytest.approx(resid_sq + shift_sq, rel=1e-12)
    assert res.threshold == pytest.approx(f_quantile(2.0, 1.0, 0.95), rel=1e-15)
    assert res.threshold == pytest.approx(199.5, abs=1e-6)
    assert res.reject == (res.statistic >= res.threshold)
    assert res.params == {"lam": 4.0 / np.pi**2, "mu": 1.0 / (4.5**2 * np.pi**2), "n": 1, "m": 2}


def test_rank_of_a_frame_difference_skips_its_q_null_direction():
    # U minus U0 is spanned by e_2 and (e_3 + e_4) / sqrt(2), which Q sends to
    # 0.5 e_2 and 0: m is 1, though rounding leaves the null eigenvalue at 3.5e-18.
    model = custom_model([1.0, 0.5, 0.0, 0.0, 0.25])
    c, t, s = np.cos(0.2), np.sin(0.2), 2.0**-0.5
    u = Subspace.from_frame(model, [[1, 0, 0, 0, 0], [0, c, s * t, s * t, 0], [0, -t, c * s, c * s, 0]])
    u0 = Subspace.from_indices(5, [1])
    assert np.count_nonzero(Spectrum(model, difference_subspace(model, u, u0)).ranked()) == 1
    assert inference.test_params(model, u, u0)[3] == 1
    res = inference.test_subspace(HVector([0.3, -1.0, 2.0, 0.5, 0.7]), model, u, u0, alpha=0.05)
    assert res.params["m"] == 1
    assert res.threshold == f_quantile(1.0, 1.0, 0.95) == pytest.approx(161.4476, abs=1e-4)


# lambda_2 = 1e-14 lies below the rank threshold, DEFAULT_REL_TOL times the largest lambda.
TINY_MODEL = custom_model([1.0, 1e-14, 0.5, 0.25])


def tiny_pair(form, modes, modes0):
    if form == "indices":
        return Subspace.from_indices(4, modes), Subspace.from_indices(4, modes0)
    eye = np.eye(4)
    return Subspace.from_frame(TINY_MODEL, eye[np.array(modes) - 1]), Subspace.from_frame(TINY_MODEL, eye[np.array(modes0) - 1])


@pytest.mark.parametrize("form", ("indices", "frames"))
def test_index_sets_and_frames_share_one_rank_rule(form):
    y = HVector([0.3, -1.0, 2.0, 0.5])
    # U minus U0 = {2} is Q-null in both forms.
    u, u0 = tiny_pair(form, [1, 2], [1])
    assert not Spectrum(TINY_MODEL, difference_subspace(TINY_MODEL, u, u0)).ranked().any()
    for _ in range(2):
        with pytest.raises(ValueError, match="Q vanishes on the difference of U and U0"):
            inference.test_subspace(y, TINY_MODEL, u, u0, 0.05)
    # U minus U0 = {2, 3} has rank 1 in both forms, and the whitening reads that one mode.
    u, u0 = tiny_pair(form, [1, 2, 3], [1])
    assert np.count_nonzero(Spectrum(TINY_MODEL, difference_subspace(TINY_MODEL, u, u0)).ranked()) == 1
    res = inference.test_subspace(y, TINY_MODEL, u, u0, 0.05)
    assert res.params["m"] == 1 and res.params["mu"] == 0.5
    assert res.threshold == f_quantile(1.0, 1.0, 0.95)
    if form == "indices":
        coords, lam, mu = noise_plan(TINY_MODEL, u, u0).whitening
        assert coords.tolist() == [2] and lam.tolist() == [0.5] and mu == 0.5


def test_test_subspace_zero_residual():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4, 5, 6])
    u0 = Subspace.from_indices(16, [4])
    y = HVector.basis_vector(16, 5, scale=2.0)
    with pytest.raises(ZeroResidualError):
        inference.test_subspace(y, m, u, u0, alpha=0.05)
    # In a block, one zero-residual row is enough.
    with pytest.raises(ZeroResidualError):
        noise_plan(m, u, u0).statistic(np.vstack([np.ones(16), y.coeffs]))


def test_test_subspace_requires_nested():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4, 5])
    u0 = Subspace.from_indices(16, [9])
    y = HVector(np.ones(16))
    with pytest.raises(ValueError):
        inference.test_subspace(y, m, u, u0, alpha=0.05)


def test_test_subspace_requires_hypothesis_subspace():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4, 5])
    y = HVector(np.ones(16))
    with pytest.raises(ValueError, match="hypothesis subspace U0"):
        inference.test_subspace(y, m, u, None, alpha=0.05)
    plan = noise_plan(m, u, None)
    with pytest.raises(ValueError, match="hypothesis subspace U0"):
        plan.statistic(y.coeffs)
    with pytest.raises(ValueError, match="hypothesis subspace U0"):
        plan.threshold(0.05)


def test_alpha_validation():
    m = wiener_model(16)
    u = Subspace.from_indices(16, [4, 5])
    u0 = Subspace.from_indices(16, [4])
    y = HVector(np.ones(16))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            inference.test_subspace(y, m, u, u0, alpha=bad)
        with pytest.raises(ValueError):
            ci_unknown(HVector.basis_vector(16, 4), y, m, u, alpha=bad)
