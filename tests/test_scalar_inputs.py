"""Scalar and array inputs of the public functions: a sigma, alpha, count,
index, mode or tail flag of the wrong kind is a ValueError naming it, never
converted by int(), float() or bool(), and so is an array (an observation, a
frame, a design and its c or G0, a grid, a trajectory, a KS sample or a Gamma
CDF argument) holding a bool, a string or a non-finite entry.  Each is refused
before any draw or pool."""

import concurrent.futures
import fractions

import numpy as np
import pytest

import hilbert_gauss as hg
from hilbert_gauss import harness, spectral
from hilbert_gauss.distributions import _check_positive, gamma_cdf

M = hg.wiener_model(16)
U = hg.Subspace.from_indices(16, [1, 2, 3])
U0 = hg.Subspace.from_indices(16, [1])
Y = hg.HVector(np.linspace(1.0, 2.0, 16))
B = hg.HVector.basis_vector(16, 1)
LAW = hg.GaussianLaw(M, hg.HVector.zero(16), 1.0)
A = hg.DesignOperator(M, [B.coeffs, hg.HVector.basis_vector(16, 2).coeffs])
CONFIG = harness.ExperimentConfig(kind="moments", model=M, replicates=10)
GAMMA_CDF = lambda x: gamma_cdf(x, 2.0, 1.0)  # noqa: E731


def trace_tail_none_then_true():
    # None over a plain subspace takes no tail, where an explicit True is refused.
    assert hg.trace_q_on(M, U, use_tail=None) == hg.trace_q_on(M, U, use_tail=False)
    hg.trace_q_on(M, U, use_tail=True)


CASES = {
    "derive_stream": (lambda: hg.derive_stream(1.5, 2.7), "master_seed must be an integer"),
    "wiener_model": (lambda: hg.wiener_model(16.5), "n_modes must be an integer"),
    "wiener_model_cached_count": (lambda: hg.wiener_model(16.0), "n_modes must be an integer"),
    "bridge_model": (lambda: hg.bridge_model(True), "n_modes must be an integer"),
    "grid_count": (lambda: hg.Grid.uniform(5.0), "count must be an integer"),
    "zero_dim": (lambda: hg.HVector.zero(2.7), "dim must be an integer"),
    "basis_vector_mode": (lambda: hg.HVector.basis_vector(16, 1.5), "mode index must be an integer"),
    "basis_vector_scale": (lambda: hg.HVector.basis_vector(16, 1, scale="2"), "scale must be a finite number"),
    "scalar_times_vector": (lambda: True * Y, "scalar must be a finite number"),
    "eval_basis_mode": (lambda: hg.eval_basis(M, 1.5, 0.3), "mode index must be an integer"),
    "kernel_point": (lambda: hg.kernel(M, "0.5", 0.5), "s must be a finite number"),
    "tail_trace": (lambda: hg.custom_model([1.0, 0.5], tail_trace="0.1"), "tail_trace must be a finite number"),
    "learning_gap_cutoff": (lambda: hg.learning_gap(M, U, B, 1.0, cutoff=1.5), "cutoff must be an integer"),
    "est_variance_tail": (lambda: hg.est_variance(Y, M, U, use_tail="no"), "use_tail must be"),
    "ci_known_sigma_string": (lambda: hg.ci_known(B, Y, M, U, sigma="1.0", alpha=0.05), "sigma must be"),
    "ci_known_sigma_huge": (lambda: hg.ci_known(B, Y, M, U, sigma=2**1024, alpha=0.05), "sigma must be"),
    "ci_unknown_alpha": (lambda: hg.ci_unknown(B, Y, M, U, alpha="0.1"), "alpha must be"),
    "test_subspace_alpha": (lambda: hg.test_subspace(Y, M, U, U0, alpha="0.05"), "alpha must be"),
    "law_sigma": (lambda: hg.GaussianLaw(M, hg.HVector.zero(16), True), "sigma must be"),
    "norm_sq_moments_tail": (lambda: hg.norm_sq_moments(LAW, use_tail="no"), "use_tail must be"),
    "trace_q_on_tail": (lambda: hg.trace_q_on(M, U.complement(), use_tail="no"), "use_tail must be"),
    "trace_q_on_tail_none": (trace_tail_none_then_true, r"complement subspaces only.*use_tail false \(--no-tail\)"),
    "ks_critical_value_bool": (lambda: hg.ks_critical_value(True), "n must be an integer"),
    "ks_critical_value_float": (lambda: hg.ks_critical_value(2.7), "n must be an integer"),
    "ks_critical_value_second_count": (lambda: hg.ks_critical_value(10, 2.0), "m must be an integer"),
    "ks_critical_value_zero": (lambda: hg.ks_critical_value(0), "n must be at least 1"),
    "vector_strings_and_bools": (lambda: hg.HVector(["1", True]), "coefficients must be finite numbers"),
    "vector_bool_array": (lambda: hg.HVector(np.array([True, False])), "coefficients must be finite numbers"),
    "vector_string_array": (lambda: hg.HVector(np.array(["1", "2"])), "coefficients must be finite numbers"),
    "model_strings": (lambda: hg.custom_model(["1", "0.5"]), "eigenvalues must be finite numbers"),
    "model_object_array": (lambda: hg.custom_model(np.array([1.0, 0.5], dtype=object)), "eigenvalues must be"),
    "transformed_moments_tail": (
        lambda: hg.transformed_norm_sq_moments(LAW, U.complement(), use_tail="no"),
        "use_tail must be",
    ),
    "run_experiment_workers_float": (lambda: hg.run_experiment(CONFIG, workers=1.5), "config field 'workers'"),
    "run_experiment_workers_bool": (lambda: hg.run_experiment(CONFIG, workers=True), "config field 'workers'"),
    "run_experiment_workers_string": (lambda: hg.run_experiment(CONFIG, workers="2"), "config field 'workers'"),
    "frame_strings": (lambda: hg.Subspace.from_frame(M, [["1"] + ["0"] * 15]), "frame entries must be finite numbers"),
    "frame_bools": (lambda: hg.Subspace.from_frame(M, [[True] + [False] * 15]), "frame entries must be finite numbers"),
    "frame_nan": (lambda: hg.Subspace.from_frame(M, [[np.nan] + [0.0] * 15]), "frame entries must be finite numbers"),
    "frame_of_matrices": (lambda: hg.Subspace.from_frame(M, np.eye(16)[None, :2]), "frame vectors must be 1-d"),
    "frame_not_a_list": (lambda: hg.Subspace.from_frame(M, "1" * 16), "frame must be a list, a tuple or an array"),
    "design_strings": (lambda: hg.DesignOperator(M, [["0"] * 15 + ["1"]]), "column entries must be finite numbers"),
    "apply_strings": (lambda: A.apply(["1", "0"]), "beta must be finite numbers"),
    "pullback_bools": (lambda: hg.pullback_functional(A, [True, False]), "c must be finite numbers"),
    "pullback_nan": (lambda: hg.pullback_functional(A, [np.nan, 0.0]), "c must be finite numbers"),
    "test_beta_strings": (lambda: hg.test_beta(Y, A, [["1", "0"]], 0.05), "G0 vector 0 must be finite numbers"),
    "test_beta_nan_array": (
        lambda: hg.test_beta(Y, A, np.array([[np.nan, 1.0]]), 0.05),
        "G0 vector entries must be finite$",
    ),
    "grid_strings": (lambda: hg.Grid(["0", "0.5", "1"]), "grid points must be finite numbers"),
    "grid_bools": (lambda: hg.Grid([False, True]), "grid points must be finite numbers"),
    "grid_nan": (lambda: hg.Grid([0.0, np.nan, 1.0]), "grid points must be finite numbers"),
    "trajectory_strings": (
        lambda: hg.coeffs_from_trajectory(M, hg.Grid([0.0, 0.5, 1.0]), ["0", "1", "0"]),
        "trajectory values must be finite numbers",
    ),
    "eval_basis_point": (lambda: hg.eval_basis(M, 1, "0.5"), "t must be finite numbers"),
    "ks_statistic_bools": (lambda: hg.ks_statistic([True, False], GAMMA_CDF), "samples must be finite numbers"),
    "ks_statistic_strings": (lambda: hg.ks_statistic(np.array(["1", "2"]), GAMMA_CDF), "samples must be finite numbers"),
    "ks_statistic_nan": (lambda: hg.ks_statistic(np.array([0.5, np.nan]), GAMMA_CDF), "samples must be finite$"),
    "gamma_cdf_string": (lambda: gamma_cdf("1.0", 2.0, 1.0), "x must be finite numbers"),
    "gamma_cdf_bool_array": (lambda: gamma_cdf(np.array([True]), 2.0, 1.0), "x must be finite numbers"),
    "gamma_cdf_inf": (lambda: gamma_cdf(np.array([1.0, np.inf]), 2.0, 1.0), "x must be finite$"),
}


@pytest.mark.parametrize("case", CASES)
def test_public_function_refuses_a_scalar_it_would_convert(monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("a scalar must be checked before drawing or pooling")

    monkeypatch.setattr(harness, "ReplicateStreams", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    call, message = CASES[case]
    hg.wiener_model(16)  # cached: a count equal to 16 must still be checked
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "value, accepted",
    (
        (np.float32(1.3), True),
        (np.float32("inf"), False),
        (np.float16(2.0), True),
        (np.float64(1e308), True),
        (np.longdouble("1e400"), False),
        (float("nan"), False),
        pytest.param(2**1023, True, id="2**1023"),
        pytest.param(2**1024, False, id="2**1024"),
        pytest.param(-(2**1024), False, id="-2**1024"),
        (np.int64(-5), True),
        (np.uint64(2**64 - 1), True),
        (fractions.Fraction(1, 3), True),
        (np.array(1.5), True),
        (np.array(7), True),
        (np.array(True), False),
        (np.array([1.0]), False),
        (True, False),
        (np.bool_(True), False),
        ("1.0", False),
        (None, False),
        (1j, False),
    ),
)
@pytest.mark.filterwarnings("error")
def test_one_number_rule_without_overflow_warnings(value, accepted):
    # A JSON number, a sigma and an alpha meet this one rule; an np.float32 is
    # checked without the overflowing cast that comparing it with the largest double makes.
    assert spectral._is_number(value) == accepted
    if accepted:
        assert type(_check_positive(abs(value) or 1.0, "sigma")) is float
    else:
        with pytest.raises(ValueError, match="sigma must be"):
            _check_positive(value, "sigma")
