"""Point estimators for the mean, linear functionals of the mean, and the
variance scale, with their analytic bias/variance/risk formulas.

The mean estimator is the orthogonal projection of the observation onto the
subspace U; it is unbiased with risk sigma^2 tr(Q P_U) and is risk-minimal
among linear unbiased estimators.  Functionals <b, .> of the projection are
normal with variance sigma^2 <Q b, P_U b>, which is never larger than the
variance of any other unbiased linear functional estimator (the
Gauss-Markov comparison).  The variance estimator divides the squared
residual by tr(Q (I - P_U)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _check_positive
from .inference import functional_plan
from .spectral import (
    HVector,
    SpectralModel,
    Spectrum,
    Subspace,
    _integer,
    _residual,
    inner,
    project,
    trace_q_on,
)

# Unbiasedness of a competing functional <c, Y> requires c - b orthogonal
# to U; the check tolerates this much projection mismatch.
GM_UNBIASED_TOL = 1e-10


@dataclass(frozen=True)
class RiskReport:
    """Bias/variance decomposition with risk = variance + bias^2 exactly."""

    bias: float
    variance: float
    risk: float

    @classmethod
    def from_parts(cls, bias: float, variance: float) -> "RiskReport":
        bias = float(bias)
        variance = float(variance)
        if bias < 0.0 or variance < 0.0:
            raise ValueError("bias and variance must be nonnegative")
        return cls(bias=bias, variance=variance, risk=variance + bias * bias)


def est_mean(y: HVector, U: Subspace) -> HVector:
    """Mean estimator: the orthogonal projection of the observation onto U."""
    return project(y, U)


def est_functional(b: HVector, y: HVector, U: Subspace) -> float:
    """Estimator <b, P_U y> of the functional <b, zeta>.

    Equals <P_U b, y> by self-adjointness of the projection; the estimator
    is normal with mean <b, zeta> and variance sigma^2 <Q b, P_U b>.
    """
    return inner(b, project(y, U))


def est_variance(y: HVector, model: SpectralModel, U: Subspace, use_tail: bool | None = None) -> float:
    """Variance estimator ||y - P_U y||^2 / tr(Q (I - P_U)).

    Unbiased for sigma^2 and independent of the mean estimator.  The
    denominator follows the tail convention; it must be positive, otherwise
    Q vanishes on the complement of U and no variance information exists.
    """
    return float(functional_plan(model, U, use_tail=use_tail).variance(y.coeffs))


def risk_mean(model: SpectralModel, U: Subspace, sigma: float) -> float:
    """Risk sigma^2 tr(Q P_U) of the mean estimator, over the truncated modes."""
    sigma = _check_positive(sigma, "sigma")
    return sigma * sigma * trace_q_on(model, U)


def risk_partial(model: SpectralModel, V: Subspace, zeta: HVector, sigma: float) -> RiskReport:
    """Risk of projecting onto an observable subspace V that may miss mean mass.

    bias ||(I - P_V) zeta||, variance sigma^2 tr(Q P_V); the unobserved part
    of the mean enters as squared bias.
    """
    sigma = _check_positive(sigma, "sigma")
    missed = _residual(zeta, V)
    return RiskReport.from_parts(bias=missed.norm(), variance=sigma * sigma * trace_q_on(model, V))


def learning_gap(model: SpectralModel, U: Subspace, zeta: HVector, sigma: float, cutoff: int) -> float:
    """Excess risk of observing only the first `cutoff` modes of U.

    For an index-set subspace with ordered indices k_1 < k_2 < ..., the gap
    between the truncated estimator and the full projection is
    sum over the skipped modes of (zeta_k^2 - sigma^2 lambda_k), computed
    over the eigenpairs of Q restricted to U.  The gap tends to zero as the
    cutoff grows.
    """
    if U.kind != "indices" or U.is_complement:
        raise ValueError("learning_gap is defined for plain index-set subspaces")
    cutoff = _integer(cutoff, "cutoff must be an integer")
    if not 0 <= cutoff <= len(U.indices):
        raise ValueError(f"cutoff must lie in 0..{len(U.indices)}")
    sigma = _check_positive(sigma, "sigma")
    if zeta.dim != model.dim:
        raise ValueError("zeta dimension does not match the model")
    skipped = np.array(U.indices[cutoff:], dtype=int) - 1
    lam = model.eigenvalues[skipped]
    z = zeta.coeffs[skipped]
    return float(np.sum(z * z) - sigma * sigma * np.sum(lam))


def variance_est_risk(model: SpectralModel, U: Subspace, sigma: float) -> float:
    """Risk 2 (sigma^2 ||R Q R||_HS / ||R Q R||_tr)^2 of the variance
    estimator, with R = I - P_U over the truncated spectrum (no tail).

    The Cauchy-Schwarz bound caps this at 2 sigma^4, with equality exactly
    when the complement carries a single nonzero eigenvalue.
    """
    sigma = _check_positive(sigma, "sigma")
    eigs = Spectrum(model, U.complement()).eigenvalues
    l1 = float(eigs.sum())
    if l1 <= 0.0:
        raise ValueError("Q vanishes on the complement of U")
    l2 = float(np.sqrt(eigs @ eigs))
    return 2.0 * (sigma * sigma * l2 / l1) ** 2


def gm_variances(b: HVector, c: HVector, model: SpectralModel, U: Subspace, sigma: float):
    """Analytic variances of the best functional estimator and a competitor.

    <c, Y> is unbiased for <b, zeta> over means in U exactly when c - b is
    orthogonal to U; this precondition is enforced, not silently projected
    away.  Returns (var_best, var_c) with
    var_best = sigma^2 <Q P_U b, P_U b> <= var_c = sigma^2 <Q c, c>,
    with equality exactly when the orthogonal excess of c is Q-null.
    """
    sigma = _check_positive(sigma, "sigma")
    mismatch = project(c - b, U)
    if mismatch.norm() > GM_UNBIASED_TOL:
        raise ValueError(
            "competitor is biased: c and b differ inside U "
            f"(||P_U (c - b)|| = {mismatch.norm():.3e})"
        )
    lam = model.eigenvalues
    pb = project(b, U).coeffs
    var_best = sigma * sigma * float(lam @ (pb * pb))
    var_c = sigma * sigma * float(lam @ (c.coeffs * c.coeffs))
    return var_best, var_c
