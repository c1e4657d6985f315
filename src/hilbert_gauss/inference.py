"""Confidence intervals for functionals of the mean and the subspace test.

With known sigma the interval around <b, P_U y> uses the exact normal pivot
and has exact coverage.  With unknown sigma the half-width couples the
variance estimator with the quantities tau = tr(Q (I - P_U)),
lam = ||Q (I - P_U)|| and the multiplicity n of lam; the resulting interval
is conservative (coverage at least the nominal level).  The subspace test
compares a scaled ratio of projection norms against a Fisher quantile and
is conservative in the same sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .distributions import _check_positive, _check_prob, norm_quantile, t_quantile
from .sampling import Plan, ZeroResidualError, noise_plan  # ZeroResidualError is re-exported
from .spectral import (
    PLAN_CACHE_SIZE,
    HVector,
    SpectralModel,
    Subspace,
    _residual,
    default_use_tail,
    project,
    row_inner,
    trace_q_on,
)


@dataclass(frozen=True)
class Interval:
    """Two-sided confidence interval (center - hw, center + hw)."""

    center: float
    half_width: float
    level: float

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly between 0 and 1")

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.half_width

    def to_dict(self) -> dict:
        return {"center": self.center, "half_width": self.half_width, "level": self.level}


@dataclass(frozen=True)
class TestResult:
    """Outcome of the subspace test; reject iff statistic >= threshold."""

    statistic: float
    threshold: float
    reject: bool
    params: dict

    @classmethod
    def from_statistic(cls, statistic: float, threshold: float, params: dict) -> "TestResult":
        statistic = float(statistic)
        threshold = float(threshold)
        return cls(statistic=statistic, threshold=threshold, reject=statistic >= threshold, params=params)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reject": self.reject,
            "params": dict(self.params),
        }


class FunctionalPlan(Plan):
    """Replicate-invariant constants of the estimators and intervals for
    <b, zeta> on U, and their evaluation on a batch of observations.

    The observation argument of every method is a coefficient array of
    shape (rows, dim), or (dim,) for a single observation; results come one
    per row.  Each constant is computed on first use, so a plan costs only
    what its procedures need: `variance_factor` <Q b, P_U b> (needs b),
    `variance_denominator` tr(Q (I - P_U)) under the tail convention, and
    `complement_params` (tau, lam, n) of Q on the complement of U, with tau
    the variance denominator.  The interval quantiles come from the
    argument-keyed quantile caches, shared with every other plan.  A
    constant that raises is not kept, so it raises again on the next use.
    Build plans with `functional_plan`.
    """

    _KEYS = ("model", "U", "b", "use_tail")

    @cached_property
    def variance_factor(self) -> float:
        if self.b is None:
            raise ValueError("the functional procedures need a vector b")
        # <Q b, P_U b>; zero means b acts like an element of the complement of U.
        v = float(row_inner(self.model.eigenvalues, project(self.b, self.U).coeffs * self.b.coeffs))
        if v <= 0.0:
            raise ValueError("<Q b, P_U b> is not positive; b carries no signal inside U")
        return v

    @cached_property
    def variance_denominator(self) -> float:
        tail = default_use_tail(self.model, self.use_tail, self._perp.is_complement)
        denom = trace_q_on(self.model, self._perp)
        if denom <= 0.0:
            # A tail alone would divide a residual that the truncated draws leave at zero.
            raise ValueError("tr(Q (I - P_U)) over the truncated modes is zero; the variance is not identifiable")
        return denom + self.model.tail_trace if tail else denom

    @cached_property
    def complement_params(self) -> tuple:
        return (self.variance_denominator, *self.complement_top)

    def functional(self, y: np.ndarray) -> np.ndarray:
        """The functional estimator <b, P_U y>."""
        if self.b is None:
            raise ValueError("the functional estimator needs a vector b")
        return row_inner(self.b.coeffs, project(y, self.U))

    def variance(self, y: np.ndarray) -> np.ndarray:
        """The variance estimator ||y - P_U y||^2 / tr(Q (I - P_U))."""
        denom = self.variance_denominator
        residual = _residual(y, self.U, self._perp)
        return row_inner(residual, residual) / denom

    def ci_known(self, y: np.ndarray, sigma: float, alpha: float) -> tuple:
        """(centers, half-width) of the exact known-sigma interval."""
        sigma = _check_positive(sigma, "sigma")
        alpha = _check_prob(alpha, "alpha")
        v = self.variance_factor
        z = norm_quantile(1.0 - alpha / 2.0)
        return self.functional(y), z * sigma * float(np.sqrt(v))

    def ci_unknown(self, y: np.ndarray, alpha: float) -> tuple:
        """(centers, half-widths) of the conservative unknown-sigma interval."""
        alpha = _check_prob(alpha, "alpha")
        v = self.variance_factor
        tau, lam, n = self.complement_params
        s2 = self.variance(y)
        t = t_quantile(float(n), 1.0 - alpha / 2.0)
        half_width = np.sqrt(tau / (lam * n)) * t * np.sqrt(s2) * np.sqrt(v)
        return self.functional(y), half_width


_functional_plan = lru_cache(maxsize=PLAN_CACHE_SIZE)(FunctionalPlan)


def functional_plan(
    model: SpectralModel, U: Subspace, b: HVector | None = None, use_tail: bool | None = None
) -> FunctionalPlan:
    """The FunctionalPlan of (model, U, b, use_tail) from a bounded cache keyed by value,
    use_tail resolved first (`_denominator_tail`), so None and its value share one plan."""
    return _functional_plan(model, U, b, _denominator_tail(model, U, use_tail))


def _denominator_tail(model: SpectralModel, U: Subspace | None, use_tail: bool | None) -> bool:
    """The tail convention of tr(Q (I - P_U)), U None for {0}: use_tail, checked, or for None the
    model's unless U is a complement; an explicit True is refused only where a trace is read."""
    if use_tail is None:
        return default_use_tail(model, None, U is None or not U.is_complement)
    return default_use_tail(model, use_tail)


def ci_params_unknown(model: SpectralModel, U: Subspace, use_tail: bool | None = None):
    """The quantities (tau, lam, n) of Q on the complement of U.

    tau is the complement trace (tail per convention), lam the largest
    complement eigenvalue, n its multiplicity.
    """
    return functional_plan(model, U, use_tail=use_tail).complement_params


def ci_known(b: HVector, y: HVector, model: SpectralModel, U: Subspace, sigma: float, alpha: float) -> Interval:
    """Exact-coverage interval for <b, zeta> with known sigma.

    Center <b, P_U y>, half-width z_{1 - alpha/2} sigma sqrt(<Q b, P_U b>).
    """
    center, half_width = functional_plan(model, U, b).ci_known(y.coeffs, sigma, alpha)
    return Interval(center=float(center), half_width=half_width, level=1.0 - float(alpha))


def ci_unknown(
    b: HVector,
    y: HVector,
    model: SpectralModel,
    U: Subspace,
    alpha: float,
    use_tail: bool | None = None,
) -> Interval:
    """Conservative interval for <b, zeta> with unknown sigma.

    Half-width sqrt(tau / (lam n)) t_{n, 1 - alpha/2} s(y) sqrt(<Q b, P_U b>)
    where s(y)^2 is the variance estimator.  Coverage is at least 1 - alpha.
    A zero residual yields a degenerate zero-width interval.
    """
    center, half_width = functional_plan(model, U, b, use_tail).ci_unknown(y.coeffs, alpha)
    return Interval(center=float(center), half_width=float(half_width), level=1.0 - float(alpha))


def test_params(model: SpectralModel, U: Subspace, U0: Subspace):
    """The quantities (lam, mu, n, m) for testing zeta in U0 against U.

    lam, n come from Q on the complement of U; mu, m from Q on U minus U0
    (largest eigenvalue and rank).  Both operators must be nonzero.
    """
    dec = noise_plan(model, U, U0).decomposition
    return dec.lam, dec.mu, dec.n, dec.m


def test_subspace(y: HVector, model: SpectralModel, U: Subspace, U0: Subspace, alpha: float) -> TestResult:
    """Level-alpha test of the hypothesis that the mean lies in U0.

    Rejects when (n lam / (m mu)) ||P_U y - P_U0 y||^2 / ||y - P_U y||^2
    reaches the Fisher quantile F_{m, n, 1 - alpha}.  The test is
    conservative: under the hypothesis the rejection probability is at most
    alpha.  A zero residual outside U is a probability-zero event and
    raises ZeroResidualError.
    """
    alpha = _check_prob(alpha, "alpha")
    plan = noise_plan(model, U, U0)
    dec = plan.decomposition
    params = {"lam": dec.lam, "mu": dec.mu, "n": dec.n, "m": dec.m}
    return TestResult.from_statistic(plan.statistic(y.coeffs), plan.threshold(alpha), params=params)

