"""Sampling of Gaussian random elements and the analytic moments of their
squared norms.

A law N(zeta, sigma^2 Q) is sampled through the truncated series
y_k = zeta_k + sigma * sqrt(lambda_k) * beta_k with independent standard
normal beta_k.  sigma enters as a scale on the coefficients, never by
rescaling the model, so one model instance serves every parameter pair.
All Monte Carlo comparisons happen in the truncated model; trace terms can
optionally include the analytic tail, and every harness report states which
convention it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .distributions import _check_positive, _check_prob, f_quantile
from .spectral import (
    MEAN_IN_SUBSPACE_TOL,
    PLAN_CACHE_SIZE,
    HVector,
    SpectralModel,
    Spectrum,
    Subspace,
    _check_model_subspace,
    _residual,
    difference_subspace,
    project,
    row_inner,
    trace_q_on,
)


class GaussianLaw:
    """Parameter pair (zeta, sigma^2) together with a spectral model.

    When a subspace U is attached, the mean must lie in U (up to
    MEAN_IN_SUBSPACE_TOL), matching the parameter space U x (0, inf).
    """

    __slots__ = ("model", "mean", "sigma", "_sigma_sqrt_lam")

    def __init__(self, model: SpectralModel, mean: HVector, sigma: float, subspace: Subspace | None = None):
        sigma = _check_positive(sigma, "sigma")
        if mean.dim != model.dim:
            raise ValueError(f"mean has dim {mean.dim}, model has {model.dim}")
        if subspace is not None:
            if _residual(mean, subspace).norm() > MEAN_IN_SUBSPACE_TOL:
                raise ValueError("mean does not lie in the attached subspace")
        self.model = model
        self.mean = mean
        self.sigma = sigma
        scale = sigma * np.sqrt(model.eigenvalues)
        scale.flags.writeable = False
        self._sigma_sqrt_lam = scale

    def __repr__(self) -> str:
        return f"GaussianLaw(dim={self.model.dim}, sigma={self.sigma!r})"

    def from_normals(self, beta: np.ndarray) -> np.ndarray:
        """Turn standard normal coefficients, one draw per row, into draws
        zeta + sigma sqrt(lambda) beta of the first beta.shape[-1] modes, in place."""
        beta *= self._sigma_sqrt_lam[: beta.shape[-1]]
        beta += self.mean.coeffs[: beta.shape[-1]]
        return beta


def sample(law: GaussianLaw, rng) -> HVector:
    """One draw y = zeta + sigma * sum_k sqrt(lambda_k) beta_k e_k."""
    return HVector(law.from_normals(rng.standard_normal(law.model.dim)))


# ---------------------------------------------------------------------------
# analytic moments of squared norms


def norm_sq_moments(law: GaussianLaw, use_tail: bool | None = None):
    """Mean and variance of ||Y||^2.

    Mean sigma^2 tr(Q) + ||zeta||^2 and variance
    2 sigma^4 sum(lambda_k^2) + 4 sigma^2 sum(lambda_k zeta_k^2).  The trace
    picks up the analytic tail under the tail convention; the squared sums
    are truncated, matching what the truncated sampler can realize.  These
    are the moments of ||P_S Y||^2 on the whole space S, the complement of
    no mode.
    """
    return transformed_norm_sq_moments(law, _whole(law.model.dim), use_tail)


# The whole space of `dim` modes, the complement of no mode, its mask built once per dim.
_whole = lru_cache(maxsize=PLAN_CACHE_SIZE)(lambda dim: Subspace.from_indices(dim, ()).complement())


def transformed_norm_sq_moments(law: GaussianLaw, T_subspace: Subspace, use_tail: bool | None = None):
    """Mean and variance of ||P_S Y||^2 for a subspace projection P_S.

    Mean sigma^2 tr(Q P_S) + ||P_S zeta||^2; variance
    2 sigma^4 ||P_S Q P_S||_HS^2 + 4 sigma^2 <Q P_S zeta, P_S zeta>.  The
    trace takes the analytic tail as `default_use_tail` rules over S: under
    use_tail None, the model's convention for a complement S and no tail for
    a plain one.
    """
    lam = law.model.eigenvalues
    s2 = law.sigma**2
    proj_mean = project(law.mean.coeffs, T_subspace)
    mean = s2 * trace_q_on(law.model, T_subspace, use_tail) + float(row_inner(proj_mean, proj_mean))
    eigs = Spectrum(law.model, T_subspace).eigenvalues
    variance = 2.0 * s2 * s2 * float(row_inner(eigs, eigs)) + 4.0 * s2 * float(row_inner(lam, proj_mean * proj_mean))
    return mean, variance


# ---------------------------------------------------------------------------
# noise decomposition


@dataclass(frozen=True)
class NoiseDecomposition:
    """Gamma-law parameters of the two bounding noise statistics.

    lam and n describe Q on the complement of U: the leading-eigenspace
    statistic has the exact law Gamma(n/2, 1 / (2 lam)).  mu and m (present
    together) describe Q on U minus U0: the whitened difference statistic
    has the exact law Gamma(m/2, 1 / (2 mu)), with the shape driven by the
    rank m rather than a multiplicity.
    """

    lam: float
    n: int
    mu: float | None = None
    m: int | None = None

    def __post_init__(self):
        _check_positive(self.lam, "lam")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if (self.mu is None) != (self.m is None):
            raise ValueError("mu and m must be present together")
        if self.mu is not None:
            _check_positive(self.mu, "mu")
            if self.m < 1:
                raise ValueError("m must be at least 1")

    @property
    def s_shape(self) -> float:
        return self.n / 2.0

    @property
    def s_rate(self) -> float:
        return 1.0 / (2.0 * self.lam)

    @property
    def t_shape(self) -> float:
        if self.m is None:
            raise ValueError("no difference-subspace parameters present")
        return self.m / 2.0

    @property
    def t_rate(self) -> float:
        if self.mu is None:
            raise ValueError("no difference-subspace parameters present")
        return 1.0 / (2.0 * self.mu)


def noise_decomposition(model: SpectralModel, U: Subspace, U0: Subspace | None = None) -> NoiseDecomposition:
    """Gamma-law parameters of the noise statistics attached to U (and U0).

    Requires Q nonzero on the complement of U; with U0 given, requires
    U0 inside U and Q nonzero on the difference.
    """
    return noise_plan(model, U, U0).decomposition


class ZeroResidualError(ArithmeticError):
    """Observation with no component outside U; a probability-zero event
    under the model, reported distinctly instead of dividing by zero."""


def cut(key, width: int):
    """A model, index-set subspace or vector cut to its first `width` modes;
    other keys unchanged.  A cut model keeps the mass past `width` as tail."""
    if isinstance(key, SpectralModel):
        return SpectralModel(key.eigenvalues[:width], key.tail_trace + float(key.eigenvalues[width:].sum()), key.basis_id)
    if isinstance(key, Subspace):
        return Subspace(width, "indices", tuple(k for k in key.indices if k <= width), is_complement=key.is_complement)
    return HVector(key.coeffs[:width]) if isinstance(key, HVector) else key


class Plan:
    """Base of the plans: constants of the value keys named by _KEYS, built on first use."""

    def __init__(self, *keys):
        for name, key in zip(self._KEYS, keys):
            setattr(self, name, key)
        _check_model_subspace(self.model, self.U)
        self._perp = self.U.complement()  # y - P_U y is one projection onto it (spectral._residual)

    @cached_property
    def _complement(self) -> tuple:
        """(top, multiplicity, 0-based modes near the top, None for a frame) of Q on the
        truncated complement of U, from one spectrum."""
        spectrum = Spectrum(self.model, self._perp)
        near = spectrum.near_top()
        return spectrum.top, int(np.count_nonzero(near)), None if spectrum.modes is None else spectrum.modes[near]

    @property
    def complement_top(self) -> tuple:
        """(lam, n), the top eigenvalue of Q on the truncated complement of U and its
        multiplicity; a tail alone does not give them, so Q must not vanish there."""
        top, n, _ = self._complement
        if top <= 0.0:
            raise ValueError("Q vanishes on the truncated complement of U")
        return top, n

    def head(self, width: int):
        """The plan of the keys cut to modes 1..width (index-set subspaces only), from
        a bounded cache keyed by this plan and width, for a statistic that reads no
        later mode.  If the width holds U, U0 and the top of Q on the complement of U,
        a head keeps `variance_factor`, `complement_top`, `decomposition`, `leading` and
        `whitening` bit for bit; its model counts the later modes as tail, so its traces
        (`variance_denominator`, the tau of `complement_params`) differ and are not read."""
        return self if width == self.model.dim else _head(self, width)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _head(plan: Plan, width: int) -> Plan:
    return type(plan)(*(cut(getattr(plan, k), width) for k in plan._KEYS))


class NoisePlan(Plan):
    """Replicate-invariant constants of the two noise statistics attached to
    U (and U0) and of the subspace test, which share (lam, n, mu, m), and the
    statistics on coefficient arrays of shape (rows, dim) or (dim,).

    Each constant is built on first use, so a statistic needs only its own;
    one that raises is not kept.  The F quantile comes from the
    argument-keyed quantile cache, shared with every other plan.  Build plans
    with `noise_plan(model, U, U0)`.
    """

    _KEYS = ("model", "U", "U0")

    @cached_property
    def difference(self) -> Subspace:
        if self.U0 is None:
            raise ValueError("the whitened statistic needs the hypothesis subspace U0")
        return difference_subspace(self.model, self.U, self.U0)

    @cached_property
    def _difference(self) -> tuple:
        """(m, mu, the 0-based modes of the m positive eigenvalues or None for a
        frame) of Q on U minus U0, from one spectrum."""
        spectrum = Spectrum(self.model, self.difference)
        ranked = spectrum.ranked()
        m = int(np.count_nonzero(ranked))
        if m == 0:
            raise ValueError("Q vanishes on the difference of U and U0")
        return m, spectrum.top, None if spectrum.modes is None else spectrum.modes[ranked]

    @cached_property
    def decomposition(self) -> NoiseDecomposition:
        lam, n = self.complement_top
        if self.U0 is None:
            return NoiseDecomposition(lam=lam, n=n)
        m, mu, _ = self._difference
        return NoiseDecomposition(lam=lam, n=n, mu=mu, m=m)

    @cached_property
    def leading(self) -> Subspace:
        """The index set of the modes at the top of Q on the complement of U."""
        _, n, modes = self._complement
        if modes is None:
            raise ValueError("the leading eigenspace is defined for index-set subspaces only")
        if n == 0:
            raise ValueError("empty subspace has no top eigenspace")
        return Subspace.from_indices(self.model.dim, (modes + 1).tolist())

    @cached_property
    def whitening(self) -> tuple:
        """(coordinates, eigenvalues, mu) of the spectrum on U minus U0 above the rank
        threshold: the m coordinates of the decomposition."""
        if self.difference.kind != "indices":
            raise ValueError("whitening requires index-set subspaces")
        _, mu, coords = self._difference
        return coords, self.model.eigenvalues[coords], mu

    def leading_norm_sq(self, y: np.ndarray, sigma: float) -> np.ndarray:
        """||S(Y / sigma)||^2 per row, S the projection onto `leading`."""
        r = project(y, self.leading)
        return row_inner(r, r) / _check_positive(sigma, "sigma") ** 2

    def whitened_norm_sq(self, y: np.ndarray, sigma: float) -> np.ndarray:
        """||T(Y / sigma)||^2 per row, T the sqrt(mu)-scaled whitening on U minus U0."""
        coords, lam, mu = self.whitening
        c = y[..., coords]
        return mu * np.sum(c * c / lam, axis=-1) / _check_positive(sigma, "sigma") ** 2

    def _test_decomposition(self) -> NoiseDecomposition:
        if self.U0 is None:
            raise ValueError("the subspace test needs the hypothesis subspace U0")
        return self.decomposition

    def threshold(self, alpha: float) -> float:
        """The Fisher quantile F_{m, n, 1 - alpha} of the subspace test."""
        dec = self._test_decomposition()
        alpha = _check_prob(alpha, "alpha")
        return f_quantile(float(dec.m), float(dec.n), 1.0 - alpha)

    def statistic(self, y: np.ndarray) -> np.ndarray:
        """(n lam / (m mu)) ||P_U y - P_U0 y||^2 / ||y - P_U y||^2 per row."""
        dec = self._test_decomposition()  # U is no complement: the difference would have raised
        if self.U.kind == "indices" and self.U0.kind == "indices":
            # One projection each, bit for bit: P_U y - P_U0 y is y - y = +0.0 on U0,
            # y - 0.0 = y on U minus U0 and 0.0 - 0.0 = +0.0 off U.
            residual, shift = project(y, self._perp), project(y, self.difference)
        else:
            # A frame difference is re-orthonormalised, so its projection has other
            # bits; P_U y serves both terms.
            pu = project(y, self.U)
            residual, shift = y - pu, pu - project(y, self.U0)
        denom = row_inner(residual, residual)
        # One row gives a numpy scalar, on which .any() costs more than both dots.
        if denom <= 0.0 if denom.ndim == 0 else (denom <= 0.0).any():
            raise ZeroResidualError(
                "observation has no component outside U; the test statistic is undefined"
            )
        return (dec.n * dec.lam) / (dec.m * dec.mu) * row_inner(shift, shift) / denom


noise_plan = lru_cache(maxsize=PLAN_CACHE_SIZE)(NoisePlan)
