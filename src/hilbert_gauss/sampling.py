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
from functools import cached_property

import numpy as np

from .distributions import _check_positive
from .spectral import (
    MEAN_IN_SUBSPACE_TOL,
    HVector,
    SpectralModel,
    Subspace,
    default_use_tail,
    difference_subspace,
    project,
    restricted_eigenvalues,
    row_inner,
    sup_eig_on,
    top_eigenspace,
    top_multiplicity,
    trace_q_on,
)


class GaussianLaw:
    """Parameter pair (zeta, sigma^2) together with a spectral model.

    When a subspace U is attached, the mean must lie in U (up to
    MEAN_IN_SUBSPACE_TOL), matching the parameter space U x (0, inf).
    """

    __slots__ = ("model", "mean", "sigma", "subspace", "_sigma_sqrt_lam")

    def __init__(self, model: SpectralModel, mean: HVector, sigma: float, subspace: Subspace | None = None):
        sigma = _check_positive(sigma, "sigma")
        if mean.dim != model.dim:
            raise ValueError(f"mean has dim {mean.dim}, model has {model.dim}")
        if subspace is not None:
            residual = mean - project(mean, subspace)
            if residual.norm() > MEAN_IN_SUBSPACE_TOL:
                raise ValueError("mean does not lie in the attached subspace")
        self.model = model
        self.mean = mean
        self.sigma = sigma
        self.subspace = subspace
        scale = sigma * np.sqrt(model.eigenvalues)
        scale.flags.writeable = False
        self._sigma_sqrt_lam = scale

    def __repr__(self) -> str:
        return f"GaussianLaw(dim={self.model.dim}, sigma={self.sigma!r})"

    def from_normals(self, beta: np.ndarray) -> np.ndarray:
        """Turn standard normal coefficients, one draw per row, into draws
        zeta + sigma sqrt(lambda) beta from the law, in place."""
        beta *= self._sigma_sqrt_lam
        beta += self.mean.coeffs
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
    are truncated, matching what the truncated sampler can realize.
    """
    if use_tail is None:
        use_tail = default_use_tail(law.model)
    lam = law.model.eigenvalues
    zeta = law.mean.coeffs
    s2 = law.sigma**2
    trace = float(lam.sum()) + (law.model.tail_trace if use_tail else 0.0)
    mean = s2 * trace + float(zeta @ zeta)
    variance = 2.0 * s2 * s2 * float(lam @ lam) + 4.0 * s2 * float(lam @ (zeta * zeta))
    return mean, variance


def transformed_norm_sq_moments(law: GaussianLaw, T_subspace: Subspace, use_tail: bool | None = None):
    """Mean and variance of ||P_S Y||^2 for a subspace projection P_S.

    Mean sigma^2 tr(Q P_S) + ||P_S zeta||^2; variance
    2 sigma^4 ||P_S Q P_S||_HS^2 + 4 sigma^2 <Q P_S zeta, P_S zeta>.
    """
    if use_tail is None:
        use_tail = default_use_tail(law.model)
    lam = law.model.eigenvalues
    s2 = law.sigma**2
    proj_mean = project(law.mean, T_subspace).coeffs
    mean = s2 * trace_q_on(law.model, T_subspace, use_tail=use_tail) + float(proj_mean @ proj_mean)
    eigs = restricted_eigenvalues(law.model, T_subspace)
    variance = 2.0 * s2 * s2 * float(eigs @ eigs) + 4.0 * s2 * float(lam @ (proj_mean * proj_mean))
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
    comp = U.complement()
    if trace_q_on(model, comp, use_tail=False) <= 0.0:
        # Even with a positive tail trace, lam and n are not readable from
        # a scalar tail, so an empty or Q-null truncated complement is out.
        raise ValueError("Q vanishes on the truncated complement of U")
    lam = sup_eig_on(model, comp)
    n = top_multiplicity(model, comp)
    if U0 is None:
        return NoiseDecomposition(lam=lam, n=n)
    diff = difference_subspace(model, U, U0)
    mu = sup_eig_on(model, diff)
    if mu <= 0.0:
        raise ValueError("Q vanishes on the difference of U and U0")
    m = int(np.count_nonzero(restricted_eigenvalues(model, diff) > 0.0))
    if m < 1:
        raise ValueError("Q has rank zero on the difference of U and U0")
    return NoiseDecomposition(lam=lam, n=n, mu=mu, m=m)


class NoisePlan:
    """Replicate-invariant parts of the noise statistics attached to U (and U0).

    Each part is built on first use: the leading eigenspace of Q on the
    complement of U, and the whitening weights of Q on U minus U0.  The
    statistics are evaluated on a coefficient array of shape (rows, dim) or
    (dim,), one value per row.  Index-set subspaces only.
    """

    def __init__(self, model: SpectralModel, U: Subspace, U0: Subspace | None = None):
        self.model = model
        self.U = U
        self.U0 = U0

    @cached_property
    def leading(self) -> Subspace:
        return top_eigenspace(self.model, self.U.complement())

    @cached_property
    def whitening(self) -> tuple:
        """(coordinates, eigenvalues, mu) of the nonzero spectrum on U minus U0."""
        if self.U0 is None:
            raise ValueError("the whitened statistic needs the hypothesis subspace U0")
        diff = difference_subspace(self.model, self.U, self.U0)
        if diff.kind != "indices":
            raise ValueError("whitening requires index-set subspaces")
        coords = np.flatnonzero(diff.index_mask())
        lam = self.model.eigenvalues[coords]
        keep = lam > 0.0
        if not keep.any():
            raise ValueError("Q vanishes on the difference of U and U0")
        return coords[keep], lam[keep], float(lam.max())

    def leading_norm_sq(self, y: np.ndarray, sigma: float) -> np.ndarray:
        """||S(Y / sigma)||^2 per row, S the projection onto `leading`."""
        r = project(y, self.leading)
        return row_inner(r, r) / float(sigma) ** 2

    def whitened_norm_sq(self, y: np.ndarray, sigma: float) -> np.ndarray:
        """||T(Y / sigma)||^2 per row, T the sqrt(mu)-scaled whitening on U minus U0."""
        coords, lam, mu = self.whitening
        c = y[..., coords]
        return mu * np.sum(c * c / lam, axis=-1) / float(sigma) ** 2


def leading_complement_norm_sq(model: SpectralModel, U: Subspace, y: HVector, sigma: float) -> float:
    """||S(Y / sigma)||^2 for S the projection onto the leading eigenspace
    of Q on the complement of U; its law is exactly Gamma(n/2, 1/(2 lam)).

    Index-set subspaces only: the leading eigenspace is read off the
    truncated spectrum.
    """
    return float(NoisePlan(model, U).leading_norm_sq(y.coeffs, sigma))


def whitened_difference_norm_sq(
    model: SpectralModel, U: Subspace, U0: Subspace, y: HVector, sigma: float
) -> float:
    """||T(Y / sigma)||^2 for the whitened, sqrt(mu)-scaled restriction to
    U minus U0; its law is exactly Gamma(m/2, 1/(2 mu)) and it dominates the
    raw restricted norm pointwise.

    Index-set subspaces only.
    """
    return float(NoisePlan(model, U, U0).whitened_norm_sq(y.coeffs, sigma))
