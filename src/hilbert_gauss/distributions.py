"""CDFs, quantiles, and samplers for the normal, Student-t, Fisher, and Gamma
families, plus the scale-family reductions used to recognize
normal-over-root-Gamma and Gamma-over-Gamma ratios.

CDFs are built from the regularized incomplete gamma and beta functions, and
quantiles are their inverses in scipy.special (ndtri, stdtrit, fdtri,
gammaincinv), so non-integer degrees of freedom work everywhere.  The
samplers are the generator's own methods behind argument checks:
standard_gamma (Marsaglia and Tsang's method for shapes above 1) divided
by the rate, standard_t and f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive real, got {value}")
    return value


def _maybe_scalar(x, out):
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# CDFs


def norm_cdf(x):
    """Standard normal CDF, accurate in both tails via erfc."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-x / _SQRT2)
    return _maybe_scalar(x, out)


def t_cdf(x, dof):
    """Student-t CDF for real degrees of freedom via the incomplete beta."""
    dof = _check_positive(dof, "dof")
    x = np.asarray(x, dtype=float)
    z = dof / (dof + x * x)
    tail = 0.5 * special.betainc(dof / 2.0, 0.5, z)
    out = np.where(x >= 0.0, 1.0 - tail, tail)
    return _maybe_scalar(x, out)


def f_cdf(x, m, n):
    """Fisher F CDF for real degrees of freedom via the incomplete beta."""
    m = _check_positive(m, "m")
    n = _check_positive(n, "n")
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, 0.0, None)
    out = special.betainc(m / 2.0, n / 2.0, m * xc / (m * xc + n))
    return _maybe_scalar(x, out)


def gamma_cdf(x, alpha, beta):
    """Gamma CDF with shape alpha and rate beta (regularized lower gamma)."""
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    x = np.asarray(x, dtype=float)
    out = special.gammainc(alpha, beta * np.clip(x, 0.0, None))
    return _maybe_scalar(x, out)


# ---------------------------------------------------------------------------
# quantiles


def norm_quantile(a: float) -> float:
    """Standard normal a-quantile, |CDF(result) - a| below 1e-12."""
    a = _check_prob(a, "probability")
    return float(special.ndtri(a))


def t_quantile(dof: float, a: float) -> float:
    """Student-t a-quantile for real dof >= 1, |CDF(result) - a| below 1e-10."""
    dof = _check_positive(dof, "dof")
    a = _check_prob(a, "probability")
    return float(special.stdtrit(dof, a))


def f_quantile(m: float, n: float, a: float) -> float:
    """Fisher F a-quantile for real dofs, |CDF(result) - a| below 1e-9."""
    m = _check_positive(m, "m")
    n = _check_positive(n, "n")
    a = _check_prob(a, "probability")
    return float(special.fdtri(m, n, a))


def gamma_quantile(alpha: float, beta: float, a: float) -> float:
    """Gamma a-quantile with shape alpha and rate beta."""
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    a = _check_prob(a, "probability")
    return float(special.gammaincinv(alpha, a) / beta)


# ---------------------------------------------------------------------------
# sampling


def gamma_sample(rng, alpha: float, beta: float, size=None):
    """Draw from the Gamma distribution with shape alpha and rate beta.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source of the draws, through its standard_gamma method.
    alpha, beta : float
        Shape and rate, both positive.  The mean is alpha / beta.
    size : int, optional
        Number of draws; a scalar float is returned when omitted.
    """
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    return rng.standard_gamma(alpha, size) / beta


def t_sample(rng, dof: float, size=None):
    """Draw from Student-t with real dof through the generator's standard_t."""
    return rng.standard_t(_check_positive(dof, "dof"), size)


def f_sample(rng, m: float, n: float, size=None):
    """Draw from Fisher F with real dofs through the generator's f."""
    return rng.f(_check_positive(m, "m"), _check_positive(n, "n"), size)


# ---------------------------------------------------------------------------
# scale-family reductions


@dataclass(frozen=True)
class Pearson7Params:
    """Pearson type VII parameters: scale alpha > 0 and shape m > 1/2."""

    alpha: float
    m: float

    def __post_init__(self):
        _check_positive(self.alpha, "alpha")
        if not np.isfinite(self.m) or self.m <= 0.5:
            raise ValueError(f"shape m must exceed 1/2, got {self.m}")

    def scaled(self, c: float) -> "Pearson7Params":
        """Law of c * Z for Z with these parameters: the scale multiplies."""
        return Pearson7Params(alpha=_check_positive(c, "c") * self.alpha, m=self.m)


@dataclass(frozen=True)
class GenFisherParams:
    """Generalized Fisher parameters: dofs m, n and positive scales a, b."""

    m: float
    n: float
    a: float
    b: float

    def __post_init__(self):
        for name in ("m", "n", "a", "b"):
            _check_positive(getattr(self, name), name)

    def scaled(self, c: float) -> "GenFisherParams":
        """Law of c * Z for Z with these parameters: a picks up the factor."""
        return GenFisherParams(m=self.m, n=self.n, a=_check_positive(c, "c") * self.a, b=self.b)


def t_ratio_reduction(alpha: float, beta: float):
    """Recognize X / sqrt(Y) for X standard normal and Y ~ Gamma(alpha, beta).

    Returns (scale, dof, pearson): the ratio equals scale times a Student-t
    variable with dof = 2 * alpha degrees of freedom, where
    scale = sqrt(beta / alpha); as a scale family this is Pearson type VII
    with parameters (sqrt(2 * beta), alpha + 1/2).
    """
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    scale = float(np.sqrt(beta / alpha))
    dof = 2.0 * alpha
    pearson = Pearson7Params(alpha=float(np.sqrt(2.0 * beta)), m=alpha + 0.5)
    return scale, dof, pearson


def gamma_ratio_reduction(alpha: float, beta: float, gamma: float, delta: float):
    """Recognize X / Y for independent X ~ Gamma(alpha, beta), Y ~ Gamma(gamma, delta).

    Returns (scale, fparams): the ratio equals scale times a Fisher variable
    with (2 * alpha, 2 * gamma) degrees of freedom, where
    scale = alpha * delta / (beta * gamma); as a scale family this is the
    generalized Fisher law with parameters (2 alpha, 2 gamma, scale, 1).
    """
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    gamma = _check_positive(gamma, "gamma")
    delta = _check_positive(delta, "delta")
    scale = alpha * delta / (beta * gamma)
    return scale, GenFisherParams(m=2.0 * alpha, n=2.0 * gamma, a=scale, b=1.0)


# ---------------------------------------------------------------------------
# goodness of fit


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a vectorized CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_statistic_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("need at least one sample on each side")
    both = np.concatenate([x, y])
    fx = np.searchsorted(x, both, side="right") / x.size
    fy = np.searchsorted(y, both, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_critical_value(n: int, m: int | None = None, alpha: float = 0.05) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value.

    One-sample when m is omitted: c(alpha) / sqrt(n) with
    c(alpha) = sqrt(-log(alpha / 2) / 2); two-sample otherwise with the
    usual sqrt((n + m) / (n * m)) scaling.
    """
    alpha = _check_prob(alpha, "alpha")
    c = float(np.sqrt(-0.5 * np.log(alpha / 2.0)))
    if m is None:
        return c / float(np.sqrt(n))
    return c * float(np.sqrt((n + m) / (n * m)))
