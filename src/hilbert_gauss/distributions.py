"""Quantiles of the normal, Student-t, Fisher and Gamma families, the Gamma
CDF and sampler, the scale-family reductions used to recognize
normal-over-root-Gamma and Gamma-over-Gamma ratios, and the
Kolmogorov-Smirnov statistic with its critical value.

Quantiles are the inverses in scipy.special (ndtri, stdtrit, fdtri,
gammaincinv) and the Gamma CDF is its regularized lower incomplete gamma;
non-integer degrees of freedom work everywhere.  These ufuncs load on first
call from the compiled scipy.special._ufuncs alone (see _special): importing
the package loads no scipy, and a quantile runs no scipy.special package
init.  The normal, t and F quantiles are cached by their arguments, so plans
asking the same one share it.  The sampler is the generator's standard_gamma
(Marsaglia and Tsang's method for shapes above 1) divided by the rate, behind
argument checks.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import PLAN_CACHE_SIZE, _count, _real


def _check_prob(value: float, name: str) -> float:
    if type(value) is not float:  # a plain float needs only the range check
        value = _real(value, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def _check_positive(value: float, name: str) -> float:
    if type(value) is not float:  # a plain float needs only the range check
        value = _real(value, name)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive real, got {value}")
    return value


def _maybe_scalar(x, out):
    return float(out) if np.ndim(x) == 0 else out


_UFUNCS = ("ndtri", "stdtrit", "fdtri", "gammainc", "gammaincinv")
_special_lock = threading.Lock()


@lru_cache(maxsize=1)
def _special():
    """The module the package calls the scipy.special ufuncs in _UFUNCS from.

    scipy.special's package init loads about 280 modules (numpy.testing,
    logging, socket, ...) to export these compiled ufuncs, so they are loaded
    from the extension scipy.special._ufuncs alone.  For that one import,
    under a lock and only while no scipy.special is loaded, an unexecuted
    module of scipy.special's spec stands in for the package in sys.modules,
    so that the extension's relative imports resolve; a finally removes it.
    A later real `import scipy.special` exports the same ufunc objects.  A
    scipy.special already loaded is used as it is; an ImportError or a
    missing name falls back to importing scipy.special.  Another thread's
    own `import scipy.special` that starts in the few milliseconds the
    stand-in is in place gets the stand-in, which has no functions.
    """
    with _special_lock:
        if "scipy.special" not in sys.modules:
            sys.modules["scipy.special"] = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
            try:
                ufuncs = importlib.import_module("scipy.special._ufuncs")
            except ImportError:
                ufuncs = None
            finally:
                del sys.modules["scipy.special"]
            if all(hasattr(ufuncs, name) for name in _UFUNCS):
                return ufuncs
    return importlib.import_module("scipy.special")


# ---------------------------------------------------------------------------
# CDF


def gamma_cdf(x, alpha, beta):
    """Gamma CDF with shape alpha and rate beta (regularized lower gamma)."""
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    x = np.asarray(x, dtype=float)
    out = _special().gammainc(alpha, beta * np.clip(x, 0.0, None))
    return _maybe_scalar(x, out)


# ---------------------------------------------------------------------------
# quantiles


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def norm_quantile(a: float) -> float:
    """Standard normal a-quantile, |CDF(result) - a| below 1e-12."""
    a = _check_prob(a, "probability")
    return float(_special().ndtri(a))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def t_quantile(dof: float, a: float) -> float:
    """Student-t a-quantile for real dof >= 1, |CDF(result) - a| below 1e-10."""
    dof = _check_positive(dof, "dof")
    a = _check_prob(a, "probability")
    return float(_special().stdtrit(dof, a))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def f_quantile(m: float, n: float, a: float) -> float:
    """Fisher F a-quantile for real dofs, |CDF(result) - a| below 1e-9."""
    m = _check_positive(m, "m")
    n = _check_positive(n, "n")
    a = _check_prob(a, "probability")
    return float(_special().fdtri(m, n, a))


def gamma_quantile(alpha: float, beta: float, a: float) -> float:
    """Gamma a-quantile with shape alpha and rate beta."""
    alpha = _check_positive(alpha, "alpha")
    beta = _check_positive(beta, "beta")
    a = _check_prob(a, "probability")
    return float(_special().gammaincinv(alpha, a) / beta)


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


def ks_critical_value(n: int, m: int | None = None, alpha: float = 0.05) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value.

    One-sample when m is omitted: c(alpha) / sqrt(n) with
    c(alpha) = sqrt(-log(alpha / 2) / 2); two-sample otherwise with the
    usual sqrt((n + m) / (n * m)) scaling.
    """
    alpha = _check_prob(alpha, "alpha")
    n = _count(n, "n")
    m = None if m is None else _count(m, "m")
    c = float(np.sqrt(-0.5 * np.log(alpha / 2.0)))
    if m is None:
        return c / float(np.sqrt(n))
    return c * float(np.sqrt((n + m) / (n * m)))
