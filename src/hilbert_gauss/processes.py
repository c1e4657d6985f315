"""Analytic covariance models on [0, 1] and pointwise evaluation.

Two built-in spectra are provided.  The Wiener process has eigenvalues
lambda_k = 1 / ((k - 1/2)^2 pi^2) with eigenfunctions sqrt(2) sin((k - 1/2)
pi t) and total trace 1/2; the Brownian bridge has lambda_k = 1 / (k^2 pi^2)
with eigenfunctions sqrt(2) sin(k pi t) and total trace 1/6.  Tail traces are
obtained from the closed-form totals rather than by summing the far tail, so
the stored trace decomposition is exact in floating point.  Arbitrary
user-supplied spectra are supported without pointwise evaluation.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import PLAN_CACHE_SIZE, HVector, SpectralModel, _integer, _readonly, _real, _real_array

WIENER_TOTAL_TRACE = 0.5
BRIDGE_TOTAL_TRACE = 1.0 / 6.0


class Grid:
    """Strictly increasing evaluation points inside [0, 1]."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = _real_array(points, "grid points")
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a nonempty 1-d sequence")
        if pts[0] < 0.0 or pts[-1] > 1.0 or np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing within [0, 1]")
        self.points = _readonly(pts)

    @classmethod
    def uniform(cls, count: int) -> "Grid":
        count = _integer(count, "count must be an integer")
        if count < 2:
            raise ValueError("a uniform grid needs at least two points")
        return cls(np.linspace(0.0, 1.0, count))

    @property
    def size(self) -> int:
        return int(self.points.size)


# typed: 16.0 and True, equal to 16 and 1, are looked up apart and refused.
@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def wiener_model(n_modes: int) -> SpectralModel:
    """Truncated spectral model of the standard Wiener process on [0, 1].

    Eigenvalues 1 / ((k - 1/2)^2 pi^2); the tail trace is the closed-form
    total 1/2 minus the truncated sum, so trace() returns exactly 0.5.
    Repeated calls share one (immutable) instance per mode count.
    """
    n_modes = _integer(n_modes, "n_modes must be an integer")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    k = np.arange(1, n_modes + 1, dtype=float)
    lam = 1.0 / ((k - 0.5) ** 2 * np.pi**2)
    return SpectralModel(lam, tail_trace=WIENER_TOTAL_TRACE - float(lam.sum()), basis_id="wiener")


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def bridge_model(n_modes: int) -> SpectralModel:
    """Truncated spectral model of the Brownian bridge on [0, 1].

    Eigenvalues 1 / (k^2 pi^2); the tail trace tops the truncated sum up to
    the closed-form total 1/6.  Repeated calls share one instance.
    """
    n_modes = _integer(n_modes, "n_modes must be an integer")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    k = np.arange(1, n_modes + 1, dtype=float)
    lam = 1.0 / (k**2 * np.pi**2)
    return SpectralModel(lam, tail_trace=BRIDGE_TOTAL_TRACE - float(lam.sum()), basis_id="bridge")


def custom_model(eigenvalues, tail_trace: float = 0.0) -> SpectralModel:
    """Spectral model from a user-supplied nonnegative eigenvalue sequence.

    The basis is abstract: pointwise evaluation (eval_basis, eval_vector,
    kernel) is unavailable for such models.
    """
    return SpectralModel(eigenvalues, tail_trace=tail_trace, basis_id="abstract")


def _check_analytic(model: SpectralModel) -> None:
    if not model.is_analytic:
        raise ValueError("model has an abstract basis; pointwise evaluation unavailable")


def _freq(basis_id: str, k):
    """Frequency of mode k (1-based, scalar or array) in units of pi:
    k - 1/2 for the Wiener basis, k for the bridge."""
    return (k - 0.5) if basis_id == "wiener" else k


@functools.lru_cache(maxsize=1)
def _basis(basis_id: str, dim: int, points: bytes) -> tuple:
    """Read-only (dim, grid points) matrix of e_k(t_j) and trapezoid weights,
    keyed on the raw grid bytes.  One entry is kept, so at most one basis
    stays alive; repeated calls on one (model, grid) pair reuse both."""
    k = np.arange(1, dim + 1, dtype=float)
    t = np.frombuffer(points, dtype=float)
    # Trapezoid weights: half of each interval goes to both of its ends; a
    # one-point grid has weight 0, so its coefficients are 0.
    half = np.diff(t) / 2.0
    weights = np.zeros(t.size)
    weights[:-1] += half
    weights[1:] += half
    # rows: modes, columns: grid points
    return _readonly(np.sqrt(2.0) * np.sin(np.outer(_freq(basis_id, k), np.pi * t))), _readonly(weights)


def eval_basis(model: SpectralModel, k: int, t):
    """Eigenfunction e_k evaluated at t (scalar or array), 1-based index k."""
    _check_analytic(model)
    k = _integer(k, "mode index must be an integer")
    if not 1 <= k <= model.dim:
        raise ValueError(f"mode index {k} outside 1..{model.dim}")
    t = _real_array(t, "t")
    out = np.sqrt(2.0) * np.sin(_freq(model.basis_id, float(k)) * np.pi * t)
    return float(out) if out.ndim == 0 else out


def eval_vector(model: SpectralModel, y: HVector, grid: Grid) -> np.ndarray:
    """Trajectory sum_k y_k e_k(t) over the grid points.

    Direct O(N * M) summation; desk-scale truncations never need a fast
    transform here.
    """
    _check_analytic(model)
    if y.dim != model.dim:
        raise ValueError(f"dimension mismatch: vector {y.dim} vs model {model.dim}")
    return y.coeffs @ _basis(model.basis_id, model.dim, grid.points.tobytes())[0]


def coeffs_from_trajectory(model: SpectralModel, grid: Grid, values) -> HVector:
    """Approximate eigenbasis coefficients of a sampled trajectory.

    Trapezoidal quadrature of <y, e_k> over the grid.  This is the inverse
    of eval_vector up to quadrature error and is meant for round-tripping
    simulated trajectories, not for high-accuracy analysis.  The basis
    matrix and weights are built once per (basis, modes, grid) and reused.
    """
    _check_analytic(model)
    vals = _real_array(values, "trajectory values")
    if vals.shape != grid.points.shape:
        raise ValueError("trajectory values must match the grid size")
    basis, weights = _basis(model.basis_id, model.dim, grid.points.tobytes())
    return HVector(basis @ (weights * vals))


def kernel(model: SpectralModel, s: float, t: float) -> float:
    """Truncated covariance kernel sum_k lambda_k e_k(s) e_k(t)."""
    _check_analytic(model)
    s = _real(s, "s")
    t = _real(t, "t")
    freq = _freq(model.basis_id, np.arange(1, model.dim + 1, dtype=float))
    es = np.sqrt(2.0) * np.sin(freq * np.pi * s)
    et = np.sqrt(2.0) * np.sin(freq * np.pi * t)
    return float(np.sum(model.eigenvalues * es * et))
