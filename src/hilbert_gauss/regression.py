"""Least squares over a finite-dimensional parameter space mapped into H.

The design operator A sends parameter vectors beta to sum_j beta_j A g_j,
with the column images A g_j expressed in the eigenbasis.  Its range U must
be Q-invariant, which is checked numerically at construction.  The unique
least-squares estimate solves the normal equations Gram beta = (<A g_j, y>)_j
and satisfies A beta = P_U y, so confidence intervals for <c, beta> and the
test of beta lying in a subspace G0 reduce to the functional interval and
subspace test with b = A Gram^{-1} c and U0 = A(G0).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .inference import Interval, TestResult, ci_known, ci_unknown, test_subspace
from .spectral import PLAN_CACHE_SIZE, HVector, SpectralModel, Subspace, _Frozen, _readonly, _real_array, _set, _span

# Gram matrix conditioning bound: smallest eigenvalue must exceed this
# multiple of the largest for A to count as injective.
GRAM_COND_TOL = 1e-12


class DesignOperator(_Frozen):
    """Injective finite-rank map from parameter space into H.

    Parameters
    ----------
    model : SpectralModel
        The ambient spectral model; the range must be Q-invariant under it.
    columns : sequence
        The p column images A g_1 .. A g_p as HVectors or coefficient
        arrays of length model.dim.

    Designs are immutable and keyed by (model, columns); everything that
    does not depend on the observation comes from their `design_plan`.
    """

    # _plan is derived state, kept out of __eq__, __hash__ and pickles.
    __slots__ = ("model", "columns", "_plan")

    def __init__(self, model: SpectralModel, columns):
        mat = _column_matrix(columns, model.dim, "column", "column entries")
        if not mat.shape[1]:
            raise ValueError("design needs at least one column")
        _set(self, "model", model)
        _set(self, "columns", _readonly(mat))
        _set(self, "_plan", design_plan(self))

    @property
    def gram(self) -> np.ndarray:
        return self._plan.gram

    @property
    def range(self) -> Subspace:
        return self._plan.range

    @property
    def n_params(self) -> int:
        return int(self.columns.shape[1])

    def apply(self, beta) -> HVector:
        """A beta, the element of H with coefficients columns @ beta."""
        beta = _real_array(beta, "beta")
        if beta.shape != (self.n_params,):
            raise ValueError(f"beta must have shape ({self.n_params},)")
        return HVector(self.columns @ beta)

    def _fields(self) -> tuple:
        return self.model, self.columns

    def __reduce__(self):
        # The constructor takes a sequence of columns, not the matrix rows.
        return DesignOperator, (self.model, self.columns.T)

    def __repr__(self) -> str:
        return f"DesignOperator(dim={self.model.dim}, n_params={self.n_params})"


class DesignPlan:
    """Constants of a design that do not depend on the observation: the Gram
    matrix (checked to be invertible) and the range subspace.  The pullback b
    and hypothesis subspace U0 of each c and G0 come from bounded caches keyed
    by this plan.  Build plans with `design_plan`.
    """

    def __init__(self, A: DesignOperator):
        gram = A.columns.T @ A.columns
        eigs = np.linalg.eigvalsh(gram)
        if eigs[-1] <= 0.0 or eigs[0] <= GRAM_COND_TOL * eigs[-1]:
            raise ValueError("design columns are not linearly independent enough to invert")
        self.gram = _readonly(gram)
        self.range = _range_subspace(A.model, A.columns)
        self.model, self.columns = A.model, A.columns


design_plan = lru_cache(maxsize=PLAN_CACHE_SIZE)(DesignPlan)


def _column_matrix(columns, rows: int, what: str, entries: str) -> np.ndarray:
    """The C-ordered (rows, p) matrix of np.column_stack(columns), filled in one
    pass (one copy for a (p, rows) array), column j read by _real_array as
    entries.format(j) (a whole array as entries.format("entries")).  A column
    not a 1-d vector of `rows` numbers is a ValueError naming `what` j and its shape."""
    if isinstance(columns, np.ndarray) and columns.ndim == 2 and columns.shape[1] == rows:
        return _real_array(columns.T, entries.format("entries"))
    cols = [c.coeffs if isinstance(c, HVector) else _real_array(c, entries.format(j)) for j, c in enumerate(columns)]
    mat = np.empty((rows, len(cols)))
    for j, col in enumerate(cols):
        if col.shape != (rows,):
            raise ValueError(f"{what} {j} has shape {col.shape}, expected ({rows},)")
        mat[:, j] = col
    return mat


# Keyed by the plan and a copy of the array's bytes: a caller's later writes cannot reach it.
@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pullback(plan: DesignPlan, c: bytes) -> HVector:
    return HVector(plan.columns @ np.linalg.solve(plan.gram, np.frombuffer(c)))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _hypothesis(plan: DesignPlan, shape: tuple, g0: bytes) -> Subspace:
    return _range_subspace(plan.model, plan.columns @ np.frombuffer(g0).reshape(shape))


def _range_subspace(model: SpectralModel, mat: np.ndarray) -> Subspace:
    # Fast path: coordinate columns on distinct modes span an index set.
    modes = {int(rows[0]) + 1 for rows in map(np.flatnonzero, mat.T) if rows.size == 1}
    if len(modes) == mat.shape[1]:
        return Subspace.from_indices(model.dim, modes)
    rows = _span(mat)
    if len(rows) < mat.shape[1]:
        raise ValueError("design columns are rank deficient")
    return Subspace.from_frame(model, rows)


def lse(A: DesignOperator, y: HVector) -> np.ndarray:
    """Unique least-squares estimate solving Gram beta = (<A g_j, y>)_j.

    The fitted element A beta equals the projection of y onto ran(A).
    """
    if y.dim != A.model.dim:
        raise ValueError("observation dimension does not match the model")
    return np.linalg.solve(A.gram, A.columns.T @ y.coeffs)


def pullback_functional(A: DesignOperator, c) -> HVector:
    """The element b of ran(A) with <b, A g> = <c, g> for every parameter g.

    Computed as A Gram^{-1} c; composing the least-squares estimate with
    <c, .> equals the functional estimator with this b.
    """
    c = _real_array(c, "c")
    if c.shape != (A.n_params,):
        raise ValueError(f"c must have shape ({A.n_params},)")
    return _pullback(A._plan, c.tobytes())


def ci_beta_known(c, A: DesignOperator, y: HVector, sigma: float, alpha: float) -> Interval:
    """Known-sigma interval for <c, beta>, via the pullback functional."""
    return ci_known(pullback_functional(A, c), y, A.model, A.range, sigma, alpha)


def ci_beta_unknown(c, A: DesignOperator, y: HVector, alpha: float, use_tail: bool | None = None) -> Interval:
    """Unknown-sigma (conservative) interval for <c, beta>."""
    return ci_unknown(pullback_functional(A, c), y, A.model, A.range, alpha, use_tail=use_tail)


def test_beta(y: HVector, A: DesignOperator, G0_columns, alpha: float) -> TestResult:
    """Test whether beta lies in the span of the given parameter vectors.

    G0_columns must span a proper nonzero subspace of the parameter space;
    the hypothesis subspace in H is spanned by the A-images of that basis.
    """
    g0 = _column_matrix(G0_columns, A.n_params, "G0 vector", "G0 vector {}")
    if not g0.shape[1]:
        raise ValueError("G0 needs at least one parameter vector")
    if g0.shape[1] >= A.n_params:
        raise ValueError("G0 must span a proper subspace of the parameter space")
    return test_subspace(y, A.model, A.range, _hypothesis(A._plan, g0.shape, g0.tobytes()), alpha)
