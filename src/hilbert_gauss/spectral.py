"""Spectral representation of the covariance operator and its subspaces.

A separable Hilbert space H is realized as coefficient sequences with respect
to the eigenbasis of a trace-class covariance operator Q.  A model stores a
truncated eigenvalue sequence (lambda_1 .. lambda_N) together with an optional
analytic tail trace, so operator statistics that involve the orthogonal
complement of a finite-dimensional subspace can stay exact for the analytic
spectra.  Subspaces come in two flavors: coordinate index sets (the fast path,
always Q-invariant) and finite orthonormal frames (checked for Q-invariance at
construction).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from functools import lru_cache

import numpy as np

# Relative tolerance of Spectrum's rules: an eigenvalue this close to the top
# one equals it, and one at or below this multiple of the largest lambda is 0.
DEFAULT_REL_TOL = 1e-12
# Frame orthonormality and Q-invariance tolerances from the construction
# contract: Gram = identity to 1e-10, ||(I - P) Q P|| <= 1e-10 * max lambda.
FRAME_ORTHO_TOL = 1e-10
FRAME_INVARIANCE_TOL = 1e-10
# Mean vectors attached to a law must satisfy ||zeta - P_U zeta|| <= this.
MEAN_IN_SUBSPACE_TOL = 1e-10
# Pivots of the rank-revealing QR at or below this multiple of the largest
# count as zero: the one rank threshold for the span of a set of vectors.
RANK_TOL = 1e-10
# An index-set projection copies (or zeroes) one slice per run of consecutive
# modes while the array holds at least this many doubles per run, else takes
# np.where over the mask.  Slices against np.where on two vCPUs (numpy 2.4):
# a 16384-double block 6 vs 12 us at 1 run, even at 8-16 runs, 28 vs 16 at
# 32; an 8192-vector even at 8-12 runs, a 2048-vector at 3-4, a 256-vector at 1.
_RUN_DOUBLES = 1024
# A key hash reads at most this many evenly strided entries of each array,
# plus where a larger array's nonzero entries are (_array_hash).  On two vCPUs
# (numpy 2.4), hashing all the bytes of 256, 1024 and 8192 doubles takes 1.0,
# 2.3 and 16 us; the sample and positions of 1024 and 8192 take 2.6 and 3.7.
_HASH_SAMPLE = 256
# Entries kept by each plan cache and by each built-in model cache: above the
# 6 distinct keys per cache that the perfbench workloads use at most.  An
# entry keeps its key arrays alive (a rank-r frame holds r * dim floats).
PLAN_CACHE_SIZE = 8


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # about 0.2 us faster than arr.flags.writeable = False
    return arr


class _Frozen:
    """Immutable value object, usable as a cache key.  Attributes are set once,
    with _set in __init__.  The constructor arguments, _fields(), define
    equality, the hash and pickling.  The hash and its parts (the fields, each
    array as _array_hash reads it) are computed on first use and kept.  Equal
    keys have equal parts; with equal parts, arrays of more than _HASH_SAMPLE
    entries are compared entry by entry, and smaller ones are equal."""

    __slots__ = ("_hash", "_parts")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if hash(self) != hash(other) or self._parts != other._parts:
            return False
        for a, b in zip(self._fields(), other._fields()):
            if isinstance(a, np.ndarray) and a.size > _HASH_SAMPLE and a is not b and np.count_nonzero(a != b):
                return False
        return True

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            parts = tuple([_array_hash(f) if isinstance(f, np.ndarray) else f for f in self._fields()])
            h = hash(parts)
            _set(self, "_parts", parts)
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self), self._fields()


# Sets an attribute of a _Frozen object past its refusing __setattr__.
_set = object.__setattr__


def _array_hash(arr: np.ndarray):
    """What a key hash reads of an array: its shape, and all its bytes if it
    has at most _HASH_SAMPLE entries.  A larger array gives _HASH_SAMPLE
    evenly strided entries, and the position of its first nonzero entry and
    the count of its nonzero entries, which tell apart the basis vectors the
    stride misses.  Each is an exact function of the values that agrees
    across signed zeros (+ 0.0 turns -0.0 into 0.0, and -0.0 == 0.0), so
    equal arrays hash equal.  Key arrays are C-contiguous, so the ravel is a
    view.  (argmax on the read-only array itself would copy it first.)"""
    if arr.size <= _HASH_SAMPLE:
        return arr.shape, (arr + 0.0).tobytes()
    flat = arr.ravel()
    nonzero = flat != 0.0
    sample = flat[:: -(-flat.size // _HASH_SAMPLE)] + 0.0
    return arr.shape, sample.tobytes(), int(nonzero.argmax()), int(np.count_nonzero(nonzero))


class SpectralModel(_Frozen):
    """Truncated eigen-system of a nonnegative trace-class operator Q.

    Parameters
    ----------
    eigenvalues : array_like
        Nonnegative reals lambda_1 .. lambda_N in their natural order
        (k = 1 .. N, not required sorted).
    tail_trace : float, optional
        Analytic value of the eigenvalue sum beyond the truncation,
        0 when unknown.
    basis_id : str, optional
        'wiener' or 'bridge' for the built-in analytic eigenfunctions,
        'abstract' when no pointwise basis is available.

    Models are immutable, so they can key the plan caches.
    """

    __slots__ = ("dim", "eigenvalues", "tail_trace", "basis_id")

    _BASIS_IDS = ("wiener", "bridge", "abstract")

    def __init__(self, eigenvalues, tail_trace: float = 0.0, basis_id: str = "abstract"):
        lam = _real_array(eigenvalues, "eigenvalues")
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be nonnegative")
        tail = _real(tail_trace, "tail_trace")
        if tail < 0:
            raise ValueError("tail_trace must be a finite nonnegative real")
        if basis_id not in self._BASIS_IDS:
            raise ValueError(f"unknown basis_id {basis_id!r}")
        _set(self, "dim", int(lam.size))
        _set(self, "eigenvalues", _readonly(lam))
        _set(self, "tail_trace", tail)
        _set(self, "basis_id", basis_id)

    @property
    def is_analytic(self) -> bool:
        return self.basis_id != "abstract"

    def trace(self) -> float:
        """Total trace, truncated sum plus the analytic tail."""
        return float(self.eigenvalues.sum()) + self.tail_trace

    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues.max())

    def _fields(self) -> tuple:
        return self.eigenvalues, self.tail_trace, self.basis_id

    def __repr__(self) -> str:
        return f"SpectralModel(dim={self.dim}, basis_id={self.basis_id!r}, tail_trace={self.tail_trace!r})"


class HVector(_Frozen):
    """Immutable element of H as coefficients with respect to the eigenbasis of Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # Copy so the stored array can be frozen without touching the input.
        arr = _real_array(coeffs, "coefficients")
        if arr.ndim != 1:
            raise ValueError("coefficients must be a 1-d sequence")
        _set(self, "coeffs", _readonly(arr))

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def norm_sq(self) -> float:
        return float(row_inner(self.coeffs, self.coeffs))

    @classmethod
    def zero(cls, dim: int) -> "HVector":
        return cls(np.zeros(_integer(dim, "dim must be an integer")))

    @classmethod
    def basis_vector(cls, dim: int, k: int, scale: float = 1.0) -> "HVector":
        """Coefficient vector `scale * e_k` with a 1-based mode index k."""
        dim = _integer(dim, "dim must be an integer")
        k = _integer(k, "mode index must be an integer")
        if not 1 <= k <= dim:
            raise ValueError(f"mode index {k} outside 1..{dim}")
        coeffs = np.zeros(dim)
        coeffs[k - 1] = _real(scale, "scale")
        return cls(coeffs)

    def __add__(self, other: "HVector") -> "HVector":
        if not isinstance(other, HVector):
            return NotImplemented
        _check_same_dim(self, other)
        return HVector(self.coeffs + other.coeffs)

    def __sub__(self, other: "HVector") -> "HVector":
        if not isinstance(other, HVector):
            return NotImplemented
        _check_same_dim(self, other)
        return HVector(self.coeffs - other.coeffs)

    def __rmul__(self, scalar) -> "HVector":
        return HVector(_real(scalar, "scalar") * self.coeffs)

    def _fields(self) -> tuple:
        return (self.coeffs,)

    def __repr__(self) -> str:
        return f"HVector(dim={self.dim})"


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite: a finite sum of squares (a BLAS dot, which
    warns of no overflow) proves it; only a non-finite one checks each entry."""
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _check_same_dim(u, v) -> None:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")


def _integer(value, message: str) -> int:
    """value as an int if it is a Python or numpy integer; anything else
    (float, bool, string) is a ValueError with `message`, never truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{message}, got {value!r}")


def _count(value, name: str) -> int:
    """value as an int of at least 1, by the rule of _integer."""
    value = _integer(value, f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return value


def _is_number(value) -> bool:
    """A Python or numpy real, or a 0-d array of one, that fits a finite double; not a bool or a string."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (float, np.floating)):  # not abs(value) <= max, which overflows an np.float32
        return math.isfinite(value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _real(value, name: str) -> float:
    """value as a float if _is_number accepts it, else a ValueError naming `name`, never converted."""
    if _is_number(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _real_array(values, name: str) -> np.ndarray:
    """The one reader of a caller's numeric array: a number or a list or tuple of
    numbers by the rule of _is_number, or an integer or real ndarray, as a new
    C-ordered float array.  Bools, strings and non-finite entries are a
    ValueError naming `name`, never converted."""
    if isinstance(values, np.ndarray):
        numbers_only = values.dtype.kind in "iuf"
    else:
        numbers_only = all(map(_is_number, values)) if isinstance(values, (list, tuple)) else _is_number(values)
    if not numbers_only:
        raise ValueError(f"{name} must be finite numbers, in a list, a tuple or an integer or float array")
    arr = np.array(values, dtype=float, order="C")
    if not _all_finite(arr):
        raise ValueError(f"{name} must be finite")
    return arr


class Subspace(_Frozen):
    """Q-invariant closed subspace of H (immutable).

    Two variants exist.  An index-set subspace is spanned by eigenvectors
    e_k for k in a set of 1-based mode indices; it is Q-invariant by
    construction.  A frame subspace is spanned by a finite list of mutually
    orthonormal vectors and is accepted only if it passes a numerical
    Q-invariance check.  Either variant can be flagged as representing its
    own orthogonal complement inside the full space, which is how trace
    statistics of Q restricted to H minus U are requested.
    """

    # _mask caches index_mask() and _runs _index_runs(); they are derived
    # state, kept out of __eq__, __hash__ and pickles.
    __slots__ = ("dim", "kind", "indices", "frame", "is_complement", "_mask", "_runs")

    def __init__(self, dim, kind, indices=None, frame=None, is_complement=False):
        # Private constructor; use from_indices / from_frame.
        _set(self, "dim", int(dim))
        _set(self, "kind", kind)
        _set(self, "indices", indices)
        _set(self, "frame", None if frame is None else _readonly(frame))
        _set(self, "is_complement", bool(is_complement))
        _set(self, "_mask", None)
        _set(self, "_runs", None)

    @classmethod
    def from_indices(cls, dim: int, indices) -> "Subspace":
        """Subspace spanned by the eigenvectors e_k, k in `indices` (1-based).

        Indices and dim must be integers (Python or numpy); floats and
        bools are refused rather than truncated.  A plain int dim and a list
        or tuple of plain ints give an instance shared by equal lists in the
        same order while among the last PLAN_CACHE_SIZE interned, so plan
        caches find it by identity; a refused input is never interned.
        """
        if type(dim) is int and type(indices) in (list, tuple) and all(type(k) is int for k in indices):
            return _interned_indices(dim, tuple(indices))
        return _index_subspace(dim, indices)

    @classmethod
    def from_frame(cls, model: SpectralModel, vectors) -> "Subspace":
        """Subspace spanned by mutually orthonormal vectors, checked against Q.

        Raises ValueError when the frame is not orthonormal to within
        FRAME_ORTHO_TOL or when ||(I - P) Q P|| exceeds
        FRAME_INVARIANCE_TOL * max(lambda).
        """
        if not isinstance(vectors, (list, tuple, np.ndarray)):
            raise ValueError(f"frame must be a list, a tuple or an array of vectors, got {type(vectors).__name__}")
        rows = [v.coeffs if isinstance(v, HVector) else _real_array(v, "frame entries") for v in vectors]
        if not rows:
            raise ValueError("frame must contain at least one vector")
        frame = np.vstack(rows)
        if frame.shape != (len(rows), model.dim):
            raise ValueError(f"frame vectors must be 1-d of the model's dim {model.dim}; they stack to shape {frame.shape}")
        gram = frame @ frame.T
        if np.max(np.abs(gram - np.eye(frame.shape[0]))) > FRAME_ORTHO_TOL:
            raise ValueError("frame vectors are not orthonormal")
        _check_q_invariance(model, frame)
        return cls(dim=model.dim, kind="frame", frame=frame)

    def complement(self) -> "Subspace":
        """The same span, reinterpreted as its orthogonal complement in H."""
        comp = Subspace(
            dim=self.dim,
            kind=self.kind,
            indices=self.indices,
            frame=self.frame,
            is_complement=not self.is_complement,
        )
        if self._mask is not None:
            _set(comp, "_mask", _readonly(~self._mask))
        _set(comp, "_runs", self._runs)
        return comp

    @property
    def rank(self):
        """Dimension of the span; None for complement variants."""
        if self.is_complement:
            return None
        if self.kind == "indices":
            return len(self.indices)
        return self.frame.shape[0]

    def index_mask(self) -> np.ndarray:
        """Read-only boolean membership mask over coordinates (index variant
        only), built once per subspace."""
        if self.kind != "indices":
            raise ValueError("index_mask is defined for index-set subspaces only")
        if self._mask is None:
            mask = np.zeros(self.dim, dtype=bool)
            if self.indices:
                mask[np.array(self.indices) - 1] = True
            _set(self, "_mask", _readonly(mask if not self.is_complement else ~mask))
        return self._mask

    def _index_runs(self) -> tuple:
        """Slices over the runs of consecutive modes of the index set (of the
        set itself for a complement variant), built once per subspace."""
        if self._runs is None:
            idx = np.array(self.indices, dtype=np.intp)  # sorted, 1-based
            ends = np.flatnonzero(np.diff(idx) != 1)  # the last position of every run but the last
            starts = np.concatenate([idx[:1], idx[ends + 1]]) - 1
            stops = np.concatenate([idx[ends], idx[-1:]])
            _set(self, "_runs", tuple(map(slice, starts.tolist(), stops.tolist())))
        return self._runs

    def _fields(self) -> tuple:
        return self.dim, self.kind, self.indices, self.frame, self.is_complement

    def __repr__(self) -> str:
        inner = f"indices={self.indices}" if self.kind == "indices" else f"frame_rank={self.frame.shape[0]}"
        tag = ", complement" if self.is_complement else ""
        return f"Subspace(dim={self.dim}, {inner}{tag})"


def _index_subspace(dim, indices) -> Subspace:
    dim = _integer(dim, "subspace dim must be an integer")
    if dim < 1:
        raise ValueError("dim must be positive")
    try:
        idx = tuple(sorted(_integer(k, "subspace indices must be integers") for k in indices))
    except TypeError:  # indices is not iterable
        raise ValueError(f"subspace indices must be a list of integers, got {indices!r}") from None
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices")
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise ValueError(f"indices must lie in 1..{dim}")
    return Subspace(dim=dim, kind="indices", indices=idx)


# One index subspace per (dim, plain-int index tuple), for Subspace.from_indices.
_interned_indices = lru_cache(maxsize=PLAN_CACHE_SIZE)(_index_subspace)


def _check_q_invariance(model: SpectralModel, frame: np.ndarray) -> None:
    lam = model.eigenvalues
    # (I - P) Q P restricted to the frame range: columns Q f_j minus their
    # projection back onto the span.  Rows outside the (nonempty) frame support vanish.
    g = lam[:, None] * frame.T
    h = g - frame.T @ (frame @ g)
    defect = np.linalg.svd(h[_frame_support(frame), :], compute_uv=False)[0]
    if defect > FRAME_INVARIANCE_TOL * max(model.max_eigenvalue(), 0.0):
        raise ValueError(
            f"subspace is not Q-invariant: ||(I-P)QP|| = {defect:.3e} "
            f"exceeds {FRAME_INVARIANCE_TOL:g} * max eigenvalue"
        )


def default_use_tail(model: SpectralModel, use_tail: bool | None = None, complement: bool = True) -> bool:
    """Whether a trace of Q over a subspace S adds the model's analytic tail, the
    package's one tail rule.  The tail is the mass past the truncation, so it lies
    in every complement S and in no plain one (`complement` is S.is_complement).
    None takes the model's convention over a complement (analytic spectra include
    their tail, custom ones do not) and no tail over a plain S; True over a plain
    S is a ValueError, and so is a value other than None or a bool."""
    if use_tail is None:
        return complement and model.is_analytic
    if not isinstance(use_tail, bool):
        raise ValueError(f"use_tail must be true, false or None, got {use_tail!r}")
    if use_tail and not complement:
        raise ValueError(
            "the analytic tail lies in complement subspaces only: a trace over a plain subspace has none, "
            "as tr(Q (I - P_U)) has none where U is a complement; set use_tail false (--no-tail)"
        )
    return use_tail


# ---------------------------------------------------------------------------
# operations


def inner(u: HVector, v: HVector) -> float:
    """Inner product of two coefficient vectors."""
    _check_same_dim(u, v)
    return float(row_inner(u.coeffs, v.coeffs))


def row_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of two coefficient arrays: the package's
    one call into BLAS's dot, so every inner product of coefficients sums in the
    order chosen here.  Either argument may be a single (dim,) row, paired with
    every row of the other.  Two (dim,) rows give `a @ b` directly, 0.65 us
    cheaper than the stack of 1 x dim by dim x 1 products other shapes give.  The
    package's one kernel assumption: both forms give a row the same bits, as
    OpenBLAS's SkylakeX kernels do and its Katmai ones (Prescott) do not.
    """
    if a.ndim == b.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def project(y, S: Subspace):
    """Orthogonal projection of y onto S.

    Idempotent and self-adjoint.  Index-set subspaces zero the complementary
    coefficients; frame subspaces return sum_j <y, f_j> f_j; complement
    variants return the residual y minus the base projection.  An HVector
    gives an HVector; a coefficient array of shape (rows, dim) or (dim,)
    gives a new array of the same shape, projected row by row.  An index set
    gives the bits of np.where(mask, y, 0.0), by slices over its runs of modes
    when they are few for the array's size.
    """
    coeffs = y.coeffs if isinstance(y, HVector) else y
    if coeffs.shape[-1] != S.dim:
        raise ValueError(f"dimension mismatch: vector {coeffs.shape[-1]} vs subspace {S.dim}")
    if S.kind == "indices":
        # An array under _RUN_DOUBLES never takes slices, so it builds no runs.
        if coeffs.size < _RUN_DOUBLES or len(S._index_runs()) * _RUN_DOUBLES > coeffs.size:
            out = np.where(S.index_mask(), coeffs, 0.0)
        else:  # a complement zeroes the runs in a copy, a plain set copies them into zeros
            dtype = np.result_type(coeffs, 0.0)
            out = np.array(coeffs, dtype, order="C") if S.is_complement else np.zeros(coeffs.shape, dtype)
            for run in S._runs:
                out[..., run] = 0.0 if S.is_complement else coeffs[..., run]
    else:
        base = (S.frame.T @ (S.frame @ coeffs.T)).T
        out = coeffs - base if S.is_complement else base
    return HVector(out) if isinstance(y, HVector) else out


def _residual(y, S: Subspace, perp: Subspace | None = None):
    """y - P_S y as one projection onto S's complement `perp` (built when not
    given), with the bits of the difference for finite y: y - y = +0.0 and
    y - 0.0 = y, and a frame's complement computes y - base.  A frame
    complement S keeps the difference: y - (y - base) is not base."""
    if S.kind == "frame" and S.is_complement:
        return y - project(y, S)
    return project(y, S.complement() if perp is None else perp)


def _check_model_subspace(model: SpectralModel, S: Subspace) -> None:
    if S.dim != model.dim:
        raise ValueError(f"dimension mismatch: model {model.dim} vs subspace {S.dim}")


def _frame_support(frame: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(frame).max(axis=0) > 0.0)


class Spectrum:
    """The spectrum of P_S Q P_S restricted to S, the one reader of it.

    `eigenvalues` are the lambda_k, k in S, in mode order for an index set,
    and `modes` their 0-based modes (None for a frame).  For a frame the
    nonzero spectrum of P Q P equals the spectrum of the r x r matrix
    F Q F^T.  For the complement of a frame, coordinates outside the frame
    support contribute their diagonal entries directly; inside the support
    block the restriction is diagonalized on an orthonormal basis of the
    frame's orthogonal complement, so the count of eigenvalues always equals
    the truncated dimension of S.  `top` is the largest, 0.0 on an empty S.
    Not cached: a plan keeps only the scalars and modes it reads.
    """

    __slots__ = ("model", "eigenvalues", "modes", "top")

    def __init__(self, model: SpectralModel, S: Subspace):
        _check_model_subspace(model, S)
        lam = model.eigenvalues
        self.model = model
        self.modes = np.flatnonzero(S.index_mask()) if S.kind == "indices" else None
        if self.modes is not None:
            eigs = lam[self.modes]
        elif not S.is_complement:
            eigs = np.linalg.eigvalsh(S.frame @ (lam[None, :] * S.frame).T)
        else:
            support = _frame_support(S.frame)  # not empty: the frame's rows are unit vectors
            # Orthonormal basis of the orthogonal complement of the frame rows
            # within the support block: the trailing singular directions.
            u, _, _ = np.linalg.svd(S.frame[:, support].T, full_matrices=True)
            basis = u[:, S.frame.shape[0]:]
            block = basis.T @ (lam[support, None] * basis)
            eigs = np.concatenate([np.delete(lam, support), np.linalg.eigvalsh(block)])
        self.eigenvalues = eigs
        self.top = float(eigs.max()) if eigs.size else 0.0

    def near_top(self) -> np.ndarray:
        """Mask of the eigenvalues within DEFAULT_REL_TOL times `top` of it."""
        return np.abs(self.eigenvalues - self.top) <= DEFAULT_REL_TOL * abs(self.top)

    def ranked(self) -> np.ndarray:
        """Mask of the eigenvalues above DEFAULT_REL_TOL times the model's largest
        lambda, the positive ones: a frame's carry rounding, so one rule counts
        the rank on index sets and frames alike."""
        return self.eigenvalues > DEFAULT_REL_TOL * self.model.max_eigenvalue()


def trace_q_on(model: SpectralModel, S: Subspace, use_tail: bool | None = False) -> float:
    """Trace of Q restricted to S.

    For index sets this is a partial eigenvalue sum; for frames it is
    sum_j <Q f_j, f_j>.  The model's analytic tail trace is added as
    `default_use_tail` rules over S: an index set or a frame lies inside the
    truncated modes, so the mass past the truncation lies in its complement.
    """
    _check_model_subspace(model, S)
    tail = default_use_tail(model, use_tail, S.is_complement)
    lam = model.eigenvalues
    if S.kind == "indices":
        total = float(lam[S.index_mask()].sum())
    elif S.is_complement:
        total = float(lam.sum()) - float(np.einsum("jk,k,jk->", S.frame, lam, S.frame))
    else:
        total = float(np.einsum("jk,k,jk->", S.frame, lam, S.frame))
    return total + model.tail_trace if tail else total


def _frame_rows(S: Subspace) -> np.ndarray:
    """Orthonormal rows spanning S: its frame, or the unit coordinate rows of its indices."""
    if S.kind == "frame":
        return S.frame
    rows = np.zeros((len(S.indices), S.dim))
    rows[np.arange(len(S.indices)), np.asarray(S.indices, dtype=int) - 1] = 1.0
    return rows


def _span(columns: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal rows spanning the columns: the leading columns of a
    pivoted QR, one per pivot above RANK_TOL times `scale` (by default the
    largest pivot)."""
    import scipy.linalg
    q, r, _ = scipy.linalg.qr(columns, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    return q[:, : np.count_nonzero(diag > RANK_TOL * (diag[0] if scale is None else scale))].T


def difference_subspace(model: SpectralModel, V: Subspace, U0: Subspace) -> Subspace:
    """The subspace V intersect U0-perp, defined when U0 is contained in V.

    Realizes the projection identity P_V - P_U0 = P_(V minus U0).  Index
    sets subtract directly; frames are projected onto the complement of U0
    and re-orthonormalized.  Raises when U0 is not contained in V, when the
    difference is zero-dimensional, or when V or U0 is a complement.
    """
    _check_model_subspace(model, V)
    _check_model_subspace(model, U0)
    for name, S in (("subspace", V), ("subspace0 (--null-subspace)", U0)):
        if S.is_complement:
            raise ValueError(f"{name} is a complement; the subspace test needs U minus U0 of finite rank")
    if V.kind == "indices" and U0.kind == "indices":
        if not set(U0.indices) <= set(V.indices):
            raise ValueError("U0 is not contained in V")
        left = sorted(set(V.indices) - set(U0.indices))
        if not left:
            raise ValueError("difference subspace is zero-dimensional")
        return Subspace.from_indices(model.dim, left)
    fv, f0 = _frame_rows(V), _frame_rows(U0)
    # Containment: every U0 direction must lie in V.
    resid = f0 - (f0 @ fv.T) @ fv
    if resid.size and np.linalg.norm(resid, ord=2) > FRAME_ORTHO_TOL:
        raise ValueError("U0 is not contained in V")
    # Unit rows projected off U0: what a row of U0 leaves is rounding, small against 1.
    rows = _span((fv - (fv @ f0.T) @ f0).T, scale=1.0)
    if not len(rows):
        raise ValueError("difference subspace is zero-dimensional")
    return Subspace.from_frame(model, rows)
