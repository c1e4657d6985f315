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

import json
import operator

import numpy as np
import scipy.linalg

# Relative tolerance for deciding that two eigenvalues are equal.
DEFAULT_REL_TOL = 1e-12
# Frame orthonormality and Q-invariance tolerances from the construction
# contract: Gram = identity to 1e-10, ||(I - P) Q P|| <= 1e-10 * max lambda.
FRAME_ORTHO_TOL = 1e-10
FRAME_INVARIANCE_TOL = 1e-10
# Mean vectors attached to a law must satisfy ||zeta - P_U zeta|| <= this.
MEAN_IN_SUBSPACE_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class SpectralModel:
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
    """

    __slots__ = ("dim", "eigenvalues", "tail_trace", "basis_id")

    _BASIS_IDS = ("wiener", "bridge", "abstract")

    def __init__(self, eigenvalues, tail_trace: float = 0.0, basis_id: str = "abstract"):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be nonnegative")
        tail = float(tail_trace)
        if not np.isfinite(tail) or tail < 0:
            raise ValueError("tail_trace must be a finite nonnegative real")
        if basis_id not in self._BASIS_IDS:
            raise ValueError(f"unknown basis_id {basis_id!r}")
        self.dim = int(lam.size)
        self.eigenvalues = _readonly(lam)
        self.tail_trace = tail
        self.basis_id = basis_id

    @property
    def is_analytic(self) -> bool:
        return self.basis_id != "abstract"

    def trace(self) -> float:
        """Total trace, truncated sum plus the analytic tail."""
        return float(self.eigenvalues.sum()) + self.tail_trace

    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues.max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralModel):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.tail_trace == other.tail_trace
            and self.basis_id == other.basis_id
            and np.array_equal(self.eigenvalues, other.eigenvalues)
        )

    def __hash__(self):
        return hash((self.dim, self.tail_trace, self.basis_id, self.eigenvalues.tobytes()))

    def __repr__(self) -> str:
        return f"SpectralModel(dim={self.dim}, basis_id={self.basis_id!r}, tail_trace={self.tail_trace!r})"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "eigenvalues": self.eigenvalues.tolist(),
            "tail_trace": self.tail_trace,
            "basis_id": self.basis_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralModel":
        try:
            model = cls(
                data["eigenvalues"],
                tail_trace=data.get("tail_trace", 0.0),
                basis_id=data.get("basis_id", "abstract"),
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(f"invalid model data: {exc}") from exc
        if "dim" in data and _integer(data["dim"], "model dim must be an integer") != model.dim:
            raise ValueError("model dim does not match the eigenvalue count")
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SpectralModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class HVector:
    """Element of H as coefficients with respect to the eigenbasis of Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # Copy so the stored array can be frozen without touching the input.
        arr = np.array(coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.coeffs = _readonly(arr)

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)

    @classmethod
    def zero(cls, dim: int) -> "HVector":
        return cls(np.zeros(int(dim)))

    @classmethod
    def basis_vector(cls, dim: int, k: int, scale: float = 1.0) -> "HVector":
        """Coefficient vector `scale * e_k` with a 1-based mode index k."""
        if not 1 <= k <= dim:
            raise ValueError(f"mode index {k} outside 1..{dim}")
        coeffs = np.zeros(int(dim))
        coeffs[k - 1] = scale
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
        return HVector(float(scalar) * self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HVector):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        return f"HVector(dim={self.dim})"


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


class Subspace:
    """Q-invariant closed subspace of H.

    Two variants exist.  An index-set subspace is spanned by eigenvectors
    e_k for k in a set of 1-based mode indices; it is Q-invariant by
    construction.  A frame subspace is spanned by a finite list of mutually
    orthonormal vectors and is accepted only if it passes a numerical
    Q-invariance check.  Either variant can be flagged as representing its
    own orthogonal complement inside the full space, which is how trace
    statistics of Q restricted to H minus U are requested.
    """

    # _mask caches index_mask(); it is derived state, kept out of __eq__,
    # __hash__ and to_dict.
    __slots__ = ("dim", "kind", "indices", "frame", "is_complement", "_mask")

    def __init__(self, *, dim, kind, indices=None, frame=None, is_complement=False):
        # Private constructor; use from_indices / from_frame.
        self.dim = int(dim)
        self.kind = kind
        self.indices = indices
        self.frame = frame
        self.is_complement = bool(is_complement)
        self._mask = None

    @classmethod
    def from_indices(cls, dim: int, indices) -> "Subspace":
        """Subspace spanned by the eigenvectors e_k, k in `indices` (1-based).

        Indices and dim must be integers (Python or numpy); floats and
        bools are refused rather than truncated.
        """
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
        return cls(dim=dim, kind="indices", indices=idx)

    @classmethod
    def from_frame(cls, model: SpectralModel, vectors) -> "Subspace":
        """Subspace spanned by mutually orthonormal vectors, checked against Q.

        Raises ValueError when the frame is not orthonormal to within
        FRAME_ORTHO_TOL or when ||(I - P) Q P|| exceeds
        FRAME_INVARIANCE_TOL * max(lambda).
        """
        rows = [v.coeffs if isinstance(v, HVector) else np.asarray(v, dtype=float) for v in vectors]
        if not rows:
            raise ValueError("frame must contain at least one vector")
        frame = np.vstack(rows)
        if frame.shape[1] != model.dim:
            raise ValueError(f"frame vectors have dim {frame.shape[1]}, model has {model.dim}")
        if not np.all(np.isfinite(frame)):
            raise ValueError("frame entries must be finite")
        gram = frame @ frame.T
        if np.max(np.abs(gram - np.eye(frame.shape[0]))) > FRAME_ORTHO_TOL:
            raise ValueError("frame vectors are not orthonormal")
        _check_q_invariance(model, frame)
        return cls(dim=model.dim, kind="frame", frame=_readonly(frame))

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
            comp._mask = _readonly(~self._mask)
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
            self._mask = _readonly(mask if not self.is_complement else ~mask)
        return self._mask

    def __getstate__(self):
        # Worker processes rebuild the mask on demand; it is not pickled.
        return None, {**{name: getattr(self, name) for name in self.__slots__}, "_mask": None}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.dim, self.kind, self.is_complement) != (other.dim, other.kind, other.is_complement):
            return False
        if self.kind == "indices":
            return self.indices == other.indices
        return np.array_equal(self.frame, other.frame)

    def __hash__(self):
        key = self.indices if self.kind == "indices" else self.frame.tobytes()
        return hash((self.dim, self.kind, self.is_complement, key))

    def __repr__(self) -> str:
        inner = f"indices={self.indices}" if self.kind == "indices" else f"frame_rank={self.frame.shape[0]}"
        tag = ", complement" if self.is_complement else ""
        return f"Subspace(dim={self.dim}, {inner}{tag})"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        data = {"dim": self.dim, "complement": self.is_complement}
        if self.kind == "indices":
            data["indices"] = list(self.indices)
        else:
            data["frame"] = self.frame.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict, model: SpectralModel | None = None) -> "Subspace":
        if "indices" in data:
            dim = data.get("dim", model.dim if model is not None else None)
            if dim is None:
                raise ValueError("index subspace data needs 'dim' or a model")
            sub = cls.from_indices(dim, data["indices"])
        elif "frame" in data:
            if model is None:
                raise ValueError("frame subspace data needs a model for validation")
            sub = cls.from_frame(model, np.asarray(data["frame"], dtype=float))
        else:
            raise ValueError("subspace data needs 'indices' or 'frame'")
        if data.get("complement", False):
            sub = sub.complement()
        return sub

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, model: SpectralModel | None = None) -> "Subspace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), model=model)


def _check_q_invariance(model: SpectralModel, frame: np.ndarray) -> None:
    lam = model.eigenvalues
    # (I - P) Q P restricted to the frame range: columns Q f_j minus their
    # projection back onto the span.  Rows outside the frame support vanish.
    g = lam[:, None] * frame.T
    h = g - frame.T @ (frame @ g)
    support = _frame_support(frame)
    defect = np.linalg.svd(h[support, :], compute_uv=False)[0] if support.size else 0.0
    if defect > FRAME_INVARIANCE_TOL * max(model.max_eigenvalue(), 0.0):
        raise ValueError(
            f"subspace is not Q-invariant: ||(I-P)QP|| = {defect:.3e} "
            f"exceeds {FRAME_INVARIANCE_TOL:g} * max eigenvalue"
        )


def default_use_tail(model: SpectralModel) -> bool:
    """Tail convention: analytic spectra include their tail, custom ones do not."""
    return model.is_analytic


# ---------------------------------------------------------------------------
# operations


def inner(u: HVector, v: HVector) -> float:
    """Inner product of two coefficient vectors."""
    _check_same_dim(u, v)
    return float(u.coeffs @ v.coeffs)


def row_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of two coefficient arrays.

    Either argument may be a single (dim,) row, which is paired with every
    row of the other.  Each product is a 1 x dim by dim x 1 matrix product,
    which runs the same dot kernel as `u @ v` on two vectors, so a row gives
    bit for bit the value a single-vector inner product gives.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def project(y, S: Subspace):
    """Orthogonal projection of y onto S.

    Idempotent and self-adjoint.  Index-set subspaces zero the complementary
    coefficients; frame subspaces return sum_j <y, f_j> f_j; complement
    variants return the residual y minus the base projection.  An HVector
    gives an HVector; a coefficient array of shape (rows, dim) or (dim,)
    gives an array of the same shape, projected row by row.
    """
    coeffs = y.coeffs if isinstance(y, HVector) else y
    if coeffs.shape[-1] != S.dim:
        raise ValueError(f"dimension mismatch: vector {coeffs.shape[-1]} vs subspace {S.dim}")
    if S.kind == "indices":
        out = np.where(S.index_mask(), coeffs, 0.0)
    else:
        base = (S.frame.T @ (S.frame @ coeffs.T)).T
        out = coeffs - base if S.is_complement else base
    return HVector(out) if isinstance(y, HVector) else out


def _check_model_subspace(model: SpectralModel, S: Subspace) -> None:
    if S.dim != model.dim:
        raise ValueError(f"dimension mismatch: model {model.dim} vs subspace {S.dim}")


def _frame_support(frame: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(frame).max(axis=0) > 0.0)


def restricted_eigenvalues(model: SpectralModel, S: Subspace) -> np.ndarray:
    """Eigenvalues of P_S Q P_S restricted to S.

    For an index set these are just the lambda_k, k in S.  For a frame the
    nonzero spectrum of P Q P equals the spectrum of the r x r matrix
    F Q F^T.  For the complement of a frame, coordinates outside the frame
    support contribute their diagonal entries directly; inside the support
    block the restriction is diagonalized on an orthonormal basis of the
    frame's orthogonal complement, so the count of returned eigenvalues
    always equals the truncated dimension of S.
    """
    _check_model_subspace(model, S)
    lam = model.eigenvalues
    if S.kind == "indices":
        return lam[S.index_mask()]
    frame = S.frame
    if not S.is_complement:
        block = frame @ (lam[None, :] * frame).T
        return np.linalg.eigvalsh(block)
    support = _frame_support(frame)
    outside = np.delete(lam, support)
    if support.size == 0:
        return outside
    fs = frame[:, support]
    # Orthonormal basis of the orthogonal complement of the frame rows
    # within the support block: the trailing singular directions.
    u, _, _ = scipy.linalg.svd(fs.T, full_matrices=True)
    basis = u[:, frame.shape[0]:]
    block = basis.T @ (lam[support, None] * basis)
    return np.concatenate([outside, np.linalg.eigvalsh(block)])


def trace_q_on(model: SpectralModel, S: Subspace, use_tail: bool = False) -> float:
    """Trace of Q restricted to S.

    For index sets this is a partial eigenvalue sum; for frames it is
    sum_j <Q f_j, f_j>.  When S is a complement variant and `use_tail` is
    set, the model's analytic tail trace is added (only index-set
    complements support this; the tail of a frame complement is not
    representable and raises).
    """
    _check_model_subspace(model, S)
    if use_tail and not S.is_complement:
        raise ValueError("tail trace applies to complement subspaces only")
    lam = model.eigenvalues
    if S.kind == "indices":
        total = float(lam[S.index_mask()].sum())
        if use_tail:
            total += model.tail_trace
        return total
    if S.is_complement:
        if use_tail:
            raise ValueError("tail trace is unsupported for frame-variant complements")
        return float(lam.sum()) - float(np.einsum("jk,k,jk->", S.frame, lam, S.frame))
    return float(np.einsum("jk,k,jk->", S.frame, lam, S.frame))


def sup_eig_on(model: SpectralModel, S: Subspace) -> float:
    """Largest eigenvalue of P_S Q P_S.

    The truncated spectrum decides the value; for the built-in decreasing
    spectra the tail never attains the supremum, so the truncated value is
    exact whenever the restricted set is nonempty.
    """
    eigs = restricted_eigenvalues(model, S)
    if eigs.size == 0:
        raise ValueError("empty subspace has no largest eigenvalue")
    return float(eigs.max())


def top_multiplicity(model: SpectralModel, S: Subspace, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Number of restricted eigenvalues within rel_tol of the largest one."""
    eigs = restricted_eigenvalues(model, S)
    if eigs.size == 0:
        raise ValueError("empty subspace has no top eigenvalue multiplicity")
    top = float(eigs.max())
    return int(np.count_nonzero(np.abs(eigs - top) <= rel_tol * abs(top)))


def rank_on(model: SpectralModel, S: Subspace) -> int:
    """Number of strictly positive eigenvalues of P_S Q P_S.

    Only finite-dimensional subspaces are supported; complements are
    rejected because their rank is not determined by the truncation.
    """
    if S.is_complement:
        raise ValueError("rank of Q on a complement subspace is unsupported")
    _check_model_subspace(model, S)
    if S.kind == "indices":
        lam = model.eigenvalues[S.index_mask()]
        return int(np.count_nonzero(lam > 0.0))
    eigs = restricted_eigenvalues(model, S)
    return int(np.count_nonzero(eigs > DEFAULT_REL_TOL * max(model.max_eigenvalue(), 0.0)))


def top_eigenspace(model: SpectralModel, S: Subspace, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Index-set subspace of the coordinates attaining the largest restricted
    eigenvalue (index-set subspaces only)."""
    if S.kind != "indices":
        raise ValueError("top_eigenspace is defined for index-set subspaces only")
    _check_model_subspace(model, S)
    mask = S.index_mask()
    lam = model.eigenvalues
    if not mask.any():
        raise ValueError("empty subspace has no top eigenspace")
    top = lam[mask].max()
    hit = mask & (np.abs(lam - top) <= rel_tol * abs(top))
    return Subspace.from_indices(model.dim, (np.flatnonzero(hit) + 1).tolist())


def _frame_rows(S: Subspace) -> np.ndarray:
    """Orthonormal rows spanning S: its frame, or the unit coordinate rows of its indices."""
    if S.kind == "frame":
        return S.frame
    rows = np.zeros((len(S.indices), S.dim))
    rows[np.arange(len(S.indices)), np.asarray(S.indices, dtype=int) - 1] = 1.0
    return rows


def difference_subspace(model: SpectralModel, V: Subspace, U0: Subspace) -> Subspace:
    """The subspace V intersect U0-perp, defined when U0 is contained in V.

    Realizes the projection identity P_V - P_U0 = P_(V minus U0).  Index
    sets subtract directly; frames are projected onto the complement of U0
    and re-orthonormalized.  Raises when U0 is not contained in V or when
    the difference is zero-dimensional.
    """
    _check_model_subspace(model, V)
    _check_model_subspace(model, U0)
    if V.is_complement or U0.is_complement:
        raise ValueError("difference of complement subspaces is unsupported")
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
    g = fv - (fv @ f0.T) @ f0
    q, r, _ = scipy.linalg.qr(g.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    keep = diag > FRAME_ORTHO_TOL * max(diag[0], 1.0) if diag.size else np.zeros(0, bool)
    if not keep.any():
        raise ValueError("difference subspace is zero-dimensional")
    return Subspace.from_frame(model, q.T[keep])
