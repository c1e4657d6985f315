import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_gauss.spectral import (
    HVector,
    SpectralModel,
    Subspace,
    default_use_tail,
    difference_subspace,
    inner,
    project,
    rank_on,
    restricted_eigenvalues,
    sup_eig_on,
    top_eigenspace,
    top_multiplicity,
    trace_q_on,
)

DIM = 12


def small_model():
    eig = 1.0 / (np.arange(1, DIM + 1) ** 2)
    return SpectralModel(eig, tail_trace=0.05)


def rotation_block_model():
    """Spectrum with a repeated leading eigenvalue so frames can rotate."""
    return SpectralModel([2.0, 2.0, 1.0, 0.5, 0.25])


# ---------------------------------------------------------------------------
# models and vectors


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel([1.0, -0.1])
    with pytest.raises(ValueError):
        SpectralModel([1.0], tail_trace=-1e-3)
    with pytest.raises(ValueError):
        SpectralModel([np.nan])
    with pytest.raises(ValueError):
        SpectralModel([])


def test_model_trace_and_max():
    m = small_model()
    assert m.trace() == pytest.approx(np.sum(m.eigenvalues) + 0.05, abs=1e-15)
    assert m.max_eigenvalue() == 1.0
    assert m.dim == DIM
    assert not m.is_analytic


def test_model_roundtrip(tmp_path):
    m = small_model()
    path = tmp_path / "model.json"
    m.save(path)
    again = SpectralModel.load(path)
    assert again == m
    raw = json.loads(path.read_text())
    assert raw["dim"] == DIM
    assert raw["basis_id"] == "abstract"


@pytest.mark.parametrize("dim", (2.7, 2.0, True, "2", None))
def test_model_from_dict_refuses_non_integral_dim(dim):
    with pytest.raises(ValueError, match="model dim must be an integer"):
        SpectralModel.from_dict({"eigenvalues": [1.0, 0.5], "dim": dim})


def test_hvector_basics():
    v = HVector.basis_vector(5, 3, scale=2.0)
    assert v.coeffs[2] == 2.0 and v.norm() == 2.0
    z = HVector.zero(5)
    assert z.norm_sq() == 0.0
    w = v + z - 0.5 * v
    assert w == 0.5 * v
    with pytest.raises(ValueError):
        HVector.basis_vector(5, 6)
    with pytest.raises(ValueError):
        v + HVector.zero(4)


def test_hvector_does_not_freeze_caller_array():
    arr = np.ones(4)
    v = HVector(arr)
    arr[0] = 7.0  # caller's array stays writable
    assert v.coeffs[0] == 1.0
    with pytest.raises(ValueError):
        v.coeffs[0] = 9.0


# ---------------------------------------------------------------------------
# subspaces


def test_from_indices_validation():
    s = Subspace.from_indices(DIM, [5, 2, 9])
    assert s.indices == (2, 5, 9)
    assert s.rank == 3
    with pytest.raises(ValueError):
        Subspace.from_indices(DIM, [2, 2])
    with pytest.raises(ValueError):
        Subspace.from_indices(DIM, [0])
    with pytest.raises(ValueError):
        Subspace.from_indices(DIM, [DIM + 1])
    for bad in ([4.7], [2.0], [True], ["3"]):
        with pytest.raises(ValueError, match="must be integers"):
            Subspace.from_indices(DIM, bad)
    for bad in (5, None, 2.5):
        with pytest.raises(ValueError, match="list of integers"):
            Subspace.from_indices(DIM, bad)
    for bad in (2.7, True):
        with pytest.raises(ValueError, match="subspace dim must be an integer"):
            Subspace.from_dict({"indices": [1], "dim": bad})
    assert Subspace.from_indices(DIM, np.array([3, 1])).indices == (1, 3)


def test_complement_flag_and_mask():
    s = Subspace.from_indices(6, [1, 4])
    comp = s.complement()
    assert comp.is_complement and comp.complement() == s
    assert list(s.index_mask()) == [True, False, False, True, False, False]
    assert list(comp.index_mask()) == [False, True, True, False, True, True]


def test_index_mask_is_cached_read_only_and_derived():
    s = Subspace.from_indices(6, [1, 4])
    mask = s.index_mask()
    assert s.index_mask() is mask and not mask.flags.writeable
    comp = s.complement()
    assert comp._mask is not None and list(comp._mask) == list(~mask)
    fresh = Subspace.from_indices(6, [4, 1])
    assert fresh == s and hash(fresh) == hash(s) and fresh.to_dict() == s.to_dict()
    assert pickle.loads(pickle.dumps(s))._mask is None


def test_frame_requires_orthonormality():
    m = rotation_block_model()
    with pytest.raises(ValueError):
        Subspace.from_frame(m, [HVector(np.array([1.0, 1.0, 0, 0, 0]))])


def test_frame_requires_invariance():
    m = rotation_block_model()
    # mixes eigenvectors of distinct eigenvalues: not Q-invariant
    bad = HVector(np.array([0, 0, 1.0, 1.0, 0]) / np.sqrt(2.0))
    with pytest.raises(ValueError):
        Subspace.from_frame(m, [bad])
    # rotation inside the repeated block is fine
    ok = HVector(np.array([1.0, 1.0, 0, 0, 0]) / np.sqrt(2.0))
    s = Subspace.from_frame(m, [ok])
    assert s.kind == "frame" and s.rank == 1


def test_subspace_roundtrip(tmp_path):
    m = rotation_block_model()
    ok = HVector(np.array([1.0, -1.0, 0, 0, 0]) / np.sqrt(2.0))
    for s in [Subspace.from_indices(5, [2, 4]).complement(), Subspace.from_frame(m, [ok])]:
        path = tmp_path / "s.json"
        s.save(path)
        assert Subspace.load(path, model=m) == s


# ---------------------------------------------------------------------------
# projections: property-based checks

index_sets = st.sets(st.integers(min_value=1, max_value=DIM), max_size=DIM)
vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=DIM, max_size=DIM
)


@settings(max_examples=60, deadline=None)
@given(idx=index_sets, y=vectors)
def test_projection_idempotent(idx, y):
    s = Subspace.from_indices(DIM, idx)
    v = HVector(np.array(y))
    once = project(v, s)
    twice = project(once, s)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(idx=index_sets, y=vectors, z=vectors)
def test_projection_self_adjoint(idx, y, z):
    s = Subspace.from_indices(DIM, idx)
    u, v = HVector(np.array(y)), HVector(np.array(z))
    assert inner(project(u, s), v) == pytest.approx(inner(u, project(v, s)), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    y=vectors,
)
def test_pythagoras_nested(data, y):
    w = data.draw(index_sets)
    v_idx = data.draw(st.sets(st.sampled_from(sorted(w)), max_size=len(w))) if w else set()
    u_idx = data.draw(st.sets(st.sampled_from(sorted(v_idx)), max_size=len(v_idx))) if v_idx else set()
    W, V, U = (Subspace.from_indices(DIM, s) for s in (w, v_idx, u_idx))
    vec = HVector(np.array(y))
    left = (project(vec, W) - project(vec, U)).norm_sq()
    right = (project(vec, W) - project(vec, V)).norm_sq() + (
        project(vec, V) - project(vec, U)
    ).norm_sq()
    assert left == pytest.approx(right, abs=1e-12 * (1 + right))


@settings(max_examples=40, deadline=None)
@given(idx=index_sets)
def test_trace_additivity(idx):
    m = small_model()
    s = Subspace.from_indices(DIM, idx)
    total = trace_q_on(m, s) + trace_q_on(m, s.complement(), use_tail=True)
    assert total == pytest.approx(m.trace(), abs=1e-12)


def test_projection_frame_matches_indices():
    m = rotation_block_model()
    # rotated frame spanning the same repeated block as indices {1, 2}
    theta = 0.83
    f1 = HVector(np.array([np.cos(theta), np.sin(theta), 0, 0, 0]))
    f2 = HVector(np.array([-np.sin(theta), np.cos(theta), 0, 0, 0]))
    s_frame = Subspace.from_frame(m, [f1, f2])
    s_idx = Subspace.from_indices(5, [1, 2])
    y = HVector(np.array([0.3, -1.2, 0.7, 0.1, 2.0]))
    assert np.allclose(project(y, s_frame).coeffs, project(y, s_idx).coeffs, atol=1e-12)
    assert np.allclose(
        project(y, s_frame.complement()).coeffs, project(y, s_idx.complement()).coeffs, atol=1e-12
    )


# ---------------------------------------------------------------------------
# restricted spectra


def test_restricted_eigenvalues_indices():
    m = small_model()
    s = Subspace.from_indices(DIM, [1, 3])
    assert np.allclose(sorted(restricted_eigenvalues(m, s)), [1.0 / 9.0, 1.0])
    comp = restricted_eigenvalues(m, s.complement())
    assert len(comp) == DIM - 2
    assert 1.0 not in comp


def test_restricted_eigenvalues_frame_rotation():
    m = rotation_block_model()
    f = HVector(np.array([1.0, 1.0, 0, 0, 0]) / np.sqrt(2.0))
    s = Subspace.from_frame(m, [f])
    assert np.allclose(restricted_eigenvalues(m, s), [2.0])
    comp = np.sort(restricted_eigenvalues(m, s.complement()))
    assert np.allclose(comp, [0.25, 0.5, 1.0, 2.0])


def test_sup_and_multiplicity_and_rank():
    m = SpectralModel([3.0, 3.0, 3.0, 1.0, 0.0])
    s = Subspace.from_indices(5, [4, 5])
    comp = s.complement()
    assert sup_eig_on(m, comp) == 3.0
    assert top_multiplicity(m, comp) == 3
    assert rank_on(m, s) == 1  # eigenvalue 0 contributes no rank
    with pytest.raises(ValueError):
        rank_on(m, comp)
    top = top_eigenspace(m, comp)
    assert top.indices == (1, 2, 3)


def test_trace_q_on_tail_rules():
    m = small_model()
    s = Subspace.from_indices(DIM, [1])
    assert trace_q_on(m, s) == 1.0
    with_tail = trace_q_on(m, s.complement(), use_tail=True)
    assert with_tail == pytest.approx(m.trace() - 1.0, abs=1e-14)
    with pytest.raises(ValueError):
        trace_q_on(m, s, use_tail=True)  # tail belongs to complements only


def test_difference_subspace_indices():
    m = small_model()
    v = Subspace.from_indices(DIM, [2, 5, 7])
    u0 = Subspace.from_indices(DIM, [5])
    d = difference_subspace(m, v, u0)
    assert d.indices == (2, 7)
    with pytest.raises(ValueError):
        difference_subspace(m, v, Subspace.from_indices(DIM, [1]))


def test_difference_subspace_frames():
    m = rotation_block_model()
    f1 = HVector(np.array([1.0, 0, 0, 0, 0]))
    f2 = HVector(np.array([0, 1.0, 0, 0, 0]))
    v = Subspace.from_frame(m, [f1, f2])
    u0 = Subspace.from_frame(m, [HVector(np.array([1.0, 1.0, 0, 0, 0]) / np.sqrt(2.0))])
    d = difference_subspace(m, v, u0)
    assert d.rank == 1
    y = HVector(np.array([1.0, -1.0, 0.3, 0, 0]))
    # difference of projections equals projection onto the difference
    expect = project(y, v) - project(y, u0)
    assert np.allclose(project(y, d).coeffs, expect.coeffs, atol=1e-10)


def test_difference_subspace_mixed_path_matches_coordinate_frame():
    # An index set against a frame gives, bit for bit, what the same index
    # set gives as a frame of unit coordinate vectors.
    m = rotation_block_model()
    rows = np.eye(m.dim)
    plus, minus = (rows[0] + rows[1]) / np.sqrt(2.0), (rows[0] - rows[1]) / np.sqrt(2.0)
    rotated = Subspace.from_frame(m, [plus, minus, rows[2]])
    cases = [
        (rotated, Subspace.from_indices(m.dim, [3]), rotated, Subspace.from_frame(m, [rows[2]])),
        (
            Subspace.from_indices(m.dim, [1, 2, 4]),
            Subspace.from_frame(m, [plus]),
            Subspace.from_frame(m, [rows[0], rows[1], rows[3]]),
            Subspace.from_frame(m, [plus]),
        ),
    ]
    y = HVector(np.array([1.0, -1.0, 0.3, 0.7, -0.2]))
    for v, u0, v_frame, u0_frame in cases:
        d = difference_subspace(m, v, u0)
        assert d == difference_subspace(m, v_frame, u0_frame)
        expect = project(y, v) - project(y, u0)
        assert np.allclose(project(y, d).coeffs, expect.coeffs, atol=1e-10)
    # An empty index set is an empty block of rows, not an indexing error.
    d = difference_subspace(m, rotated, Subspace.from_indices(m.dim, []))
    assert np.allclose(project(y, d).coeffs, project(y, rotated).coeffs, atol=1e-10)


def test_difference_subspace_mixed_path_memory():
    # At dim 8192 a dense identity would be 512 MiB; only the selected
    # coordinate rows may be built.
    dim = 8192
    m = SpectralModel(1.0 / np.arange(1, dim + 1) ** 2)
    v = Subspace.from_frame(m, [HVector.basis_vector(dim, 1), HVector.basis_vector(dim, 2, scale=-1.0)])
    u0 = Subspace.from_indices(dim, [2])
    tracemalloc.start()
    try:
        d = difference_subspace(m, v, u0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.rank == 1
    assert peak < 64 * 2**20


def test_default_use_tail():
    assert not default_use_tail(small_model())
    analytic = SpectralModel([0.5, 0.25], tail_trace=0.1, basis_id="wiener")
    assert default_use_tail(analytic)
