import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_gauss import spectral
from hilbert_gauss.harness import _parse_model, _parse_subspace
from hilbert_gauss.inference import functional_plan
from hilbert_gauss.sampling import noise_plan
from hilbert_gauss.spectral import (
    HVector,
    SpectralModel,
    Spectrum,
    Subspace,
    _residual,
    default_use_tail,
    difference_subspace,
    inner,
    project,
    row_inner,
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
    raw = {"dim": DIM, "eigenvalues": m.eigenvalues.tolist(), "tail_trace": 0.05, "basis_id": "abstract"}
    path.write_text(json.dumps(raw))
    again = _parse_model(str(path), 1)
    assert again == m
    assert again.dim == DIM
    assert again.basis_id == "abstract"
    # Every field but the eigenvalues is optional.
    assert _parse_model({"eigenvalues": raw["eigenvalues"], "tail_trace": 0.05}, 1) == m


@pytest.mark.parametrize("dim", (2.7, 2.0, True, "2", None))
def test_model_from_dict_refuses_non_integral_dim(dim):
    with pytest.raises(ValueError, match="model dim must be an integer"):
        _parse_model({"eigenvalues": [1.0, 0.5], "dim": dim}, 2)


def test_from_dict_refuses_unknown_fields():
    with pytest.raises(ValueError, match=r"unknown model fields: \['tail'\]"):
        _parse_model({"eigenvalues": [1.0, 0.5], "tail": 0.3}, 2)
    with pytest.raises(ValueError, match=r"unknown subspace fields: \['complment'\]"):
        _parse_subspace({"indices": [1], "dim": 2, "complment": True}, SpectralModel([1.0, 0.5]))


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
            _parse_subspace({"indices": [1], "dim": bad}, small_model())
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
    fresh = _parse_subspace({"indices": [4, 1]}, SpectralModel(np.ones(6)))
    assert fresh == s and hash(fresh) == hash(s) and fresh._mask is None
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
    written = [
        ({"complement": True, "dim": 5, "indices": [2, 4]}, Subspace.from_indices(5, [2, 4]).complement()),
        ({"complement": False, "dim": 5, "frame": [ok.coeffs.tolist()]}, Subspace.from_frame(m, [ok])),
    ]
    for data, s in written:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert _parse_subspace(str(path), m) == s


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
# index-set projections: slices over runs of modes or np.where, the same bits


def runs_subspace(dim: int, bounds) -> Subspace:
    """The index set of the runs [a + 1, b] of modes, for sorted distinct bounds a0 < b0 < a1 < ..."""
    return Subspace.from_indices(dim, [k for a, b in zip(bounds[::2], bounds[1::2]) for k in range(a + 1, b + 1)])


def assert_projects_as_where(y: np.ndarray, S: Subspace) -> None:
    # The bits of np.where over the mask, +0.0 off the set, in a new C-contiguous array.
    want = np.where(S.index_mask(), y, 0.0)
    got = project(y, S)
    assert got.dtype == want.dtype == np.float64 and got.shape == y.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.flags.c_contiguous and got.flags.writeable and not np.shares_memory(got, y)


@st.composite
def run_cases(draw):
    """(y, S) for an index set of 0, 1, a few or many runs of modes, or of every
    mode, and its complement; y of shape (dim,) or (rows, dim) holding -0.0
    entries, or integers."""
    dim = draw(st.sampled_from((7, 256, 1024, 2048)))
    rows = draw(st.sampled_from((None, 1, 3, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        bounds = [0, dim]
    else:
        runs = min(draw(st.sampled_from((0, 1, 2, 5, 16, 17, 40, dim // 2))), (dim + 1) // 2)
        bounds = np.sort(rng.choice(dim + 1, 2 * runs, replace=False)).tolist()
    S = runs_subspace(dim, bounds)
    shape = (dim,) if rows is None else (rows, dim)
    if draw(st.booleans()):
        y = rng.integers(-5, 6, size=shape)
    else:
        y = rng.standard_normal(shape)
        y[rng.random(shape) < 0.2] = -0.0
    y.flags.writeable = False  # a projection never writes its input
    return y, S.complement() if draw(st.booleans()) else S


@settings(max_examples=200, deadline=None)
@given(case=run_cases())
def test_project_is_where_bit_for_bit(case):
    assert_projects_as_where(*case)


@pytest.mark.parametrize("rows", (None, 16))
@pytest.mark.parametrize("runs", (0, 1, 4, 16, 17, 512))
def test_project_is_where_on_both_sides_of_the_crossover(rows, runs):
    # At 1024 modes a (1024,) row takes slices up to 1 run and a (16, 1024)
    # block up to 16; more runs take np.where.
    dim = 1024
    S = runs_subspace(dim, list(range(0, 2 * runs * (dim // (2 * runs)), dim // (2 * runs))) if runs else [])
    assert len(S._index_runs()) == runs
    y = np.random.default_rng(runs).standard_normal((dim,) if rows is None else (rows, dim))
    y[..., ::7] = -0.0
    for sub in (S, S.complement(), Subspace.from_indices(dim, range(1, dim + 1))):
        assert_projects_as_where(y, sub)
        assert_projects_as_where(y[0] if rows else y[None], sub)


def test_index_runs_are_cached_and_derived():
    s = Subspace.from_indices(12, [1, 2, 3, 7, 9, 10, 12])
    runs = s._index_runs()
    assert runs == (slice(0, 3), slice(6, 7), slice(8, 10), slice(11, 12)) and s._index_runs() is runs
    assert s.complement()._runs is runs and s.complement()._index_runs() == runs
    assert Subspace.from_indices(12, []).complement()._index_runs() == ()
    assert pickle.loads(pickle.dumps(s))._runs is None
    assert Subspace.from_indices(12, [12, 10, 9, 7, 3, 2, 1]) == s


def plan_model(dim: int) -> SpectralModel:
    """A spectrum whose two leading modes tie, so that a frame may rotate between them."""
    eig = 1.0 / np.arange(1, dim + 1) ** 2
    eig[1] = eig[0]
    return SpectralModel(eig)


def plan_subspaces(dim: int) -> dict:
    rows = np.eye(2, dim)
    c, s = np.cos(0.7), np.sin(0.7)
    e = lambda k: HVector.basis_vector(dim, k).coeffs
    model = plan_model(dim)
    rotated = Subspace.from_frame(model, [c * rows[0] + s * rows[1], -s * rows[0] + c * rows[1], e(4)])
    scattered = Subspace.from_indices(dim, range(1, 200, 2))
    return {
        # name -> (U, U0 or None for the residual alone)
        "one_run": (Subspace.from_indices(dim, [4, 5, 6]), Subspace.from_indices(dim, [4])),
        "few_runs": (Subspace.from_indices(dim, [1, 2, 4, 5, 9, 30, 31]), Subspace.from_indices(dim, [2, 30])),
        "scattered": (scattered, Subspace.from_indices(dim, [1, 5, 9])),
        "complement": (Subspace.from_indices(dim, range(7, dim + 1)).complement(), None),
        "scattered_complement": (scattered.complement(), None),
        "frame": (rotated, Subspace.from_frame(model, [e(4)])),
        "frame_vs_indices": (rotated, Subspace.from_indices(dim, [4])),
        "indices_vs_frame": (Subspace.from_indices(dim, [1, 2, 4, 5]), rotated),
        "frame_complement": (rotated.complement(), None),
    }


PLAN_CASES = ("one_run", "few_runs", "scattered", "complement", "scattered_complement", "frame",
              "frame_vs_indices", "indices_vs_frame", "frame_complement")


@pytest.mark.parametrize("name", PLAN_CASES)
@pytest.mark.parametrize("rows", (None, 16))
def test_one_pass_statistics_keep_the_two_pass_bits(name, rows):
    # The residual, the variance and the test statistic against the formulas
    # they replace: y - P_U y and P_U y - P_U0 y, each from two projections.
    dim = 1024
    U, U0 = plan_subspaces(dim)[name]
    model = plan_model(dim)
    rng = np.random.default_rng(dim)
    y = rng.standard_normal((dim,) if rows is None else (rows, dim)) * np.sqrt(model.eigenvalues)
    y[..., 3:200:5] = -0.0
    y.flags.writeable = False

    def same(got, want):
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

    residual = y - project(y, U)
    same(_residual(y, U), residual)
    row = HVector(y[0] if rows else y)
    same(_residual(row, U).coeffs, (row - project(row, U)).coeffs)
    plan = functional_plan(model, U, use_tail=False)
    same(plan.variance(y), row_inner(residual, residual) / plan.variance_denominator)
    if U0 is not None:
        plan = noise_plan(model, U, U0)
        dec = plan.decomposition
        shift = project(y, U) - project(y, U0)
        want = (dec.n * dec.lam) / (dec.m * dec.mu) * row_inner(shift, shift) / row_inner(residual, residual)
        same(plan.statistic(y), want)


# ---------------------------------------------------------------------------
# restricted spectra


def test_restricted_eigenvalues_indices():
    m = small_model()
    s = Subspace.from_indices(DIM, [3, 1])
    spec = Spectrum(m, s)
    assert spec.eigenvalues.tolist() == [1.0, 1.0 / 9.0] and spec.modes.tolist() == [0, 2]
    comp = Spectrum(m, s.complement())
    assert len(comp.eigenvalues) == DIM - 2 and comp.modes.tolist() == [1] + list(range(3, DIM))
    assert 1.0 not in comp.eigenvalues
    assert np.array_equal(comp.eigenvalues, m.eigenvalues[comp.modes])


def test_restricted_eigenvalues_frame_rotation():
    m = rotation_block_model()
    f = HVector(np.array([1.0, 1.0, 0, 0, 0]) / np.sqrt(2.0))
    s = Subspace.from_frame(m, [f])
    spec = Spectrum(m, s)
    assert np.allclose(spec.eigenvalues, [2.0]) and spec.modes is None
    comp = Spectrum(m, s.complement())
    assert np.allclose(np.sort(comp.eigenvalues), [0.25, 0.5, 1.0, 2.0]) and comp.modes is None
    assert comp.top == pytest.approx(2.0)


def test_sup_and_multiplicity_and_rank():
    m = SpectralModel([3.0, 3.0, 3.0, 1.0, 0.0])
    s = Subspace.from_indices(5, [4, 5])
    comp = Spectrum(m, s.complement())
    assert comp.top == 3.0
    assert np.count_nonzero(comp.near_top()) == 3
    assert comp.modes[comp.near_top()].tolist() == [0, 1, 2]
    assert Spectrum(m, s).ranked().tolist() == [True, False]  # eigenvalue 0 contributes no rank
    empty = Spectrum(m, Subspace.from_indices(5, range(1, 6)).complement())
    assert empty.top == 0.0 and empty.eigenvalues.size == 0 and not empty.near_top().any()
    with pytest.raises(ValueError, match="dimension mismatch"):
        Spectrum(m, Subspace.from_indices(4, [1]))


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
    # The tail lies in complement subspaces only: a plain one takes none, and refuses an explicit one.
    assert default_use_tail(analytic, None, complement=True) and not default_use_tail(analytic, None, complement=False)
    assert default_use_tail(analytic, False, complement=False) is False
    with pytest.raises(ValueError, match=r"complement subspaces only.*use_tail false \(--no-tail\)"):
        default_use_tail(analytic, True, complement=False)
