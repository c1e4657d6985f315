"""The plan caches and their keys: immutable, once-hashed models, vectors and
subspaces; bounded factories that never cache a failure; quantiles cached by
their arguments and shared by every plan."""

import gc
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hilbert_gauss import distributions, harness, inference, processes, regression, sampling, spectral
from hilbert_gauss.distributions import f_quantile, norm_quantile, t_quantile
from hilbert_gauss.estimators import est_variance
from hilbert_gauss.harness import ExperimentConfig, _build, run_experiment
from hilbert_gauss.inference import ci_known, ci_unknown, functional_plan
from hilbert_gauss.processes import bridge_model, wiener_model
from hilbert_gauss.regression import DesignOperator, ci_beta_known, ci_beta_unknown, pullback_functional
from hilbert_gauss.sampling import noise_plan
from hilbert_gauss.spectral import (
    PLAN_CACHE_SIZE,
    HVector,
    SpectralModel,
    Spectrum,
    Subspace,
)

FACTORIES = (
    inference._functional_plan,
    noise_plan,
    regression.design_plan,
    sampling._head,
    regression._pullback,
    regression._hypothesis,
    wiener_model,
    bridge_model,
    harness._cached_law,
    sampling._whole,
    spectral._interned_indices,
)
QUANTILES = (norm_quantile, t_quantile, f_quantile)


KEYS = ("model", "vector", "index_subspace", "frame_complement", "design")


def make_key(name):
    """A fresh instance of one cache-key class."""
    model = SpectralModel([1.0, 0.5, 0.5, 0.25], tail_trace=0.1)
    if name == "model":
        return model
    if name == "vector":
        return HVector([1.0, -2.0, 0.5])
    if name == "index_subspace":
        return Subspace.from_indices(6, [1, 4])
    if name == "design":
        return DesignOperator(model, [[0.0, 0.6, 0.8, 0.0], [2.0, 0.0, 0.0, 0.0]])
    return Subspace.from_frame(model, [np.array([0.0, 0.6, 0.8, 0.0])]).complement()


def slots(obj):
    return [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.fixture
def cold_caches():
    for factory in FACTORIES + QUANTILES:
        factory.cache_clear()
    yield
    for factory in FACTORIES + QUANTILES:
        factory.cache_clear()


@pytest.mark.parametrize("name", KEYS)
def test_keys_are_immutable(name):
    obj = make_key(name)
    before = hash(obj)
    for name in slots(obj) + ["extra"]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, 5.0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, name)
    assert hash(obj) == before


def test_tail_trace_assignment_is_refused():
    m = wiener_model(16)
    with pytest.raises(AttributeError):
        m.tail_trace = 5.0
    assert m == wiener_model(16) and m.tail_trace == processes.WIENER_TOTAL_TRACE - float(m.eigenvalues.sum())


@pytest.mark.parametrize("name", KEYS)
def test_pickle_round_trip(name):
    obj = make_key(name)
    if isinstance(obj, Subspace) and obj.kind == "indices":
        mask = obj.index_mask()
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and hash(back) == hash(obj) and type(back) is type(obj)
    for name in slots(obj):
        if name not in ("_hash", "_parts", "_mask", "_plan"):
            assert np.array_equal(getattr(back, name), getattr(obj, name))
    with pytest.raises(AttributeError):
        back.dim = 3
    if isinstance(obj, Subspace) and obj.kind == "indices":
        assert back._mask is None  # not pickled ...
        assert np.array_equal(back.index_mask(), mask)  # ... but rebuilt on demand
        assert not back.index_mask().flags.writeable


class CountingArray(np.ndarray):
    calls = 0

    def tobytes(self, *args, **kwargs):
        CountingArray.calls += 1
        return super().tobytes(*args, **kwargs)


# An index subspace hashes its index tuple, without array bytes.
@pytest.mark.parametrize("name", ("model", "vector", "frame_complement", "design"))
def test_hash_is_computed_once_per_instance(name):
    obj = make_key(name)
    field = {SpectralModel: "eigenvalues", HVector: "coeffs", Subspace: "frame", DesignOperator: "columns"}[type(obj)]
    object.__setattr__(obj, field, getattr(obj, field).view(CountingArray))
    object.__setattr__(obj, "_hash", None)  # a design hashes itself to find its plan
    CountingArray.calls = 0
    first = hash(obj)
    assert all(hash(obj) == first for _ in range(5))
    assert {obj: 1}[obj] == 1
    assert CountingArray.calls == 1


def signed_zero_pair(name, dim):
    """Two keys of one class at `dim` modes, equal but for the signs of their zeros."""
    if name == "model":
        lam = 1.0 / np.arange(1.0, dim + 1.0)
        lam[1::3] = 0.0
        return SpectralModel(lam), SpectralModel(np.where(lam == 0.0, -0.0, lam))
    if name == "vector":
        coeffs = np.zeros(dim)
        coeffs[dim // 2] = 1.5
        return HVector(coeffs), HVector(np.where(coeffs == 0.0, -0.0, coeffs))
    # Q = I, so every subspace is Q-invariant.
    model = SpectralModel(np.ones(dim))
    rows = np.zeros((2, dim))
    rows[0, 1], rows[1, dim - 1] = 1.0, -1.0
    flipped = np.where(rows == 0.0, -0.0, rows)
    if name == "frame":
        return Subspace.from_frame(model, rows), Subspace.from_frame(model, flipped)
    return DesignOperator(model, list(rows)), DesignOperator(model, list(flipped))


def test_signed_zeros_hash_equal():
    # Arrays of 4 entries hash all their bytes, of 8192 a sample and positions.
    for name in ("model", "vector", "frame", "design"):
        for dim in (4, 8192):
            a, b = signed_zero_pair(name, dim)
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1, (name, dim)
            assert {a: name}[b] == name and {b: name}[a] == name  # a probe compares the parts


def test_basis_vectors_off_the_hash_stride_hash_apart():
    # A key hash reads a strided sample of a large array; the position of the
    # first nonzero entry tells apart the basis vectors between its strides.
    hashes = {hash(HVector.basis_vector(8192, k)) for k in range(1, 65)}
    assert len(hashes) == 64


def test_large_keys_with_equal_hash_parts_compare_every_entry():
    # e_1 + e_3 and e_1 + e_5 agree on the strided sample, the first nonzero
    # position and the nonzero count, so they hash equal but are not equal.
    dim = 8192
    a, b = HVector(np.eye(1, dim, 0)[0] + np.eye(1, dim, 2)[0]), HVector(np.eye(1, dim, 0)[0] + np.eye(1, dim, 4)[0])
    assert hash(a) == hash(b) and a != b and len({a, b}) == 2
    assert a == HVector(a.coeffs.copy())


NON_FINITE = ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [1.0, np.nan, 1e308], [1e308, 1e308, np.inf])


@pytest.mark.parametrize("entries", NON_FINITE)
def test_non_finite_entries_are_refused(entries):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        HVector(entries)
    with pytest.raises(ValueError, match="column entries must be finite"):
        DesignOperator(SpectralModel(np.ones(len(entries))), [entries])


def test_finite_entries_whose_sum_overflows_are_accepted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entries in ([1e308, 1e308], [-1e308, -1e308, 1.0], [1e200, 1e-300], []):
            assert HVector(entries).coeffs.tolist() == entries
        # Each column's squared norm is finite; their sum is not.
        columns = [[1e154, 0.0], [0.0, 1e154]]
        A = DesignOperator(SpectralModel([1.0, 0.5]), columns)
        assert A.columns.T.tolist() == columns and A.range.indices == (1, 2)


def test_equal_index_lists_share_one_instance(cold_caches):
    U = Subspace.from_indices(16, [4, 5])
    assert Subspace.from_indices(16, [4, 5]) is U and Subspace.from_indices(16, (4, 5)) is U
    # Another order, numpy integers or a range give an equal subspace, built afresh.
    for other in ([5, 4], [np.int64(4), 5], range(4, 6)):
        assert Subspace.from_indices(16, other) == U and Subspace.from_indices(16, other) is not U
    assert Subspace.from_indices(np.int64(16), [4, 5]) is not U
    assert spectral._interned_indices.cache_info().currsize == 2  # (4, 5) and (5, 4)
    # A plan finds a fresh index subspace by identity.
    b = HVector.basis_vector(16, 4)
    plan = functional_plan(wiener_model(16), U, b)
    assert functional_plan(wiener_model(16), Subspace.from_indices(16, [4, 5]), b) is plan


@pytest.mark.parametrize(
    "dim, indices, message",
    (
        (16, [4.0], "must be integers"),
        (16, [True], "must be integers"),
        (16, [4, 4], "duplicate"),
        (16, [0], "must lie in"),
        (16, [17], "must lie in"),
        (0, [1], "positive"),
        (16.0, [1], "dim must be an integer"),
        (True, [1], "dim must be an integer"),
        (16, 4, "list of integers"),
    ),
)
def test_refused_index_lists_are_not_interned(cold_caches, dim, indices, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            Subspace.from_indices(dim, indices)
    assert spectral._interned_indices.cache_info().currsize == 0


def test_interned_index_subspaces_stay_bounded(cold_caches):
    first = Subspace.from_indices(64, [1])
    for k in range(2, 3 * PLAN_CACHE_SIZE):
        Subspace.from_indices(64, [k])
    assert spectral._interned_indices.cache_info().currsize == PLAN_CACHE_SIZE
    assert Subspace.from_indices(64, [1]) == first and Subspace.from_indices(64, [1]) is not first


@pytest.mark.parametrize("dim", (1, 64, 8192))
def test_design_columns_are_the_column_stack(dim):
    # Q = I, so columns in any direction have a Q-invariant range.
    model = SpectralModel(np.ones(dim))
    rng = np.random.default_rng(dim)
    p = min(dim, 3)
    arrays = list(rng.standard_normal((p, dim)))
    stacked = np.column_stack(arrays)
    for columns in (
        arrays,
        [HVector(a) for a in arrays],
        [a.tolist() for a in arrays],
        [HVector(arrays[0]), *(a.tolist() for a in arrays[1:2]), *arrays[2:]],
        np.array(arrays),
    ):
        cols = DesignOperator(model, columns).columns
        assert cols.shape == stacked.shape and cols.tobytes() == stacked.tobytes()
        assert cols.flags.c_contiguous and not cols.flags.writeable


def test_factories_are_bounded():
    for factory in FACTORIES + QUANTILES:
        maxsize = factory.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= PLAN_CACHE_SIZE


def test_models_and_plans_are_shared(cold_caches):
    model = wiener_model(32)
    assert wiener_model(32) is model and bridge_model(32) is bridge_model(32)
    U = Subspace.from_indices(32, [4])
    b = HVector.basis_vector(32, 4, 2.0**0.5)
    plan = functional_plan(model, U, b)
    # Equal keys built afresh hit the same plan; None resolves to the default.
    assert functional_plan(wiener_model(32), Subspace.from_indices(32, [4]), HVector(b.coeffs), True) is plan
    assert functional_plan(model, U, b, False) is not plan
    y = HVector(np.linspace(-1.0, 1.0, 32))
    ci_known(b, y, model, U, 1.0, 0.05)
    ci_unknown(b, y, model, U, 0.05)
    est_variance(y, model, U)
    info = inference._functional_plan.cache_info()
    assert info.currsize == 3 and info.hits == 3


def test_failing_constant_is_not_cached(cold_caches):
    model = wiener_model(16)
    U = Subspace.from_indices(16, [4])
    b = HVector.basis_vector(16, 5)  # orthogonal to U
    y = HVector(np.ones(16))
    for _ in range(2):
        with pytest.raises(ValueError, match="not positive"):
            ci_known(b, y, model, U, 1.0, 0.05)
    assert "variance_factor" not in vars(functional_plan(model, U, b))
    # A failing constant of the noise plan is not kept and raises again.
    U2, U0 = Subspace.from_indices(16, [4, 5]), Subspace.from_indices(16, [7])
    for _ in range(2):
        with pytest.raises(ValueError, match="not contained"):
            inference.test_subspace(y, model, U2, U0, 0.05)
    assert not {"difference", "decomposition"} & set(vars(noise_plan(model, U2, U0)))
    everything = Subspace.from_indices(16, range(1, 17))
    for _ in range(2):
        with pytest.raises(ValueError, match="empty subspace"):
            noise_plan(model, everything, None).leading_norm_sq(y.coeffs, 1.0)


def test_design_pickles_column_by_column(cold_caches):
    A = make_key("design")
    back = pickle.loads(pickle.dumps(A))
    assert back == A and back.columns.shape == A.columns.shape == (4, 2)
    assert back._plan is A._plan and back.range == A.range


def test_equal_designs_share_one_plan(cold_caches):
    cols = [HVector.basis_vector(16, 4, 1.3), HVector.basis_vector(16, 5, -0.4)]
    A = DesignOperator(wiener_model(16), cols)
    B = DesignOperator(wiener_model(16), [col.coeffs.copy() for col in cols])
    assert A == B and hash(A) == hash(B) and B._plan is A._plan
    info = regression.design_plan.cache_info()
    assert info.currsize == 1 and info.hits == 1


@pytest.mark.parametrize(
    "columns, message",
    (
        ([np.eye(8)[2], 2.0 * np.eye(8)[2]], "linearly independent"),  # proportional columns
        ([np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])], "not Q-invariant"),
    ),
)
def test_failed_design_is_not_cached(cold_caches, columns, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            DesignOperator(wiener_model(8), columns)
    assert regression.design_plan.cache_info().currsize == 0


# Columns inside one eigenspace of Q: every range and hypothesis image is a
# Q-invariant frame subspace.
DEGENERATE = SpectralModel([1.0, 0.5, 0.5, 0.5, 0.25, 0.1, 0.05, 0.02])
DEGENERATE_COLUMNS = [[0, 1.0, 1.0, 0, 0, 0, 0, 0], [0, 1.0, -1.0, 0, 0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0, 0, 0]]


def design_outputs(A, c, g0, y):
    return (
        pullback_functional(A, c),
        ci_beta_known(c, A, y, 1.0, 0.05),
        ci_beta_unknown(c, A, y, 0.05),
        regression.test_beta(y, A, g0, 0.05).to_dict(),
    )


def test_kept_pullback_and_hypothesis_follow_their_keys(cold_caches):
    y = HVector(np.linspace(-1.0, 1.0, 8))
    cs = (np.array([1.0, 0.0, 0.0]), np.array([0.5, -2.0, 1.0]))
    g0s = ([np.array([1.0, 0.0, 0.0])], [np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])])

    def fresh(c, g0):
        regression.design_plan.cache_clear()
        return design_outputs(DesignOperator(DEGENERATE, DEGENERATE_COLUMNS), c, g0, y)

    expected = [fresh(c, g0) for c, g0 in zip(cs, g0s)]
    assert expected[0] != expected[1]
    A = DesignOperator(DEGENERATE, DEGENERATE_COLUMNS)
    assert A.range.kind == "frame"
    for i in (0, 1, 1, 0, 1, 0, 0):
        assert design_outputs(A, cs[i], g0s[i], y) == expected[i]


def test_mutating_the_callers_keys_does_not_poison_the_plan(cold_caches):
    y = HVector(np.linspace(-1.0, 1.0, 8))
    A = DesignOperator(DEGENERATE, DEGENERATE_COLUMNS)
    c, g0 = np.array([1.0, 0.0, 0.0]), [np.array([1.0, 0.0, 0.0])]
    first = design_outputs(A, c, g0, y)
    c[1], g0[0][2] = 2.0, 1.0
    regression.design_plan.cache_clear()
    expected = design_outputs(DesignOperator(DEGENERATE, DEGENERATE_COLUMNS), c, g0, y)
    assert design_outputs(A, c, g0, y) == expected != first


def test_heads_pullbacks_and_hypotheses_hit_once_built(cold_caches):
    model = wiener_model(16)
    plan = functional_plan(model, Subspace.from_indices(16, [4]), HVector.basis_vector(16, 4))
    head = plan.head(5)
    assert plan.head(5) is head and plan.head(16) is plan
    A = DesignOperator(DEGENERATE, DEGENERATE_COLUMNS)
    c, g0, y = np.array([0.5, -2.0, 1.0]), [np.array([1.0, 0.0, 0.0])], HVector(np.linspace(-1.0, 1.0, 8))
    b = pullback_functional(A, c)
    assert pullback_functional(A, c.copy()) is b
    first = regression.test_beta(y, A, g0, 0.05)
    assert regression.test_beta(y, A, [g0[0].copy()], 0.05) == first
    for cache in (sampling._head, regression._pullback, regression._hypothesis):
        info = cache.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1), cache


def test_failing_head_pullback_and_hypothesis_are_not_cached(cold_caches):
    plan = functional_plan(wiener_model(16), Subspace.from_indices(16, [4]), HVector.basis_vector(16, 4))
    A = DesignOperator(DEGENERATE, DEGENERATE_COLUMNS)
    y = HVector(np.linspace(-1.0, 1.0, 8))
    dependent = [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])]  # A(G0) has rank 1
    for _ in range(2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            plan.head(17)
        with pytest.raises(ValueError):
            regression._pullback(A._plan, np.zeros(2).tobytes())  # c of the wrong length
        with pytest.raises(ValueError, match="rank deficient"):
            regression.test_beta(y, A, dependent, 0.05)
    for cache in (sampling._head, regression._pullback, regression._hypothesis):
        info = cache.cache_info()
        assert (info.currsize, info.misses, info.hits) == (0, 2, 0), cache


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(
    "kind, quantile",
    (("coverage_known", "norm_quantile"), ("coverage_unknown", "t_quantile"), ("level", "f_quantile")),
)
def test_quantile_once_per_run(cold_caches, kind, quantile):
    cache = getattr(distributions, quantile)
    data = {
        "kind": kind,
        "model": {"basis_id": "wiener", "dim": 64},
        "subspace": [4, 5, 6] if kind == "level" else [4],
        "subspace0": [4] if kind == "level" else None,
        "b": None if kind == "level" else {"coords": {"4": 1.0}},
        "replicates": 4100,  # 17 row blocks at dim 64
    }
    config = ExperimentConfig.from_dict(data)
    run_experiment(config)
    assert cache.cache_info().misses == 1
    run_experiment(config)  # a warm run makes no miss
    assert cache.cache_info().misses == 1 and cache.cache_info().hits > 0


LEVEL_PAIR = {"model": {"basis_id": "wiener", "dim": 64}, "subspace": [4, 5, 6], "subspace0": [4], "replicates": 100}


def test_test_and_noise_statistics_share_one_plan(cold_caches):
    run_experiment(ExperimentConfig.from_dict({"kind": "level", **LEVEL_PAIR}))
    assert noise_plan.cache_info().currsize == 1
    run_experiment(ExperimentConfig.from_dict({"kind": "noise_law", **LEVEL_PAIR}))
    info = noise_plan.cache_info()
    assert info.currsize == 1 and info.hits >= 1


def test_warm_noise_law_run_rebuilds_no_constant(cold_caches, monkeypatch):
    calls = count_calls(monkeypatch, sampling, "difference_subspace")
    config = ExperimentConfig.from_dict({"kind": "noise_law", **LEVEL_PAIR})
    run_experiment(config)
    assert len(calls) == 1
    run_experiment(config)
    assert len(calls) == 1


def test_kept_quantile_follows_alpha(cold_caches):
    model = wiener_model(32)
    y = np.linspace(-1.0, 1.0, 32)

    def ask(k, alpha):
        # An interval plan on U = {k} and a test plan on {k, k+1, k+2} against U:
        # n = 1 and m = 2 whatever k.
        U = Subspace.from_indices(32, [k])
        plan = functional_plan(model, U, HVector.basis_vector(32, k))
        test_plan = noise_plan(model, Subspace.from_indices(32, [k, k + 1, k + 2]), U)
        return plan.ci_known(y, 1.0, alpha)[1], plan.ci_unknown(y, alpha)[1], test_plan.threshold(alpha)

    first = {}
    for alpha, misses in ((0.05, 1), (0.1, 2), (0.05, 2), (0.01, 3)):
        first.setdefault(alpha, ask(4, alpha))
        assert first[alpha] == ask(4, alpha)
        assert [q.cache_info().misses for q in QUANTILES] == [misses] * 3
    # Fresh plans with the same n and m reuse every quantile.
    hits = [q.cache_info().hits for q in QUANTILES]
    threshold = ask(5, 0.05)[2]
    assert [q.cache_info().misses for q in QUANTILES] == [3] * 3
    assert all(q.cache_info().hits > h for q, h in zip(QUANTILES, hits))
    assert threshold == first[0.05][2] == f_quantile(2.0, 1.0, 0.95)


def footprint_of(burst) -> int:
    """Bytes still allocated after burst() returns, as tracemalloc sees them."""

    def allocated():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    # Loaded here, not by the burst's first quantile: the module stays loaded.
    distributions._special()
    tracemalloc.start()
    try:
        start = allocated()
        burst()
        return allocated() - start
    finally:
        tracemalloc.stop()


def fresh_footprint(measure) -> dict:
    """What `measure`, a function of this module, returns when called in a
    fresh interpreter that imports this module and nothing else: in the
    suite another test may already have loaded a module that a burst would
    otherwise count."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [tests, os.path.join(os.path.dirname(tests), "src"), os.environ.get("PYTHONPATH")]
    res = subprocess.run(
        [sys.executable, "-c", f"import json, test_plan_cache; print(json.dumps(test_plan_cache.{measure.__name__}()))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# The caches are bounded in entries, and each entry keeps its key alive: the
# footprint is PLAN_CACHE_SIZE entries per cache times the size of the keys.
def index_subspace_burst() -> dict:
    dim = 8192
    model = wiener_model(dim)
    y = HVector(np.linspace(-1.0, 1.0, dim))
    U0 = Subspace.from_indices(dim, [1])

    def burst():
        for k in range(2, 8 * PLAN_CACHE_SIZE + 2):
            U = Subspace.from_indices(dim, [1, k])
            b = HVector.basis_vector(dim, k)
            ci_unknown(b, y, model, U, 0.05)
            inference.test_subspace(y, model, U, U0, 0.05)
            noise_plan(model, U, None).leading_norm_sq(y.coeffs, 1.0)

    used = footprint_of(burst)
    # Per key: one 64 KiB vector b and the 8 KiB mask of U, shared by the
    # two caches; a burst kept unbounded would hold 8 times as much.
    sizes = [factory.cache_info().currsize for factory in (inference._functional_plan, noise_plan)]
    return {"used": used, "key_bytes": dim * 8 + dim, "sizes": sizes}


def test_burst_of_distinct_index_subspaces_stays_bounded():
    result = fresh_footprint(index_subspace_burst)
    assert result["sizes"] == [PLAN_CACHE_SIZE] * 2
    assert result["used"] < PLAN_CACHE_SIZE * result["key_bytes"] * 1.5, result


def frame_burst() -> dict:
    dim, rank = 8192, 16
    model = wiener_model(dim)
    y = HVector(np.linspace(-1.0, 1.0, dim))

    def burst():
        for j in range(4 * PLAN_CACHE_SIZE):
            modes = range(rank * j + 1, rank * (j + 1) + 1)
            U = Subspace.from_frame(model, [HVector.basis_vector(dim, k) for k in modes])
            ci_known(HVector.basis_vector(dim, modes[0]), y, model, U, 1.0, 0.05)

    used = footprint_of(burst)
    # Per key: the rank x dim frame (1 MiB) and the 64 KiB vector b; a burst
    # kept unbounded would hold 4 times as much.
    return {"used": used, "key_bytes": rank * dim * 8 + dim * 8, "size": inference._functional_plan.cache_info().currsize}


def test_burst_of_distinct_frames_stays_bounded():
    result = fresh_footprint(frame_burst)
    assert result["size"] == PLAN_CACHE_SIZE
    key_bytes = result["key_bytes"]
    assert PLAN_CACHE_SIZE * key_bytes <= result["used"] < PLAN_CACHE_SIZE * key_bytes * 1.25, result


# A model with a double top eigenvalue 1.0 and a double 0.5, and a U of each kind.
TOP_MODEL = SpectralModel([1.0, 1.0, 0.5, 0.5, 0.25], tail_trace=0.1)
TOP_SUBSPACES = {
    "indices": Subspace.from_indices(5, [5]),
    "frame": Subspace.from_frame(TOP_MODEL, [[0.0, 0.0, 0.6, 0.8, 0.0]]),
    "complement": Subspace.from_indices(5, [1, 2]).complement(),
}


@pytest.mark.parametrize("kind", TOP_SUBSPACES)
def test_complement_top_reads_one_spectrum(monkeypatch, kind):
    U = TOP_SUBSPACES[kind]
    spectrum = Spectrum(TOP_MODEL, U.complement())
    old = (spectrum.top, int(np.count_nonzero(spectrum.near_top())))
    calls = [count_calls(monkeypatch, module, "Spectrum") for module in (sampling, spectral)]
    assert sampling.NoisePlan(TOP_MODEL, U, None).complement_top == old  # a fresh plan, not the cached one
    assert sum(map(len, calls)) == 1
    assert old[1] == 2


# Pairs U0 in U of each form: modes {1, 4} or a line in the top eigenspace, beyond U0 = e_3.
_C, _S = np.cos(0.3), np.sin(0.3)
TOP_PAIRS = {
    "indices": (Subspace.from_indices(5, [1, 3, 4]), Subspace.from_indices(5, [3])),
    "frames": (
        Subspace.from_frame(TOP_MODEL, [[_C, _S, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]]),
        Subspace.from_frame(TOP_MODEL, [[0.0, 0.0, 1.0, 0.0, 0.0]]),
    ),
}


@pytest.mark.parametrize("form", TOP_PAIRS)
def test_noise_plan_miss_reads_one_spectrum_per_subspace(cold_caches, monkeypatch, form):
    U, U0 = TOP_PAIRS[form]
    y = HVector([0.3, -1.0, 2.0, 0.5, 0.7])
    built = count_calls(monkeypatch, sampling, "Spectrum")
    res = inference.test_subspace(y, TOP_MODEL, U, U0, 0.05)
    plan = noise_plan(TOP_MODEL, U, U0)
    for statistic in (plan.leading_norm_sq, plan.whitened_norm_sq):
        if form == "indices":
            assert statistic(y.coeffs, 1.0) > 0.0
        else:
            with pytest.raises(ValueError, match="index-set subspaces"):
                statistic(y.coeffs, 1.0)
    # The complement of U gives lam, n and the leading modes; U minus U0 gives m, mu and the whitening.
    assert [S for _, S in built] == [U.complement(), plan.difference]
    assert res.params["lam"] == pytest.approx(1.0) and res.params["mu"] == pytest.approx(1.0)
    assert (res.params["n"], res.params["m"]) == (1, 2 if form == "indices" else 1)


LAW_CONFIG = {"kind": "unbiasedness", "model": "wiener:64", "subspace": [4, 5], "zeta": "4:0.7", "replicates": 3}


def test_rebuilt_config_gets_the_same_law(cold_caches, monkeypatch):
    made = []
    law = sampling.GaussianLaw
    monkeypatch.setattr(harness, "GaussianLaw", lambda *args, **kwargs: made.append(args) or law(*args, **kwargs))
    laws = [_build(ExperimentConfig.from_dict(LAW_CONFIG))[3] for _ in range(2)]
    assert laws[0] is laws[1] and len(made) == 1
    # The run's chunk scales with the builder's law; it builds none of its own.
    run_experiment(ExperimentConfig.from_dict(LAW_CONFIG))
    assert len(made) == 1 and harness._cached_law.cache_info().currsize == 1


def test_mean_outside_u_raises_on_every_run(cold_caches):
    config = ExperimentConfig.from_dict({**LAW_CONFIG, "zeta": "6:0.7"})
    for _ in range(2):
        with pytest.raises(ValueError, match="mean does not lie in the attached subspace"):
            run_experiment(config)
    assert harness._cached_law.cache_info().currsize == 0


def test_law_cache_stays_bounded(cold_caches):
    for k in range(3 * PLAN_CACHE_SIZE):
        run_experiment(ExperimentConfig.from_dict({**LAW_CONFIG, "sigma": 1.0 + k}))
        assert harness._cached_law.cache_info().currsize == min(k + 1, PLAN_CACHE_SIZE)


def test_law_key_takes_sigma_as_a_float(cold_caches):
    # A 0-d array sigma, which cannot key a cache itself, finds the law of its float.
    for sigma in (np.array(1.3), 1.3):
        run_experiment(ExperimentConfig(kind="moments", model=wiener_model(16), sigma=sigma, replicates=10))
    assert harness._cached_law.cache_info().currsize == 1
