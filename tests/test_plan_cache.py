"""The plan caches and their keys: immutable, once-hashed models, vectors and
subspaces; bounded factories that never cache a failure; quantiles cached by
their arguments and shared by every plan."""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from hilbert_gauss import distributions, inference, processes, regression, sampling
from hilbert_gauss.distributions import f_quantile, norm_quantile, t_quantile
from hilbert_gauss.estimators import est_variance
from hilbert_gauss.harness import ExperimentConfig, run_experiment
from hilbert_gauss.inference import ci_known, ci_unknown, functional_plan
from hilbert_gauss.processes import bridge_model, wiener_model
from hilbert_gauss.regression import DesignOperator, ci_beta_known, ci_beta_unknown, pullback_functional
from hilbert_gauss.sampling import noise_plan
from hilbert_gauss.spectral import PLAN_CACHE_SIZE, HVector, SpectralModel, Subspace

FACTORIES = (
    inference._functional_plan,
    noise_plan,
    regression.design_plan,
    sampling._head,
    regression._pullback,
    regression._hypothesis,
    wiener_model,
    bridge_model,
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
        if name not in ("_hash", "_mask", "_plan"):
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


def test_signed_zeros_hash_equal():
    a, b = HVector([0.0, 1.0]), HVector([-0.0, 1.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    model = SpectralModel([1.0, 0.0, 0.5])
    assert hash(model) == hash(SpectralModel([1.0, -0.0, 0.5]))


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

    tracemalloc.start()
    try:
        start = allocated()
        burst()
        return allocated() - start
    finally:
        tracemalloc.stop()


# The caches are bounded in entries, and each entry keeps its key alive: the
# footprint is PLAN_CACHE_SIZE entries per cache times the size of the keys.
def test_burst_of_distinct_index_subspaces_stays_bounded(cold_caches):
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
    for factory in (inference._functional_plan, noise_plan):
        assert factory.cache_info().currsize == PLAN_CACHE_SIZE
    # Per key: one 64 KiB vector b and the 8 KiB mask of U, shared by the
    # two caches; a burst kept unbounded would hold 8 times as much.
    key_bytes = dim * 8 + dim
    assert used < PLAN_CACHE_SIZE * key_bytes * 1.5, used


def test_burst_of_distinct_frames_stays_bounded(cold_caches):
    dim, rank = 8192, 16
    model = wiener_model(dim)
    y = HVector(np.linspace(-1.0, 1.0, dim))

    def burst():
        for j in range(4 * PLAN_CACHE_SIZE):
            modes = range(rank * j + 1, rank * (j + 1) + 1)
            U = Subspace.from_frame(model, [HVector.basis_vector(dim, k) for k in modes])
            ci_known(HVector.basis_vector(dim, modes[0]), y, model, U, 1.0, 0.05)

    used = footprint_of(burst)
    assert inference._functional_plan.cache_info().currsize == PLAN_CACHE_SIZE
    # Per key: the rank x dim frame (1 MiB) and the 64 KiB vector b; a burst
    # kept unbounded would hold 4 times as much.
    key_bytes = rank * dim * 8 + dim * 8
    assert PLAN_CACHE_SIZE * key_bytes <= used < PLAN_CACHE_SIZE * key_bytes * 1.25, used
