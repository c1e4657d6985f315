"""The batched chunk runner against a per-replicate reference loop.

The reference draws replicate i as `sample(law, derive_stream(seed, i))`
and evaluates the public single-observation functions on it; the runner's
per-replicate values, read back from its `--stream` CSV, must agree: flags
exactly, floats to 1e-12 relative.
"""

import dataclasses
import gc
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hilbert_gauss import harness, inference, sampling
from hilbert_gauss.estimators import est_functional, est_mean, est_variance, risk_partial
from hilbert_gauss.harness import CHUNK_SIZE, ExperimentConfig, ReplicateStreams, _add_rows, block_rows, derive_stream, run_experiment
from hilbert_gauss.processes import bridge_model, custom_model, wiener_model
from hilbert_gauss.sampling import GaussianLaw, noise_plan, sample
from hilbert_gauss.spectral import HVector, Subspace, default_use_tail, inner

REL_TOL = 1e-12
STREAM_KINDS = (
    "coverage_known",
    "coverage_unknown",
    "level",
    "unbiasedness",
    "moments",
    "independence",
    "noise_law",
    "risk",
)


def read_stream(path) -> dict:
    lines = path.read_text().strip().splitlines()
    keys = lines[0].split(",")[1:]
    rows = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return {key: rows[:, j] for j, key in enumerate(keys)}


def reference(config: ExperimentConfig) -> dict:
    """Per-replicate values of one config from the public scalar functions, and
    from the noise plan one observation at a time."""
    model, U, U0, b = config.model, config.subspace, config.subspace0, config.b
    zeta = config.zeta if config.zeta is not None else HVector.zero(model.dim)
    law = GaussianLaw(model, zeta, config.sigma)
    use_tail = False if config.kind == "risk" else (
        default_use_tail(model) if config.use_tail is None else config.use_tail
    )
    out = {}

    def put(key, value):
        out.setdefault(key, []).append(float(value))

    for i in range(config.replicates):
        y = sample(law, derive_stream(config.master_seed, i))
        kind = config.kind
        if kind == "coverage_known":
            put("covered", inference.ci_known(b, y, model, U, config.sigma, config.alpha).covers(inner(b, zeta)))
        elif kind == "coverage_unknown":
            interval = inference.ci_unknown(b, y, model, U, config.alpha, use_tail=use_tail)
            put("covered", interval.covers(inner(b, zeta)))
        elif kind == "level":
            put("rejects", inference.test_subspace(y, model, U, U0, config.alpha).reject)
        elif kind == "unbiasedness":
            put("s2", est_variance(y, model, U, use_tail=use_tail))
        elif kind == "moments":
            put("norm_sq", y.norm_sq())
        elif kind == "independence":
            put("functional", est_functional(b, y, U))
            put("s2", est_variance(y, model, U, use_tail=use_tail))
        elif kind == "noise_law":
            put("s_stat", noise_plan(model, U, None).leading_norm_sq(y.coeffs, config.sigma))
            if U0 is not None:
                put("t_stat", noise_plan(model, U, U0).whitened_norm_sq(y.coeffs, config.sigma))
        elif kind == "risk":
            put("mean_err", (est_mean(y, U) - zeta).norm_sq())
            put("s2_err", (est_variance(y, model, U, use_tail=False) - config.sigma**2) ** 2)
    return {key: np.array(values) for key, values in out.items()}


def assert_stream_matches(config: ExperimentConfig, path) -> None:
    run_experiment(config, stream_path=path)
    got = read_stream(path)
    want = reference(config)
    assert sorted(got) == sorted(want)
    for key, values in want.items():
        if key in ("covered", "rejects"):
            assert np.array_equal(got[key], values), key
        else:
            np.testing.assert_allclose(got[key], values, rtol=REL_TOL, atol=0.0, err_msg=key)


@st.composite
def index_configs(draw, kind):
    dim = draw(st.integers(4, 20))
    if draw(st.booleans()):
        model = wiener_model(dim)
    else:
        eig = draw(st.lists(st.floats(0.05, 2.0), min_size=dim, max_size=dim, unique=True))
        model = custom_model(eig)
    nested = kind in ("level", "noise_law")
    modes = draw(st.permutations(range(1, dim + 1)))
    size = draw(st.integers(2 if nested else 1, dim - 1))
    U_idx = sorted(modes[:size])
    U0_idx = sorted(modes[: draw(st.integers(1, size - 1))]) if nested else None
    coeff = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3)

    def vector_on(indices):
        coeffs = np.zeros(dim)
        for k in indices:
            coeffs[k - 1] = draw(coeff)
        return HVector(coeffs)

    return ExperimentConfig(
        kind=kind,
        model=model,
        subspace=Subspace.from_indices(dim, U_idx),
        subspace0=Subspace.from_indices(dim, U0_idx) if nested else None,
        zeta=vector_on(U0_idx if kind == "level" else U_idx),
        b=vector_on(U_idx),
        sigma=draw(st.floats(0.3, 2.0)),
        alpha=draw(st.floats(0.01, 0.3)),
        replicates=draw(st.integers(1, 40)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


@pytest.mark.parametrize("kind", STREAM_KINDS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stream_matches_scalar_loop(kind, data, tmp_path):
    config = data.draw(index_configs(kind))
    assert_stream_matches(config, tmp_path / "stream.csv")


def frame_config(kind: str) -> ExperimentConfig:
    """A frame subspace U = span{(e1 + e2)/sqrt(2), e3} inside the doubled
    leading eigenvalue, with U0 the first frame vector."""
    model = custom_model([2.0, 2.0, 1.0, 0.5, 0.25, 0.125])
    f1 = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
    e3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    U = Subspace.from_frame(model, [f1, e3])
    U0 = Subspace.from_frame(model, [f1])
    zeta = 0.7 * f1 if kind == "level" else 0.7 * f1 - 0.4 * e3
    return ExperimentConfig(
        kind=kind,
        model=model,
        subspace=U,
        subspace0=U0 if kind == "level" else None,
        zeta=HVector(zeta),
        b=HVector(np.array([1.0, 0.5, 0.3, 0.0, 0.0, 0.0])),
        sigma=0.8,
        replicates=60,
        master_seed=2**63 + 5,
    )


@pytest.mark.parametrize(
    "kind", ("coverage_known", "coverage_unknown", "level", "unbiasedness", "independence", "risk")
)
def test_frame_stream_matches_scalar_loop(kind, tmp_path):
    assert_stream_matches(frame_config(kind), tmp_path / "stream.csv")


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_stream_across_row_blocks(kind, tmp_path):
    # Three rows fit in no block at this dimension, so seven replicates
    # span four blocks, the last one partial.
    dim = 16384 // 3 + 1
    assert block_rows(dim) < 3
    nested = kind in ("level", "noise_law")
    config = ExperimentConfig(
        kind=kind,
        model=wiener_model(dim),
        subspace=Subspace.from_indices(dim, [4, 5, 6] if nested else [4]),
        subspace0=Subspace.from_indices(dim, [4]) if nested else None,
        zeta=HVector.basis_vector(dim, 4, scale=0.7),
        b=HVector.basis_vector(dim, 4, scale=np.sqrt(2.0)),
        replicates=7,
        master_seed=11,
    )
    assert_stream_matches(config, tmp_path / "stream.csv")


def test_learning_curve_matches_scalar_loop():
    dim = 12
    model = wiener_model(dim)
    order = [3, 1, 7, 2]
    zeta = np.zeros(dim)
    zeta[[2, 0, 6]] = [0.9, -0.4, 0.3]
    config = ExperimentConfig(
        kind="learning_curve",
        model=model,
        subspace=Subspace.from_indices(dim, order),
        zeta=HVector(zeta),
        sigma=1.2,
        replicates=300,
        master_seed=4,
    )
    report = run_experiment(config)
    law = GaussianLaw(model, HVector(zeta), config.sigma)
    indices = config.subspace.indices
    draws = [sample(law, derive_stream(config.master_seed, i)) for i in range(config.replicates)]
    for c in range(1, len(indices) + 1):
        head = Subspace.from_indices(dim, indices[:c])
        errs = [(est_mean(y, head) - HVector(zeta)).norm_sq() for y in draws]
        assert report.estimates[f"risk_cutoff_{c}"] == pytest.approx(np.mean(errs), rel=REL_TOL)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 3, 64, 257, 1024, 8192)),
    bridge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(1e-3, 1e3),
)
@example(dim=8192, bridge=False, seed=0, sigma=1.0)
@example(dim=257, bridge=True, seed=1, sigma=0.01)
def test_head_risks_are_risk_partial(dim, bridge, seed, sigma):
    # Bit for bit: a dense mean on U with entries of either sign from 1e-8 to
    # 1e8, some of them -0.0, and unsorted cutoffs with 0 and |U| possible;
    # at dim 257 and up, |U| may exceed a row block (63, 16, 2 rows).
    rng = np.random.default_rng(seed)
    model = (bridge_model if bridge else wiener_model)(dim)
    size = int(rng.integers(1, min(dim, 300) + 1))
    idx = sorted((rng.choice(dim, size, replace=False) + 1).tolist())
    values = rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    zeta = np.zeros(dim)
    zeta[np.array(idx) - 1] = np.where(rng.random(size) < 0.2, -0.0, values)
    cutoffs = rng.permutation(size + 1)[: int(rng.integers(1, size + 2))].tolist()
    config = ExperimentConfig(kind="learning_curve", model=model, subspace=Subspace.from_indices(dim, idx),
                              zeta=HVector(zeta), sigma=sigma)
    got = np.array(harness._head_risks(config, np.array(idx) - 1, cutoffs))
    want = np.array([risk_partial(model, Subspace.from_indices(dim, idx[:c]), HVector(zeta), sigma).risk
                     for c in cutoffs])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_head_risks_stay_in_row_blocks():
    # 2048 cutoffs at dim 8192: one cutoffs x dim array would take 128 MiB.
    dim, size = 8192, 2048
    zeta = np.zeros(dim)
    zeta[:size] = np.linspace(-1.0, 1.0, size)
    config = ExperimentConfig(kind="learning_curve", model=wiener_model(dim),
                              subspace=Subspace.from_indices(dim, range(1, size + 1)), zeta=HVector(zeta))
    order, cutoffs = np.arange(size), list(range(1, size + 1))
    tracemalloc.start()
    try:
        harness._head_risks(config, order, cutoffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * harness.BLOCK_DOUBLES * 8  # 768 KiB


# ---------------------------------------------------------------------------
# draw width: a kind draws and evaluates modes 1..width of each replicate


@pytest.mark.parametrize("width", (1, 4, 5, 17, 300))
def test_rows_are_stream_prefixes(width):
    # Philox is counter-based and numpy's ziggurat reads the stream in order,
    # so a narrow row is the head of the full draw: every draw of a narrow
    # kind stays the draw of derive_stream.
    seed = 2**63 + 5
    rows = ReplicateStreams(seed).standard_normal_rows(range(50), np.empty((50, width)))
    for i, row in enumerate(rows):
        assert np.array_equal(row, derive_stream(seed, i).standard_normal(300)[:width])


@pytest.mark.filterwarnings("error")
def test_one_pass_rows_are_the_rekeyed_rows(monkeypatch):
    # A tall narrow block is drawn in one pass over its rows, and the rows with
    # a draw off numpy's ziggurat fast path are drawn again: every row keeps
    # the re-keyed generator's bits.  Replicates up to 2**64 - 1 and the seed
    # 2**64 - 1 make the Philox key words wrap as the rounds bump them; a
    # block one row short of the floor takes the re-keyed path whole.
    rekeyed, redrawn = ReplicateStreams._rekeyed_rows, []

    def spy(self, replicates, out):
        redrawn.append(len(out))
        return rekeyed(self, replicates, out)

    monkeypatch.setattr(ReplicateStreams, "_rekeyed_rows", spy)
    floor, tall, rows = harness._ONE_PASS_ROWS, 3000, 0
    for seed in (0, 1003, 2**64 - 1):
        streams = ReplicateStreams(seed)
        for width in range(1, harness._ONE_PASS_WIDTH + 1):
            for count in (floor - 1, floor, tall):
                for start in (0, 2**64 - count):
                    replicates = range(start, start + count)
                    expected = rekeyed(streams, replicates, np.empty((count, width)))
                    redrawn.clear()
                    # A list of replicates, as well as a range, is read as uint64 keys.
                    got = streams.standard_normal_rows(list(replicates) if start else replicates, np.empty((count, width)))
                    assert got.tobytes() == expected.tobytes(), (seed, width, count, start)
                    if count < floor:
                        assert redrawn == [count]
                    else:
                        assert len(redrawn) == 1 and 0 < redrawn[0] < count / 4, (seed, width, count, start)
                    rows += count
    assert rows >= 100_000


def _elf_symbols(elf: bytes, names) -> dict:
    """The bytes of each named symbol of a little-endian ELF64 object file."""
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    sections = [struct.unpack_from("<IIQQQQII", elf, shoff + i * shentsize) for i in range(shnum)]
    found = {}
    for _, kind, _, _, offset, size, link, _ in sections:
        if kind != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link][4]
        for entry in range(offset, offset + size, 24):
            name, _, _, shndx, value, length = struct.unpack_from("<IBBHQQ", elf, entry)
            name = elf[strtab + name: elf.index(b"\0", strtab + name)].decode()
            if name in names:
                start = sections[shndx][4] + value
                found[name] = elf[start: start + length]
    return found


def test_ziggurat_tables_are_numpys():
    # The committed tables are wi_double and ki_double of the static library
    # of numpy's distributions, found by symbol in each of its object files.
    path = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
    if not os.path.isfile(path):
        pytest.skip("this numpy ships no libnpyrandom.a")
    with open(path, "rb") as fh:
        archive = fh.read()
    assert archive.startswith(b"!<arch>\n")
    symbols, at = {}, 8
    while at + 60 <= len(archive):
        size = int(archive[at + 48: at + 58])
        member = archive[at + 60: at + 60 + size]
        if member.startswith(b"\x7fELF\x02\x01"):
            symbols.update(_elf_symbols(member, ("wi_double", "ki_double")))
        at += 60 + size + size % 2
    wi, ki = harness._ziggurat_tables()
    assert symbols == {"wi_double": wi.tobytes(), "ki_double": ki.tobytes()}


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(((4096, 1), (2048, 8), (3, 2), (64, 256), (2, 8192), (2, 2))),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.5),
)
def test_add_rows_is_the_row_loop(shape, seed, zeros):
    # Bit for bit, on tall and wide blocks: entries of either sign from 1e-8
    # to 1e8, some of them -0.0, onto a nonzero total.
    rng = np.random.default_rng(seed)

    def entries(size):
        x = rng.choice((-1.0, 1.0), size=size) * 10.0 ** rng.uniform(-8.0, 8.0, size=size)
        return np.where(rng.random(size) < zeros, -0.0, x)

    start, values = entries(shape[1:]), entries(shape)
    total, expected = start.copy(), start.copy()
    _add_rows(total, values)
    for row in values:
        expected += row
    assert np.array_equal(total.view(np.uint64), expected.view(np.uint64))


# The acceptance suite's configs of the kinds that read a few leading modes,
# with the highest mode each reads.
NARROW = {"coverage_known": 4, "noise_law": 6, "learning_curve": 8}


def acceptance_config(kind: str, dim: int, replicates: int) -> ExperimentConfig:
    data = {"kind": kind, "model": f"wiener:{dim}", "subspace": [4], "b": "4:" + repr(2.0**0.5), "zeta": "4:0.7"}
    if kind in ("level", "noise_law"):
        data.update(subspace=[4, 5, 6], subspace0=[4], sigma=1.7 if kind == "noise_law" else 1.0)
        del data["b"]
    elif kind == "learning_curve":
        data.update(subspace=list(range(1, 9)))
        del data["b"]
    elif kind == "moments":
        data = {"kind": kind, "model": f"wiener:{dim}"}
    return ExperimentConfig.from_dict({**data, "replicates": replicates, "master_seed": 1003})


@pytest.mark.parametrize("kind", NARROW)
def test_narrow_kinds_are_truncation_invariant(kind):
    # The model is infinite-dimensional; its truncation past the modes a
    # statistic reads changes nothing in the report.
    small, large = (run_experiment(acceptance_config(kind, dim, 2 * CHUNK_SIZE + 17)) for dim in (64, 8192))
    for name in ("estimates", "standard_errors", "targets", "checks"):
        assert getattr(small, name) == getattr(large, name), name


def draw_widths(monkeypatch) -> set:
    """The widths of the rows drawn from now on."""
    widths = set()
    real = ReplicateStreams.standard_normal_rows

    def spy(self, replicates, out):
        widths.add(out.shape[1])
        return real(self, replicates, out)

    monkeypatch.setattr(ReplicateStreams, "standard_normal_rows", spy)
    return widths


@pytest.mark.parametrize("kind, width", NARROW.items())
def test_narrow_kinds_draw_their_width(monkeypatch, kind, width):
    widths = draw_widths(monkeypatch)
    run_experiment(acceptance_config(kind, 8192, 500))
    assert widths == {width}


@pytest.mark.parametrize(
    "kind", ("coverage_unknown", "level", "unbiasedness", "moments", "independence", "risk", "frame_coverage_known")
)
def test_residual_and_frame_kinds_draw_every_mode(monkeypatch, kind):
    config = frame_config("coverage_known") if kind == "frame_coverage_known" else acceptance_config(kind, 64, 50)
    widths = draw_widths(monkeypatch)
    run_experiment(config)
    assert widths == {config.model.dim}


@pytest.mark.parametrize("frame", ("subspace", "subspace0"))
def test_noise_law_on_a_frame_raises_before_any_draw(monkeypatch, frame):
    # The leading eigenspace (frame U) and the whitening (frame U0) are read
    # off index sets; either error comes before a replicate is drawn.
    config = frame_config("noise_law")
    if frame == "subspace0":
        U0 = frame_config("level").subspace0
        config = dataclasses.replace(config, subspace=Subspace.from_indices(6, [1, 2, 3]), subspace0=U0)
    widths = draw_widths(monkeypatch)
    with pytest.raises(ValueError, match="index-set subspaces"):
        run_experiment(config)
    assert widths == set()


@pytest.mark.parametrize("subspace", ("complement", "frame"))
def test_unbiasedness_sums_are_worker_invariant(subspace):
    # unbiasedness sums every mode of a complement or frame U; over three
    # chunks, the last one partial, the sums do not depend on the workers.
    config = frame_config("unbiasedness")
    if subspace == "complement":
        config = dataclasses.replace(config, subspace=Subspace.from_indices(6, [4, 5, 6]).complement())
    config = dataclasses.replace(config, replicates=2 * CHUNK_SIZE + 17)
    serial, parallel = (run_experiment(config, workers=workers) for workers in (1, 3))
    assert serial.comparable_json() == parallel.comparable_json()


# ---------------------------------------------------------------------------
# threads: wide blocks run on threads, each owning a stripe of blocks


def thread_starts(monkeypatch) -> list:
    """The threads started from now on, with four usable CPUs."""
    started = []
    real = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    return started


@pytest.mark.parametrize(
    "kind, dim",
    (*((kind, 256) for kind in ("coverage_unknown", "level", "unbiasedness", "moments", "independence", "risk")),
     *((kind, 8192) for kind in NARROW)),
)
def test_narrow_blocks_start_no_thread(monkeypatch, kind, dim):
    # Blocks of more than THREAD_ROWS rows stay on the calling thread: the
    # per-row re-key holds the GIL, and threads made them slower.
    started = thread_starts(monkeypatch)
    run_experiment(acceptance_config(kind, dim, 500))
    assert started == []


def test_wide_blocks_run_on_threads(monkeypatch):
    started = thread_starts(monkeypatch)
    run_experiment(acceptance_config("moments", 1024, 500))
    assert 1 <= len(started) <= 4


@pytest.mark.parametrize("cpus, helpers", ((1, 0), (2, 1), (4, 3)))
def test_wide_chunk_starts_one_helper_per_other_cpu(monkeypatch, cpus, helpers):
    # The calling thread draws its own stripe of the 32 blocks, so a chunk
    # starts one thread fewer than it may use.
    started = thread_starts(monkeypatch)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    run_experiment(acceptance_config("moments", 1024, 500), workers=1)
    assert len(started) == helpers


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("on_caller", (False, True))
def test_block_error_propagates_and_every_thread_ends(monkeypatch, on_caller):
    # The caller raises only once the helper has filled its queue and waits
    # on it, so the hand-off must drain that queue to let the helper end.
    build = harness._KINDS["moments"][0]
    helper_blocks = []
    queue_full = threading.Event()

    def failing(config):
        apply, aggregate, width, law = build(config)

        def wrapped(y):
            if not y.shape[0]:  # the dry run on an empty block, before any thread starts
                return apply(y)
            if threading.current_thread() is threading.main_thread():
                if on_caller:
                    queue_full.wait(10.0)
                    raise BlockFailed("the caller's block failed")
            else:
                helper_blocks.append(y.shape[0])
                if not on_caller:
                    raise BlockFailed("a helper's block failed")
                if len(helper_blocks) == 3:  # two outputs queued, the third waits for room
                    queue_full.set()
            return apply(y)

        return wrapped, aggregate, width, law

    monkeypatch.setitem(harness._KINDS, "moments", (failing, harness._KINDS["moments"][1]))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    want = "the caller's block failed" if on_caller else "a helper's block failed"
    with pytest.raises(BlockFailed, match=want):
        run_experiment(acceptance_config("moments", 1024, 500), workers=1)
    assert threading.active_count() == before
    assert helper_blocks


def complement_config(kind: str) -> ExperimentConfig:
    """frame_config's model with U the complement of modes 4..6, no U0 and the mean 0.7 e1."""
    return dataclasses.replace(
        frame_config(kind),
        subspace=Subspace.from_indices(6, [4, 5, 6]).complement(),
        subspace0=None,
        zeta=HVector.basis_vector(6, 1, scale=0.7),
    )


FRAME_KINDS = ("coverage_known", "coverage_unknown", "level", "unbiasedness", "independence", "risk")
APPLY_CASES = (
    *((kind, "index") for kind in harness.EXPERIMENT_KINDS),
    *((kind, "frame") for kind in FRAME_KINDS),
    *((kind, "complement") for kind in STREAM_KINDS if kind != "level"),  # the subspace test takes no complement U
)


def applied(kind: str, subspace: str, readonly: bool = False):
    """(block, outputs) of one kind's apply on a block of 8 replicates, and
    the attribute names (with the keys of dict attributes) of every plan
    before and after apply; a read-only block refuses every write."""
    config = {"index": lambda: acceptance_config(kind, 64, 8), "frame": lambda: frame_config(kind),
              "complement": lambda: complement_config(kind)}[subspace]()
    inference._functional_plan.cache_clear()  # fresh plans: no constant left by an earlier run
    sampling.noise_plan.cache_clear()
    apply, _, width, law = harness._build(config)
    y = law.from_normals(ReplicateStreams(3).standard_normal_rows(range(8), np.empty((8, width))))
    y.flags.writeable = not readonly

    def attributes(plan):
        return {name: sorted(value) if isinstance(value, dict) else None for name, value in vars(plan).items()}

    plans = [p for p in gc.get_objects() if isinstance(p, sampling.Plan)]
    before = [attributes(p) for p in plans]
    outputs = apply(y)
    return y, outputs, before, [attributes(p) for p in plans]


@pytest.mark.parametrize("kind, subspace", sorted(APPLY_CASES))
def test_apply_adds_nothing_to_a_plan(kind, subspace):
    # The builder makes every constant; threads running apply only read the plans.
    _, _, before, after = applied(kind, subspace)
    assert after == before


@pytest.mark.parametrize("kind, subspace", sorted(APPLY_CASES))
def test_no_output_aliases_its_block(kind, subspace):
    # A helper thread draws into its buffer again while the block's outputs
    # wait in its queue.
    y, outputs, _, _ = applied(kind, subspace)
    for key, values in outputs.items():
        assert not np.shares_memory(values, y), key


@pytest.mark.parametrize("kind, subspace", sorted(APPLY_CASES))
def test_apply_never_writes_its_block(kind, subspace):
    # A write into the read-only block raises, so members of a group could
    # share one scaled block; the outputs are those of a writable one.
    y, outputs, _, _ = applied(kind, subspace, readonly=True)
    assert not y.flags.writeable
    _, want, _, _ = applied(kind, subspace)
    assert sorted(outputs) == sorted(want)
    for key, values in want.items():
        assert np.array_equal(outputs[key], values), key
