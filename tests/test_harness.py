import concurrent.futures
import dataclasses
import json
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_gauss import Subspace, harness
from hilbert_gauss.harness import (
    CHUNK_SIZE,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ReplicateStreams,
    block_rows,
    derive_stream,
    run_experiment,
    _check,
    _parse_vector,
)


def test_experiment_kinds_frozen():
    assert EXPERIMENT_KINDS == (
        "coverage_known",
        "coverage_unknown",
        "level",
        "unbiasedness",
        "moments",
        "independence",
        "noise_law",
        "risk",
        "learning_curve",
    )
    assert CHUNK_SIZE == 4096


def test_derive_stream_reproducible():
    a = derive_stream(12, 7).normal(size=100)
    b = derive_stream(12, 7).normal(size=100)
    assert np.array_equal(a, b)


def test_derive_stream_distinct():
    base = derive_stream(0, 0).normal(size=4)
    assert derive_stream(0, 1).normal(size=4)[0] != base[0]
    assert derive_stream(1, 0).normal(size=4)[0] != base[0]
    # adjacent replicate streams look independent
    n = 10_000
    x = derive_stream(0, 0).normal(size=n)
    y = derive_stream(0, 1).normal(size=n)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_derive_stream_validation():
    with pytest.raises(ValueError):
        derive_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_stream(0, -1)


STREAM_REPLICATES = (0, 1, 4095, 4096, 2**40, 2**63, 2**64 - 1)


@pytest.mark.parametrize("master_seed", (0, 2**63, 2**64 - 1))
@pytest.mark.parametrize("dim", (1, 3, 5, 256, 300))
def test_replicate_streams_match_derive_stream(master_seed, dim):
    # The rows are drawn one after another through one re-keyed generator,
    # so each row also checks that nothing of the previous stream leaks in.
    streams = ReplicateStreams(master_seed)
    rows = streams.standard_normal_rows(STREAM_REPLICATES, np.empty((len(STREAM_REPLICATES), dim)))
    for replicate, row in zip(STREAM_REPLICATES, rows):
        want = derive_stream(master_seed, replicate).standard_normal(dim)
        assert row.tobytes() == want.tobytes(), replicate
    # Drawing again in reverse order gives the same rows.
    again = streams.standard_normal_rows(STREAM_REPLICATES[::-1], np.empty_like(rows))
    assert again[::-1].tobytes() == rows.tobytes()


def test_replicate_streams_validation():
    with pytest.raises(ValueError):
        ReplicateStreams(-1)
    with pytest.raises(ValueError):
        ReplicateStreams(2**64)


def stream_rows(master_seed, replicates, dim):
    return np.vstack([derive_stream(master_seed, r).standard_normal(dim) for r in replicates])


def test_streams_of_two_seeds_interleave_in_one_thread():
    # Both instances re-key this thread's one generator, block after block,
    # at widths that leave its buffer at different positions.
    a, b = ReplicateStreams(11), ReplicateStreams(2**64 - 1)
    for lo in range(0, 12, 4):
        for seed, streams, dim in ((11, a, 5), (2**64 - 1, b, 300)):
            rows = streams.standard_normal_rows(range(lo, lo + 4), np.empty((4, dim)))
            assert rows.tobytes() == stream_rows(seed, range(lo, lo + 4), dim).tobytes(), (seed, lo)


def test_streams_built_on_one_thread_draw_on_another():
    streams = ReplicateStreams(7)
    streams.standard_normal_rows(range(3), np.empty((3, 9)))  # this thread's generator first
    drawn = []

    def draw():
        drawn.append(streams.standard_normal_rows(STREAM_REPLICATES, np.empty((len(STREAM_REPLICATES), 9))))

    worker = threading.Thread(target=draw)
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive() and len(drawn) == 1
    assert drawn[0].tobytes() == stream_rows(7, STREAM_REPLICATES, 9).tobytes()


def test_report_does_not_depend_on_the_run_before_it():
    # The run between draws another seed at another width, on this thread and helpers.
    config = smoke_config(replicates=300)
    want = run_experiment(config).comparable_json()
    run_experiment(smoke_config(**WIDE_MOMENTS, master_seed=99, replicates=37))
    assert run_experiment(config).comparable_json() == want


def test_block_rows():
    assert block_rows(1) * 8 <= 2**20
    assert block_rows(256) * 256 * 8 <= 2**20
    assert block_rows(2**30) == 1


def smoke_config(**overrides):
    base = {
        "kind": "coverage_known",
        "model": {"basis_id": "wiener", "dim": 64},
        "subspace": [4],
        "b": {"coords": {"4": 1.4142135623730951}},
        "zeta": {"coords": {"4": 0.7}},
        "sigma": 1.0,
        "alpha": 0.05,
        "replicates": 400,
        "master_seed": 5,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_from_dict_sparse_vectors():
    cfg = smoke_config()
    assert cfg.kind == "coverage_known"
    assert cfg.b.coeffs[3] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert cfg.zeta.coeffs[3] == 0.7
    assert cfg.subspace.indices == (4,)


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        smoke_config(flavor="spicy")


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        smoke_config(kind="coverage")


@pytest.mark.parametrize(
    "overrides",
    (
        {"replicates": None},
        {"replicates": 2.7},
        {"replicates": True},
        {"use_tail": "false"},
        {"sigma": float("nan")},
        {"model": {"basis_id": "wiener", "dim": None}},
        {"kind": "learning_curve", "subspace": [1, 2], "b": None, "cutoffs": 5},
        {"zeta": {"coords": {"4": "0.7"}}},
        {"b": {"coords": {"4": True}}},
        {"zeta": {"coeffs": [True] + [0] * 63}},
        {"model": {"eigenvalues": [1.0, 0.5], "tail_trace": None}},
        {"model": {"eigenvalues": [1.0, "0.5"]}},
        {"subspace": [4.7]},
        {"subspace": {"indices": 5}},
        {"model": {"eigenvalues": [1.0, 0.5], "dim": 2.7}, "subspace": [1], "b": [1.0, 0.0], "zeta": [0.7, 0.0]},
        {"model": {"eigenvalues": [1.0, 0.5], "dim": True}},
        {"zeta": {"coords": {"4": 0.7}, "scale": 2.0}},
        {"b": {"coeffs": [0.0] * 64, "coords": {"4": 1.0}}},
    ),
)
def test_config_rejects_wrong_json_types(overrides):
    with pytest.raises(ValueError, match="config field"):
        smoke_config(**overrides)


@pytest.mark.parametrize(
    "spec, field",
    (
        ({"coords": {"2": 1.0}, "scale": 5.0}, "scale"),
        ({"coeffs": [1.0, 0.0, 0.0], "coords": {"2": 9.0}}, "coeffs"),
        ({"coeffs": [1.0, 0.0, 0.0], "scale": 5.0}, "scale"),
        ({"coefs": [1.0, 0.0, 0.0]}, "coefs"),
        # A mode has one spelling, a canonical decimal, and is given once.
        ({"coords": {"3": 1.0, "03": 2.0}}, re.compile("mode must be a decimal integer, got '03'")),
        ({"coords": {" +3 ": 1.0}}, re.compile(r"mode must be a decimal integer, got ' \+3 '")),
        ({"coords": {"1_0": 1.0}}, re.compile("mode must be a decimal integer, got '1_0'")),
        ("3:1.0,3:2.0", re.compile("key '3' given twice")),
    ),
)
def test_parse_vector_refuses_unknown_and_doubled_fields(spec, field):
    # `field` names an unknown or doubled vector field, or is the whole expected message.
    message = field if isinstance(field, re.Pattern) else rf"fields: \['{field}'\]"
    with pytest.raises(ValueError, match=message):
        _parse_vector(spec, 3)


VECTOR_VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(min_value=2**1024),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
VECTOR_LISTS = st.lists(VECTOR_VALUES, max_size=6)
VECTOR_COORDS = st.dictionaries(
    st.one_of(st.integers(-1, 6).map(str), st.text(max_size=2)), VECTOR_VALUES, max_size=4
)
VECTOR_SPECS = st.one_of(
    VECTOR_LISTS,
    st.fixed_dictionaries(
        {}, optional={"coords": st.one_of(VECTOR_COORDS, VECTOR_LISTS), "coeffs": VECTOR_LISTS, "scale": VECTOR_VALUES}
    ),
    VECTOR_VALUES.filter(lambda v: v is not None),
)


@settings(max_examples=150, deadline=None)
@given(spec=VECTOR_SPECS, dim=st.integers(1, 4))
def test_parse_vector_gives_a_finite_vector_or_value_error(spec, dim):
    try:
        vector = _parse_vector(spec, dim)
    except ValueError:
        return
    assert vector.coeffs.shape == (dim,)
    assert np.all(np.isfinite(vector.coeffs))


def test_config_validation_per_kind():
    # kind-specific requirements are enforced when the experiment starts
    with pytest.raises(ValueError, match="functional vector b"):
        run_experiment(smoke_config(b=None))
    with pytest.raises(ValueError, match="subspace0"):
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "kind": "level",
                    "model": {"basis_id": "wiener", "dim": 64},
                    "subspace": [4, 5, 6],
                    "zeta": {"coords": {"4": 0.7}},
                    "replicates": 100,
                }
            )
        )
    with pytest.raises(ValueError):
        run_experiment(smoke_config(zeta={"coords": {"9": 1.0}}))  # mean must lie in U
    with pytest.raises(ValueError):
        # tail trace has no meaning for the projection risk accumulator
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "kind": "risk",
                    "model": {"basis_id": "wiener", "dim": 64},
                    "subspace": [4],
                    "zeta": {"coords": {"4": 0.7}},
                    "replicates": 100,
                    "use_tail": True,
                }
            )
        )
    with pytest.raises(ValueError, match="cutoff"):
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "kind": "learning_curve",
                    "model": {"basis_id": "wiener", "dim": 64},
                    "subspace": [1, 2],
                    "zeta": {"coords": {"1": 0.5}},
                    "cutoffs": [3],
                    "replicates": 100,
                }
            )
        )


FRAME_E4 = {"frame": [[0.0] * 3 + [1.0] + [0.0] * 60]}
COMPLEMENT_TAIL = r"U is a complement; set use_tail false \(--no-tail\)"
COMPLEMENT_123 = {"indices": [1, 2, 3], "complement": True}


@pytest.mark.parametrize(
    "kind, overrides, message",
    (
        *((kind, {"subspace": None}, "needs a subspace") for kind in EXPERIMENT_KINDS if kind != "moments"),
        ("coverage_unknown", {"b": None}, "functional vector b"),
        ("independence", {"b": None}, "functional vector b"),
        ("learning_curve", {"subspace": {"indices": [1, 2], "complement": True}}, "plain index-set"),
        ("learning_curve", {"subspace": FRAME_E4}, "plain index-set"),
        ("learning_curve", {"zeta": None}, "explicit mean"),
        ("coverage_known", {"b": "5:1.0"}, "is not positive"),
        ("coverage_unknown", {"b": "5:1.0"}, "is not positive"),
        ("learning_curve", {"subspace": [1, 2, 3], "zeta": "2:0.5", "cutoffs": []}, "at least one cutoff"),
        ("learning_curve", {"subspace": [], "zeta": "2:0.0"}, "at least one cutoff"),
        ("learning_curve", {"subspace": [1, 2, 3], "zeta": "2:0.5", "cutoffs": [2, 2, 0]}, "cutoff 2 given twice"),
        # An explicit tail would have to lie in the complement of a complement U.
        *((kind, {"subspace": {"indices": [1, 2, 3], "complement": True}, "use_tail": True}, COMPLEMENT_TAIL)
          for kind in ("coverage_unknown", "unbiasedness", "independence")),
        # U holds every truncated mode: the residual is zero whatever the default tail adds.
        *((kind, {"subspace": list(range(1, 65))}, r"over the truncated modes is zero")
          for kind in ("unbiasedness", "independence")),
        ("moments", {"master_seed": -1}, "master_seed must fit in an unsigned 64-bit integer"),
        ("moments", {"master_seed": 2**64}, "master_seed must fit in an unsigned 64-bit integer"),
        # The subspace test needs U minus U0 of finite rank: one message, naming the complement.
        *((kind, {"subspace": COMPLEMENT_123, "subspace0": [4]}, r"^subspace is a complement; the subspace test")
          for kind in ("level", "noise_law")),
        *((kind, {"subspace": [4, 5, 6], "subspace0": COMPLEMENT_123}, r"^subspace0 \(--null-subspace\) is a complement")
          for kind in ("level", "noise_law")),
    ),
)
def test_config_validation_messages_per_kind(monkeypatch, kind, overrides, message):
    # Each message comes before any replicate is drawn or any pool starts.
    def refuse(*args, **kwargs):
        raise AssertionError("validation must come before drawing or pooling")

    monkeypatch.setattr(harness, "ReplicateStreams", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    with pytest.raises(ValueError, match=message):
        run_experiment(smoke_config(kind=kind, **overrides), workers=2)


@pytest.mark.parametrize("kind", ("coverage_unknown", "unbiasedness", "independence", "coverage_known", "noise_law"))
def test_complement_subspace_default_is_no_tail(kind):
    # The analytic tail lies inside a complement U, so tr(Q (I - P_U)) has none: the
    # default's report is the one of use_tail false, its use_tail field included, also
    # for the kinds that read no trace (a report's use_tail is that trace's convention).
    comp = {"indices": [1, 2, 3], "complement": True}
    got = run_experiment(smoke_config(kind=kind, subspace=comp))
    want = run_experiment(smoke_config(kind=kind, subspace=comp, use_tail=False))
    assert got.comparable_json() == want.comparable_json() and got.use_tail is False


def test_complement_tail_is_refused_only_where_a_trace_is_read():
    # coverage_known reads no trace, so an explicit tail over a complement U runs as configured.
    report = run_experiment(smoke_config(subspace={"indices": [1, 2, 3], "complement": True}, use_tail=True))
    assert report.passed and report.use_tail is True


@pytest.mark.parametrize("kind", ("coverage_known", "coverage_unknown"))
def test_complement_subspace_report_says_use_tail_false(kind):
    # With no use_tail, the report over a complement U writes the convention of
    # tr(Q (I - P_U)): false, whether the kind reads that trace or not.
    data = {"kind": kind, "model": "wiener:64", "subspace": COMPLEMENT_123, "b": "4:1.0", "replicates": 200}
    report = run_experiment(ExperimentConfig.from_dict(data))
    assert report.passed and json.loads(report.to_json())["use_tail"] is False


def test_noise_law_head_of_a_long_model_passes():
    # U and U0 lie in the first six of 8192 modes, so the run draws only the head
    # its statistics read; both KS checks hold against the laws of the full model.
    data = {"kind": "noise_law", "model": "wiener:8192", "subspace": [4, 5, 6], "subspace0": [4], "replicates": 20000}
    assert run_experiment(ExperimentConfig.from_dict(data)).passed


def test_dry_run_is_the_only_pre_draw_guard(monkeypatch):
    # A builder that checks nothing still fails before any draw or pool: its
    # apply runs once on an empty block first.
    def unchecked(config):
        def apply(y):
            raise ValueError("no block is accepted")

        return apply, None, config.model.dim, None

    def refuse(*args, **kwargs):
        raise AssertionError("validation must come before drawing or pooling")

    monkeypatch.setitem(harness._KINDS, "moments", (unchecked, ()))
    monkeypatch.setattr(harness, "ReplicateStreams", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    with pytest.raises(ValueError, match="no block is accepted"):
        run_experiment(smoke_config(kind="moments"), workers=2)


WIDE_MOMENTS = {"kind": "moments", "model": {"basis_id": "wiener", "dim": 1024}}


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that runs each task in this process
    and records the worker count it was asked for."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize(
    "replicates, started",
    (
        (400, []),
        (CHUNK_SIZE, []),
        (2 * CHUNK_SIZE + 17, [2]),
        (CHUNK_SIZE + 4, []),
        (CHUNK_SIZE + CHUNK_SIZE // 2, [2]),
        (CHUNK_SIZE + CHUNK_SIZE // 2 - 1, []),
    ),
)
def test_workers_start_one_process_per_chunk_at_most(monkeypatch, replicates, started):
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = smoke_config(replicates=replicates)
    report = run_experiment(config, workers=64)
    # Narrow blocks start min(workers, chunks of at least CHUNK_SIZE // 2)
    # processes, and none when only one chunk is that large.
    assert RecordingPool.started == started
    assert report.comparable_json() == run_experiment(config).comparable_json()


def record_threads(monkeypatch) -> list:
    """The thread count handed to each chunk, with 4 usable CPUs and the
    recording pool in place of processes."""
    handed = []
    run_chunk = harness._run_chunk

    def recording(config, start, count, built=None, threads=1):
        handed.append(threads)
        return run_chunk(config, start, count, built, threads)

    monkeypatch.setattr(harness, "_run_chunk", recording)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return handed


def test_wide_blocks_start_no_process(monkeypatch):
    # Blocks of at most THREAD_ROWS rows run on threads: every chunk runs in
    # this process, on every usable CPU, whatever `workers` allows.
    handed = record_threads(monkeypatch)
    config = smoke_config(**WIDE_MOMENTS, replicates=2 * CHUNK_SIZE)
    assert block_rows(config.model.dim) <= harness.THREAD_ROWS
    run_experiment(config, workers=64)
    assert RecordingPool.started == []
    assert handed == [4, 4]


@pytest.mark.parametrize("replicates, threads", ((400, [1]), (2 * CHUNK_SIZE + 17, [1, 1, 1])))
def test_processes_started_share_the_cpus(monkeypatch, replicates, threads):
    # Narrow blocks run on the calling thread: one chunk at workers=2 in this
    # process, three chunks, two of them full, in the two processes they start.
    handed = record_threads(monkeypatch)
    run_experiment(smoke_config(replicates=replicates), workers=2)
    assert handed == threads


@pytest.mark.parametrize("cpus", (2, 4))
@pytest.mark.parametrize("overrides", ({}, WIDE_MOMENTS), ids=("narrow", "wide"))
def test_workers_give_the_bytes_of_one(monkeypatch, overrides, cpus):
    # Replicate counts that straddle chunk boundaries: a full chunk and a
    # small one, a full chunk and a half one, two full chunks and a small one.
    # At two CPUs a narrow run starts real processes; at four, the chunks run
    # here through the recording stand-in.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    if cpus == 4:
        monkeypatch.setattr(RecordingPool, "started", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for replicates in (CHUNK_SIZE + 4, CHUNK_SIZE + CHUNK_SIZE // 2, 2 * CHUNK_SIZE + 17):
        config = smoke_config(**overrides, replicates=replicates)
        reports = [run_experiment(config, workers=workers).comparable_json() for workers in (1, 2, 3)]
        assert reports[1:] == reports[:1] * 2


def test_learning_curve_default_cutoffs():
    report = run_experiment(
        ExperimentConfig.from_dict(
            {
                "kind": "learning_curve",
                "model": {"basis_id": "wiener", "dim": 64},
                "subspace": [1, 2],
                "zeta": {"coords": {"1": 0.5}},
                "replicates": 200,
                "master_seed": 1,
            }
        )
    )
    names = [row[0] for row in report.check_rows()]
    assert "risk_cutoff_1" in names and "risk_cutoff_2" in names


def test_config_load_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "kind": "moments",
                "model": {"basis_id": "bridge", "dim": 32},
                "zeta": {"coords": {"1": 0.7}},
                "replicates": 250,
                "master_seed": 9,
            }
        )
    )
    cfg = ExperimentConfig.load(path)
    assert cfg.kind == "moments"
    assert cfg.replicates == 250
    assert cfg.master_seed == 9


@pytest.mark.parametrize(
    "field, value",
    (
        ("sigma", np.float32(1.3)),
        ("sigma", np.array(1.3)),
        ("sigma", 1),
        ("alpha", np.float32(0.1)),
        ("replicates", np.int64(10)),
        ("master_seed", np.uint64(2**63 + 5)),
        ("workers", np.int32(1)),
        ("cutoffs", [1, 2]),
        ("cutoffs", (np.int64(1), 2)),
    ),
)
def test_config_built_in_python_holds_python_numbers(field, value):
    # As from_dict gives them: the config hashes and its report writes as JSON.
    config = dataclasses.replace(smoke_config(replicates=10), **{field: value})
    stored = getattr(config, field)
    if field == "cutoffs":  # a tuple of Python ints
        assert stored == (1, 2) and type(stored) is tuple and all(type(c) is int for c in stored)
    else:
        assert stored == value and type(stored) is (float if field in ("sigma", "alpha") else int)
    hash(config)
    data = json.loads(run_experiment(config).to_json())
    if field in ("sigma", "alpha"):
        assert data["config_summary"][field] == stored and type(data["config_summary"][field]) is float
    else:
        assert data.get(field, stored) == stored


@pytest.mark.parametrize(
    "field, value",
    (
        ("replicates", 10.0),
        ("replicates", True),
        ("master_seed", 1.5),
        ("workers", True),
        ("cutoffs", (1.5, 2)),
        ("cutoffs", (True, 2)),
    ),
)
def test_config_counts_must_be_integers(field, value):
    # Refused, not truncated: int(1.5) and int(True) would run as cutoff 1.
    message = "cutoffs must be a list of integers" if field == "cutoffs" else f"{field} must be an integer"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(smoke_config(), **{field: value})


@pytest.mark.parametrize(
    "field, value",
    (
        ("use_tail", "no"),
        ("use_tail", 1),
        ("sigma", True),
        ("sigma", "2"),
        ("sigma", 2**1024),
        ("alpha", "0.1"),
        ("replicates", "5"),
        ("replicates", None),
        ("replicates", 2.7),
        ("workers", None),
        ("workers", True),
        ("cutoffs", 5),
        ("cutoffs", "12"),
    ),
)
def test_config_field_has_one_rule_for_json_and_python(field, value):
    # A JSON config and one built in Python meet the same rule and the same message.
    with pytest.raises(ValueError, match=rf"^config field '{field}': ") as from_json:
        smoke_config(**{field: value})
    with pytest.raises(ValueError) as from_python:
        dataclasses.replace(smoke_config(), **{field: value})
    assert str(from_python.value) == str(from_json.value)


@pytest.mark.parametrize(
    "field, value",
    (
        ("model", "wiener:16"),
        ("model", None),
        ("subspace", [4]),
        ("subspace0", (4,)),
        ("zeta", np.zeros(64)),
        ("b", [0.0] * 64),
        ("b", Subspace.from_indices(64, [4])),
    ),
    ids=("model_name", "model_none", "subspace_list", "subspace0_tuple", "zeta_array", "b_list", "b_subspace"),
)
def test_config_object_field_of_the_wrong_type_is_named(field, value):
    # A config built in Python names the field, before any attribute of the object is read.
    with pytest.raises(ValueError, match=rf"^config field '{field}': expected "):
        dataclasses.replace(smoke_config(), **{field: value})


def test_run_deterministic():
    cfg = smoke_config()
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.comparable_json() == second.comparable_json()
    assert first.kind == "coverage_known"
    assert first.replicates == 400
    assert isinstance(first.passed, bool)
    assert first.passed == all(row[-1] for row in first.check_rows())
    # reseeding moves the estimates
    third = run_experiment(smoke_config(master_seed=6))
    assert third.comparable_json() != first.comparable_json()


def test_run_serial_matches_workers():
    cfg = smoke_config(replicates=2 * CHUNK_SIZE + 17, master_seed=2)
    serial = run_experiment(cfg)
    parallel = run_experiment(cfg, workers=3)
    assert serial.comparable_json() == parallel.comparable_json()


def test_report_json_shape():
    report = run_experiment(smoke_config())
    data = json.loads(report.to_json())
    for key in ("kind", "passed", "estimates", "targets", "checks", "master_seed"):
        assert key in data
    for target in data["targets"].values():
        assert target["provenance"] in ("analytic", "closed-form", "oracle")
    for row in data["checks"]:
        assert row["sided"] in ("two", "lower", "upper")
    assert "runtime_seconds" not in report.comparable_json()


def test_stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    run_experiment(smoke_config(replicates=50), stream_path=path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "replicate"
    assert header[1:] == sorted(header[1:])
    assert len(lines) == 51


def test_stream_csv_has_the_bytes_of_the_row_loop(tmp_path):
    def row_loop(arrays):
        keys = sorted(arrays)
        columns = [np.asarray(arrays[k], dtype=float) for k in keys]
        text = "replicate," + ",".join(keys) + "\n"
        for i in range(columns[0].size):
            text += str(i) + "," + ",".join(repr(float(col[i])) for col in columns) + "\n"
        return text

    rng = np.random.default_rng(3)
    odd = [0.0, -0.0, 0.1, 1e16, -1e-300, 5e-324, np.inf, -np.inf, np.nan, 2.0**53 + 2]
    arrays = {
        "z": np.concatenate([odd, rng.standard_normal(200)]),
        "covered": np.arange(210) % 3 == 0,
        "m": np.arange(210) - 7,
    }
    path = tmp_path / "stream.csv"
    harness._write_stream(path, arrays)
    assert path.read_bytes() == row_loop(arrays).encode()


def test_check_sidedness():
    assert _check("x", 1.0, 1.0, 0.0, "two")["passed"]
    assert not _check("x", 1.1, 1.0, 0.05, "two")["passed"]
    assert _check("x", 0.97, 0.95, 0.0, "lower")["passed"]
    assert not _check("x", 0.90, 0.95, 0.01, "lower")["passed"]
    assert _check("x", 0.04, 0.05, 0.0, "upper")["passed"]
    assert not _check("x", 0.08, 0.05, 0.01, "upper")["passed"]
    with pytest.raises(ValueError):
        _check("x", 0.0, 0.0, 0.0, "sideways")
    # absolute floor keeps exact-zero tolerances from failing on rounding
    row = _check("x", 1.0 + 1e-13, 1.0, 0.0, "two")
    assert row["passed"]


def test_all_kinds_run_small():
    dim = 64
    model = {"basis_id": "wiener", "dim": dim}
    b = {"coords": {"4": 1.4142135623730951}}
    zeta = {"coords": {"4": 0.7}}
    configs = {
        "coverage_known": {"subspace": [4], "b": b, "zeta": zeta},
        "coverage_unknown": {"subspace": [4], "b": b, "zeta": zeta},
        "level": {"subspace": [4, 5, 6], "subspace0": [4], "zeta": zeta},
        "unbiasedness": {"subspace": [4], "b": b, "zeta": zeta},
        "moments": {"zeta": {"coords": {"1": 0.7}}},
        "independence": {"subspace": [4], "b": b, "zeta": zeta},
        "noise_law": {"subspace": [4, 5, 6], "subspace0": [4], "zeta": zeta},
        "risk": {"subspace": [4], "zeta": zeta},
        "learning_curve": {"subspace": [2, 5, 9], "zeta": {"coords": {"2": 0.9}}, "cutoffs": [0, 1, 3]},
    }
    for kind, extra in configs.items():
        cfg = ExperimentConfig.from_dict(
            {"kind": kind, "model": model, "replicates": 300, "master_seed": 3, **extra}
        )
        report = run_experiment(cfg)
        assert report.kind == kind
        assert report.checks, f"{kind} produced no checks"
