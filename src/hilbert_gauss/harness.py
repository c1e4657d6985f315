"""Monte Carlo experiment runner producing reproducible verification reports.

Each experiment draws `replicates` independent observations, one per
replicate-indexed random stream, evaluates the construction under test, and
compares the aggregate against its analytic target.  Two-sided checks use a
three-standard-error tolerance; one-sided (conservative) claims use the same
margin on the bounded side only.  A report is deterministic given its
configuration, including the master seed: rerunning, or running the
replicates concurrently, reproduces it byte for byte apart from the runtime
field.
"""

from __future__ import annotations

import binascii
import json
import os
import queue
import re
import threading
import time
from contextlib import suppress
from contextvars import copy_context
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from .estimators import risk_mean, variance_est_risk
from .distributions import _check_positive, _check_prob, gamma_cdf, ks_critical_value, ks_statistic
from .inference import _denominator_tail, functional_plan
from .processes import Grid, bridge_model, coeffs_from_trajectory, wiener_model
from .sampling import GaussianLaw, noise_plan, norm_sq_moments
from .spectral import PLAN_CACHE_SIZE, HVector, SpectralModel, Subspace, default_use_tail, inner, project, row_inner
from .spectral import _count, _integer, _real

# Replicates per work unit; chunk boundaries are fixed by the replicate
# count alone so serial and concurrent runs reduce identically.
CHUNK_SIZE = 4096

DEFAULT_REPLICATES = 100_000
DEFAULT_MODEL_DIM = 256


def derive_stream(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent, reproducible random stream for one replicate.

    Counter-based keying: the 128-bit stream key is the master seed in the
    high word and the replicate index in the low word, so stream creation
    is O(1) and distinct indices give statistically independent streams.
    """
    master_seed = _check_u64(master_seed, "master_seed")
    replicate = _check_u64(replicate, "replicate index")
    return np.random.Generator(np.random.Philox(key=(master_seed << 64) | replicate))


def _check_u64(value, what: str) -> int:
    value = _integer(value, f"{what} must be an integer")
    if not 0 <= value < 2**64:
        raise ValueError(f"{what} must fit in an unsigned 64-bit integer")
    return value


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment."""

    kind: str
    model: SpectralModel
    subspace: Subspace | None = None
    subspace0: Subspace | None = None
    zeta: HVector | None = None
    b: HVector | None = None
    sigma: float = 1.0
    alpha: float = 0.05
    replicates: int = DEFAULT_REPLICATES
    master_seed: int = 0
    use_tail: bool | None = None
    cutoffs: tuple | None = None
    workers: int = 1

    def __post_init__(self):
        # One rule per field, JSON or Python; a plain scalar is stored, so the config hashes and writes as JSON.
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name, cls in _OBJECT_FIELDS.items():  # all but the model may be None
            if not isinstance(value := getattr(self, name), cls) and (value is not None or name == "model"):
                raise ValueError(f"config field {name!r}: expected {cls.__name__}, got {type(value).__name__}")
        for name, rule in _FIELD_RULES.items():
            object.__setattr__(self, name, _named(f"config field {name!r}", rule, getattr(self, name), name))
        _named("config field 'use_tail'", default_use_tail, self.model, self.use_tail)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"an experiment config must be a JSON object, not {type(data).__name__}")
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise ValueError("experiment config needs a 'kind'")

        def spec(key, parse, arg):
            return _named(f"config field {key!r}", parse, data.pop(key, None), arg)

        model = spec("model", _parse_model, DEFAULT_MODEL_DIM)
        subspace = spec("subspace", _parse_subspace, model)
        subspace0 = spec("subspace0", _parse_subspace, model)
        zeta = spec("zeta", _parse_vector, model.dim)
        b = spec("b", _parse_vector, model.dim)
        _check_fields(data, [f.name for f in fields(cls)], "config")  # the parsed fields are popped
        return cls(kind=kind, model=model, subspace=subspace, subspace0=subspace0, zeta=zeta, b=b, **data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# JSON input checks, shared by the config and the input parsers below


def _read_json(path):
    """The JSON content of the file at `path`; an object naming a key twice is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"cannot read {str(path)!r}: {exc}") from exc


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} given twice")
        data[key] = value
    return data


def _check_fields(data: dict, allowed, what: str) -> None:
    """Refuse mapping keys outside `allowed`, so a misspelled field is not dropped."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown, key=str)}")


def _cutoffs(value, name: str) -> tuple | None:
    if value is not None and not isinstance(value, (list, tuple)):
        raise ValueError(f"cutoffs must be a list of integers, got {value!r}")
    return None if value is None else tuple(_integer(c, "cutoffs must be a list of integers") for c in value)


# The class of each object config field.
_OBJECT_FIELDS = {"model": SpectralModel, "subspace": Subspace, "subspace0": Subspace, "zeta": HVector, "b": HVector}
# The rule of each scalar config field but use_tail, which default_use_tail checks:
# rule(value, name) is the value as the config stores it, or a ValueError.
_FIELD_RULES = {
    "sigma": _check_positive,
    "alpha": _check_prob,
    "replicates": _count,
    "master_seed": _check_u64,
    "cutoffs": _cutoffs,
    "workers": _count,
}


def _named(label: str, parse, spec, arg):
    """parse(spec, arg), with `label` (a config field or a CLI option) named in its ValueError."""
    try:
        return parse(spec, arg)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# input parsers: one per input kind, for config fields and CLI options alike,
# and the only readers of these formats in the package


def _file_or(spec, inline):
    """A string spec as data: the JSON object or list in the file it names, else its
    inline form inline(spec).  A file's content takes the same branches as a config value."""
    if not isinstance(spec, str):
        return spec
    data = _read_json(spec) if os.path.isfile(spec) else inline(spec)
    if not isinstance(data, (dict, list)):
        raise ValueError(f"{spec!r} must hold a JSON object or list, not {data!r}")
    return data


def _decimal(text, what: str) -> int:
    """A canonical decimal integer (no sign, space, underscore or leading zero): one spelling per mode."""
    if isinstance(text, str) and text.isascii() and text.isdigit() and str(int(text)) == text:
        return int(text)
    raise ValueError(f"{what} must be a decimal integer, got {text!r}")


def _inline_model(spec: str) -> dict:
    name, colon, count = spec.partition(":")
    if not colon:
        raise ValueError(f"no model file {spec!r}")
    return {"basis_id": name, "dim": _decimal(count, "mode count")}


def _parse_model(spec, default_dim: int) -> SpectralModel:
    """Model from a file, `wiener:<n>`/`bridge:<n>`, or a mapping: explicit
    `eigenvalues` (with optional `tail_trace`, `basis_id` and `dim`), or a
    built-in spectrum by `basis_id` and `dim`.  Bool or string numbers are refused."""
    if spec is None:
        return wiener_model(default_dim)
    spec = _file_or(spec, _inline_model)
    if not isinstance(spec, dict):
        raise ValueError("model spec must be a path, a name or a mapping")
    if "eigenvalues" in spec:
        _check_fields(spec, ("dim", "eigenvalues", "tail_trace", "basis_id"), "model")
        model = SpectralModel(spec["eigenvalues"], spec.get("tail_trace", 0.0), spec.get("basis_id", "abstract"))
        if "dim" in spec and _integer(spec["dim"], "model dim must be an integer") != model.dim:
            raise ValueError("model dim does not match the eigenvalue count")
        return model
    _check_fields(spec, ("basis_id", "dim"), "model")
    basis_id = spec.get("basis_id", "abstract")
    if basis_id not in ("wiener", "bridge"):
        raise ValueError(f"unknown model family {basis_id!r}: expected wiener, bridge or explicit eigenvalues")
    dim = _integer(spec.get("dim", default_dim), "model dim must be an integer")
    return (wiener_model if basis_id == "wiener" else bridge_model)(dim)


def _parse_subspace(spec, model: SpectralModel) -> Subspace | None:
    """Subspace from a file, an index list (inline `4,5,6`) or a mapping of
    `indices` or a `frame` of rows (not both), with an optional `complement` flag and an
    optional `dim`, which must be the model's.  Bool or string numbers are refused."""
    if spec is None:
        return None
    spec = _file_or(spec, lambda text: [_decimal(k, "subspace index") for k in text.split(",")])
    if isinstance(spec, (list, tuple)):
        spec = {"indices": spec}
    if not isinstance(spec, dict):
        raise ValueError("subspace spec must be a path, an index list, or a mapping")
    _check_fields(spec, ("dim", "complement", "indices", "frame"), "subspace")
    if "dim" in spec and _integer(spec["dim"], "subspace dim must be an integer") != model.dim:
        raise ValueError(f"subspace dim {spec['dim']} is not the model's {model.dim}")
    if "indices" in spec and "frame" in spec:
        raise ValueError("subspace data takes 'indices' or 'frame', not both")
    if "indices" in spec:
        sub = Subspace.from_indices(model.dim, spec["indices"])
    elif "frame" in spec:
        sub = Subspace.from_frame(model, spec["frame"])
    else:
        raise ValueError("subspace data needs 'indices' or 'frame'")
    complement = spec.get("complement", False)
    if not isinstance(complement, bool):
        raise ValueError(f"subspace complement must be true or false, got {complement!r}")
    return sub.complement() if complement else sub


def _json_number(text: str, what: str) -> float:
    """A JSON number literal as a float; Python's other spellings (`1_0`, `+1`, `1.`, `inf`) are refused."""
    if not re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", text):
        raise ValueError(f"{what} must be a JSON number, got {text!r}")
    return float(text)


def _inline_vector(spec: str):
    """`k:v,...` as a 'coords' mapping, or `v,v,...` as a list; each v a JSON number literal."""
    pairs = [part.rpartition(":")[::2] for part in spec.split(",")]
    try:
        pairs = [(key, _json_number(value, "a value")) for key, value in pairs]
    except ValueError:
        raise ValueError(f"no vector file {spec!r}, nor inline numbers k:v,... or v,v,...") from None
    return {"coords": _unique_keys(pairs)} if ":" in spec else [value for _, value in pairs]


def _parse_vector(spec, dim: int) -> HVector | None:
    """Vector from a file, inline `k:v,...` or `v,v,...`, `{"coords": {k: v}}`
    (1-based canonical decimal modes), `{"coeffs": [...]}` or a plain list
    of `dim` coefficients.  Values must be numbers (not bools or strings);
    anything else is a ValueError."""
    if spec is None:
        return None
    spec = _file_or(spec, _inline_vector)
    if isinstance(spec, dict) and "coords" in spec:
        _check_fields(spec, ("coords",), "'coords' vector")
        if not isinstance(spec["coords"], dict):
            raise ValueError("'coords' must map 1-based mode indices to values")
        coeffs = np.zeros(dim)
        for key, value in spec["coords"].items():
            k = _decimal(key, "mode")
            if not 1 <= k <= dim:
                raise ValueError(f"mode {k} outside 1..{dim}")
            coeffs[k - 1] = _real(value, f"coordinate {key}")
        return HVector(coeffs)
    if isinstance(spec, dict):
        _check_fields(spec, ("coeffs",), "vector")
        spec = spec.get("coeffs")
    vector = HVector(spec)  # refuses anything but a list of finite numbers (or a numeric array)
    if vector.dim != dim:
        raise ValueError(f"coefficient vector must have length {dim}")
    return vector


def _parse_columns(spec, dim: int) -> list:
    """The vectors of a design, a file or a mapping whose 'columns' are read by `_parse_vector`."""
    data = _read_json(spec) if isinstance(spec, str) else spec
    columns = data.get("columns") if isinstance(data, dict) else None
    if not isinstance(columns, list) or any(col is None for col in columns):
        raise ValueError("a design needs a 'columns' list of vectors")
    _check_fields(data, ("columns",), "design")
    return [_parse_vector(col, dim) for col in columns]


def _parse_observation(spec, model: SpectralModel) -> HVector:
    """A `t,y` trajectory CSV (a path ending in .csv), or a vector for `_parse_vector`."""
    if not spec.endswith(".csv"):
        return _parse_vector(spec, model.dim)
    t_vals, y_vals = [], []
    with open(spec, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "t,y":
            raise ValueError(f"trajectory CSV {spec!r} must start with header 't,y'")
        for number, line in enumerate(fh, 2):
            if line.strip():
                t_str, _, y_str = line.partition(",")
                what = f"trajectory CSV {spec!r} line {number}"
                t_vals.append(_json_number(t_str.strip(), what))
                y_vals.append(_json_number(y_str.strip(), what))
    return coeffs_from_trajectory(model, Grid(t_vals), y_vals)


# ---------------------------------------------------------------------------
# report


@dataclass
class Report:
    """Aggregated experiment outcome with labelled targets and checks."""

    kind: str
    passed: bool
    estimates: dict
    standard_errors: dict
    targets: dict
    checks: list
    replicates: int
    master_seed: int
    use_tail: bool | None
    config_summary: dict
    runtime_seconds: float = field(default=0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def comparable_json(self) -> str:
        """Report serialization with the runtime field removed, for
        determinism comparisons."""
        data = self.to_dict()
        data.pop("runtime_seconds")
        return json.dumps(data, indent=2, sort_keys=True)

    def check_rows(self) -> list:
        """Flat rows (name, estimate, target, tolerance, sided, passed)."""
        return [
            [c["name"], c["estimate"], c["target"], c["tolerance"], c["sided"], c["passed"]]
            for c in self.checks
        ]


def _check(name, estimate, target, tolerance, sided) -> dict:
    estimate = float(estimate)
    target = float(target)
    # Small absolute floor so zero-variance configurations are not failed
    # by floating-point summation order alone.
    tolerance = float(tolerance) + 1e-12 * (1.0 + abs(target))
    if sided == "two":
        passed = abs(estimate - target) <= tolerance
    elif sided == "lower":
        passed = estimate >= target - tolerance
    elif sided == "upper":
        passed = estimate <= target + tolerance
    else:
        raise ValueError(f"unknown sidedness {sided!r}")
    return {
        "name": name,
        "estimate": estimate,
        "target": target,
        "tolerance": tolerance,
        "sided": sided,
        "passed": bool(passed),
    }


def _target(value, provenance, note=None) -> dict:
    out = {"value": float(value), "provenance": provenance}
    if note:
        out["note"] = note
    return out


def _record(report: Report, name, estimate, se, target, provenance, note, tolerance=None, sided="two") -> None:
    """Write an estimate, its standard error and its target to the report,
    and check the estimate against the target within `tolerance` (three
    standard errors when omitted)."""
    report.estimates[name] = float(estimate)
    report.standard_errors[name] = float(se)
    report.targets[name] = _target(target, provenance, note)
    report.checks.append(_check(name, estimate, target, 3.0 * se if tolerance is None else tolerance, sided))


def _mean_se(values: np.ndarray):
    m = values.size
    mean = float(values.sum() / m)
    if m > 1:
        var = float(np.sum((values - mean) ** 2) / (m - 1))
    else:
        var = 0.0
    return mean, float(np.sqrt(var / m))


def _summed_mean_se(total: np.ndarray, total_sq: np.ndarray, m: int):
    """Per-entry mean and standard error from sums and sums of squares over
    m replicates."""
    mean = total / m
    var = np.maximum(total_sq / m - mean**2, 0.0) * m / max(m - 1, 1)
    return mean, np.sqrt(var / m)


def _rate(flags: np.ndarray, m: int):
    """Share of true flags among m replicates and its binomial standard error."""
    rate = float(flags.sum()) / m
    return rate, float(np.sqrt(max(rate * (1.0 - rate), 0.0) / m))


def _binomial_tolerance(alpha: float, m: int) -> float:
    return 3.0 * float(np.sqrt(alpha * (1.0 - alpha) / m))


# ---------------------------------------------------------------------------
# chunk runner
#
# A chunk handles replicates [start, start + count).  It draws the
# replicates in row blocks and applies the kind's block evaluator to each
# block; the result is a dict of per-replicate arrays and of sums over
# replicates.  Chunk boundaries and the reduction order are fixed by the
# replicate count alone, so the outcome is independent of how chunks are
# scheduled.


class ReplicateStreams:
    """The replicate streams of one master seed: a tall narrow block in one
    pass over all its rows, any other block through one Philox generator per
    thread, re-keyed for every row.

    Philox is counter-based (Salmon et al., SC 2011): setting its key words to
    [replicate, master_seed] with a zero counter and an empty buffer yields
    exactly the stream of derive_stream(master_seed, replicate), at a
    fraction of the cost of a new generator.  An instance keeps only that
    state, in plain ints and lists, which the state setter reads faster than
    uint64 arrays; each row writes all of it, so no earlier stream leaks in.

    The one-pass path computes the Philox4x64-10 words of every row at once
    and maps each word to a normal as numpy's ziggurat does on its fast path
    (one word per draw); a row with a draw off that path is drawn again by
    the re-keyed generator.  So every row has the generator's bits.
    """

    _threads = threading.local()  # each thread's Philox Generator

    def __init__(self, master_seed: int):
        master_seed = _check_u64(master_seed, "master_seed")
        # A fresh state: zero counter, empty buffer, no cached 32-bit half.
        self._key = [0, master_seed]
        self._state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": self._key},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def standard_normal_rows(self, replicates, out: np.ndarray) -> np.ndarray:
        """Fill row j of `out` with the standard normals of stream
        replicates[j]; each row is the first out.shape[1] draws of its
        stream."""
        rows, width = out.shape
        if width > _ONE_PASS_WIDTH or rows < _ONE_PASS_ROWS:
            return self._rekeyed_rows(replicates, out)
        keys = (np.arange(replicates.start, replicates.stop, replicates.step, dtype=np.uint64)
                if isinstance(replicates, range) else np.array(replicates, dtype=np.uint64))
        words = _philox_words(keys, self._key[1], -(-width // 4))[:, :width]
        redraw = np.flatnonzero(_ziggurat_fast_path(words, out).any(axis=1))
        # out[redraw] is a copy: the rows are drawn into one, then written back.
        out[redraw] = self._rekeyed_rows(keys[redraw].tolist(), np.empty((len(redraw), width)))
        return out

    def _rekeyed_rows(self, replicates, out: np.ndarray) -> np.ndarray:
        """standard_normal_rows by re-keying this thread's generator for every row."""
        generator = getattr(self._threads, "generator", None)
        if generator is None:  # this thread's first draw
            generator = self._threads.generator = np.random.Generator(np.random.Philox(key=0))
        bitgen = generator.bit_generator
        for replicate, row in zip(replicates, out):
            self._key[0] = replicate
            bitgen.state = self._state
            generator.standard_normal(out=row)
        return out


# Blocks of at most this many columns and at least this many rows take the
# one-pass path of ReplicateStreams.  It costs about 0.2 ms a call, and its
# cost per row and share of redrawn rows grow with the width: against the
# re-keyed rows it read 0.29x at width 4 and 0.49x at width 8 on 4096 rows,
# 0.65x and 0.87x on 384, 1.07x and 1.30x on 192, and 0.70x at width 12 on 4096.
_ONE_PASS_WIDTH = 8
_ONE_PASS_ROWS = 384

# Philox4x64-10 as numpy computes it: the multipliers and key increments of
# counter lanes 0 and 2, shaped to act on a (lane, row, counter) array.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _philox_words(keys: np.ndarray, master_seed: int, counters: int) -> np.ndarray:
    """Row j: the first 4 * counters words of derive_stream(master_seed, keys[j])'s
    Philox, that is counters 1..counters under key (keys[j], master_seed).

    All arithmetic is on uint64 arrays, which wrap silently; the high word of
    each 64 x 64-bit product is built from 32-bit halves."""
    m_lo, m_hi = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
    key = np.empty((2, len(keys), 1), dtype=np.uint64)
    key[0, :, 0], key[1] = keys, master_seed
    a = np.zeros((2, len(keys), counters), dtype=np.uint64)  # counter lanes 0 and 2
    a[0] = np.arange(1, counters + 1, dtype=np.uint64)
    b = np.zeros_like(a)  # lanes 1 and 3
    # A round maps lanes (a0, b1, a2, b3) to (hi(M1 a2) ^ b1 ^ k0, lo(M1 a2), hi(M0 a0) ^ b3 ^ k1, lo(M0 a0)).
    for round_ in range(10):
        if round_:
            key += _PHILOX_W
        low, hi = a & 0xFFFFFFFF, a >> 32
        carry = low * m_lo
        carry >>= 32
        carry += hi * m_lo
        low *= m_hi
        low += carry & 0xFFFFFFFF
        low >>= 32
        carry >>= 32
        hi *= m_hi
        hi += carry
        hi += low  # the high words of a * M
        a *= _PHILOX_M
        hi ^= b[::-1]
        hi ^= key[::-1]
        a, b = hi[::-1], a[::-1]
    return np.stack([a[0], b[0], a[1], b[1]], axis=-1).reshape(len(keys), 4 * counters)


def _ziggurat_fast_path(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write to `out` numpy's standard normal of each word as its ziggurat's
    fast path computes it (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), and
    return where a draw leaves that path, to read more words than its own."""
    wi, ki = _ziggurat_tables()
    layer = (words & 0xFF).view(np.int64)
    rabs = ((words >> 9) & (2**52 - 1)).view(np.int64)
    np.multiply(rabs, wi[layer], out=out)
    out.view(np.uint64)[...] |= (words & 0x100) << 55  # bit 8 is the sign; rabs * wi is not negative
    return rabs >= ki[layer]


@lru_cache(maxsize=1)
def _ziggurat_tables() -> tuple:
    """numpy's 256-layer ziggurat tables of the normal, (wi_double, ki_double).
    numpy exports neither; _ZIGGURAT_TABLES holds their bytes, read from the
    .rodata of numpy/random/lib/libnpyrandom.a, and decoded on first use."""
    raw = np.frombuffer(binascii.a2b_base64("".join(_ZIGGURAT_TABLES)), dtype=np.uint8)
    return raw[:2048].view("<f8"), raw[2048:].view("<i8")


# Doubles per block of draws: a block holds at most 128 KiB whatever the
# dimension, so memory stays flat while the per-row work is vectorised.
# Larger blocks make the statistics' block-sized temporaries cost page
# faults on every block (about 60 per row at dim 8192 with 1 MiB blocks).
BLOCK_DOUBLES = 2**14

# Rows per block at or below which a chunk draws and evaluates its blocks on
# threads (width 1024 and up).  numpy releases the GIL while it fills a row
# and in ufunc and matmul loops over long rows, but the per-row re-key of a
# wide block holds it (only tall narrow blocks are drawn in one pass, and
# those run in processes): on two CPUs, threaded over serial time per
# replicate was 1.6-1.7x at width 256 (64 rows), 0.87-1.07x at 512,
# 0.69-0.84x at 1024, 0.6x at 8192 (measured with a pool task per block;
# striped threads read 0.57-0.60x at 8192).
THREAD_ROWS = 16


def block_rows(dim: int) -> int:
    """Replicates per block of draws at model dimension `dim`."""
    return max(1, BLOCK_DOUBLES // dim)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _add_rows(total: np.ndarray, values: np.ndarray) -> None:
    """Add the rows of `values` onto `total` one after another, in row order,
    so the sum is the one of adding each replicate on its own.

    One accumulate pass adds strictly in order, so its last row has the bits
    of the row loop; np.sum and np.add.reduce pair terms up and move them.
    It costs a few ns per entry where the loop costs about 0.5 us per row, so
    it wins on tall blocks and loses on blocks of many summed columns.
    """
    total[...] = np.add.accumulate(np.concatenate([total[None], values]), axis=0)[-1]


# ---------------------------------------------------------------------------
# experiment kinds
#
# Each kind is one builder and one _KINDS line.  The builder checks what its
# plans do not and returns (apply, aggregate, width, law): apply maps a block
# of draws to per-replicate outputs, aggregate(report, arrays, sums) writes the
# report's estimates, standard errors, targets and checks from the reduced
# outputs, width is the highest mode that apply reads, and law is the sampled
# law, with the subspace its mean must lie in attached.  Draws hold modes
# 1..width, the head of each stream, and a kind that reads few modes uses
# plans cut to them (Plan.head).  The _KINDS line also names the summed
# outputs.  _build runs apply once on an empty block before any draw: that
# dry run builds every plan constant apply reads and raises every ValueError
# of the config, so the blocks' threads only read the plans.


def _law(config: ExperimentConfig, attach: Subspace | None) -> GaussianLaw:
    """The sampled law, from a bounded cache keyed by value; attaching a subspace checks that the mean lies in it."""
    return _cached_law(config.model, config.zeta, config.sigma, attach)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_law(model, zeta, sigma, attach) -> GaussianLaw:  # a law that raises is not kept
    return GaussianLaw(model, zeta if zeta is not None else HVector.zero(model.dim), sigma, subspace=attach)


_NEEDS = {"subspace": "a subspace", "b": "a functional vector b"}


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"experiment {config.kind!r} needs {_NEEDS[name]}")


def _coverage(config):
    _require(config, "subspace", "b")
    U = config.subspace
    law = _law(config, U)
    truth = inner(config.b, law.mean)
    # The known-sigma interval reads the modes of U alone; the other reads the residual.
    narrow = config.kind == "coverage_known" and U.kind == "indices" and not U.is_complement
    width = max(U.indices, default=1) if narrow else config.model.dim
    plan = functional_plan(config.model, U, config.b, config.use_tail).head(width)
    if config.kind == "coverage_known":
        note, sided = "exact-coverage construction", "two"
        interval = lambda y: plan.ci_known(y, config.sigma, config.alpha)
    else:
        note, sided = "conservative construction, coverage at least the level", "lower"
        interval = lambda y: plan.ci_unknown(y, config.alpha)

    def apply(y):
        centers, half_widths = interval(y)
        return {"covered": np.abs(truth - centers) <= half_widths}

    def aggregate(report, arrays, sums):
        rate, se = _rate(arrays["covered"], config.replicates)
        tol = _binomial_tolerance(config.alpha, config.replicates)
        _record(report, "coverage", rate, se, 1.0 - config.alpha, "analytic", note, tol, sided)

    return apply, aggregate, width, law


def _level(config):
    _require(config, "subspace")
    if config.subspace0 is None:
        raise ValueError("the level experiment needs the hypothesis subspace subspace0")
    law = _law(config, config.subspace0)
    plan = noise_plan(config.model, config.subspace, config.subspace0)
    threshold = plan.threshold(config.alpha)

    def aggregate(report, arrays, sums):
        rate, se = _rate(arrays["rejects"], config.replicates)
        tol = _binomial_tolerance(config.alpha, config.replicates)
        note = "conservative test, level at most alpha"
        _record(report, "rejection_rate", rate, se, config.alpha, "analytic", note, tol, "upper")

    return (lambda y: {"rejects": plan.statistic(y) >= threshold}), aggregate, config.model.dim, law


def _unbiasedness(config):
    _require(config, "subspace")
    U = config.subspace
    law = _law(config, U)
    zeta = law.mean.coeffs
    plan = functional_plan(config.model, U, use_tail=config.use_tail)
    # P_U y is y on the modes of a plain index set and zero off them, so only
    # those are summed; any other U sums every mode.
    plain = U.kind == "indices" and not U.is_complement
    modes = np.flatnonzero(U.index_mask()) if plain else slice(None)

    def apply(y):
        zhat = y[:, modes] if plain else project(y, U)
        return {"coord_sum": zhat, "coord_sumsq": zhat * zhat, "s2": plan.variance(y)}

    def aggregate(report, arrays, sums):
        total, total_sq = np.zeros((2, config.model.dim))
        total[modes], total_sq[modes] = sums["coord_sum"], sums["coord_sumsq"]
        mean, se = _summed_mean_se(total, total_sq, config.replicates)
        dev = np.abs(mean - zeta)
        # Worst coordinate relative to its own standard error decides the check.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0.0, dev / se, np.where(dev > 0.0, np.inf, 0.0))
        k = int(np.argmax(ratio))
        note = f"unbiased mean estimator, coordinate {k + 1}"
        _record(report, "mean_coord_worst", mean[k], se[k], zeta[k], "analytic", note)
        s2_mean, s2_se = _mean_se(arrays["s2"])
        _record(report, "s2_mean", s2_mean, s2_se, config.sigma**2, "analytic", "unbiased variance estimator")

    return apply, aggregate, config.model.dim, law


def _moments(config):
    law = _law(config, None)

    def aggregate(report, arrays, sums):
        vals = arrays["norm_sq"]
        m = config.replicates
        mean, mean_se = _mean_se(vals)
        centered = vals - mean
        var = float(np.sum(centered**2) / (m - 1)) if m > 1 else 0.0
        mu4 = float(np.mean(centered**4))
        var_se = float(np.sqrt(max(mu4 - var**2, 0.0) / m))
        target_mean, target_var = norm_sq_moments(law, use_tail=config.use_tail)
        _record(report, "norm_sq_mean", mean, mean_se, target_mean, "closed-form", "trace plus squared mean norm")
        _record(report, "norm_sq_var", var, var_se, target_var, "closed-form", "weighted chi-square variance")

    return (lambda y: {"norm_sq": row_inner(y, y)}), aggregate, config.model.dim, law


def _independence(config):
    _require(config, "subspace", "b")
    law = _law(config, config.subspace)
    plan = functional_plan(config.model, config.subspace, config.b, config.use_tail)

    def aggregate(report, arrays, sums):
        m = config.replicates
        fa_c = arrays["functional"] - arrays["functional"].sum() / m
        s2_c = arrays["s2"] - arrays["s2"].sum() / m
        denom = float(np.sqrt(np.sum(fa_c**2) * np.sum(s2_c**2)))
        corr = float(np.sum(fa_c * s2_c) / denom) if denom > 0.0 else 0.0
        # The check bounds |corr|, so it records |corr| as its estimate.
        report.estimates["correlation"] = corr
        report.standard_errors["correlation"] = 1.0 / float(np.sqrt(m))
        report.targets["correlation"] = _target(0.0, "analytic", "independence of the two estimators")
        report.checks.append(_check("correlation", abs(corr), 0.0, 3.0 / float(np.sqrt(m)), "upper"))

    return (lambda y: {"functional": plan.functional(y), "s2": plan.variance(y)}), aggregate, config.model.dim, law


def _noise_law(config):
    _require(config, "subspace")
    U, U0 = config.subspace, config.subspace0
    law = _law(config, U)
    plan = noise_plan(config.model, U, U0)
    width = config.model.dim
    # The statistics read the leading complement eigenspace and U minus U0; the
    # width covers all of U0 too, so that the head still checks U0 inside U.
    with suppress(ValueError):  # no complement eigenspace: the full plan raises
        if U.kind == "indices" and (U0 is None or U0.kind == "indices"):
            width = max(plan.leading.indices + (U.indices + U0.indices if U0 else ()))
    plan = plan.head(width)
    dec = plan.decomposition
    laws = [("ks_s", "s_stat", dec.s_shape, dec.s_rate)]
    if config.subspace0 is not None:
        laws.append(("ks_t", "t_stat", dec.t_shape, dec.t_rate))

    def apply(y):
        out = {"s_stat": plan.leading_norm_sq(y, config.sigma)}
        if config.subspace0 is not None:
            out["t_stat"] = plan.whitened_norm_sq(y, config.sigma)
        return out

    def aggregate(report, arrays, sums):
        crit = ks_critical_value(config.replicates, alpha=0.05)
        for name, key, shape, rate in laws:
            d = ks_statistic(arrays[key], lambda x: gamma_cdf(x, shape, rate))
            note = f"KS distance to Gamma({shape:g}, rate {rate:g})"
            _record(report, name, d, 0.0, 0.0, "closed-form", note, crit, "upper")

    return apply, aggregate, width, law


def _risk(config):
    _require(config, "subspace")
    law = _law(config, config.subspace)
    zeta = law.mean.coeffs
    if config.use_tail:
        # The variance-estimator risk formula is exact for the truncated
        # denominator only; a tail denominator would shift the target.
        raise ValueError("the risk experiment requires use_tail false or omitted")
    plan = functional_plan(config.model, config.subspace, use_tail=False)
    sigma_sq = config.sigma**2

    def apply(y):
        diff = project(y, config.subspace)
        np.subtract(diff, zeta, out=diff)  # in place: a projection is a new array
        return {"mean_err": row_inner(diff, diff), "s2_err": (plan.variance(y) - sigma_sq) ** 2}

    def aggregate(report, arrays, sums):
        report.use_tail = plan.use_tail  # False, whatever the model's convention
        mean_risk, mean_risk_se = _mean_se(arrays["mean_err"])
        target = risk_mean(config.model, config.subspace, config.sigma)
        _record(report, "mean_risk", mean_risk, mean_risk_se, target, "closed-form", "sigma^2 tr(Q P_U)")
        s2_risk, s2_risk_se = _mean_se(arrays["s2_err"])
        target = variance_est_risk(config.model, config.subspace, config.sigma)
        _record(report, "s2_risk", s2_risk, s2_risk_se, target, "closed-form", "variance estimator risk, truncated")
        bound = 2.0 * config.sigma**4
        report.targets["s2_risk_bound"] = _target(bound, "closed-form", "universal cap 2 sigma^4")
        report.checks.append(_check("s2_risk_bound", s2_risk, bound, 3.0 * s2_risk_se, "upper"))

    return apply, aggregate, config.model.dim, law


def _learning_curve(config):
    _require(config, "subspace")
    if config.subspace.kind != "indices" or config.subspace.is_complement:
        raise ValueError("learning_curve needs a plain index-set subspace")
    if config.zeta is None:
        raise ValueError("learning_curve needs an explicit mean")
    law = _law(config, config.subspace)
    indices = list(config.subspace.indices)
    size = len(indices)
    cutoffs = list(config.cutoffs if config.cutoffs is not None else range(1, size + 1))
    if not cutoffs:
        raise ValueError("learning_curve needs at least one cutoff")
    seen = set()
    for c in cutoffs:
        if not 0 <= c <= size:
            raise ValueError(f"cutoff {c} outside 0..{size}")
        if c in seen:
            raise ValueError(f"cutoff {c} given twice")
        seen.add(c)
    # Prefix noise residual plus suffix bias over the ordered modes of U.
    order = np.array(indices, dtype=int) - 1
    zeta = config.zeta.coeffs[order]
    bias_sq = zeta**2
    suffix = np.concatenate([np.cumsum(bias_sq[::-1])[::-1], [0.0]])[cutoffs]

    def apply(y):
        noise_sq = (y[:, order] - zeta) ** 2
        prefix = np.concatenate([np.zeros((y.shape[0], 1)), np.cumsum(noise_sq, axis=1)], axis=1)
        errs = prefix[:, cutoffs] + suffix
        return {"risk_sum": errs, "risk_sumsq": errs * errs}

    def aggregate(report, arrays, sums):
        report.config_summary["cutoffs"] = cutoffs  # the defaults filled in
        mean, se = _summed_mean_se(sums["risk_sum"], sums["risk_sumsq"], config.replicates)
        # Here, not in the builder: a pool worker builds the kind once per chunk.
        targets = _head_risks(config, order, cutoffs)
        for j, c in enumerate(cutoffs):
            _record(report, f"risk_cutoff_{c}", mean[j], se[j], targets[j], "closed-form", "partial-observation risk")

    return apply, aggregate, max(indices, default=1), law


def _head_risks(config: ExperimentConfig, order: np.ndarray, cutoffs: list) -> list:
    """risk_partial(model, V_c, zeta, sigma).risk, bit for bit, for each cutoff c,
    where V_c spans the modes order[:c] of U, in blocks of at most block_rows(dim) cutoffs.

    zeta with the modes of V_c set to 0.0 has the bits of zeta - P_{V_c} zeta
    (z - z = +0.0 and z - 0.0 = z for finite z), its norm is row_inner's as
    HVector.norm's is, and the eigenvalues of V_c are summed in the order of its
    index mask.  A cumsum of the traces, or np.sum of the squares, would move bits.
    """
    zeta, sigma, dim = config.zeta.coeffs, config.sigma, config.model.dim
    lam = config.model.eigenvalues[order]
    rank = np.full(dim, len(order))  # each mode's position in order; a mode off U is past every cutoff
    rank[order] = np.arange(len(order))
    rows = block_rows(dim)
    risks = []
    for lo in range(0, len(cutoffs), rows):
        block = cutoffs[lo : lo + rows]
        missed = np.where(rank < np.array(block)[:, None], 0.0, zeta)
        bias = np.sqrt(row_inner(missed, missed)).tolist()
        risks += [sigma * sigma * float(lam[:c].sum()) + b * b for c, b in zip(block, bias)]
    return risks


_KINDS = {
    "coverage_known": (_coverage, ()),
    "coverage_unknown": (_coverage, ()),
    "level": (_level, ()),
    "unbiasedness": (_unbiasedness, ("coord_sum", "coord_sumsq")),
    "moments": (_moments, ()),
    "independence": (_independence, ()),
    "noise_law": (_noise_law, ()),
    "risk": (_risk, ()),
    "learning_curve": (_learning_curve, ("risk_sum", "risk_sumsq")),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def _build(config: ExperimentConfig):
    """The kind's (apply, aggregate, width, law) and the output keys of apply's dry run on an empty block."""
    apply, aggregate, width, law = _KINDS[config.kind][0](config)
    return apply, aggregate, width, law, apply(np.empty((0, width))).keys()


def _run_chunk(config: ExperimentConfig, start: int, count: int, built=None, threads=1) -> dict:
    """Replicates [start, start + count) through `built`, what `_build` returns:
    apply on draws of modes 1..width of law.  A pool worker, passing none, builds its own.

    The blocks run on up to `threads` threads, each owning a stripe: thread t
    draws and evaluates blocks t, t + threads, ... with its own generator and
    buffer.  The calling thread is thread 0; it takes every block's outputs
    in block order, the others' from one short queue per helper, so sums and
    arrays are built as in the serial run."""
    summed = _KINDS[config.kind][1]
    apply, _, width, law, _ = _build(config) if built is None else built
    rows = block_rows(width)
    blocks = -(-count // rows)
    threads = min(threads, blocks)
    arrays, sums = {}, {}

    def stripe(t):
        """The outputs of blocks t, t + threads, ..., in order."""
        streams = ReplicateStreams(config.master_seed)
        buffer = np.empty((min(rows, count), width))
        for lo in range(t * rows, count, threads * rows):
            y = buffer[: min(rows, count - lo)]
            streams.standard_normal_rows(range(start + lo, start + lo + y.shape[0]), y)
            yield apply(law.from_normals(y))

    def lend(t, outbox):
        """Put stripe t's outputs, or its exception, in `outbox`, then None."""
        try:
            for outputs in stripe(t):
                if stopped:
                    break
                outbox.put(outputs)
        except BaseException as exc:  # raised again on the calling thread
            outbox.put(exc)
        finally:
            outbox.put(None)

    stopped = []  # not empty once the caller takes no more outputs
    helpers, own = [], stripe(0)
    try:
        for t in range(1, threads):
            outbox = queue.Queue(2)
            # Each helper runs in a copy of this context, numpy's error state included.
            helper = threading.Thread(target=copy_context().run, args=(lend, t, outbox), daemon=True)
            helper.start()
            helpers.append((helper, outbox))
        for i in range(blocks):
            outputs = next(own) if i % threads == 0 else helpers[i % threads - 1][1].get()
            if isinstance(outputs, BaseException):
                raise outputs
            for key, values in outputs.items():
                if key in summed:
                    _add_rows(sums.setdefault(key, np.zeros(values.shape[1:])), values)
                else:
                    arrays.setdefault(key, []).append(values)
    finally:
        stopped.append(True)
        for helper, outbox in helpers:  # a helper blocked on a full queue ends once drained
            while outbox.get() is not None:
                pass
            helper.join()
    return {
        "arrays": {key: np.concatenate(parts) for key, parts in arrays.items()},
        "sums": sums,
    }


def _config_summary(config: ExperimentConfig) -> dict:
    def sub_repr(s: Subspace | None):
        if s is None:
            return None
        span = {"indices": list(s.indices)} if s.kind == "indices" else {"frame": f"rank {s.frame.shape[0]}"}
        return {"dim": s.dim, "complement": s.is_complement, **span}

    return {
        "model": {
            "basis_id": config.model.basis_id,
            "dim": config.model.dim,
            "tail_trace": config.model.tail_trace,
        },
        "subspace": sub_repr(config.subspace),
        "subspace0": sub_repr(config.subspace0),
        "sigma": config.sigma,
        "alpha": config.alpha,
        "cutoffs": list(config.cutoffs) if config.cutoffs else None,
    }


def run_experiment(config: ExperimentConfig, workers: int | None = None, stream_path=None) -> Report:
    """Run one experiment and return its report.

    `workers` overrides the configured worker count, the most processes the
    chunks run in.  Wide blocks (at most THREAD_ROWS rows) start no process:
    every chunk runs here, on threads over all usable CPUs.  Narrow blocks
    start one process per chunk of at least CHUNK_SIZE // 2 replicates, up to
    that count, and none besides this one if only one chunk is that large.
    The report is identical either way apart from the runtime field.
    `stream_path` optionally writes the per-replicate arrays as CSV for
    external plotting; a kind with none is refused.
    """
    start_time = time.perf_counter()
    workers = config.workers if workers is None else _named("config field 'workers'", _count, workers, "workers")
    # Building the kind validates the config before any replicate is drawn.
    built = _build(config)
    _, aggregate, width, _, keys = built
    if stream_path is not None and set(keys) <= set(_KINDS[config.kind][1]):
        raise ValueError(f"experiment {config.kind!r} has no per-replicate values to stream")

    chunks = [
        (start, min(CHUNK_SIZE, config.replicates - start))
        for start in range(0, config.replicates, CHUNK_SIZE)
    ]
    # Wide blocks run on threads here, over every usable CPU; narrow ones on the
    # calling thread, in processes, as a chunk under half the full work costs
    # less than the process it would start.
    large = sum(count >= CHUNK_SIZE // 2 for _, count in chunks)
    processes, threads = (1, _usable_cpus()) if block_rows(width) <= THREAD_ROWS else (max(1, min(workers, large)), 1)
    if processes == 1:
        partials = [_run_chunk(config, start, count, built, threads) for start, count in chunks]
    else:
        # Imported here: it loads multiprocessing, which a one-process run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_run_chunk, config, start, count, None, threads) for start, count in chunks]
            partials = [f.result() for f in futures]

    first, rest = partials[0], partials[1:]
    arrays = first["arrays"]  # one chunk's arrays are the run's, not copied
    if rest:
        arrays = {key: np.concatenate([p["arrays"][key] for p in partials]) for key in arrays}
    # Chunk sums are added one after another, in chunk order.
    sums = {key: sum((p["sums"][key] for p in rest), first["sums"][key]) for key in first["sums"]}

    if stream_path is not None:
        _write_stream(stream_path, arrays)

    report = Report(
        kind=config.kind,
        passed=False,
        estimates={},
        standard_errors={},
        targets={},
        checks=[],
        replicates=config.replicates,
        master_seed=config.master_seed,
        # The convention of tr(Q (I - P_U)), U = {0} for moments; risk's aggregate records its forced False.
        use_tail=_denominator_tail(config.model, None if config.kind == "moments" else config.subspace, config.use_tail),
        config_summary=_config_summary(config),
    )
    aggregate(report, arrays, sums)
    report.passed = all(c["passed"] for c in report.checks)
    report.runtime_seconds = time.perf_counter() - start_time
    return report


def _write_stream(path, arrays: dict) -> None:
    keys = sorted(arrays)
    # Whole columns to Python floats at once; repr gives each the digits of repr(float(value)).
    columns = [map(repr, np.asarray(arrays[k], dtype=float).tolist()) for k in keys]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate," + ",".join(keys) + "\n")
        fh.writelines(f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*columns)))


# base64 of numpy's wi_double (256 little-endian float64) then ki_double (256
# little-endian uint64): the tables of numpy/random/src/distributions/ziggurat_constants.h.
_ZIGGURAT_TABLES = (
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPVTC1IMp88rbuOJzJNoDxDXQI7"
    "BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8"
    "PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6Tc"
    "zA6qPFnNd21nYqo8MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3gA6fHq08"
    "EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELg"
    "Vg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8"
    "HiDEvwhrsTw02ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnH"
    "gZayPNouuGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv3ZmzPAM9uL87trM8"
    "4B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgW"
    "AOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8"
    "wx+jYLgYtjyisKLoHTS2PAsmtwSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlR"
    "jiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8"
    "vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7"
    "jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8"
    "CPGfPlarujzO9VrNeMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1uzyiwC5r"
    "k9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08"
    "IO83ENsovTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcv"
    "AHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788"
    "C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8xMBxdc2qwDxI1O7R"
    "Pb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsuYEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8"
    "ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASdvBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipT"
    "N7TCPJfbljHU0MI89XipsQ3uwjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM8"
    "2uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0Dok"
    "itzFPEwehs9pFsY86moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8"
    "q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7zTxq7yWAPfMOAAAAAAAAAAAAqMb7mL4IDABCgb36VKMNAOruwX72UQ4AfvfT6VWyDgC5yn6B"
    "S+8OAKpE+gpHGQ8AGMv/Ye03DwBcJWGVRk8PAJajG+SlYQ8ApJZTdXpwDwCaRCjssnwPANNXYwzxhg8A3iWDV6aPDwDa0E3HJJcPAAn12wepnQ8A"
    "dPqB9WCjDwD4S1veb6gPANxU02DxrA8AD7kYZ/uwDwDGdFONn7QPAHf+ZiPstw8ADuWh6ey6DwDtCwSdq70PAFds/2AwwA8ASKI3EILCDwDRW+J6"
    "psQPADHuepeixg8ApJYoqXrIDwCF3kteMsoPABojAunMyw8AxDn4Ek3NDwCZ7I9Ntc4PADDJHb8H0A8A5sTWTUbRDwBQ9OKoctIPAB7J8E+O0w8A"
    "eLSQmZrUDwBTD5K4mNUPAOyZjsCJ1g8AMujIqW7XDwDoCHtUSNgPAIwsrYsX2Q8A0q2nB93ZDwCMXhBwmdoPACAuwF1N2w8A0PxbXPnbDwB9mrnr"
    "ndwPAJ1yGIE73Q8AkC80iNLdDwBknzZkY94PAE5RjXDu3g8ALrSmAXTfDwBA7Zll9N8PAPIkvORv4A8AWKIlwubgDwBMuCg8WeEPAJk/vIzH4Q8A"
    "qhzb6THiDwCRG9qFmOIPAIZBtY/74g8ASo1VM1vjDwAqANCZt+MPAH+tnukQ5A8ANHfURmfkDwBcCUzTuuQPACSV0q4L5Q8AeLxO91nlDwASEuTI"
    "peUPAImGEz7v5Q8AeBDZbzbmDwB41cZ1e+YPAKoRHma+5g8A8vTlVf/mDwACpwBZPucPADmePoJ75w8AonBw47bnDwBDQneN8OcPAIzwU5Ao6A8A"
    "Ohc1+17oDwBkCITck+gPALzO8EHH6A8A9k59OPnoDwAdm4fMKekPAOqI0wlZ6Q8AopqT+4bpDwBmSHGss+kPANW2lCbf6Q8AfOarcwnqDwCkZvGc"
    "MuoPACyVMqta6g8AGnTVpoHqDwDwHN6Xp+oPACDZ84XM6g8APOZlePDqDwAT7C92E+sPAEoq/oU16w8AtGIxrlbrDwD6hOL0dusPABQg5l+W6w8A"
    "fJ3P9LTrDwDQSfS40usPAD4ubrHv6w8A6L0e4wvsDwAVWrFSJ+wPANOvnQRC7A8AlvEp/VvsDwD07mxAdewPALQMUNKN7A8AEh+RtqXsDwD+J8Tw"
    "vOwPABX7VITT7A8As8iIdOnsDwC3kX/E/uwPACiFNXcT7Q8AA0mEjyftDwBMLyQQO+0PAG5YrftN7Q8A3cOYVGDtDwDoT0Edcu0PAIKp5FeD7Q8A"
    "yCykBpTtDwAEt4UrpO0PALRqdMiz7Q8AUmZB38LtDwBSbqRx0e0PANOKPIHf7Q8AgJmQD+3tDwAU1A8e+u0PAMRLEq4G7g8ABlrZwBLuDwDgBpBX"
    "Hu4PACRlS3Mp7g8AvOQKFTTuDwA8m7g9Pu4PAPSCKe5H7g8AhrAdJ1HuDwBBf0DpWe4PAC60KDVi7g8A8ZdYC2ruDwB6Bz5sce4PAIJ7Mlh47g8A"
    "ugZ7z37uDwCySkjShO4PAENjtmCK7g8AUcjMeo/uDwDaJX4glO4PAOopqFGY7g8AXEgTDpzuDwD0c3JVn+4PAK7MYiei7g8ArEJrg6TuDwBxLfxo"
    "pu4PAPrWbten7g8ACvoEzqjuDwA7M+hLqe4PABBkKVCp7g8AXgfA2ajuDwBUdonnp+4PACQdSHim7g8Ag56iiqTuDwDa5CIdou4PACQgNS6f7g8A"
    "Lq8mvJvuDwDk8iTFl+4PADoKPEeT7g8AFnVVQI7uDwB6nDauiO4PAP09f46C7g8AiLin3nvuDwD/N/+bdO4PAF69qcNs7g8AfgCeUmTuDwCIKKNF"
    "W+4PALZXTplR7g8AzwYASkfuDwBQLOFTPO4PANgq4LIw7g8ABYKtYiTuDwBaPLheF+4PAEcUKqIJ7g8AzEnjJ/vtDwBsIXbq6+0PAH4EIuTb7Q8A"
    "0znODsvtDwD0LARkue0PAMk46dym7Q8Ajek3cpPtDwA2qDgcf+0PACvAudJp7Q8AAK4GjVPtDwAipN5BPO0PANgvaucj7Q8AROYvcwrtDwA0/gfa"
    "7+wPALi3DhDU7A8AtG6VCLfsDwDBMBK2mOwPAHipDQp57A8A/jEP9VfsDwBiyYZmNewPADWztEwR7A8A0G+OlOvrDwCStqApxOsPANwM7vWa6w8A"
    "QoXJ4W/rDwCeH63TQusPAEstC7AT6w8A6QIaWeLqDwBXIpmuruoPACbjjo146g8A5XP9zz/qDwD22Y1MBOoPADtWL9bF6Q8ApEepO4TpDwAoRx1H"
    "P+kPANbFdr326A8A5ujEXaroDwDqsXrgWegPAECpkPYE6A8AwDOCSKvnDwClah91TOcPAAKiKhDo5g8A2Ku2oH3mDwB+MDifDOYPAEL3OHOU5Q8A"
    "gHKXcBTlDwBY9DbUi+QPADce/b/54w8AnLHuNV3jDwD+5C8SteIPAFdVmQMA4g8AFIN4gjzhDwCwZ+7EaOAPAKpxK7CC3w8Aqv5+xYfeDwD9O8YJ"
    "dd0PABO/KeVG3A8AggIu+PjaDwB1urLhhdkPAATPSO/m1w8AC2W9rRPWDwAS8OJJAdQPAKzHtKeh0Q8Anh92BOLODwCyEV7YqMsPACItzW7Sxw8A"
    "7SIeLyvDDwA6uMCBZb0PADRUAMQGtg8AdCgqWECsDwCYRQEel54PAPwdpEj6iQ8ALDDw98VmDwBKHDNLWhoPAA=="
)
