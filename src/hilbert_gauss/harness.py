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

import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import risk_mean, risk_partial, variance_est_risk
from .distributions import _check_positive, _check_prob, gamma_cdf, ks_critical_value, ks_statistic
from .inference import FunctionalPlan, SubspaceTestPlan
from .processes import bridge_model, wiener_model
from .sampling import GaussianLaw, NoisePlan, noise_decomposition, norm_sq_moments
from .spectral import HVector, SpectralModel, Subspace, default_use_tail, inner, project, row_inner

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
    master_seed = int(master_seed)
    replicate = int(replicate)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if not 0 <= replicate < 2**64:
        raise ValueError("replicate index must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=(master_seed << 64) | replicate))


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
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        _check_prob(self.alpha, "alpha")
        _check_positive(self.sigma, "sigma")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise ValueError("experiment config needs a 'kind'")
        model = _parse_model(data.pop("model", None))
        subspace = _spec_field(data, "subspace", _parse_subspace, model)
        subspace0 = _spec_field(data, "subspace0", _parse_subspace, model)
        zeta = _spec_field(data, "zeta", _parse_vector, model.dim)
        b = _spec_field(data, "b", _parse_vector, model.dim)
        known = {"sigma", "alpha", "replicates", "master_seed", "use_tail", "cutoffs", "workers"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cutoffs = _field(data, "cutoffs", None, _is_int_list, "a list of integers")
        return cls(
            kind=kind,
            model=model,
            subspace=subspace,
            subspace0=subspace0,
            zeta=zeta,
            b=b,
            sigma=float(_field(data, "sigma", 1.0, _is_number, "a finite number")),
            alpha=float(_field(data, "alpha", 0.05, _is_number, "a finite number")),
            replicates=int(_field(data, "replicates", DEFAULT_REPLICATES, _is_int, "an integer")),
            master_seed=int(_field(data, "master_seed", 0, _is_int, "an integer")),
            use_tail=_field(data, "use_tail", None, _is_optional_bool, "true, false or null"),
            cutoffs=None if cutoffs is None else tuple(int(c) for c in cutoffs),
            workers=int(_field(data, "workers", 1, _is_int, "an integer")),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _is_int(value) -> bool:
    """A JSON integer: floats are refused, not truncated, and so is bool (an int subclass)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_optional_bool(value) -> bool:
    return value is None or isinstance(value, bool)


def _is_int_list(value) -> bool:
    return value is None or (isinstance(value, (list, tuple)) and all(_is_int(v) for v in value))


def _is_number_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)


def _field(data: dict, key: str, default, accepts, expected: str):
    """data[key] (or default when absent) if `accepts` it, else a ValueError."""
    value = data.get(key, default)
    if not accepts(value):
        raise ValueError(f"config field {key!r} must be {expected}, got {value!r}")
    return value


def _spec_field(data: dict, key: str, parse, arg):
    """parse(data.pop(key), arg), with the field named in its ValueError."""
    try:
        return parse(data.pop(key, None), arg)
    except ValueError as exc:
        raise ValueError(f"config field {key!r}: {exc}") from exc


def _parse_model(spec) -> SpectralModel:
    if spec is None:
        return wiener_model(DEFAULT_MODEL_DIM)
    if isinstance(spec, str):
        return SpectralModel.load(spec)
    if isinstance(spec, dict):
        basis_id = spec.get("basis_id", "abstract")
        dim = int(_field(spec, "dim", DEFAULT_MODEL_DIM, _is_int, "an integer"))
        if "eigenvalues" not in spec:
            if basis_id == "wiener":
                return wiener_model(dim)
            if basis_id == "bridge":
                return bridge_model(dim)
            raise ValueError("abstract models need explicit eigenvalues")
        _field(spec, "eigenvalues", None, _is_number_list, "a list of finite numbers")
        _field(spec, "tail_trace", 0.0, _is_number, "a finite number")
        return SpectralModel.from_dict(spec)
    raise ValueError("model spec must be a path or a mapping")


def _parse_subspace(spec, model: SpectralModel) -> Subspace | None:
    if spec is None:
        return None
    if isinstance(spec, str):
        return Subspace.load(spec, model=model)
    if isinstance(spec, (list, tuple)):
        return Subspace.from_indices(model.dim, spec)
    if isinstance(spec, dict):
        return Subspace.from_dict(spec, model=model)
    raise ValueError("subspace spec must be a path, an index list, or a mapping")


def _parse_vector(spec, dim: int) -> HVector | None:
    """Vector from `{"coords": {k: v}}` (1-based modes), `{"coeffs": [...]}`
    or a plain list of `dim` coefficients.  Values must be numbers (not
    bools or strings); anything else is a ValueError."""
    if spec is None:
        return None
    if isinstance(spec, dict) and "coords" in spec:
        if not isinstance(spec["coords"], dict):
            raise ValueError("'coords' must map 1-based mode indices to values")
        coeffs = np.zeros(dim)
        for key, value in spec["coords"].items():
            k = int(key)
            if not 1 <= k <= dim:
                raise ValueError(f"coordinate index {k} outside 1..{dim}")
            if not _is_number(value):
                raise ValueError(f"coordinate {key} must be a finite number, got {value!r}")
            coeffs[k - 1] = value
        return HVector(coeffs)
    if isinstance(spec, dict) and "coeffs" in spec:
        spec = spec["coeffs"]
    if not _is_number_list(spec):
        raise ValueError(f"coefficient vector must be a list of {dim} finite numbers")
    if len(spec) != dim:
        raise ValueError(f"coefficient vector must have length {dim}")
    return HVector(spec)


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

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
    """The replicate streams of one master seed, drawn through a single
    re-keyed generator.

    Philox is counter-based: setting its key words to
    [replicate, master_seed] with a zero counter and an empty buffer yields
    exactly the stream of derive_stream(master_seed, replicate), at a
    fraction of the cost of a new generator.
    """

    def __init__(self, master_seed: int):
        master_seed = int(master_seed)
        if not 0 <= master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        self._bitgen = np.random.Philox(key=master_seed << 64)
        self._generator = np.random.Generator(self._bitgen)
        # A fresh state: zero counter, empty buffer, no cached 32-bit half.
        self._state = self._bitgen.state
        self._key = self._state["state"]["key"]

    def standard_normal_rows(self, replicates, out: np.ndarray) -> np.ndarray:
        """Fill row j of `out` with the standard normals of stream
        replicates[j]; each row is the first out.shape[1] draws of its
        stream."""
        for replicate, row in zip(replicates, out):
            self._key[0] = replicate
            self._bitgen.state = self._state
            self._generator.standard_normal(out=row)
        return out


# Doubles per block of draws: a block holds at most 128 KiB whatever the
# dimension, so memory stays flat while the per-row work is vectorised.
# Larger blocks make the statistics' block-sized temporaries cost page
# faults on every block (about 60 per row at dim 8192 with 1 MiB blocks).
BLOCK_DOUBLES = 2**14


def block_rows(dim: int) -> int:
    """Replicates per block of draws at model dimension `dim`."""
    return max(1, BLOCK_DOUBLES // dim)


# ---------------------------------------------------------------------------
# experiment kinds
#
# Each kind is one builder and one _KINDS line.  The builder checks the
# config, so every ValueError comes before any replicate is drawn, builds
# the kind's replicate-invariant constants once, and returns
# (apply, aggregate): apply maps a block of draws to per-replicate outputs,
# and aggregate(report, arrays, sums) writes the report's estimates,
# standard errors, targets and checks from the reduced outputs.  The _KINDS
# line also names the outputs summed over replicates instead of kept per
# replicate.


def _law(config: ExperimentConfig, attach: Subspace | None = None) -> GaussianLaw:
    """The sampled law; attaching a subspace checks that the mean lies in it."""
    zeta = config.zeta if config.zeta is not None else HVector.zero(config.model.dim)
    return GaussianLaw(config.model, zeta, config.sigma, subspace=attach)


def _use_tail(config: ExperimentConfig) -> bool:
    return default_use_tail(config.model) if config.use_tail is None else bool(config.use_tail)


_NEEDS = {"subspace": "a subspace", "b": "a functional vector b"}


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"experiment {config.kind!r} needs {_NEEDS[name]}")


def _coverage(config):
    _require(config, "subspace", "b")
    truth = inner(config.b, _law(config, config.subspace).mean)
    plan = FunctionalPlan(config.model, config.subspace, config.b, _use_tail(config))
    if config.kind == "coverage_known":
        note, sided = "exact-coverage construction", "two"
        interval = lambda y: plan.ci_known(y, config.sigma, config.alpha)
    else:
        plan.complement_params  # (tau, lam, n) must exist before any replicate
        note, sided = "conservative construction, coverage at least the level", "lower"
        interval = lambda y: plan.ci_unknown(y, config.alpha)

    def apply(y):
        centers, half_widths = interval(y)
        return {"covered": np.abs(truth - centers) <= half_widths}

    def aggregate(report, arrays, sums):
        rate, se = _rate(arrays["covered"], config.replicates)
        tol = _binomial_tolerance(config.alpha, config.replicates)
        _record(report, "coverage", rate, se, 1.0 - config.alpha, "analytic", note, tol, sided)

    return apply, aggregate


def _level(config):
    _require(config, "subspace")
    if config.subspace0 is None:
        raise ValueError("the level experiment needs the hypothesis subspace subspace0")
    _law(config, config.subspace0)
    plan = SubspaceTestPlan(config.model, config.subspace, config.subspace0)
    threshold = plan.threshold(config.alpha)

    def aggregate(report, arrays, sums):
        rate, se = _rate(arrays["rejects"], config.replicates)
        tol = _binomial_tolerance(config.alpha, config.replicates)
        note = "conservative test, level at most alpha"
        _record(report, "rejection_rate", rate, se, config.alpha, "analytic", note, tol, "upper")

    return (lambda y: {"rejects": plan.statistic(y) >= threshold}), aggregate


def _unbiasedness(config):
    _require(config, "subspace")
    zeta = _law(config, config.subspace).mean.coeffs
    plan = FunctionalPlan(config.model, config.subspace, use_tail=_use_tail(config))
    plan.complement_params  # (tau, lam, n) must exist before any replicate

    def apply(y):
        zhat = project(y, config.subspace)
        return {"coord_sum": zhat, "coord_sumsq": zhat * zhat, "s2": plan.variance(y)}

    def aggregate(report, arrays, sums):
        mean, se = _summed_mean_se(sums["coord_sum"], sums["coord_sumsq"], config.replicates)
        dev = np.abs(mean - zeta)
        # Worst coordinate relative to its own standard error decides the check.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0.0, dev / se, np.where(dev > 0.0, np.inf, 0.0))
        k = int(np.argmax(ratio))
        note = f"unbiased mean estimator, coordinate {k + 1}"
        _record(report, "mean_coord_worst", mean[k], se[k], zeta[k], "analytic", note)
        s2_mean, s2_se = _mean_se(arrays["s2"])
        _record(report, "s2_mean", s2_mean, s2_se, config.sigma**2, "analytic", "unbiased variance estimator")

    return apply, aggregate


def _moments(config):
    def aggregate(report, arrays, sums):
        vals = arrays["norm_sq"]
        m = config.replicates
        mean, mean_se = _mean_se(vals)
        centered = vals - mean
        var = float(np.sum(centered**2) / (m - 1)) if m > 1 else 0.0
        mu4 = float(np.mean(centered**4))
        var_se = float(np.sqrt(max(mu4 - var**2, 0.0) / m))
        target_mean, target_var = norm_sq_moments(_law(config), use_tail=_use_tail(config))
        _record(report, "norm_sq_mean", mean, mean_se, target_mean, "closed-form", "trace plus squared mean norm")
        _record(report, "norm_sq_var", var, var_se, target_var, "closed-form", "weighted chi-square variance")

    return (lambda y: {"norm_sq": row_inner(y, y)}), aggregate


def _independence(config):
    _require(config, "subspace", "b")
    _law(config, config.subspace)
    plan = FunctionalPlan(config.model, config.subspace, config.b, _use_tail(config))
    plan.complement_params  # (tau, lam, n) must exist before any replicate

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

    return (lambda y: {"functional": plan.functional(y), "s2": plan.variance(y)}), aggregate


def _noise_law(config):
    _require(config, "subspace")
    _law(config, config.subspace)
    dec = noise_decomposition(config.model, config.subspace, config.subspace0)
    plan = NoisePlan(config.model, config.subspace, config.subspace0)
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

    return apply, aggregate


def _risk(config):
    _require(config, "subspace")
    zeta = _law(config, config.subspace).mean.coeffs
    if config.use_tail:
        # The variance-estimator risk formula is exact for the truncated
        # denominator only; a tail denominator would shift the target.
        raise ValueError("the risk experiment requires use_tail false or omitted")
    plan = FunctionalPlan(config.model, config.subspace, use_tail=False)
    plan.complement_params  # (tau, lam, n) must exist before any replicate
    sigma_sq = config.sigma**2

    def apply(y):
        diff = project(y, config.subspace) - zeta
        return {"mean_err": row_inner(diff, diff), "s2_err": (plan.variance(y) - sigma_sq) ** 2}

    def aggregate(report, arrays, sums):
        report.use_tail = False  # truncated whatever the model's default convention
        mean_risk, mean_risk_se = _mean_se(arrays["mean_err"])
        target = risk_mean(config.model, config.subspace, config.sigma)
        _record(report, "mean_risk", mean_risk, mean_risk_se, target, "closed-form", "sigma^2 tr(Q P_U)")
        s2_risk, s2_risk_se = _mean_se(arrays["s2_err"])
        target = variance_est_risk(config.model, config.subspace, config.sigma)
        _record(report, "s2_risk", s2_risk, s2_risk_se, target, "closed-form", "variance estimator risk, truncated")
        bound = 2.0 * config.sigma**4
        report.targets["s2_risk_bound"] = _target(bound, "closed-form", "universal cap 2 sigma^4")
        report.checks.append(_check("s2_risk_bound", s2_risk, bound, 3.0 * s2_risk_se, "upper"))

    return apply, aggregate


def _learning_curve(config):
    _require(config, "subspace")
    if config.subspace.kind != "indices" or config.subspace.is_complement:
        raise ValueError("learning_curve needs a plain index-set subspace")
    if config.zeta is None:
        raise ValueError("learning_curve needs an explicit mean")
    _law(config, config.subspace)
    indices = list(config.subspace.indices)
    size = len(indices)
    cutoffs = config.cutoffs if config.cutoffs is not None else range(1, size + 1)
    for c in cutoffs:
        if not 0 <= c <= size:
            raise ValueError(f"cutoff {c} outside 0..{size}")
    cutoffs = [int(c) for c in cutoffs]
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
        report.config_summary["cutoffs"] = cutoffs or None  # the defaults filled in
        mean, se = _summed_mean_se(sums["risk_sum"], sums["risk_sumsq"], config.replicates)
        for j, c in enumerate(cutoffs):
            head = Subspace.from_indices(config.model.dim, indices[:c])
            analytic = risk_partial(config.model, head, config.zeta, config.sigma).risk
            _record(report, f"risk_cutoff_{c}", mean[j], se[j], analytic, "closed-form", "partial-observation risk")

    return apply, aggregate


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


def _run_chunk(config: ExperimentConfig, start: int, count: int, apply=None) -> dict:
    """Replicates [start, start + count) through the kind's block evaluator
    `apply`, which a pool worker, passing none, builds for itself."""
    build, summed = _KINDS[config.kind]
    if apply is None:
        apply = build(config)[0]
    law = _law(config)
    streams = ReplicateStreams(config.master_seed)
    rows = block_rows(config.model.dim)
    buffer = np.empty((min(rows, count), config.model.dim))
    arrays, sums = {}, {}
    for lo in range(0, count, rows):
        y = buffer[: min(rows, count - lo)]
        streams.standard_normal_rows(range(start + lo, start + lo + y.shape[0]), y)
        for key, values in apply(law.from_normals(y)).items():
            if key in summed:
                # Row by row onto the running total, in replicate order, so
                # the sum is the one of adding each replicate on its own.
                total = sums.setdefault(key, np.zeros(values.shape[1:]))
                for row in values:
                    total += row
            else:
                arrays.setdefault(key, []).append(values)
    return {
        "arrays": {key: np.concatenate(parts) for key, parts in arrays.items()},
        "sums": sums,
    }


def _config_summary(config: ExperimentConfig) -> dict:
    def sub_repr(s: Subspace | None):
        if s is None:
            return None
        data = s.to_dict()
        if "frame" in data:
            data["frame"] = f"rank {len(data['frame'])}"
        return data

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

    `workers` overrides the configured worker count; with more than one the
    chunks run in separate processes.  The report is identical either way
    apart from the runtime field.  `stream_path` optionally writes the
    per-replicate arrays as CSV for external plotting.
    """
    start_time = time.perf_counter()
    # Building the kind validates the config before any replicate is drawn.
    apply, aggregate = _KINDS[config.kind][0](config)
    workers = config.workers if workers is None else int(workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")

    chunks = [
        (start, min(CHUNK_SIZE, config.replicates - start))
        for start in range(0, config.replicates, CHUNK_SIZE)
    ]
    if workers == 1:
        partials = [_run_chunk(config, start, count, apply) for start, count in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, config, start, count) for start, count in chunks]
            partials = [f.result() for f in futures]

    arrays = {}
    sums = {}
    for key in partials[0].get("arrays", {}):
        arrays[key] = np.concatenate([p["arrays"][key] for p in partials])
    for key in partials[0].get("sums", {}):
        total = partials[0]["sums"][key].copy()
        for p in partials[1:]:
            total += p["sums"][key]
        sums[key] = total

    if stream_path is not None and arrays:
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
        use_tail=_use_tail(config),
        config_summary=_config_summary(config),
    )
    aggregate(report, arrays, sums)
    report.passed = all(c["passed"] for c in report.checks)
    report.runtime_seconds = time.perf_counter() - start_time
    return report


def _write_stream(path, arrays: dict) -> None:
    keys = sorted(arrays)
    columns = [np.asarray(arrays[k], dtype=float) for k in keys]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate," + ",".join(keys) + "\n")
        for i in range(columns[0].size):
            fh.write(str(i) + "," + ",".join(repr(float(col[i])) for col in columns) + "\n")
