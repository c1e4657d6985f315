"""Span tracer installed from outside the package, and the per-layer
metrics computed from its spans.

`Tracer.install()` replaces each module-level function named in `TARGETS`,
wherever a `hilbert_gauss` module binds it, by a wrapper that records a
span: name, start, end and parent. Spans stay in memory until `save()`.
Names that do not exist are listed in `missing` instead of failing, so a
refactor shows up as unmeasured layers. A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

import numpy as np

TARGETS = {
    "harness": ("run_experiment", "derive_stream"),
    "sampling": (
        "sample",
        "noise_decomposition",
        "norm_sq_moments",
        "leading_complement_norm_sq",
        "whitened_difference_norm_sq",
    ),
    "spectral": (
        "project",
        "inner",
        "trace_q_on",
        "sup_eig_on",
        "top_multiplicity",
        "restricted_eigenvalues",
        "difference_subspace",
        "top_eigenspace",
    ),
    "distributions": (
        "norm_quantile",
        "t_quantile",
        "f_quantile",
        "gamma_quantile",
        "ks_statistic",
        "ks_critical_value",
        "gamma_cdf",
    ),
    "estimators": ("est_mean", "est_variance", "est_functional", "risk_mean", "risk_partial", "variance_est_risk"),
    "inference": (
        "ci_known",
        "ci_unknown",
        "test_subspace",
        "ci_params_unknown",
        "test_params",
        "functional_variance_factor",
    ),
    "regression": ("lse", "ci_beta_known", "ci_beta_unknown", "test_beta", "pullback_functional"),
    "processes": ("wiener_model", "coeffs_from_trajectory"),
}

SPECTRAL_PLAN = tuple(
    f"spectral.{n}"
    for n in (
        "trace_q_on",
        "sup_eig_on",
        "top_multiplicity",
        "restricted_eigenvalues",
        "difference_subspace",
        "top_eigenspace",
    )
)
QUANTILES = tuple(f"distributions.{n}_quantile" for n in ("norm", "t", "f", "gamma"))

# Phases of one Monte Carlo replicate.  A span's self time counts toward
# its name's phase; `project` and `inner` count toward their caller's.
PHASES = ("draw", "plan", "statistic", "reduce")
PHASE_OF = {
    "harness.derive_stream": "draw",
    "sampling.sample": "draw",
    **{name: "plan" for name in SPECTRAL_PLAN + QUANTILES},
    "sampling.noise_decomposition": "plan",
    "sampling.norm_sq_moments": "plan",
    "inference.ci_params_unknown": "plan",
    "inference.test_params": "plan",
    "inference.functional_variance_factor": "plan",
    "estimators.risk_mean": "plan",
    "estimators.risk_partial": "plan",
    "estimators.variance_est_risk": "plan",
    "processes.wiener_model": "plan",
    "estimators.est_mean": "statistic",
    "estimators.est_variance": "statistic",
    "estimators.est_functional": "statistic",
    "inference.ci_known": "statistic",
    "inference.ci_unknown": "statistic",
    "inference.test_subspace": "statistic",
    "sampling.leading_complement_norm_sq": "statistic",
    "sampling.whitened_difference_norm_sq": "statistic",
    "processes.coeffs_from_trajectory": "statistic",
    **{f"regression.{n}": "statistic" for n in TARGETS["regression"]},
    "harness.run_experiment": "reduce",
    "distributions.ks_statistic": "reduce",
    "distributions.ks_critical_value": "reduce",
    "distributions.gamma_cdf": "reduce",
}


# Kinds whose statistic the harness computes inline, outside any traced
# function, so that their statistic phase reads zero at the seed commit.
STRUCTURALLY_EMPTY = {("statistic", "moments"), ("statistic", "learning_curve")}


class Tracer:
    """Spans in flat arrays, each stored before its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self.missing: list[str] = []
        self._patches = self._plan_patches()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return wrapper

    def _plan_patches(self) -> list:
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hilbert_gauss"]
        patches = []
        for module_name, names in TARGETS.items():
            try:
                module = importlib.import_module(f"hilbert_gauss.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            for n in names:
                original = getattr(module, n, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{n}")
                    continue
                wrapper = self._wrap(f"{module_name}.{n}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, attr, original, wrapper))
        return patches

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


class SpanTable:
    """Spans with their root, calibrated duration, self time and phase.

    `factors` maps each root span index to the calibration factor of the
    item it timed; durations are in normalised microseconds.
    """

    def __init__(self, tracer: Tracer, factors: dict):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        parent = a["parent"].astype(np.int64)
        n = parent.size
        root = np.where(parent < 0, np.arange(n), parent)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root
        scale = np.zeros(n)
        for idx, factor in factors.items():
            scale[idx] = factor
        self.dur = (a["end"] - a["start"]) / 1e3 * scale[root]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        base = np.array([PHASES.index(PHASE_OF[nm]) if nm in PHASE_OF else -1 for nm in self.names] or [-1])
        phase = base[self.name] if n else np.zeros(0, dtype=np.int64)
        # Spans are stored parents first, so one pass resolves inheritance.
        neutral = np.flatnonzero((phase < 0) & has_parent)
        statistic = PHASES.index("statistic")
        for i in neutral:
            p = phase[parent[i]]
            phase[i] = p if p >= 0 else statistic
        self.phase = phase

    def select(self, name: str, root: str | None = None) -> np.ndarray:
        """Spans called `name`, optionally only those under roots called `root`."""
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(name)
        if root is not None:
            mask &= self.under(root)
        return mask

    def under(self, root: str) -> np.ndarray:
        if root not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name[self.root] == self.names.index(root)

    def count(self, name: str, root: str | None = None) -> int:
        return int(np.count_nonzero(self.select(name, root)))

    def mean(self, names, self_time: bool = False) -> tuple:
        """(mean duration per call, number of calls) over spans with any of `names`."""
        mask = np.zeros(self.name.size, dtype=bool)
        for name in names:
            mask |= self.select(name)
        count = int(np.count_nonzero(mask))
        values = self.self_time if self_time else self.dur
        return (float(values[mask].sum() / count) if count else 0.0), count

    def total(self, names, root: str, self_time: bool = False) -> float:
        mask = np.zeros(self.name.size, dtype=bool)
        for name in names:
            mask |= self.select(name, root)
        values = self.self_time if self_time else self.dur
        return float(values[mask].sum())


def layer_metrics(table: SpanTable, kinds, replicates: int) -> dict:
    """Per-layer metrics from the spans: name -> (value, unit, sample note).

    Monte Carlo items are roots named `mc.<kind>`; each ran `replicates`
    replicates.
    """
    reps = {k: table.count(f"mc.{k}") * replicates for k in kinds}
    out = {}

    def per_call(metric, names, self_time=False):
        value, count = table.mean(names, self_time)
        out[metric] = (value, "us", f"n={count} calls")

    def per_rep(metric, kind, value, unit="us"):
        out[metric] = (value / reps[kind] if reps[kind] else 0.0, unit, f"n={reps[kind]} replicates of {kind}")

    def calls_per_rep(metric, names, kind):
        per_rep(metric, kind, sum(table.count(n, f"mc.{kind}") for n in names), "calls/rep")

    per_call("harness.derive_stream.us", ["harness.derive_stream"], self_time=True)
    harness_self = sum(table.total(["harness.run_experiment"], f"mc.{k}", self_time=True) for k in kinds)
    all_reps = sum(reps.values())
    out["harness.self.us_per_rep"] = (harness_self / max(all_reps, 1), "us", f"n={all_reps} replicates")
    per_call("sampling.sample.us", ["sampling.sample"])
    calls_per_rep("sampling.noise_decomposition.calls_per_rep.level", ["sampling.noise_decomposition"], "level")
    noise_stats = ["sampling.leading_complement_norm_sq", "sampling.whitened_difference_norm_sq"]
    per_rep("sampling.noise_stats.us", "noise_law", table.total(noise_stats, "mc.noise_law"))
    per_call("spectral.project.us", ["spectral.project"])
    for kind in ("coverage_unknown", "level"):
        calls_per_rep(f"spectral.project.calls_per_rep.{kind}", ["spectral.project"], kind)
    for kind in ("coverage_unknown", "level", "noise_law"):
        calls_per_rep(f"spectral.plan.calls_per_rep.{kind}", SPECTRAL_PLAN, kind)
        per_rep(f"spectral.plan.us_per_rep.{kind}", kind, table.total(SPECTRAL_PLAN, f"mc.{kind}", self_time=True))
    for kind in ("coverage_known", "coverage_unknown", "level"):
        calls_per_rep(f"distributions.quantile.calls_per_rep.{kind}", QUANTILES, kind)
    reports = table.count("mc.noise_law")
    ks_ms = table.total(["distributions.ks_statistic"], "mc.noise_law") / 1e3
    out["distributions.ks.ms"] = (ks_ms / reports if reports else 0.0, "ms", f"n={reports} reports")
    for name in (
        "estimators.est_mean",
        "estimators.est_variance",
        "estimators.est_functional",
        "inference.ci_known",
        "inference.ci_unknown",
        "inference.test_subspace",
        "regression.lse",
        "regression.ci_beta_known",
        "regression.ci_beta_unknown",
        "regression.test_beta",
        "processes.coeffs_from_trajectory",
    ):
        per_call(f"{name}.us", [name])
    per_call("processes.model_build.us", ["processes.wiener_model"])
    for kind in kinds:
        under = table.under(f"mc.{kind}")
        for p, phase in enumerate(PHASES):
            if (phase, kind) in STRUCTURALLY_EMPTY:
                continue
            time_us = float(table.self_time[under & (table.phase == p)].sum())
            per_rep(f"phase.{phase}.{kind}.us_per_rep", kind, time_us)
    return out
