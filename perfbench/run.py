"""Benchmark of hilbert_gauss: Monte Carlo cost per replicate, single-
observation latency, set-up time and memory, and per-layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_small_dim --seed 1 --seconds 30 --trace 0

Each workload is one closed loop, one process and one caller, that spends
its measured seconds on Monte Carlo requests (`run_experiment` for each of
the nine experiment kinds in turn) and on single-observation requests
handled as the command line handles them; the share of each differs by
workload (see `inputs.WORKLOADS` and BENCHMARK.json).  Every output is
checked against the reference outputs recorded under `reference/`.

With `--trace 0` the end-to-end metrics are printed, measured untraced;
with `--trace 1` every item runs once untraced and once traced, and the
per-layer metrics come from the traced spans.  All times are scaled by the
calibration of `calibrate.py`; raw times are printed next to them.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any
operation failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import subprocess
import sys
import time

import numpy as np

import calibrate
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Requests per block of single-observation requests between calibrations.
OBS_BLOCK = 200
# Fresh interpreters timed for the set-up metrics.
SETUP_RUNS = 5
# Relative tolerance of numeric outputs against the reference.
REL_TOL = 1e-9


def import_package():
    """Import hilbert_gauss from the checkout's `src`, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hilbert_gauss", "__init__.py")):
        raise ImportError(f"no hilbert_gauss package under {SRC}")
    sys.path.insert(0, SRC)
    import hilbert_gauss
    import hilbert_gauss.cli  # noqa: F401  (part of set-up, as for a command-line call)

    if os.path.dirname(os.path.dirname(os.path.abspath(hilbert_gauss.__file__))) != SRC:
        raise ImportError(f"hilbert_gauss was imported from {hilbert_gauss.__file__}, not {SRC}")
    return hilbert_gauss


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * abs(b)


def mc_digest(report) -> dict:
    return {
        "passed": bool(report.passed),
        "checks": [[c["name"], c["sided"], bool(c["passed"])] for c in report.checks],
        "estimates": {k: float(v) for k, v in report.estimates.items()},
    }


def mc_matches(got: dict, ref: dict) -> bool:
    return (
        got["passed"] == ref["passed"]
        and got["checks"] == ref["checks"]
        and sorted(got["estimates"]) == sorted(ref["estimates"])
        and all(close(got["estimates"][k], ref["estimates"][k]) for k in ref["estimates"])
    )


def kernel_dim(family: str, obs_dim: int) -> int:
    """The calibration kernel that matches a request: trajectory extraction
    and 8192-mode functional requests are array-bound."""
    if family == "trajectory":
        return 8192
    return obs_dim if family == "functional" else 256


def tail(values) -> tuple:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n) * 10) / 10
    return p, float(np.percentile(values, p))


class Run:
    """One run of one workload: measurement, verification and metrics."""

    def __init__(self, hg, workload, seed, trace):
        self.hg = hg
        self.workload = workload
        self.trace = trace
        self.inputs = inputs.make_inputs(workload, seed)
        with open(os.path.join(HERE, "reference", "mc.json"), encoding="utf-8") as fh:
            self.mc_ref = json.load(fh)
        with open(os.path.join(HERE, "reference", "obs.json"), encoding="utf-8") as fh:
            self.obs_ref = json.load(fh)
        self.attempted = 0
        self.failures = []
        self.mc_samples = {k: [] for k in inputs.KINDS}  # (normalised, raw) us/rep
        self.mc_first = {}
        self.obs_samples = []  # (normalised, raw) us per request
        self.item_time = {"mc": 0.0, "obs": 0.0}
        self.traced_time = 0.0
        self.untraced_time = 0.0
        self.root_factors = {}
        self.tracer = spans.Tracer() if trace else None
        self.stream_pos = 0

    # -- operations ---------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def run_mc(self, kind: str, workers: int):
        """One timed run_experiment call: (seconds, report or None)."""
        config = self.inputs.configs[kind]
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            report = self.hg.run_experiment(config, workers=workers)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"mc {kind}: {type(exc).__name__}: {exc}")
            return (time.perf_counter_ns() - t0) / 1e9, None
        return (time.perf_counter_ns() - t0) / 1e9, report

    def check_mc(self, kind: str, report) -> None:
        if report is None:
            return
        text = report.comparable_json()
        if kind not in self.mc_first:
            self.mc_first[kind] = text
            w = self.workload
            key = inputs.mc_reference_key(kind, w.mc_dim, w.replicates, self.inputs.master_seed)
            if key not in self.mc_ref or not mc_matches(mc_digest(report), self.mc_ref[key]):
                self.fail(f"mc {kind}: report differs from the reference {key}")
        elif text != self.mc_first[kind]:
            self.fail(f"mc {kind}: repeated run gave a different report")

    def run_obs_block(self, tracer=None) -> tuple:
        """A block of single-observation requests, each a root span when
        traced: (seconds, [(ns, calibration kernel dim)] per request, root
        span indices)."""
        inp = self.inputs
        mix = inputs.REQUEST_MIX
        times, roots = [], []
        for _ in range(OBS_BLOCK):
            pos = self.stream_pos % inp.ops.size
            self.stream_pos += 1
            family, op, _ = mix[inp.ops[pos]]
            i = int(inp.idx[pos])
            self.attempted += 1
            root = tracer.begin(tracer.name_id(f"obs.{family}.{op}")) if tracer else None
            t0 = time.perf_counter_ns()
            try:
                result = inputs.handle(inp, family, op, i)
            except Exception as exc:
                result = exc
            dt = time.perf_counter_ns() - t0
            if tracer:
                tracer.finish(root)
                roots.append(root)
            times.append((dt, kernel_dim(family, self.workload.obs_dim)))
            if isinstance(result, Exception):
                self.fail(f"{family} {op} #{i}: {type(result).__name__}: {result}")
                continue
            key = inputs.obs_reference_key(family, op, self.workload.obs_dim)
            ref = self.obs_ref[key][i]
            got = inputs.digest(result)
            if len(got) != len(ref) or not all(close(a, b) for a, b in zip(got, ref)):
                self.fail(f"{family} {op} #{i}: output {got} differs from the reference {ref}")
        return sum(t for t, _ in times) / 1e9, times, roots

    # -- items: one Monte Carlo sample or one block of requests --------------

    def item(self, part: str, kind: str, traced: bool):
        """Run one item, untraced or traced, and return its normalised time."""
        tracer = self.tracer if traced else None
        roots = []
        gc.collect()
        if tracer:
            tracer.install()
        try:
            if part == "mc":
                root = tracer.begin(tracer.name_id(f"mc.{kind}")) if tracer else None
                seconds, report = self.run_mc(kind, 1)
                if tracer:
                    tracer.finish(root)
                    roots.append(root)
            else:
                seconds, times, roots = self.run_obs_block(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        factors = self.cal.factors()
        self.item_time[part] += seconds
        if part == "mc":
            factor = factors[self.workload.mc_dim]
            for root in roots:
                self.root_factors[root] = factor
            self.check_mc(kind, report)
            if not traced and report is not None:
                raw = seconds * 1e6 / self.workload.replicates
                self.mc_samples[kind].append((raw * factor, raw))
            return seconds * factor
        normalised = 0.0
        for j, (t, dim) in enumerate(times):
            factor = factors[dim]
            if traced:
                self.root_factors[roots[j]] = factor
            else:
                self.obs_samples.append((t / 1e3 * factor, t / 1e3))
            normalised += t / 1e9 * factor
        return normalised

    def measure(self, seconds: float) -> None:
        kinds = inputs.KINDS
        share = self.workload.mc_share
        self.cal = calibrate.Calibrator()
        deadline = time.perf_counter() + seconds
        n_mc = n_obs = 0
        while not (time.perf_counter() >= deadline and n_mc >= len(kinds) and n_obs >= 1):
            total = self.item_time["mc"] + self.item_time["obs"]
            if self.item_time["mc"] <= share * total:
                part, kind = "mc", kinds[n_mc % len(kinds)]
                n_mc += 1
            else:
                part, kind = "obs", None
                n_obs += 1
            if not self.trace:
                self.item(part, kind, traced=False)
                continue
            # Both passes handle the same requests; alternate which pass
            # goes first, so drift favours neither.
            first_traced = (n_mc + n_obs) % 2 == 0
            pos = self.stream_pos
            for traced in (first_traced, not first_traced):
                self.stream_pos = pos
                t = self.item(part, kind, traced)
                if traced:
                    self.traced_time += t
                else:
                    self.untraced_time += t

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before anything is timed."""
        hg = self.hg
        for kind in inputs.KINDS:
            small = hg.ExperimentConfig.from_dict(
                inputs.mc_config_dict(kind, self.workload.mc_dim, 64, self.inputs.master_seed)
            )
            hg.run_experiment(small, workers=1)
        self.run_obs_block()
        self.stream_pos = 0

    def check_workers(self) -> None:
        """Reports at workers=2 must equal their workers=1 counterparts byte
        for byte; a few kinds per run, untimed, keep the run short."""
        for kind in self.inputs.worker_checks:
            _, report = self.run_mc(kind, 2)
            if report is not None and report.comparable_json() != self.mc_first.get(kind):
                self.fail(f"mc {kind}: the workers=2 report differs from workers=1")

    # -- extra per-layer measurements ----------------------------------------

    def pool_fixed_ms(self) -> float:
        """One replicate at workers=2 minus the same at workers=1."""
        hg = self.hg
        config = hg.ExperimentConfig.from_dict(
            inputs.mc_config_dict("level", self.workload.mc_dim, 1, self.inputs.master_seed)
        )
        times = {1: [], 2: []}
        for _ in range(3):
            for workers in (2, 1):
                t0 = time.perf_counter_ns()
                hg.run_experiment(config, workers=workers)
                elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
                times[workers].append(elapsed_ms * self.cal.factors()[256])
        return float(np.median(times[2]) - np.median(times[1]))

    def config_bytes(self) -> float:
        sizes = [len(pickle.dumps(c)) for c in self.inputs.configs.values()]
        return float(np.mean(sizes))

    def quantile_cold_us(self) -> float:
        """Quantile calls at levels never asked for before in this process."""
        hg = self.hg
        rng = np.random.default_rng(17)
        levels = 0.9 + 0.09 * rng.random(6)
        times = []
        for a in levels:
            calls = (
                lambda: hg.norm_quantile(a),
                lambda: hg.t_quantile(3.0, a),
                lambda: hg.f_quantile(2.0, 5.0, a),
                lambda: hg.gamma_quantile(1.5, 0.5, a),
            )
            t0 = time.perf_counter_ns()
            for call in calls:
                call()
            times.append((time.perf_counter_ns() - t0) / 1e3 / len(calls))
        return float(np.mean(times) * self.cal.factors()[256])


def measure_setup(workload_name: str, seed: int) -> list:
    """Fresh interpreters importing the package and building the inputs:
    [(normalised seconds, raw seconds, normalised import seconds)].

    Importing numpy and scipy keeps both cores busy and waits on page
    faults, so the points next to one import track it worse than the
    median of the points around all of them (over 14 fresh interpreters,
    the quartile spread was 9.7% raw and 14.9% scaled point by point); that
    median still corrects a slow core that persists through the set-up.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    cal = calibrate.Calibrator()
    raw = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, probe, workload_name, str(seed)],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
            check=True,
        )
        cal.factors()
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append((data["total_s"], data["import_s"]))
    factor = cal.run_factors()[256]
    return [(total * factor, total, imports * factor) for total, imports in raw]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, a worker of
    the workers=2 determinism check, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:52s} {value:14.4f} {unit:10s} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        hg = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    run = Run(hg, workload, args.seed, bool(args.trace))
    run.warm_up()
    gc.collect()
    gc.freeze()
    run.measure(args.seconds)
    run.check_workers()
    rss = peak_rss_mb()
    setup = measure_setup(workload.name, args.seed)

    lines = [f"workload {workload.name}  seed {args.seed}  master_seed {run.inputs.master_seed}  trace {args.trace}"]
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": float(value), "unit": unit}
        lines.append(line(name, value, unit, note))

    def timing(name, samples, unit, stats=(("", 50),)):
        """Put the median (or other percentiles) of (normalised, raw) samples."""
        norm = [s[0] for s in samples]
        t = tail(norm)
        note = f"n={len(norm)}"
        note += f" p{t[0]}={t[1]:.4f}" if t else " (too few samples for a tail percentile)"
        for suffix, p in stats:
            raw = np.percentile([s[1] for s in samples], p)
            put(name + suffix, np.percentile(norm, p), unit, f"{note} raw={raw:.4f}")

    if not args.trace:
        for kind in inputs.KINDS:
            timing(f"mc.{kind}.us_per_rep", run.mc_samples[kind], "us")
        timing("obs.request_us", run.obs_samples, "us", ((".p50", 50), (".p99", 99)))
        timing("setup_s", setup, "s")
        put("peak_rss_mb", rss, "MB", "n=1")
    else:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        run.tracer.save(os.path.join(HERE, "out", f"trace_{workload.name}.npz"))
        table = spans.SpanTable(run.tracer, run.root_factors)
        for name, (value, unit, note) in spans.layer_metrics(table, inputs.KINDS, workload.replicates).items():
            put(name, value, unit, note)
        put("harness.pool.fixed_ms", run.pool_fixed_ms(), "ms", "n=3")
        put("harness.pool.config_bytes", run.config_bytes(), "bytes", "mean over the nine configs")
        put("distributions.quantile.cold_us", run.quantile_cold_us(), "us", "n=24")
        put("setup.import_s", np.median([s[2] for s in setup]), "s", f"n={len(setup)}")
        put(
            "trace.overhead_ratio",
            run.traced_time / run.untraced_time,
            "ratio",
            f"traced {run.traced_time:.3f} s / untraced {run.untraced_time:.3f} s",
        )
        lines.append(f"unmeasured (names not found): {', '.join(run.tracer.missing) or 'none'}")

    failed = len(run.failures)
    lines.append(
        line("fail_ratio", failed / max(run.attempted, 1), "ratio", f"failed {failed} of {run.attempted}")
    )
    for what in run.failures[:20]:
        lines.append(f"FAILED: {what}")
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
