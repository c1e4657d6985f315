"""Command-line interface.

Subcommands cover the simulation / estimation / inference workflow end to
end: `simulate` writes trajectories, `estimate` and `ci` and `test` operate
on a single observation, `regress` handles design-matrix problems, and `mc`
runs a Monte Carlo experiment from a JSON config.

Exit codes: 0 on success (for `mc`: all checks passed), 1 when an `mc`
check fails, 2 on bad input or configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click
import numpy as np

from .estimators import est_functional, est_mean, est_variance
from .harness import DEFAULT_MODEL_DIM, ExperimentConfig, derive_stream, run_experiment
from .harness import _named, _parse_columns, _parse_model, _parse_observation, _parse_subspace, _parse_vector
from .inference import ZeroResidualError, ci_known, ci_unknown, test_subspace
from .processes import Grid, eval_vector
from .regression import DesignOperator, ci_beta_known, ci_beta_unknown, lse, test_beta
from .sampling import GaussianLaw, sample
from .spectral import HVector


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(text: str, out: str) -> None:
    with click.open_file(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(obj, out: str) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        _fail(f"result is not finite: {exc}")
    _emit(text + "\n", out)


class _Main(click.Group):
    """Commands whose bad input (ValueError, OSError, ZeroResidualError, MemoryError) exits 2 with one error line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError, ZeroResidualError, MemoryError) as exc:
            _fail(str(exc) or repr(exc))


@click.group(cls=_Main)
@click.pass_context
def main(ctx):
    """Gaussian models with known covariance spectrum: simulation,
    estimation, confidence intervals, and hypothesis tests."""
    # Overflow shows as a non-finite result, which _emit_json reports as one
    # error line; numpy's floating-point warnings would only precede it.
    ctx.with_resource(np.errstate(all="ignore"))


@main.command()
@click.option("--model", "model_spec", default="wiener:256", show_default=True, help="wiener:<n>, bridge:<n>, or a model JSON path.")
@click.option("--sigma", default=0.25, show_default=True, type=float, help="Noise scale.")
@click.option("--points", default=512, show_default=True, type=int, help="Uniform grid size on [0, 1].")
@click.option("--mean", "mean_spec", default=None, help="Mean vector (file, k:v pairs, or dense floats).")
@click.option("--seed", default=0, show_default=True, type=int, help="Master seed.")
@click.option("--out", default="-", show_default=True, help="Output path, '-' for stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def simulate(model_spec, sigma, points, mean_spec, seed, out, fmt):
    """Draw one trajectory and write it as t,y samples."""
    model = _named("--model", _parse_model, model_spec, DEFAULT_MODEL_DIM)
    if model.basis_id == "abstract":
        _fail("simulate needs a model with a function basis (wiener or bridge)")
    mean = _named("--mean", _parse_vector, mean_spec, model.dim) if mean_spec else HVector.zero(model.dim)
    law = GaussianLaw(model, mean, sigma)
    grid = Grid.uniform(points)
    y = sample(law, derive_stream(seed, 0))
    values = eval_vector(model, y, grid)
    if fmt == "csv":
        lines = ["t,y"]
        lines += [f"{repr(float(t))},{repr(float(v))}" for t, v in zip(grid.points, values)]
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit_json(
            {
                "t": [float(t) for t in grid.points],
                "y": [float(v) for v in values],
                "coeffs": [float(c) for c in y.coeffs],
                "sigma": sigma,
                "seed": seed,
            },
            out,
        )


@main.command()
@click.option("--model", "model_spec", required=True, help="wiener:<n>, bridge:<n>, or a model JSON path.")
@click.option("--obs", "obs_path", required=True, help="Observation: a vector (file or inline) or a t,y trajectory CSV.")
@click.option("--subspace", "subspace_spec", required=True, help="Index list '4,5,6' or subspace JSON path.")
@click.option("--b", "b_spec", default=None, help="Functional vector for a linear estimate.")
@click.option("--use-tail/--no-tail", "use_tail", default=None, help="Include the unobserved spectral mass in the variance denominator.")
@click.option("--out", default="-", show_default=True)
def estimate(model_spec, obs_path, subspace_spec, b_spec, use_tail, out):
    """Project an observation onto a subspace and estimate the noise scale."""
    model = _named("--model", _parse_model, model_spec, DEFAULT_MODEL_DIM)
    subspace = _named("--subspace", _parse_subspace, subspace_spec, model)
    y = _named("--obs", _parse_observation, obs_path, model)
    result = {"mean_coeffs": [float(c) for c in est_mean(y, subspace).coeffs]}
    if b_spec:
        result["functional"] = est_functional(_named("--b", _parse_vector, b_spec, model.dim), y, subspace)
    result["s2"] = est_variance(y, model, subspace, use_tail=use_tail)
    _emit_json(result, out)


@main.command()
@click.option("--model", "model_spec", required=True)
@click.option("--obs", "obs_path", required=True)
@click.option("--subspace", "subspace_spec", required=True)
@click.option("--b", "b_spec", required=True, help="Functional vector defining the target <b, mean>.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--sigma", default=None, type=float, help="Known noise scale; omit to estimate it from the residual.")
@click.option("--use-tail/--no-tail", "use_tail", default=None)
@click.option("--out", default="-", show_default=True)
def ci(model_spec, obs_path, subspace_spec, b_spec, alpha, sigma, use_tail, out):
    """Confidence interval for a linear functional of the mean."""
    model = _named("--model", _parse_model, model_spec, DEFAULT_MODEL_DIM)
    subspace = _named("--subspace", _parse_subspace, subspace_spec, model)
    y = _named("--obs", _parse_observation, obs_path, model)
    b = _named("--b", _parse_vector, b_spec, model.dim)
    if sigma is not None:
        interval = ci_known(b, y, model, subspace, sigma, alpha)
    else:
        interval = ci_unknown(b, y, model, subspace, alpha, use_tail=use_tail)
    _emit_json(interval.to_dict(), out)


@main.command()
@click.option("--model", "model_spec", required=True)
@click.option("--obs", "obs_path", required=True)
@click.option("--subspace", "subspace_spec", required=True, help="Working subspace U.")
@click.option("--null-subspace", "null_spec", required=True, help="Hypothesised subspace inside U.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--out", default="-", show_default=True)
def test(model_spec, obs_path, subspace_spec, null_spec, alpha, out):
    """Test whether the mean lies in the smaller subspace."""
    model = _named("--model", _parse_model, model_spec, DEFAULT_MODEL_DIM)
    subspace = _named("--subspace", _parse_subspace, subspace_spec, model)
    null_subspace = _named("--null-subspace", _parse_subspace, null_spec, model)
    y = _named("--obs", _parse_observation, obs_path, model)
    _emit_json(test_subspace(y, model, subspace, null_subspace, alpha).to_dict(), out)


@main.command()
@click.option("--model", "model_spec", required=True)
@click.option("--obs", "obs_path", required=True)
@click.option("--design", "design_path", required=True, help="Design: a JSON file whose 'columns' are vectors.")
@click.option("--c", "c_spec", default=None, help="Parameter-space functional: a vector with one entry per design column.")
@click.option("--null-design", "null_path", default=None, help="JSON file whose 'columns', one entry per design column, span the hypothesised parameter subspace.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--sigma", default=None, type=float)
@click.option("--use-tail/--no-tail", "use_tail", default=None)
@click.option("--out", default="-", show_default=True)
def regress(model_spec, obs_path, design_path, c_spec, null_path, alpha, sigma, use_tail, out):
    """Least squares on a finite design, with optional interval and test."""
    model = _named("--model", _parse_model, model_spec, DEFAULT_MODEL_DIM)
    y = _named("--obs", _parse_observation, obs_path, model)
    design = DesignOperator(model, _named("--design", _parse_columns, design_path, model.dim))
    beta = lse(design, y)
    result = {"beta": [float(v) for v in beta]}
    if c_spec:
        c = _named("--c", _parse_vector, c_spec, design.n_params).coeffs
        if sigma is not None:
            interval = ci_beta_known(c, design, y, sigma, alpha)
        else:
            interval = ci_beta_unknown(c, design, y, alpha, use_tail=use_tail)
        result["interval"] = interval.to_dict()
    if null_path:
        g0 = [col.coeffs for col in _named("--null-design", _parse_columns, null_path, design.n_params)]
        result["test"] = test_beta(y, design, g0, alpha).to_dict()
    _emit_json(result, out)


@main.command()
@click.option("--config", "config_path", required=True, help="Experiment config JSON.")
@click.option("--seed", default=None, type=int, help="Override the config master seed.")
@click.option("--workers", default=None, type=int, help="Override the config worker count: the most processes to start, one per chunk of at least half a full chunk; wide blocks start none and run on threads.")
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--stream", "stream_path", default=None, help="Write per-replicate values to this CSV.")
def mc(config_path, seed, workers, out, fmt, stream_path):
    """Run a Monte Carlo experiment; exit 1 if any check fails."""
    config = ExperimentConfig.load(config_path)
    if seed is not None:
        config = replace(config, master_seed=seed)
    report = run_experiment(config, workers=workers, stream_path=stream_path)
    try:
        text = report.to_json()  # refuses a non-finite report, whatever the format
    except ValueError as exc:
        _fail(f"result is not finite: {exc}")
    if fmt == "csv":
        lines = ["name,estimate,target,tolerance,sided,passed"]
        for name, estimate, target, tolerance, sided, passed in report.check_rows():
            lines.append(f"{name},{repr(estimate)},{repr(target)},{repr(tolerance)},{sided},{passed}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
