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
import os
import sys

import click
import numpy as np

from .estimators import est_functional, est_mean, est_variance
from .harness import ExperimentConfig, _parse_vector, derive_stream, run_experiment
from .inference import ZeroResidualError, ci_known, ci_unknown, test_subspace
from .processes import Grid, bridge_model, coeffs_from_trajectory, eval_vector, wiener_model
from .regression import DesignOperator, ci_beta_known, ci_beta_unknown, lse, test_beta
from .sampling import GaussianLaw, sample
from .spectral import HVector, SpectralModel, Subspace


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_model(spec: str) -> SpectralModel:
    if ":" in spec and not os.path.exists(spec):
        name, _, count = spec.partition(":")
        try:
            n_modes = int(count)
        except ValueError:
            _fail(f"bad mode count in model spec {spec!r}")
        try:
            if name == "wiener":
                return wiener_model(n_modes)
            if name == "bridge":
                return bridge_model(n_modes)
        except ValueError as exc:
            _fail(f"bad model spec {spec!r}: {exc}")
        _fail(f"unknown model family {name!r}, expected wiener:<n> or bridge:<n>")
    try:
        return SpectralModel.load(spec)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        _fail(f"cannot load model from {spec!r}: {exc}")


def _load_subspace(spec: str, model: SpectralModel) -> Subspace:
    if os.path.exists(spec):
        try:
            return Subspace.load(spec, model=model)
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            _fail(f"cannot load subspace from {spec!r}: {exc}")
    try:
        indices = [int(part) for part in spec.split(",") if part.strip()]
        return Subspace.from_indices(model.dim, indices)
    except ValueError as exc:
        _fail(f"bad subspace {spec!r}: {exc}")


def _read_vector_file(path: str, dim: int) -> HVector:
    """Vector from a JSON file in the config vector format (`_parse_vector`)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data is None:
        raise ValueError(f"vector file {path!r} holds null")
    return _parse_vector(data, dim)


def _load_vector(spec: str, dim: int) -> HVector:
    """Vector from a JSON file, sparse inline `k:v,...`, or dense floats."""
    if os.path.exists(spec):
        try:
            return _read_vector_file(spec, dim)
        except OSError as exc:
            raise ValueError(f"cannot read vector file {spec!r}: {exc}") from exc
    if ":" in spec:
        pairs = (part.partition(":") for part in spec.split(","))
        return _parse_vector({"coords": {key: float(value) for key, _, value in pairs}}, dim)
    return _parse_vector([float(part) for part in spec.split(",")], dim)


def _read_columns(path: str, dim: int) -> list:
    """The 'columns' of a design file, each column in the vector format (`_parse_vector`)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    columns = data.get("columns") if isinstance(data, dict) else None
    if not isinstance(columns, list) or any(col is None for col in columns):
        raise ValueError(f"design file {path!r} needs a 'columns' list of vectors")
    return [_parse_vector(col, dim) for col in columns]


def _load_observation(path: str, model: SpectralModel) -> HVector:
    try:
        if path.endswith(".csv"):
            t_vals, y_vals = [], []
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline()
                if header.strip() != "t,y":
                    _fail(f"trajectory CSV {path!r} must start with header 't,y'")
                for line in fh:
                    if not line.strip():
                        continue
                    t_str, _, y_str = line.partition(",")
                    t_vals.append(float(t_str))
                    y_vals.append(float(y_str))
            return coeffs_from_trajectory(model, Grid(np.asarray(t_vals)), np.asarray(y_vals))
        return _read_vector_file(path, model.dim)
    except (OSError, TypeError, ValueError) as exc:
        _fail(f"cannot load observation from {path!r}: {exc}")


def _emit(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, out: str) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        _fail(f"result is not finite: {exc}")
    _emit(text + "\n", out)


@click.group()
def main():
    """Gaussian models with known covariance spectrum: simulation,
    estimation, confidence intervals, and hypothesis tests."""


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
    model = _load_model(model_spec)
    if model.basis_id == "abstract":
        _fail("simulate needs a model with a function basis (wiener or bridge)")
    try:
        mean = _load_vector(mean_spec, model.dim) if mean_spec else HVector.zero(model.dim)
        law = GaussianLaw(model, mean, sigma)
        grid = Grid.uniform(points)
    except ValueError as exc:
        _fail(str(exc))
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
@click.option("--obs", "obs_path", required=True, help="Observation: coefficient JSON or t,y trajectory CSV.")
@click.option("--subspace", "subspace_spec", required=True, help="Index list '4,5,6' or subspace JSON path.")
@click.option("--b", "b_spec", default=None, help="Functional vector for a linear estimate.")
@click.option("--use-tail/--no-tail", "use_tail", default=None, help="Include the unobserved spectral mass in the variance denominator.")
@click.option("--out", default="-", show_default=True)
def estimate(model_spec, obs_path, subspace_spec, b_spec, use_tail, out):
    """Project an observation onto a subspace and estimate the noise scale."""
    model = _load_model(model_spec)
    subspace = _load_subspace(subspace_spec, model)
    y = _load_observation(obs_path, model)
    try:
        zhat = est_mean(y, subspace)
        result = {"mean_coeffs": [float(c) for c in zhat.coeffs]}
        if b_spec:
            b = _load_vector(b_spec, model.dim)
            result["functional"] = est_functional(b, y, subspace)
        result["s2"] = est_variance(y, model, subspace, use_tail=use_tail)
    except ValueError as exc:
        _fail(str(exc))
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
    model = _load_model(model_spec)
    subspace = _load_subspace(subspace_spec, model)
    y = _load_observation(obs_path, model)
    try:
        b = _load_vector(b_spec, model.dim)
        if sigma is not None:
            interval = ci_known(b, y, model, subspace, sigma, alpha)
        else:
            interval = ci_unknown(b, y, model, subspace, alpha, use_tail=use_tail)
    except ValueError as exc:
        _fail(str(exc))
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
    model = _load_model(model_spec)
    subspace = _load_subspace(subspace_spec, model)
    null_subspace = _load_subspace(null_spec, model)
    y = _load_observation(obs_path, model)
    try:
        outcome = test_subspace(y, model, subspace, null_subspace, alpha)
    except (ValueError, ZeroResidualError) as exc:
        _fail(str(exc))
    _emit_json(outcome.to_dict(), out)


@main.command()
@click.option("--model", "model_spec", required=True)
@click.option("--obs", "obs_path", required=True)
@click.option("--design", "design_path", required=True, help="JSON file with a 'columns' list of basis-coefficient vectors.")
@click.option("--c", "c_spec", default=None, help="Parameter-space functional (length = number of columns).")
@click.option("--null-design", "null_path", default=None, help="JSON file whose 'columns' span the hypothesised parameter subspace.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--sigma", default=None, type=float)
@click.option("--use-tail/--no-tail", "use_tail", default=None)
@click.option("--out", default="-", show_default=True)
def regress(model_spec, obs_path, design_path, c_spec, null_path, alpha, sigma, use_tail, out):
    """Least squares on a finite design, with optional interval and test."""
    model = _load_model(model_spec)
    y = _load_observation(obs_path, model)
    try:
        design = DesignOperator(model, _read_columns(design_path, model.dim))
        beta = lse(design, y)
        result = {"beta": [float(v) for v in beta]}
        if c_spec:
            c = np.asarray([float(part) for part in c_spec.split(",")], dtype=float)
            if sigma is not None:
                interval = ci_beta_known(c, design, y, sigma, alpha)
            else:
                interval = ci_beta_unknown(c, design, y, alpha, use_tail=use_tail)
            result["interval"] = interval.to_dict()
        if null_path:
            g0 = [col.coeffs for col in _read_columns(null_path, design.n_params)]
            result["test"] = test_beta(y, design, g0, alpha).to_dict()
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"bad design input: {exc}")
    except (ValueError, ZeroResidualError) as exc:
        _fail(str(exc))
    _emit_json(result, out)


@main.command()
@click.option("--config", "config_path", required=True, help="Experiment config JSON.")
@click.option("--seed", default=None, type=int, help="Override the config master seed.")
@click.option("--workers", default=None, type=int, help="Override the config worker count.")
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--stream", "stream_path", default=None, help="Write per-replicate values to this CSV.")
def mc(config_path, seed, workers, out, fmt, stream_path):
    """Run a Monte Carlo experiment; exit 1 if any check fails."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if seed is not None:
            data["master_seed"] = seed
        config = ExperimentConfig.from_dict(data)
        report = run_experiment(config, workers=workers, stream_path=stream_path)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read config: {exc}")
    except (ValueError, ZeroResidualError) as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit(report.to_json(), out)
    else:
        lines = ["name,estimate,target,tolerance,sided,passed"]
        for name, estimate, target, tolerance, sided, passed in report.check_rows():
            lines.append(f"{name},{repr(estimate)},{repr(target)},{repr(tolerance)},{sided},{passed}")
        _emit("\n".join(lines) + "\n", out)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
