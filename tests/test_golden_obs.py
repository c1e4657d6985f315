"""Golden pins for single-observation outputs: intervals, tests, the
variance estimator, the two noise statistics and the regression calls, on
seeded draws over index-set, frame and mixed subspaces.

The fixture `golden_obs.json` holds every output as JSON; floats are
compared exactly (a JSON float round-trips its value bit for bit).
Regenerate it with

    PYTHONPATH=src python tests/test_golden_obs.py

only when a change is meant to move these numbers, and say so in
CHANGES.md.
"""

import json
import os

import numpy as np
import pytest

# qualified access: test_subspace and test_beta collide with pytest collection rules
from hilbert_gauss import inference, regression
from hilbert_gauss.estimators import est_variance
from hilbert_gauss.harness import derive_stream
from hilbert_gauss.inference import ci_known, ci_unknown
from hilbert_gauss.processes import wiener_model
from hilbert_gauss.regression import DesignOperator, ci_beta_known, ci_beta_unknown
from hilbert_gauss.sampling import GaussianLaw, noise_plan, sample
from hilbert_gauss.spectral import HVector, SpectralModel, Subspace

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_obs.json")
DRAWS = 4
SIGMA = 0.8
ALPHA = 0.05
MASTER_SEED = 41

# Repeated eigenvalues, so frames can rotate inside the eigenspaces.
CUSTOM = SpectralModel([1.0, 1.0, 0.6, 0.6, 0.6, 0.3, 0.2, 0.2, 0.1, 0.05, 0.04, 0.03], tail_trace=0.02)
WIENER = wiener_model(32)


def unit(*coords) -> np.ndarray:
    """Coefficients of the unit vector along `coords`, (1-based mode, weight) pairs."""
    v = np.zeros(CUSTOM.dim)
    for k, w in coords:
        v[k - 1] = w
    return v / np.linalg.norm(v)


def frame(*rows) -> Subspace:
    return Subspace.from_frame(CUSTOM, list(rows))


def indices(model, ks) -> Subspace:
    return Subspace.from_indices(model.dim, ks)


# U spans modes 1..6 in both representations; U0 sits inside it.
FRAME_U = frame(
    unit((1, 1.0), (2, 1.0)),
    unit((1, 1.0), (2, -1.0)),
    unit((3, 1.0), (4, 1.0), (5, 1.0)),
    unit((3, 1.0), (4, -1.0)),
    unit((3, 1.0), (4, 1.0), (5, -2.0)),
    unit((6, 1.0)),
)
FRAME_U0 = frame(unit((1, 1.0), (2, 1.0)), unit((3, 1.0), (4, 1.0), (5, 1.0)))

# name -> (model, U, U0, mean in U0, b)
SUBSPACE_CASES = {
    "wiener_indices": (
        WIENER,
        indices(WIENER, [2, 3, 5]),
        indices(WIENER, [3]),
        {3: 0.7},
        {2: 1.0, 3: -0.5, 5: 2.0, 9: 0.3},
    ),
    "indices": (
        CUSTOM,
        indices(CUSTOM, range(1, 7)),
        indices(CUSTOM, [1, 3]),
        {1: 0.4, 3: -0.2},
        {1: 1.0, 4: 0.5, 6: -1.5},
    ),
    "frame": (CUSTOM, FRAME_U, FRAME_U0, {1: 0.3, 2: 0.3}, {1: 1.0, 4: 0.5, 6: -1.5}),
    "frame_vs_indices": (CUSTOM, FRAME_U, indices(CUSTOM, [6]), {6: 0.9}, {2: 1.0, 5: 0.5, 7: 0.2}),
    "indices_vs_frame": (
        CUSTOM,
        indices(CUSTOM, range(1, 7)),
        frame(unit((1, 1.0), (2, -1.0))),
        {1: 0.5, 2: -0.5},
        {1: 1.0, 3: 0.5},
    ),
}

# name -> (model, design columns, G0 columns, functionals c)
DESIGN_CASES = {
    "design_indices": (
        WIENER,
        [HVector.basis_vector(WIENER.dim, 4, scale=1.3), HVector.basis_vector(WIENER.dim, 5, scale=-0.4)],
        [[1.0, 0.0]],
        [[1.0, 0.0], [0.5, -2.0]],
    ),
    "design_frame": (
        CUSTOM,
        [
            unit((1, 1.0), (2, 0.5)),
            unit((3, 1.0), (4, -1.0), (5, 0.3)),
            0.4 * unit((1, 1.0), (2, 0.5)) + 1.5 * unit((6, 1.0)),
        ],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, -1.0, 0.5], [0.0, 1.0, 0.0]],
    ),
}


def vector(model, coords) -> HVector:
    v = np.zeros(model.dim)
    for k, w in coords.items():
        v[k - 1] = w
    return HVector(v)


def draws(model, mean: HVector, stream: int) -> list:
    law = GaussianLaw(model, mean, SIGMA)
    return [sample(law, derive_stream(MASTER_SEED, DRAWS * stream + i)) for i in range(DRAWS)]


def subspace_outputs(name: str) -> list:
    model, U, U0, mean, b = SUBSPACE_CASES[name]
    b = vector(model, b)
    # Frames were recorded without the explicit tail; a frame's complement
    # takes the tail as an index set's does (tests/test_inference.py).
    tails = (None, False, True) if U.kind == "indices" else (None, False)
    out = []
    for y in draws(model, vector(model, mean), list(SUBSPACE_CASES).index(name)):
        row = {
            "ci_known": ci_known(b, y, model, U, SIGMA, ALPHA).to_dict(),
            "ci_unknown": {str(t): ci_unknown(b, y, model, U, ALPHA, use_tail=t).to_dict() for t in tails},
            "test_subspace": inference.test_subspace(y, model, U, U0, ALPHA).to_dict(),
            "est_variance": {str(t): est_variance(y, model, U, use_tail=t) for t in tails},
        }
        if U.kind == "indices" and U0.kind == "indices":
            row["leading_complement_norm_sq"] = float(noise_plan(model, U, None).leading_norm_sq(y.coeffs, SIGMA))
            row["whitened_difference_norm_sq"] = float(noise_plan(model, U, U0).whitened_norm_sq(y.coeffs, SIGMA))
        out.append(row)
    return out


def design_outputs(name: str) -> list:
    model, columns, g0, cs = DESIGN_CASES[name]
    design = DesignOperator(model, columns)
    mean = design.apply(np.asarray(g0[0]) * 1.5)
    out = []
    for y in draws(model, mean, len(SUBSPACE_CASES) + list(DESIGN_CASES).index(name)):
        out.append(
            {
                "range_kind": design.range.kind,
                "ci_beta_known": [ci_beta_known(c, design, y, SIGMA, ALPHA).to_dict() for c in cs],
                "ci_beta_unknown": [ci_beta_unknown(c, design, y, ALPHA).to_dict() for c in cs],
                "test_beta": regression.test_beta(y, design, g0, ALPHA).to_dict(),
            }
        )
    return out


def outputs(name: str) -> list:
    raw = subspace_outputs(name) if name in SUBSPACE_CASES else design_outputs(name)
    return json.loads(json.dumps(raw))


def load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_cover_both_subspace_kinds():
    kinds = {(U.kind, U0.kind) for _, U, U0, _, _ in SUBSPACE_CASES.values()}
    assert kinds == {("indices", "indices"), ("frame", "frame"), ("frame", "indices"), ("indices", "frame")}
    ranges = {name: DesignOperator(model, cols).range.kind for name, (model, cols, _, _) in DESIGN_CASES.items()}
    assert ranges == {"design_indices": "indices", "design_frame": "frame"}


@pytest.mark.parametrize("name", [*SUBSPACE_CASES, *DESIGN_CASES])
def test_golden_observation(name):
    assert outputs(name) == load_fixture()[name]


if __name__ == "__main__":
    fixture = {name: outputs(name) for name in [*SUBSPACE_CASES, *DESIGN_CASES]}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
