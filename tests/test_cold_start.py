import inspect
import json
import os
import subprocess
import sys


def first_calls():
    """The first call of each function that loads scipy, as reprs."""
    import numpy as np

    from hilbert_gauss.distributions import f_quantile, gamma_cdf, gamma_quantile, norm_quantile, t_quantile
    from hilbert_gauss.regression import DesignOperator
    from hilbert_gauss.spectral import SpectralModel, Subspace, difference_subspace, restricted_eigenvalues

    # Modes 2 and 3 share an eigenvalue, so rotated frames in them are Q-invariant.
    model = SpectralModel([1.0, 0.5, 0.5, 0.25])
    s = float(np.sqrt(0.5))
    plane = Subspace.from_frame(model, [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    diagonal = Subspace.from_frame(model, [[0.0, s, s, 0.0]])
    values = (
        norm_quantile(0.975),
        t_quantile(7.5, 0.9),
        f_quantile(4.0, 9.0, 0.99),
        gamma_quantile(2.5, 2.0, 0.7),
        gamma_cdf(1.3, 2.5, 2.0),
        difference_subspace(model, plane, diagonal).frame.tolist(),
        restricted_eigenvalues(model, diagonal.complement()).tolist(),
        DesignOperator(model, [[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]]).range.frame.tolist(),
    )
    return [repr(v) for v in values]


COLD_START = """
import dataclasses, json, sys

def modules(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

def scipy_and_pool_modules():
    return {"scipy": modules("scipy"), "pool": modules("concurrent", "multiprocessing")}

import hilbert_gauss, hilbert_gauss.cli
loaded = {"import": scipy_and_pool_modules()}
for kind in hilbert_gauss.harness.EXPERIMENT_KINDS:
    data = {"kind": kind, "model": {"basis_id": "wiener", "dim": 16}, "subspace": [4],
            "b": {"coords": {"4": 1.4142135623730951}}, "zeta": {"coords": {"4": 0.7}}, "replicates": 64}
    if kind == "moments":
        data.update(subspace=None, b=None, zeta=None)
    elif kind in ("level", "noise_law"):
        data.update(subspace=[4, 5, 6], subspace0=[4], b=None)
    elif kind == "learning_curve":
        data.update(subspace=list(range(1, 9)), b=None)
    hilbert_gauss.ExperimentConfig.from_dict(data)
obs, mc, out = sys.argv[1:4]
for args in (
    ["simulate", "--model", "wiener:16", "--points", "32", "--out", out],
    ["estimate", "--model", "wiener:16", "--obs", obs, "--subspace", "4", "--b", "4:1.0", "--out", out],
    ["mc", "--config", mc, "--workers", "2", "--out", out],
):
    try:
        hilbert_gauss.cli.main(args, standalone_mode=False)
    except SystemExit as exc:  # mc exits with its report's outcome
        assert exc.code == 0, args
loaded["configs and cli"] = scipy_and_pool_modules()
# Two full chunks of narrow blocks at two workers start a pool, and give the bytes of one worker.
config = dataclasses.replace(hilbert_gauss.ExperimentConfig.load(mc), replicates=2 * hilbert_gauss.harness.CHUNK_SIZE)
pooled = hilbert_gauss.run_experiment(config, workers=2).comparable_json()
pool = modules("concurrent", "multiprocessing")
same = pooled == hilbert_gauss.run_experiment(config, workers=1).comparable_json()
print(json.dumps({"loaded": loaded, "pool": pool, "same": same, "values": first_calls()}))
"""


def test_cold_start_loads_scipy_only_on_first_use(tmp_path):
    # A fresh interpreter: the other test modules import scipy and the pool themselves.
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"coords": {"4": 0.7, "1": 0.3}}))
    mc = tmp_path / "mc.json"  # one chunk, of a kind that needs no scipy quantile
    mc.write_text(json.dumps({"kind": "moments", "model": "wiener:16", "replicates": 64}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = inspect.getsource(first_calls) + COLD_START
    res = subprocess.run(
        [sys.executable, "-c", script, str(obs), str(mc), str(tmp_path / "out.txt")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    nothing = {"scipy": [], "pool": []}
    assert result["loaded"] == {"import": nothing, "configs and cli": nothing}
    assert "concurrent.futures.process" in result["pool"] and "multiprocessing" in result["pool"]
    assert result["same"]
    assert result["values"] == first_calls()
