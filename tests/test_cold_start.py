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
    from hilbert_gauss.spectral import SpectralModel, Spectrum, Subspace, difference_subspace

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
        Spectrum(model, diagonal.complement()).eigenvalues.tolist(),
        DesignOperator(model, [[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]]).range.frame.tolist(),
    )
    return [repr(v) for v in values]


def run_fresh(script, *args):
    """The JSON on the last stdout line of `script` run in a fresh interpreter,
    after first_calls' source: the other test modules import scipy themselves."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", inspect.getsource(first_calls) + script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


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
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"coords": {"4": 0.7, "1": 0.3}}))
    mc = tmp_path / "mc.json"  # one chunk, of a kind that needs no scipy quantile
    mc.write_text(json.dumps({"kind": "moments", "model": "wiener:16", "replicates": 64}))
    result = run_fresh(COLD_START, obs, mc, tmp_path / "out.txt")
    nothing = {"scipy": [], "pool": []}
    assert result["loaded"] == {"import": nothing, "configs and cli": nothing}
    assert "concurrent.futures.process" in result["pool"] and "multiprocessing" in result["pool"]
    assert result["same"]
    assert result["values"] == first_calls()


# Modules that scipy.special's package init loads and the compiled ufuncs do not.
PACKAGE_ONLY = ("scipy.special", "concurrent", "email", "logging", "socket")

QUANTILE_CALLS = """
import json, sys
import hilbert_gauss.cli
obs, mc, out = sys.argv[1:4]
for args in (
    ["ci", "--model", "wiener:16", "--obs", obs, "--subspace", "4,5", "--b", "4:1.0", "--out", out],
    ["test", "--model", "wiener:16", "--obs", obs, "--subspace", "4,5,6", "--null-subspace", "4", "--out", out],
    ["mc", "--config", mc, "--out", out],
):
    try:
        hilbert_gauss.cli.main(args, standalone_mode=False)
    except SystemExit as exc:  # mc exits with its report's outcome
        assert exc.code in (0, 1), args
print(json.dumps({"ufuncs": "scipy.special._ufuncs" in sys.modules, "loaded": [m for m in %r if m in sys.modules]}))
""" % (PACKAGE_ONLY,)

LATER_IMPORT = """
import json, math
from hilbert_gauss import distributions
values = first_calls()
import scipy.special
print(json.dumps({
    "module": distributions._special().__name__,
    "same": [getattr(scipy.special, name) is getattr(distributions._special(), name) for name in distributions._UFUNCS],
    "package": math.isclose(scipy.special.logsumexp([0.0, 0.0]), math.log(2.0)),
    "values": values,
}))
"""

FALLBACK = """
import importlib.abc, json, sys
from hilbert_gauss import distributions
sys.modules["scipy.special._ufuncs"] = None  # the ufunc-only load raises ImportError


class LiftBlock(importlib.abc.MetaPathFinder):
    # scipy.special's own init imports _ufuncs too: lift the block at its first submodule lookup.
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy.special.") and sys.modules.get("scipy.special._ufuncs", 0) is None:
            del sys.modules["scipy.special._ufuncs"]
        return None


sys.meta_path.insert(0, LiftBlock())
values = first_calls()
print(json.dumps({"module": distributions._special().__name__, "values": values}))
"""

THREADS = """
import json, sys, threading
from hilbert_gauss import distributions
barrier = threading.Barrier(4)
results = [None] * 4


def first_quantiles(i):
    barrier.wait()
    results[i] = [distributions.t_quantile(7.5, 0.9), distributions.f_quantile(4.0, 9.0, 0.99)]


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_quantiles, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({
    "alive": [thread.is_alive() for thread in threads],
    "results": results,
    "stand_in": "scipy.special" in sys.modules,
    "module": distributions._special().__name__,
}))
"""


def test_quantile_calls_skip_scipy_special_package_init(tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"coords": {"4": 0.7, "5": -0.2, "6": 0.4, "1": 0.3}}))
    mc = tmp_path / "mc.json"
    mc.write_text(
        json.dumps({"kind": "noise_law", "model": "wiener:16", "subspace": [4, 5, 6], "subspace0": [4], "replicates": 64})
    )
    result = run_fresh(QUANTILE_CALLS, obs, mc, tmp_path / "out.txt")
    assert result == {"ufuncs": True, "loaded": []}


FRAME_CI = """
import json, sys
import hilbert_gauss.cli
obs, frame, out = sys.argv[1:4]
args = ["ci", "--model", "bridge:16", "--obs", obs, "--subspace", frame, "--b", "4:1.0", "--out", out]
hilbert_gauss.cli.main(args, standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.linalg"))))
"""


def test_ci_on_a_frame_subspace_loads_no_scipy_linalg(tmp_path):
    # The spectrum of a frame's complement takes numpy's SVD; a pivoted QR (_span) alone loads scipy.linalg.
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"coords": {"4": 0.7, "5": -0.2, "1": 0.3}}))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"frame": [[float(k == mode) for k in range(16)] for mode in (3, 4)]}))
    assert run_fresh(FRAME_CI, obs, frame, tmp_path / "out.txt") == []
    assert json.loads((tmp_path / "out.txt").read_text())["level"] == 0.95


def test_later_scipy_special_import_exports_the_ufuncs_called():
    result = run_fresh(LATER_IMPORT)
    assert result["module"] == "scipy.special._ufuncs"
    assert result["same"] == [True] * 5 and result["package"]
    assert result["values"] == first_calls()


def test_failed_ufunc_load_falls_back_to_the_package():
    result = run_fresh(FALLBACK)
    assert result == {"module": "scipy.special", "values": first_calls()}


def test_first_quantiles_on_threads_agree_and_leave_no_stand_in():
    from hilbert_gauss.distributions import f_quantile, t_quantile

    result = run_fresh(THREADS)
    assert result["alive"] == [False] * 4
    assert result["results"] == [[t_quantile(7.5, 0.9), f_quantile(4.0, 9.0, 0.99)]] * 4
    assert not result["stand_in"] and result["module"] == "scipy.special._ufuncs"
