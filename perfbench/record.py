"""Record the reference outputs that every benchmark run is checked against.

Run once, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record.py

It writes `reference/mc.json`, the check outcomes and estimates of every
Monte Carlo report a run can ask for (each setting of `inputs.MC_SETTINGS`
at each master seed of `inputs.MASTER_SEEDS`, at workers=1), and
`reference/obs.json`, the checked numbers of every single-observation
request on every bank entry.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hilbert_gauss as hg  # noqa: E402

import inputs  # noqa: E402
from run import mc_digest  # noqa: E402


def record_mc() -> dict:
    out = {}
    for dim, replicates in inputs.MC_SETTINGS:
        for seed in inputs.MASTER_SEEDS:
            for kind in inputs.KINDS:
                config = hg.ExperimentConfig.from_dict(inputs.mc_config_dict(kind, dim, replicates, seed))
                key = inputs.mc_reference_key(kind, dim, replicates, seed)
                out[key] = mc_digest(hg.run_experiment(config, workers=1))
        print(f"mc dim {dim} replicates {replicates}: done", file=sys.stderr)
    return out


def record_obs() -> dict:
    out = {}
    for dim in inputs.OBS_DIMS:
        workload = next(w for w in inputs.WORKLOADS.values() if w.obs_dim == dim)
        data = inputs.make_inputs(workload, 0)
        for family, op, _ in inputs.REQUEST_MIX:
            key = inputs.obs_reference_key(family, op, dim)
            size = inputs.TRAJ_BANK if family == "trajectory" else inputs.OBS_BANK
            out[key] = [inputs.digest(inputs.handle(data, family, op, i)) for i in range(size)]
    return out


def main() -> None:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name, table in (("obs", record_obs()), ("mc", record_mc())):
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
