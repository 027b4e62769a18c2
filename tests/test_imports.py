"""The package's import surface and budget: it exports what its modules
declare, and the solves load no scipy module they do not use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("grids", "linalg", "quadrature", "characteristic", "fullkernel", "crack")

# scipy.fft alone took a fresh process from 57.1 to 60.6 MiB, more than 5%
# of a small sweep's peak
UNUSED = ("scipy.special", "scipy.fft", "scipy.integrate")

SCRIPT = """
import json, sys
import numpy as np
import hypersing
from hypersing import (CharacteristicProblem, FullProblem, Interval, MaterialParams,
                       PVQuadSpec, build_grid, chebyshev_nystrom_rule, fredholm_reduce,
                       invert_characteristic, nystrom_eval, porosity_sweep,
                       solve_characteristic, solve_crack, solve_fredholm,
                       solve_full_collocation)
from hypersing.cli import main

material = MaterialParams(1.0, 1.0, 1.0, 1.2 ** 0.5, 1.0, 1.0)
solve_crack(material, 1.0, 20)
porosity_sweep(material, (0.0, 0.4), 1.0, 20)

iv, spec = Interval(-1.0, 1.0), PVQuadSpec(m=40)
load = lambda x: np.full(np.shape(x), -np.pi)
f = lambda x: -np.pi * np.asarray(x, dtype=float)
K0 = lambda x, t: np.cos(x + t)
K1 = lambda x, t: np.sin(x + t)
solve_characteristic(CharacteristicProblem(iv, load, f=f), build_grid(-1.0, 1.0, 20))
invert_characteristic(CharacteristicProblem(iv, load, f=f), 0.3, spec)
problem = FullProblem(iv, K0, load, K1=K1, f=f)
solve_full_collocation(problem, build_grid(-1.0, 1.0, 20))
nodes, weights = chebyshev_nystrom_rule(iv, 16)
system = fredholm_reduce(problem, spec, nodes)
nystrom_eval(problem, spec, system, weights, solve_fredholm(system, weights), [0.1, 0.5])

common = ["--set", "half_length=1", "--set", "n=20", "--set", "lam=1", "--set", "mu=1",
          "--set", "alpha=1", "--set", "xi=1", "--set", "sigma0=1"]
codes = [main(["crack", *common, "--set", "beta=1", "--out", "crack.csv"]),
         main(["sweep", *common, "--set", "N_values=0,0.4", "--out", "sweep.csv"]),
         main(["full", "--set", "a=-1", "--set", "b=1", "--set", "n=20",
               "--set", "rhs=chebyshev_u", "--set", "rhs_degree=3", "--out", "full.csv"])]
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.argv[1:]) & set(sys.modules))}))
"""


def test_solves_and_cli_runs_leave_unused_scipy_modules_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *UNUSED], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}


def test_package_exports_what_its_modules_declare():
    import hypersing

    declared = [name for module in MODULES
                for name in importlib.import_module(f"hypersing.{module}").__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(hypersing.__all__) == sorted(declared)
    for module in MODULES:
        owner = importlib.import_module(f"hypersing.{module}")
        assert all(getattr(hypersing, name) is getattr(owner, name) for name in owner.__all__)
