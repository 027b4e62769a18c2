"""The four benchmark workloads: seeded inputs, one operation, its checks.

Every operation gets inputs drawn fresh from the workload's random
stream (new porosity, new half-length, new problem objects and a new
output path), so no result can be reused from an earlier operation.
The program is always called through its module attributes
(``hypersing.crack.solve_crack``, ``hypersing.cli.main``, ...) so that
the traced mode can wrap them.

Each workload has a full-size instance, which is what the timed phase
runs, and a small instance of the same operation that the set-up probe
runs as its warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hypersing.characteristic
import hypersing.cli
import hypersing.crack
import hypersing.fullkernel
import hypersing.grids
import hypersing.quadrature

import reference as ref

KERNEL_CHECK_OFFSETS = 4


@dataclass(frozen=True)
class Outcome:
    """Verdict on one counted operation; ``expected`` marks the known fault."""

    name: str
    error: str | None
    expected: bool = False


@dataclass(frozen=True)
class Workload:
    """How to draw one operation's inputs, run it, and check its outputs.

    ``prepare`` runs the once-per-run reference check and returns an
    error description or None.
    """

    name: str
    outcomes_per_op: int
    make_inputs: Callable
    run_op: Callable
    check: Callable
    prepare: Callable

    def outcomes(self, inputs, result):
        """Checked outcomes of one operation; one that raised fails them all."""
        if not isinstance(result, BaseException):
            try:
                return self.check(inputs, result)
            except Exception as exc:  # a malformed output fails its operation
                result = exc
        error = f"{type(result).__name__}: {result}"
        return [Outcome(f"{self.name} operation", error)] * self.outcomes_per_op


def _material(porosity, lam=1.0, mu=1.0, sigma0=1.0):
    beta = math.sqrt(porosity * (lam + 2.0 * mu))
    return dict(lam=lam, mu=mu, alpha=1.0, beta=beta, xi=1.0, sigma0=sigma0)


def _crack_inputs(rng, out_dir, index, base_half_length, n):
    """Porosity in (0.1, 0.6), where the symbol stays positive for lam = mu = 1."""
    return dict(
        half_length=base_half_length * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)),
        n=n,
        material=_material(rng.uniform(0.1, 0.6)),
        # the nearest offset, where the kernel and its truncated tail are
        # largest, plus seeded ones
        kernel_cells=np.concatenate([[0], rng.integers(1, n, KERNEL_CHECK_OFFSETS - 1)]),
        out=str(out_dir / f"op{index}.csv"),
    )


def _kernel_outcome(inputs):
    """Package regular kernel at seeded grid offsets against QAWF."""
    mat = inputs["material"]
    c_sq, porosity = ref.material_groups(mat["lam"], mat["mu"], mat["beta"], mat["xi"])
    h = 2.0 * inputs["half_length"] / inputs["n"]
    offsets = (inputs["kernel_cells"] + 0.5) * h
    dp = hypersing.crack.derive_dimensionless(hypersing.crack.MaterialParams(**mat))
    values = [hypersing.crack.regular_kernel(x, dp) for x in offsets]
    return ref.check_regular_kernel(values, offsets, porosity, c_sq)


def _profile_outcome(inputs, x, opening):
    b, n = inputs["half_length"], inputs["n"]
    return (ref.check_profile_grid(x, b, n) or ref.check_opening(opening, b, n)
            or _kernel_outcome(inputs))


def _classical_inputs(rng, out_dir, base_half_length, n):
    material = _material(0.0, lam=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
                         sigma0=rng.uniform(0.5, 2.0))
    return dict(half_length=base_half_length * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)),
                n=n, material=material, out=str(out_dir / "classical.csv"))


def _ellipse_error(inputs, x, opening):
    mat = inputs["material"]
    return (ref.check_profile_grid(x, inputs["half_length"], inputs["n"])
            or ref.check_ellipse(x, opening, inputs["half_length"], inputs["n"],
                                 mat["lam"], mat["mu"], mat["sigma0"]))


# crack-long: solve_crack on b ~ 100 internal lengths --------------------

def _long_inputs(rng, out_dir, index, small):
    return _crack_inputs(rng, out_dir, index, 10.0 if small else 100.0, 40 if small else 240)


def _long_op(inputs):
    params = hypersing.crack.MaterialParams(**inputs["material"])
    sol = hypersing.crack.solve_crack(params, inputs["half_length"], inputs["n"])
    return np.array(sol.opening.points), np.array(sol.opening.values)


def _long_check(inputs, result):
    return [Outcome("crack-long solve", _profile_outcome(inputs, *result))]


def _long_prepare(rng, out_dir):
    inputs = _classical_inputs(rng, out_dir, 100.0, 240)
    return _ellipse_error(inputs, *_long_op(inputs))


# crack-dense: CLI crack on b ~ 1 at n = 3200 ---------------------------

def _crack_argv(inputs):
    argv = ["crack", "--out", inputs["out"],
            "--set", f"half_length={inputs['half_length']!r}", "--set", f"n={inputs['n']}"]
    for key, value in inputs["material"].items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


def _dense_inputs(rng, out_dir, index, small):
    return _crack_inputs(rng, out_dir, index, 1.0, 100 if small else 3200)


def _cli_op(argv_of):
    def op(inputs):
        code = hypersing.cli.main(argv_of(inputs))
        if code != 0:
            raise RuntimeError(f"hypersing CLI exited with code {code}")
        return inputs["out"]
    return op


_dense_op = _cli_op(_crack_argv)


def _dense_check(inputs, path):
    table = ref.read_csv(path, ("x", "opening"))
    return [Outcome("crack-dense CLI", _profile_outcome(inputs, table[:, 0], table[:, 1]))]


def _dense_prepare(rng, out_dir):
    inputs = _classical_inputs(rng, out_dir, 1.0, 3200)
    table = ref.read_csv(_dense_op(inputs), ("x", "opening"))
    return _ellipse_error(inputs, table[:, 0], table[:, 1])


# sweep: CLI sweep over ~20 porosity targets on b = 1 at n = 200 ---------

SWEEP_STRATA = 19
SWEEP_BASE = dict(lam=1.0, mu=1.0, alpha=1.0, xi=1.0, sigma0=1.0)


def _sweep_inputs(rng, out_dir, index, small):
    strata = 2 if small else SWEEP_STRATA
    width = 0.9 / strata
    # one target inside the middle 80% of each stratum of [0, 0.9), so
    # neighbours stay at least 0.2 of a stratum apart, plus N = 0
    targets = np.concatenate([[0.0], (np.arange(strata) + rng.uniform(0.1, 0.9, strata)) * width])
    rng.shuffle(targets)
    return dict(targets=[float(t) for t in targets], n=20 if small else 200,
                out=str(out_dir / f"op{index}.csv"))


def _sweep_argv(inputs):
    argv = ["sweep", "--out", inputs["out"], "--set", "half_length=1.0",
            "--set", f"n={inputs['n']}",
            "--set", "N_values=" + ",".join(repr(t) for t in inputs["targets"])]
    for key, value in SWEEP_BASE.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


_sweep_op = _cli_op(_sweep_argv)


def _sweep_check(inputs, path):
    rows = ref.read_csv(path, ("N", "opening0", "tip_coeff"))
    error = ref.check_sweep(rows, inputs["targets"], SWEEP_BASE["lam"], SWEEP_BASE["mu"],
                            SWEEP_BASE["sigma0"], 1.0)
    return [Outcome("sweep CLI", error)]


def _no_prepare(rng, out_dir):
    return None


# two-path: route 2 against route 3 on K0 = cos(x t), plus route 1 --------

def _two_path_problem():
    """Criterion-4 problem; seed independent, so its verdict is too."""
    def K0(x, t):
        return np.cos(np.asarray(x, dtype=float) * np.asarray(t, dtype=float))

    def K1(x, t):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        tiny = np.abs(t) < 1e-300
        safe = np.where(tiny, 1.0, t)
        return np.where(tiny, x, np.sin(x * safe) / safe)

    return hypersing.fullkernel.FullProblem(
        hypersing.grids.Interval(-1.0, 1.0), K0,
        lambda x: np.full(np.shape(x), -np.pi), K1=K1,
        f=lambda x: -np.pi * np.asarray(x, dtype=float))


def _semicircle_problem(amplitude):
    return hypersing.characteristic.CharacteristicProblem(
        hypersing.grids.Interval(-1.0, 1.0),
        lambda x: np.full(np.shape(x), -np.pi * amplitude),
        f=lambda x: -np.pi * amplitude * np.asarray(x, dtype=float))


def _two_path_inputs(rng, out_dir, index, small):
    amplitude = rng.uniform(0.5, 2.0)
    return dict(
        problem=_two_path_problem(),
        nodes=8 if small else 64, m=16 if small else 200,
        cells=(20, 40) if small else (200, 400),
        route1=_semicircle_problem(amplitude), amplitude=amplitude,
        route1_points=rng.uniform(-0.95, 0.95, 5))


def _two_path_op(inputs):
    fk = hypersing.fullkernel
    problem = inputs["problem"]
    spec = hypersing.quadrature.PVQuadSpec(m=inputs["m"])
    nodes, weights = fk.chebyshev_nystrom_rule(problem.interval, inputs["nodes"])
    system = fk.fredholm_reduce(problem, spec, nodes)
    values = fk.solve_fredholm(system, weights)
    gaps = []
    for cells in inputs["cells"]:
        direct = fk.solve_full_collocation(problem, hypersing.grids.build_grid(-1.0, 1.0, cells))
        inside = np.abs(direct.points) <= 0.9
        other = fk.nystrom_eval(problem, spec, system, weights, values, direct.points[inside])
        gaps.append(float(np.max(np.abs(direct.values[inside] - other))))
    route1 = [hypersing.characteristic.invert_characteristic(inputs["route1"], x, spec)
              for x in inputs["route1_points"]]
    return gaps, route1


def _two_path_check(inputs, result):
    (gap_coarse, gap_fine), route1 = result
    return [
        Outcome("two-path convergence and route 1",
                ref.check_two_path_convergence(gap_coarse, gap_fine)
                or ref.check_route1(route1, inputs["route1_points"], inputs["amplitude"])),
        Outcome("criterion 4", ref.check_criterion4(gap_coarse), expected=True),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("crack-long", 1, _long_inputs, _long_op, _long_check, _long_prepare),
        Workload("crack-dense", 1, _dense_inputs, _dense_op, _dense_check, _dense_prepare),
        Workload("sweep", 1, _sweep_inputs, _sweep_op, _sweep_check, _no_prepare),
        Workload("two-path", 2, _two_path_inputs, _two_path_op, _two_path_check,
                 _no_prepare),
    )
}

