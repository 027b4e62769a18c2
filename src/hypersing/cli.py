"""Command-line front end: key=value configs in, CSV tables out.

Config files are UTF-8 text, one ``key=value`` per line, with ``#``
comments and blank lines ignored.  ``--set key=value`` overrides config
entries (repeatable, last one wins).  Results land as CSV on the output
path only; diagnostics go to stderr.  Exit codes: 0 success, 2 config
problems, 3 invalid values or solver domain errors, 4 singular matrix
or a solve residual over its tolerance, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Interval, build_grid
from .linalg import ResidualError, SingularMatrixError
from .quadrature import OscIntSpec
from .characteristic import CharacteristicProblem, convergence_study, solve_characteristic
from .fullkernel import FullProblem, solve_full_collocation
from .crack import MaterialParams, porosity_sweep, solve_crack

__all__ = ["ConfigError", "RunConfig", "ResultTable", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SINGULAR = 4
EXIT_IO = 5

_COMMANDS = ("characteristic", "full", "crack", "sweep", "convergence")
_RHS_FAMILIES = ("constant_pi", "linear_pi", "chebyshev_u")
_KERNELS = ("zero", "cos_product")


class ConfigError(ValueError):
    """Carries every validation failure found in a config, not just the first."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


def _to_int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as an integer") from None


def _to_float(text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a number") from None
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _to_int_list(text):
    return [_to_int(part) for part in text.split(",") if part.strip() != ""]


def _to_float_list(text):
    return [_to_float(part) for part in text.split(",") if part.strip() != ""]


def _to_choice(choices):
    def convert(text):
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {text!r}")
        return text
    return convert


_DEFAULT_SPEC = OscIntSpec()

# key -> (converter, constraint description shown in --help)
_KEYS = {
    "command": (_to_choice(_COMMANDS), "one of " + ", ".join(_COMMANDS)),
    "a": (_to_float, "left interval endpoint; needs a < b (characteristic/full/convergence)"),
    "b": (_to_float, "right interval endpoint; needs a < b (characteristic/full/convergence)"),
    "n": (_to_int, "number of cells; >= 1, and >= 10 for crack/sweep"),
    "n_list": (_to_int_list, "comma-separated cell counts, strictly increasing (convergence)"),
    "rhs": (_to_choice(_RHS_FAMILIES), "right-hand-side family: " + ", ".join(_RHS_FAMILIES)),
    "rhs_scale": (_to_float, "scale applied to the rhs family (default 1.0)"),
    "rhs_degree": (_to_int, "Chebyshev degree k >= 0 for rhs=chebyshev_u (default 0)"),
    "kernel": (_to_choice(_KERNELS), "perturbing kernel for the full command (default cos_product)"),
    "kernel_scale": (_to_float, "scale applied to the perturbing kernel (default 1.0)"),
    "half_length": (_to_float, "crack half-length b > 0, in units of sqrt(alpha/xi) (crack/sweep)"),
    "lam": (_to_float, "Lame constant lambda; lam + 2 mu > 0"),
    "mu": (_to_float, "shear modulus; mu > 0"),
    "alpha": (_to_float, "void gradient constant; alpha > 0"),
    "beta": (_to_float, "void coupling constant; beta >= 0, beta^2 < xi (lam + 2 mu)"),
    "xi": (_to_float, "void compliance; xi > 0"),
    "sigma0": (_to_float, "remote tension; sigma0 >= 0"),
    "N_values": (_to_float_list, "comma-separated porosity targets, each in [0, 1) (sweep)"),
    "s_max": (_to_float, f"kernel transform truncation; > 0 (default {_DEFAULT_SPEC.s_max:g})"),
    "out": (str, "output CSV path (or pass --out)"),
}

_REQUIRED = {
    "characteristic": ("a", "b", "n", "rhs"),
    "full": ("a", "b", "n", "rhs"),
    "convergence": ("a", "b", "n_list", "rhs"),
    "crack": ("half_length", "n", "lam", "mu", "alpha", "beta", "xi", "sigma0"),
    "sweep": ("half_length", "n", "lam", "mu", "alpha", "xi", "sigma0", "N_values"),
}

_MATERIAL_KEYS = ("lam", "mu", "alpha", "beta", "xi", "sigma0")


@dataclass
class RunConfig:
    """Validated inputs for one CLI run.

    ``interval`` is set whenever both a and b are; ``material`` only
    for crack and sweep runs.
    """

    command: str
    out: str
    interval: Optional[Interval] = None
    n: Optional[int] = None
    n_list: Optional[list] = None
    rhs: Optional[str] = None
    rhs_scale: float = 1.0
    rhs_degree: int = 0
    kernel: str = "cos_product"
    kernel_scale: float = 1.0
    half_length: Optional[float] = None
    N_values: Optional[list] = None
    spec: OscIntSpec = _DEFAULT_SPEC
    material: Optional[MaterialParams] = None


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate config text plus ``key=value`` override strings.

    Collects every failure (unknown keys, parse errors, missing keys,
    constraint violations, and the ``ValueError`` of each domain object
    built from the keys) and raises a single ``ConfigError`` listing
    all of them; later assignments to the same key win.
    """
    failures = []
    raw = {}

    def absorb(line, where):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            return
        if "=" not in stripped:
            failures.append(f"{where}: expected key=value, got {stripped!r}")
            return
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            failures.append(f"{key}: unknown key")
            return
        converter, _ = _KEYS[key]
        try:
            raw[key] = converter(value)
        except ValueError as exc:
            failures.append(f"{key}: {exc}")

    def build(label, cls, *args, **kwargs):
        try:
            return cls(*args, **kwargs)
        except ValueError as exc:
            failures.append(f"{label}: {exc}")
            return None

    for lineno, line in enumerate(text.splitlines(), start=1):
        absorb(line, f"line {lineno}")
    for i, item in enumerate(overrides, start=1):
        absorb(item, f"override {i}")

    command = raw.get("command")
    if command is None:
        failures.append("command: missing required key")
    if "out" not in raw:
        failures.append("out: missing required key (set in config or pass --out)")

    if command in _REQUIRED:
        for key in _REQUIRED[command]:
            if key not in raw:
                failures.append(f"{key}: missing required key for command {command!r}")

    a, b = raw.pop("a", None), raw.pop("b", None)
    interval = None if a is None or b is None else build("a/b", Interval, a, b)
    if "n" in raw:
        floor = 10 if command in ("crack", "sweep") else 1
        if raw["n"] < floor:
            failures.append(f"n: must be >= {floor} for command {command!r}, got {raw['n']!r}")
    if "n_list" in raw:
        lst = raw["n_list"]
        if len(lst) == 0 or any(v < 1 for v in lst) \
                or any(y <= x for x, y in zip(lst, lst[1:])):
            failures.append(f"n_list: must be strictly increasing positive integers, got {lst!r}")
    if "rhs_degree" in raw and raw["rhs_degree"] < 0:
        failures.append(f"rhs_degree: must be >= 0, got {raw['rhs_degree']!r}")
    if "half_length" in raw and not raw["half_length"] > 0.0:
        failures.append(f"half_length: must be positive, got {raw['half_length']!r}")
    spec = build("s_max", OscIntSpec, raw.pop("s_max")) if "s_max" in raw else _DEFAULT_SPEC
    if "N_values" in raw:
        bad = [v for v in raw["N_values"] if not 0.0 <= v < 1.0]
        if bad:
            failures.append(f"N_values: every target must lie in [0, 1), got {bad!r}")
    constants = {"beta": 0.0, **{k: raw.pop(k) for k in _MATERIAL_KEYS if k in raw}}
    material = None
    if command in ("crack", "sweep") and len(constants) == len(_MATERIAL_KEYS):
        material = build("material constants", MaterialParams, **constants)

    if failures:
        raise ConfigError(failures)
    return RunConfig(**raw, interval=interval, spec=spec, material=material)


@dataclass
class ResultTable:
    """Numeric table with named columns.

    ``rows`` takes any array_like of shape (m, len(columns)) and is held
    as one float64 array.
    """

    columns: list
    rows: np.ndarray = ()

    def __post_init__(self):
        if len(self.columns) == 0:
            raise ValueError("table needs at least one column")
        width = len(self.columns)
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape == (0,):
            rows = rows.reshape(0, width)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows must form {width} columns, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("table contains non-finite entries")
        self.rows = rows

    def to_csv(self) -> str:
        # 17 significant digits round-trips float64 exactly
        line = ",".join(["%.17g"] * len(self.columns)) + "\n"
        return ",".join(self.columns) + "\n" + "".join(
            line % tuple(row) for row in self.rows.tolist())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())

    @classmethod
    def read(cls, path) -> "ResultTable":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip() != ""]
        if not lines:
            raise ValueError(f"empty CSV file: {path}")
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return cls(columns=columns, rows=rows)


def _rhs_functions(config: RunConfig):
    """Built-in rhs family: returns (fprime, exact_solution)."""
    interval = config.interval
    scale = config.rhs_scale
    mid, hw = interval.midpoint, interval.halfwidth

    def mapped(x):
        return (np.asarray(x, dtype=float) - mid) / hw

    def weight(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt((x - interval.a) * (interval.b - x))

    if config.rhs == "constant_pi":
        fprime = lambda x: np.full(np.shape(x), -np.pi * scale)
        exact = lambda x: scale * weight(x)
    elif config.rhs == "linear_pi":
        fprime = lambda x: -np.pi * scale * np.asarray(x, dtype=float)
        exact = lambda x: scale * weight(x) * (np.asarray(x, dtype=float) + mid) / 2.0
    elif config.rhs == "chebyshev_u":
        from scipy.special import eval_chebyu
        k = config.rhs_degree
        fprime = lambda x: -np.pi * (k + 1) * scale * eval_chebyu(k, mapped(x))
        exact = lambda x: scale * hw * eval_chebyu(k, mapped(x)) * np.sqrt(
            np.clip(1.0 - mapped(x) ** 2, 0.0, None))
    else:
        raise ValueError(f"unknown rhs family {config.rhs!r}")
    return fprime, exact


def _kernel_functions(config: RunConfig):
    if config.kernel == "zero":
        return lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
    scale = config.kernel_scale
    return lambda x, t: scale * np.cos(np.asarray(x, dtype=float) * np.asarray(t, dtype=float))


def run(config: RunConfig) -> ResultTable:
    """Execute one validated run and write its CSV table."""
    interval = config.interval
    if config.command in ("characteristic", "full"):
        fprime, _ = _rhs_functions(config)
        grid = build_grid(interval.a, interval.b, config.n)
        if config.command == "characteristic":
            sol = solve_characteristic(CharacteristicProblem(interval, fprime), grid)
        else:
            problem = FullProblem(interval, _kernel_functions(config), fprime)
            sol = solve_full_collocation(problem, grid)
        table = ResultTable(["t", "g"], np.column_stack((sol.points, sol.values)))
    elif config.command == "convergence":
        fprime, exact = _rhs_functions(config)
        study = convergence_study(CharacteristicProblem(interval, fprime), config.n_list, exact)
        table = ResultTable(["n", "max_error"], study)
    elif config.command == "crack":
        sol = solve_crack(config.material, config.half_length, config.n, config.spec)
        table = ResultTable(["x", "opening"],
                            np.column_stack((sol.opening.points, sol.opening.values)))
    elif config.command == "sweep":
        rows = porosity_sweep(config.material, config.N_values,
                              config.half_length, config.n, config.spec)
        table = ResultTable(["N", "opening0", "tip_coeff"], rows)
    else:
        raise ValueError(f"unknown command {config.command!r}")
    table.write(config.out)
    return table


def _key_help() -> str:
    width = max(len(name) for name in _KEYS)
    lines = ["configuration keys (config file or --set):"]
    for name, (_, constraint) in _KEYS.items():
        lines.append(f"  {name.ljust(width)}  {constraint}")
    return "\n".join(lines)


def _fail(kind: str, message: str) -> None:
    print(f"ERROR {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypersing",
        description="Finite-part integral equation solvers and the porous-elasticity "
                    "crack application.",
        epilog=_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable, last wins)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output CSV path (overrides the out key)")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            _fail("io", f"cannot read config {args.config!r}: {exc}")
            return EXIT_IO

    overrides = list(args.set) + [f"command={args.command}"]
    if args.out is not None:
        overrides.append(f"out={args.out}")

    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        for failure in exc.failures:
            _fail("config", failure)
        return EXIT_CONFIG

    try:
        run(config)
    except SingularMatrixError as exc:
        _fail("singular-matrix", str(exc))
        return EXIT_SINGULAR
    except ResidualError as exc:
        _fail("residual", str(exc))
        return EXIT_SINGULAR
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO
    except ValueError as exc:
        _fail("invalid-value", str(exc))
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
