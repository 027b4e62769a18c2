"""Command-line front end: key=value configs in, CSV tables out.

Config files are UTF-8 text, one ``key=value`` per line, with ``#``
comments and blank lines ignored.  ``--set key=value`` overrides config
entries (repeatable, last one wins).  Results land as CSV on the output
path only; diagnostics go to stderr.  Exit codes: 0 success, 2 config
problems, 3 invalid values or solver domain errors, 4 singular matrix,
5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .grids import Interval, build_grid
from .linalg import SingularMatrixError
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
    "half_length": (_to_float, "crack half-length b > 0 (crack/sweep)"),
    "lam": (_to_float, "Lame constant lambda; lam + 2 mu > 0"),
    "mu": (_to_float, "shear modulus; mu > 0"),
    "alpha": (_to_float, "void gradient constant; alpha > 0"),
    "beta": (_to_float, "void coupling constant; beta >= 0, beta^2 < xi (lam + 2 mu)"),
    "xi": (_to_float, "void compliance; xi > 0"),
    "sigma0": (_to_float, "remote tension; sigma0 >= 0"),
    "N_values": (_to_float_list, "comma-separated porosity targets, each in [0, 1) (sweep)"),
    "s_max": (_to_float, "kernel transform truncation; > 0 (default 200)"),
    "panels_per_period": (_to_int, "oscillation panels per period; integer >= 4 (default 8)"),
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
    """Validated inputs for one CLI run."""

    command: str
    out: str
    a: Optional[float] = None
    b: Optional[float] = None
    n: Optional[int] = None
    n_list: Optional[list] = None
    rhs: Optional[str] = None
    rhs_scale: float = 1.0
    rhs_degree: int = 0
    kernel: str = "cos_product"
    kernel_scale: float = 1.0
    half_length: Optional[float] = None
    lam: Optional[float] = None
    mu: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    xi: Optional[float] = None
    sigma0: Optional[float] = None
    N_values: Optional[list] = None
    s_max: float = 200.0
    panels_per_period: int = 8


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate config text plus ``key=value`` override strings.

    Collects every failure (unknown keys, parse errors, missing keys,
    constraint violations) and raises a single ``ConfigError`` listing
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

    def have(*keys):
        return all(raw.get(k) is not None for k in keys)

    if have("a", "b") and not raw["a"] < raw["b"]:
        failures.append(f"a/b: need a < b, got a={raw['a']!r}, b={raw['b']!r}")
    if have("n"):
        floor = 10 if command in ("crack", "sweep") else 1
        if raw["n"] < floor:
            failures.append(f"n: must be >= {floor} for command {command!r}, got {raw['n']!r}")
    if have("n_list"):
        lst = raw["n_list"]
        if len(lst) == 0 or any(v < 1 for v in lst) \
                or any(y <= x for x, y in zip(lst, lst[1:])):
            failures.append(f"n_list: must be strictly increasing positive integers, got {lst!r}")
    if have("rhs_degree") and raw["rhs_degree"] < 0:
        failures.append(f"rhs_degree: must be >= 0, got {raw['rhs_degree']!r}")
    if have("half_length") and not raw["half_length"] > 0.0:
        failures.append(f"half_length: must be positive, got {raw['half_length']!r}")
    if have("s_max") and not raw["s_max"] > 0.0:
        failures.append(f"s_max: must be positive, got {raw['s_max']!r}")
    if have("panels_per_period") and raw["panels_per_period"] < 4:
        failures.append(f"panels_per_period: must be >= 4, got {raw['panels_per_period']!r}")
    if have("N_values"):
        bad = [v for v in raw["N_values"] if not 0.0 <= v < 1.0]
        if bad:
            failures.append(f"N_values: every target must lie in [0, 1), got {bad!r}")
    if command in ("crack", "sweep") and all(k in raw for k in _REQUIRED[command]):
        material = {k: raw[k] for k in _MATERIAL_KEYS if k in raw}
        material.setdefault("beta", 0.0)
        try:
            MaterialParams(**material)
        except ValueError as exc:
            failures.append(f"material constants: {exc}")

    if failures:
        raise ConfigError(failures)

    known = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in raw.items() if k in known})


@dataclass
class ResultTable:
    """Rectangular numeric table with named columns."""

    columns: list
    rows: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.columns) == 0:
            raise ValueError("table needs at least one column")
        width = len(self.columns)
        cleaned = []
        for i, row in enumerate(self.rows):
            row = tuple(float(v) for v in row)
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
            if not all(np.isfinite(v) for v in row):
                raise ValueError(f"row {i} contains non-finite entries")
            cleaned.append(row)
        self.rows = cleaned

    def to_csv(self) -> str:
        # 17 significant digits round-trips float64 exactly
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"

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
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        return cls(columns=columns, rows=rows)


def _rhs_functions(config: RunConfig, interval: Interval):
    """Built-in rhs family: returns (fprime, exact_solution)."""
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


def _material(config: RunConfig) -> MaterialParams:
    return MaterialParams(lam=config.lam, mu=config.mu, alpha=config.alpha,
                          beta=config.beta if config.beta is not None else 0.0,
                          xi=config.xi, sigma0=config.sigma0)


def run(config: RunConfig) -> ResultTable:
    """Execute one validated run and write its CSV table."""
    if config.command == "characteristic":
        interval = Interval(config.a, config.b)
        fprime, _ = _rhs_functions(config, interval)
        grid = build_grid(config.a, config.b, config.n)
        sol = solve_characteristic(CharacteristicProblem(interval, fprime), grid)
        table = ResultTable(columns=["t", "g"], rows=list(zip(sol.points, sol.values)))
    elif config.command == "full":
        interval = Interval(config.a, config.b)
        fprime, _ = _rhs_functions(config, interval)
        kernel = _kernel_functions(config)
        grid = build_grid(config.a, config.b, config.n)
        sol = solve_full_collocation(FullProblem(interval, kernel, fprime), grid)
        table = ResultTable(columns=["t", "g"], rows=list(zip(sol.points, sol.values)))
    elif config.command == "convergence":
        interval = Interval(config.a, config.b)
        fprime, exact = _rhs_functions(config, interval)
        study = convergence_study(CharacteristicProblem(interval, fprime),
                                  config.n_list, exact)
        table = ResultTable(columns=["n", "max_error"], rows=study)
    elif config.command == "crack":
        spec = OscIntSpec(s_max=config.s_max, panels_per_period=config.panels_per_period)
        sol = solve_crack(_material(config), config.half_length, config.n, spec)
        table = ResultTable(columns=["x", "opening"],
                            rows=list(zip(sol.opening.points, sol.opening.values)))
    elif config.command == "sweep":
        spec = OscIntSpec(s_max=config.s_max, panels_per_period=config.panels_per_period)
        rows = porosity_sweep(_material(config), config.N_values,
                              config.half_length, config.n, spec)
        table = ResultTable(columns=["N", "opening0", "tip_coeff"], rows=rows)
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
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO
    except ValueError as exc:
        _fail("invalid-value", str(exc))
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
