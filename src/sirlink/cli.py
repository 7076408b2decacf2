"""Command-line front end: point evaluation, parameter sweeps, MC validation.

Configuration is a flat INI document with [scenario], [sweep] and [validate]
sections; command-line flags mirror the config keys and override them.
Output is plot-ready CSV with reals printed to 12 significant digits, so
identical inputs produce byte-identical files.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure
(cross-check, quadrature or overflow), 3 Monte Carlo validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ber import CrossCheckError, ber
from .channel import (
    FadingParams,
    InterfererParams,
    LinkBudget,
    Scenario,
    SirDistribution,
    sir_cdf,
    sir_distribution,
    sir_pdf,
)
from .montecarlo import estimate_with_draws, ks_statistic
from .numerics import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, QuadratureError

SCENARIO_KEYS = ("m", "M", "sigma", "rho", "p1_dbm", "p2_dbm", "s", "t", "n")
AXIS_NAMES = ("s", "t", "M", "m", "n", "p1_dbm", "p2_dbm", "sigma", "rho")
SWEEP_KEYS = ("axis", "values", "second_axis", "second_values", "rel_tol", "abs_tol")
VALIDATE_KEYS = ("samples", "seed")

DEFAULT_SAMPLES = 10 ** 6
DEFAULT_SEED = 123456789

# KS acceptance threshold: 0.005 at the default 1e6 samples, widened for
# smaller runs so that a correct implementation still passes (the KS statistic
# of true draws concentrates around 1/sqrt(samples)).
KS_BASE_THRESHOLD = 0.005

HEADER = "m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err"
HEADER_VALIDATE = HEADER + ",mc_mean,mc_std_error,ks_stat,pass"


class ConfigError(ValueError):
    """Configuration document failed to parse or validate."""


class SweepPointError(RuntimeError):
    """Evaluation failed at one grid point; carries the point and the cause."""

    def __init__(self, point: dict, cause: Exception):
        super().__init__(f"evaluation failed at grid point {point}: {cause}")
        self.point = point
        self.cause = cause


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus up to two sweep axes and validation controls."""

    base: Scenario
    axis: Optional[str] = None
    values: Optional[tuple] = None
    second_axis: Optional[str] = None
    second_values: Optional[tuple] = None
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; scenario parameters plus derived quantities."""

    m: float
    M: int
    sigma: float
    rho: float
    p1_dbm: float
    p2_dbm: float
    s: float
    t: float
    n: float
    shape: float
    beta: float
    ber: float
    quad_err: float
    mc_mean: Optional[float] = None
    mc_std_error: Optional[float] = None
    ks_stat: Optional[float] = None
    passed: Optional[bool] = None


def _scenario_params(scenario: Scenario) -> dict:
    return {
        "m": scenario.fading.m, "M": scenario.branches,
        "sigma": scenario.fading.sigma, "rho": scenario.interferer.rho,
        "p1_dbm": scenario.link.p1_dbm, "p2_dbm": scenario.link.p2_dbm,
        "s": scenario.link.s, "t": scenario.link.t, "n": scenario.link.n,
    }


def _build_scenario(params: dict) -> Scenario:
    try:
        return Scenario(
            fading=FadingParams(m=params["m"], sigma=params["sigma"]),
            interferer=InterfererParams(rho=params["rho"]),
            link=LinkBudget(p1_dbm=params["p1_dbm"], p2_dbm=params["p2_dbm"],
                            s=params["s"], t=params["t"], n=params["n"]),
            branches=params["M"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None
    return value


def _parse_values(axis: str, raw: str) -> tuple:
    items = [part for chunk in raw.split(",") for part in chunk.split()]
    if not items:
        raise ConfigError(f"[sweep] values for axis {axis!r} must be non-empty")
    out = []
    for item in items:
        value = _parse_float("sweep", "values", item)
        if axis == "M":
            if value != int(value) or value < 1:
                raise ConfigError(f"[sweep] M values must be integers >= 1, got {item}")
            value = int(value)
        out.append(value)
    return tuple(sorted(out))


def _read_sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: m and M both exist
    try:
        parser.read_string(text)
    except configparser.ParsingError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config error: {exc}") from exc
    allowed = {"scenario": SCENARIO_KEYS, "sweep": SWEEP_KEYS, "validate": VALIDATE_KEYS}
    sections = {}
    for name in parser.sections():
        if name not in allowed:
            raise ConfigError(f"unknown section [{name}]; expected one of {sorted(allowed)}")
        body = dict(parser.items(name))
        for key in body:
            if key not in allowed[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
        sections[name] = body
    return sections


def _build_spec(sections: dict) -> SweepSpec:
    scen_raw = sections.get("scenario", {})
    sweep_raw = sections.get("sweep", {})
    val_raw = sections.get("validate", {})

    axis = sweep_raw.get("axis")
    second_axis = sweep_raw.get("second_axis")
    for name in (axis, second_axis):
        if name is not None and name not in AXIS_NAMES:
            raise ConfigError(f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
    if second_axis is not None and axis is None:
        raise ConfigError("second_axis given without axis")
    if axis is not None and axis == second_axis:
        raise ConfigError("axis and second_axis must differ")

    values = None
    if axis is not None:
        if "values" not in sweep_raw:
            raise ConfigError("[sweep] axis given without values")
        values = _parse_values(axis, sweep_raw["values"])
    second_values = None
    if second_axis is not None:
        if "second_values" not in sweep_raw:
            raise ConfigError("[sweep] second_axis given without second_values")
        second_values = _parse_values(second_axis, sweep_raw["second_values"])

    params = {"sigma": 1.0, "rho": 1.0}
    for key, raw in scen_raw.items():
        if key == "M":
            params[key] = _parse_int("scenario", key, raw)
        else:
            params[key] = _parse_float("scenario", key, raw)
    # A swept parameter needs no base value; seed it with the first axis value.
    for name, vals in ((axis, values), (second_axis, second_values)):
        if name is not None and name not in params:
            params[name] = vals[0]
    missing = [key for key in SCENARIO_KEYS if key not in params]
    if missing:
        raise ConfigError(f"[scenario] missing required keys: {', '.join(missing)}")

    samples = _parse_int("validate", "samples", val_raw["samples"]) if "samples" in val_raw \
        else DEFAULT_SAMPLES
    seed = _parse_int("validate", "seed", val_raw["seed"]) if "seed" in val_raw \
        else DEFAULT_SEED
    rel_tol = _parse_float("sweep", "rel_tol", sweep_raw["rel_tol"]) if "rel_tol" in sweep_raw \
        else DEFAULT_REL_TOL
    abs_tol = _parse_float("sweep", "abs_tol", sweep_raw["abs_tol"]) if "abs_tol" in sweep_raw \
        else DEFAULT_ABS_TOL

    return SweepSpec(base=_build_scenario(params), axis=axis, values=values,
                     second_axis=second_axis, second_values=second_values,
                     samples=samples, seed=seed, rel_tol=rel_tol, abs_tol=abs_tol)


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a configuration document into a SweepSpec."""
    return _build_spec(_read_sections(text))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def emit_config(spec: SweepSpec) -> str:
    """Serialize a SweepSpec back into config text; parse(emit(spec)) == spec."""
    lines = ["[scenario]"]
    for key, value in _scenario_params(spec.base).items():
        lines.append(f"{key} = {_fmt(value)}")
    lines.append("")
    lines.append("[sweep]")
    if spec.axis is not None:
        lines.append(f"axis = {spec.axis}")
        lines.append(f"values = {', '.join(_fmt(v) for v in spec.values)}")
    if spec.second_axis is not None:
        lines.append(f"second_axis = {spec.second_axis}")
        lines.append(f"second_values = {', '.join(_fmt(v) for v in spec.second_values)}")
    lines.append(f"rel_tol = {_fmt(spec.rel_tol)}")
    lines.append(f"abs_tol = {_fmt(spec.abs_tol)}")
    lines.append("")
    lines.append("[validate]")
    lines.append(f"samples = {spec.samples}")
    lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"


def _grid_points(spec: SweepSpec):
    """Scenario parameter dicts in lexicographic (second value, axis value) order."""
    base = _scenario_params(spec.base)
    if spec.axis is None:
        yield dict(base)
        return
    outer = spec.second_values if spec.second_axis is not None else (None,)
    for second in outer:
        for value in spec.values:
            point = dict(base)
            point[spec.axis] = value
            if spec.second_axis is not None:
                point[spec.second_axis] = second
            yield point


def _analytic_row(point: dict, spec: SweepSpec, corrupt_beta: float = 1.0) -> SweepRow:
    """The analytical BER of one grid point; the law's beta is scaled by corrupt_beta."""
    try:
        dist = sir_distribution(_build_scenario(point))
        dist = SirDistribution(shape=dist.shape, beta=dist.beta * corrupt_beta)
        result = ber(dist, rel_tol=spec.rel_tol, abs_tol=spec.abs_tol)
    except (CrossCheckError, QuadratureError, ValueError, ArithmeticError) as exc:
        raise SweepPointError(point, exc) from exc
    return SweepRow(**point, shape=dist.shape, beta=dist.beta,
                    ber=result.ber, quad_err=result.quad_error)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the analytical BER at every grid point of the spec."""
    return [_analytic_row(point, spec) for point in _grid_points(spec)]


def _derived_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0])


def ks_threshold(samples: int) -> float:
    return max(KS_BASE_THRESHOLD, 1.95 / math.sqrt(samples))


def validate(spec: SweepSpec, corrupt_beta: float = 1.0) -> list:
    """Cross-validate every grid point against the Monte Carlo oracle.

    Each point draws spec.samples SIRs once.  It passes when the analytic BER
    lies within 3 standard errors of their Monte Carlo mean and their KS
    distance to the analytic distribution stays below the sample-size-aware
    threshold.

    corrupt_beta is a test hook: it scales the analytic distribution's beta
    while the Monte Carlo side keeps sampling the physical model, so any
    value != 1 must make points fail.
    """
    if spec.samples < 10 ** 4:
        raise ValueError(f"validation needs at least 1e4 samples, got {spec.samples}")
    threshold = ks_threshold(spec.samples)
    rows = []
    for index, point in enumerate(_grid_points(spec)):
        row = _analytic_row(point, spec, corrupt_beta)
        try:
            estimate, draws = estimate_with_draws(_build_scenario(point), spec.samples,
                                                  _derived_seed(spec.seed, index, 0))
            ks = ks_statistic(draws, SirDistribution(shape=row.shape, beta=row.beta))
        except (ValueError, ArithmeticError) as exc:
            raise SweepPointError(point, exc) from exc
        ok = abs(row.ber - estimate.mean) <= 3.0 * estimate.std_error and ks < threshold
        rows.append(dataclasses.replace(row, mc_mean=estimate.mean,
                                        mc_std_error=estimate.std_error,
                                        ks_stat=ks, passed=ok))
    return rows


def rows_to_csv(rows: list, validation: bool = False) -> str:
    """Render sweep rows as CSV text with the fixed documented header."""
    header = HEADER_VALIDATE if validation else HEADER
    lines = [header]
    for row in rows:
        fields = [row.m, row.M, row.sigma, row.rho, row.p1_dbm, row.p2_dbm,
                  row.s, row.t, row.n, row.shape, row.beta, row.ber, row.quad_err]
        if validation:
            fields += [row.mc_mean, row.mc_std_error, row.ks_stat, row.passed]
        lines.append(",".join(_fmt(f) for f in fields))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="configuration file")
    sub.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
    for key in SCENARIO_KEYS:
        sub.add_argument(f"--{key}", type=str, default=None,
                         help=f"override scenario key {key}")


def _make_parser() -> _Parser:
    parser = _Parser(prog="sirlink",
                     description="Interference-limited fading-link BER toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    point = commands.add_parser("point", help="evaluate the base scenario once")
    _add_common_flags(point)

    sweep = commands.add_parser("sweep", help="evaluate a parameter sweep grid")
    _add_common_flags(sweep)
    sweep.add_argument("--axis", choices=AXIS_NAMES)
    sweep.add_argument("--values", type=str, help="comma-separated axis values")
    sweep.add_argument("--second-axis", dest="second_axis", choices=AXIS_NAMES)
    sweep.add_argument("--second-values", dest="second_values", type=str)

    val = commands.add_parser("validate", help="cross-check analytics against Monte Carlo")
    _add_common_flags(val)
    val.add_argument("--axis", choices=AXIS_NAMES)
    val.add_argument("--values", type=str)
    val.add_argument("--second-axis", dest="second_axis", choices=AXIS_NAMES)
    val.add_argument("--second-values", dest="second_values", type=str)
    val.add_argument("--samples", type=int, default=None)
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--corrupt-beta", dest="corrupt_beta", type=float, default=1.0,
                     help="test hook: scale analytic beta to force mismatch")

    dist = commands.add_parser("dist", help="dump the SIR pdf/cdf on a y grid")
    _add_common_flags(dist)
    dist.add_argument("--ymin", type=float, default=0.01)
    dist.add_argument("--ymax", type=float, default=20.0)
    dist.add_argument("--points", type=int, default=200)
    return parser


def _spec_from_args(args) -> SweepSpec:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                sections = _read_sections(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        sections = {}
    scen = dict(sections.get("scenario", {}))
    for key in SCENARIO_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            scen[key] = value
    sections["scenario"] = scen
    sweep = dict(sections.get("sweep", {}))
    for key, attr in (("axis", "axis"), ("values", "values"),
                      ("second_axis", "second_axis"), ("second_values", "second_values")):
        value = getattr(args, attr, None)
        if value is not None:
            sweep[key] = value
    if sweep:
        sections["sweep"] = sweep
    val = dict(sections.get("validate", {}))
    for key in ("samples", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            val[key] = str(value)
    if val:
        sections["validate"] = val
    return _build_spec(sections)


def _write_output(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        spec = _spec_from_args(args)
        if args.command == "point":
            point_spec = dataclasses.replace(spec, axis=None, values=None,
                                             second_axis=None, second_values=None)
            text = rows_to_csv(run_sweep(point_spec))
        elif args.command == "sweep":
            text = rows_to_csv(run_sweep(spec))
        elif args.command == "validate":
            rows = validate(spec, corrupt_beta=args.corrupt_beta)
            text = rows_to_csv(rows, validation=True)
            _write_output(text, args.out)
            if not all(row.passed for row in rows):
                print("validation FAILED at "
                      f"{sum(not r.passed for r in rows)} of {len(rows)} points",
                      file=sys.stderr)
                return 3
            return 0
        else:  # dist
            if not (args.points >= 2 and 0.0 < args.ymin < args.ymax):
                raise ConfigError("dist needs 0 < ymin < ymax and points >= 2")
            dist = sir_distribution(spec.base)
            grid = np.geomspace(args.ymin, args.ymax, args.points)
            columns = zip(grid.tolist(), sir_pdf(dist, grid).tolist(),
                          sir_cdf(dist, grid).tolist())
            text = "\n".join(["y,pdf,cdf"] + [",".join(map(_fmt, row)) for row in columns]) + "\n"
        _write_output(text, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SweepPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc.cause, ConfigError) else 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
