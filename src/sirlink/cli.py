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
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ber import ber, ber_batch  # noqa: F401  (perfbench/test_harness.py reads cli.ber)
from .channel import Scenario, SirDistribution, sir_cdf, sir_distribution, sir_pdf
from .montecarlo import _ks_sorted, derived_seed, estimate_with_draws

SCENARIO_KEYS = tuple(field.name for field in dataclasses.fields(Scenario))
AXIS_NAMES = ("s", "t", "M", "m", "n", "p1_dbm", "p2_dbm", "sigma", "rho")
SWEEP_KEYS = ("axis", "values", "second_axis", "second_values")
VALIDATE_KEYS = ("samples", "seed")
SECTION_KEYS = {"scenario": SCENARIO_KEYS, "sweep": SWEEP_KEYS, "validate": VALIDATE_KEYS}

DEFAULT_SAMPLES = 10 ** 6
DEFAULT_SEED = 123456789

# KS acceptance threshold: 0.005 at the default 1e6 samples, widened for
# smaller runs so that a correct implementation still passes (the KS statistic
# of true draws concentrates around 1/sqrt(samples)).
KS_BASE_THRESHOLD = 0.005


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


# CSV columns follow SweepRow's field order; validate adds the Monte Carlo
# fields from mc_mean on, and `passed` is printed as `pass`.
_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow))
_SWEEP_COLUMNS = _COLUMNS[:_COLUMNS.index("mc_mean")]
HEADER = ",".join(_SWEEP_COLUMNS)
HEADER_VALIDATE = ",".join(_COLUMNS[:-1] + ("pass",))


def _build_scenario(params: dict) -> Scenario:
    try:
        return Scenario(**params)
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
            if not (value.is_integer() and value >= 1):
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
    sections = {}
    for name in parser.sections():
        if name not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]; expected one of {sorted(SECTION_KEYS)}")
        body = dict(parser.items(name))
        for key in body:
            if key not in SECTION_KEYS[name]:
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
    if seed < 0:
        raise ConfigError(f"[validate] seed must be >= 0, got {seed}")

    return SweepSpec(base=_build_scenario(params), axis=axis, values=values,
                     second_axis=second_axis, second_values=second_values,
                     samples=samples, seed=seed)


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a configuration document into a SweepSpec."""
    return _build_spec(_read_sections(text))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _grid_points(spec: SweepSpec):
    """Scenario parameter dicts in lexicographic (second value, axis value) order."""
    base = {key: getattr(spec.base, key) for key in SCENARIO_KEYS}
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


def _analytic_rows(points: list, corrupt_beta: float = 1.0) -> list:
    """Per grid point in order, its analytic SweepRow or the SweepPointError it raised.

    Every law is built first and all are evaluated in one ber_batch call; the
    list ends at the first point whose law cannot be built, so a caller that
    raises the first error still fails at the grid's first failing point.
    Each law's beta is scaled by corrupt_beta.
    """
    laws, failed = [], []
    for point in points:
        try:
            dist = sir_distribution(_build_scenario(point))
            laws.append(SirDistribution(shape=dist.shape, beta=dist.beta * corrupt_beta))
        except (ValueError, ArithmeticError) as exc:
            failed.append(SweepPointError(point, exc))
            break
    rows = [SweepPointError(point, result) if isinstance(result, Exception) else
            SweepRow(**point, shape=dist.shape, beta=dist.beta,
                     ber=result.ber, quad_err=result.quad_error)
            for point, dist, result in zip(points, laws, ber_batch(laws))]
    return rows + failed


def _raise_failure(row) -> None:
    if isinstance(row, SweepPointError):
        raise row from row.cause


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the analytical BER at every grid point of the spec."""
    rows = _analytic_rows(list(_grid_points(spec)))
    for row in rows:
        _raise_failure(row)
    return rows


def ks_threshold(samples: int) -> float:
    return max(KS_BASE_THRESHOLD, 1.95 / math.sqrt(samples))


def _mc_columns(point: dict, dist: SirDistribution, samples: int, seed: int) -> tuple:
    """(estimate, KS statistic) of one row's draws, which are freed on return."""
    try:
        estimate, draws = estimate_with_draws(_build_scenario(point), samples, seed)
        draws.sort()  # this row's own array: no sorted copy
        return estimate, _ks_sorted(draws, dist)
    except MemoryError:
        raise ConfigError(f"grid point {point}: {samples} samples need {8 * samples} "
                          "bytes for their draws, more than this process can allocate") from None
    except (ValueError, ArithmeticError) as exc:
        raise SweepPointError(point, exc) from exc


def validate(spec: SweepSpec, corrupt_beta: float = 1.0) -> list:
    """Cross-validate every grid point against the Monte Carlo oracle.

    Each point draws spec.samples SIRs once.  It passes when the analytic BER
    lies within 3 standard errors of their Monte Carlo mean and their KS
    distance to the analytic distribution stays below the sample-size-aware
    threshold.  One row's draws are held at a time, 8 bytes per sample.

    corrupt_beta is a test hook: it scales the analytic distribution's beta
    while the Monte Carlo side keeps sampling the physical model, so any
    value != 1 must make points fail.
    """
    if spec.samples < 10 ** 4:
        raise ValueError(f"validation needs at least 1e4 samples, got {spec.samples}")
    threshold = ks_threshold(spec.samples)
    points = list(_grid_points(spec))
    rows = []
    for index, (point, row) in enumerate(zip(points, _analytic_rows(points, corrupt_beta))):
        _raise_failure(row)
        estimate, ks = _mc_columns(point, SirDistribution(shape=row.shape, beta=row.beta),
                                   spec.samples, derived_seed(spec.seed, index, 0))
        ok = abs(row.ber - estimate.mean) <= 3.0 * estimate.std_error and ks < threshold
        rows.append(dataclasses.replace(row, mc_mean=estimate.mean,
                                        mc_std_error=estimate.std_error,
                                        ks_stat=ks, passed=ok))
    return rows


def rows_to_csv(rows: list, validation: bool = False) -> str:
    """Render sweep rows as CSV text with the fixed documented header."""
    columns = _COLUMNS if validation else _SWEEP_COLUMNS
    lines = [HEADER_VALIDATE if validation else HEADER]
    lines += [",".join(_fmt(getattr(row, name)) for name in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _law_on_grid(dist: SirDistribution, grid) -> tuple:
    """The law's pdf and cdf on the grid; a non-finite value names the law."""
    with np.errstate(over="ignore", invalid="ignore"):
        pdf, cdf = sir_pdf(dist, grid), sir_cdf(dist, grid)
    bad = ~(np.isfinite(pdf) & np.isfinite(cdf))
    if bad.any():
        raise ArithmeticError(f"SIR law at shape={dist.shape!r}, beta={dist.beta!r}: "
                              f"non-finite pdf or cdf at y={grid[bad][0]:.12g}")
    return pdf, cdf


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_key_flags(sub: argparse.ArgumentParser, section: str) -> None:
    # Each flag overrides the config key of the same name (dashes for
    # underscores in [sweep] names); its text is parsed with the config.
    for key in SECTION_KEYS[section]:
        flag = key.replace("_", "-") if section == "sweep" else key
        sub.add_argument(f"--{flag}", dest=key, help=f"override [{section}] {key}",
                         choices=AXIS_NAMES if key.endswith("axis") else None)


@functools.cache  # parse_args leaves the parser as it found it
def _make_parser() -> _Parser:
    parser = _Parser(prog="sirlink",
                     description="Interference-limited fading-link BER toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    point = commands.add_parser("point", help="evaluate the base scenario once")
    sweep = commands.add_parser("sweep", help="evaluate a parameter sweep grid")
    val = commands.add_parser("validate", help="cross-check analytics against Monte Carlo")
    dist = commands.add_parser("dist", help="dump the SIR pdf/cdf on a y grid")
    for sub in (point, sweep, val, dist):
        sub.add_argument("--config", metavar="PATH", help="configuration file")
        sub.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
        _add_key_flags(sub, "scenario")
    for sub in (sweep, val):
        _add_key_flags(sub, "sweep")
    _add_key_flags(val, "validate")
    val.add_argument("--corrupt-beta", dest="corrupt_beta", type=float, default=1.0,
                     help="test hook: scale analytic beta to force mismatch")
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
    for section, keys in SECTION_KEYS.items():
        flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
        if flags:
            sections[section] = {**sections.get(section, {}), **flags}
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
            if not (math.isfinite(args.corrupt_beta) and args.corrupt_beta > 0.0):
                raise ConfigError(f"--corrupt-beta must be finite and > 0, got {args.corrupt_beta}")
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
            if not (args.points >= 2 and 0.0 < args.ymin < args.ymax < math.inf):
                raise ConfigError("dist needs 0 < ymin < ymax < inf and points >= 2")
            grid = np.geomspace(args.ymin, args.ymax, args.points)
            pdf, cdf = _law_on_grid(sir_distribution(spec.base), grid)
            columns = zip(grid.tolist(), pdf.tolist(), cdf.tolist())
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
