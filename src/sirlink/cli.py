"""Command-line front end: point evaluation, parameter sweeps, MC validation.

Configuration is a flat INI document with [scenario], [sweep] and [validate]
sections; command-line flags mirror the config keys and override them.
The [scenario] keys and the sweep axes are Scenario's fields, in its order;
M, sigma and rho may be left out and take its defaults (1).  Counts (M,
samples, seed) are read exactly: 2.0 and 1e6 are whole, 2.5 is not.  [sweep]
names up to two axes, the first varying fastest.  `validate` evaluates the
whole grid as `sweep` does before it makes any Monte Carlo draw.

Output is plot-ready CSV: M and pass print as integers, and every other
column, as every column of `dist`, prints with %.12g (12 significant
digits), so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 usage error or ConfigError, 2 SweepPointError,
3 Monte Carlo validation failure.  Input refused where it is found (a flag,
the config, a grid point's own parameters) raises ConfigError, and a failure
to evaluate a valid grid point raises SweepPointError naming the point.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import decimal
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ber import ber, ber_batch  # noqa: F401  (perfbench/test_harness.py reads cli.ber)
from .channel import Scenario, SirDistribution, sir_cdf, sir_distribution, sir_pdf
from .montecarlo import derived_seed, estimate_ber, ks_statistic

SCENARIO_KEYS = tuple(field.name for field in dataclasses.fields(Scenario))
# Scenario's whole-number fields (M), read as counts like samples and seed.
COUNT_KEYS = tuple(field.name for field in dataclasses.fields(Scenario) if field.type == "int")
# The two [sweep] slots, innermost first: each names an axis and its values.
SWEEP_SLOTS = (("axis", "values"), ("second_axis", "second_values"))
SWEEP_KEYS = tuple(itertools.chain(*SWEEP_SLOTS))
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
    """Evaluation failed at one grid point; carries the point and names it and the reason."""

    def __init__(self, point: dict, reason):
        super().__init__(f"evaluation failed at grid point {point}: {reason}")
        self.point = point


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario, up to two (name, values) axes innermost first, and MC controls."""

    base: Scenario
    axes: tuple = ()
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point: its scenario and SIR law, then derived quantities."""

    scenario: Scenario
    law: SirDistribution
    ber: float
    quad_err: float
    mc_mean: Optional[float] = None
    mc_std_error: Optional[float] = None
    ks_stat: Optional[float] = None
    passed: Optional[bool] = None


# CSV columns: Scenario's fields, then the law's, then SweepRow's own from ber
# on; validate adds the Monte Carlo fields from mc_mean on, and `passed` is
# printed as `pass`.
_PATHS = (tuple(f"scenario.{key}" for key in SCENARIO_KEYS)
          + tuple(f"law.{field.name}" for field in dataclasses.fields(SirDistribution))
          + tuple(field.name for field in dataclasses.fields(SweepRow)[2:]))
_COLUMNS = tuple(path.rpartition(".")[2] for path in _PATHS)
_SWEEP_END = _COLUMNS.index("mc_mean")
HEADER = ",".join(_COLUMNS[:_SWEEP_END])
HEADER_VALIDATE = ",".join(_COLUMNS[:-1] + ("pass",))
# Each command's rows print with one %-format: integers for the counts and
# pass, 12 significant digits for every other column.
_CSV = {validation: (header + "\n",
                     ",".join("%d" if name in COUNT_KEYS + ("passed",) else "%.12g"
                              for name in _COLUMNS[:end]) + "\n",
                     operator.attrgetter(*_PATHS[:end]))
        for validation, header, end in ((False, HEADER, _SWEEP_END),
                                        (True, HEADER_VALIDATE, len(_PATHS)))}


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


def _parse_count(section: str, key: str, raw: str) -> int:
    """A whole number read exactly, never through a float: 2.0 and 1e6 are
    whole, 2.5, inf and nan are not.  A value of 2**64 or more in size is
    refused before any int is built (the int of 1e1000000 takes half a minute)."""
    try:
        value = decimal.Decimal(raw)
    except decimal.InvalidOperation:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    if not (value.is_finite() and value == value.to_integral_value()):
        raise ConfigError(f"[{section}] {key}: not a whole number: {raw!r}")
    if value.copy_abs() >= 2 ** 64:
        raise ConfigError(f"[{section}] {key}: not below 2**64 in size: {raw!r}")
    return int(value)


def _parse_values(axis: str, key: str, raw: str) -> tuple:
    items = [part for chunk in raw.split(",") for part in chunk.split()]
    if not items:
        raise ConfigError(f"[sweep] values for axis {axis!r} must be non-empty")
    parse = _parse_count if axis in COUNT_KEYS else _parse_float
    return tuple(sorted(parse("sweep", key, item) for item in items))


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

    names = axis, second_axis = [sweep_raw.get(key) for key, _ in SWEEP_SLOTS]
    for name in names:
        if name is not None and name not in SCENARIO_KEYS:
            raise ConfigError(f"unknown sweep axis {name!r}; expected one of {SCENARIO_KEYS}")
    if second_axis is not None and axis is None:
        raise ConfigError("second_axis given without axis")
    if axis is not None and axis == second_axis:
        raise ConfigError("axis and second_axis must differ")
    axes = []
    for name, (key, values_key) in zip(names, SWEEP_SLOTS):
        if name is None:
            if values_key in sweep_raw:
                raise ConfigError(f"[sweep] {values_key} given without {key}")
            continue
        if values_key not in sweep_raw:
            raise ConfigError(f"[sweep] {key} given without {values_key}")
        axes.append((name, _parse_values(name, values_key, sweep_raw[values_key])))

    params = {key: (_parse_count if key in COUNT_KEYS else _parse_float)("scenario", key, raw)
              for key, raw in scen_raw.items()}
    # A swept parameter needs no base value; seed it with the first axis value.
    for name, values in axes:
        params.setdefault(name, values[0])
    missing = [field.name for field in dataclasses.fields(Scenario)
               if field.default is dataclasses.MISSING and field.name not in params]
    if missing:
        raise ConfigError(f"[scenario] missing required keys: {', '.join(missing)}")

    counts = {key: _parse_count("validate", key, val_raw[key])
              for key in VALIDATE_KEYS if key in val_raw}
    if counts.get("seed", 0) < 0:
        raise ConfigError(f"[validate] seed must be >= 0, got {counts['seed']}")

    return SweepSpec(base=_build_scenario(params), axes=tuple(axes), **counts)


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a configuration document into a SweepSpec."""
    return _build_spec(_read_sections(text))


def _grid_points(spec: SweepSpec):
    """Scenario parameter dicts in grid order: the innermost axis varies fastest."""
    base = {key: getattr(spec.base, key) for key in SCENARIO_KEYS}
    for pairs in itertools.product(*([(name, value) for value in values]
                                     for name, values in reversed(spec.axes))):
        point = dict(base)
        point.update(pairs)
        yield point


def _law(point: dict, corrupt_beta: float = 1.0) -> tuple:
    """The grid point's checked Scenario and its SIR law, the law's beta scaled by
    corrupt_beta.  Parameters Scenario refuses raise a ConfigError naming the
    point, and a law that cannot be built the point's SweepPointError."""
    try:
        scenario = _build_scenario(point)
    except ConfigError as exc:
        raise ConfigError(f"grid point {point}: {exc}") from exc
    try:
        law = sir_distribution(scenario)
        return scenario, (law if corrupt_beta == 1.0
                          else dataclasses.replace(law, beta=law.beta * corrupt_beta))
    except ValueError as exc:
        raise SweepPointError(point, exc) from exc


def _analytic_rows(spec: SweepSpec, corrupt_beta: float = 1.0) -> list:
    """The SweepRow of each grid point, in grid order, without Monte Carlo columns.

    Every law is built first and all are evaluated in one ber_batch call;
    building stops at the first point whose law cannot be built.  The first
    failing point in grid order raises its ConfigError or SweepPointError.
    Each law's beta is scaled by corrupt_beta.
    """
    built, failure = [], None
    for point in _grid_points(spec):
        try:
            built.append(_law(point, corrupt_beta))
        except (ConfigError, SweepPointError) as exc:
            failure = exc
            break
    rows = []
    for (scenario, law), result in zip(built, ber_batch([law for _, law in built])):
        if isinstance(result, Exception):
            raise SweepPointError(dataclasses.asdict(scenario), result) from result
        rows.append(SweepRow(scenario, law, ber=result.ber, quad_err=result.quad_error))
    if failure is not None:
        raise failure
    return rows


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the analytical BER at every grid point of the spec."""
    return _analytic_rows(spec)


def ks_threshold(samples: int) -> float:
    return max(KS_BASE_THRESHOLD, 1.95 / math.sqrt(samples))


def _with_mc_columns(row: SweepRow, samples: int, seed: int, threshold: float) -> SweepRow:
    """The row plus its Monte Carlo columns, sampling its scenario and testing
    its law; its draws are freed on return."""
    point = dataclasses.asdict(row.scenario)
    try:
        draws = np.empty(samples)
    except (MemoryError, ValueError):  # numpy refuses a size it cannot allocate or index
        raise ConfigError(f"grid point {point}: {samples} samples need {8 * samples} "
                          "bytes for their draws, more than this process can allocate") from None
    try:
        estimate = estimate_ber(row.scenario, samples, seed, out=draws)
        draws.sort()  # this row's own array: ks_statistic takes no sorted copy
        ks = ks_statistic(draws, row.law)
    except MemoryError as exc:  # sample_sir's message names the bytes its gammas need
        raise ConfigError(f"grid point {point}: {exc}") from None
    except (ValueError, ArithmeticError) as exc:
        raise SweepPointError(point, exc) from exc
    ok = abs(row.ber - estimate.mean) <= 3.0 * estimate.std_error and ks < threshold
    return dataclasses.replace(row, mc_mean=estimate.mean, mc_std_error=estimate.std_error,
                               ks_stat=ks, passed=ok)


def validate(spec: SweepSpec, corrupt_beta: float = 1.0) -> list:
    """Cross-validate every grid point against the Monte Carlo oracle.

    The whole grid is evaluated analytically first, so a failing point raises
    before any draws are made.  Each point then draws spec.samples SIRs once.
    It passes when the analytic BER lies within 3 standard errors of their
    Monte Carlo mean and their KS distance to the analytic distribution stays
    below the sample-size-aware threshold.  One row's draws are held at a
    time, 8 bytes per sample.

    corrupt_beta is a test hook: it scales the analytic distribution's beta
    while the Monte Carlo side keeps sampling the physical model, so any
    value != 1 must make points fail.
    """
    if spec.samples < 10 ** 4:
        raise ConfigError(f"validation needs at least 1e4 samples, got {spec.samples}")
    threshold = ks_threshold(spec.samples)
    return [_with_mc_columns(row, spec.samples, derived_seed(spec.seed, index, 0), threshold)
            for index, row in enumerate(_analytic_rows(spec, corrupt_beta))]


def rows_to_csv(rows: list) -> str:
    """Render rows as CSV with the fixed header; validate's rows (passed set) add MC columns."""
    header, line, fields = _CSV[bool(rows) and rows[0].passed is not None]
    return "".join([header] + [line % fields(row) for row in rows])


def _law_on_grid(point: dict, grid) -> tuple:
    """The point's SIR law's pdf and cdf on the grid; a non-finite value raises
    the point's SweepPointError, naming the law."""
    dist = _law(point)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        pdf, cdf = sir_pdf(dist, grid), sir_cdf(dist, grid)
    bad = ~(np.isfinite(pdf) & np.isfinite(cdf))
    if bad.any():
        raise SweepPointError(point, f"SIR law at shape={dist.shape!r}, beta={dist.beta!r}: "
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
                         choices=SCENARIO_KEYS if key.endswith("axis") else None)


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
            text = rows_to_csv(run_sweep(dataclasses.replace(spec, axes=())))
        elif args.command == "sweep":
            text = rows_to_csv(run_sweep(spec))
        elif args.command == "validate":
            if not (math.isfinite(args.corrupt_beta) and args.corrupt_beta > 0.0):
                raise ConfigError(f"--corrupt-beta must be finite and > 0, got {args.corrupt_beta}")
            rows = validate(spec, corrupt_beta=args.corrupt_beta)
            _write_output(rows_to_csv(rows), args.out)
            if not all(row.passed for row in rows):
                print("validation FAILED at "
                      f"{sum(not r.passed for r in rows)} of {len(rows)} points",
                      file=sys.stderr)
                return 3
            return 0
        else:  # dist
            if not (args.points >= 2 and 0.0 < args.ymin < args.ymax < math.inf):
                raise ConfigError("dist needs 0 < ymin < ymax < inf and points >= 2")
            try:
                grid = np.geomspace(args.ymin, args.ymax, args.points)
            except (MemoryError, ValueError):  # numpy refuses a size it cannot allocate or index
                raise ConfigError(f"dist: {args.points} points need {8 * args.points} bytes "
                                  "for their grid, more than this process can allocate") from None
            pdf, cdf = _law_on_grid(dataclasses.asdict(spec.base), grid)
            columns = zip(grid.tolist(), pdf.tolist(), cdf.tolist())
            text = "".join(["y,pdf,cdf\n"] + ["%.12g,%.12g,%.12g\n" % row for row in columns])
        _write_output(text, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SweepPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
