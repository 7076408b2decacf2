"""Config parsing, sweep runner, validation harness and CLI process tests."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR
from sirlink import CrossCheckError, SirDistribution, ber, estimate_ber, ks_statistic
from sirlink.cli import (
    ConfigError,
    SweepPointError,
    _build_scenario,
    _derived_seed,
    _grid_points,
    emit_config,
    ks_threshold,
    parse_config,
    rows_to_csv,
    run_sweep,
    validate,
)
from sirlink.montecarlo import _block_draws

MINIMAL = """
[scenario]
m = 2
M = 1
p1_dbm = 15
p2_dbm = 6
s = 90
t = 90
n = 3.0
"""

TWO_AXIS = """
[scenario]
m = 3
M = 2
p1_dbm = 17
p2_dbm = 10
n = 3.5

[sweep]
axis = t
values = 120, 60, 90
second_axis = s
second_values = 40, 20

[validate]
samples = 50000
seed = 7
"""

DIVERSITY_GRID = """
[scenario]
m = 2
M = 1
p1_dbm = 15
p2_dbm = 6
s = 90
t = 90
n = 3.0

[sweep]
axis = M
values = 1, 2, 3, 4
"""


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "sirlink", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestParseConfig:
    def test_minimal_point_spec(self):
        spec = parse_config(MINIMAL)
        assert spec.axis is None and spec.values is None
        assert spec.base.fading.sigma == 1.0 and spec.base.interferer.rho == 1.0
        assert spec.samples == 10 ** 6
        assert spec.rel_tol == 1e-10

    def test_two_axis_spec(self):
        spec = parse_config(TWO_AXIS)
        assert spec.axis == "t" and spec.values == (60.0, 90.0, 120.0)
        assert spec.second_axis == "s" and spec.second_values == (20.0, 40.0)
        assert spec.samples == 50000 and spec.seed == 7
        # swept parameters took their base value from the first axis value
        assert spec.base.link.t == 60.0 and spec.base.link.s == 20.0

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="m must be >= 0.5"):
            parse_config(MINIMAL.replace("m = 2", "m = 0.3"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[extras]\nx = 1\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(MINIMAL.replace("s = 90", "s = ninety"))

    def test_axis_without_values(self):
        with pytest.raises(ConfigError, match="without values"):
            parse_config(MINIMAL + "\n[sweep]\naxis = s\n")

    def test_non_integer_branch_values(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_config(MINIMAL + "\n[sweep]\naxis = M\nvalues = 1, 2.5\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(MINIMAL.replace("n = 3.0", ""))

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config("[scenario\nm = 2\n")

    def test_roundtrip_through_emit(self):
        for text in (MINIMAL, TWO_AXIS, DIVERSITY_GRID):
            spec = parse_config(text)
            assert parse_config(emit_config(spec)) == spec


class TestRunSweep:
    def test_single_point_equals_ber(self):
        spec = parse_config(MINIMAL)
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].ber == ber(spec.base).ber
        assert rows[0].mc_mean is None

    def test_diversity_grid_monotone(self):
        rows = run_sweep(parse_config(DIVERSITY_GRID))
        assert [row.M for row in rows] == [1, 2, 3, 4]
        bers = [row.ber for row in rows]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_interference_power_grid_monotone(self):
        with open(os.path.join(CONFIG_DIR, "fig4_sweep.ini")) as handle:
            rows = run_sweep(parse_config(handle.read()))
        bers = [row.ber for row in rows]
        assert all(a < b for a, b in zip(bers, bers[1:]))

    def test_lexicographic_ordering(self):
        rows = run_sweep(parse_config(TWO_AXIS))
        key = [(row.s, row.t) for row in rows]
        assert key == sorted(key)

    def test_point_error_tagged(self):
        bad = MINIMAL + "\n[sweep]\naxis = m\nvalues = 0.3, 2\n"
        with pytest.raises(SweepPointError) as info:
            run_sweep(parse_config(bad))
        assert info.value.point["m"] == 0.3
        assert isinstance(info.value.cause, ConfigError)


class TestValidate:
    def test_diversity_grid_passes(self):
        spec = parse_config(DIVERSITY_GRID)
        rows = validate(dataclasses.replace(spec, samples=10 ** 5, seed=21))
        assert all(row.passed for row in rows)
        assert all(abs(row.ber - row.mc_mean) <= 3.0 * row.mc_std_error for row in rows)
        assert all(row.ks_stat < 0.005 for row in rows)
        swept = run_sweep(spec)
        assert [(r.ber, r.quad_err) for r in rows] == [(r.ber, r.quad_err) for r in swept]

    def test_cross_check_failure_names_point(self):
        # shape-0.5 law: the Gauss-Laguerre route cannot match the direct route
        with pytest.raises(SweepPointError) as info:
            validate(dataclasses.replace(parse_config(MINIMAL.replace("m = 2", "m = 0.5")),
                                         samples=10 ** 4, seed=0))
        assert info.value.point["m"] == 0.5
        assert isinstance(info.value.cause, CrossCheckError)

    def test_corrupted_beta_fails(self):
        rows = validate(dataclasses.replace(parse_config(DIVERSITY_GRID), samples=10 ** 5,
                                            seed=21), corrupt_beta=1.5)
        assert all(not row.passed for row in rows)

    def test_small_sample_band_scales(self):
        rows = validate(dataclasses.replace(parse_config(MINIMAL), samples=10 ** 4, seed=22))
        assert all(row.passed for row in rows)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            validate(dataclasses.replace(parse_config(MINIMAL), samples=5000, seed=0))

    def test_one_draw_feeds_mean_and_ks(self):
        # each row's MC mean and KS statistic come from one block draw on the
        # row's sub-key-0 seed
        spec = dataclasses.replace(parse_config(DIVERSITY_GRID), samples=3 * 10 ** 4 + 7,
                                   seed=23)
        rows = validate(spec)
        for index, (row, point) in enumerate(zip(rows, _grid_points(spec))):
            scenario = _build_scenario(point)
            seed = _derived_seed(spec.seed, index, 0)
            estimate = estimate_ber(scenario, spec.samples, seed)
            assert (row.mc_mean, row.mc_std_error) == (estimate.mean, estimate.std_error)
            draws = np.concatenate(list(_block_draws(scenario, spec.samples, seed)))
            assert draws.size == spec.samples
            dist = SirDistribution(shape=row.shape, beta=row.beta)
            assert row.ks_stat == ks_statistic(draws, dist)

    def test_ks_threshold_scales(self):
        assert ks_threshold(10 ** 6) == 0.005
        assert ks_threshold(10 ** 4) == pytest.approx(0.0195)


class TestCsv:
    def test_header_and_digits(self):
        rows = run_sweep(parse_config(MINIMAL))
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err"
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[1] == "1"
        assert len(fields) == 13
        assert text.endswith("\n")

    def test_validation_header(self):
        rows = validate(dataclasses.replace(parse_config(MINIMAL), samples=10 ** 4, seed=5))
        text = rows_to_csv(rows, validation=True)
        header = text.splitlines()[0]
        assert header.endswith(",mc_mean,mc_std_error,ks_stat,pass")
        assert text.splitlines()[1].split(",")[-1] in ("0", "1")


class TestCliProcess:
    def test_point_stdout(self, tmp_path):
        cfg = tmp_path / "point.ini"
        cfg.write_text(MINIMAL)
        proc = run_cli("point", "--config", str(cfg))
        assert proc.returncode == 0
        assert proc.stdout.startswith("m,M,sigma")

    def test_sweep_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(DIVERSITY_GRID)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out1)).returncode == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "point.ini"
        cfg.write_text(MINIMAL)
        base = run_cli("point", "--config", str(cfg))
        overridden = run_cli("point", "--config", str(cfg), "--t", "120")
        assert overridden.returncode == 0
        assert base.stdout != overridden.stdout

    def test_validate_exit_codes(self, tmp_path):
        cfg = tmp_path / "val.ini"
        cfg.write_text(DIVERSITY_GRID + "\n[validate]\nsamples = 20000\nseed = 9\n")
        ok = run_cli("validate", "--config", str(cfg))
        assert ok.returncode == 0
        bad = run_cli("validate", "--config", str(cfg), "--corrupt-beta", "1.5")
        assert bad.returncode == 3

    def test_parse_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL.replace("m = 2", "m = 0.1"))
        proc = run_cli("point", "--config", str(cfg))
        assert proc.returncode == 1
        assert "m must be >= 0.5" in proc.stderr

    @pytest.mark.parametrize("command, flags, message", [
        # shape 0.5: GL route cannot match the direct route at 1e-7
        ("point", "--m 0.5 --M 1 --p1_dbm 15 --p2_dbm 6 --s 90 --t 90 --n 3",
         "evaluation failed at grid point"),
        # shape 320: the density overflows a float
        ("point", "--m 40 --M 8 --p1_dbm 10 --p2_dbm 10 --s 100 --t 100 --n 3",
         "evaluation failed at grid point"),
        ("dist", "--m 40 --M 8 --p1_dbm 10 --p2_dbm 10 --s 100 --t 100 --n 3 --points 3",
         "numerical error"),
    ], ids=["shape-0.5", "shape-320", "dist-shape-320"])
    def test_numerical_failure_exit_code(self, command, flags, message):
        proc = run_cli(command, *flags.split())
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_output_exit_code(self, tmp_path):
        proc = run_cli("point", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                       "--out", str(tmp_path / "missing" / "x.csv"))
        assert proc.returncode == 1
        assert "config error: cannot write output" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_cli("sweep", "--axis", "bogus")
        assert proc.returncode == 1

    def test_dist_dump(self, tmp_path):
        cfg = tmp_path / "point.ini"
        cfg.write_text(MINIMAL)
        proc = run_cli("dist", "--config", str(cfg),
                       "--ymin", "0.1", "--ymax", "10", "--points", "5")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "y,pdf,cdf"
        assert len(lines) == 6
        cdfs = [float(line.split(",")[2]) for line in lines[1:]]
        assert cdfs == sorted(cdfs)
