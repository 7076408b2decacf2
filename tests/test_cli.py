"""Config parsing, sweep runner, validation harness and CLI process tests."""

import contextlib
import dataclasses
import gc
import io
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from conftest import CONFIG_DIR, closed_form_pdf, scen
from sirlink import (
    CrossCheckError,
    ber,
    estimate_ber,
    ks_statistic,
    montecarlo,
    sample_sir,
    sir_distribution,
)
from sirlink.cli import (
    HEADER,
    HEADER_VALIDATE,
    ConfigError,
    SweepPointError,
    _build_scenario,
    _grid_points,
    ks_threshold,
    main,
    parse_config,
    SCENARIO_KEYS,
    rows_to_csv,
    run_sweep,
    validate,
)
from sirlink.montecarlo import derived_seed

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


# The study-2 scenario (tests' FIG2) as a one-point config.
FIG2_POINT = """
[scenario]
m = 3
M = 2
p1_dbm = 17
p2_dbm = 10
s = 100
t = 100
n = 3.5
"""

# `validate --config configs/fig3_validate.ini --samples 200003` as printed by
# the single-threaded block loop: four blocks per point, the last one short.
FIG3_VALIDATE_200003 = """\
m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err,mc_mean,mc_std_error,ks_stat,pass
2,1,1,1,15,6,90,90,3,2,0.251785082359,0.0103795784026,6.30099366434e-16,0.0104464331059,7.29353521855e-05,0.00108544370988,1
2,2,1,1,15,6,90,90,3,4,0.251785082359,0.00109323449706,4.23672092395e-17,0.00109865993375,1.51437495469e-05,0.0015462389839,1
2,3,1,1,15,6,90,90,3,6,0.251785082359,0.000188460197724,6.38089838954e-18,0.000186511923749,4.07425102331e-06,0.00235027798181,1
2,4,1,1,15,6,90,90,3,8,0.251785082359,4.23973991199e-05,1.39992173557e-18,4.41224830965e-05,1.58211033536e-06,0.00195823598266,1
"""


# `sweep --config configs/<name>` output, frozen: any rendering of the CSV must
# keep these bytes.
SWEEP_FROZEN = {
    "fig2_sweep.ini": """\
m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err
3,2,1,1,17,10,60,60,3.5,6,0.598578694491,0.0021314717046,6.57262477568e-17
3,2,1,1,17,10,70,60,3.5,6,1.02667980259,0.00684057612661,2.11961799413e-16
3,2,1,1,17,10,80,60,3.5,6,1.63835055595,0.0156154626257,4.92311977502e-16
3,2,1,1,17,10,90,60,3.5,6,2.47423337843,0.0285924510641,9.04008491531e-16
3,2,1,1,17,10,100,60,3.5,6,3.577600795,0.04512936123,1.45538173808e-15
3,2,1,1,17,10,60,90,3.5,6,0.144811098509,2.70551584463e-05,9.86531594515e-19
3,2,1,1,17,10,70,90,3.5,6,0.248379421785,0.000180340391282,6.09753295685e-18
3,2,1,1,17,10,80,90,3.5,6,0.396357815494,0.00073516474146,2.3763591952e-17
3,2,1,1,17,10,90,90,3.5,6,0.598578694491,0.0021314717046,6.57262477568e-17
3,2,1,1,17,10,100,90,3.5,6,0.865510760604,0.00485492250618,1.50100537863e-16
3,2,1,1,17,10,60,120,3.5,6,0.0529073817435,3.64216160875e-07,1.5052546764e-20
3,2,1,1,17,10,70,120,3.5,6,0.090746531315,4.12542468573e-06,1.58613916452e-19
3,2,1,1,17,10,80,120,3.5,6,0.144811098509,2.70551584463e-05,9.86531594515e-19
3,2,1,1,17,10,90,120,3.5,6,0.218693400016,0.000118402987064,4.11973406806e-18
3,2,1,1,17,10,100,120,3.5,6,0.316218222815,0.000382991767069,1.25288643997e-17
""",
    "fig4_sweep.ini": """\
m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err
4,3,1,1,15,0,100,80,2.9,12,0.241601167743,2.77238238931e-06,9.20781658078e-20
4,3,1,1,15,3,100,80,2.9,12,0.48205770525,6.67821915155e-05,1.97467791881e-18
4,3,1,1,15,6,100,80,2.9,12,0.961831572926,0.000749890630772,2.01455136683e-17
4,3,1,1,15,9,100,80,2.9,12,1.91910629081,0.0045444986311,1.11896638908e-16
4,3,1,1,15,12,100,80,2.9,12,3.82912046046,0.0170591947116,4.29831067575e-16
""",
}


# `point` output, frozen like the sweeps: the stock validate scenario, and a
# point whose BER underflows, so that its ber and quad_err both print 0.
POINT_FROZEN = {
    "fig3_validate.ini": (["--config", os.path.join(CONFIG_DIR, "fig3_validate.ini")], """\
m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err
2,1,1,1,15,6,90,90,3,2,0.251785082359,0.0103795784026,6.30099366434e-16
"""),
    "underflow": ("--m 5 --M 10 --p1_dbm 0 --p2_dbm -87 --s 1 --t 1 --n 3".split(), """\
m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err
5,10,1,1,0,-87,1,1,3,50,9.97631157484e-09,0,0
"""),
}

# `dist --config configs/fig2_sweep.ini --points 50`, frozen.
DIST_FIG2_50 = """\
y,pdf,cdf
0.01,2.64688982718e-11,4.43788924291e-14
0.0116779862374,5.70876130702e-11,1.11888083461e-13
0.013637536256,1.22982316541e-10,2.81811136545e-13
0.015925896071,2.64578664974e-10,7.08970109323e-13
0.0185982395135,5.68304954526e-10,1.78118940153e-12
0.0217189985078,1.21845655498e-09,4.46794960806e-12
0.0253634165663,2.6068148594e-09,1.11869217728e-11
0.0296193629595,5.56327779047e-09,2.79503712591e-11
0.0345894513,1.18385063295e-08,6.96609457226e-11
0.040393513624,2.51076907828e-08,1.73118265011e-10
0.0471714896181,5.30429348482e-08,4.28793928307e-10
0.0550868006556,1.11555613233e-07,1.05797895206e-09
0.0643302899917,2.33394751233e-07,2.59875096571e-09
0.075124824117,4.85372128627e-07,6.35053176962e-09
0.0877306662124,1.00240122941e-06,1.54265754732e-08
0.102451751262,2.05369385128e-06,3.72179468595e-08
0.119643014124,4.16909569939e-06,8.90875572934e-08
0.139718947234,8.37491387532e-06,2.11332621273e-07
0.163163594289,1.66227516276e-05,4.96186839057e-07
0.190542220855,3.25454135574e-05,1.15142647101e-06
0.222514943279,6.27405468644e-05,2.63669564033e-06
0.259852644522,0.000118853961517,5.94806059358e-06
0.303455560647,0.000220776457316,1.31941841491e-05
0.354374986089,0.00040120972611,2.87229703751e-05
0.413838621042,0.000711583946618,6.12380424476e-05
0.483280172103,0.00122868365776,0.00012759553104
0.564373919861,0.00206027248575,0.000259261929335
0.659075086887,0.00334661321006,0.000512637380948
0.769666979407,0.00525354948708,0.000984390289692
0.898816039287,0.00795269853859,0.00183228845209
1.04963613367,0.0115864576036,0.00330042530862
1.22576363233,0.0162205937446,0.00574513429145
1.43144508286,0.021794307994,0.00965471060064
1.67163959772,0.0280839539621,0.0156535058657
1.9521384216,0.0346979620945,0.024480734815
2.2797045621,0.0411140461506,0.0369378848328
2.66223585014,0.0467562920388,0.0538060668926
3.10895536186,0.0510945544818,0.0757440974342
3.63063379284,0.0537390138195,0.10318607079
4.23984914658,0.0545037296766,0.136260157865
4.95128999823,0.0534240749156,0.174746675541
5.78210964566,0.0507285399856,0.218084247495
6.7523396865,0.0467785619542,0.265421492688
7.88537299291,0.0419961167671,0.315702040938
9.20852772877,0.0367972809551,0.367765487958
10.7537060083,0.0315435026157,0.420446810211
12.5581630766,0.0265146195514,0.472660605105
14.6654055575,0.0219015468208,0.523462269531
17.1262404266,0.0178132144754,0.572083931344
20,0.0142915732632,0.617947328616
"""


# Laws that cannot be built, each reached from a valid scenario: beta
# underflows to 0, overflows by division, or overflows in a power.
UNBUILDABLE = [
    (name, "--m 2 --M 1 --p1_dbm 15 --p2_dbm 6 --t 90 --n 3 " + flags,
     dict(m=2.0, M=1, sigma=sigma, rho=1.0, p1_dbm=15.0, p2_dbm=6.0, s=s, t=90.0, n=3.0), cause)
    for name, flags, sigma, s, cause in (
        ("beta-0", "--s 1e-300", 1.0, 1e-300, "beta must be > 0, got 0.0"),
        ("beta-inf-by-division", "--s 90 --sigma 1e-320", 1e-320, 90.0,
         "beta must be finite, got inf"),
        ("beta-inf-by-power", "--s 1e300", 1.0, 1e300, "beta must be finite, got inf"),
    )]


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "sirlink", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestParseConfig:
    def test_minimal_point_spec(self):
        spec = parse_config(MINIMAL)
        assert spec.axes == ()
        assert spec.base.sigma == 1.0 and spec.base.rho == 1.0
        assert spec.samples == 10 ** 6

    def test_two_axis_spec(self):
        spec = parse_config(TWO_AXIS)
        assert spec.axes == (("t", (60.0, 90.0, 120.0)), ("s", (20.0, 40.0)))
        assert spec.samples == 50000 and spec.seed == 7
        # swept parameters took their base value from the first axis value
        assert spec.base.t == 60.0 and spec.base.s == 20.0

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="m must be >= 0.5"):
            parse_config(MINIMAL.replace("m = 2", "m = 0.3"))

    def test_unknown_key_rejected(self, tmp_path):
        # the quadrature tolerance is fixed in ber, not a config key
        for extra in ("\nbogus = 1\n", "\n[sweep]\nrel_tol = 1e-8\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(MINIMAL + extra)
        cfg = tmp_path / "tol.ini"
        cfg.write_text(MINIMAL + "\n[sweep]\nrel_tol = 1e-8\n")
        assert main(["point", "--config", str(cfg)]) == 1

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
        for values in ("1, 2.5", "inf", "nan"):
            with pytest.raises(ConfigError, match=r"\[sweep\] values: not a whole number"):
                parse_config(MINIMAL + f"\n[sweep]\naxis = M\nvalues = {values}\n")
            # a refusal names the key that holds the value
            with pytest.raises(ConfigError, match=r"\[sweep\] second_values: not a whole number"):
                parse_config(MINIMAL + "\n[sweep]\naxis = s\nvalues = 80\n"
                             f"second_axis = M\nsecond_values = {values}\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] second_values: not a number: 'x'"):
            parse_config(MINIMAL + "\n[sweep]\naxis = s\nvalues = 80\n"
                         "second_axis = t\nsecond_values = x\n")

    def test_branch_count_one_rule(self, tmp_path, capsys):
        # M must be a whole number in [scenario], on the command line and on
        # a sweep axis alike: 2.0 is 2, and 2.5, inf and nan are refused
        spec = parse_config(MINIMAL.replace("M = 1", "M = 2.0")
                            + "\n[sweep]\naxis = M\nvalues = 3.0, 1\n")
        assert spec.base.M == 2 and type(spec.base.M) is int
        assert spec.axes == (("M", (1, 3)),)
        assert all(type(value) is int for value in spec.axes[0][1])
        for raw in ("2.5", "inf", "nan"):
            with pytest.raises(ConfigError, match=r"\[scenario\] M: not a whole number"):
                parse_config(MINIMAL.replace("M = 1", f"M = {raw}"))
            assert main(["point", "--m", "2", "--M", raw, "--p1_dbm", "15", "--p2_dbm", "6",
                         "--s", "90", "--t", "90", "--n", "3"]) == 1
            assert f"[scenario] M: not a whole number: '{raw}'" in capsys.readouterr().err
        cfg = tmp_path / "point.ini"
        cfg.write_text(MINIMAL)
        printed = []
        for raw in ("2", "2.0"):
            assert main(["point", "--config", str(cfg), "--M", raw]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].splitlines()[1].split(",")[1] == "2"

    def test_counts_read_exactly(self, tmp_path):
        # samples and seed are read as M is: 1e6 and 1e3 are whole numbers
        exact = parse_config(MINIMAL + "\n[validate]\nsamples = 1000000\nseed = 1000\n")
        cfg = tmp_path / "val.ini"
        cfg.write_text(MINIMAL + "\n[validate]\nsamples = 1e6\nseed = 1e3\n")
        with open(cfg, encoding="utf-8") as handle:
            assert parse_config(handle.read()) == exact
        assert main(["validate", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("key, raw, message", [
        ("M", "x", "[scenario] M: not a number: 'x'"),
        ("M", "2.0000000000000000000001", "[scenario] M: not a whole number"),
        ("samples", "1e4.5", "[validate] samples: not a number: '1e4.5'"),
        ("samples", "10000.5", "[validate] samples: not a whole number: '10000.5'"),
        ("samples", "-inf", "[validate] samples: not a whole number: '-inf'"),
        ("samples", str(10 ** 23), f"[validate] samples: not below 2**64 in size: '{10 ** 23}'"),
        ("seed", "nan", "[validate] seed: not a whole number: 'nan'"),
        ("seed", str(2 ** 64), f"[validate] seed: not below 2**64 in size: '{2 ** 64}'"),
        ("seed", "-1e300", "[validate] seed: not below 2**64 in size: '-1e300'"),
        # refused from the text's exponent, before an int of a billion digits is built
        ("seed", "1e1000000000", "[validate] seed: not below 2**64 in size: '1e1000000000'"),
    ], ids=["M-x", "M-2.0000000000000000000001", "samples-1e4.5", "samples-10000.5",
            "samples-minus-inf", "samples-1e23", "seed-nan", "seed-2**64", "seed-minus-1e300",
            "seed-1e1000000000"])
    def test_count_refused(self, key, raw, message):
        text = MINIMAL.replace("M = 1", f"M = {raw}") if key == "M" \
            else MINIMAL + f"\n[validate]\n{key} = {raw}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert message in str(info.value)

    def test_largest_counts(self):
        # 2**53 is the largest M (Scenario's bound); 2**64 - 1 the largest seed
        spec = parse_config(MINIMAL.replace("M = 1", "M = 9007199254740992.0")
                            + "\n[validate]\nseed = 18446744073709551615\n")
        assert (spec.base.M, spec.seed) == (2 ** 53, 2 ** 64 - 1)

    def test_scenario_defaults(self, tmp_path, capsys):
        # M, sigma and rho take Scenario's own defaults, all 1
        printed = []
        for text in (MINIMAL.replace("M = 1\n", ""),
                     MINIMAL.replace("M = 1\n", "M = 1\nsigma = 1\nrho = 1\n")):
            cfg = tmp_path / "point.ini"
            cfg.write_text(text)
            assert main(["point", "--config", str(cfg)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].splitlines()[1].startswith("2,1,1,1,15,6,90,90,3,")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(MINIMAL.replace("n = 3.0", ""))

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config("[scenario\nm = 2\n")


class TestRunSweep:
    def test_single_point_equals_ber(self):
        spec = parse_config(MINIMAL)
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].result == ber(spec.base)
        assert rows[0].estimate is None

    def test_diversity_grid_monotone(self):
        rows = run_sweep(parse_config(DIVERSITY_GRID))
        assert [row.scenario.M for row in rows] == [1, 2, 3, 4]
        bers = [row.result.ber for row in rows]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_interference_power_grid_monotone(self):
        with open(os.path.join(CONFIG_DIR, "fig4_sweep.ini")) as handle:
            rows = run_sweep(parse_config(handle.read()))
        bers = [row.result.ber for row in rows]
        assert all(a < b for a, b in zip(bers, bers[1:]))

    def test_lexicographic_ordering(self):
        rows = run_sweep(parse_config(TWO_AXIS))
        key = [(row.scenario.s, row.scenario.t) for row in rows]
        assert key == sorted(key)

    def test_point_error_tagged(self):
        spec = parse_config(MINIMAL + "\n[sweep]\naxis = m\nvalues = 0.3, 2\n")
        with pytest.raises(ConfigError) as info:
            run_sweep(spec)
        assert str(info.value).startswith(f"grid point {next(_grid_points(spec))}: "
                                          "invalid scenario: Nakagami parameter m must be")

    def test_every_point_built_before_any_evaluated(self, capsys):
        # s = 1 fails the cross-check and s = inf is refused by Scenario; every
        # point is built before any law is evaluated, so s = inf wins
        argv = ["sweep", "--m", "0.5", "--M", "1", "--p1_dbm", "0", "--p2_dbm", "10",
                "--s", "1", "--t", "1", "--n", "3", "--axis", "s", "--values", "1, inf"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: grid point {'m': 0.5, 'M': 1, 'sigma': 1.0, 'rho': 1.0, "
            "'p1_dbm': 0.0, 'p2_dbm': 10.0, 's': inf, 't': 1.0, 'n': 3.0}: invalid scenario: "
            "s must be finite, got inf\n")
        # and where the point that cannot be built comes first, it wins too
        argv[argv.index("--axis") + 1:] = ["m", "--values", "0.3, 0.5"]
        assert main(argv) == 1
        assert "m must be >= 0.5" in capsys.readouterr().err

    def test_ops_keep_nothing_but_their_output(self):
        # the benchmark repeats its ops and reads peak RSS, so a cache of
        # results would show there as a gain; each op here is a new 200-point
        # grid, so a cache keyed by its input grows as one that keeps every
        # result would, by megabytes over 200 ops.  Python's and numpy's own
        # allocation caches hold about 40 KB more at 100 to 800 ops.
        argv = ["sweep", "--config", os.path.join(CONFIG_DIR, "fig4_sweep.ini"),
                "--values", " ".join(str(0.5 * step) for step in range(20)),
                "--second-axis", "t", "--second-values", "80 85 90 95 100 105 110 115 120 125"]

        def op(index):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv + ["--p1_dbm", str(15 + index / 1000)]) == 0
            return out.getvalue()

        outputs = [op(index) for index in range(3)]
        assert all(text.count("\n") == 201 for text in outputs)
        tracemalloc.start()
        try:
            gc.collect()  # garbage in reference cycles is not kept
            before = tracemalloc.get_traced_memory()[0]
            for index in range(3, 203):
                op(index)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 10 * max(map(len, outputs))

    def test_point_prints_its_sweep_row(self, capsys):
        # a law's bits do not depend on the grid it is evaluated in
        config = os.path.join(CONFIG_DIR, "fig4_sweep.ini")
        assert main(["sweep", "--config", config]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        for value, row in zip((0, 3, 6, 9, 12), rows):
            assert main(["point", "--config", config, "--p2_dbm", str(value)]) == 0
            assert capsys.readouterr().out.splitlines() == [header, row]


class TestValidate:
    def test_diversity_grid_passes(self):
        spec = parse_config(DIVERSITY_GRID)
        rows = validate(dataclasses.replace(spec, samples=10 ** 5, seed=21))
        assert all(row.passed for row in rows)
        assert all(abs(row.result.ber - row.estimate.mean) <= 3.0 * row.estimate.std_error
                   for row in rows)
        assert all(row.ks_stat < 0.005 for row in rows)
        assert [row.result for row in rows] == [row.result for row in run_sweep(spec)]

    def test_cross_check_failure_names_point(self):
        # shape-0.5 law: the Gauss-Laguerre route cannot match the direct route
        with pytest.raises(SweepPointError) as info:
            validate(dataclasses.replace(parse_config(MINIMAL.replace("m = 2", "m = 0.5")),
                                         samples=10 ** 4, seed=0))
        assert info.value.point["m"] == 0.5
        assert isinstance(info.value.__cause__, CrossCheckError)

    @pytest.mark.parametrize("config, error", [
        (MINIMAL + "\n[sweep]\naxis = s\nvalues = 90, inf\n", ConfigError),
        (MINIMAL.replace("m = 2", "m = 4").replace("M = 1", "M = 25")
         + "\n[sweep]\naxis = p2_dbm\nvalues = 6, 39\n", SweepPointError),
    ], ids=["unbuildable", "cross-check"])
    def test_analytic_failure_before_any_draw(self, monkeypatch, config, error):
        # the whole grid is evaluated before the first point draws, so the
        # second point's failure comes with no Monte Carlo work done; s = inf
        # is refused by Scenario, a config error that names the point
        calls = []
        draw = montecarlo.sample_sir

        def counting(rng, scenario, size, out=None):
            calls.append(size)
            return draw(rng, scenario, size, out)

        monkeypatch.setattr(montecarlo, "sample_sir", counting)
        spec = dataclasses.replace(parse_config(config), samples=10 ** 4, seed=0)
        with pytest.raises(error) as info:
            validate(spec)
        point = list(_grid_points(spec))[1]
        assert str(info.value).startswith(f"grid point {point}: " if error is ConfigError
                                          else f"evaluation failed at grid point {point}: ")
        assert calls == []

    def test_corrupted_beta_fails(self):
        # the scaled law is tested against draws of the physical scenario
        spec = dataclasses.replace(parse_config(DIVERSITY_GRID), samples=10 ** 5, seed=21)
        rows = validate(spec, corrupt_beta=1.5)
        assert all(not row.passed for row in rows)
        assert all(row.ks_stat >= ks_threshold(spec.samples) for row in rows)
        assert [row.law.beta for row in rows] == \
            [1.5 * sir_distribution(row.scenario).beta for row in rows]
        assert [row.estimate for row in rows] == [row.estimate for row in validate(spec)]

    @pytest.mark.parametrize("config, corrupt_beta, beta", [
        (MINIMAL + "\n[sweep]\naxis = rho\nvalues = 1e17, 1e-320\n", 1.0, "2.52e-321"),
        (MINIMAL, 1e-320, "2.52e-321"),
        (MINIMAL + "\n[sweep]\naxis = sigma\nvalues = 1, 1e308\n", 1.0, "2.51785082358804e-309"),
    ], ids=["rho-1e-320", "corrupt-beta-1e-320", "sigma-1e308-last"])
    def test_unsampleable_law_refused_before_draws(self, monkeypatch, config, corrupt_beta,
                                                   beta):
        # 1/beta overflows, so neither the law's scale nor the draws fit in a
        # double; the tested law is the corrupted one.  Every row's law is
        # checked before the first row draws, so a last row that cannot be
        # sampled (sigma = 1e308) is refused before the first row's draws
        calls = []
        monkeypatch.setattr(montecarlo, "sample_sir", lambda *args, **kwargs: calls.append(1))
        spec = dataclasses.replace(parse_config(config), samples=10 ** 4, seed=0)
        with pytest.raises(SweepPointError) as info:
            validate(spec, corrupt_beta=corrupt_beta)
        assert str(info.value).endswith(f"SIR law at shape=2.0, beta={beta}: 1/beta is past "
                                        "the double range, so it cannot be sampled")
        assert calls == []

    def test_small_sample_band_scales(self):
        rows = validate(dataclasses.replace(parse_config(MINIMAL), samples=10 ** 4, seed=22))
        assert all(row.passed for row in rows)

    def test_sample_floor(self):
        with pytest.raises(ConfigError, match="^validation needs at least 1e4 samples"):
            validate(dataclasses.replace(parse_config(MINIMAL), samples=5000, seed=0))

    def test_one_draw_feeds_mean_and_ks(self):
        # each row's MC mean and KS statistic come from one block draw on the
        # row's sub-key-0 seed
        spec = dataclasses.replace(parse_config(DIVERSITY_GRID), samples=3 * 10 ** 4 + 7,
                                   seed=23)
        rows = validate(spec)
        for index, (row, point) in enumerate(zip(rows, _grid_points(spec))):
            scenario = row.scenario
            assert scenario == _build_scenario(point)
            seed = derived_seed(spec.seed, index, 0)
            estimate = estimate_ber(scenario, spec.samples, seed)
            assert row.estimate == estimate
            draws = np.concatenate([
                sample_sir(default_rng(SeedSequence(seed, spawn_key=(i,))), scenario,
                           size=min(montecarlo.BLOCK_SIZE, spec.samples - start))
                for i, start in enumerate(range(0, spec.samples, montecarlo.BLOCK_SIZE))])
            assert draws.size == spec.samples
            assert row.ks_stat == ks_statistic(draws, row.law)

    def test_worker_count_keeps_rows(self, monkeypatch):
        spec = dataclasses.replace(parse_config(FIG2_POINT), samples=3 * 65536 + 17, seed=24)
        columns = []
        for workers in (1, 4):
            monkeypatch.setattr(montecarlo, "WORKERS", workers)
            columns.append([(r.estimate, r.ks_stat) for r in validate(spec)])
        assert columns[0] == columns[1]

    def test_worker_failure_names_point(self, monkeypatch, capsys, tmp_path):
        # block 1 of every point fails inside a pool worker
        draw = montecarlo.sample_sir

        def failing(rng, scenario, size, out=None):
            if rng.bit_generator.seed_seq.spawn_key[-1] == 1:
                raise ArithmeticError("overflow in block 1")
            return draw(rng, scenario, size, out)

        monkeypatch.setattr(montecarlo, "sample_sir", failing)
        spec = dataclasses.replace(parse_config(FIG2_POINT), samples=3 * 65536 + 17, seed=25)
        threads = threading.active_count()
        with pytest.raises(SweepPointError) as info:
            validate(spec)
        assert info.value.point["M"] == 2
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert str(info.value.__cause__) == "overflow in block 1"
        assert threading.active_count() == threads
        cfg = tmp_path / "fig2.ini"
        cfg.write_text(FIG2_POINT)
        assert main(["validate", "--config", str(cfg), "--samples", "200000"]) == 2
        err = capsys.readouterr().err
        assert "overflow in block 1" in err and "Traceback" not in err
        assert threading.active_count() == threads

    def test_memory_is_draws_plus_few_blocks(self, monkeypatch):
        # each block is drawn straight into the row's draws, which are sorted
        # in place, so a worker holds one block (the interferer's, then the
        # conditional BER's) and one gamma chunk; the slack is a quarter block
        # for the KS statistic's index arrays and Python's own objects.  A
        # block copied into the draws, a sorted copy, or a block-sized mask
        # per worker breaks the bound.
        workers = 2
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        block_bytes = montecarlo.BLOCK_SIZE * 8
        gamma_bytes = montecarlo._GAMMA_ROWS * 2 * 8  # FIG2_POINT's M = 2
        slack = block_bytes // 4
        spec = dataclasses.replace(parse_config(FIG2_POINT),
                                   samples=32 * montecarlo.BLOCK_SIZE, seed=26)
        tracemalloc.start()
        try:
            validate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * block_bytes + workers * (block_bytes + gamma_bytes) + slack

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
        # a row whose passed is set is a validate row
        rows = validate(dataclasses.replace(parse_config(MINIMAL), samples=10 ** 4, seed=5))
        text = rows_to_csv(rows)
        header = text.splitlines()[0]
        assert header.endswith(",mc_mean,mc_std_error,ks_stat,pass")
        assert text.splitlines()[1].split(",")[-1] in ("0", "1")


    def test_row_starts_with_scenario_fields(self):
        # the headers are README's, whatever the fields of the records behind them
        assert HEADER == "m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err"
        assert HEADER_VALIDATE == HEADER + ",mc_mean,mc_std_error,ks_stat,pass"
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8") as handle:
            readme = handle.read()
        assert f"`{HEADER}`\nplus `,mc_mean,mc_std_error,ks_stat,pass` for `validate`" in readme


class TestCliProcess:
    def test_point_beta_finite_though_power_ratio_overflows(self):
        # 10**400 * (1e-20)**20 * m = 2: the power ratio alone is past the double range
        proc = run_cli("point", *"--m 2 --M 1 --p1_dbm 0 --p2_dbm 4000 --s 1e-20 --t 1 --n 20"
                       .split())
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[1].split(",")[-3:-1] == ["2", "0.0943204575812"]

    @pytest.mark.parametrize("argv, code", [
        # the direct route's bound is inf and log BER -inf: their sum is NaN
        ("point --m=1e300 --M=1 --rho=5e-324 --p1_dbm=15 --p2_dbm=6 --s=90 --t=90 --n=3", 2),
        # beta*y overflows in sir_cdf on the Gauss-Laguerre route, and is clamped
        ("point --m=1e300 --M=1 --p1_dbm=15 --p2_dbm=90 --s=90 --t=90 --n=3", 2),
        # at rho = 1e-320 the law's 1/beta is past the double range: refused
        # before its draws, whose interference power would underflow to 0
        ("validate --m=2 --M=1 --p1_dbm=15 --p2_dbm=6 --s=90 --t=90 --n=3 --axis rho "
         "--values=1e17,1e-320 --samples 1e4", 2),
    ], ids=["direct-bound-inf", "gl-cdf-overflow", "mc-interference-underflow"])
    def test_extreme_law_prints_one_stderr_line(self, argv, code):
        # numpy's floating-point warnings would print beside the command's own line
        proc = run_cli(*argv.split())
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

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

    def test_validate_failure_writes_out_once(self, tmp_path):
        # the CSV goes to --out alone, byte for byte what stdout would carry,
        # and the failure count to stderr
        argv = ("validate", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                "--samples", "200003", "--corrupt-beta", "1.5")
        out = tmp_path / "val.csv"
        to_file, to_stdout = run_cli(*argv, "--out", str(out)), run_cli(*argv)
        assert to_file.returncode == to_stdout.returncode == 3
        assert to_file.stdout == ""
        assert to_file.stderr == to_stdout.stderr == "validation FAILED at 4 of 4 points\n"
        assert out.read_bytes() == to_stdout.stdout.encode()

    def test_missing_config_exit_code(self, tmp_path):
        proc = run_cli("point", "--config", str(tmp_path / "missing.ini"))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("config error: cannot read config ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("raw, message", [
        (b"\xff\xfe[scenario]\n", "can't decode byte 0xff in position 0: invalid start byte"),
        (b"[scenario]\nm = 2\xe9\n",
         "can't decode byte 0xe9 in position 16: invalid continuation byte"),
    ], ids=["utf-16-bom", "stray-0xe9"])
    def test_config_not_utf8(self, tmp_path, raw, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(raw)
        proc = run_cli("point", "--config", str(cfg))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"config error: cannot read config {str(cfg)!r}: "
                               f"'utf-8' codec {message}\n")

    def test_validate_sample_count_too_large(self):
        # 8e14 bytes of draws: more than x86-64's 128 TiB user address space
        proc = run_cli("validate", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                       "--samples", "100000000000000")
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert "'M': 1" in proc.stderr
        assert "100000000000000 samples need 800000000000000 bytes" in proc.stderr

    def test_validate_sample_count_past_index_range(self):
        # numpy refuses 2**63 entries, one past its index range, before any
        # allocation, with a ValueError (from 2**64 on the count is refused
        # as it is read)
        proc = run_cli("validate", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                       "--samples", str(2 ** 63))
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert f"{2 ** 63} samples need {8 * 2 ** 63} bytes" in proc.stderr

    def test_validate_branch_count_too_large_to_draw(self):
        # shape 2e12 has a BER, but a block's (8192, M) gamma buffer is 6.6e16 bytes
        proc = run_cli("validate", "--m", "2", "--M", "1e12", "--p1_dbm", "15", "--p2_dbm", "6",
                       "--s", "90", "--t", "90", "--n", "3", "--samples", "10000")
        assert proc.returncode == 1
        assert proc.stderr == (
            "config error: grid point {'m': 2.0, 'M': 1000000000000, 'sigma': 1.0, 'rho': 1.0, "
            "'p1_dbm': 15.0, 'p2_dbm': 6.0, 's': 90.0, 't': 90.0, 'n': 3.0}: 8192 draws of "
            "1000000000000 branch gammas need 65536000000000000 bytes, more than this process "
            "can allocate\n")

    @pytest.mark.parametrize("raw", ["9007199254740993", "1e17", "1e300"])
    def test_branch_count_beyond_exact_double(self, raw, capsys):
        # M above 2**53 would be rounded in shape = M*m; 1e300 is refused as it is read
        assert main(["point", "--m", "2", "--M", raw, "--p1_dbm", "15", "--p2_dbm", "6",
                     "--s", "90", "--t", "90", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200

    @pytest.mark.parametrize("points", [10 ** 17, 10 ** 23], ids=["1e17", "1e23"])
    def test_dist_point_count_too_large(self, points):
        # numpy refuses both before allocating: 8e17 bytes exceed the address
        # space, and 1e23 entries exceed its index range
        proc = run_cli("dist", "--config", os.path.join(CONFIG_DIR, "fig2_sweep.ini"),
                       "--points", str(points))
        assert proc.returncode == 1
        assert proc.stderr == (f"config error: dist: {points} points need {8 * points} bytes "
                               "for their grid, more than this process can allocate\n")

    def test_validate_frozen_bytes(self):
        proc = run_cli("validate", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                       "--samples", "200003")
        assert proc.returncode == 0
        assert proc.stdout == FIG3_VALIDATE_200003

    @pytest.mark.parametrize("name", sorted(SWEEP_FROZEN))
    def test_sweep_frozen_bytes(self, name):
        proc = run_cli("sweep", "--config", os.path.join(CONFIG_DIR, name))
        assert proc.returncode == 0
        assert proc.stdout == SWEEP_FROZEN[name]

    @pytest.mark.parametrize("name", sorted(POINT_FROZEN))
    def test_point_frozen_bytes(self, name):
        argv, expected = POINT_FROZEN[name]
        proc = run_cli("point", *argv)
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_dist_frozen_bytes(self):
        proc = run_cli("dist", "--config", os.path.join(CONFIG_DIR, "fig2_sweep.ini"),
                       "--points", "50")
        assert proc.returncode == 0
        assert proc.stdout == DIST_FIG2_50

    @pytest.mark.parametrize("command, config, flags, message", [
        ("point", MINIMAL.replace("m = 2", "m = 0.1"), "", "m must be >= 0.5"),
        ("point", MINIMAL, "--m inf", "scenario: m must be finite"),
        ("point", MINIMAL, "--sigma inf", "scenario: sigma must be finite"),
        ("point", MINIMAL, "--n inf", "scenario: n must be finite"),
        ("validate", MINIMAL, "--seed -1", "[validate] seed must be >= 0"),
        ("dist", MINIMAL, "--ymax inf --points 3", "dist needs 0 < ymin < ymax < inf"),
        ("validate", MINIMAL, "--corrupt-beta 0", "config error: --corrupt-beta must be"),
        ("validate", MINIMAL, "--corrupt-beta nan", "config error: --corrupt-beta must be"),
        ("point", MINIMAL, "--M 0",
         "config error: invalid scenario: M must be an integer >= 1, got 0\n"),
        # each [sweep] error comes before those of the slots' values
        ("sweep", MINIMAL + "\n[sweep]\naxis = s\nsecond_axis = bogus\n", "",
         "config error: unknown sweep axis 'bogus'; expected one of "),
        ("sweep", MINIMAL + "\n[sweep]\nsecond_axis = s\n", "",
         "config error: second_axis given without axis\n"),
        ("sweep", MINIMAL + "\n[sweep]\naxis = s\nsecond_axis = s\n", "",
         "config error: axis and second_axis must differ\n"),
        ("sweep", MINIMAL + "\n[sweep]\naxis = s\nvalues = 90\nsecond_axis = t\n", "",
         "config error: [sweep] second_axis given without second_values\n"),
        # values without their axis are refused, not dropped
        ("sweep", MINIMAL, "--values 1,2", "config error: [sweep] values given without axis\n"),
        ("sweep", MINIMAL, "--axis s --values 80 --second-values 1,2",
         "config error: [sweep] second_values given without second_axis\n"),
        # a grid point whose own parameters Scenario refuses is named
        ("sweep", MINIMAL, "--axis m --values 0.1,2",
         "config error: grid point {'m': 0.1, 'M': 1, 'sigma': 1.0, 'rho': 1.0, "
         "'p1_dbm': 15.0, 'p2_dbm': 6.0, 's': 90.0, 't': 90.0, 'n': 3.0}: invalid scenario: "
         "Nakagami parameter m must be >= 0.5, got 0.1\n"),
        ("sweep", MINIMAL, "--axis M --values 0,2",
         "config error: grid point {'m': 2.0, 'M': 0, 'sigma': 1.0, 'rho': 1.0, "
         "'p1_dbm': 15.0, 'p2_dbm': 6.0, 's': 90.0, 't': 90.0, 'n': 3.0}: invalid scenario: "
         "M must be an integer >= 1, got 0\n"),
        ("validate", MINIMAL, "--samples 5000",
         "config error: validation needs at least 1e4 samples, got 5000\n"),
        ("sweep", MINIMAL + "\n[sweep]\naxis = s\nvalues = ,\n", "",
         "config error: [sweep] values for axis 's' must be non-empty\n"),
        # configparser's refusals are parse errors, under one prefix
        ("point", MINIMAL + "\n[scenario]\nm = 3\n", "",
         "config error: config parse error: While reading from '<string>' [line 11]: "
         "section 'scenario' already exists\n"),
        ("point", MINIMAL.replace("M = 1", "M = 1\nM = 2"), "",
         "config error: config parse error: While reading from '<string>' [line  5]: "
         "option 'M' in section 'scenario' already exists\n"),
        # a message configparser spreads over several lines prints as one
        ("point", MINIMAL + "garbage line\n", "",
         "config error: config parse error: Source contains parsing errors: '<string>' "
         "[line 10]: 'garbage line\\n'\n"),
        ("point", "m = 2\n" + MINIMAL, "",
         "config error: config parse error: File contains no section headers. "
         "file: '<string>', line: 1 'm = 2\\n'\n"),
        # [DEFAULT] is a section like any other, so its keys reach no section
        ("point", "[DEFAULT]\nm = 2\n" + MINIMAL.replace("m = 2\n", ""), "",
         "config error: unknown section [DEFAULT]; expected one of "
         "['scenario', 'sweep', 'validate']\n"),
    ], ids=["m-0.1", "m-inf", "sigma-inf", "n-inf", "seed-negative", "dist-ymax-inf",
            "corrupt-beta-0", "corrupt-beta-nan", "M-0", "unknown-axis",
            "second-axis-alone", "same-axis-twice", "second-axis-without-values",
            "values-without-axis", "second-values-without-second-axis", "grid-point-m-0.1",
            "grid-point-M-0", "samples-5000", "values-empty", "duplicate-section",
            "duplicate-key", "no-equals-sign", "no-section-header", "default-section"])
    def test_parse_error_exit_code(self, tmp_path, command, config, flags, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config)
        proc = run_cli(command, "--config", str(cfg), *flags.split())
        assert proc.returncode == 1
        assert message in proc.stderr and proc.stderr.count("config error:") == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("command, flags, message", [
        # shape 0.5: GL route cannot match the direct route at 1e-7
        ("point", "--m 0.5 --M 1 --p1_dbm 15 --p2_dbm 6 --s 90 --t 90 --n 3",
         "evaluation failed at grid point"),
        # shape 320 under strong interference (beta 4e4): the direct route
        # matches the reference, but the order-128 GL rule cannot resolve the
        # narrow law, so the cross-check refuses the point
        ("point", "--m 40 --M 8 --p1_dbm 10 --p2_dbm 40 --s 100 --t 100 --n 3",
         "BER routes disagree: direct=0.418135280699"),
        # shape 100 at beta 1004.75: the same GL-route limit as shape 320 above
        ("point", "--m 4 --M 25 --p1_dbm 6 --p2_dbm 30 --s 90 --t 90 --n 3",
         "BER routes disagree: direct=0.266383154551"),
        # shape 1e8 at beta 1e8: the direct route's value is right, but the
        # order-128 GL rule is 8.1e-7 away, so the cross-check refuses it
        ("point", "--m 1e8 --M 1 --p1_dbm 0 --p2_dbm 0 --s 1 --t 1 --n 3",
         "BER routes disagree: direct=0.0676676421258"),
        # shapes 1e25, 1e17 and 1e18 at tiny beta: _slope's curvature has lost
        # its digits, so the rule would need far more nodes than _MAX_NODES
        ("point", "--m 1e25 --M 1 --p1_dbm 0 --p2_dbm -450 --s 1 --t 1 --n 3",
         "direct route at shape=1e+25, beta=1.0000000000000001e-20: quadrature did not "
         "converge: relative error bound inf"),
        ("point", "--m 1e17 --M 1 --p1_dbm 0 --p2_dbm -3170 --s 1 --t 1 --n 3",
         "direct route at shape=1e+17, beta=1.0000002306925374e-300: quadrature did not "
         "converge: relative error bound inf"),
        ("point", "--m 1e18 --M 1 --p1_dbm 0 --p2_dbm -3180 --s 1 --t 1 --n 3",
         "direct route at shape=1e+18, beta=9.999987484955999e-301: quadrature did not "
         "converge: relative error bound inf"),
        # a law that cannot be built: point and dist print the same line
        *[(command, flags, f"error: evaluation failed at grid point {point}: {cause}\n")
          for _, flags, point, cause in UNBUILDABLE for command in ("point", "dist")],
        # shape 1e17 at beta 1.8e20: the law's pdf is not finite on dist's grid
        ("dist", "--m 1e17 --M 1 --p1_dbm 15 --p2_dbm 6 --s 90 --t 3.7 --n 3 --points 5",
         "error: evaluation failed at grid point {'m': 1e+17, 'M': 1, 'sigma': 1.0, "
         "'rho': 1.0, 'p1_dbm': 15.0, 'p2_dbm': 6.0, 's': 90.0, 't': 3.7, 'n': 3.0}: SIR law "
         "at shape=1e+17, beta=1.811850483086782e+20: non-finite pdf or cdf at "
         "y=2.99069756244\n"),
    ], ids=["shape-0.5", "shape-320", "shape-100", "shape-1e8", "nodes-1e25", "nodes-1e17",
            "nodes-1e18",
            *[f"{command}-{name}" for name, *_ in UNBUILDABLE for command in ("point", "dist")],
            "dist-non-finite"])
    def test_numerical_failure_exit_code(self, command, flags, message):
        proc = run_cli(command, *flags.split())
        assert proc.returncode == 2
        assert message in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0] == lines[0].rstrip()
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    # Laws whose density the power form overflowed (shapes 320 and 100) or
    # underflowed to 0 (beta 1e300, where the true pdf is ~1e-296).  Each
    # printed pdf is held to the mpmath closed form at the grid's exact y: 12
    # printed digits and the log form's ~2e-12 at shape 320 stay inside 1e-11.
    @pytest.mark.parametrize("flags, scenario", [
        ("--m 40 --M 8 --p1_dbm 10 --p2_dbm 10 --s 100 --t 100 --n 3 --points 3",
         scen(m=40, M=8, p1=10, p2=10, s=100, t=100, n=3)),
        ("--m 4 --M 25 --p1_dbm 6 --p2_dbm 30 --s 90 --t 90 --n 3 --points 3",
         scen(m=4, M=25, p1=6, p2=30, s=90, t=90, n=3)),
        ("--m 1 --M 1 --p1_dbm 0 --p2_dbm 3000 --s 1 --t 1 --n 3",
         scen(m=1, M=1, p1=0, p2=3000, s=1, t=1, n=3)),
    ], ids=["shape-320", "shape-100", "beta-1e300"])
    def test_dist_matches_closed_form(self, flags, scenario):
        proc = run_cli("dist", *flags.split())
        assert proc.returncode == 0, proc.stderr
        dist = sir_distribution(scenario)
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        grid = np.geomspace(0.01, 20.0, len(rows))  # dist's default --ymin, --ymax
        misses = []
        for y, (printed_y, printed_pdf, _) in zip(grid, rows):
            assert printed_y == f"{y:.12g}"
            expected = float(closed_form_pdf(dist.shape, dist.beta, y))
            if not abs(float(printed_pdf) - expected) <= 1e-11 * expected:
                misses.append((y, printed_pdf, expected))
        assert misses == []

    def test_point_at_strongest_interference(self):
        # beta 1e300: the BER is 1/2 to the last bit
        proc = run_cli("point", *"--m 1 --M 1 --p1_dbm 0 --p2_dbm 3000 --s 1 --t 1 --n 3".split())
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["ber"] == "0.5"

    def test_dist_where_beta_y_overflows(self):
        # beta 1e300: beta*y overflows at y >= ~1.8e8, where the cdf is 1
        proc = run_cli("dist", *("--m 1 --M 1 --p1_dbm 0 --p2_dbm 3000 --s 1 --t 1 --n 3 "
                                 "--ymin 1 --ymax 1e9 --points 3").split())
        assert proc.returncode == 0, proc.stderr
        assert [line.split(",")[2] for line in proc.stdout.splitlines()[1:]] == ["1"] * 3

    # Deep-quiet and high-order points; each reference is the law's BER from
    # scripts/generate_reference.py's reference_ber, rounded once to a double.
    @pytest.mark.parametrize("flags, reference", [
        ("--m 4.5 --M 8 --p1_dbm 30 --p2_dbm 10.46 --s 100 --t 100 --n 3",
         1.8870589357051917e-20),
        ("--m 4 --M 25 --p1_dbm 15 --p2_dbm 6 --s 90 --t 90 --n 3", 7.847342739838786e-13),
        ("--m 40 --M 8 --p1_dbm 10 --p2_dbm 10 --s 100 --t 100 --n 3", 0.0017725865671764235),
    ], ids=["shape-36-ber-1e-20", "shape-100", "shape-320"])
    def test_point_matches_reference(self, flags, reference):
        proc = run_cli("point", *flags.split())
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        printed = dict(zip(header.split(","), row.split(",")))["ber"]
        # the CSV prints 12 significant digits; they must be the reference's
        assert printed == f"{reference:.12g}"

    def test_unwritable_output_exit_code(self, tmp_path):
        proc = run_cli("point", "--config", os.path.join(CONFIG_DIR, "fig3_validate.ini"),
                       "--out", str(tmp_path / "missing" / "x.csv"))
        assert proc.returncode == 1
        assert "config error: cannot write output" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_cli("sweep", "--axis", "bogus")
        assert proc.returncode == 1

    def test_main_carries_nothing_between_calls(self, capsys):
        # the parser is built once per process: neither a flag override nor a
        # usage error may leave anything in it for the next call
        argv = ["sweep", "--config", os.path.join(CONFIG_DIR, "fig4_sweep.ini")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--t", "120"]) == 0
        assert main(["sweep", "--axis", "bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == first == SWEEP_FROZEN["fig4_sweep.ini"]

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


# Flag values at and past the edges of the parameters' ranges.
EXTREMES = ("0", "-1", "1e-320", "5e-324", "1e-300", "0.5", "1", "2.5", "1e17", "1e300",
            "inf", "-inf", "nan")
MINIMAL_FLAGS = dict(m="2", M="1", sigma="1", rho="1", p1_dbm="15", p2_dbm="6",
                     s="90", t="90", n="3")


def extreme_argvs(count, seed):
    """Seeded command lines: MINIMAL's scenario with about a quarter of its
    values swapped for EXTREMES, through point, sweep and dist, and every
    50th through validate at 1e4 samples; sweeps take two extreme values."""
    rng = random.Random(seed)
    for index in range(count):
        command = ("point", "sweep", "dist")[index % 3] if index % 50 else "validate"
        argv = [command] + [f"--{key}=" + (rng.choice(EXTREMES) if rng.random() < 0.25 else raw)
                            for key, raw in MINIMAL_FLAGS.items()]
        if command in ("sweep", "validate"):
            argv += ["--axis", rng.choice(SCENARIO_KEYS),
                     "--values=" + ",".join(rng.choices(EXTREMES + ("3", "90"), k=2))]
        yield argv + {"validate": ["--samples", "1e4"], "dist": ["--points", "5"]}.get(command, [])


class TestExitContract:
    def test_exit_code_is_the_error_type(self, capsys):
        # exit 1 is a usage or config error and exit 2 an evaluation failure
        # at a named grid point; a failure prints one line and raises nothing
        misses, codes = [], set()
        for argv in extreme_argvs(300, seed=1):
            code = main(argv)
            err = capsys.readouterr().err
            codes.add(code)
            if not (code in (0, 1, 2, 3)
                    and (err == "" if code == 0 else err.count("\n") == 1 and err.endswith("\n"))
                    and (code == 1) == err.startswith(("usage error:", "config error:"))
                    and (code == 2) == err.startswith("error: evaluation failed at grid point")):
                misses.append((argv, code, err))
        assert misses == []
        assert codes >= {0, 1, 2}
