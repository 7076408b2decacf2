"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Runs in about half a minute: cycles are cut to one or two ops and set-up to
one fresh process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_PLAN", ((2.0, (1,), 1), (1.0, (1, 2), 3)))
    monkeypatch.setattr(workloads, "VALIDATE_PLAN", ((2.0, (1, 2), 1),))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)


def test_generation_is_seeded_and_in_domain():
    a_warm, a_ops = workloads.sweep_ops(7, {})
    b_warm, b_ops = workloads.sweep_ops(7, {})
    assert a_warm == b_warm and a_ops == b_ops
    assert workloads.sweep_ops(8, {})[1] != a_ops
    assert sorted(len(op.points) for op in a_ops) == sorted(
        len(branches) * count for _, branches, count in workloads.SWEEP_PLAN)
    refs = {}
    for op in a_ops:
        for p in op.points:
            shape, beta = reference.shape_of(p), reference.beta_of(p)
            assert (shape == int(shape) or shape >= 3) and shape <= workloads.MAX_SHAPE
            assert beta <= workloads.BETA_MAX
            assert reference.ber_cached(refs, shape, beta) >= workloads.BER_FLOOR


def test_reference_matches_direct_integral():
    shape, beta = 6.0, 0.37
    with mpmath.workdps(30):
        k, b = mpmath.mpf(shape), mpmath.mpf(beta)
        pdf = lambda y: k * b ** k * y ** (k - 1) * (1 + b * y) ** (-(k + 1))  # noqa: E731
        direct = mpmath.quad(lambda y: mpmath.erfc(mpmath.sqrt(y)) / 2 * pdf(y), [0, 1, 10, mpmath.inf])
    assert reference.ber_ref(shape, beta) == pytest.approx(float(direct), rel=1e-14)


def test_check_rejects_a_wrong_ber(tmp_path):
    import io
    from contextlib import redirect_stdout

    import sirlink.cli

    warm, _ = workloads.sweep_ops(3, {})
    path = tmp_path / "warmup.ini"
    path.write_text(warm.config, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert sirlink.cli.main(["sweep", "--config", str(path)]) == 0
    refs = {}
    assert reference.check_grid(out.getvalue(), warm.points, refs, validate=False) == 0
    header, row = out.getvalue().splitlines()
    fields = row.split(",")
    fields[11] = repr(float(fields[11]) * (1 + 1e-4))
    with pytest.raises(reference.CheckFailed):
        reference.check_grid(f"{header}\n{','.join(fields)}\n", warm.points, refs, validate=False)


def test_self_times_subtract_direct_children():
    spans = [["a", 0, 100, None, 0], ["b", 10, 40, 0, 0], ["c", 15, 25, 1, 0], ["d", 50, 60, 0, 0]]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_tracer_restores_every_binding():
    import sirlink.cli

    # The package re-exports the function ber, which hides the submodule name.
    ber_module, channel, cli = (sys.modules[f"sirlink.{name}"] for name in ("ber", "channel", "cli"))
    before = (cli.ber, ber_module.sir_cdf, channel.sir_cdf)
    with tracing.Tracer():
        assert ber_module.sir_cdf is not before[1]
        assert ber_module.sir_cdf is channel.sir_cdf
    assert (cli.ber, ber_module.sir_cdf, channel.sir_cdf) == before


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["sweep", "validate"])
def test_end_to_end_metrics(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    detail, result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["environment"]["nproc"] >= 1


COUNTS = ("ber.direct_evals", "channel.sir_cdf_calls", "channel.sir_pdf_calls",
          "montecarlo.draws_per_point")


@pytest.mark.parametrize("workload", ["sweep", "validate"])
def test_traced_metrics(tiny, capsys, workload):
    counts = []
    for _ in range(2):
        assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
        detail, result = _last_json(capsys)
        assert result["correct"]
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert (ROOT / detail["trace_file"]).is_file()
        counts.append([metrics[name] for name in COUNTS])
    # A layer a workload never calls reports 0, so a count need not be positive.
    assert all(count >= 0 for count in counts[0]) and sum(counts[0]) > 0
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
