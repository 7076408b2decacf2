"""The package's public names and the scripts that import from it."""

import importlib.util
import os
import re
import subprocess
import sys

import sirlink
import sirlink.montecarlo
from conftest import REFERENCE_PATH

PUBLIC_NAMES = [
    "BerResult", "CROSS_CHECK_THRESHOLD", "CrossCheckError", "DEFAULT_GL_ORDER",
    "McEstimate", "QuadratureError", "QuadratureResult",
    "Scenario", "SingularityError", "SirDistribution",
    "ber", "ber_direct", "ber_gl", "conditional_ber", "estimate_ber",
    "gauss_laguerre_half", "interference_scale", "ks_statistic",
    "sample_sir", "sir_cdf",
    "sir_distribution", "sir_pdf", "upper_incomplete_gamma",
]
SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PYPROJECT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sirlink.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sirlink, name) is not None


def test_version_matches_pyproject():
    # read with a regex: tomllib is not in Python 3.10
    with open(PYPROJECT_PATH, encoding="utf-8") as handle:
        (version,) = re.findall(r'^version = "([^"]+)"$', handle.read(), re.MULTILINE)
    assert sirlink.__version__ == version


def test_readme_library_use_runs(capsys):
    # the README's example is the documented API, so it must keep running
    with open(README_PATH, encoding="utf-8") as handle:
        section = handle.read().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("6.0 ")


def test_generate_golden_imports(monkeypatch):
    # load the script as a module without running main(); the script puts
    # tests/ on sys.path, which the monkeypatch restores afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = os.path.join(SCRIPTS_DIR, "generate_golden.py")
    spec = importlib.util.spec_from_file_location("generate_golden", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.estimate_ber is sirlink.estimate_ber
    assert script.derived_seed is sirlink.montecarlo.derived_seed
    assert callable(script.main)


def test_generate_reference_imports():
    # load the script as a module without running main()
    path = os.path.join(SCRIPTS_DIR, "generate_reference.py")
    spec = importlib.util.spec_from_file_location("generate_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert os.path.samefile(script.REFERENCE_PATH, REFERENCE_PATH)
    assert callable(script.main)


def test_import_loads_no_quadpack():
    # scipy.integrate costs ~0.24 s of start-up and ~26 MB of memory; no
    # route needs it, so a fresh `import sirlink` must not load it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, sirlink; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"


def test_sweep_loads_no_linalg():
    # scipy.linalg costs ~45 ms and ~7 MB; the 128-node rule is built without
    # it, so a whole sweep must not load it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "fig2_sweep.ini")
    code = ("import sys; from sirlink.cli import main; "
            f"status = main(['sweep', '--config', {config!r}]); "
            "print(status, sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
