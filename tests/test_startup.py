"""Start-up cost: no process loads SciPy until it fits a locality model.

``repro.workloads.fitting.fit_stack_distance_model`` is the package's
only SciPy user, and importing ``scipy.optimize`` costs a fresh
interpreter about as much as everything else it loads, so the solver is
imported inside that function.  Each check runs in a fresh interpreter:
the test process itself has long since loaded SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prints the SciPy modules loaded after each step of ``body`` and the
#: step's name, one JSON object per step.
_PRELUDE = """
import json, sys

def report(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(json.dumps({"step": step, "scipy": loaded}), flush=True)
"""


def _scipy_after(body: str, cwd: Path) -> dict[str, list[str]]:
    """The SciPy modules a fresh interpreter holds after each step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + body],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    return {s["step"]: s["scipy"] for s in steps}


MODULES = (
    "repro",
    "repro.cli",
    "repro.cost.search",
    "repro.service.server",
    "repro.experiments.runner",
    "repro.trace.ingest",
)


def test_importing_the_package_loads_no_scipy(tmp_path):
    body = "import importlib\n" + "".join(
        f"importlib.import_module({m!r}); report({m!r})\n" for m in MODULES
    )
    loaded = _scipy_after(body, tmp_path)
    assert list(loaded) == list(MODULES)
    assert loaded == {m: [] for m in MODULES}


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--workload", "FFT", "--machines", "4", "--procs-per-machine", "2"],
        ["design", "--workload", "FFT", "--budget", "16000", "--cache-dir", ""],
        ["--help"],
    ],
    ids=["predict", "design", "help"],
)
def test_commands_that_do_not_fit_load_no_scipy(argv, tmp_path):
    body = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "assert code in (0, None), code\n"
        "report('ran')\n"
    )
    assert _scipy_after(body, tmp_path) == {"ran": []}


def test_a_locality_fit_loads_scipy(tmp_path):
    """The guard above is not vacuous: a fit does import the solver."""
    body = (
        "import numpy as np\n"
        "from repro.workloads.fitting import fit_stack_distance_model\n"
        "report('imported')\n"
        "fit = fit_stack_distance_model(\n"
        "    np.array([1.0, 10.0, 100.0, 1000.0]), np.array([0.3, 0.6, 0.8, 0.9]))\n"
        "assert fit.alpha > 1.0\n"
        "report('fitted')\n"
    )
    loaded = _scipy_after(body, tmp_path)
    assert loaded["imported"] == []
    assert "scipy.optimize" in loaded["fitted"]
