"""The runtime imports numpy only: scipy stays a test dependency, and numpy.polynomial is not loaded."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the benchmark's desk-orbit scenario: the desk fields with c_B = 0.2, at lambda = 1
DESK_ORBIT = """
[potential]
c0 = 1.0
gamma = 3.0
eps0 = 0.5

[magnetic]
kind = dipole
moment = 0 0 0.1
c_B = 0.2
eps1 = 0.5

[forcing]
period = 1.0
mean = 0 0 2
harmonic_1_cos = 0.1 0 0

[initial-state]
lambda = 1.0
"""

# the desk scenario of `continue`: the same fields with c_B = auto, from lambda = 0
DESK = DESK_ORBIT.replace("c_B = 0.2", "c_B = auto").replace("[initial-state]\nlambda = 1.0\n", "")

_CHILD = """
import sys
import lfe.cli
code = lfe.cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), "numpy.ma" in sys.modules)
"""


def _run(tmp_path, subcommand: str, text: str) -> str:
    """The last line of a fresh interpreter running the subcommand on the config text.

    It reads: the exit code, the scipy modules imported, and whether numpy.ma was imported.
    A fresh interpreter, because the test process itself has imported scipy.
    """
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, subcommand, str(config), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC), "LFE_VERBOSITY": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split("\n")[-2]


def test_find_orbit_never_imports_scipy(tmp_path):
    # integrator, shooting, identities and CSV output all run
    assert _run(tmp_path, "find-orbit", DESK_ORBIT) == "0 [] False"


def test_continue_never_imports_numpy_ma(tmp_path):
    # numpy.ma (imported by np.median, for one) would add about 1.3 MB to a run's peak memory
    assert _run(tmp_path, "continue", DESK) == "0 [] False"


_POLYNOMIAL = """
import sys
{}
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "polynomial"]))
"""


def test_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is written out: numpy.polynomial added about 4.7 ms to `import lfe.cli`
    loaded = {}
    for module in ("numpy", "lfe.cli"):
        child = subprocess.run(
            [sys.executable, "-c", _POLYNOMIAL.format(f"import {module}")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        loaded[module] = child.stdout.strip()
    # an older numpy imports numpy.polynomial itself; lfe.cli adds none of it
    assert loaded["lfe.cli"] == loaded["numpy"]
