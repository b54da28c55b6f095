"""The runtime imports numpy only: scipy stays a test dependency."""

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

_CHILD = """
import sys
import lfe.cli
code = lfe.cli.main(["find-orbit", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_find_orbit_never_imports_scipy(tmp_path):
    # integrator, shooting, identities and CSV output all run
    config = tmp_path / "desk-orbit.ini"
    config.write_text(DESK_ORBIT)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(config), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC), "LFE_VERBOSITY": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split("\n")[-2] == "0 []"
