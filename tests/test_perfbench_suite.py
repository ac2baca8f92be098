"""The benchmark's own unit tests still pass against this source tree.

Those tests pin facts a `src/` change can break: the call counts of the
d = 4 self-check, the tracer's install and clean uninstall, and the names
it wraps.  They are run as the benchmark's README says, not changed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
