"""`tests/tester_timings.py` is a script, not a test, so nothing else
imports it: run one small row of each kind, so that a change to the API
it times fails here rather than the next time someone times a change."""

import os
import re
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tester_timings.py")


@pytest.mark.parametrize("kind", ["anti", "mono"])
def test_tester_timings_row_runs(kind):
    done = subprocess.run([sys.executable, SCRIPT, "--row", kind, "4", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(rf"{kind} d=4 +[0-9.]+ s  draw +[0-9.]+ s  evaluate +[0-9.]+ s"
                        r" +[0-9.]+ MB\n", done.stdout)
