"""numpy is loaded only by the oracle and the sweep: importing the package,
exact floors, the partial-sum enclosures, every certified mean (fast_mean
and `rootmean mean`) and the exact verify modes (delta, lemma2, lemma3)
never load it.  Importing the package and its CLI loads no dataclasses.
After the standard modules the benchmark worker imports itself, `import
rootmean` loads only `__future__` and the package's own modules, and not
its CLI."""

import os
import subprocess
import sys

import rootmean

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rootmean.__file__)))

# run in a fresh isolated interpreter: this test process has numpy loaded
SCRIPT = """
import sys
import json, os, resource, statistics, time, array
sys.path.insert(0, {src!r})
before = set(sys.modules)
import rootmean
added = sorted(set(sys.modules) - before)
assert all(m == "__future__" or m.startswith("rootmean.") or m == "rootmean" for m in added), added
assert "rootmean.cli" not in added, added
import rootmean.cli
assert "dataclasses" not in sys.modules
from rootmean import (
    fast_mean, floor_A_exact, floor_via_alpha, partial_sum_root_enclosure
)

assert floor_A_exact(10 ** 3000) == floor_via_alpha(10 ** 3000)
for r in (1, 2, 3, 2.5):
    enc = partial_sum_root_enclosure(10, 10 ** 6, r)
    assert 0 < enc.lo <= enc.hi
assert rootmean.cli.main(["floor", "123456789012345678901234567890"]) == 0
assert rootmean.cli.main(["sum", "--from", "3", "--to", "4000", "--root", "3"]) == 0
for epsilon in (1e-9, 1e-12):
    cert = fast_mean(10 ** 6, epsilon)
    assert cert.method == "euler-maclaurin" and cert.error_bound <= epsilon
assert rootmean.cli.main(["mean", "10000000"]) == 0
for mode, max_n in (("delta", 1000), ("lemma2", 10 ** 20), ("lemma3", 1000)):
    assert rootmean.cli.main(["verify", "--mode", mode, "--max-n", str(max_n)]) == 0
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert not loaded, loaded

assert rootmean.oracle_mean(1000).lo > 0
assert "numpy" in sys.modules
print("lazy numpy ok")
"""


def test_numpy_stays_out_of_floors_and_enclosures():
    done = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "lazy numpy ok"
