"""The benchmark's traced run wraps the package's functions by name.

``bench/tracing.py`` wraps every ``__all__`` function of the traced modules,
looks up ``RootSystem.is_cover`` and ``InfChainWindow.entries`` in the class
dictionaries and wraps each suite in ``cli._SUITES``.  Installing the tracer
here makes a cleanup that deletes one of those names fail this suite instead
of the traced benchmark run.  Likewise the benchmark's self-test computes a
small input of every workload and checks it, so a library change that breaks
a benchmark check fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_the_package():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    tracer = tracing.Tracer(run.Library())
    try:
        tracer.install()
        assert set(tracing.SUITES) <= set(run.Library().cli._SUITES)
    finally:
        tracer.uninstall()


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
