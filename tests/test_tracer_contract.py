"""The benchmark's tracer still finds every package name it uses.

perfbench/tracer.py rebinds the package's layer entry points by name and
imports kernel.term_exponent_max for its sign-floor check; a rename it does
not follow makes the traced benchmark run lose metrics or fail.  The tracer
is installed in a fresh interpreter, which reads perfbench/ and writes
nothing there.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path.insert(0, {perfbench!r})
from tracer import Tracer
t = Tracer()
t.install()
print(t.missing)
print(sorted(t.absent_spans()))
from wright_radii.kernel import term_exponent_max
print(term_exponent_max.__module__)
"""


def test_tracer_installs_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = INSTALL.format(perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "wright_radii.kernel"]
