"""What importing the package does, each case in a fresh interpreter.

`import wright_radii` loads nothing heavy and leaves the host's BLAS alone;
the CLI module sets OPENBLAS_NUM_THREADS=1 before numpy loads, unless the
variable is already set.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Records OPENBLAS_NUM_THREADS at the moment numpy starts to import, then
# runs the case's code; prints that value, or "no numpy" if none imported.
WATCH = """
import os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Watch())
{code}
print(seen[0] if seen else "no numpy")
"""


def _python(code: str, preset: str | None = None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_neither_numpy_nor_mpmath():
    out = _python("import sys, wright_radii\n"
                  "print(sorted(m for m in ('numpy', 'mpmath', 'wright_radii.kernel')"
                  " if m in sys.modules))")
    assert out == "[]\n"


def test_every_public_name_loads_on_first_access():
    out = _python("""
import wright_radii as W
assert all(getattr(W, name) is not None for name in W.__all__)
ns = {}
exec("from wright_radii import *", ns)
assert set(W.__all__) <= set(ns), set(W.__all__) - set(ns)
assert set(W.__all__) <= set(dir(W))
try:
    W.no_such_name
except AttributeError as exc:
    print(exc)
""")
    assert out == "module 'wright_radii' has no attribute 'no_such_name'\n"


def test_a_library_module_loads_the_whole_package():
    # the tracer reads every module once one is imported
    out = _python("import sys\nfrom wright_radii import family\n"
                  "print('wright_radii.radii' in sys.modules, "
                  "'cross_validate' in vars(sys.modules['wright_radii']))")
    assert out == "True True\n"


@pytest.mark.parametrize("code, preset, seen", (
    # the CLI sets one BLAS thread before numpy loads
    ("import wright_radii.cli", None, "1"),
    ("from wright_radii import cli", None, "1"),
    # a value the user set wins
    ("import wright_radii.cli", "3", "3"),
    # a library import leaves the host's BLAS as it finds it
    ("import wright_radii\nwright_radii.WrightParams", None, "None"),
))
def test_openblas_threads_at_numpy_import(code, preset, seen):
    out = _python(WATCH.format(code=code), preset)
    assert out == f"{seen}\n"
