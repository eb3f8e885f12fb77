"""Write reference.json, reference_sweep.csv and machine.json from the current code.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right: the
benchmark checks every later commit against what it writes.  It computes the
whole 288-query radius surface, the 80-zero tables of all twelve grid rows
(the zero_tables workload runs three of them) and the sweep's stdout.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import wright_radii as W
    import worker

    surface = worker.surface(W, 0, contextlib.nullcontext)["results"]
    radii = {wl.query_key(q): surface[wl.query_key(q)] for q in wl.surface_queries()}
    rows = {wl.row_key(r): worker.zero_row(W, *r) for r in wl.GRID}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        env = run.child_env(Path(tmp))
        sweep = run.cli_pass(1, env, Path(tmp))
        machine = run.machine_info(env)
    if sweep["code"] != 0:
        raise SystemExit(f"sweep exited {sweep['code']}")
    stdout = sweep["stdout"]
    reference = {
        "radii": radii,
        "zeros": {k: r["zeros"] for k, r in rows.items()},
        "n80_product_error": {k: r["product_errors"][-1] for k, r in rows.items()},
        "sweep_sha256": hashlib.sha256(stdout).hexdigest(),
    }
    here = Path(__file__).resolve().parent
    (here / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    (here / "reference_sweep.csv").write_bytes(stdout)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True)
    machine.pop("reference_commit", None)
    machine["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    (here / "machine.json").write_text(json.dumps(machine, indent=1) + "\n")
    findings = sum(r["finding"] for r in radii.values())
    print(f"{len(radii)} radii ({findings} findings), {len(rows)} zero rows, "
          f"sweep {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
