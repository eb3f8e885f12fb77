"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q        (from the root of a checkout; ~1 min)

Counts made by the traced pass must repeat exactly, so that a later change
can rest a claim on them; and a renamed entry point must make its metrics
absent without stopping the workload.
"""
from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

EXACT = ("zeros.evals", "zeros.mp_evals", "zeros.mp_exhausted", "zeros.evals_per_zero",
         "radii.bisection_steps", "radii.sup_levels", "zeros.mp_first_try_frac",
         "zeros.table.cache_hit_frac")


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXACT}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_counts(workload):
    ref = wl.load_reference()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        env = run.child_env(tmp)
        passes = [run.worker_pass(workload, 7, env, tmp, tmp / f"spans{k}.csv.gz")
                  for k in range(2)]
    for p in passes:
        attempted, failed, problems = run.check_pass(workload, p, ref)
        assert failed == 0, problems
        assert p["trace"]["absent"] == [] and p["trace"]["missing"] == []
    first, second = (_counts(p["trace"]["metrics"]) for p in passes)
    assert len(first) == 18
    assert first == second


RENAMED = """
import sys
sys.path.insert(0, {here!r})
import wright_radii as W
from wright_radii import family
del family.starlike_on_circle, family.convex_on_circle
from tracer import Tracer
t = Tracer()
t.install()
q = W.RadiusQuery(W.NormalizedKind.G, W.WrightParams(1.0, 1.0), "lem_star")
r = W.cross_validate(q)
metrics, absent, _ = t.metrics()
print(sorted(absent))
print(t.missing)
print(metrics["radii.bisection_steps"] > 0, "family.on_circle.calls" in metrics)
"""


def test_renamed_entry_point_is_absent():
    env = run.child_env(run.OUT)
    out = subprocess.run([sys.executable, "-c", RENAMED.format(here=str(HERE))],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    absent, missing, present = out.stdout.strip().splitlines()
    assert absent == str(sorted(["family.on_circle.calls", "family.on_circle.self_s",
                                 "radii.sup_levels"]))
    assert missing == str(["family.starlike_on_circle", "family.convex_on_circle"])
    assert present == "True False"
