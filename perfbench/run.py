"""Benchmark of wright-radii: three workloads, their end-to-end metrics, and
a traced run that gives per-layer metrics.

Run from the root of a checkout (nothing to build; the package is imported
from src/):

    python3 perfbench/run.py --workload radius_surface --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Each pass of a workload runs in a fresh interpreter, so the zero cache
starts cold, as it does for a CLI user.  A run repeats passes while the next
one is expected to end within --seconds and reports medians over them.
Every output is checked against reference.json; a mismatch counts as a
failed item and does not stop the run.  The last line of stdout is the
result as one JSON object: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (untraced and traced
passes alternate, and trace.overhead_s is the difference of their median
calibrated wall times, in seconds).  The line before it is a report with
the details: raw pass times, per-item latency, product errors, the machine
and the problems found.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PER_PASS = 6
PASS_TIMEOUT_S = 150
# What the `wright-radii` console script runs, inside a calibration.
# argv: perfbench directory, calibration output file, then the CLI's arguments.
CLI_SHIM = """
import sys
here, cal_path = sys.argv[1:3]
del sys.argv[1:3]
sys.path.insert(0, here)
from calib import Calibration
with Calibration() as cal:
    from wright_radii.cli import main
    code = main()
cal.write(cal_path)
sys.exit(code)
"""
SETUP_CODE = ("import time; t = time.perf_counter(); import wright_radii; "
              "print(time.perf_counter() - t, wright_radii.__file__)")
MACHINE_CODE = """
import json, os, platform, numpy, mpmath, mpmath.libmp
from wright_radii import cli
cap = getattr(cli, "_thread_cap", None)
print(json.dumps({"nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "mpmath": mpmath.__version__,
                  "mpmath_backend": mpmath.libmp.BACKEND,
                  "sweep_thread_cap": cap() if cap else None}))
"""


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WRIGHT_RADII_THREADS", None)       # the sweep uses its default cap
    env["PERFBENCH_TMP"] = str(tmp)
    return env


def _python(code: str, env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"python -c failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(env: dict) -> list[float]:
    """Seconds for `import wright_radii` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PER_PASS):
        elapsed, path = _python(SETUP_CODE, env).split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"wright_radii imported from {path.strip()}, not src/")
        samples.append(float(elapsed))
    return samples


def machine_info(env: dict) -> dict:
    info = json.loads(_python(MACHINE_CODE, env))
    recorded = HERE / "machine.json"
    if recorded.is_file():
        info["reference_commit"] = json.loads(recorded.read_text()).get("git_commit")
    return info


def worker_pass(workload: str, seed: int, env: dict, tmp: Path, spans: Path | None = None) -> dict:
    out = tmp / f"pass-{workload}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def cli_pass(seed: int, env: dict, tmp: Path) -> dict:
    """`wright-radii sweep grid.txt --check` as a child; time and rusage of the child."""
    grid = tmp / f"grid-{seed}.txt"
    grid.write_text(wl.sweep_grid_text(seed))
    out_path, err_path, cal_path = tmp / "sweep.out", tmp / "sweep.err", tmp / "sweep.cal"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_SHIM, str(HERE), str(cal_path),
                                 "sweep", str(grid), "--check"],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not cal_path.is_file():
        raise BenchError(f"sweep exited {proc.returncode}: {err_path.read_text()[-2000:]}")
    cal = json.loads(cal_path.read_text())
    return {"code": proc.returncode, "stdout": out_path.read_bytes(), "cal": cal,
            "wall_s": wall - cal["wall_s"],
            "cpu_s": usage.ru_utime + usage.ru_stime - cal["cpu_s"],
            "peak_rss_kb": usage.ru_maxrss}


def check_pass(workload: str, p: dict, ref: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass."""
    if workload == "sweep_cli":
        stdout = p["stdout"]
        if isinstance(stdout, str):
            # A traced in-process sweep: what the CLI wrote, untranslated, as text.
            stdout = stdout.encode()
        return wl.check_sweep(p["code"], stdout, ref)
    if workload == "radius_surface":
        keys, check = [wl.query_key(q) for q in wl.surface_queries()], wl.check_query
    else:
        keys, check = [wl.row_key(r) for r in wl.ZERO_ROWS], wl.check_zero_row
    failed, probs = 0, []
    for key in keys:
        res = p["results"].get(key, {"error": "missing"})
        item_probs = [res["error"]] if "error" in res else check(key, res, ref)
        if item_probs:
            failed += 1
            probs.extend(f"{key}: {msg}" for msg in item_probs)
    return len(keys), failed, probs


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """(result object, report) of one run."""
    ref = wl.load_reference()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = child_env(tmp)
        machine = machine_info(env)
        setup, plain, traced = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            # Import times taken between passes span the run like the passes do.
            setup += measure_setup(env)
            if not trace and workload == "sweep_cli":
                plain.append(cli_pass(seed, env, tmp))
            else:
                plain.append(worker_pass(workload, seed, env, tmp))
            if trace:
                spans = OUT / f"spans-{workload}-{seed}.csv.gz"
                traced.append(worker_pass(workload, seed, env, tmp, spans))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = failed = 0
    problems: list[str] = []
    for p in plain + traced:
        a, f, probs = check_pass(workload, p, ref)
        attempted, failed = attempted + a, failed + f
        problems.extend(probs)

    med = statistics.median
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "passes": len(plain), "pass_wall_s": [p["wall_s"] for p in plain],
              "setup_s_samples": setup, "failed_frac": failed / attempted,
              "problems": problems[:20], "machine": machine}
    if workload == "sweep_cli":
        latency = [s for t in traced for s in t["trace"]["row_s"]]
    else:
        latency = [s for p in plain for s in p["item_s"].values()]
    if latency:
        report["item_latency_ms"] = {
            "n": len(latency), "p50": _ms(wl.percentile_with_support(latency, 0.50)),
            "p95": _ms(wl.percentile_with_support(latency, 0.95))}
    if workload == "zero_tables":
        report["row_s"] = {k: med(p["item_s"][k] for p in plain) for k in plain[0]["item_s"]}
        report["n80_product_error"] = {k: r["product_errors"][-1]
                                       for k, r in plain[0]["results"].items()
                                       if "product_errors" in r}

    if trace:
        layer = [t["trace"] for t in traced]
        names = [m["name"] for m in spec["per_layer"]]
        absent = sorted(set().union(*(t["absent"] for t in layer)))
        values = {n: med(t["metrics"][n] for t in layer)
                  for n in names if n != "trace.overhead_s" and n not in absent}
        # In seconds at the untraced passes' speed, so that speed drift between
        # the two passes does not show as overhead.
        values["trace.overhead_s"] = (
            (med(_cal(t, "wall_s") for t in traced) - med(_cal(p, "wall_s") for p in plain))
            * med(p["cal"]["unit_s"] for p in plain))
        report.update(absent=absent, missing_entry_points=layer[0]["missing"],
                      ratio_bases=layer[0]["bases"],
                      traced_wall_s=[t["wall_s"] for t in traced])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        expected = [n for n in names if n not in absent]
    else:
        values = {"setup_s": med(setup),
                  "wall_cal": med(_cal(p, "wall_s") for p in plain),
                  "cpu_cal": med(_cal(p, "cpu_s") for p in plain),
                  "peak_rss_mb": med(p["peak_rss_kb"] for p in plain) / 1024.0}
        report.update(wall_s=med(p["wall_s"] for p in plain),
                      cpu_s=med(p["cpu_s"] for p in plain),
                      cal_unit_s=[p["cal"]["unit_s"] for p in plain])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        expected = list(units)
    if sorted(values) != sorted(expected):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(expected)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in expected}}
    return result, report


def _cal(p: dict, key: str) -> float:
    """A pass's time in calibration units (see calib.py)."""
    return p[key] / p["cal"]["unit_s"]


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wright_radii" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'wright_radii'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            if args.workload == "all":
                print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
                for metric, v in result["metrics"].items():
                    print(f"  {metric:32s} {v['value']:.6g} {v['unit']}")
            print("report: " + json.dumps(report))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
