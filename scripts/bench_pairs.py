"""Alternating parent/change runs of the benchmark, kept as a BENCH file.

Runs perfbench/run.py on a parent commit and on the working tree, in N
pairs of runs with alternating order (parent first in even pairs), one seed
per pair, and merges the result for the workload into a JSON file:

    python3 scripts/bench_pairs.py --workload radius_surface --pairs 10 \
        --parent HEAD --held-out 7777 --out BENCH.json

Per end-to-end metric the file keeps both sides' values, medians and
quartiles, the pairs the change won, and whether the gap of the medians
exceeds the parent's quartile spread.  --held-out runs one more pair on a
seed outside the pairs; --trace runs one `--trace 1` run per side for the
per-layer metrics.  The parent is exported with `git archive` into
.bench_build/ (reused on the next call), so the repository gains no
worktree.  The file is rewritten after every run, so an interrupted session
keeps what it measured.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of rev in .bench_build/parent-<sha>."""
    sha = git("rev-parse", rev)
    dest = BUILD / f"parent-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", "--format=tar", sha],
                                   cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(dest)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
    return dest


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """One perfbench run: its result object plus the report line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2].removeprefix("report: "))
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def compare(pairs: list[dict], spec: dict) -> dict:
    """Per metric: both sides, the pairs won and the median gap."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ps, cs = summary(par), summary(chg)
        gap = (ps["median"] - cs["median"]) * (1 if lower else -1)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": ps, "change": cs, "pairs": len(pairs), "pairs_won": won,
            "relative_change": cs["median"] / ps["median"] - 1.0,
            "parent_quartile_spread": ps["q3"] - ps["q1"],
            "gap_exceeds_parent_spread": gap > ps["q3"] - ps["q1"],
        }
    return out


def brief(result: dict) -> dict:
    """What the BENCH file keeps of one run."""
    rep = result["report"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "passes": rep["passes"], "pass_wall_s": rep["pass_wall_s"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="pair i runs seed seed0 + i")
    ap.add_argument("--seconds", type=float, default=None,
                    help="per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare with")
    ap.add_argument("--held-out", type=int, default=None, dest="held_out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": export(args.parent), "change": ROOT}
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.update(parent_commit=git("rev-parse", args.parent),
               change="working tree on " + git("rev-parse", "HEAD"),
               seconds=seconds, python=sys.version.split()[0])
    entry = doc.setdefault("workloads", {})[args.workload] = {
        "seeds": [], "order": [], "pairs": []}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    def pair(seed: int, parent_first: bool) -> dict:
        order = ("parent", "change") if parent_first else ("change", "parent")
        res = {side: run(sides[side], args.workload, seed, seconds, False)
               for side in order}
        doc.setdefault("machine", res["change"]["report"]["machine"])
        return res

    for i in range(args.pairs):
        seed = args.seed0 + i
        res = pair(seed, i % 2 == 0)
        entry["seeds"].append(seed)
        entry["order"].append("parent first" if i % 2 == 0 else "change first")
        entry["pairs"].append({side: brief(r) for side, r in res.items()})
        entry["metrics"] = compare(entry["pairs"], spec)
        save()
        print(f"{time.strftime('%H:%M:%S')} {args.workload} pair {i + 1}/"
              f"{args.pairs} seed {seed}: " + ", ".join(
                  f"{n} {res['parent']['metrics'][n]['value']:.6g} -> "
                  f"{res['change']['metrics'][n]['value']:.6g}"
                  for n in res["parent"]["metrics"]), flush=True)
    if args.held_out is not None:
        res = pair(args.held_out, True)
        entry["held_out"] = {"seed": args.held_out,
                             **{side: brief(r) for side, r in res.items()}}
        save()
    if args.trace:
        entry["trace"] = {"seed": args.seed0}
        for side in ("parent", "change"):
            res = run(sides[side], args.workload, args.seed0, seconds, True)
            entry["trace"][side] = {
                "failed": res["failed"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
