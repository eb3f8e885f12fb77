"""One pass of one workload, in a fresh interpreter, through the public API.

    python3 perfbench/worker.py --workload radius_surface --seed 1 --out pass.json [--spans spans.csv.gz]

With --spans the layers are traced (see tracer.py) and the spans written
there.  Every pass is calibrated (see calib.py); in a traced pass the
calibration loop, ~1% of the time, falls inside whatever span is open.  The pass's timings, outputs and per-layer metrics go to --out as
JSON; run.py checks the outputs.  The package must be importable, from src/
of the checkout it belongs to.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from calib import Calibration

ROOT = Path(__file__).resolve().parents[1]


def surface(W, seed: int, item) -> dict:
    from wright_radii import JanowskiParams, NormalizedKind, RadiusQuery, WrightParams
    todo = []
    for q in wl.shuffled(wl.surface_queries(), seed):
        kind, rho, beta, what, A, B = q
        jp = JanowskiParams(A, B) if A is not None else None
        todo.append((wl.query_key(q), RadiusQuery(NormalizedKind(kind),
                                                  WrightParams(rho, beta), what, jp)))
    results, latency = {}, {}
    for key, query in todo:
        with item():
            t0 = time.perf_counter()
            try:
                chk = W.cross_validate(query)
                results[key] = {"certifier": chk.certifier.radius,
                                "real_axis": chk.real_axis.radius,
                                "delta": chk.delta, "finding": chk.finding is not None}
            except Exception as exc:          # counted as a failed item
                results[key] = {"error": repr(exc)}
            latency[key] = time.perf_counter() - t0
    return {"results": results, "item_s": latency}


def zero_row(W, rho: float, beta: float) -> dict:
    p = W.WrightParams(rho, beta)
    form = "minus_z_squared"
    shallow = W.positive_zeros(p, form, wl.SHALLOW_DEPTH).zeros
    mids = [0.5 * (a + b) for a, b in zip(shallow, shallow[1:])]
    winding = [W.count_zeros_in_disk(p, form, m) for m in mids]
    deep = W.positive_zeros(p, form, wl.ZERO_DEPTH)
    z = wl.PRODUCT_POINT * deep.zeros[0]
    phi = W.base_eval(p, z).value.real
    errs = [abs(W.hadamard_partial_product(deep, z, n) - phi) for n in wl.PRODUCT_N]
    return {"shallow": list(shallow), "winding": winding, "zeros": list(deep.zeros),
            "product_errors": errs}


def zero_tables(W, seed: int, item) -> dict:
    results, latency = {}, {}
    for row in wl.shuffled(wl.ZERO_ROWS, seed):
        key = wl.row_key(row)
        with item():
            t0 = time.perf_counter()
            try:
                results[key] = zero_row(W, *row)
            except Exception as exc:          # counted as a failed item
                results[key] = {"error": repr(exc)}
            latency[key] = time.perf_counter() - t0
    return {"results": results, "item_s": latency}


def sweep_in_process(W, seed: int, item) -> dict:
    """The sweep through cli.main in this process, so a tracer sees its pool threads."""
    cli = W.cli
    grid = Path(os.environ["PERFBENCH_TMP"]) / f"grid-{seed}.txt"
    grid.write_text(wl.sweep_grid_text(seed))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", str(grid), "--check"])
    return {"code": code, "stdout": out.getvalue()}


RUNNERS = {"radius_surface": surface, "zero_tables": zero_tables,
           "sweep_cli": sweep_in_process}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import wright_radii as W
    import wright_radii.cli  # noqa: F401  (loaded outside the timed pass)
    if not Path(W.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"wright_radii imported from {W.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    tracer = None
    item = contextlib.nullcontext
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        item = tracer.item

    with Calibration() as cal:
        c0, w0 = time.process_time(), time.perf_counter()
        out = RUNNERS[args.workload](W, args.seed, item)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
    out["cal"] = cal.summary()
    out["wall_s"] -= out["cal"]["wall_s"]
    out["cpu_s"] -= out["cal"]["cpu_s"]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        metrics, absent, bases = tracer.metrics()
        out["trace"] = {"metrics": metrics, "absent": absent, "bases": bases,
                        "missing": tracer.missing,
                        "row_s": tracer.durations("cli.sweep.row")}
        tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
