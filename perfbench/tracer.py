"""Span tracing of the package's layers, installed from outside the package.

Tracer.install() rebinds each layer entry point below at every module
attribute that callers look it up through (``from .kernel import
circle_eval`` makes family.circle_eval and zeros.circle_eval separate
bindings), and wraps the two _ComboSeries methods on the class.  Each call
records a span: id, layer name, start, end, parent span and item id.  Spans
stay in memory until write_spans().  An entry point that no longer exists is
reported as missing, and the metrics that need it as absent; the workload
still runs.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

# (span name, module, attribute, rebind only in these modules or None for all)
ENTRY_POINTS = (
    ("kernel.circle_eval", "kernel", "circle_eval", None),
    ("kernel.wright_eval", "kernel", "wright_eval", None),
    ("family.on_circle", "family", "starlike_on_circle", None),
    ("family.on_circle", "family", "convex_on_circle", None),
    ("family.real", "family", "starlike_real", None),
    ("family.real", "family", "convex_real", None),
    ("zeros.table", "zeros", "positive_zeros", None),
    ("zeros.table", "zeros", "derivative_positive_zeros", None),
    ("zeros.certified", "zeros", "_ComboSeries.certified", None),
    ("zeros.eval_mp", "zeros", "_ComboSeries._eval_mp", None),
    ("zeros.winding", "zeros", "count_zeros_in_disk", None),
    ("zeros.mp_complex", "zeros", "_mp_wright_complex", None),
    ("radii.certify", "radii", "radius_by_certification", None),
    ("radii.boundary_sup", "radii", "boundary_sup", None),
    ("radii.real_axis", "radii", "radius_real_axis", None),
    ("radii.domain_bound", "radii", "domain_bound", None),
    ("cli.sweep", "cli", "cmd_sweep", None),
    ("cli.sweep.row", "cli", "cross_validate", ("cli",)),
    ("cli.emit", "cli", "emit", None),
)

ITEM_ROOTS = ("item", "cli.sweep.row")     # spans that start a new item id
MP_ATTEMPTS = 3                            # _ComboSeries.certified's mp tries

# Per-layer metric -> spans it needs.  Names and order match BENCHMARK.json.
METRIC_SPANS = {
    "kernel.circle_eval.calls": ("kernel.circle_eval",),
    "kernel.circle_eval.s": ("kernel.circle_eval",),
    "kernel.wright_eval.calls": ("kernel.wright_eval",),
    "kernel.wright_eval.s": ("kernel.wright_eval",),
    "family.on_circle.calls": ("family.on_circle",),
    "family.on_circle.self_s": ("family.on_circle", "kernel.circle_eval"),
    "family.real.calls": ("family.real",),
    "family.real.s": ("family.real",),
    "zeros.table.calls": ("zeros.table",),
    "zeros.table.s": ("zeros.table",),
    "zeros.table.cache_hit_frac": ("zeros.table", "zeros.certified"),
    "zeros.evals": ("zeros.certified",),
    "zeros.evals_per_zero": ("zeros.table", "zeros.certified"),
    "zeros.mp_evals": ("zeros.eval_mp",),
    "zeros.mp_s": ("zeros.eval_mp",),
    "zeros.mp_first_try_frac": ("zeros.certified", "zeros.eval_mp"),
    "zeros.mp_exhausted": ("zeros.certified", "zeros.eval_mp"),
    "zeros.winding.calls": ("zeros.winding",),
    "zeros.winding.s": ("zeros.winding",),
    "zeros.mp_complex.calls": ("zeros.mp_complex",),
    "radii.certify.calls": ("radii.certify",),
    "radii.certify.self_s": ("radii.certify",),
    "radii.bisection_steps": ("radii.certify", "radii.boundary_sup"),
    "radii.boundary_sup.calls": ("radii.boundary_sup",),
    "radii.boundary_sup.self_s": ("radii.boundary_sup",),
    "radii.sup_levels": ("radii.boundary_sup", "family.on_circle"),
    "radii.real_axis.calls": ("radii.real_axis",),
    "radii.real_axis.s": ("radii.real_axis",),
    "radii.domain_bound.s": ("radii.domain_bound",),
    "cli.sweep.row_busy_s": ("cli.sweep.row",),
    "cli.sweep.busy_over_wall": ("cli.sweep", "cli.sweep.row"),
    "cli.emit.s": ("cli.emit",),
}


def _ratio(num: float, den: float) -> float:
    # A ratio whose base is 0 reads 0; the base is reported next to it.
    return num / den if den else 0.0


class Tracer:
    """Collects spans from wrapped entry points; one per traced process."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._items = itertools.count()
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._local.stack = self._main_stack
        self._records: list[tuple] = []
        self._extra: dict[int, object] = {}
        self.missing: list[str] = []
        self.wrapped: set[str] = set()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str) -> tuple[int, int, int]:
        stack = self._stack()
        # A pool thread's first span hangs off the main thread's open span.
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack
                                       else (-1, -1))
        sid = next(self._ids)
        item = next(self._items) if name in ITEM_ROOTS else top[1]
        stack.append((sid, item))
        return sid, top[0], item

    def _close(self, sid: int, name: str, t0: float, parent: int, item: int) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self._records.append((sid, name, t0, t1, parent, item))

    def span(self, name: str, fn, capture=None):
        """fn wrapped to record a span; capture(args, result) keeps extra data."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, item = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, t0, parent, item)
            if capture is not None:
                self._extra[sid] = capture(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def item(self):
        """Marks one workload item: its spans share a new item id."""
        sid, parent, item = self._open("item")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, "item", t0, parent, item)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for short in ("kernel", "family", "zeros", "radii", "cli"):
            try:
                modules[short] = importlib.import_module(f"wright_radii.{short}")
            except ImportError:
                pass
        everywhere = [importlib.import_module("wright_radii"), *modules.values()]
        captures = {"zeros.table": lambda args, res: len(res.zeros),
                    "zeros.eval_mp": lambda args, res: (args[0].p, args[1], args[2], res)}
        for name, mod_name, attr, scope in ENTRY_POINTS:
            home = modules.get(mod_name)
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(meth)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(owner, meth, self.span(name, original, captures.get(name)))
                self.wrapped.add(name)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.span(name, original, captures.get(name))
            targets = [modules[m] for m in scope if m in modules] if scope else everywhere
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            self.wrapped.add(name)

    def absent_spans(self) -> set[str]:
        return {name for name, *_ in ENTRY_POINTS} - self.wrapped

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "item"))
            out.writerows(sorted(self._records))

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, n, t0, t1, _, _ in self._records if n == name]

    def metrics(self) -> tuple[dict[str, float], list[str], dict[str, int]]:
        """(per-layer metrics, metrics absent because a span is missing, ratio bases)."""
        recs = self._records
        by_id = {r[0]: r for r in recs}
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child_s: defaultdict = defaultdict(float)
        for sid, name, t0, t1, parent, _ in recs:
            calls[name] += 1
            total[name] += t1 - t0
            child_s[parent] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        for sid, name, t0, t1, _, _ in recs:
            self_s[name] += (t1 - t0) - child_s[sid]

        def parent_name(r):
            p = by_id.get(r[4])
            return p[1] if p else None

        # zero tables: a hit did no evaluation below it
        evaluated = set()
        mp_children: defaultdict = defaultdict(list)
        for r in recs:
            if r[1] == "zeros.certified":
                p = by_id.get(r[4])
                while p is not None and p[1] != "zeros.table":
                    p = by_id.get(p[4])
                if p is not None:
                    evaluated.add(p[0])
            elif r[1] == "zeros.eval_mp":
                mp_children[r[4]].append(r[0])
        zeros_delivered = sum(self._extra[sid] for sid in evaluated)
        went_mp = [sorted(kids) for kids in mp_children.values()]
        first_try = sum(1 for kids in went_mp if len(kids) == 1)
        exhausted = sum(1 for kids in went_mp
                        if len(kids) >= MP_ATTEMPTS and not _certified(self._extra[kids[-1]]))
        steps = sum(1 for r in recs if r[1] == "radii.boundary_sup"
                    and parent_name(r) == "radii.certify")
        levels = sum(1 for r in recs if r[1] == "family.on_circle"
                     and parent_name(r) == "radii.boundary_sup")

        values = {
            "kernel.circle_eval.calls": calls["kernel.circle_eval"],
            "kernel.circle_eval.s": total["kernel.circle_eval"],
            "kernel.wright_eval.calls": calls["kernel.wright_eval"],
            "kernel.wright_eval.s": total["kernel.wright_eval"],
            "family.on_circle.calls": calls["family.on_circle"],
            "family.on_circle.self_s": self_s["family.on_circle"],
            "family.real.calls": calls["family.real"],
            "family.real.s": total["family.real"],
            "zeros.table.calls": calls["zeros.table"],
            "zeros.table.s": total["zeros.table"],
            "zeros.table.cache_hit_frac": _ratio(calls["zeros.table"] - len(evaluated),
                                                 calls["zeros.table"]),
            "zeros.evals": calls["zeros.certified"],
            "zeros.evals_per_zero": _ratio(calls["zeros.certified"], zeros_delivered),
            "zeros.mp_evals": calls["zeros.eval_mp"],
            "zeros.mp_s": total["zeros.eval_mp"],
            "zeros.mp_first_try_frac": _ratio(first_try, len(went_mp)),
            "zeros.mp_exhausted": exhausted,
            "zeros.winding.calls": calls["zeros.winding"],
            "zeros.winding.s": total["zeros.winding"],
            "zeros.mp_complex.calls": calls["zeros.mp_complex"],
            "radii.certify.calls": calls["radii.certify"],
            "radii.certify.self_s": self_s["radii.certify"],
            "radii.bisection_steps": _ratio(steps, calls["radii.certify"]),
            "radii.boundary_sup.calls": calls["radii.boundary_sup"],
            "radii.boundary_sup.self_s": self_s["radii.boundary_sup"],
            "radii.sup_levels": _ratio(levels, calls["radii.boundary_sup"]),
            "radii.real_axis.calls": calls["radii.real_axis"],
            "radii.real_axis.s": total["radii.real_axis"],
            "radii.domain_bound.s": total["radii.domain_bound"],
            "cli.sweep.row_busy_s": total["cli.sweep.row"],
            "cli.sweep.busy_over_wall": _ratio(total["cli.sweep.row"], total["cli.sweep"]),
            "cli.emit.s": total["cli.emit"],
        }
        absent_spans = self.absent_spans()
        absent = [m for m, need in METRIC_SPANS.items() if absent_spans & set(need)]
        bases = {"zeros.zeros_delivered": zeros_delivered,
                 "zeros.certified_to_mp": len(went_mp),
                 "zeros.table_misses": len(evaluated)}
        return ({m: v for m, v in values.items() if m not in absent}, absent, bases)


def _certified(mp_call) -> bool:
    """Whether an _eval_mp result clears the sign floor _ComboSeries.certified uses.

    The floor is 10^-(dps-8) * exp(E_max(x)), E_max from kernel.term_exponent_max.
    """
    from mpmath import mp
    from wright_radii.kernel import term_exponent_max
    p, x, dps, value = mp_call
    with mp.workdps(30):
        floor = mp.mpf(10) ** (-(dps - 8)) * mp.exp(term_exponent_max(p, x))
    return abs(value) > floor
