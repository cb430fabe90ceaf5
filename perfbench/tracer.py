"""Tracing from outside the program, and the per-layer metrics it yields.

`Tracer.install()` replaces public functions of `digitsquares` with timing
wrappers.  Modules bind names at import (`from .fields import vec_mul`), so a
function is replaced at every module attribute that holds it, and the suite
functions also inside the `SUITES` table the CLI dispatches through.  A
generator function (`index_blocks`, `coords_blocks`) gets one span per
`next()` call.  Spans are kept in memory as
`[name id, start ns, end ns, parent index]` and written out when the round
ends; `layer_metrics()` turns them into per-layer numbers.

The layers are the package's modules; a span is named
`<module>.<function>` and suites `suites.<suite name>`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

# span name -> the stats reported for it; the order fixes the metric order
LAYERS = {
    "bounds.thmA_rhs": ("calls", "s", "distinct"),
    "bounds.thmB_rhs": ("calls", "s", "distinct"),
    "bounds.thm1_rhs": ("calls", "s", "distinct"),
    "bounds.thm2_rhs": ("calls", "s", "distinct"),
    "bounds.corC_rhs": ("calls", "s", "distinct"),
    "oracles.lemma1_rhs": ("calls", "s", "distinct"),
    "oracles.lemma1_check": ("calls", "s", "self_s"),
    "oracles.lemmaE_check": ("calls", "s", "self_s"),
    "characters.CycloSum.magnitude_interval": ("calls", "s"),
    "boxes.index_blocks": ("blocks", "elements", "s", "self_s"),
    "boxes.coords_blocks": ("blocks", "elements", "s"),
    "counting.count_squares": ("calls", "elements", "s", "self_s"),
    "fields.make_field": ("calls", "distinct", "s"),
    "characters.dlog_table": ("calls", "fields", "s", "self_s"),
    "characters.quad_table": ("calls", "fields", "s", "self_s"),
    "characters.field_generator": ("calls", "s"),
    "characters.quad_char_coords": ("calls", "rows", "s", "self_s"),
    "fields.vec_pow": ("calls", "rows", "s", "self_s"),
    "fields.vec_mul": ("calls", "rows", "s"),
    "boxes.sample_coords": ("calls", "rows", "s"),
    "counting.estimate_square_fraction": ("calls", "samples", "s", "self_s"),
    "cli.run_config": ("calls", "s", "self_s"),
    "reporting.rows_to_csv": ("calls", "rows", "s"),
}
SUITE_NAMES = ("identity", "est1", "thmA", "thmB", "thm1", "thm1-existence",
               "thm2", "corC-report", "lemmaE", "lemma1")
MODULES = ("bounds", "oracles", "characters", "boxes", "counting", "fields",
           "suites", "cli", "reporting")
BOUNDS_RHS = [name for name in LAYERS
              if name.startswith("bounds.") and name.endswith("_rhs")]
GENERATORS = ("boxes.index_blocks", "boxes.coords_blocks")
# calls whose distinct argument tuples are counted
DISTINCT_ARGS = (*BOUNDS_RHS, "oracles.lemma1_rhs", "fields.make_field")
# calls whose distinct FieldCtx objects (first argument) are counted
DISTINCT_FIELDS = ("characters.dlog_table", "characters.quad_table")


def _skip_rows(rows) -> int:
    return sum(1 for row in rows if row.verdict == "skip-hypothesis")


# span name -> (stat, value from (args, result)) counted on each return
COUNTERS = {
    "counting.count_squares": [("elements", lambda a, res: res.size_w)],
    "characters.quad_char_coords": [("rows", lambda a, res: len(a[1]))],
    "fields.vec_pow": [("rows", lambda a, res: len(a[1]))],
    "fields.vec_mul": [("rows", lambda a, res: len(a[1]))],
    "boxes.sample_coords": [("rows", lambda a, res: a[1])],
    "counting.estimate_square_fraction": [("samples", lambda a, res: a[1])],
    "reporting.rows_to_csv": [("rows", lambda a, res: len(a[0]))],
    **{f"suites.{s}": [("rows", lambda a, res: len(res)),
                       ("skip_rows", lambda a, res: _skip_rows(res))]
       for s in SUITE_NAMES},
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer, stats in LAYERS.items():
        for stat in stats:
            unit = "s" if stat in ("s", "self_s") else "count"
            out.append((f"{layer}.{stat}", unit, "lower"))
    for suite in SUITE_NAMES:
        out += [(f"suites.{suite}.s", "s", "lower"),
                (f"suites.{suite}.rows", "count", "lower"),
                (f"suites.{suite}.skip_rows", "count", "lower")]
    out += [("suites.task.count", "count", "lower"),
            ("suites.task.p50_s", "s", "lower"),
            ("suites.task.p90_s", "s", "lower"),
            ("bounds.rhs.calls", "count", "lower"),
            ("bounds.rhs.distinct", "count", "lower"),
            ("bounds.rhs.useful_ratio", "ratio", "higher"),
            ("oracles.lemma1_rhs.useful_ratio", "ratio", "higher"),
            ("fields.make_field.useful_ratio", "ratio", "higher")]
    out += [(f"layer.{m}.self_s", "s", "lower") for m in MODULES]
    out += [("trace.spans", "count", "lower"),
            ("trace_overhead_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._args: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self._fields: dict[str, list] = {name: [] for name in DISTINCT_FIELDS}

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _note_args(self, name: str, args, kwargs):
        if name in self._args:
            self._args[name].add((args, tuple(sorted(kwargs.items()))))
        elif name in self._fields:
            refs = self._fields[name]
            if not any(ref() is args[0] for ref in refs):
                refs.append(weakref.ref(args[0]))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._note_args(name, args, kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for stat, value in counters:
                self.counts[f"{name}.{stat}"] += value(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)

        def timed(gen):
            while True:
                idx = self._open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[f"{name}.blocks"] += 1
                self.counts[f"{name}.elements"] += len(item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function at every place `digitsquares` binds it."""
        for short in MODULES:
            importlib.import_module(f"digitsquares.{short}")
        modules = [m for key, m in sys.modules.items()
                   if key == "digitsquares" or key.startswith("digitsquares.")]
        for name in LAYERS:
            short, *path = name.split(".")
            owner = sys.modules[f"digitsquares.{short}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            traced = wrap(name, fn)
            if len(path) > 1:  # a method: replace it on its class
                setattr(owner, path[-1], traced)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
        table = sys.modules["digitsquares.suites"].SUITES
        for suite in SUITE_NAMES:
            table[suite] = self._wrap(f"suites.{suite}", table[suite])

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        counts = dict(self.counts)
        for name, seen in self._args.items():
            counts[f"{name}.distinct"] = len(seen)
        for name, refs in self._fields.items():
            counts[f"{name}.fields"] = len(refs)
        counts["bounds.rhs.distinct"] = sum(len(self._args[n]) for n in BOUNDS_RHS)
        return {"names": self.names, "spans": self.spans, "counts": counts}


class TraceError(ValueError):
    """The recorded spans break an invariant of the tracer."""


def self_times(spans, wall_ns: int) -> list[int]:
    """Self time of each span in ns, after checking that spans nest.

    Raises TraceError unless every span lies inside its parent, every self
    time is >= 0, and the self times sum to at most `wall_ns`.
    """
    child_ns = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if end < start:
            raise TraceError(f"span {i} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if parent >= i or start < p_start or end > p_end:
                raise TraceError(f"span {i} does not nest in its parent {parent}")
            child_ns[parent] += end - start
    own = [end - start - child_ns[i] for i, (_, start, end, _) in enumerate(spans)]
    if any(t < 0 for t in own):
        raise TraceError("a span's children cover more than the span")
    if sum(own) > wall_ns:
        raise TraceError(f"self times sum to {sum(own)} ns, above the wall "
                         f"time {wall_ns} ns")
    return own


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(trace: dict, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but trace_overhead_s)."""
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    own = self_times(spans, wall_ns)
    calls = Counter()
    incl = Counter()
    excl = Counter()
    module_self = Counter()
    task_s = []
    for (name_id, start, end, _), self_ns in zip(spans, own):
        name = names[name_id]
        calls[name] += 1
        incl[name] += end - start
        excl[name] += self_ns
        module_self[name.split(".", 1)[0]] += self_ns
        if name.startswith("suites."):
            task_s.append((end - start) / 1e9)
    values = {}
    for layer, stats in LAYERS.items():
        for stat in stats:
            key = f"{layer}.{stat}"
            if stat == "calls":
                values[key] = calls[layer]
            elif stat == "s":
                values[key] = incl[layer] / 1e9
            elif stat == "self_s":
                values[key] = excl[layer] / 1e9
            else:
                values[key] = counts.get(key, 0)
    for suite in SUITE_NAMES:
        values[f"suites.{suite}.s"] = incl[f"suites.{suite}"] / 1e9
        values[f"suites.{suite}.rows"] = counts.get(f"suites.{suite}.rows", 0)
        values[f"suites.{suite}.skip_rows"] = counts.get(f"suites.{suite}.skip_rows", 0)
    values["suites.task.count"] = len(task_s)
    values["suites.task.p50_s"] = _percentile(task_s, 50)
    values["suites.task.p90_s"] = _percentile(task_s, 90)
    rhs_calls = sum(calls[name] for name in BOUNDS_RHS)
    values["bounds.rhs.calls"] = rhs_calls
    values["bounds.rhs.distinct"] = counts["bounds.rhs.distinct"]
    for key, num, den in (
            ("bounds.rhs.useful_ratio", counts["bounds.rhs.distinct"], rhs_calls),
            ("oracles.lemma1_rhs.useful_ratio",
             counts["oracles.lemma1_rhs.distinct"], calls["oracles.lemma1_rhs"]),
            ("fields.make_field.useful_ratio",
             counts["fields.make_field.distinct"], calls["fields.make_field"])):
        values[key] = num / den if den else 0.0
    for module in MODULES:
        values[f"layer.{module}.self_s"] = module_self[module] / 1e9
    values["trace.spans"] = len(spans)
    return values

