"""Outside-in layer tracing for `lacunary`, with no change to its source.

`Tracer.install()` replaces each public function listed in `LAYERS` with
a wrapper that records a span, in the defining module or class and in
every `lacunary` module that imported the name, so calls made inside the
package are traced too.  `Tracer.uninstall()` puts every original back;
`unrestored()` confirms that it did.

A span is [name, start_ns, end_ns, parent_span, op_id, raised], kept in
memory and written out by `write_spans()`.  A layer's self time is the
duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> (module, public names); "Class.method" names a method.
LAYERS = {
    "cli": ("lacunary.cli", ("main",)),
    "schedule": ("lacunary.schedule", ("PowerSchedule.exponent", "validate_growth")),
    "series": ("lacunary.series", (
        "LacunarySeries.partial_sum", "LacunarySeries.enclose",
        "LacunarySeries.decimal_digits", "LacunarySeries.tail_sandwich",
        "digits_from_interval", "deepest_feasible")),
    "interval": ("lacunary.interval", tuple(
        f"RationalInterval.{m}" for m in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "abs", "__neg__"))),
    "logenc": ("lacunary.logenc", (
        "ln_int_interval", "ln_fraction_interval", "ln_of_interval")),
    "powercmp": ("lacunary.powercmp", ("compare", "power_vs_threshold")),
    "intmath": ("lacunary.intmath", (
        "introot", "primitive_power", "root_sci_string", "floor_log10")),
    "witness": ("lacunary.witness", (
        "certify", "find_n0", "verify_roth_instance", "gap_bound",
        "composite_convergent", "value_enclosure", "true_gap_enclosure",
        "composite_digits")),
    "measure": ("lacunary.measure", ("find_n1", "approximation_measure")),
    "certjson": ("lacunary.certjson", ("rat", "interval", "intstr", "dumps")),
}

# Exact counts beside each layer's self_s/calls/raised, with their units.
COUNTS = {
    "series.partial_sum.useful_ratio": "ratio",
    "series.enclose.useful_ratio": "ratio",
    "series.max_q_bits": "bits",
    "interval.max_endpoint_bits": "bits",
    "witness.roth.depths_tried": "count",
    "certjson.digits_emitted": "chars",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.raised"] = "count"
    units.update(COUNTS)
    return units


def _lacunary_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lacunary" or name.startswith("lacunary."))]


def bindings() -> dict:
    """Every attribute of every `lacunary` module and of the classes they define."""
    names = {}
    for mod in _lacunary_modules():
        for attr, value in vars(mod).items():
            names[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for a, v in vars(value).items():
                    names[(mod.__name__, attr, a)] = v
    return names


def unrestored(before: dict) -> list:
    """Names bound to another object than in the `before` snapshot."""
    after = bindings()
    return sorted(".".join(k) for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def _rat_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._stack = []      # open span indices
        self._child_ns = []   # time covered by children, per open span
        self._patches = []    # (owner, attr, original)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self._built = {"partial_sum": set(), "enclose": set()}
        self._build_calls = {"partial_sum": 0, "enclose": 0}
        self.max_q_bits = 0
        self.max_endpoint_bits = 0
        self.depths_tried = 0
        self.digits_emitted = 0

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        mods = _lacunary_modules()
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(layer, qual, original))
                else:
                    original = getattr(module, qual)
                    wrapper = self._wrap(layer, qual, original)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, qual: str, fn):
        name = f"{layer}.{qual}"
        observe = self._observer(name)
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, False]
            spans.append(span)
            stack.append(idx)
            child_ns.append(0)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                end = span[2] = clock()
                stack.pop()
                dur = end - span[1]
                self.self_ns[layer] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                self.calls[layer] += 1
                if span[5]:
                    self.raised[layer] += 1
            if observe is not None:
                observe(args, result, span)
            return result

        return wrapper

    def _observer(self, name: str):
        layer, _, func = name.partition(".")
        if name in ("series.LacunarySeries.partial_sum", "series.LacunarySeries.enclose"):
            kind = func.rsplit(".", 1)[1]

            def observe(args, result, span):
                self._built[kind].add((span[4], id(args[0]), args[1]))
                self._build_calls[kind] += 1
                dens = ([result.q] if kind == "partial_sum"
                        else [result.lo.denominator, result.hi.denominator])
                self.max_q_bits = max(self.max_q_bits, *(d.bit_length() for d in dens))
            return observe
        if layer == "interval":
            def observe(args, result, span):
                self.max_endpoint_bits = max(self.max_endpoint_bits,
                                             _rat_bits(result.lo), _rat_bits(result.hi))
            return observe
        if name == "witness.true_gap_enclosure":
            def observe(args, result, span):
                if span[3] >= 0 and self.spans[span[3]][0] == "witness.verify_roth_instance":
                    self.depths_tried += 1
            return observe
        if name == "certjson.rat":
            def observe(args, result, span):
                self.digits_emitted += len(result["num"]) + len(result["den"])
            return observe
        if name == "certjson.intstr":
            def observe(args, result, span):
                self.digits_emitted += len(result)
            return observe
        return None

    # --- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.raised"] = self.raised[layer]
        for kind in ("partial_sum", "enclose"):
            calls = self._build_calls[kind]
            values[f"series.{kind}.useful_ratio"] = (
                len(self._built[kind]) / calls if calls else 1.0)
        values["series.max_q_bits"] = self.max_q_bits
        values["interval.max_endpoint_bits"] = self.max_endpoint_bits
        values["witness.roth.depths_tried"] = self.depths_tried
        values["certjson.digits_emitted"] = self.digits_emitted
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                            "op_id", "raised"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
