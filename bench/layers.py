"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions of the eight ut4class modules,
every other module's imported binding of the same function object, the
`UnitValue` operators and `Character.validate`.  A call that crosses into
another layer opens a span (layer, function, parent span, request, start,
end); a call inside the layer it is already in is only counted, so self
time stays with the layer that does the work.  `core` functions take about
2 us each, less than a span costs, so they are counted and never spanned:
their time falls to the layer that calls them.

Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import array
import inspect
import time
from collections import Counter

from stats import self_times

LAYERS = ("cli", "classify", "cases", "oracle", "characters", "subgroup",
          "intlin", "core")
COUNT_ONLY = {"core"}
UNIT_VALUE_OPS = ("__mul__", "__truediv__", "__pow__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer = array.array("b")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []      # open span indices
        self._layer_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _wrap(self, fn, layer: int, key: str):
        calls = self.calls
        if LAYERS[layer] in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        name_id = len(self.names)
        self.names.append(key)
        stack, layer_stack = self._stack, self._layer_stack
        lay, nam, par, req = self.layer, self.name, self.parent, self.request
        st, en = self.start, self.end
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            calls[key] += 1
            if layer_stack and layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(st)
            lay.append(layer)
            nam.append(name_id)
            par.append(stack[-1] if stack else -1)
            req.append(self.current_request)
            en.append(0.0)
            stack.append(idx)
            layer_stack.append(layer)
            st.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                en[idx] = clock()
                stack.pop()
                layer_stack.pop()

        return spanned

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """modules maps each name in LAYERS to the imported module."""
        mods = [modules[n] for n in LAYERS]
        for li, mod in enumerate(mods):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(obj, li, f"{LAYERS[li]}.{attr}")
                for other in mods:
                    for oattr, oobj in list(vars(other).items()):
                        if oobj is obj:
                            self._set(other, oattr, wrapper)
        chars = modules["characters"]
        li = LAYERS.index("characters")
        for op in UNIT_VALUE_OPS:
            fn = getattr(chars.UnitValue, op)
            self._set(chars.UnitValue, op,
                      self._wrap(fn, li, f"characters.UnitValue.{op}"))
        fn = chars.Character.validate
        self._set(chars.Character, "validate",
                  self._wrap(fn, li, "characters.Character.validate"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ results

    def spans(self):
        return list(zip(self.layer, self.parent, self.start, self.end))

    def metrics(self, index_sum: int) -> dict:
        """Per-layer metrics; index_sum is the summed subgroup index of
        the (3,2) requests the traced round decided correctly."""
        own = self_times(self.spans(), len(LAYERS))
        c = self.calls
        enum_s = sum(self.end[i] - self.start[i] for i in range(len(self.start))
                     if self.names[self.name[i]] == "cases.enumerate_params")
        intersect = c["subgroup.intersect"]
        out = {f"{name}.self_s": (own[i], "s")
               for i, name in enumerate(LAYERS) if name not in COUNT_ONLY}
        out.update({
            "classify.normal_form_calls": (c["classify.normal_form"], "count"),
            "cases.enumerate_params_s": (enum_s, "s"),
            "characters.evaluate_calls": (c["characters.evaluate"], "count"),
            "characters.unit_value_ops": (
                sum(c[f"characters.UnitValue.{op}"] for op in UNIT_VALUE_OPS),
                "count"),
            "characters.validate_calls": (
                c["characters.Character.validate"], "count"),
            "subgroup.canonicalizations": (c["subgroup.subgroup"], "count"),
            "subgroup.intersect_calls": (intersect, "count"),
            "subgroup.derived_subgroup_calls": (
                c["subgroup.derived_subgroup"], "count"),
            "subgroup.intersections_per_index": (
                intersect / index_sum if index_sum else 0.0, "ratio"),
            "intlin.hnf_calls": (
                c["intlin.hnf"] + c["intlin.hnf_with_transform"], "count"),
            "core.calls": (sum(c[f"core.{f}"] for f in (
                "compose", "inverse", "power", "conjugate", "commutator")),
                "count"),
        })
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span:
        id parent request layer function start end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tlayer\tfunction\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                         f"{LAYERS[self.layer[i]]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
