"""Per-layer tracing of dgkit, installed from outside the package.

`install_layers` wraps the public entry points of each layer: class methods
are patched on their class, and each free function is rebound in every
`dgkit.*` namespace that imported it by name.  Every wrapped call records a
span (name, parent, start, end) in flat arrays kept in memory; the hottest
constructor, `Mat.__init__`, is only counted.  `layer_table` turns the spans
into per-name call counts and self times (span minus its child spans), and
`Tracer.write` dumps the raw spans at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# ModuleHomComplex ambient-dimension buckets for the scaling series: [lo, hi).
HOM_DIM_BUCKETS = ((0, 16), (16, 64), (64, 256), (256, 10 ** 9))


def hom_bucket(dim: int) -> str:
    for lo, hi in HOM_DIM_BUCKETS:
        if lo <= dim < hi:
            return f"dim_{lo}_{hi}" if hi < 10 ** 9 else f"dim_{lo}_up"
    raise ValueError(dim)


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.errors: Dict[str, int] = {}     # layer -> exceptions that left it
        self._error_ids: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.hom_dims: Dict[int, int] = {}   # ModuleHomComplex span -> ambient dimension
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: float = 1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: float):
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """A wrapper of `fn` recording one span per call; `before(args)` runs
        ahead of the call, `after(span, args, result)` after it returns."""
        nid = self.name_id(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._stack
        errors, error_ids = self.errors, self._error_ids
        layer = name.split(".")[0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once per layer, however many spans it leaves
                if error_ids.get(layer) != id(exc):
                    error_ids[layer] = id(exc)
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_calls(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, wrapper: Callable):
        self._set(cls, attr, wrapper)

    def patch_function(self, module, attr: str, wrapper_for: Callable[[Callable], Callable]):
        """Rebind `module.attr` and every `dgkit.*` alias of the same object."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "dgkit" or mod_name.startswith("dgkit.")) and \
                    getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        return layer_table(self.names, self.span_name, self.span_parent,
                           self.span_start, self.span_end)

    def hom_series(self) -> Dict[str, Dict[str, float]]:
        """ModuleHomComplex self time per call, bucketed by ambient dimension."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        series = {hom_bucket(lo): {"calls": 0, "self_s": 0.0, "dim_sum": 0}
                  for lo, _ in HOM_DIM_BUCKETS}
        for idx, dim in self.hom_dims.items():
            row = series[hom_bucket(dim)]
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            row["dim_sum"] += dim
        return series

    def write(self, path: Path):
        """Raw spans as JSON: names plus parallel name/parent/start/end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names,
               "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
               "start": self.span_start.tolist(), "end": self.span_end.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(parents, starts, ends) -> List[float]:
    """Span duration minus the durations of its direct children.  Spans come
    from one thread and nest properly, so the children never overlap."""
    n = len(parents)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(n)]


def layer_table(names, span_name, parents, starts, ends) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(parents, starts, ends)
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(span_name):
        row = table[names[nid]]
        row["calls"] += 1
        row["total_s"] += ends[i] - starts[i]
        row["self_s"] += selfs[i]
    return table


# -- what gets wrapped -----------------------------------------------------------

# (module, attribute, span name) for free functions rebound by name.
FUNCTIONS = [
    ("complexes", "hom_complex", "complexes.hom_complex"),
    ("complexes", "direct_sum", "complexes.direct_sum"),
    ("complexes", "constrained_subcomplex", "complexes.constrained_subcomplex"),
    ("dgring", "ideal_power", "dgring.ideal_power"),
    ("bimodules", "cone_module", "bimodules.cone_module"),
    ("bimodules", "end_of", "bimodules.end_coend"),
    ("bimodules", "coend_of", "bimodules.end_coend"),
    ("bimodules", "dual_of", "bimodules.dual_of"),
    ("bimodules", "compose_bimodules", "bimodules.compose_bimodules"),
    ("derived", "balanced_tensor_ring", "derived.balanced_tensor_ring"),
    ("derived", "derived_tensor", "derived.derived_tensor"),
    ("derived", "derived_hom", "derived.derived_hom"),
    ("derived", "tstruct_truncate", "derived.tstruct_truncate"),
    ("changeofrings", "extend_scalars_cat", "changeofrings.extend_scalars_cat"),
    ("changeofrings", "transitivity_check", "changeofrings.transitivity_check"),
    ("changeofrings", "extension_adjunction_check", "changeofrings.adjunction_checks"),
    ("changeofrings", "coextension_adjunction_check", "changeofrings.adjunction_checks"),
    ("changeofrings", "coextension_tensor_check", "changeofrings.adjunction_checks"),
    ("changeofrings", "coextension_cotensor_check", "changeofrings.adjunction_checks"),
    ("changeofrings", "heart_coextension_check", "changeofrings.adjunction_checks"),
    ("deform", "factorize", "deform.factorize"),
    ("deform", "deform_category", "deform.deform_category"),
    ("deform", "check_hlc", "deform.check_hlc"),
    ("scenario", "load_scenario_dict", "scenario.load_scenario_dict"),
    ("cli", "run", "cli.run"),
]

# (module, class, method, span name) for methods patched on their class.
METHODS = [
    ("matrix", "Mat", "solve", "matrix.solve"),
    ("matrix", "Mat", "kernel_basis", "matrix.kernel_basis"),
    ("complexes", "Complex", "__init__", "complexes.Complex.init"),
    ("complexes", "ChainMap", "__init__", "complexes.ChainMap.init"),
    ("complexes", "Complex", "cohomology", "complexes.cohomology"),
    ("complexes", "TensorLayout", "map_from_entries", "complexes.TensorLayout.map_from_entries"),
    ("dgring", "DgRing", "__init__", "dgring.DgRing.init"),
    ("dgcat", "DgCategory", "__init__", "dgcat.DgCategory.init"),
    ("dgcat", "DgFunctor", "__init__", "dgcat.DgFunctor.init"),
    ("bimodules", "Module", "__init__", "bimodules.Module.init"),
    ("bimodules", "BimoduleHomComplex", "__init__", "bimodules.BimoduleHomComplex.init"),
]


def install_layers(tracer: Tracer, mods: Dict[str, object]):
    """Wrap every target; the hooks below add the layer counters."""
    mat = mods["matrix"].Mat

    def rref_before(args):
        m = args[0]
        if m._rref is not None:
            tracer.add("matrix.rref.memo_hits")
        else:
            tracer.maximum("matrix.rref.cells_max", m.rows * m.cols)

    def matmul_before(args):
        a, b = args[0], args[1]
        tracer.add("matrix.matmul.madds", a.rows * a.cols * b.cols)

    def resolve_after(_idx, _args, result):
        tracer.add("derived.resolve_module.generators", len(result.generators))

    def hom_after(idx, args, _result):
        amb = args[0].ambient
        tracer.hom_dims[idx] = sum(amb.dim(d) for d in amb.degrees())

    tracer.patch_method(mat, "__init__", tracer.count_calls("matrix.Mat.allocs", mat.__init__))
    tracer.patch_method(mat, "rref", tracer.wrap("matrix.rref", mat.rref, before=rref_before))
    tracer.patch_method(mat, "__matmul__",
                        tracer.wrap("matrix.matmul", mat.__matmul__, before=matmul_before))
    for mod, cls, attr, name in METHODS:
        owner = getattr(mods[mod], cls)
        tracer.patch_method(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    mhc = mods["bimodules"].ModuleHomComplex
    tracer.patch_method(mhc, "__init__", tracer.wrap("bimodules.ModuleHomComplex.init",
                                                     mhc.__init__, after=hom_after))
    tracer.patch_function(mods["derived"], "resolve_module",
                          lambda fn: tracer.wrap("derived.resolve_module", fn,
                                                 after=resolve_after))
    for mod, attr, name in FUNCTIONS:
        tracer.patch_function(mods[mod], attr, lambda fn, name=name: tracer.wrap(name, fn))
