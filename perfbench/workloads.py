"""The benchmark's workloads: seeded inputs, one callable per item, and the
expected verdict of every item.

An item is one paper check, one derived tensor/Hom call, or one scenario
command invocation.  Items only reach dgkit through module attributes looked
up at call time, so the trace wrappers see every call.  Each item returns
`(verdict, outputs, extra)`: the verdict is checked against the expected
one, the invariant part of the outputs (`invariants`: cohomology and Tor
dimensions, verdict booleans) feeds the run digest, and `extra` carries
numbers the metrics need but the digest must not pin down, such as the
number of resolution generators.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

# The seed `dgkit verify --suite paper` ships with.  paper-suite always runs
# it: other seeds change the suite's cost up to fourfold (truncation_suite took
# 3.6 s to 89 s across seeds 1-5), which no run length averages out.
PAPER_SEED = 20260809

# derived-ring: k[e]/(e^n) with |e| as given, over Q and F_101.  (3, 0) runs
# over F_101 only: over Q its two items took 8-10 s, so a pass held one noisy
# sample of them and too few passes fit in a run to steady the item times.
# The shapes, and so the resolution blow-up and the large end of the
# ModuleHomComplex series, are the same over both fields.
DERIVED_FAMILIES = [(2, -1), (2, 0), (3, -2), (3, 0)]
DERIVED_PRIME = 101
# lo of the k (x)^L k window [lo, 0]; Hom(k, k) uses [0, -lo].  (3, 0) stays
# at lo = 0 because its resolution of k attaches 2^i generators in degree -i
# (31 for the floor -4 where 5 are needed); deeper windows took minutes.
# (3, -2) stays at lo = -3 because lo = -4 reaches the +-16 degree cap.
K_WINDOW_LO = {(2, -1): -6, (2, 0): -4, (3, -2): -3, (3, 0): 0}
# Windows of the random pairs: (tensor window, Hom window or None).  The
# tensor window reaches degree 1, where Tor of nonpositive modules vanishes.
# (3, -2) runs no random Hom: about a quarter of its pairs hit the degree cap.
PAIR_WINDOWS = {(2, -1): ((-3, 1), (-1, 3)),
                (2, 0): ((-2, 1), (-1, 2)),
                (3, -2): ((-2, 1), None)}

# scenario-deform: every ring over Q, and the n = 2 rings over one seeded odd
# prime as well (over F_p too, e^3 and e^4 made a pass 16-19 s, so a run held
# a single sample of each item).  The workload must not build a
# ModuleHomComplex, so that it stays the bypass case for changes to it:
# `dual` (dual_of) and `derived-hom` do, and are not run.
SCENARIO_RINGS = [(2, -1), (2, 0), (2, -2), (3, -2), (4, -2)]
SCENARIO_PRIMES = [3, 5, 7, 11, 13]
CATEGORIES = ["I", "Iarrow", "Iext"]
HOM_COMMANDS = {"dual", "derived-hom"}
# Bundled documents with an expected outcome other than "passes".
CORPUS_EXPECT = {("gap_category.json", "check-hlc"): "fail",
                 ("invalid_d_squared.json", "cohomology"): "ScenarioError"}


@dataclass
class Item:
    name: str
    field: str                     # "QQ" or "GF"
    call: Callable                 # () -> (verdict, outputs, extra)
    expect: str = "pass"           # "pass", "fail", or the exception class name
    inputs: object = None          # JSON description of the generated inputs


@dataclass
class Workload:
    name: str
    items: List[Item]


def invariants(obj):
    """The digestible part of a report: ints, bools and the keys above them.
    Strings (labels, notes, rational entries) and None are dropped."""
    if isinstance(obj, dict):
        return {str(k): invariants(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
                if not isinstance(v, (str, float)) and v is not None}
    if isinstance(obj, (list, tuple)):
        return [invariants(v) for v in obj if not isinstance(v, (str, float)) and v is not None]
    return obj


# -- paper-suite -------------------------------------------------------------------


def paper_suite(dg: SimpleNamespace, seed: int) -> Workload:
    dg.verify.SEED = PAPER_SEED

    def check(name):
        fn = dict(dg.verify.ALL_CHECKS)[name]
        result = fn()
        return result.passed, result.as_dict(), {}

    items = [Item(name, "QQ", lambda name=name: check(name), inputs={"verify_seed": PAPER_SEED})
             for name, _ in dg.verify.ALL_CHECKS]
    return Workload("paper-suite", items)


# -- derived-ring ------------------------------------------------------------------


def derived_ring(dg: SimpleNamespace, seed: int) -> Workload:
    DegreeWindow = dg.derived.DegreeWindow
    items: List[Item] = []
    for label, fld in (("QQ", dg.fields.QQ), ("GF", dg.fields.GF(DERIVED_PRIME))):
        for n, eps in DERIVED_FAMILIES:
            if (n, eps, label) == (3, 0, "QQ"):
                continue
            ring, aug = dg.dgring.make_dual_numbers(n, eps, fld)
            cat = dg.dgcat.one_object_category(ring)
            k = dg.derived.restricted_ground_module(aug, cat)
            tag = f"e^{n}|{eps}|/{label}"
            lo = K_WINDOW_LO[(n, eps)]
            # derived_tensor resolves k down to the floor lo - 4 (k sits in degree 0)
            tor = dg.verify.bar_oracle_dual_numbers_tor(n, eps, fld, DegreeWindow(lo - 4, 0))
            items.append(Item(f"{tag}/k(x)k", label, _k_tensor(dg, k, DegreeWindow(lo, 0), tor),
                              inputs={"window": [lo, 0]}))
            items.append(Item(f"{tag}/Hom(k,k)", label, _k_hom(dg, k, DegreeWindow(0, -lo), tor),
                              inputs={"window": [0, -lo]}))
            if (n, eps) not in PAIR_WINDOWS:
                continue
            rng = random.Random(f"{seed}/{n}/{eps}/{label}")
            t_win, h_win = PAIR_WINDOWS[(n, eps)]
            mods = ring_modules(dg, rng, ring, aug, cat)
            for i, (v, u) in enumerate(zip(mods, reversed(mods))):
                pair = {"v": _describe(v), "u": _describe(u)}
                items.append(Item(f"{tag}/pair{i}/tensor", label,
                                  _pair_tensor(dg, v, u, DegreeWindow(*t_win)),
                                  inputs=dict(pair, window=t_win)))
                if h_win is not None:
                    items.append(Item(f"{tag}/pair{i}/hom", label,
                                      _pair_hom(dg, v, u, DegreeWindow(*h_win)),
                                      inputs=dict(pair, window=h_win)))
    return Workload("derived-ring", items)


def ring_modules(dg, rng, ring, aug, cat):
    """One module of each shape `instances.random_ring_module` draws with one
    summand and a cone: the free module or k, shifted by 0, 1 or 2, coned
    along a seeded degree-0 map from the free module.  The seed picks only
    the maps, so every seed gives the same shapes: drawing the shapes too made
    the (2, 0) pairs of a pass cost up to 60% more on one seed than another.
    The maps are generic (`generic_cocycle`) for the same reason."""
    bim = dg.bimodules
    free = dg.derived.ring_as_module(ring, cat)
    ground = dg.derived.restricted_ground_module(aug, cat)
    mods = []
    for base in (free, ground):
        for shift in (0, 1, 2):
            m = bim.shift_module(base, shift) if shift else base
            mhc = bim.module_hom_complex(free, m)
            v = generic_cocycle(dg, rng, mhc.complex, 0)
            mods.append(bim.cone_module(mhc.module_map_from_cocycle(0, v))[0]
                        if v is not None else m)
    return mods


def generic_cocycle(dg, rng, cx, degree):
    """A cocycle like `instances.random_cocycle` draws, but with every
    coordinate in the kernel basis nonzero (+-1 or +-2), so that the cone
    along it has the same ranks on every seed.  With zero coordinates
    allowed, a map e^2 -> e^2 was sometimes a multiple of e instead of
    invertible: its cone made two (2, 0) items cost 100 times more on one
    seed in five."""
    ker = cx.diff(degree).kernel_basis()
    if ker.cols == 0:
        return None
    coords = [cx.field.from_int(rng.choice((-2, -1, 1, 2))) for _ in range(ker.cols)]
    return ker @ dg.matrix.Mat.column(cx.field, coords)


def _describe(module):
    """Dimensions and differential entries of a one-object module."""
    cx = module.at(module.cat.objects[0])
    return {"dims": {str(d): cx.dim(d) for d in cx.degrees()},
            "d": {str(d): [[str(x) for x in row] for row in m.entries] for d, m in cx.d.items()}}


def _k_tensor(dg, k, window, tor):
    def call():
        rep = dg.derived.derived_tensor(k, k, window)
        expected = {d: tor.get(d, 0) for d in window.degrees()}
        res = rep.resolution
        minimal = sum(v for d, v in tor.items() if d >= res.floor)
        return rep.dims == expected, {"dims": rep.dims}, \
            {"generators": len(res.generators), "minimal": minimal}
    return call


def _k_hom(dg, k, window, tor):
    # RHom(k, k) is the graded dual of k (x)^L k: its dimensions mirror Tor's
    def call():
        rep = dg.derived.derived_hom(k, k, window)
        expected = {d: tor.get(-d, 0) for d in window.degrees()}
        return rep.dims == expected, {"dims": rep.dims}, {}
    return call


def _pair_tensor(dg, v, u, window):
    def call():
        rep = dg.derived.derived_tensor(v, u, window)
        # both factors have nonpositive cohomology, so Tor vanishes above 0
        positive = [rep.dims.get(d, 0) for d in window.degrees() if d > 0]
        return not any(positive), {"dims": rep.dims}, {}
    return call


def _pair_hom(dg, v, u, window):
    def call():
        rep = dg.derived.derived_hom(v, u, window)
        return True, {"dims": rep.dims}, {}
    return call


# -- scenario-deform ---------------------------------------------------------------


def scenario_doc(rng: random.Random, field: str, n: int, eps: int, deform_on: str) -> Dict:
    """One generated scenario over k[e]/(e^n) running every deformation-side
    command on each category, but `deform` on `deform_on` only.  The seed
    picks the t-structure module (and the caller the prime); windows,
    categories and commands stay fixed, because a seeded window and exterior
    degree moved the median item by a quarter."""
    return {
        "field": field,
        "rings": {"R": {"dual_numbers": {"n": n, "eps_degree": eps}},
                  "k": {"ground_field": True}},
        "morphisms": {"theta": {"augmentation": "R"}},
        "categories": {
            "I": {"one_object": "R"},
            "Iarrow": {"free_arrow": "R"},
            "Iext": {"exterior_one_object": {"ring": "R", "gen_degree": -1}},
            "ground": {"one_object": "k"},
        },
        "modules": {"free": {"ring_free": "R"}, "kq": {"restricted_ground": "theta"}},
        "bimodules": {**{f"diag{c}": {"diagonal": c} for c in CATEGORIES},
                      "coext": {"cross": {"acat": "I", "bcat": "ground", "a0": "*", "b0": "*"}}},
        "windows": {"w": {"lo": -3, "hi": 0, "guard": 2}},
        "commands": [
            {"run": "factorize", "morphism": "theta"},
            {"run": "deform", "category": deform_on, "morphism": "theta", "window": "w"},
            *({"run": "extend", "category": c, "morphism": "theta"} for c in CATEGORIES),
            *({"run": "check-hlc", "category": c} for c in CATEGORIES),
            {"run": "coextend-check", "acat": "I", "bcat": "ground", "bimodule": "coext"},
            *({"run": "end", "bimodule": f"diag{c}"} for c in CATEGORIES),
            {"run": "tstruct", "module": rng.choice(["free", "kq"])},
        ],
    }


def scenario_deform(dg: SimpleNamespace, seed: int) -> Workload:
    rng = random.Random(f"{seed}/scenario")
    docs = []
    # deform takes each category in turn: on all three, a pass took 12-15 s
    # and only one or two passes fitted in a run
    for i, (n, eps) in enumerate(SCENARIO_RINGS):
        primes = [f"Fp:{rng.choice(SCENARIO_PRIMES)}"] if n == 2 else []
        for field in ["Q", *primes]:
            doc = scenario_doc(rng, field, n, eps, CATEGORIES[i % len(CATEGORIES)])
            docs.append((f"gen/e^{n}|{eps}|/{field}", doc, None))
    corpus = Path(dg.scenario.__file__).parent / "data" / "scenarios"
    for path in sorted(corpus.glob("*.json")):
        with open(path) as fh:
            docs.append((f"corpus/{path.name}", json.load(fh), path.name))
    items = []
    for doc_name, doc, corpus_name in docs:
        label = "QQ" if doc.get("field", "Q") == "Q" else "GF"
        commands = [c for c in dict.fromkeys(e["run"] for e in doc["commands"])
                    if c not in HOM_COMMANDS]
        for command in commands:
            expect = CORPUS_EXPECT.get((corpus_name, command), "pass")
            items.append(Item(f"{doc_name}/{command}", label,
                              _invocation(dg, doc, command, doc_name), expect, inputs=doc))
    return Workload("scenario-deform", items)


def _invocation(dg, doc, command, source_name):
    """What `dgkit <command> --scenario <doc>` does after interpreter start:
    load the document, then run each of its entries for that command."""
    def call():
        scn = dg.scenario.load_scenario_dict(doc, source_name=source_name)
        results = [dg.cli.run(command, scn, e) for e in scn.commands if e.get("run") == command]
        return all(r.get("passed", True) for r in results), results, {}
    return call


BY_NAME = {"paper-suite": paper_suite, "derived-ring": derived_ring,
            "scenario-deform": scenario_deform}
