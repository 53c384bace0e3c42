"""dgkit benchmark: run one seeded workload against the dgkit in ./src.

    python3 perfbench/run.py --workload derived-ring --seed 1 --seconds 35 --trace 0

Load is one caller with one thread in a closed loop: items run back to
back, each starting when the previous one returns.  With --trace 0 a run
times whole passes over the workload's items, each in a child forked after
setup, while the next is expected to fit in --seconds, and always at
least one; it prints the end-to-end metrics, its timings in `ref` units of
the machine-speed kernel in perfbench/speed.py sampled during the pass.
With --trace 1 it times one pass with the layer wrappers of
perfbench/tracing.py installed, then one untraced pass, both in its own
process, and prints the per-layer metrics.  Every item's verdict is checked
against its expected verdict or oracle; the last stdout line is the JSON
result.  Exit code 2 means the benchmark could not run (no dgkit source
next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (perfbench/speed.py, found via HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

# setup is repeated and its median reported, so one slow import does not decide it
SETUP_REPEATS = 5
DGKIT_MODULES = ["fields", "matrix", "complexes", "dgring", "dgcat", "bimodules", "instances",
                 "derived", "changeofrings", "deform", "scenario", "cli", "verify"]
# dgkit imports these lazily; they are loaded once before any timing
THIRD_PARTY = ["click", "jsonschema", "sympy"]
# a forked child runs one pass; the longest, paper-suite, takes about 40 s
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "item_p50_ref": "ref", "item_tail_ref": "ref",
              "peak_rss_mb": "MiB"}

# span name -> metrics taken from its (calls, self_s) row
SPAN_METRICS = {
    "matrix.rref": ("calls", "self_s"),
    "matrix.matmul": ("calls", "self_s"),
    "matrix.solve": ("calls", "self_s"),
    "matrix.kernel_basis": ("self_s",),
    "complexes.Complex.init": ("calls", "self_s"),
    "complexes.ChainMap.init": ("calls", "self_s"),
    "complexes.cohomology": ("calls", "self_s"),
    "complexes.hom_complex": ("self_s",),
    "complexes.direct_sum": ("self_s",),
    "complexes.constrained_subcomplex": ("self_s",),
    "complexes.TensorLayout.map_from_entries": ("self_s",),
    "dgring.DgRing.init": ("self_s",),
    "dgring.ideal_power": ("self_s",),
    "dgcat.DgCategory.init": ("calls", "self_s"),
    "dgcat.DgFunctor.init": ("calls", "self_s"),
    "bimodules.Module.init": ("calls", "self_s"),
    "bimodules.ModuleHomComplex.init": ("calls", "self_s"),
    "bimodules.BimoduleHomComplex.init": ("self_s",),
    "bimodules.cone_module": ("self_s",),
    "bimodules.end_coend": ("self_s",),
    "bimodules.dual_of": ("self_s",),
    "bimodules.compose_bimodules": ("self_s",),
    "derived.resolve_module": ("calls", "self_s"),
    "derived.balanced_tensor_ring": ("self_s",),
    "derived.derived_tensor": ("calls",),
    "derived.derived_hom": ("calls",),
    "derived.tstruct_truncate": ("self_s",),
    "changeofrings.extend_scalars_cat": ("calls", "self_s"),
    "changeofrings.transitivity_check": ("self_s",),
    "changeofrings.adjunction_checks": ("self_s",),
    "deform.factorize": ("self_s",),
    "deform.deform_category": ("self_s",),
    "deform.check_hlc": ("self_s",),
    "scenario.load_scenario_dict": ("self_s",),
    "cli.run": ("self_s",),
}
PAPER_CHECKS = ["coend_end_oracle", "co_yoneda", "truncation_suite", "tstructure_axioms",
                "derived_tensor_laws", "resolution_invariance", "duality",
                "changeofrings_adjunctions", "deformation_pipeline", "negative_controls"]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {"fields.QQ.item_s": "s", "fields.GF.item_s": "s"}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units.update({
        "matrix.rref.memo_hit_ratio": "1", "matrix.rref.cells_max": "count",
        "matrix.matmul.madds": "count", "matrix.Mat.allocs": "count",
        "derived.resolve_module.generators": "count", "derived.resolve_module.minimal_ratio": "1",
        "derived.errors": "count",
    })
    for lo, _ in tracing.HOM_DIM_BUCKETS:
        bucket = tracing.hom_bucket(lo)
        units[f"bimodules.ModuleHomComplex.{bucket}.calls"] = "count"
        units[f"bimodules.ModuleHomComplex.{bucket}.ms_per_call"] = "ms"
    for check in PAPER_CHECKS:
        units[f"verify.{check}.s"] = "s"
    units["trace.overhead"] = "1"
    return units


# -- setup ---------------------------------------------------------------------------


def import_dgkit() -> SimpleNamespace:
    """Import dgkit afresh from the checkout's src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "dgkit" or m.startswith("dgkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"dgkit.{name}") for name in DGKIT_MODULES}
    origin = Path(sys.modules["dgkit"].__file__).resolve().parent
    if origin != SRC / "dgkit":
        raise ImportError(f"dgkit was imported from {origin}, not from {SRC / 'dgkit'}")
    return SimpleNamespace(**mods)


def input_digest(wl: workloads.Workload) -> str:
    return _digest([[item.name, item.expect, item.inputs] for item in wl.items])


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- passes --------------------------------------------------------------------------


@dataclass
class Record:
    name: str
    field: str
    seconds: float
    outcome: str          # "pass", "fail" or the class name of the exception raised
    expect: str
    invariants: object
    extra: dict
    ref: float = 0.0      # seconds over the speed probe's reference; 0 without a probe


@dataclass
class PassResult:
    wall_s: float
    records: List[Record]
    peak_rss_mb: float = 0.0
    wall_ref: float = 0.0
    probe: Optional[Dict] = None

    @property
    def digest(self) -> str:
        return _digest([[r.name, r.outcome, r.invariants] for r in self.records])


def run_pass(wl: workloads.Workload, probe: Optional[speed.Probe] = None) -> PassResult:
    """Run every item once.  With a probe, the kernel samples it takes are
    taken out of the item and pass times, and each time is also given in
    `ref` units: over the kernel's time around it."""
    # The inputs and everything imported stay alive for the whole run; freezing
    # them keeps the cyclic collector from re-scanning them during the pass, as
    # it would not in a `dgkit` process that holds one scenario.
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    records, spans = [], []
    if probe is not None:
        probe.start()
    start = clock()
    for item in wl.items:
        t0 = clock()
        try:
            verdict, inv, extra = item.call()
            outcome, inv = "pass" if verdict else "fail", workloads.invariants(inv)
        except Exception as exc:  # an item that raises is recorded, and the pass goes on
            outcome, inv, extra = type(exc).__name__, None, {}
            if outcome != item.expect:
                print(f"item {item.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        t1 = clock()
        spans.append((t0, t1))
        records.append(Record(item.name, item.field, t1 - t0, outcome, item.expect, inv, extra))
    end = clock()
    if probe is None:
        return PassResult(end - start, records)
    probe.stop()
    for r, (t0, t1) in zip(records, spans):
        r.seconds -= probe.inside(t0, t1)
        r.ref = r.seconds / probe.reference(t0, t1)
    wall_s = end - start - probe.inside(start, end)
    return PassResult(wall_s, records, wall_ref=wall_s / probe.reference(start, end),
                      probe={"samples": len(probe.durations),
                             "kernel_s": speed.trimmed_mean(probe.durations)})


def timed_passes(wl: workloads.Workload, seconds: float) -> List[PassResult]:
    """One pass per forked child, back to back, while the next is expected to
    fit in `seconds`; always at least one."""
    passes = []
    gc.collect()
    start = time.perf_counter()
    while True:
        passes.append(forked_pass(wl))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def forked_pass(wl: workloads.Workload) -> PassResult:
    """Run one probed pass in a forked child and read it back.  Every child
    starts from the state setup left, so no pass sees what an earlier one
    memoised, and none pays for importing dgkit again."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run, write the pass to the pipe, exit without cleanup
        code = 1
        try:
            os.close(rfd)
            p = run_pass(wl, speed.Probe())
            out = {"wall_s": p.wall_s, "wall_ref": p.wall_ref, "probe": p.probe,
                   "peak_rss_mb": peak_rss_mb(),
                   "records": [[r.name, r.field, r.seconds, r.outcome, r.expect,
                                r.invariants, r.extra, r.ref] for r in p.records]}
            with os.fdopen(wfd, "w") as fh:
                json.dump(out, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    chunks, deadline = [], time.monotonic() + PASS_TIMEOUT_S
    try:
        while True:
            ready, _, _ = select.select([rfd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                raise RuntimeError(f"a pass took longer than {PASS_TIMEOUT_S} s")
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the pass's child exited with status {status}")
    out = json.loads(b"".join(chunks))
    return PassResult(out["wall_s"], [Record(*r) for r in out["records"]], out["peak_rss_mb"],
                      out["wall_ref"], out["probe"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: List[float]):
    """(value, percentile, items beyond) for the highest nearest-rank percentile
    with at least ten items beyond it; with fewer than 20 items, the slowest."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def item_times(passes: List[PassResult], attr: str) -> List[float]:
    """Each item's median over the passes, in item order."""
    return [statistics.median(getattr(p.records[i], attr) for p in passes)
            for i in range(len(passes[0].records))]


# -- checks --------------------------------------------------------------------------


def check_outcomes(passes: List[PassResult]) -> Dict:
    """Attempted, failed and whether every output is correct.  A verdict that
    differs from the expected one, or digests that differ between passes, make
    the run incorrect; an unexpected exception counts as a failed item."""
    first = passes[0]
    failed = sum(r.outcome != r.expect for r in first.records)
    wrong = [r.name for r in first.records
             if r.outcome in ("pass", "fail") and r.outcome != r.expect]
    digests = sorted({p.digest for p in passes})
    return {"attempted": len(first.records), "failed": failed,
            "correct": not wrong and len(digests) == 1,
            "wrong_verdicts": wrong, "digest": digests[0] if len(digests) == 1 else digests}


# -- metrics -------------------------------------------------------------------------


def end_to_end_metrics(passes: List[PassResult], setup_s: List[float]) -> Dict:
    """The declared metrics, and the timing details that go to the result file:
    the same timings in seconds, the tail's percentile, the probe's samples."""
    refs, times = item_times(passes, "ref"), item_times(passes, "seconds")
    tail_ref, pct, beyond = tail(refs)
    return {
        "wall_ref": statistics.median(p.wall_ref for p in passes),
        "setup_s": statistics.median(setup_s),
        "item_p50_ref": statistics.median(refs),
        "item_tail_ref": tail_ref,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }, {"tail_percentile": pct, "items_beyond_tail": beyond, "items": len(times),
        "passes": len(passes), "wall_s": statistics.median(p.wall_s for p in passes),
        "item_p50_s": statistics.median(times), "item_tail_s": tail(times)[0],
        "pass_wall_s": [p.wall_s for p in passes], "pass_wall_ref": [p.wall_ref for p in passes],
        "probe": [p.probe for p in passes], "setup_s": setup_s}


def per_layer_metrics(untraced: PassResult, traced: PassResult,
                      tracer: tracing.Tracer) -> Dict[str, float]:
    table = tracer.layer_table()
    counters = tracer.counters
    out: Dict[str, float] = {}
    for label in ("QQ", "GF"):
        out[f"fields.{label}.item_s"] = sum(r.seconds for r in untraced.records
                                            if r.field == label)
    for span, kinds in SPAN_METRICS.items():
        row = table.get(span, {"calls": 0, "self_s": 0.0})
        for kind in kinds:
            out[f"{span}.{kind}"] = row[kind]
    rref_calls = out["matrix.rref.calls"]
    out["matrix.rref.memo_hit_ratio"] = \
        counters.get("matrix.rref.memo_hits", 0) / rref_calls if rref_calls else 0.0
    out["matrix.rref.cells_max"] = counters.get("matrix.rref.cells_max", 0)
    out["matrix.matmul.madds"] = counters.get("matrix.matmul.madds", 0)
    out["matrix.Mat.allocs"] = counters.get("matrix.Mat.allocs", 0)
    out["derived.resolve_module.generators"] = counters.get("derived.resolve_module.generators", 0)
    out["derived.resolve_module.minimal_ratio"] = minimal_ratio(traced)
    out["derived.errors"] = tracer.errors.get("derived", 0)
    for bucket, row in tracer.hom_series().items():
        out[f"bimodules.ModuleHomComplex.{bucket}.calls"] = row["calls"]
        out[f"bimodules.ModuleHomComplex.{bucket}.ms_per_call"] = \
            1000 * row["self_s"] / row["calls"] if row["calls"] else 0.0
    by_name = {r.name: r.seconds for r in untraced.records}
    for check in PAPER_CHECKS:
        out[f"verify.{check}.s"] = by_name.get(check, 0.0)
    out["trace.overhead"] = traced.wall_s / untraced.wall_s
    return out


def minimal_ratio(p: PassResult) -> float:
    """Bar-oracle Tor dimensions on [floor, 0] over the resolution generators
    attached, summed over the k (x)^L k items; 0 when the workload has none."""
    rows = [r.extra for r in p.records if "generators" in r.extra]
    generators = sum(e["generators"] for e in rows)
    return sum(e["minimal"] for e in rows) / generators if generators else 0.0


# -- environment ---------------------------------------------------------------------


def loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def environment() -> Dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "sympy": version("sympy"),
            "hypothesis": version("hypothesis"), "commit": git_commit(ROOT)}


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- main ----------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import dgkit and generate the inputs SETUP_REPEATS times; the last
    import and its inputs are the ones measured.  (An earlier import's inputs
    cannot be used: dgkit imports some modules lazily, which would mix the two
    imports' classes.)"""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dg = import_dgkit()
        wl = workloads.BY_NAME[workload](dg, seed)
        times.append(time.perf_counter() - t0)
    return dg, wl, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgkit" / "__init__.py").is_file():
        print(f"error: no dgkit source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in THIRD_PARTY:
        importlib.import_module(name)
    load_start = loadavg()
    dg, wl, setup_s = setup(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "input_digest": input_digest(wl)}
    if args.trace:
        # The traced pass runs first, so the untraced one it is compared with
        # does not pay the process's first-pass costs; each pass gets inputs of
        # its own, so neither sees the other's memoised results.
        tracer = tracing.Tracer()
        tracing.install_layers(tracer, vars(dg))
        try:
            traced = run_pass(wl)
        finally:
            tracer.uninstall()
        untraced = run_pass(workloads.BY_NAME[args.workload](dg, args.seed))
        passes = [untraced, traced]
        metrics = per_layer_metrics(untraced, traced, tracer)
        units = per_layer_units()
        tracer.write(OUT / f"spans-{args.workload}.json")
        record["layers"] = tracer.layer_table()
        record["module_hom_series"] = tracer.hom_series()
    else:
        passes = timed_passes(wl, args.seconds)
        metrics, record["timing"] = end_to_end_metrics(passes, setup_s)
        units = END_TO_END
    status = check_outcomes(passes)
    record.update(status)
    record["fail_ratio"] = status["failed"] / status["attempted"]
    record["items"] = [{"name": r.name, "outcome": r.outcome, "expect": r.expect,
                        "s": [p.records[i].seconds for p in passes],
                        "ref": [p.records[i].ref for p in passes]}
                       for i, r in enumerate(passes[0].records)]
    record["env"] = dict(environment(), loadavg_start=load_start, loadavg_end=loadavg())
    record["metrics"] = metrics

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {record['fail_ratio']:.6g} 1")
    if "timing" in record:
        t = record["timing"]
        print(f"in seconds: wall_s {t['wall_s']:.6g} item_p50_s {t['item_p50_s']:.6g} "
              f"item_tail_s {t['item_tail_s']:.6g}")
        print(f"item_tail is p{t['tail_percentile']} of {t['items']} items, "
              f"{t['items_beyond_tail']} beyond; {t['passes']} passes")
    print("digest", status["digest"], "inputs", record["input_digest"])
    if not status["correct"]:
        print("wrong verdicts:", status["wrong_verdicts"], "digests:", status["digest"])
    print("env", json.dumps(record["env"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": status["correct"], "attempted": status["attempted"],
                      "failed": status["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
